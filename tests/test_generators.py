"""
Tests for the graph generators.

Core claims:
    - Z^d word-ball volumes match brute-force l1 enumeration (d <= 3)
      and graph distance from the origin equals the l1 norm
    - the H3 word ball matches an independent set-expansion oracle over
      unipotent matrices for R <= 5, with |B(1)| = 5, |B(2)| = 17 and the
      central element at word length 4
    - cayley_ball layers are word spheres and indexing is deterministic
    - the numpy word-ball kernel matches the pure-Python frontier loop kept
      here as the reference (layer sizes, element order, adjacency, edge
      count) on named and seeded random generating sets, and the closed
      forms of Z^2 and Z^3 beyond the reference's reach; budget errors fire
      at the same layer with the same count, and a key box too large for
      int64 is rejected before numpy is touched
    - stretched_tree_chain has the hand-counted shape for (2,3,1), the
      advertised root-to-leaf distances, shared last generations, and the
      annulus/sphere bursts that break sphere decay
    - the (3,2) chain has exact 1-sphere spikes of size >= 2^n at centers
      placed just outside block n
    - stairway_strip is connected with 4-neighbor edges; its ambient norm
      profile has linear growth but sphere spikes at dyadic radii, while the
      graph metric sees no spikes
    - vertex budgets fail loudly with the construction stage named
    - the array builds of stretched_tree_chain, stairway_strip and
      norm_profile match the loops kept here as references: the same
      Graph (adjacency and basepoints) for tree chains of stretch and
      valence 2-4 up to about 50k vertices, the same points (a read-only
      int64 array `xy`) and Graph for stairways of 2-11 levels, the same
      profiles at depths below, at and past 2^L + 1, and the same budget
      error texts; the ceiling square
      root is exact past float precision, and a stairway whose cell keys
      could pass int64 is refused before it is built
    - in every generated family each point near a center ends a monotone
      chain with step 1
"""

import itertools
import math
import random

import numpy as np
import pytest

from folnerlab import generators
from folnerlab.errors import BudgetExceededError, NotGeneratingError
from folnerlab.generators import (
    WordBall,
    cayley_ball,
    norm_profile,
    stairway_strip,
    stretched_tree_chain,
    word_ball,
)
from folnerlab.groups import check_generates, heisenberg_model, zd_model
from folnerlab.products import ProductSequence
from folnerlab.space import Graph, VolumeProfile
from folnerlab.space import (
    bfs_distances,
    monotone_geodesic,
    separated_net,
    volume_profile,
)
from tuple_law import multiply


# -- Oracles -----------------------------------------------------------------


def _elements(ball) -> tuple:
    """The elements of a word ball in vertex order: layer by layer, each by key."""
    return tuple(ball.layers[0].box.elements(np.concatenate([layer.keys for layer in ball.layers])))


def _block_depth(a: int, n: int) -> int:
    """Root-to-leaf distance in block n: sum of a^(n-k), k = 1..n, a the stretch."""
    return (a**n - 1) // (a - 1)


def _l1_ball_size(d: int, n: int) -> int:
    """Count lattice points with |x|_1 <= n by direct enumeration."""
    return sum(
        1
        for p in itertools.product(range(-n, n + 1), repeat=d)
        if sum(abs(c) for c in p) <= n
    )


def _heis_oracle_balls(r_max: int) -> list[int]:
    """Word-ball sizes in H3(Z) by independent set expansion over matrices."""
    gens = []
    for x, y in ((1, 0), (-1, 0), (0, 1), (0, -1)):
        gens.append(np.array([[1, x, 0], [0, 1, y], [0, 0, 1]], dtype=np.int64))
    ball = {(0, 0, 0)}
    sizes = [1]
    frontier = [np.eye(3, dtype=np.int64)]
    for _ in range(r_max):
        new = []
        for m in frontier:
            for g in gens:
                p = m @ g
                key = (int(p[0, 1]), int(p[1, 2]), int(p[0, 2]))
                if key not in ball:
                    ball.add(key)
                    new.append(p)
        sizes.append(len(ball))
        frontier = new
    return sizes


def _reference_cayley_ball(model, generating_set, radius, vertex_budget=10**9):
    """The pure-Python frontier loop: (layers, elements, graph).

    Layers are the sorted word spheres; vertex i is the i-th element in
    (layer, sorted) order; a budget error carries the layer that crossed it.
    """
    steps = model.symmetrize(generating_set)
    check_generates(model, steps)
    seen = {model.identity}
    layers = [[model.identity]]
    for r in range(radius):
        frontier = set()
        for g in layers[-1]:
            for s in steps:
                h = multiply(model, g, s)
                if h not in seen:
                    frontier.add(h)
        if not frontier:
            break
        seen |= frontier
        if len(seen) > vertex_budget:
            raise BudgetExceededError("cayley_ball", len(seen), vertex_budget, layer=r + 1)
        layers.append(sorted(frontier))
    elements = [g for layer in layers for g in layer]
    index = {g: i for i, g in enumerate(elements)}
    edges = set()
    for g, i in index.items():
        for s in steps:
            j = index.get(multiply(model, g, s))
            if j is not None and i < j:
                edges.add((i, j))
    graph = Graph.from_edges(len(elements), sorted(edges), {"origin": 0})
    return layers, tuple(elements), graph


def _random_generating_sets(model, seed, count, size, span, z_span=0):
    """Seeded small generating sets, one-sided ones included (the kernel
    symmetrizes them); draws that do not generate are skipped."""
    rng = random.Random(seed)
    found = []
    while len(found) < count:
        gens = []
        for _ in range(rng.randint(*size)):
            g = [rng.randint(-span, span) for _ in range(model.rank)]
            if z_span:
                g[2] = rng.randint(-z_span, z_span)
            gens.append(tuple(g))
        try:
            check_generates(model, model.symmetrize(gens))
        except NotGeneratingError:
            continue
        found.append(tuple(gens))
    return found


def _kernel_cases():
    """(model, generating set, radius) triples for the differential tests."""
    cases = [
        pytest.param(zd_model(1), "standard", 12, id="Z1-standard"),
        pytest.param(zd_model(2), "standard", 10, id="Z2-standard"),
        pytest.param(zd_model(2), "diagonal", 9, id="Z2-diagonal"),
        pytest.param(zd_model(2), "skew", 9, id="Z2-skew"),
        pytest.param(zd_model(3), "standard", 6, id="Z3-standard"),
        pytest.param(heisenberg_model(), "standard", 8, id="H3-standard"),
    ]
    for name, model, seed, size, span, z_span, radius in (
        ("Z2", zd_model(2), 5, (2, 4), 2, 0, 6),
        ("Z3", zd_model(3), 6, (3, 5), 1, 0, 4),
        ("H3", heisenberg_model(), 7, (2, 4), 1, 1, 4),
    ):
        sets = _random_generating_sets(model, seed, 3, size, span, z_span)
        for k, gens in enumerate(sets):
            cases.append(pytest.param(model, gens, radius, id=f"{name}-random{k}"))
    return cases


class TestWordBallKernel:
    @pytest.mark.parametrize("model,gens,radius", _kernel_cases())
    def test_matches_reference_loop(self, model, gens, radius):
        if isinstance(gens, str):
            gens = model.generating_set(gens)
        layers, elements, graph = _reference_cayley_ball(model, gens, radius)
        kernel = word_ball(model, gens, radius)
        assert kernel.sizes == tuple(itertools.accumulate(len(layer) for layer in layers))
        assert _elements(kernel) == elements
        assert kernel.edge_count == graph.edge_count
        ball = cayley_ball(model, gens, radius)
        assert _elements(ball) == elements
        assert ball.graph.adjacency == graph.adjacency

    @pytest.mark.parametrize("model,gens,radius", _kernel_cases()[:6])
    def test_a_word_ball_is_the_powers_of_its_unit(self, model, gens, radius):
        """The ball's shells are the reference word spheres, its factors are
        one run of the symmetrized set with the identity adjoined, one step
        per unit of radius, and the record adds
        only the graph to `ProductSequence`."""
        layers, _, _ = _reference_cayley_ball(model, model.generating_set(gens), radius)
        ball = word_ball(model, gens, radius)
        assert isinstance(ball, ProductSequence) and ball.steps == radius
        assert [ball.shell(r - 1, r).elements() for r in range(radius + 1)] == layers
        unit = {model.identity, *model.symmetrize(model.generating_set(gens))}
        assert [(set(f), count) for f, count in ball.factors] == [(unit, radius)]
        assert ball.profile(radius + 3) == volume_profile(ball.graph, 0, radius + 3)
        added = {name for name in vars(WordBall) if not name.startswith("__")}
        assert added == {"edge_count", "edges", "graph"}

    def test_random_cases_include_one_sided_sets(self):
        one_sided = [
            gens
            for model, gens, _ in (case.values for case in _kernel_cases())
            if not isinstance(gens, str)
            and set(model.symmetrize(gens)) != set(gens) - {model.identity}
        ]
        assert one_sided

    def test_z2_closed_form_at_radius_400(self):
        ball = word_ball(zd_model(2), zd_model(2).generating_set("standard"), 400)
        profile = ball.profile(400)
        assert all(profile.ball[r] == 2 * r * r + 2 * r + 1 for r in range(401))
        assert ball.edge_count == 4 * 400**2

    def test_z3_octahedral_numbers(self):
        ball = word_ball(zd_model(3), zd_model(3).generating_set("standard"), 60)
        profile = ball.profile(60)
        assert all(
            profile.ball[r] == (2 * r + 1) * (2 * r * r + 2 * r + 3) // 3
            for r in range(61)
        )

    def test_radius_zero_is_the_identity(self):
        model = heisenberg_model()
        ball = word_ball(model, model.generating_set("standard"), 0)
        assert _elements(ball) == ((0, 0, 0),)
        assert ball.edge_count == 0
        assert ball.graph.vertex_count == 1

    @pytest.mark.parametrize("budget", [4, 5, 12, 13, 40, 100])
    def test_budget_fires_like_the_reference(self, budget):
        model = heisenberg_model()
        gens = model.generating_set("standard")
        with pytest.raises(BudgetExceededError) as expected:
            _reference_cayley_ball(model, gens, 6, budget)
        with pytest.raises(BudgetExceededError, match="cayley_ball") as got:
            word_ball(model, gens, 6, budget)
        assert (got.value.reached, got.value.layer) == (
            expected.value.reached,
            expected.value.layer,
        )

    def test_budget_error_names_layer(self):
        with pytest.raises(BudgetExceededError, match="at layer 2") as exc:
            word_ball(zd_model(2), "standard", 10, vertex_budget=10)
        assert (exc.value.stage, exc.value.reached, exc.value.layer) == (
            "cayley_ball",
            13,
            2,
        )

    def test_key_box_overflow_is_rejected_before_numpy(self, monkeypatch):
        model = zd_model(2)
        gens = model.generating_set("standard") + ((2**40, 0),)
        # Any numpy call would now fail with another error type.
        monkeypatch.setattr(generators, "np", None)
        with pytest.raises(ValueError, match="int64"):
            word_ball(model, gens, 2**12)


# -- Word-metric graphs ------------------------------------------------------


class TestLatticeGraph:
    @pytest.mark.parametrize("d,r", [(1, 10), (2, 10), (3, 7)])
    def test_ball_volumes_match_l1_enumeration(self, d, r):
        ball = word_ball(zd_model(d), "standard", r)
        profile = volume_profile(ball.graph, 0, r)
        for n in range(r + 1):
            assert profile.ball[n] == _l1_ball_size(d, n)

    def test_distance_is_l1_norm(self):
        ball = word_ball(zd_model(2), "standard", 6)
        dist = bfs_distances(ball.graph, 0)
        for i, (x, y) in enumerate(_elements(ball)):
            assert dist[i] == abs(x) + abs(y)

    def test_z1_is_a_path(self):
        ball = word_ball(zd_model(1), "standard", 5)
        g = ball.graph
        assert g.vertex_count == 11
        assert sorted(len(nbrs) for nbrs in g.adjacency) == [1, 1] + [2] * 9

    def test_z2_radius_2_has_13_vertices(self):
        assert word_ball(zd_model(2), "standard", 2).graph.vertex_count == 13

    def test_layers_are_word_spheres(self):
        ball = word_ball(zd_model(2), "standard", 4)
        dist = bfs_distances(ball.graph, 0)
        # indices are assigned layer by layer, so distance is nondecreasing
        distances = [dist[i] for i in range(ball.graph.vertex_count)]
        assert distances == sorted(distances)

    def test_deterministic_indexing(self):
        a = word_ball(zd_model(2), "standard", 4)
        b = word_ball(zd_model(2), "standard", 4)
        assert _elements(a) == _elements(b)
        assert a.graph.adjacency == b.graph.adjacency

    def test_diagonal_set_grows_faster(self):
        std = volume_profile(word_ball(zd_model(2), "standard", 5).graph, 0, 5)
        diag = volume_profile(word_ball(zd_model(2), "diagonal", 5).graph, 0, 5)
        assert all(a <= b for a, b in zip(std.ball, diag.ball))
        assert diag.ball[5] > std.ball[5]

    def test_skew_set_symmetrizes_to_hexagonal(self):
        ball = word_ball(zd_model(2), "skew", 3)
        # six neighbors of the origin
        assert len(ball.graph.adjacency[0]) == 6

    def test_net_on_z1_annulus(self):
        # Annulus 4 < |x| <= 8 with k = 1: ascending index order visits -5,
        # +5 first, then skips the 1-neighborhoods, keeping {-5, 5, -7, 7}.
        ball = word_ball(zd_model(1), "standard", 8)
        net = separated_net(ball.graph, 0, 4, 8, 1)
        coords = sorted(_elements(ball)[v][0] for v in net)
        assert coords == [-7, -5, 5, 7]

    def test_budget_error_names_stage(self):
        with pytest.raises(BudgetExceededError, match="cayley_ball"):
            word_ball(zd_model(2), "standard", 10, vertex_budget=10)


class TestHeisenbergGraph:
    def test_ball_volumes_match_matrix_oracle(self):
        ball = word_ball(heisenberg_model(), "standard", 5)
        profile = volume_profile(ball.graph, 0, 5)
        assert list(profile.ball) == _heis_oracle_balls(5)

    def test_small_ball_sizes(self):
        profile = volume_profile(word_ball(heisenberg_model(), "standard", 2).graph, 0, 2)
        assert profile.ball == (1, 5, 17)

    def test_central_element_at_distance_4(self):
        ball = word_ball(heisenberg_model(), "standard", 4)
        dist = bfs_distances(ball.graph, 0)
        assert dist[_elements(ball).index((0, 0, 1))] == 4

    def test_monotone_geodesic_on_word_ball(self):
        ball = word_ball(heisenberg_model(), "standard", 4)
        target = _elements(ball).index((0, 0, 1))
        chain = monotone_geodesic(ball.graph, 0, target)
        dist = bfs_distances(ball.graph, 0)
        assert [dist[v] for v in chain] == list(range(len(chain)))


# -- Stretched tree chains ---------------------------------------------------


class TestTreeChain:
    def test_block_depth_formulas(self):
        assert [_block_depth(2, n) for n in (1, 2, 3)] == [1, 3, 7]
        assert [_block_depth(3, n) for n in (1, 2, 3)] == [1, 4, 13]
        for a in range(2, 6):
            for n in range(1, 9):
                assert _block_depth(a, n) == sum(a ** (n - k) for k in range(1, n + 1))

    def test_single_block_hand_count(self):
        # Two tripods with their three leaves glued: 5 vertices, 6 edges.
        g = stretched_tree_chain(2, 3, 1)
        assert g.vertex_count == 5
        assert g.edge_count == 6
        assert len(g.adjacency[g.basepoints["r_1"]]) == 3
        assert len(g.adjacency[g.basepoints["leaf_1"]]) == 2

    def test_root_to_leaf_and_root_to_root_distances(self):
        g = stretched_tree_chain(2, 3, 4)
        for n in range(1, 5):
            dist = bfs_distances(g, g.basepoints[f"r_{n}"])
            depth = _block_depth(2, n)
            assert dist[g.basepoints[f"leaf_{n}"]] == depth
            assert dist[g.basepoints[f"rp_{n}"]] == 2 * depth

    def test_blocks_share_roots(self):
        g = stretched_tree_chain(2, 3, 3)
        assert g.basepoints["rp_1"] == g.basepoints["r_2"]
        assert g.basepoints["rp_2"] == g.basepoints["r_3"]

    def test_last_generation_is_shared(self):
        # Block n has exactly valence^n last-generation vertices, each of
        # degree 2 (one path toward each root).
        g = stretched_tree_chain(2, 3, 3)
        n = 3
        dist = bfs_distances(g, g.basepoints[f"r_{n}"], cutoff=_block_depth(2, n))
        leaves = [v for v, d in dist.items() if d == _block_depth(2, n)]
        assert len(leaves) >= 3**n
        assert len(g.adjacency[g.basepoints[f"leaf_{n}"]]) == 2

    def test_sphere_burst_at_root(self):
        # All 3^k leaves of block k sit at distance 2^k - 1 from its root, so
        # the 1-sphere at radius 2^k - 2 is at least that large.
        g = stretched_tree_chain(2, 3, 6)
        for k in (4, 5, 6):
            p = volume_profile(g, g.basepoints[f"r_{k}"], 2**k)
            assert p.sphere[2**k - 2] >= 3**k

    def test_annulus_burst_at_root(self):
        # The annulus between radii 2^(k-1) and 2^k at the block-k root holds
        # at least 1/8 of the ball.
        g = stretched_tree_chain(2, 3, 6)
        for k in (3, 4, 5, 6):
            p = volume_profile(g, g.basepoints[f"r_{k}"], 2**k)
            annulus = p.ball[2**k] - p.ball[2 ** (k - 1)]
            assert 8 * annulus >= p.ball[2**k]

    def test_exact_spike_at_positioned_center(self):
        # Walking (3^n + 3)/2 steps from r_(n+1) toward leaf_(n+1) puts all
        # 2^n shared leaves of block n at distance exactly 3^n + 1.
        g = stretched_tree_chain(3, 2, 5)
        for n in (2, 3, 4):
            chain = monotone_geodesic(
                g, g.basepoints[f"r_{n + 1}"], g.basepoints[f"leaf_{n + 1}"]
            )
            x = chain[(3**n + 3) // 2]
            p = volume_profile(g, x, 3**n + 1)
            assert p.sphere[3**n] >= 2**n

    def test_budget_error(self):
        with pytest.raises(BudgetExceededError, match="stretched_tree_chain"):
            stretched_tree_chain(2, 3, 8, vertex_budget=100)

    def test_budget_error_text(self):
        with pytest.raises(BudgetExceededError) as error:
            stretched_tree_chain(2, 3, 8, vertex_budget=100)
        assert str(error.value) == "stretched_tree_chain: size 101 exceeds budget 100"

    def test_rejects_degenerate_parameters(self):
        for a, b, blocks in [(1, 3, 2), (2, 1, 2), (2, 3, 0)]:
            with pytest.raises(ValueError, match="^need stretch >= 2, valence >= 2, blocks >= 1$"):
                stretched_tree_chain(a, b, blocks)


# -- Stairway strip ----------------------------------------------------------


class TestStairway:
    def test_structure(self):
        strip = stairway_strip(4)
        g = strip.graph
        points = strip.xy.tolist()
        assert g.basepoints["origin"] == points.index([0, 0])
        # edges join 4-neighbors only
        for v, nbrs in enumerate(g.adjacency):
            px, py = points[v]
            for u in nbrs:
                qx, qy = points[u]
                assert abs(px - qx) + abs(py - qy) == 1

    def test_ambient_profile_spikes(self):
        strip = stairway_strip(6)
        p = norm_profile(strip, 2**6 + 1)
        for k in (3, 4, 5, 6):
            assert p.sphere[2**k] >= 2**k

    def test_graph_metric_sees_no_spike(self):
        strip = stairway_strip(6)
        ambient = norm_profile(strip, 33)
        graph_p = volume_profile(strip.graph, strip.graph.basepoints["origin"], 33)
        assert graph_p.sphere[32] < ambient.sphere[32]
        assert graph_p.sphere[32] <= 30  # a thick path, not a circle

    def test_ambient_growth_is_linear(self):
        strip = stairway_strip(8)
        p = norm_profile(strip, 2**8)
        # volume within a constant multiple of the radius at dyadic scales
        for k in (4, 5, 6, 7, 8):
            assert p.ball[2**k] <= 40 * 2**k

    def test_rejects_tiny(self):
        with pytest.raises(ValueError):
            stairway_strip(1)


# -- Array builds against the loops they replaced ------------------------------


def _reference_stretched_tree_chain(a, b, blocks, vertex_budget=10**9):
    """The vertex-by-vertex loop that built tree chains: ids in creation
    order, each child before the inner vertices of its path."""
    edges, basepoints, count = [], {}, 0

    def new_vertex():
        nonlocal count
        count += 1
        if count > vertex_budget:
            raise BudgetExceededError("stretched_tree_chain", count, vertex_budget)
        return count - 1

    def add_path(u, v, length):
        prev = u
        for _ in range(length - 1):
            w = new_vertex()
            edges.append((prev, w))
            prev = w
        edges.append((prev, v))

    def grow_tree(root, n, leaves):
        level = {(): root}
        for k in range(1, n + 1):
            next_level = {}
            for addr, parent in sorted(level.items()):
                for c in range(b):
                    child_addr = addr + (c,)
                    child = leaves[child_addr] if k == n and leaves is not None else new_vertex()
                    add_path(parent, child, a ** (n - k))
                    next_level[child_addr] = child
            level = next_level
        return level

    prev_far_root = None
    for n in range(1, blocks + 1):
        root = prev_far_root if prev_far_root is not None else new_vertex()
        leaves = grow_tree(root, n, None)
        far_root = new_vertex()
        grow_tree(far_root, n, leaves)
        basepoints[f"r_{n}"] = root
        basepoints[f"rp_{n}"] = far_root
        basepoints[f"leaf_{n}"] = leaves[(0,) * n]
        prev_far_root = far_root
    return Graph.from_edges(count, edges, basepoints)


def _reference_stairway_strip(levels, vertex_budget=10**9):
    """The tuple-set stairway: the cells of each curve point added one point
    at a time, then sorted, and the x + 1 and y + 1 neighbours looked up."""
    cells = set()
    for px, py in generators._stairway_curve(levels):
        cells.update((px + dx, py + dy) for dx in (-1, 0, 1) for dy in (-1, 0, 1))
        if len(cells) > vertex_budget:
            raise BudgetExceededError("stairway_strip", len(cells), vertex_budget)
    points = sorted(cells)
    index = {p: i for i, p in enumerate(points)}
    edges = [
        (i, index[q]) for (px, py), i in index.items()
        for q in ((px + 1, py), (px, py + 1)) if q in index
    ]
    graph = Graph.from_edges(len(points), edges, {"origin": index[(0, 0)]})
    return points, graph


def _reference_norm_profile(points, origin, depth):
    """The per-point count of the points with ceil(|p|_2) = r, r <= depth."""
    counts = [0] * (depth + 1)
    for x, y in points:
        r = math.isqrt(x * x + y * y)
        r += r * r < x * x + y * y
        if r <= depth:
            counts[r] += 1
    return VolumeProfile.from_sizes(origin, counts, depth)


def _budget_text(build, budget):
    try:
        build(budget)
    except BudgetExceededError as error:
        return str(error)
    return None


class TestArrayBuilds:
    # (stretch, valence, blocks): the most blocks with at most about 50k vertices
    @pytest.mark.parametrize("a,b,blocks", [
        (2, 2, 10), (2, 3, 8), (2, 4, 6), (3, 2, 8), (3, 3, 7), (3, 4, 6),
        (4, 2, 7), (4, 3, 6), (4, 4, 5), (2, 3, 1), (4, 4, 1),
    ])
    def test_tree_chain_matches_the_loop(self, a, b, blocks):
        graph = stretched_tree_chain(a, b, blocks)
        assert graph == _reference_stretched_tree_chain(a, b, blocks)
        assert all(type(v) is int for v in graph.basepoints.values())

    @pytest.mark.parametrize("budget", [1, 2, 3, 4, 5, 17, 100, 1000, 4938, 4939, 46148, 46149])
    def test_tree_chain_budget_matches_the_loop(self, budget):
        assert _budget_text(lambda v: stretched_tree_chain(2, 3, 8, v), budget) == (
            _budget_text(lambda v: _reference_stretched_tree_chain(2, 3, 8, v), budget))

    @pytest.mark.parametrize("levels", range(2, 12))
    def test_stairway_matches_the_set_build(self, levels):
        strip = stairway_strip(levels)
        points, graph = _reference_stairway_strip(levels)
        assert strip.xy.tolist() == [list(p) for p in points]
        assert strip.graph == graph
        assert strip.xy.dtype == np.int64 and strip.xy.shape == (len(points), 2)
        assert not strip.xy.flags.writeable

    def test_stairway_budget_matches_the_set_build(self):
        # Budgets where one curve point takes the count several cells past.
        texts = [(_budget_text(lambda v: stairway_strip(6, v), budget),
                  _budget_text(lambda v: _reference_stairway_strip(6, v), budget))
                 for budget in range(1, 1200, 7)]
        assert all(new == old for new, old in texts)
        assert any(not old.startswith(f"stairway_strip: size {budget + 1} ")
                   for (_, old), budget in zip(texts, range(1, 1200, 7)) if old)

    def test_ceil_sqrt_is_exact_past_float_precision(self):
        rng = random.Random("ceil-sqrt")
        roots = [2**k + d for k in (10, 26, 27, 30) for d in (-1, 0, 1)] + [2**31 - 1]
        roots += [rng.randrange(2**26, 2**31) for _ in range(2000)]
        values = [v for r in roots for v in (r * r - 2, r * r - 1, r * r, r * r + 1) if v < 2**62]
        ceil = [math.isqrt(v) + (math.isqrt(v) ** 2 < v) for v in values]
        assert generators._ceil_sqrt(np.array(values, dtype=np.int64)).tolist() == ceil

    def test_stairway_keys_past_int64_are_refused(self, monkeypatch):
        # 30 levels at a budget of 2^29 could reach cells whose keys pass
        # int64; the refusal comes before the curve is read.
        def refuse(levels):
            raise AssertionError("the curve was read")

        monkeypatch.setattr(generators, "_stairway_curve", refuse)
        with pytest.raises(ValueError, match="30 levels overflow int64 cell keys"):
            stairway_strip(30, vertex_budget=2**29)

    @pytest.mark.parametrize("levels", [2, 3, 5, 8, 11])
    def test_norm_profile_matches_the_point_loop(self, levels):
        strip = stairway_strip(levels)
        origin = strip.graph.basepoints["origin"]
        edge = 2**levels + 1  # the last ring that holds stairway points: (2^L, 2^L + 1]
        for depth in (0, 1, 2**levels - 1, edge - 1, edge, edge + 1, 2 * edge + 5):
            assert norm_profile(strip, depth) == _reference_norm_profile(strip.xy.tolist(), origin, depth)


# -- Shared randomized invariants --------------------------------------------


class TestGeneratorInvariants:
    @pytest.mark.parametrize("seed", [71, 72])
    def test_every_family_is_unit_geodesic(self, seed):
        """Each point near a center ends a step-1 monotone chain (constant 1)."""
        rng = random.Random(seed)
        graphs = [
            word_ball(zd_model(2), "standard", 4).graph,
            word_ball(heisenberg_model(), "standard", 3).graph,
            stretched_tree_chain(2, 3, 2),
            stairway_strip(3).graph,
        ]
        for g in graphs:
            for x in (rng.randrange(g.vertex_count) for _ in range(3)):
                dist = bfs_distances(g, x, 5)
                for y in dist:
                    chain = monotone_geodesic(g, x, y)
                    assert [dist[v] for v in chain] == list(range(dist[y] + 1))
                    for u, v in zip(chain, chain[1:]):
                        assert v in g.adjacency[u]
