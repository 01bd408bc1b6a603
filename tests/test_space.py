"""
Unit tests for the graph container and metric primitives.

Core claims:
    - Graph.from_edges normalizes adjacency and rejects the first bad edge
      in list order (out of range, self-loop, repeat in either orientation),
      naming its index; it and validate() reject basepoints out of range
      (naming the label) and disconnection
    - a graph from `from_edges` counts its vertices and edges without
      building adjacency tuples, builds them once when they are read, and
      equals another graph exactly when vertex count, edges and basepoints
      agree
    - bfs_distances agrees with a dense min-plus oracle on seeded random
      connected graphs, with and without a cutoff
    - bfs_layers gives the layers of a plain queue BFS (kept below), each in
      the queue's discovery order, at cutoffs 0, mid-depth and None, on a
      shuffled Z^2 ball, tree chains, a stairway and seeded random graphs,
      and bfs_distances keeps the queue's insertion order
    - VolumeProfile accepts exactly the nondecreasing balls (flat ones
      included, a decrease at the last step refused), and its sphere is the
      difference loop: empty at depth 0, and equal on profiles shaped like
      the benchmark's
    - volume_profile is the cumulative distance histogram, nondecreasing,
      and saturates at the component size
    - separated_net output is pairwise (> k)-separated, maximal, inside the
      annulus, and deterministic
    - monotone_geodesic realizes graph distance with steps of exactly 1 and
      strictly increasing distance from the start
    - on connected unit-edge graphs every sphere point has a neighbour in the
      ball one smaller (the monotone-geodesic constant is 1)
    - sample_centers always contains the basepoints and is seed-deterministic
    - the adjacency tuples, built per degree class, equal those of the
      earlier builder (one slice of the sorted keys per vertex, kept below as
      the oracle) on seeded graphs of mixed degrees, a star, a path, one
      vertex and small forms of the benchmark's graphs (tree chains, the
      stairway, a shuffled Z^2 ball), and give the same BFS layers
"""

import math
import random
from collections import deque

import numpy as np
import pytest

from folnerlab import generators, space
from folnerlab.errors import GraphFormatError
from folnerlab.space import (
    Graph,
    VolumeProfile,
    bfs_distances,
    bfs_layers,
    monotone_geodesic,
    sample_centers,
    separated_net,
    volume_profile,
)

_INF = 10**9


# -- Helpers -----------------------------------------------------------------


def _minplus_distances(graph: Graph) -> np.ndarray:
    """All-pairs distances by repeated min-plus squaring; independent of BFS."""
    n = graph.vertex_count
    d = np.full((n, n), _INF, dtype=np.int64)
    np.fill_diagonal(d, 0)
    for u in range(n):
        for v in graph.adjacency[u]:
            d[u, v] = 1
    for _ in range(max(1, math.ceil(math.log2(n)))):
        d = np.minimum(d, (d[:, :, None] + d[None, :, :]).min(axis=1))
    return d


def _random_connected(rng: random.Random, n: int, extra: int) -> Graph:
    """Random tree on n vertices plus `extra` random chords."""
    edges = set()
    for v in range(1, n):
        edges.add((rng.randrange(v), v))
    while len(edges) < n - 1 + extra:
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            edges.add((min(u, v), max(u, v)))
    return Graph.from_edges(n, sorted(edges), {"root": 0})


def _unchecked(n: int, edges, basepoints) -> Graph:
    """The graph of `edges` as `Graph.from_edges` keeps it, but unchecked:
    the only kind of graph that `validate` can reject."""
    u, v = np.array(edges, dtype=np.int64).reshape(-1, 2).T
    return Graph(n, np.sort(np.concatenate((u * n + v, v * n + u))), basepoints)


def _path(n: int) -> Graph:
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)], {"left": 0})


def _cycle(n: int) -> Graph:
    edges = [(i, (i + 1) % n) for i in range(n)]
    return Graph.from_edges(n, edges, {"o": 0})


def _slice_adjacency(n: int, keys: np.ndarray) -> tuple[tuple[int, ...], ...]:
    """The earlier adjacency builder: one slice of the sorted keys src·n + dst
    per vertex, cut where each src ends."""
    flat, ends = tuple((keys % n).tolist()), np.searchsorted(keys, np.arange(1, n + 1) * n).tolist()
    return tuple(map(flat.__getitem__, map(slice, [0, *ends], ends)))


def _shuffled_z2_ball(radius: int, seed: int) -> Graph:
    """The grid graph on the l1 ball of `radius`, vertex ids and edge order
    and orientation shuffled."""
    rng = random.Random(seed)
    points = [(x, y) for x in range(-radius, radius + 1)
              for y in range(abs(x) - radius, radius - abs(x) + 1)]
    rng.shuffle(points)
    index = {p: v for v, p in enumerate(points)}
    edges = [(v, index[q]) if rng.random() < 0.5 else (index[q], v)
             for v, (x, y) in enumerate(points) for q in ((x + 1, y), (x, y + 1)) if q in index]
    rng.shuffle(edges)
    return Graph.from_edges(len(points), edges, {"origin": index[0, 0]})


def _deque_bfs(graph: Graph, center: int, cutoff: int | None) -> dict[int, int]:
    """Distances by a plain queue BFS over the slice-built adjacency, in the
    order the queue first meets each vertex."""
    adjacency = _slice_adjacency(graph.vertex_count, graph._keys)
    dist = {center: 0}
    queue = deque([center])
    while queue:
        v = queue.popleft()
        if cutoff is not None and dist[v] >= cutoff:
            continue
        for u in adjacency[v]:
            if u not in dist:
                dist[u] = dist[v] + 1
                queue.append(u)
    return dist


def _deque_layers(graph: Graph, center: int, cutoff: int | None) -> list[list[int]]:
    layers: list[list[int]] = []
    for v, d in _deque_bfs(graph, center, cutoff).items():
        if d == len(layers):
            layers.append([])
        layers[d].append(v)
    return layers


# -- Graph container ---------------------------------------------------------


class TestGraph:
    def test_from_edges_sorts_adjacency(self):
        g = Graph.from_edges(4, [(2, 0), (0, 1), (3, 0)])
        assert g.adjacency[0] == (1, 2, 3)
        assert g.vertex_count == 4
        assert g.edge_count == 3

    def test_counts_read_no_adjacency(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("adjacency tuples were built")

        monkeypatch.setattr(space, "_adjacency", refuse)
        g = Graph.from_edges(5, [(2, 0), (0, 1), (3, 4), (4, 0)], {"o": 3})
        assert (g.vertex_count, g.edge_count, g.basepoints) == (5, 4, {"o": 3})
        with pytest.raises(AssertionError):
            g.adjacency

    def test_adjacency_is_built_once(self):
        g = Graph.from_edges(3, [(0, 1), (1, 2)])
        assert g.adjacency is g.adjacency

    def test_equal_by_adjacency_and_basepoints(self):
        g = Graph.from_edges(4, [(2, 0), (0, 1), (3, 0)], {"o": 0})
        assert g == Graph.from_edges(4, [(0, 3), (1, 0), (0, 2)], {"o": 0})
        assert g == Graph.from_edges(4, np.array([[3, 0], [0, 2], [1, 0]]), {"o": 0})
        assert g != Graph.from_edges(5, [(2, 0), (0, 1), (3, 0), (4, 3)], {"o": 0})
        assert g != Graph.from_edges(4, [(2, 0), (0, 1), (3, 0)], {"o": 1})
        assert g != Graph.from_edges(4, [(2, 0), (0, 1), (3, 1)], {"o": 0})
        assert g != Graph.from_edges(4, [(2, 0), (0, 1), (3, 0)])
        assert g != g.adjacency

    def test_rejects_out_of_range_edge(self):
        with pytest.raises(ValueError, match="out of range"):
            Graph.from_edges(3, [(0, 3)])

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError, match="self-loop"):
            Graph.from_edges(3, [(0, 1), (1, 2), (1, 1)])

    def test_rejects_disconnected(self):
        with pytest.raises(ValueError, match="not connected"):
            Graph.from_edges(4, [(0, 1), (2, 3)])

    def test_rejects_bad_basepoint(self):
        with pytest.raises(ValueError, match="basepoint"):
            Graph.from_edges(2, [(0, 1)], {"x": 5})

    @pytest.mark.parametrize("n,edges,basepoints,fault", [
        (3, [(0, 1)], {"o": 0}, ("graph is not connected", None)),
        (2, [(0, 1)], {"a": 0, "b": 7}, ("basepoint 'b' -> 7 out of range", "b")),
        (2, [(0, 1)], {"c": -1}, ("basepoint 'c' -> -1 out of range", "c")),
    ])
    def test_validate_checks_the_whole_graph_again(self, n, edges, basepoints, fault):
        with pytest.raises(GraphFormatError) as error:
            _unchecked(n, edges, basepoints).validate()
        assert (str(error.value), error.value.where) == fault


class TestEdgeChecks:
    @pytest.mark.parametrize(
        "edges,index,message",
        [
            ([(0, 1), (1, 2), (2, 1), (0, 5)], 2, "duplicate edge (2, 1)"),
            ([(0, 1), (1, 2), (1, 0)], 2, "duplicate edge (1, 0)"),
            ([(0, 1), (0, 5), (1, 1)], 1, "edge (0, 5) out of range"),
            ([(0, 1), (1, 1), (0, 5)], 1, "self-loop at 1"),
            ([(-1, 2), (0, 1)], 0, "edge (-1, 2) out of range"),
            ([[0, 1], [1, 2], [2, 0], [0, 2]], 3, "duplicate edge (0, 2)"),
        ],
    )
    def test_first_fault_in_list_order_names_its_index(self, edges, index, message):
        with pytest.raises(GraphFormatError) as error:
            Graph.from_edges(3, edges)
        assert (str(error.value), error.value.where) == (message, index)

    def test_basepoint_fault_names_its_label(self):
        with pytest.raises(GraphFormatError) as error:
            Graph.from_edges(2, [(0, 1)], {"a": 0, "b": 7, "c": -1})
        assert (str(error.value), error.value.where) == ("basepoint 'b' -> 7 out of range", "b")

    def test_faults_of_the_whole_graph_name_no_record(self):
        for build in (
            lambda: Graph.from_edges(3, [(0, 1)]),
            lambda: _unchecked(3, [(0, 1)], {}).validate(),
        ):
            with pytest.raises(GraphFormatError) as error:
                build()
            assert error.value.where is None


_ADJACENCY_CASES = {
    **{f"mixed-{seed}": (lambda seed=seed: _random_connected(random.Random(seed), 40 + 30 * seed, 5 + 40 * seed))
       for seed in range(6)},
    "star": lambda: Graph.from_edges(50, [(0, v) for v in range(1, 50)], {"hub": 0}),
    "path": lambda: _path(30),
    "one-vertex": lambda: Graph.from_edges(1, []),
    "tree-chain-3-2-4": lambda: generators.stretched_tree_chain(3, 2, 4),
    "tree-chain-2-3-3": lambda: generators.stretched_tree_chain(2, 3, 3),
    "stairway-4": lambda: generators.stairway_strip(4).graph,
    "z2-ball-12": lambda: _shuffled_z2_ball(12, 7),
}


class TestAdjacencyByDegree:
    @pytest.mark.parametrize("case", list(_ADJACENCY_CASES))
    def test_equals_the_slice_builder(self, case):
        graph = _ADJACENCY_CASES[case]()
        expected = _slice_adjacency(graph.vertex_count, graph._keys)
        got = space._adjacency(graph.vertex_count, graph._keys)
        assert type(got) is tuple and all(type(row) is tuple for row in got)
        assert got == expected
        assert {type(v) for row in got for v in row} <= {int}

    def test_cases_mix_degrees(self):
        degrees = {len(row) for case in _ADJACENCY_CASES.values() for row in case().adjacency}
        assert {0, 1, 2, 3, 4, 49} <= degrees

    @pytest.mark.parametrize("case", list(_ADJACENCY_CASES))
    def test_bfs_layers_are_equal_on_both(self, case):
        graph = _ADJACENCY_CASES[case]()
        oracle = Graph(graph.vertex_count, graph._keys, graph.basepoints)
        oracle.__dict__["adjacency"] = _slice_adjacency(graph.vertex_count, graph._keys)
        for center in sample_centers(graph.vertex_count, graph.basepoints, 5, 0):
            assert list(space.bfs_layers(graph, center)) == list(space.bfs_layers(oracle, center))


_ORDER_CASES = {
    "z2-ball-20": lambda: _shuffled_z2_ball(20, 3),
    "tree-chain-3-2-4": lambda: generators.stretched_tree_chain(3, 2, 4),
    "tree-chain-2-3-4": lambda: generators.stretched_tree_chain(2, 3, 4),
    "stairway-5": lambda: generators.stairway_strip(5).graph,
    **{f"random-{seed}": (lambda seed=seed: _random_connected(random.Random(seed), 50 + 60 * seed, 30 * seed))
       for seed in range(4)},
}


class TestDiscoveryOrder:
    """`bfs_layers` against a queue BFS: the same layers with the same
    vertices in the same order, at every cutoff."""

    @pytest.mark.parametrize("case", list(_ORDER_CASES))
    def test_layers_are_those_of_a_queue_bfs(self, case):
        graph = _ORDER_CASES[case]()
        for center in sample_centers(graph.vertex_count, graph.basepoints, 6, 1):
            whole = _deque_layers(graph, center, None)
            for cutoff in (0, (len(whole) - 1) // 2, None):
                expected = _deque_layers(graph, center, cutoff)
                assert list(bfs_layers(graph, center, cutoff)) == expected
            assert len(whole) > 2

    @pytest.mark.parametrize("case", list(_ORDER_CASES))
    def test_distances_keep_the_queue_order(self, case):
        graph = _ORDER_CASES[case]()
        for center in sample_centers(graph.vertex_count, graph.basepoints, 3, 2):
            for cutoff in (0, 3, None):
                got, expected = bfs_distances(graph, center, cutoff), _deque_bfs(graph, center, cutoff)
                assert list(got.items()) == list(expected.items())


def _differences(ball):
    return tuple(ball[r + 1] - ball[r] for r in range(len(ball) - 1))


class TestVolumeProfileType:
    def test_sphere_is_difference(self):
        p = VolumeProfile(center=0, ball=(1, 3, 7, 7))
        assert p.depth == 3
        assert p.sphere == (2, 4, 0)

    def test_depth_zero_has_no_sphere(self):
        assert VolumeProfile(center=0, ball=(1,)).sphere == ()

    def test_flat_ball_is_accepted(self):
        assert VolumeProfile(center=0, ball=(1, 1, 1, 1)).sphere == (0, 0, 0)

    def test_rejects_a_decrease_at_the_last_step(self):
        with pytest.raises(ValueError, match="nondecreasing"):
            VolumeProfile(center=0, ball=(1, 3, 7, 7, 6))

    def test_nondecreasing_check_matches_the_pairwise_loop(self):
        rng = random.Random("nondecreasing")
        for _ in range(500):
            ball = [1]
            for _ in range(rng.randrange(8)):
                ball.append(ball[-1] + rng.choice((-1, 0, 0, 1, 2**70)))
            ok = not any(b > a for a, b in zip(ball[1:], ball))
            if ok:
                assert VolumeProfile(center=0, ball=tuple(ball)).sphere == _differences(ball)
            else:
                with pytest.raises(ValueError, match="nondecreasing"):
                    VolumeProfile(center=0, ball=tuple(ball))

    def test_sphere_is_the_difference_loop_on_bench_shaped_profiles(self):
        profiles = [
            volume_profile(graph, center, depth)
            for graph, depth in (
                (generators.stretched_tree_chain(3, 2, 5), 250),
                (generators.stretched_tree_chain(2, 3, 5), 40),
                (_shuffled_z2_ball(30, 5), 64),
            )
            for center in sample_centers(graph.vertex_count, graph.basepoints, 6, 0)
        ]
        strip = generators.stairway_strip(8)
        profiles += [generators.norm_profile(strip, depth) for depth in (0, 1, 257, 600)]
        assert any(p.ball[-1] == p.ball[-2] for p in profiles)  # saturated tails too
        for p in profiles:
            assert p.sphere == _differences(p.ball)

    def test_sphere_is_computed_once(self):
        p = VolumeProfile(center=0, ball=(1, 3, 7, 7))
        assert p.sphere is p.sphere

    def test_rejects_decreasing(self):
        with pytest.raises(ValueError, match="nondecreasing"):
            VolumeProfile(center=0, ball=(1, 3, 2))

    def test_rejects_empty_center(self):
        with pytest.raises(ValueError):
            VolumeProfile(center=0, ball=(0, 1))


# -- Distances against the min-plus oracle -----------------------------------


class TestDistances:
    @pytest.mark.parametrize("seed", [1, 2, 3, 4])
    def test_bfs_matches_minplus_oracle(self, seed):
        rng = random.Random(seed)
        g = _random_connected(rng, 60 + 10 * seed, extra=25)
        oracle = _minplus_distances(g)
        for center in (0, g.vertex_count // 2, g.vertex_count - 1):
            dist = bfs_distances(g, center)
            assert len(dist) == g.vertex_count
            for v, d in dist.items():
                assert d == oracle[center, v]

    def test_cutoff_restricts_to_ball(self):
        g = _path(12)
        dist = bfs_distances(g, 0, cutoff=4)
        assert set(dist) == {0, 1, 2, 3, 4}

    def test_center_out_of_range(self):
        with pytest.raises(ValueError):
            bfs_distances(_path(3), 7)

    @pytest.mark.parametrize("seed", [11, 12])
    def test_profile_is_distance_histogram(self, seed):
        rng = random.Random(seed)
        g = _random_connected(rng, 80, extra=10)
        oracle = _minplus_distances(g)
        depth = 9
        p = volume_profile(g, 0, depth)
        for r in range(depth + 1):
            assert p.ball[r] == int((oracle[0] <= r).sum())

    def test_profile_saturates(self):
        g = _path(5)
        p = volume_profile(g, 0, 10)
        assert p.ball[4:] == (5, 5, 5, 5, 5, 5, 5)


# -- Separated nets ----------------------------------------------------------


class TestSeparatedNet:
    @pytest.mark.parametrize("seed,k", [(5, 2), (6, 3), (7, 1)])
    def test_net_is_separated_and_maximal(self, seed, k):
        rng = random.Random(seed)
        g = _random_connected(rng, 70, extra=30)
        oracle = _minplus_distances(g)
        r_lo, r_hi = 1, 5
        net = separated_net(g, 0, r_lo, r_hi, k)
        annulus = [v for v in range(g.vertex_count) if r_lo < oracle[0, v] <= r_hi]
        for v in net:
            assert r_lo < oracle[0, v] <= r_hi
        for i, u in enumerate(net):
            for v in net[i + 1 :]:
                assert oracle[u, v] > k
        for v in annulus:
            assert any(oracle[v, u] <= k for u in net)

    def test_known_net_on_path(self):
        # Annulus around vertex 7 of a long path with k = 2: greedy keeps the
        # first admissible vertex on each side and skips its 2-neighborhood.
        g = _path(15)
        net = separated_net(g, 7, 2, 7, 2)
        assert net == (0, 3, 10, 13)

    def test_zero_separation_keeps_annulus(self):
        g = _path(8)
        net = separated_net(g, 0, 1, 4, 0)
        assert net == (2, 3, 4)

    def test_rejects_empty_annulus_bounds(self):
        with pytest.raises(ValueError):
            separated_net(_path(5), 0, 3, 3, 1)

    def test_deterministic(self):
        rng = random.Random(9)
        g = _random_connected(rng, 50, extra=20)
        assert separated_net(g, 0, 1, 6, 2) == separated_net(g, 0, 1, 6, 2)


# -- Monotone geodesics ------------------------------------------------------


class TestMonotoneGeodesic:
    @pytest.mark.parametrize("seed", [21, 22, 23])
    def test_realizes_distance_with_unit_steps(self, seed):
        rng = random.Random(seed)
        g = _random_connected(rng, 65, extra=15)
        oracle = _minplus_distances(g)
        for end in (1, 17, g.vertex_count - 1):
            verts = monotone_geodesic(g, 0, end)
            assert verts[0] == 0 and verts[-1] == end
            assert len(verts) == oracle[0, end] + 1
            for i, v in enumerate(verts):
                assert oracle[0, v] == i  # distance to start increases by 1
            for u, v in zip(verts, verts[1:]):
                assert v in g.adjacency[u]

    def test_start_out_of_range(self):
        with pytest.raises(ValueError, match="center -1 out of range"):
            monotone_geodesic(_path(4), -1, 1)

    def test_trivial_chain(self):
        chain = monotone_geodesic(_path(4), 2, 2)
        assert chain == (2,)

    def test_deterministic_tie_break(self):
        # Two shortest 0 -> 2 paths in a 4-cycle; the first-discovered
        # predecessor wins.
        g = _cycle(4)
        assert monotone_geodesic(g, 0, 2) == (0, 1, 2)

    def test_tie_goes_to_the_first_discovered_predecessor(self):
        # 7 has the predecessors 9 (via 2) and 3 (via 5).  9 is discovered
        # first, so it wins over the smaller index 3.
        edges = [(0, 2), (0, 5), (2, 9), (5, 3), (9, 7), (3, 7)]
        edges += [(0, leaf) for leaf in (1, 4, 6, 8)]
        g = Graph.from_edges(10, edges)
        assert monotone_geodesic(g, 0, 7) == (0, 2, 9, 7)


# -- Monotone-geodesic constant ----------------------------------------------


class TestPropertyM:
    def test_unit_edge_connected_is_one(self):
        # Each point of the (r+1)-sphere has a neighbour in the r-ball: the
        # one before it on its monotone geodesic.
        for g in (_path(9), _cycle(8)):
            dist = bfs_distances(g, 0, 5)
            for y, d in dist.items():
                if d > 0:
                    before = monotone_geodesic(g, 0, y)[-2]
                    assert before in g.adjacency[y] and dist[before] == d - 1


# -- Center sampling ---------------------------------------------------------


class TestSampleCenters:
    def test_contains_basepoints_and_is_sorted(self):
        rng = random.Random(31)
        g = _random_connected(rng, 40, extra=5)
        centers = sample_centers(g.vertex_count, g.basepoints, 8, seed=7)
        assert g.basepoints["root"] in centers
        assert list(centers) == sorted(centers)
        assert len(centers) == 8

    def test_seed_determinism(self):
        rng = random.Random(32)
        g = _random_connected(rng, 45, extra=5)
        sample = lambda seed: sample_centers(g.vertex_count, g.basepoints, 10, seed)
        assert sample(3) == sample(3)
        assert sample(3) != sample(4)

    def test_count_capped_at_vertex_count(self):
        g = _path(4)
        assert len(sample_centers(g.vertex_count, g.basepoints, 99, seed=0)) == 4

    def test_a_count_of_every_vertex_draws_nothing(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a vertex was drawn")

        monkeypatch.setattr(space.random, "Random", refuse)
        for count in (5, 6, 10**9):
            assert sample_centers(5, {"a": 3}, count, seed=0) == (0, 1, 2, 3, 4)
