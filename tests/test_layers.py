"""
Differential tests of the layered primitives against the loops they replaced.

The references kept here are the earlier implementations, written as
separate loops: a deque BFS with a distance dict, a parent-pointer BFS for
geodesics, and a `ProductSequence` built as a birth map
(element -> first step) that every reader scans to recover its layers,
filled by the pure-Python frontier loop of `tuple_law`, not by the kernel.

Core claims, on seeded random connected graphs and seeded random product
sets in Z^2 and H3:
    - `bfs_distances` gives the reference's distances in the reference's
      dict order, for every cutoff; `volume_profile` is its histogram
    - `monotone_geodesic` returns the parent-BFS path, vertex for vertex
    - a `ProductSequence`'s birth map, sizes, element sets and
      shells equal the birth-map reference's, birth-map item order included
    - `ergodic_trace` averages equal the birth-map replay bit for bit, for
      every observable, also from starts outside [0, 1), where the sign
      rule of `%` matters; the replay evaluates each observable by its
      formula on one point at a time and adds the values in discovery
      order; a trace to step n comes from the sequence expanded n steps
"""

import math
import random
from collections import deque
from itertools import repeat

import pytest

from folnerlab.ergodic import GOLDEN_ANGLES, OBSERVABLES, ergodic_trace
from folnerlab.groups import expand, heisenberg_model, zd_model
from folnerlab.products import DEFAULT_ELEMENT_BUDGET, ProductSequence, product_powers, varying_products
from folnerlab.space import (
    Graph,
    bfs_distances,
    bfs_layers,
    monotone_geodesic,
    volume_profile,
)
from tuple_law import reference_layers


# -- References: graphs --------------------------------------------------------


def _deque_bfs(graph, center, cutoff=None):
    dist = {center: 0}
    frontier = deque([center])
    while frontier:
        v = frontier.popleft()
        d = dist[v]
        if cutoff is not None and d >= cutoff:
            continue
        for u in graph.adjacency[v]:
            if u not in dist:
                dist[u] = d + 1
                frontier.append(u)
    return dist


def _parent_bfs_geodesic(graph, start, end):
    if start == end:
        return (start,)
    parent = {start: start}
    frontier = deque([start])
    while frontier:
        v = frontier.popleft()
        if v == end:
            break
        for u in graph.adjacency[v]:
            if u not in parent:
                parent[u] = v
                frontier.append(u)
    path = [end]
    while path[-1] != start:
        path.append(parent[path[-1]])
    return tuple(reversed(path))


def _random_graph(seed, n, extra):
    """Random tree on n shuffled vertex ids plus `extra` random chords."""
    rng = random.Random(seed)
    ids = list(range(n))
    rng.shuffle(ids)
    edges = {tuple(sorted((ids[rng.randrange(v)], ids[v]))) for v in range(1, n)}
    while len(edges) < n - 1 + extra:
        u, v = rng.sample(range(n), 2)
        edges.add((min(u, v), max(u, v)))
    return Graph.from_edges(n, sorted(edges), {"root": ids[0]})


GRAPHS = [(seed, n, extra) for seed in range(6) for n, extra in ((40, 0), (60, 12), (90, 60))]


# -- References: product sequences --------------------------------------------


def _birth_map(model, factors):
    """The birth map of N_0 = {1}, N_n = N_(n-1) * U_n, and the sizes |N_n|,
    by the pure-Python frontier loop."""
    birth, sizes = {}, []
    for n, layer in enumerate(reference_layers(model, [model.identity], factors)):
        birth.update(zip(layer, repeat(n)))
        sizes.append(len(birth))
    return birth, tuple(sizes)


def _scan(birth, a, b):
    """N_b minus N_a, recovered by scanning the birth map."""
    return frozenset(g for g, born in birth.items() if a < born <= b)


# The observables as formulas on one point, the reference of `OBSERVABLES`,
# which take a layer's points at once.
POINT_OBSERVABLES = {
    "one": lambda p: 1.0,
    "cos_x": lambda p: math.cos(2.0 * math.pi * p[0]),
    "cos_y": lambda p: math.cos(2.0 * math.pi * p[1]),
    "cos_mix": lambda p: math.cos(2.0 * math.pi * p[0]) * math.cos(2.0 * math.pi * p[1]),
    "box": lambda p: 1.0 if p[0] < 0.25 and p[1] < 0.25 else 0.0,
}


def _replay(angles, birth, sizes, name, start, n_max):
    """The averages by a birth-map replay that moves each point with
    Python floats and evaluates the observable on it, one element at a
    time."""
    f = POINT_OBSERVABLES[name]
    by_level = [[] for _ in range(n_max + 1)]
    for element, born in birth.items():
        if born <= n_max:
            by_level[born].append(element)
    running, averages = 0.0, []
    for n in range(n_max + 1):
        for element in by_level[n]:
            point = tuple((p + g * t) % 1.0 for p, g, t in zip(start, element, angles))
            running += f(point)
        averages.append(running / sizes[n])
    return tuple(averages)


def _random_sets(model, seed, count):
    """`count` supersets of the standard set, each with a few random extras."""
    rng = random.Random(seed)
    base = list(model.generating_set("standard"))
    out = []
    for _ in range(count):
        extras = {tuple(rng.randint(-2, 2) for _ in range(model.rank)) for _ in range(3)}
        out.append(sorted(set(base) | extras))
    return out


# -- Graphs ----------------------------------------------------------------------


class TestGraphLayers:
    @pytest.mark.parametrize("seed,n,extra", GRAPHS)
    def test_distances_and_dict_order(self, seed, n, extra):
        g = _random_graph(seed, n, extra)
        rng = random.Random(seed)
        for center in rng.sample(range(n), 4):
            for cutoff in (None, 0, 1, 2, 3, 5, n):
                got = bfs_distances(g, center, cutoff)
                expected = _deque_bfs(g, center, cutoff)
                assert list(got.items()) == list(expected.items())
                layers = list(bfs_layers(g, center, cutoff))
                assert [v for layer in layers for v in layer] == list(expected)

    @pytest.mark.parametrize("seed,n,extra", GRAPHS)
    def test_profiles_are_histograms(self, seed, n, extra):
        g = _random_graph(seed, n, extra)
        for center in range(0, n, 7):
            for depth in (0, 1, 4, 30):
                dist = _deque_bfs(g, center, depth)
                expected = tuple(sum(d <= r for d in dist.values()) for r in range(depth + 1))
                assert volume_profile(g, center, depth).ball == expected

    @pytest.mark.parametrize("seed,n,extra", GRAPHS)
    def test_geodesics_are_the_parent_bfs_paths(self, seed, n, extra):
        g = _random_graph(seed, n, extra)
        rng = random.Random(seed)
        for _ in range(12):
            start, end = rng.randrange(n), rng.randrange(n)
            assert monotone_geodesic(g, start, end) == _parent_bfs_geodesic(g, start, end)


# -- Product sequences -----------------------------------------------------------


MODELS = {"Z2": (zd_model(2), 9), "H3": (heisenberg_model(), 5)}


def _sequences(name, seed, steps=None):
    """A powers sequence and a varying-factor sequence with their factors,
    expanded the model's number of steps, or only their first `steps`."""
    model, count = MODELS[name]
    gens, *_ = _random_sets(model, seed, 1)
    outer = sorted(set().union(*_random_sets(model, seed + 100, 3)) | set(gens))
    rng = random.Random(seed)
    factors = [sorted(set(gens) | set(rng.sample(outer, 3))) for _ in range(count)][:steps]
    inner = model.generating_set("standard")
    varying = varying_products(model, factors, inner, outer).factors
    # Both in discovery order, which `birth` and `ergodic_trace` read.
    layers = expand(model, [model.identity], varying, DEFAULT_ELEMENT_BUDGET, "test", ordered=True)
    return [
        (product_powers(model, gens, len(factors), ordered=True), [gens] * len(factors)),
        (ProductSequence(model, varying, tuple(layers)), factors),
    ]


class TestProductLayers:
    @pytest.mark.parametrize("name", sorted(MODELS))
    @pytest.mark.parametrize("seed", range(4))
    def test_birth_sizes_sets_and_shells(self, name, seed):
        model = MODELS[name][0]
        for seq, factors in _sequences(name, seed):
            birth, sizes = _birth_map(model, factors)
            assert list(seq.birth.items()) == list(birth.items())
            assert seq.sizes == sizes
            for n in range(seq.steps + 1):
                assert frozenset(seq.shell(-1, n).elements()) == _scan(birth, -1, n)
                for a in range(-1, n):
                    assert frozenset(seq.shell(a, n).elements()) == _scan(birth, a, n)

    @pytest.mark.parametrize("seed", range(4))
    def test_ergodic_averages_bit_for_bit(self, seed):
        model = zd_model(2)
        rng = random.Random(seed)
        for i, (seq, factors) in enumerate(_sequences("Z2", seed)):
            birth, sizes = _birth_map(model, factors)
            starts = [(rng.random(), rng.random()), (-0.3, 1.7), (1.7, -0.3)]
            starts.append((rng.uniform(-5, 5), rng.uniform(-5, 5)))
            assert set(POINT_OBSERVABLES) == set(OBSERVABLES)
            for name in sorted(OBSERVABLES):
                for start in starts:
                    # A trace to n_max comes from the sequence expanded n_max steps.
                    n_max = rng.randint(0, seq.steps)
                    short, _ = _sequences("Z2", seed, n_max)[i]
                    trace = ergodic_trace(GOLDEN_ANGLES, short, name, start)
                    expected = _replay(GOLDEN_ANGLES, birth, sizes, name, start, n_max)
                    assert trace.averages == expected
