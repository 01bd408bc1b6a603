"""
Tests of the one edge check, `Graph.from_edges`, against the loop it replaced.

Core claims:
    - against the earlier per-edge loop, kept below as the reference, on 300
      seeded edge lists (up to 2,000 vertices, 0-3 faults of each kind at
      random indices, repeats in both orientations, several faults per list)
      given as tuples, as lists and as an int64 array: the same adjacency,
      or the same error text and `where`
    - a vertex past int64 is out of range, with its exact value in the text
    - `where` is a Python int, which `graphio` tells from a basepoint label
    - edges that do not form an (m, 2) array raise instead of being reshaped
    - each kind of fault alone at a random index (out of range, a self-loop,
      a repeat as given or reversed, a vertex past int64) and several at
      once give the reference's error text and `where`
    - valid input is built without `np.argsort`: the first faulty edge is
      searched for only when the sorted keys show a fault
"""

import random

import numpy as np
import pytest

from folnerlab import space
from folnerlab.errors import GraphFormatError
from folnerlab.space import Graph


def _reference_from_edges(n, edges, basepoints):
    """`Graph.from_edges` as it was when it checked each edge in a loop and
    then validated the graph: returns the adjacency or raises."""
    adj = [[] for _ in range(n)]
    seen = set()
    for i, (u, v) in enumerate(edges):
        if not (0 <= u < n and 0 <= v < n):
            raise GraphFormatError(f"edge ({u}, {v}) out of range", i)
        if u == v:
            raise GraphFormatError(f"self-loop at {u}", i)
        key = u * n + v if u < v else v * n + u
        if key in seen:
            raise GraphFormatError(f"duplicate edge ({u}, {v})", i)
        seen.add(key)
        adj[u].append(v)
        adj[v].append(u)
    for label, v in basepoints.items():
        if not 0 <= v < n:
            raise GraphFormatError(f"basepoint {label!r} -> {v} out of range", label)
    reached, stack = {0}, [0]
    while stack:
        for u in adj[stack.pop()]:
            if u not in reached:
                reached.add(u)
                stack.append(u)
    if len(reached) != n:
        raise GraphFormatError("graph is not connected")
    return tuple(tuple(sorted(nbrs)) for nbrs in adj)


def _outcome(build, n, edges, basepoints):
    try:
        adjacency = build(n, edges, basepoints)
    except GraphFormatError as exc:
        return "error", str(exc), exc.where, type(exc.where)
    return "graph", adjacency


def _built(n, edges, basepoints):
    graph = Graph.from_edges(n, edges, basepoints)
    assert dict(graph.basepoints) == basepoints
    return graph.adjacency


def _random_case(seed):
    """A seeded connected graph as an edge list in random order and
    orientation, with 0-3 faults of each kind inserted at random indices
    (none at all in about a quarter of the cases), and its basepoints, some
    of them out of range; some cases have one vertex more than the graph."""
    rng, bulk = random.Random(seed), np.random.default_rng(seed)
    n = min(2000, int(2 ** rng.uniform(1, 11)))  # log-uniform, to 2,000
    tree = np.stack([bulk.integers(0, np.arange(1, n)), np.arange(1, n)], axis=1)
    chords = bulk.integers(0, n, size=(rng.randint(0, n // 2), 2))
    both = np.concatenate((tree, chords[chords[:, 0] != chords[:, 1]]))
    keys = bulk.permutation(np.unique(both.min(axis=1) * n + both.max(axis=1)))
    flip = bulk.random(len(keys)) < 0.5  # orientation: (low, high) or (high, low)
    low, high = (keys // n).tolist(), (keys % n).tolist()
    edges = [(v, u) if f else (u, v) for u, v, f in zip(low, high, flip.tolist())]
    faulty = rng.random() < 0.75
    counts = [rng.randint(0, 3) if faulty else 0 for _ in range(4)]
    for _ in range(counts[0]):  # out of range, on either side
        bad = rng.choice([n + rng.randint(0, 9), -rng.randint(1, 9), 2**62])
        e = (rng.randrange(n), bad) if rng.random() < 0.5 else (bad, rng.randrange(n))
        edges.insert(rng.randint(0, len(edges)), e)
    for _ in range(counts[1]):  # self-loop
        v = rng.randrange(n)
        edges.insert(rng.randint(0, len(edges)), (v, v))
    for _ in range(counts[2] + counts[3]):  # repeat, as given or reversed
        u, v = rng.choice(edges)
        edges.insert(rng.randint(0, len(edges)), rng.choice([(u, v), (v, u)]))
    basepoints = {"o": rng.randrange(n)}
    if rng.random() < 0.2:
        basepoints["far"] = n + rng.randint(0, 9)
    if rng.random() < 0.2:
        n += 1  # one vertex no edge reaches
    return n, edges, basepoints


class TestAgainstReference:
    @pytest.mark.parametrize("seed", range(300))
    def test_same_graph_or_same_error(self, seed):
        n, edges, basepoints = _random_case(seed)
        expected = _outcome(_reference_from_edges, n, edges, basepoints)
        for given in (edges, [list(e) for e in edges], np.array(edges, dtype=np.int64)):
            assert _outcome(_built, n, given, basepoints) == expected

    def test_cases_reach_every_outcome(self):
        seen = set()
        for seed in range(300):
            outcome = _outcome(_reference_from_edges, *_random_case(seed))
            # The first word of the error text: "graph" is the one of "graph is not connected".
            seen.add("valid" if outcome[0] == "graph" else outcome[1].split()[0])
        assert seen == {"valid", "edge", "self-loop", "duplicate", "basepoint", "graph"}


def _valid_case(rng):
    """A seeded connected graph as an edge list in random order and orientation."""
    n = rng.randint(2, 300)
    keys = {min(u, v) * n + max(u, v) for v in range(1, n) for u in [rng.randrange(v)]}
    while len(keys) < n - 1 + n // 3:
        u, v = rng.sample(range(n), 2)
        keys.add(min(u, v) * n + max(u, v))
    edges = [divmod(key, n) for key in sorted(keys)]
    rng.shuffle(edges)
    return n, [(v, u) if rng.random() < 0.5 else (u, v) for u, v in edges]


def _fault(rng, kind, n, edges):
    """One faulty edge of `kind` for the edge list `edges` on n vertices."""
    u, v = rng.choice(edges)
    return {
        "range": (u, n + rng.randint(0, 9)) if rng.random() < 0.5 else (-rng.randint(1, 9), v),
        "self-loop": (u, u),
        "repeat": (u, v),
        "reversed": (v, u),
        "past-int64": (rng.choice([2**63, -(2**63) - 1, 10**30]), v),
    }[kind]


_KINDS = ["range", "self-loop", "repeat", "reversed", "past-int64"]


class TestEachFault:
    @pytest.mark.parametrize("seed", range(10))
    @pytest.mark.parametrize("kind", [*_KINDS, "several"])
    def test_same_error_as_the_reference(self, kind, seed):
        rng = random.Random(f"fault/{kind}/{seed}")
        n, edges = _valid_case(rng)
        for k in rng.choices(_KINDS, k=rng.randint(2, 5)) if kind == "several" else [kind]:
            edges.insert(rng.randint(0, len(edges)), _fault(rng, k, n, edges))
        expected = _outcome(_reference_from_edges, n, edges, {})
        assert expected[0] == "error"
        assert _outcome(_built, n, edges, {}) == expected
        if kind not in ("past-int64", "several"):  # also as an int64 array
            assert _outcome(_built, n, np.array(edges, dtype=np.int64), {}) == expected

    @pytest.mark.parametrize("seed", range(10))
    def test_valid_input_is_built_without_argsort(self, seed, monkeypatch):
        n, edges = _valid_case(random.Random(f"valid/{seed}"))

        def refuse(*args, **kwargs):
            raise AssertionError("np.argsort called on valid input")

        monkeypatch.setattr(space.np, "argsort", refuse)
        graph = Graph.from_edges(n, edges, {"o": 0})
        monkeypatch.undo()
        assert graph.adjacency == _reference_from_edges(n, edges, {"o": 0})


class TestVerticesPastInt64:
    @pytest.mark.parametrize("big", [10**23, -(10**23), 2**63])
    @pytest.mark.parametrize("at", [0, 1])
    def test_out_of_range_with_its_value(self, big, at):
        pair = (0, big) if at == 0 else (big, 1)
        with pytest.raises(GraphFormatError) as error:
            Graph.from_edges(2, [(0, 1), pair, (1, 1)])
        assert (str(error.value), error.value.where) == (f"edge {pair} out of range", 1)
        assert type(error.value.where) is int

    def test_where_is_a_python_int_for_an_array(self):
        for edges in ([(0, 1), (1, 0)], np.array([(0, 1), (1, 0)], dtype=np.int64)):
            with pytest.raises(GraphFormatError) as error:
                Graph.from_edges(2, edges)
            assert (str(error.value), error.value.where) == ("duplicate edge (1, 0)", 1)
            assert type(error.value.where) is int


class TestShapes:
    def test_pairs_of_three_are_rejected(self):
        with pytest.raises(ValueError):
            Graph.from_edges(3, np.array([(0, 1, 2), (1, 2, 0)], dtype=np.int64))

    def test_ragged_list_is_rejected(self):
        with pytest.raises(ValueError):
            Graph.from_edges(3, [(0, 1), (1, 2, 0)])

    def test_no_edges_on_one_vertex(self):
        graph = Graph.from_edges(1, [])
        assert graph.adjacency == ((),)
        assert graph.edge_count == 0

    def test_adjacency_holds_python_ints(self):
        graph = Graph.from_edges(3, np.array([(2, 0), (0, 1)], dtype=np.int64))
        assert graph.adjacency == ((1, 2), (0,), (0,))
        assert {type(v) for nbrs in graph.adjacency for v in nbrs} == {int}
