"""
Tests of the one connectivity check, `space._connected`, which
`Graph.from_edges` runs on its edge arrays and `Graph.validate` on a
graph's keys.

Core claims:
    - against a breadth-first component count, kept below as the
      reference, on 240 seeded random graphs (up to 2,047 vertices, 1 to 5
      components, each a random tree with chords) under identity, reversed
      and shuffled vertex ids: `_connected` is true exactly when the count
      is at most 1, and `from_edges` builds the graph or raises "graph is
      not connected" accordingly
    - the small cases agree too: no vertex, one vertex, no edge, an isolated
      vertex 0 or last vertex beside a connected rest
    - long paths and tree chains under identity, reversed and shuffled ids
      are connected, and not once the edges of one vertex are taken out
    - a disconnected graph is not built, also when vertex 0 is the isolated
      one, and the error names no record; a connected one passes `validate()`
    - through `parse_graph`, the faults of a disconnected graph file keep
      their order: a text fault first, then an edge fault, then a
      basepoint out of range, and only then "graph is not connected"
"""

import random
from collections import deque

import numpy as np
import pytest

from folnerlab.errors import GraphFormatError
from folnerlab.generators import DEFAULT_VERTEX_BUDGET, stretched_tree_chain
from folnerlab.graphio import parse_graph
from folnerlab.space import Graph, _connected


def _reference_components(n, edges):
    """The number of connected components of 0..n-1, by breadth-first search."""
    adjacency = [[] for _ in range(n)]
    for u, v in edges:
        adjacency[u].append(v)
        adjacency[v].append(u)
    seen, count = [False] * n, 0
    for start in range(n):
        if seen[start]:
            continue
        count += 1
        seen[start] = True
        queue = deque([start])
        while queue:
            for u in adjacency[queue.popleft()]:
                if not seen[u]:
                    seen[u] = True
                    queue.append(u)
    return count


_IDS = {
    "identity": lambda n, rng: list(range(n)),
    "reversed": lambda n, rng: list(range(n - 1, -1, -1)),
    "shuffled": lambda n, rng: rng.sample(range(n), n),
}


def _renamed(edges, ids, rng):
    """The edges under new vertex ids, each in a random orientation."""
    return [(ids[v], ids[u]) if rng.random() < 0.5 else (ids[u], ids[v]) for u, v in edges]


def _random_case(seed, order):
    """A seeded graph on n vertices: 1 to 5 blocks of consecutive vertices,
    each a random tree plus chords, then renamed by `order`."""
    rng = random.Random(seed)
    n = int(2 ** rng.uniform(0, 11))
    parts = rng.randint(1, min(5, n))
    cuts = sorted(rng.sample(range(1, n), parts - 1))
    edges = set()
    for lo, hi in zip([0, *cuts], [*cuts, n]):
        edges.update((rng.randrange(lo, v), v) for v in range(lo + 1, hi))
        for _ in range(rng.randint(0, (hi - lo) // 2)):
            u, v = sorted(rng.sample(range(lo, hi), 2)) if hi - lo > 1 else (lo, lo)
            if u != v:
                edges.add((u, v))
    edges = sorted(edges)
    rng.shuffle(edges)
    return n, _renamed(edges, _IDS[order](n, rng), rng)


def _outcome(n, edges):
    try:
        Graph.from_edges(n, edges)
    except GraphFormatError as exc:
        return str(exc)
    return "graph"


def _arrays(edges):
    return np.array(edges, dtype=np.int64).reshape(-1, 2).T


class TestAgainstBfs:
    @pytest.mark.parametrize("order", _IDS)
    @pytest.mark.parametrize("seed", range(80))
    def test_same_verdict_as_the_component_count(self, seed, order):
        n, edges = _random_case(seed, order)
        connected = _reference_components(n, edges) <= 1
        assert _connected(n, *_arrays(edges)) == connected
        assert _outcome(n, edges) == ("graph" if connected else "graph is not connected")

    def test_cases_are_connected_and_disconnected(self):
        counts = {_reference_components(*_random_case(seed, "identity")) for seed in range(80)}
        assert {1, 2, 5} <= counts

    @pytest.mark.parametrize("n,edges", [
        (0, []),
        (1, []),
        (2, []),
        (2, [(1, 0)]),
        (3, [(1, 2)]),  # vertex 0 alone
        (3, [(0, 1)]),  # the last vertex alone
        (4, [(0, 1), (2, 3)]),
        (4, [(2, 3), (1, 2), (3, 0)]),
        (5, [(4, 3), (3, 2), (2, 1)]),
    ])
    def test_small_cases(self, n, edges):
        connected = _reference_components(n, edges) <= 1
        assert _connected(n, *_arrays(edges)) == connected
        assert _outcome(n, edges) == ("graph" if connected else "graph is not connected")


def _path(n):
    return n, [(i, i + 1) for i in range(n - 1)]


def _tree_chain(a, b, blocks):
    graph = stretched_tree_chain(a, b, blocks)
    return graph.vertex_count, [(u, v) for u, nbrs in enumerate(graph.adjacency) for v in nbrs if u < v]


class TestLongChains:
    @pytest.mark.parametrize("order", _IDS)
    @pytest.mark.parametrize("graph", [
        pytest.param(lambda: _path(30_000), id="path"),
        pytest.param(lambda: _tree_chain(2, 3, 6), id="tree-chain-2-3-6"),
        pytest.param(lambda: _tree_chain(3, 2, 7), id="tree-chain-3-2-7"),
    ])
    def test_connected_until_a_vertex_is_cut_off(self, graph, order):
        n, edges = graph()
        rng = random.Random(f"{n}/{order}")
        ids = _IDS[order](n, rng)
        assert _connected(n, *_arrays(_renamed(edges, ids, rng)))
        alone = rng.randrange(n)
        renamed = _renamed([e for e in edges if alone not in e], ids, rng)
        assert _reference_components(n, renamed) >= 2
        assert not _connected(n, *_arrays(renamed))
        assert _outcome(n, renamed) == "graph is not connected"


class TestValidate:
    @pytest.mark.parametrize("n,edges", [
        (4, [(0, 1), (2, 3)]),
        (3, [(1, 2)]),  # vertex 0 alone
        (3, [(0, 1)]),
        (2, []),
    ])
    def test_disconnected_graph_is_not_built(self, n, edges):
        with pytest.raises(GraphFormatError) as error:
            Graph.from_edges(n, edges)
        assert (str(error.value), error.value.where) == ("graph is not connected", None)

    @pytest.mark.parametrize("n,edges", [(0, []), (1, []), (3, [(0, 1), (0, 2)]), (3, [(0, 2), (1, 2)])])
    def test_connected_graph_passes_validate(self, n, edges):
        Graph.from_edges(n, edges).validate()


class TestFaultOrder:
    # A graph file of two components with one fault of each kind; each
    # fault is taken out in turn, from the last line up, so that no line moves.
    FILE = ["vertices 5", "basepoint o 7", "edge 0 1", "edge 4 4", "edge 2 3", "edge 1 9 9", "edge 3 4"]
    FAULTS = [  # in the order they are reported
        ("edge 1 9 9", "line 6: expected 'edge U V'"),
        ("edge 4 4", "line 4: self-loop at 4"),
        ("basepoint o 7", "line 2: basepoint 'o' -> 7 out of range"),
        (None, "graph is not connected"),
    ]

    @pytest.mark.parametrize("fixed", range(4))
    def test_each_fault_comes_before_the_next(self, fixed):
        gone = {record for record, _ in self.FAULTS[:fixed]}
        text = "\n".join(line for line in self.FILE if line not in gone) + "\n"
        with pytest.raises(GraphFormatError) as error:
            parse_graph(text, DEFAULT_VERTEX_BUDGET)
        assert str(error.value) == self.FAULTS[fixed][1]
