"""Finite metric measure spaces realized as unit-edge graphs.

Every space in this package is a finite connected graph with unit edge
lengths, carrying the shortest-path metric and the counting measure.  This
module owns the graph container and the metric primitives everything else
is built from.  `Graph.from_edges`, the one way to build a graph, checks
the edges and connectivity on int64 arrays and keeps the edges as sorted
int64 keys; the adjacency tuples are built from them only when read, as
the view of the breadth-first loop.  Each metric primitive is read off that
one loop, `bfs_layers`, which yields the vertices at distance 0, 1, 2, ...
from a center, each layer in discovery order:

    - distances with a cutoff (`bfs_distances`, the layers as a dict),
    - ball/sphere volume profiles around a center (the layer sizes, summed
      by `VolumeProfile.from_sizes`),
    - greedy maximal separated nets inside annuli,
    - shortest paths (walked back through the layers).

Balls are closed: B(x, r) = {y : d(x, y) <= r}.  The sphere at radius r is
S(x, r) = B(x, r+1) \\ B(x, r), which on a unit-edge graph is the set of
vertices at distance exactly r + 1, the layer r + 1.

Subdivided-edge constructions (see `generators`) stay inside this model:
stretching an edge means inserting degree-2 vertices, never changing edge
lengths.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate
from operator import le, sub
from typing import Iterator, Mapping, Sequence

import numpy as np

from .errors import GraphFormatError

__all__ = [
    "Graph",
    "VolumeProfile",
    "bfs_layers",
    "bfs_distances",
    "volume_profile",
    "separated_net",
    "monotone_geodesic",
    "sample_centers",
]

Vertex = int


class Graph:
    """Finite undirected graph with named basepoints.

    `adjacency[v]` lists the neighbors of vertex v in ascending order.  A
    graph is not changed once built, and `from_edges` builds every graph: it
    checks each edge, the basepoints' range and, with `_connected`,
    connectivity, and keeps the sorted keys src·n + dst of both orientations.
    The adjacency is built from them on first read, symmetric and in range.
    Graphs are equal when vertex count, keys and basepoints are.
    """

    def __init__(self, n: int, keys: np.ndarray, basepoints: Mapping[str, Vertex]) -> None:
        """The graph on 0..n-1 of the sorted `keys`, unchecked: `from_edges` calls it."""
        self.vertex_count, self._keys, self.basepoints = n, keys, dict(basepoints)
        self.edge_count = len(keys) // 2

    @cached_property
    def adjacency(self) -> Sequence[Sequence[Vertex]]:
        return _adjacency(self.vertex_count, self._keys)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return (self.vertex_count == other.vertex_count and self.basepoints == other.basepoints
                and np.array_equal(self._keys, other._keys))

    @staticmethod
    def from_edges(
        n: int, edges: Sequence[Sequence[Vertex]] | np.ndarray,
        basepoints: Mapping[str, Vertex] | None = None,
    ) -> "Graph":
        """A graph on 0..n-1 from an (m, 2) integer array of edges, or a list
        that converts to one.  The edge with the smallest index that is out
        of range, a self-loop or a repeat in either orientation (at one index,
        in that order) raises GraphFormatError with its index as `where`.

        The keys of both orientations are sorted once, for the graph.  An
        edge in range that is no self-loop has two distinct keys, so two
        equal neighbours in that sorted array exist exactly when some edge
        repeats, in either orientation; only when an edge is out of range, a
        self-loop or such a repeat is the first faulty edge searched for."""
        try:
            given = np.asarray(edges, dtype=np.int64)
        except OverflowError:  # a vertex past int64 is out of range; keep it for the message
            given = np.asarray(edges, dtype=object)
        given = given.reshape(len(given), 2)  # ValueError unless (m, 2) or empty
        inrange = ((given >= 0) & (given < n)).all(axis=1)
        u, v = np.where(inrange[:, None], given, -1).astype(np.int64).T
        keys = np.sort(np.concatenate((u * n + v, v * n + u)))
        if not inrange.all() or (u == v).any() or (keys[1:] == keys[:-1]).any():
            raise _first_fault(n, given, inrange, u, v)
        return Graph(n, keys, basepoints or {})._checked(u, v)

    def validate(self) -> None:
        """Raise GraphFormatError on a basepoint out of range (its label as
        `where`) or a disconnected graph, as `from_edges` does."""
        self._checked(*np.divmod(self._keys, self.vertex_count))

    def _checked(self, src: np.ndarray, dst: np.ndarray) -> "Graph":
        """The graph, once its basepoints are checked and its edges
        (src[i], dst[i]) found to connect it."""
        n = self.vertex_count
        for label, v in self.basepoints.items():
            if not 0 <= v < n:
                raise GraphFormatError(f"basepoint {label!r} -> {v} out of range", label)
        if not _connected(n, src, dst):
            raise GraphFormatError("graph is not connected")
        return self


def _first_fault(n: int, given: np.ndarray, inrange: np.ndarray, u: np.ndarray, v: np.ndarray
                 ) -> GraphFormatError:
    """The error of the faulty edge of `from_edges` with the smallest index:
    out of range, a self-loop, or a repeat of an earlier edge (u, v are the
    edges, -1 where out of range)."""
    valid = np.flatnonzero(inrange & (u != v))
    keys = (np.minimum(u, v) * n + np.maximum(u, v))[valid]
    order = np.argsort(keys, kind="stable")  # the edges of one key in index order
    repeats = valid[order[1:][keys[order[1:]] == keys[order[:-1]]]]
    i = min([*np.flatnonzero(~inrange | (u == v)).tolist(), *repeats.tolist()])
    a, b = (int(x) for x in given[i])
    return GraphFormatError(
        f"edge ({a}, {b}) out of range" if not inrange[i] else
        f"self-loop at {a}" if a == b else f"duplicate edge ({a}, {b})", i)


def _adjacency(n: int, keys: np.ndarray) -> tuple[tuple[Vertex, ...], ...]:
    """The neighbor tuples of 0..n-1 from the sorted keys src·n + dst, built
    per degree class: the vertices of one degree d, in ascending order,
    have their neighbors gathered into one row-major list, grouped d at a
    time into tuples, and the rows are put back in vertex order.  Row-major,
    so the ints of each tuple are allocated together, close in memory for
    the breadth-first loop that reads them."""
    src, dst = np.divmod(keys, n)
    degree = np.bincount(src, minlength=n)
    start = np.cumsum(degree) - degree  # where each vertex's neighbors begin in dst
    order = np.argsort(degree, kind="stable")  # by degree, then vertex
    rows: list[tuple[Vertex, ...]] = []
    for d, count in enumerate(np.bincount(degree).tolist()):
        if count:
            members = order[len(rows) : len(rows) + count]
            flat = dst[(start[members, None] + np.arange(d)).ravel()].tolist()
            rows += zip(*[iter(flat)] * d) if d else [()] * count
    rank = np.empty(n, dtype=np.int64)
    rank[order] = np.arange(n)
    return tuple(map(rows.__getitem__, rank.tolist()))


def _connected(n: int, u: np.ndarray, v: np.ndarray) -> bool:
    """Whether the edges (u[i], v[i]) connect 0..n-1: min-label hooking with
    pointer jumping (Shiloach and Vishkin, J. Algorithms 3, 1982).  While an
    edge joins two trees, each root takes the smallest root across an edge
    and every label then jumps to its root.  A label never exceeds its
    vertex, so no tree has a cycle; connected means every label is 0.  Every
    round reads all edges: arrays of one size reuse the heap that shrinking
    ones would scatter."""
    label = np.arange(n, dtype=np.int64)
    while not np.array_equal(a := label[u], b := label[v]):
        np.minimum.at(label, np.maximum(a, b), np.minimum(a, b))
        while not np.array_equal(jumped := label[label], label):
            label = jumped
    return not label.any()


@dataclass(frozen=True)
class VolumeProfile:
    """Cumulative ball volumes around one center.

    ball[r] counts vertices at distance <= r for r = 0..depth; sphere[r] =
    ball[r+1] - ball[r] counts vertices at distance exactly r + 1, for
    r = 0..depth-1.  All entries are exact integers.
    """

    center: Vertex
    ball: tuple[int, ...]

    @property
    def depth(self) -> int:
        return len(self.ball) - 1

    @cached_property
    def sphere(self) -> tuple[int, ...]:
        return tuple(map(sub, self.ball[1:], self.ball))

    @classmethod
    def from_sizes(cls, center: Vertex, sizes: Sequence[int], depth: int) -> "VolumeProfile":
        """The profile whose ball[r] sums sizes[0..r] for r = 0..depth,
        saturating at the total once `sizes` runs out."""
        if depth < 0:
            raise ValueError("depth must be nonnegative")
        ball = list(accumulate(sizes[: depth + 1]))
        ball += ball[-1:] * (depth + 1 - len(ball))
        return cls(center=center, ball=tuple(ball))

    def __post_init__(self) -> None:
        if not self.ball or self.ball[0] < 1:
            raise ValueError("ball[0] must count at least the center")
        if not all(map(le, self.ball, self.ball[1:])):
            raise ValueError("ball volumes must be nondecreasing")


def bfs_layers(graph: Graph, center: Vertex, cutoff: int | None = None) -> Iterator[list[Vertex]]:
    """The vertices at distance 0, 1, 2, ... from `center`, one list per
    distance, up to `cutoff` (the whole component when cutoff is None).

    Each layer comes in discovery order: the order in which a scan of the
    layer before it, in its own order, and of each vertex's sorted neighbors
    first meets its vertices.  Layers are computed only as they are consumed.
    """
    if not 0 <= center < graph.vertex_count:
        raise ValueError(f"center {center} out of range")
    adjacency = graph.adjacency
    # A list, not a bytearray: CPython 3.11 specialises a list's int
    # subscript and store (PEP 659) but leaves a bytearray's generic.
    seen = [False] * graph.vertex_count
    seen[center] = True
    layer = [center]
    d = 0
    while layer:
        yield layer
        if cutoff is not None and d >= cutoff:
            return
        d += 1
        nxt = []
        for v in layer:
            for u in adjacency[v]:
                if not seen[u]:
                    seen[u] = True
                    nxt.append(u)
        layer = nxt


def bfs_distances(graph: Graph, center: Vertex, cutoff: int | None = None) -> dict[Vertex, int]:
    """Shortest-path distances from `center`, restricted to d <= cutoff.

    Returns a dict vertex -> distance covering exactly the ball of radius
    `cutoff` (the whole component when cutoff is None), in discovery order.
    """
    return {v: d for d, layer in enumerate(bfs_layers(graph, center, cutoff)) for v in layer}


def volume_profile(graph: Graph, center: Vertex, depth: int) -> VolumeProfile:
    """Ball and sphere volumes around `center` up to radius `depth`.

    If the BFS exhausts the component before `depth`, the profile saturates:
    ball[r] stays at the component size.
    """
    sizes = [len(layer) for layer in bfs_layers(graph, center, depth)]
    return VolumeProfile.from_sizes(center, sizes, depth)


def separated_net(
    graph: Graph, center: Vertex, r_lo: int, r_hi: int, k: int
) -> tuple[Vertex, ...]:
    """Greedy maximal k-separated net in the annulus {y : r_lo < d(center,y) <= r_hi}.

    Vertices are scanned in ascending index order and kept when they are at
    graph distance > k from every vertex already kept, so the result is
    deterministic, pairwise (> k)-separated, and maximal: every annulus vertex
    lies within distance k of some net point.  Distances are measured in the
    whole graph, not the annulus.
    """
    if k < 0:
        raise ValueError("separation k must be nonnegative")
    if r_lo >= r_hi:
        raise ValueError("annulus requires r_lo < r_hi")
    dist = bfs_distances(graph, center, cutoff=r_hi)
    annulus = sorted(v for v, d in dist.items() if r_lo < d <= r_hi)
    covered: set[Vertex] = set()
    net: list[Vertex] = []
    for v in annulus:
        if v in covered:
            continue
        net.append(v)
        covered.update(bfs_distances(graph, v, cutoff=k))
    return tuple(net)


def monotone_geodesic(graph: Graph, start: Vertex, end: Vertex) -> tuple[Vertex, ...]:
    """A shortest path from `start` to `end`, as its vertices.

    On a unit-edge graph a shortest path is a monotone chain with step 1:
    d(x_i, start) = i.  The path is walked back from `end` through the BFS
    layers of `start`; each step goes to the neighbor in the layer before
    that was discovered first, making the output deterministic.
    """
    if not 0 <= end < graph.vertex_count:
        raise ValueError(f"end {end} out of range")
    layers = []
    for layer in bfs_layers(graph, start):
        layers.append(layer)
        if end in layer:
            break
    else:
        raise ValueError(f"vertices {start} and {end} are not connected")
    path = [end]
    for layer in reversed(layers[:-1]):
        rank = {v: i for i, v in enumerate(layer)}
        path.append(min((u for u in graph.adjacency[path[-1]] if u in rank), key=rank.get))
    path.reverse()
    return tuple(path)


def sample_centers(
    n: int, basepoints: Mapping[str, Vertex], count: int, seed: int
) -> tuple[Vertex, ...]:
    """Deterministic center sample of the vertices 0..n-1: all basepoints
    plus a seeded random draw.

    Only the vertex count and the basepoints are read, so a family's space
    record samples its centers without building its graph.  The remainder
    is filled from a seeded PRNG over the vertex range; a count of n or
    more takes every vertex and draws nothing.  The result is sorted and
    duplicate-free, so the same (n, basepoints, count, seed) always yields
    the same centers regardless of how the caller parallelizes downstream
    work.
    """
    if count >= n:
        return tuple(range(n))
    chosen = set(basepoints.values())
    rng = random.Random(seed)
    while len(chosen) < count:
        chosen.add(rng.randrange(n))
    return tuple(sorted(chosen))
