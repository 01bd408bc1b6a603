"""Finite metric measure spaces realized as unit-edge graphs.

Every space in this package is a finite connected graph with unit edge
lengths, carrying the shortest-path metric and the counting measure.  This
module owns the graph container and the metric primitives everything else
is built from.  Each of them is read off one breadth-first loop,
`bfs_layers`, which yields the vertices at distance 0, 1, 2, ... from a
center, each layer in discovery order:

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
from dataclasses import dataclass, field
from functools import cached_property
from itertools import accumulate
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


@dataclass(frozen=True)
class Graph:
    """Finite undirected graph with named basepoints.

    `adjacency[v]` lists the neighbors of vertex v in ascending order.  The
    graph is immutable.  Every constructor here goes through `from_edges`,
    which checks each edge; the adjacency it builds is then symmetric and in
    range by construction.  `validate()` checks those two on a graph built by
    hand.  Both check the basepoints' range and connectivity.
    """

    adjacency: tuple[tuple[Vertex, ...], ...]
    basepoints: Mapping[str, Vertex] = field(default_factory=dict)

    @property
    def vertex_count(self) -> int:
        return len(self.adjacency)

    @property
    def edge_count(self) -> int:
        return sum(len(nbrs) for nbrs in self.adjacency) // 2

    @staticmethod
    def from_edges(
        n: int, edges: Sequence[Sequence[Vertex]] | np.ndarray,
        basepoints: Mapping[str, Vertex] | None = None,
    ) -> "Graph":
        """A graph on 0..n-1 from an (m, 2) integer array of edges, or a list
        that converts to one.  The edge with the smallest index that is out
        of range, a self-loop or a repeat in either orientation (at one index,
        in that order) raises GraphFormatError with its index as `where`."""
        try:
            given = np.asarray(edges, dtype=np.int64)
        except OverflowError:  # a vertex past int64 is out of range; keep it for the message
            given = np.asarray(edges, dtype=object)
        given = given.reshape(len(given), 2)  # ValueError unless (m, 2) or empty
        inrange = ((given >= 0) & (given < n)).all(axis=1)
        u, v = np.where(inrange[:, None], given, -1).astype(np.int64).T
        valid = np.flatnonzero(inrange & (u != v))
        keys = (np.minimum(u, v) * n + np.maximum(u, v))[valid]
        order = np.argsort(keys, kind="stable")  # the edges of one key in index order
        repeats = valid[order[1:][keys[order[1:]] == keys[order[:-1]]]]
        i = min([*np.flatnonzero(~inrange | (u == v)).tolist(), *repeats.tolist()], default=None)
        if i is not None:
            a, b = (int(x) for x in given[i])
            raise GraphFormatError(
                f"edge ({a}, {b}) out of range" if not inrange[i] else
                f"self-loop at {a}" if a == b else f"duplicate edge ({a}, {b})", i)
        # Both orientations as sorted keys src * n + dst, cut where each src ends.
        keys = np.sort(np.concatenate((u * n + v, v * n + u)))
        flat, ends = (keys % n).tolist(), np.searchsorted(keys, np.arange(1, n + 1) * n).tolist()
        adjacency = tuple(tuple(flat[a:b]) for a, b in zip([0, *ends], ends))
        return Graph(adjacency, dict(basepoints or {}))._checked()

    def validate(self) -> None:
        """Raise GraphFormatError on a neighbor out of range or an asymmetric
        adjacency (only a graph built by hand can have either), then on a
        basepoint out of range (its label as `where`) or a disconnected graph."""
        adjacency, n = self.adjacency, self.vertex_count
        for v, nbrs in enumerate(adjacency):
            for u in nbrs:
                if not 0 <= u < n:
                    raise GraphFormatError(f"edge ({v}, {u}) out of range")
                if v not in adjacency[u]:
                    raise GraphFormatError(f"asymmetric edge ({v}, {u})")
        self._checked()

    def _checked(self) -> "Graph":
        """The graph, once its basepoints and connectivity are checked."""
        n = self.vertex_count
        for label, v in self.basepoints.items():
            if not 0 <= v < n:
                raise GraphFormatError(f"basepoint {label!r} -> {v} out of range", label)
        if n > 0 and sum(map(len, bfs_layers(self, 0))) != n:
            raise GraphFormatError("graph is not connected")
        return self


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
        return tuple(self.ball[r + 1] - self.ball[r] for r in range(self.depth))

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
        if any(b > a for a, b in zip(self.ball[1:], self.ball)):
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
    seen = {center}
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
                if u not in seen:
                    seen.add(u)
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


def sample_centers(graph: Graph, count: int, seed: int) -> tuple[Vertex, ...]:
    """Deterministic center sample: all basepoints plus a seeded random draw.

    Basepoints are taken in label order; the remainder is filled from a seeded
    PRNG over the vertex range.  The result is sorted and duplicate-free, so
    the same (graph, count, seed) always yields the same centers regardless of
    how the caller parallelizes downstream work.
    """
    chosen = {graph.basepoints[label] for label in sorted(graph.basepoints)}
    rng = random.Random(seed)
    n = graph.vertex_count
    while len(chosen) < min(count, n):
        chosen.add(rng.randrange(n))
    return tuple(sorted(chosen))
