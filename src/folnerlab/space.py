"""Finite metric measure spaces realized as unit-edge graphs.

Every space in this package is a finite connected graph with unit edge
lengths, carrying the shortest-path metric and the counting measure.  This
module owns the graph container and the metric primitives everything else
is built from:

    - breadth-first distances with a cutoff,
    - ball/sphere volume profiles around a center,
    - greedy maximal separated nets inside annuli,
    - monotone geodesic chains,
    - the monotone-geodesic constant (how far a point of B(x, r+1) can sit
      from B(x, r)).

Balls are closed: B(x, r) = {y : d(x, y) <= r}.  The sphere at radius r is
S(x, r) = B(x, r+1) \\ B(x, r), which on a unit-edge graph is the set of
vertices at distance exactly r + 1.

Subdivided-edge constructions (see `generators`) stay inside this model:
stretching an edge means inserting degree-2 vertices, never changing edge
lengths.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Mapping, Sequence

__all__ = [
    "Graph",
    "VolumeProfile",
    "GeodesicChain",
    "bfs_distances",
    "volume_profile",
    "separated_net",
    "monotone_geodesic",
    "property_m_constant",
    "sample_centers",
]

Vertex = int


@dataclass(frozen=True)
class Graph:
    """Finite undirected graph with named basepoints.

    `adjacency[v]` lists the neighbors of vertex v in ascending order.  The
    graph is immutable after construction; `validate()` checks the structural
    invariants (symmetry, no loops, no duplicate edges, connectivity, basepoint
    indices in range) and every constructor in this package calls it.
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
        n: int,
        edges: Iterable[tuple[Vertex, Vertex]],
        basepoints: Mapping[str, Vertex] | None = None,
    ) -> "Graph":
        """Build a graph from an edge list, normalizing adjacency order."""
        adj: list[list[Vertex]] = [[] for _ in range(n)]
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range for {n} vertices")
            adj[u].append(v)
            adj[v].append(u)
        graph = Graph(
            adjacency=tuple(tuple(sorted(nbrs)) for nbrs in adj),
            basepoints=dict(basepoints or {}),
        )
        graph.validate()
        return graph

    def validate(self) -> None:
        """Raise ValueError on any violated structural invariant."""
        n = self.vertex_count
        for v, nbrs in enumerate(self.adjacency):
            if any(u == v for u in nbrs):
                raise ValueError(f"self-loop at vertex {v}")
            if len(set(nbrs)) != len(nbrs):
                raise ValueError(f"duplicate edge at vertex {v}")
            for u in nbrs:
                if not 0 <= u < n:
                    raise ValueError(f"neighbor {u} of {v} out of range")
                if v not in self.adjacency[u]:
                    raise ValueError(f"asymmetric edge ({v}, {u})")
        for label, v in self.basepoints.items():
            if not 0 <= v < n:
                raise ValueError(f"basepoint {label!r} -> {v} out of range")
        if n > 0 and len(bfs_distances(self, 0)) != n:
            raise ValueError("graph is not connected")


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
        return tuple(
            self.ball[r + 1] - self.ball[r] for r in range(self.depth)
        )

    def __post_init__(self) -> None:
        if not self.ball or self.ball[0] < 1:
            raise ValueError("ball[0] must count at least the center")
        if any(b > a for a, b in zip(self.ball[1:], self.ball)):
            raise ValueError("ball volumes must be nondecreasing")


@dataclass(frozen=True)
class GeodesicChain:
    """A chain of vertices whose distance from the start increases by >= 1
    per step, with consecutive steps bounded by `step_bound`."""

    vertices: tuple[Vertex, ...]
    step_bound: int


def bfs_distances(
    graph: Graph, center: Vertex, cutoff: int | None = None
) -> dict[Vertex, int]:
    """Shortest-path distances from `center`, restricted to d <= cutoff.

    Returns a dict vertex -> distance covering exactly the ball of radius
    `cutoff` (the whole component when cutoff is None).
    """
    if not 0 <= center < graph.vertex_count:
        raise ValueError(f"center {center} out of range")
    dist = {center: 0}
    frontier = deque([center])
    adjacency = graph.adjacency
    while frontier:
        v = frontier.popleft()
        d = dist[v]
        if cutoff is not None and d >= cutoff:
            continue
        for u in adjacency[v]:
            if u not in dist:
                dist[u] = d + 1
                frontier.append(u)
    return dist


def volume_profile(graph: Graph, center: Vertex, depth: int) -> VolumeProfile:
    """Ball and sphere volumes around `center` up to radius `depth`.

    If the BFS exhausts the component before `depth`, the profile saturates:
    ball[r] stays at the component size.
    """
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    dist = bfs_distances(graph, center, cutoff=depth)
    counts = [0] * (depth + 1)
    for d in dist.values():
        counts[d] += 1
    ball = []
    total = 0
    for r in range(depth + 1):
        total += counts[r]
        ball.append(total)
    return VolumeProfile(center=center, ball=tuple(ball))


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


def monotone_geodesic(graph: Graph, start: Vertex, end: Vertex) -> GeodesicChain:
    """A shortest path from `start` to `end` as a monotone chain.

    On a unit-edge graph a BFS shortest path already satisfies the monotone
    chain conditions: d(x_i, start) = i increases by exactly 1 per step, so
    step_bound = 1 (0 for the trivial chain).  Ties are broken toward the
    smallest-index predecessor, making the output deterministic.
    """
    if not 0 <= end < graph.vertex_count:
        raise ValueError(f"end {end} out of range")
    if start == end:
        return GeodesicChain(vertices=(start,), step_bound=0)
    parent: dict[Vertex, Vertex] = {start: start}
    frontier = deque([start])
    while frontier:
        v = frontier.popleft()
        if v == end:
            break
        for u in graph.adjacency[v]:
            if u not in parent:
                parent[u] = v
                frontier.append(u)
    if end not in parent:
        raise ValueError(f"vertices {start} and {end} are not connected")
    path = [end]
    while path[-1] != start:
        path.append(parent[path[-1]])
    path.reverse()
    return GeodesicChain(vertices=tuple(path), step_bound=1)


def property_m_constant(
    graph: Graph,
    centers: Sequence[Vertex],
    depth: int,
    subspace: Iterable[Vertex] | None = None,
) -> int:
    """Largest distance from a sphere vertex back to the ball it bounds.

    Computes max over sampled centers x, radii r <= depth and y in S(x, r) of
    d(y, B(x, r)).  On any connected unit-edge graph with at least one edge
    this is exactly 1.  Passing `subspace` restricts balls and spheres to a
    vertex subset while keeping the ambient graph metric, which models spaces
    whose distances are inherited from a larger graph (e.g. an even sublattice
    of a subdivided line, where the constant is 2).  Returns 0 when every
    tested sphere is empty.
    """
    space = set(subspace) if subspace is not None else None
    if space is not None:
        for v in space:
            if not 0 <= v < graph.vertex_count:
                raise ValueError(f"subspace vertex {v} out of range")
    best = 0
    for x in centers:
        if space is not None and x not in space:
            raise ValueError(f"center {x} not in subspace")
        dist = bfs_distances(graph, x, cutoff=depth + 1)
        for r in range(depth + 1):
            ball = {v for v, d in dist.items() if d <= r}
            sphere = [v for v, d in dist.items() if d == r + 1]
            if space is not None:
                ball &= space
                sphere = [v for v in sphere if v in space]
            for y in sphere:
                best = max(best, _distance_to_set(graph, y, ball))
    return best


def _distance_to_set(graph: Graph, source: Vertex, targets: set[Vertex]) -> int:
    """BFS from `source` until any vertex of `targets` is reached."""
    if source in targets:
        return 0
    dist = {source: 0}
    frontier = deque([source])
    while frontier:
        v = frontier.popleft()
        for u in graph.adjacency[v]:
            if u not in dist:
                dist[u] = dist[v] + 1
                if u in targets:
                    return dist[u]
                frontier.append(u)
    raise ValueError("target set unreachable")


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
