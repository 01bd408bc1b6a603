"""Graph constructions: word-metric balls, stretched tree chains, stairway strip.

Four families of unit-edge graphs with named basepoints:

word_ball / cayley_ball
    The radius-R word ball in Z^d or H3(Z) with respect to a symmetrized
    generating set.  `word_ball` reads the birth layers off the expansion
    kernel `groups.expand` (layer r = the elements of word length exactly
    r), each sorted, so indexing is deterministic.  Because every geodesic
    word keeps its prefixes inside the ball, graph distance from the
    basepoint "origin" equals word length for every vertex, and the BFS
    profile of the origin is the running sum of the layer sizes: group
    spaces profile the origin from the layers and build the graph only on
    demand.  When it is built (`WordBall.graph`, at most once per ball;
    `cayley_ball` builds it at once), edges join elements differing by one
    generator and are found by key lookup.

stretched_tree_chain
    Blocks G'_1 .. G'_N glued in a row.  Block n is a depth-n tree with
    branching `valence` whose generation-k edges are subdivided into
    stretch^(n-k) unit edges, doubled by gluing a mirror copy along the last
    generation.  The two roots of block n are basepoints r_n and rp_n, and
    rp_n is identified with r_(n+1).  With (stretch, valence) = (2, 3) the
    root-to-leaf distance in block n is 2^n - 1 and ball volumes grow
    polynomially with exponent log 3 / log 2 while annuli at the roots stay
    proportionally large; with (3, 2) growth is linear but spheres at
    well-placed centers periodically reach size 2^n.

stairway_strip
    Grid discretization of the closed 1-neighborhood of a planar curve that
    starts at the origin and runs through half-circles of radius 2^k (k <= K)
    centered at the origin, joined by straight runs along the x-axis.  The
    interesting metric here is the ambient one: `norm_profile` counts points
    by Euclidean norm from the origin, where growth is linear but the ring
    (2^k, 2^k + 1] contains an entire half-circle of points.  A graph file
    holds no coordinates, so a stairway written out and read back is
    profiled in its graph metric, not in this one.

Every graph here is assembled by `Graph.from_edges`, the one check of an
edge list.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import islice
from typing import Iterator, Sequence

import numpy as np

from .errors import BudgetExceededError
from .groups import (
    Element,
    GroupModel,
    KeyBox,
    Repeat,
    check_generates,
    expand,
    lookup,
    step_images,
)
from .space import Graph, VolumeProfile

__all__ = [
    "WordBall",
    "word_ball",
    "TreeChainSpec",
    "StairwayStrip",
    "cayley_ball",
    "stretched_tree_chain",
    "stairway_strip",
    "norm_profile",
    "DEFAULT_VERTEX_BUDGET",
]

DEFAULT_VERTEX_BUDGET = 2_000_000


@dataclass(frozen=True, eq=False)
class WordBall:
    """Birth layers of a word ball, elements packed into int64 keys.

    `layers[r]` holds the sorted keys in `box` of the elements of word
    length exactly r.  The box covers the ball and its one-step neighbors.
    Vertex i of the ball is the i-th key in (layer, key) order, the identity
    being vertex 0.
    """

    model: GroupModel
    steps: tuple[Element, ...]
    layers: tuple[np.ndarray, ...]
    box: KeyBox

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(len(layer) for layer in self.layers)

    @property
    def vertex_count(self) -> int:
        return sum(self.sizes)

    @cached_property
    def edge_count(self) -> int:
        """Half the number of pairs (g, s) with g * s in the ball.

        |g * s| differs from |g| by at most one, so every product of a layer
        before the last lies in the ball, and a product of the last layer
        does exactly when it lands in the last two layers.
        """
        last = self.layers[-1]
        images = step_images(self.model, self.box, last, self.steps)
        inside = sum(
            len(lookup(layer, image)[0]) for layer in self.layers[-2:] for image in images
        )
        return (len(self.steps) * (self.vertex_count - len(last)) + inside) // 2

    @cached_property
    def elements(self) -> tuple[Element, ...]:
        return tuple(self.box.elements(np.concatenate(self.layers)))

    def edges(self) -> np.ndarray:
        """Edges (i, j), i < j, sorted: the vertex pairs with g_i * s = g_j.

        A step moves an element of layer r into layer r - 1, r or r + 1, and
        the steps are closed under inversion, so every edge is found exactly
        once by looking up g * s in layers r and r + 1 and keeping i < j.
        """
        starts = np.cumsum((0,) + self.sizes)
        pieces = [np.empty((0, 2), dtype=np.intp)]
        for r, keys in enumerate(self.layers):
            images = step_images(self.model, self.box, keys, self.steps)
            for t in range(r, min(r + 2, len(self.layers))):
                for image in images:
                    i, j = lookup(self.layers[t], image)
                    i += starts[r]
                    j += starts[t]
                    keep = i < j
                    pieces.append(np.stack((i[keep], j[keep]), axis=1))
        edges = np.concatenate(pieces)
        return edges[np.lexsort((edges[:, 1], edges[:, 0]))]

    @cached_property
    def graph(self) -> Graph:
        """The ball as a validated graph with basepoint "origin" = identity."""
        return Graph.from_edges(self.vertex_count, self.edges(), {"origin": 0})

    def profile(self, depth: int) -> VolumeProfile:
        """Volume profile of the identity, equal to `volume_profile` of vertex
        0 on `graph`: ball[r] sums layers 0..r and saturates past the
        radius."""
        return VolumeProfile.from_sizes(0, self.sizes, depth)


def word_ball(
    model: GroupModel,
    generating_set: Sequence[Element] | str,
    radius: int,
    vertex_budget: int = DEFAULT_VERTEX_BUDGET,
) -> WordBall:
    """Birth layers of the word ball of `radius` for the symmetrized set
    (a named set of `model` or explicit tuples): those of `groups.expand`
    from the identity, with the vertex budget as its budget."""
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    if isinstance(generating_set, str):
        generating_set = model.generating_set(generating_set)
    steps = model.symmetrize(generating_set)
    check_generates(model, steps)
    # One factor more than the radius, never expanded: it sizes the box for
    # the one-step neighbors that `edges` and `edge_count` encode.
    layers = expand(model, [model.identity], Repeat(steps, radius + 1), vertex_budget, "cayley_ball")
    # The set generates Z^d or H3, both infinite, so no layer of the ball is empty.
    kept = list(islice(layers, radius + 1))
    return WordBall(model, steps, tuple(layer.keys for layer in kept), kept[0].box)


def cayley_ball(
    model: GroupModel,
    generating_set: Sequence[Element] | str,
    radius: int,
    vertex_budget: int = DEFAULT_VERTEX_BUDGET,
) -> WordBall:
    """Word ball of `radius` in `model` for the symmetrized generating set,
    with its graph realized from the layers of `word_ball`.

    The generating set is symmetrized (closed under inversion, identity
    dropped) before building edges; one-sided product sets are the business
    of the `products` module, not of graph realizations.
    """
    ball = word_ball(model, generating_set, radius, vertex_budget)
    ball.graph  # built here, so its time is spent inside this call
    return ball


@dataclass(frozen=True)
class TreeChainSpec:
    """Parameters of a stretched tree chain.

    stretch >= 2 scales edge lengths (generation-k edges of block n have
    length stretch^(n-k)), valence >= 2 is the branching, blocks >= 1 the
    number of doubled blocks glued in a row.
    """

    stretch: int
    valence: int
    blocks: int

    def __post_init__(self) -> None:
        if self.stretch < 2 or self.valence < 2 or self.blocks < 1:
            raise ValueError("need stretch >= 2, valence >= 2, blocks >= 1")

    def block_depth(self, n: int) -> int:
        """Root-to-leaf distance in block n: sum of stretch^(n-k), k = 1..n."""
        a = self.stretch
        return (a**n - 1) // (a - 1)


def stretched_tree_chain(
    spec: TreeChainSpec, vertex_budget: int = DEFAULT_VERTEX_BUDGET
) -> Graph:
    """Build the chained, doubled, stretched trees described in the module docs.

    Basepoints: r_n and rp_n are the two roots of block n (rp_n == r_(n+1)
    after gluing), and leaf_n is the shared last-generation vertex of block n
    with the all-zeros child address.

    Ids are handed out block by block, tree by tree and level by level.  At
    level k of a depth-n tree every child hangs on a path of length
    per = stretch^(n-k): child i, in address order, takes id base + per * i
    and its path's per - 1 inner vertices the ids right after it.  Each
    level's ids are counted against the budget before its edges exist.
    """
    a, b, blocks = spec.stretch, spec.valence, spec.blocks
    pieces: list[np.ndarray] = []
    basepoints: dict[str, int] = {}
    count = 0

    def take(k: int) -> int:
        """The first of k fresh ids; past the budget, the error at its first id over."""
        nonlocal count
        if count + k > vertex_budget:
            raise BudgetExceededError("stretched_tree_chain", vertex_budget + 1, vertex_budget)
        count += k
        return count - k

    def grow_tree(root: int, n: int, leaves: np.ndarray | None = None) -> np.ndarray:
        """Depth-n stretched tree below `root`; returns its last generation.

        With `leaves` (the mirror copy), the last generation is `leaves`
        instead of new vertices; its paths have length 1, so it adds none.
        """
        parents = np.array([root], dtype=np.int64)
        for k in range(1, n + 1):
            per, m = a ** (n - k), b**k
            children = leaves if k == n and leaves is not None else (
                take(m * per) + per * np.arange(m, dtype=np.int64))
            # Each child's path, parent first: parent, child + 1, ..., child + per - 1, child.
            chain = np.empty((m, per + 1), dtype=np.int64)
            chain[:, 0] = np.repeat(parents, b)
            chain[:, 1:per] = children[:, None] + np.arange(1, per)
            chain[:, per] = children
            pieces.append(np.stack((chain[:, :-1], chain[:, 1:]), axis=2).reshape(-1, 2))
            parents = children
        return parents

    root = take(1)
    for n in range(1, blocks + 1):
        leaves = grow_tree(root, n)
        far_root = take(1)
        grow_tree(far_root, n, leaves)
        basepoints[f"r_{n}"] = root
        basepoints[f"rp_{n}"] = far_root
        basepoints[f"leaf_{n}"] = int(leaves[0])
        root = far_root

    return Graph.from_edges(count, np.concatenate(pieces), basepoints)


@dataclass(frozen=True)
class StairwayStrip:
    """Discretized strip: graph plus integer coordinates per vertex."""

    graph: Graph
    points: tuple[tuple[int, int], ...]


def _raster_half_circle(radius: int, upper: bool) -> Iterator[tuple[int, int]]:
    """Midpoint-circle raster of one half (y >= 0 or y <= 0) of a circle at 0,
    point by point; a point on an octant boundary may come twice."""
    x, y, err = radius, 0, 1 - radius
    while x >= y:
        for px, py in (
            (x, y), (y, x), (-y, x), (-x, y),
            (-x, -y), (-y, -x), (y, -x), (x, -y),
        ):
            if (py >= 0) == upper or py == 0:
                yield px, py
        y += 1
        if err < 0:
            err += 2 * y + 1
        else:
            x -= 1
            err += 2 * (y - x) + 1


def _stairway_curve(levels: int) -> Iterator[tuple[int, int]]:
    """The rasterized curve of `stairway_strip`, from the origin outward."""
    yield from ((t, 0) for t in range(0, 3))  # lead-in from the origin
    for k in range(1, levels + 1):
        r, upper = 2**k, k % 2 == 1
        yield from _raster_half_circle(r, upper)
        # Straight run from this half-circle's exit to the next one's entry.
        # Odd k exits at (-r, 0) and the next (lower) circle starts at
        # (-2r, 0); even k exits at (r, 0) heading for (2r, 0).
        sign = -1 if upper else 1
        yield from ((sign * t, 0) for t in range(r, 2 * r + 1))


def stairway_strip(
    levels: int, vertex_budget: int = DEFAULT_VERTEX_BUDGET
) -> StairwayStrip:
    """Closed 1-neighborhood of the stairway curve, as a grid graph.

    The curve: from the origin straight to (2, 0); then for k = 1..levels an
    alternating half-circle of radius 2^k centered at the origin (upper for
    odd k, lower for even k) followed by a straight run along the x-axis out
    to the next radius.  Vertices are all grid points at Chebyshev distance
    <= 1 from a rasterized curve point, in (x, y) order; edges join grid
    4-neighbors.  The basepoint "origin" is (0, 0).  The cells are counted
    as each curve point adds its neighborhood, and the budget fires at the
    first point that takes the count past it.

    Cells are int64 keys (x + reach) * width + (y + reach), sorted, so that
    key order is (x, y) order and the x + 1 and y + 1 neighbors are the keys
    `width` and 1 higher.  The curve is read in chunks that grow with the cell count, so
    a curve far past the budget is never rasterized.
    """
    if levels < 2:
        raise ValueError("need at least two levels")
    # Every cell met before the budget fires lies within 2^(top+1) + 1 of
    # the origin: the straight runs through level k hold 2^(k+1) - 2 + k
    # cells, past any budget below 2^k.
    top = min(levels, vertex_budget.bit_length())
    if top > 29:
        raise ValueError(f"stairway_strip: {levels} levels overflow int64 cell keys")
    reach = 2 ** (top + 1) + 2
    width = 2 * reach + 1
    around = np.array([dx * width + dy for dx in (-1, 0, 1) for dy in (-1, 0, 1)])
    curve = _stairway_curve(levels)
    cells = np.empty(0, dtype=np.int64)
    while chunk := list(islice(curve, 256 + len(cells) // 2)):
        xy = np.array(chunk, dtype=np.int64) + reach
        keys = (xy[:, 0] * width + xy[:, 1])[:, None] + around
        met, first = np.unique(keys, return_index=True)
        fresh = ~np.isin(met, cells, assume_unique=True)
        total = len(cells) + np.cumsum(np.bincount(first[fresh] // 9, minlength=len(chunk)))
        if total[-1] > vertex_budget:
            over = int(total[np.argmax(total > vertex_budget)])
            raise BudgetExceededError("stairway_strip", over, vertex_budget)
        cells = np.sort(np.concatenate((cells, met[fresh])), kind="stable")

    def steps(step: int) -> np.ndarray:
        """The edges (i, j) with cell j = cell i + step."""
        j = np.searchsorted(cells, cells + step)
        found = np.flatnonzero(cells[np.minimum(j, len(cells) - 1)] == cells + step)
        return np.stack((found, j[found]), axis=1)

    x, y = np.divmod(cells, width)
    points = tuple(zip((x - reach).tolist(), (y - reach).tolist()))
    origin = int(np.searchsorted(cells, reach * width + reach))
    edges = np.concatenate((steps(width), steps(1)))
    return StairwayStrip(Graph.from_edges(len(cells), edges, {"origin": origin}), points)


def norm_profile(strip: StairwayStrip, depth: int) -> VolumeProfile:
    """Volume profile of the strip under the ambient Euclidean norm.

    ball[r] counts vertices with |v|_2 <= r.  This is the subspace metric
    from the plane, the one in which the strip's spheres spike: the whole
    half-circle of scale 2^k lands in the ring (2^k, 2^k + 1].  The graph
    metric would instead see a thick path here and no spikes.
    """
    xy = np.array(strip.points, dtype=np.int64)
    counts = np.bincount(_ceil_sqrt((xy * xy).sum(axis=1)), minlength=depth + 1)[: depth + 1]
    return VolumeProfile.from_sizes(strip.graph.basepoints["origin"], counts.tolist(), depth)


def _ceil_sqrt(s: np.ndarray) -> np.ndarray:
    """The smallest integer r with s <= r^2, for each int64 0 <= s < 2^62.

    The correctly rounded float root truncates to isqrt(s) or, when s is not
    a square, to isqrt(s) + 1, so one integer step gives the ceiling.
    """
    r = np.sqrt(s).astype(np.int64)
    return r + (r * r < s)
