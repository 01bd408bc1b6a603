"""Concrete group models with exact integer-tuple elements, and the one
layered expansion kernel every product and ball in folnerlab uses.

A `GroupModel` is a pattern group: the unitriangular integer matrices
I + sum a_ij E_ij over a closed pattern of positions i < j, encoded as the
tuples of their entries.  Z^d is the first row of UT_(d+1)(Z) and the
discrete Heisenberg group H3(Z) is UT_3(Z), encoded as (x, y, z) with

    (x, y, z) * (x', y', z') = (x + x', y + y', z + z' + x * y').

One law, the matrix product, written once, serves every model:
`multiply_rows` applies it to int64 arrays of elements; `invert` (on
tuples) serves symmetrization and `expand`'s test for a factor closed
under inversion, and `reach` bounds the coordinates of products.  With
them, `expand` computes the birth layers of N_0 = seeds,
N_n = N_(n-1) * (F_n with the identity adjoined).
Its factors come as runs (F, count), so the powers U^n of one set are the
one run (U, n) and the step count enters only through `reach`.  Elements
are packed into int64 keys over a box that `reach` bounds (`KeyBox`), and
each layer is the sorted set of products not reached before.  The law
also acts on keys: a key is affine in the coordinates and g -> g * s is
affine in g, so key(g * s) = key(g) + key(s) - key(1) plus slopes times
coordinates of g, read off `multiply_rows`; `step_images` computes the
shifts and slopes of a factor once, as a step plan, and `expand` builds
one plan per distinct factor.  A product is new unless the seen map, a
bool map over the box that marks every key born so far, holds it; a box
of more than 8 cells per key of the budget gets no map, and there a
product is new unless a sorted older array holds it (the last two layers
for a symmetric factor, else the union of all layers), which `common`
tests by searching the shorter of the two into the longer.  A `KeySet` is
a finite set in the same representation, sorted keys in one box, with a
subset test across boxes.  Word balls (`generators.word_ball`), product
sequences and set products (`products`) are all read off these layers;
tuples are decoded only where a caller asks for elements.  Named
generating sets are carried on the model; all contain the identity so
that powers U^n are nondecreasing.  `check_generates` verifies that a
finite set generates the whole group *as a semigroup* (inverses must be
reachable as products), which is the right notion for one-sided product
sets.  It is exact for Z^d and H3 and expands nothing: it decides on the
abelianization, the first `abelian_rank` coordinates, by
integer row reduction and, for a one-sided set, one exact linear program.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from collections.abc import Sequence
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple

import numpy as np

from .errors import BudgetExceededError, NotGeneratingError

__all__ = [
    "GroupModel",
    "zd_model",
    "MAX_ZD_RANK",
    "heisenberg_model",
    "KeyBox",
    "Layer",
    "KeySet",
    "expand",
    "step_images",
    "lookup",
    "common",
    "check_generates",
]

Element = tuple[int, ...]


@dataclass(frozen=True)
class GroupModel:
    """The pattern group I + sum a_ij E_ij, its elements the tuples of
    entries at `pattern`'s positions (i, j), i < j, which are closed under
    (i, k), (k, j) => (i, j) and list first those that are no such product.
    Z^d is ((0, 1), ..., (0, d)) and H3 ((0, 1), (1, 2), (0, 2)), (x, y, z)."""

    name: str
    pattern: tuple[tuple[int, int], ...]
    generating_sets: Mapping[str, tuple[Element, ...]] = field(default_factory=dict)

    @cached_property
    def _terms(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """Per coordinate (i, j), the coordinates ((i, k), (k, j)) of each
        product term, found once per model."""
        index = {p: c for c, p in enumerate(self.pattern)}
        return tuple(
            tuple((index[i, k], index[k, j]) for k in range(i + 1, j) if {(i, k), (k, j)} <= index.keys())
            for i, j in self.pattern
        )

    @property
    def rank(self) -> int:  # tuple length of encoded elements
        return len(self.pattern)

    @property
    def identity(self) -> Element:
        return (0,) * self.rank

    @property
    def abelian_rank(self) -> int:
        """The rank k of the abelianization, the first k coordinates: d for Z^d, 2 for H3."""
        return sum(not terms for terms in self._terms)

    def multiply_rows(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """`_multiply` on arrays whose last axis holds coordinates,
        broadcasting over the others."""
        return np.stack(self._multiply(np.moveaxis(a, -1, 0), np.moveaxis(b, -1, 0)), axis=-1)

    def _multiply(self, a: Sequence, b: Sequence) -> tuple:
        """The group law, c_ij = a_ij + b_ij + sum_k a_ik * b_kj, on tuples
        of Python ints (exact, as `reach` needs) or of per-coordinate arrays."""
        return tuple(x + y + sum(a[p] * b[q] for p, q in terms) for x, y, terms in zip(a, b, self._terms))

    def invert(self, g: Element) -> Element:
        """The h with g * h = 1, solved by increasing j - i: each product
        term g_ik * h_kj of coordinate (i, j) has j - k < j - i."""
        h = [0] * self.rank
        for c in sorted(range(self.rank), key=lambda c: self.pattern[c][1] - self.pattern[c][0]):
            h[c] = -g[c] - sum(g[left] * h[right] for left, right in self._terms[c])
        return tuple(h)

    def reach(self, seed_max: Sequence[int], step_max: Sequence[int], n: int) -> Element:
        """Per coordinate, a bound on |coordinate| over all products
        s * g_1 * ... * g_m, m <= n, where s and every g_i are bounded
        coordinatewise by seed_max and step_max: the entries of
        (I + |S|) (I + |N|)^n, |S| and |N| the matrices of the bounds.  By
        the triangle inequality they bound the m = n product, and they grow
        with n.  Binary powering on Python ints, which allocates no array,
        gives s + n * m on Z^d, and z <= s_z + n * m_z + n * s_x * m_y +
        C(n, 2) * m_x * m_y on H3.
        """
        power, square = self.identity, tuple(step_max)
        while n:
            if n & 1:
                power = self._multiply(power, square)
            square, n = self._multiply(square, square), n >> 1
        return self._multiply(seed_max, power)

    def generating_set(self, label: str) -> tuple[Element, ...]:
        try:
            return self.generating_sets[label]
        except KeyError:
            known = ", ".join(sorted(self.generating_sets))
            raise KeyError(f"unknown generating set {label!r} (known: {known})")

    def symmetrize(self, elements: Iterable[Element]) -> tuple[Element, ...]:
        """U union U^-1, identity removed, sorted: the edge set of a word-metric graph."""
        out = set()
        for g in elements:
            out.add(g)
            out.add(self.invert(g))
        out.discard(self.identity)
        return tuple(sorted(out))

    def check_arity(self, elements: Iterable[Element]) -> None:
        """Raise NotGeneratingError at the first element whose length is not `rank`."""
        for g in elements:
            if len(g) != self.rank:
                raise NotGeneratingError(f"{self.name}: element {g} has wrong arity")


_KEY_CELLS = 2**63  # the largest key box `expand` accepts, in cells
# A seen map takes one byte per cell of a key box, and a key eight, so a box
# of at most 8 cells per key of the budget gets one (`expand`).
_MAP_CELLS_PER_KEY = 8
# The largest rank whose radius-1 word ball has int64 keys: `word_ball` sizes
# its box for radius + 1 = 2 unit steps, so each coordinate takes 5 values.
_UNIT_WIDTH = 2 * GroupModel("Z^1", ((0, 1),)).reach((0,), (1,), 2)[0] + 1
MAX_ZD_RANK = max(d for d in range(64) if _UNIT_WIDTH**d <= _KEY_CELLS)


def zd_model(d: int) -> GroupModel:
    """The free abelian group Z^d, 1 <= d <= MAX_ZD_RANK, with standard,
    diagonal and skew generating sets."""
    if d < 1:
        raise ValueError("dimension must be positive")
    if d > MAX_ZD_RANK:
        raise ValueError(
            f"dimension must be at most {MAX_ZD_RANK}, the largest whose radius-1 "
            f"word ball has int64 keys, got {d}"
        )
    zero = (0,) * d
    unit = lambda i, sign: tuple(sign if j == i else 0 for j in range(d))
    standard = (zero,) + tuple(unit(i, sign) for sign in (1, -1) for i in range(d))
    sets: dict[str, tuple[Element, ...]] = {"standard": tuple(sorted(standard))}
    if d == 2:
        # "diagonal" extends the standard set by the two diagonal steps;
        # "skew" is non-symmetric but still generates as a semigroup.
        diag = standard + ((1, 1), (-1, -1))
        sets["diagonal"] = tuple(sorted(diag))
        sets["skew"] = ((0, 0), (1, 0), (0, 1), (-1, -1))
    return GroupModel(f"Z^{d}", tuple((0, j) for j in range(1, d + 1)), sets)


def heisenberg_model() -> GroupModel:
    """Discrete Heisenberg group; the standard set is {1, x^(+-1), y^(+-1)}."""
    standard = ((0, 0, 0), (1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0))
    return GroupModel("H3(Z)", ((0, 1), (1, 2), (0, 2)), {"standard": tuple(sorted(standard))})


class KeyBox(NamedTuple):
    """The integer points with |coordinate c| <= offsets[c], as int64 keys.

    A key writes an element's coordinates, shifted by `offsets`, as digits
    of the mixed radix `widths` (2 * offset + 1 each), most significant
    first, so sorted keys are sorted tuples.
    """

    offsets: tuple[int, ...]
    widths: tuple[int, ...]

    def encode(self, rows: np.ndarray) -> np.ndarray:
        """Keys of the elements along the last axis of `rows`."""
        keys = np.zeros(rows.shape[:-1], dtype=np.int64)
        for c, (offset, width) in enumerate(zip(self.offsets, self.widths)):
            keys *= width
            keys += rows[..., c] + offset
        return keys

    def decode(self, keys: np.ndarray) -> np.ndarray:
        """Inverse of `encode`."""
        rows = np.empty(keys.shape + (len(self.widths),), dtype=np.int64)
        rest = keys
        for c in reversed(range(len(self.widths))):
            rest, rows[..., c] = np.divmod(rest, self.widths[c])
            rows[..., c] -= self.offsets[c]
        return rows

    def elements(self, keys: np.ndarray) -> list[Element]:
        """The elements of `keys` as tuples, in the same order."""
        return list(zip(*self.decode(keys).T.tolist()))

    def keys_of(self, rows: np.ndarray) -> np.ndarray:
        """`encode`, with -1, a key no set holds, for rows outside the box."""
        inside = np.all(np.abs(rows) <= self.offsets, axis=-1)
        keys = self.encode(rows * inside[..., None])
        keys[~inside] = -1
        return keys


def step_images(
    model: GroupModel, box: KeyBox, steps: Sequence[Element]
) -> Callable[[np.ndarray], np.ndarray]:
    """The step plan of `steps`: a function of keys whose row j holds the
    keys of g * steps[j] for the elements g of the keys.

    Keys are affine in the coordinates, and so is g -> g * s in any
    pattern group: (g * s)_ij = g_ij + s_ij + sum_k g_ik * s_kj.  So
    key(g * s) = key(g) + key(s) - key(1) + sum_c slope[s, c] * g_c, with
    the slopes read off `multiply_rows` at the unit vectors.  The plan
    holds the shifts key(s) - key(1) and the nonzero slope columns, so a
    call decodes only coordinates with a slope (x in H3).  This is the key
    g * s encodes to, exact when g * s lies in the box.  A product term
    g_ik of coordinate (i, j) has k - i < j - i, so where a pattern lists
    its positions by increasing j - i, as in Z^d and H3, each slope sits on
    an earlier coordinate, right multiplication keeps the lexicographic
    order, and sorted keys give sorted rows, which makes later sorts cheap.
    """
    rank = len(box.widths)
    strides = np.cumprod((1,) + box.widths[:0:-1])[::-1]
    unit = np.eye(rank, dtype=np.int64)
    shifts = np.array(steps, dtype=np.int64).reshape(len(steps), rank)
    slopes = (model.multiply_rows(unit, shifts[:, None]) - unit - shifts[:, None]) @ strides
    moved = [(c, slopes[:, c, None]) for c in np.flatnonzero(slopes.any(axis=0))]
    shifts = (shifts @ strides)[:, None]

    def images(keys: np.ndarray) -> np.ndarray:
        out = keys + shifts
        for c, slope in moved:
            coordinate = keys // strides[c]
            if c:  # the leading digit needs no remainder
                coordinate %= box.widths[c]
            coordinate -= box.offsets[c]
            out += slope * coordinate
        return out

    return images


def lookup(ranked: np.ndarray, queries: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(indices of the queries found in the sorted keys `ranked`, their positions)."""
    if not len(ranked):
        return np.empty(0, dtype=np.intp), np.empty(0, dtype=np.intp)
    pos = ranked.searchsorted(queries)
    np.minimum(pos, len(ranked) - 1, out=pos)
    hit = (ranked[pos] == queries).nonzero()[0]
    return hit, pos[hit]


def common(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(positions in a, positions in b) of the keys that the sorted, unique
    arrays `a` and `b` share, in increasing order, found by searching the
    shorter array into the longer, whichever it is."""
    return lookup(a, b)[::-1] if len(b) < len(a) else lookup(b, a)


@dataclass(frozen=True, eq=False)
class KeySet:
    """A finite set of elements: its sorted int64 keys in one `KeyBox`."""

    keys: np.ndarray
    box: KeyBox

    @classmethod
    def union(cls, sets: Sequence[KeySet], box: KeyBox) -> KeySet:
        """The union of disjoint sets whose keys are in `box`."""
        keys = np.concatenate([s.keys for s in sets] or [np.empty(0, dtype=np.int64)])
        keys.sort(kind="stable")
        return cls(keys, box)

    def __len__(self) -> int:
        return len(self.keys)

    def __le__(self, other: KeySet) -> bool:
        """Subset test.  Keys in another box are re-encoded into `other`'s
        box; an element outside that box is outside `other`."""
        keys = self.keys
        if self.box != other.box:
            keys = other.box.keys_of(self.box.decode(keys))
        return len(lookup(other.keys, keys)[0]) == len(keys)

    def elements(self) -> list[Element]:
        """The elements as tuples, sorted."""
        return self.box.elements(self.keys)


@dataclass(frozen=True, eq=False)
class Layer(KeySet):
    """One birth layer of `expand`, with its keys in discovery order if
    they were asked for."""

    order: np.ndarray | None = None

    def elements(self) -> list[Element]:
        """The layer's elements, in discovery order when it was computed."""
        return self.box.elements(self.keys if self.order is None else self.order)


def expand(
    model: GroupModel,
    seeds: Iterable[Element] | KeySet,
    factors: Sequence[tuple[Iterable[Element], int]],
    budget: int,
    stage: str,
    ordered: bool = False,
) -> Iterator[Layer]:
    """Birth layers of N_0 = seeds, N_n = N_(n-1) * (F_n with the identity
    adjoined), one per step, computed only as they are consumed.

    `factors` are runs (F, count), count steps by the factor F: the powers
    of one set U are [(U, n)].  Layer 0 holds the seeds and layer n holds
    N_n minus N_(n-1).  Products of the newest layer suffice when F_n lies
    inside F_(n-1), since then N_(n-2) * F_n lies in N_(n-1); otherwise all
    of N_(n-1) is multiplied.  A product is new unless an earlier layer
    holds it.  Every key lies in [0, cells) of the expansion's `KeyBox`, so
    when the box has at most 8 cells per key of `budget` (its bool map then
    takes no more bytes than the int64 keys the budget allows), one map
    marks every key born so far: the fresh test is one gather before the
    candidates are sorted, for any factors.  A larger box (Z^d at high
    rank, far-off seeds) keeps sorted arrays instead, searched after the
    sort: with one fixed factor closed under inversion only the last two
    layers can hold a product (if g * s were born before layer n - 1, then
    g = (g * s) * s^-1 would be born before layer n), and otherwise the
    union of all layers is kept.  With `ordered`, each layer also comes in
    discovery order, the order in which a loop over the sources (in their
    discovery order) and then the sorted factor first meets its elements.

    Each run is normalised once and each distinct factor's step plan built
    once, so nothing is done per step before its layer.  The running total
    is checked against `budget` as each layer is added (BudgetExceededError
    naming `stage` and the layer).  The key box holds every product of
    min(steps, max(1, budget - |seeds| + 1)) factors, steps the sum of the
    counts, and no layer forms one of more.  By induction, every element of
    N_n is a seed times at most m factors, m the number of nonempty layers
    among 1..n (an empty layer adds no product, so no factor).  Layer n > 1
    is computed only while the total after layer n - 1, at least
    |seeds| + m, is within the budget, so its products take at most
    m + 1 <= budget - |seeds| + 1 factors; layer 1's take one.  The factors
    need not generate.  A box too large for int64 keys is rejected, naming
    that step count, before any array is allocated.  The seeds may come as
    tuples or as a `KeySet`.
    """
    runs = [(tuple(sorted(set(f) - {model.identity})), count) for f, count in factors if count]
    distinct = {f for f, _ in runs}
    steps = sum(count for _, count in runs)

    def maxima(elements: Sequence[Element]) -> list[int]:
        return [max((abs(g[c]) for g in elements), default=0) for c in range(model.rank)]

    if isinstance(seeds, KeySet):
        seeds = seeds.box.decode(seeds.keys)
        seed_max = np.abs(seeds).max(axis=0, initial=0).tolist()
    else:
        seeds = list(dict.fromkeys(seeds))
        seed_max = maxima(seeds)
    steps = min(steps, max(1, budget - len(seeds) + 1))
    offsets = model.reach(seed_max, maxima([s for f in distinct for s in f]), steps)
    box = KeyBox(tuple(offsets), tuple(2 * b + 1 for b in offsets))
    cells = math.prod(box.widths)
    if cells > _KEY_CELLS:
        raise ValueError(
            f"{stage}: the bounding box of {steps} steps has {cells} "
            "cells, too many for int64 keys"
        )
    symmetric = len(distinct) == 1 and set(map(model.invert, runs[0][0])) == set(runs[0][0])
    order = box.encode(np.array(seeds, dtype=np.int64).reshape(len(seeds), model.rank))
    layers = [Layer(np.sort(order), box, order if ordered else None)]
    mapped = cells <= _MAP_CELLS_PER_KEY * budget
    if mapped:  # the seen map
        seen = np.zeros(cells, dtype=bool)
        seen[layers[0].keys] = True
    else:
        seen = layers[0].keys  # the union of all layers, unless `symmetric`
    total = len(layers[0])
    yield layers[0]
    plans = {f: step_images(model, box, f) for f in distinct}  # one per distinct factor
    previous = runs[0][0] if runs else ()
    for n, factor in enumerate((f for f, count in runs for _ in range(count)), start=1):
        if factor is previous or set(factor) <= set(previous):  # the newest layer suffices
            sources = layers[-1].order if ordered else layers[-1].keys
        else:
            sources = np.concatenate([l.order if ordered else l.keys for l in layers])
        previous = factor
        if mapped:
            older = seen
        elif symmetric:
            older = [l.keys for l in layers[-2:]]
        else:
            older = [seen]
        keys, order = _new_products(plans[factor](sources), older, ordered)
        total += len(keys)
        if total > budget:
            raise BudgetExceededError(stage, total, budget, layer=n)
        if mapped:
            seen[keys] = True
        elif not symmetric:
            seen = np.insert(seen, np.searchsorted(seen, keys), keys)
        layers.append(Layer(keys, box, order))
        yield layers[-1]


def _new_products(
    grown: np.ndarray, older: np.ndarray | list[np.ndarray], ordered: bool
) -> tuple[np.ndarray, np.ndarray | None]:
    """The keys of `grown` (row j the sources times step j) that no earlier
    layer holds: sorted, and in discovery order if `ordered`.  `older` is
    the seen map of the key box, read before the candidates are sorted, or
    sorted arrays holding every earlier key that `grown` can meet, searched
    after the candidates are sorted and unique."""
    grown = grown.T if ordered else grown  # (source, step) order
    if isinstance(older, np.ndarray):
        grown, older = grown[~older[grown]], []
    else:
        grown = grown.ravel()
    if ordered:
        position = np.argsort(grown)  # copies in any order: their least is kept
        candidates, grown = grown, grown[position]
    else:
        grown.sort(kind="stable")  # the rows are sorted runs
    starts = np.ones(len(grown), dtype=bool)
    starts[1:] = grown[1:] != grown[:-1]
    starts = starts.nonzero()[0]  # the first of each run of equal keys
    keys = grown[starts]
    if ordered:  # each key's first position among the candidates
        first = np.minimum.reduceat(position, starts)
    if older:
        fresh = np.ones(len(keys), dtype=bool)
        for old in older:
            fresh[common(keys, old)[0]] = False
        keys = keys[fresh]
        if ordered:
            first = first[fresh]
    return keys, candidates[np.sort(first)] if ordered else None


def _row_reduce(rows: Iterable[Sequence[int]]) -> list[list[int]]:
    """`rows` in integer echelon form, by unimodular row operations (swaps,
    adding a multiple of one row to another), so their integer span is
    kept.  Column by column, Euclid's algorithm on the rows below the pivots
    found so far leaves one nonzero entry, the next pivot; zero rows come
    last."""
    rows = [list(r) for r in rows]
    top = 0  # the rows above `top` hold the pivots found so far
    for c in range(len(rows[0]) if rows else 0):
        while any(r[c] for r in rows[top:]):
            p = min((i for i in range(top, len(rows)) if rows[i][c]), key=lambda i: abs(rows[i][c]))
            rows[top], rows[p] = rows[p], rows[top]
            pivot = rows[top]
            for i in range(top + 1, len(rows)):
                if q := rows[i][c] // pivot[c]:
                    rows[i] = [a - q * b for a, b in zip(rows[i], pivot)]
            if not any(r[c] for r in rows[top + 1 :]):
                top += 1
    return rows


def _spans(vectors: Sequence[Sequence[int]], d: int) -> bool:
    """True iff the integer span of `vectors` is all of Z^d: their echelon
    form then has d pivots, and their product, up to sign the index of the
    span, is +-1."""
    pivots = [next(x for x in row if x) for row in _row_reduce(vectors) if any(row)]
    return len(pivots) == d and all(abs(x) == 1 for x in pivots)


def _half_space_normal(gens: list[Element], d: int) -> Element | None:
    """None if some z >= 0 has sum z_g g = -sum g over `gens`, else a
    primitive n with <g, n> >= 0 for every g (Gordan's alternative), by
    phase 1 of the simplex method on `Fraction`s with Bland's rule, which
    ends.  Row i is equation i, negated if its right side is negative; the
    artificials start as the basis and their columns hold its inverse.  At
    the end the dual w, the sum of that inverse's rows whose basic variable
    is an artificial with the negated rows' signs put back, has
    <g, w> <= 0 for every g, and <-sum g, w> is the artificials' sum: if it
    is positive (Farkas) no z exists, and n is -w.
    """
    m = len(gens)
    target = [-sum(g[i] for g in gens) for i in range(d)]
    signs = [-1 if t < 0 else 1 for t in target]
    rows = [
        [Fraction(s * g[i]) for g in gens] + [Fraction(int(i == j)) for j in range(d)] + [Fraction(s * t)]
        for i, (s, t) in enumerate(zip(signs, target))
    ]
    basis = list(range(m, m + d))
    while True:
        artificial = [r for r, b in zip(rows, basis) if b >= m]
        entering = next((j for j in range(m) if sum(r[j] for r in artificial) > 0), None)
        if entering is None:
            break
        _, _, p = min((r[-1] / r[entering], basis[i], i) for i, r in enumerate(rows) if r[entering] > 0)
        rows[p] = pivot = [x / rows[p][entering] for x in rows[p]]
        for i, r in enumerate(rows):
            if i != p and r[entering]:
                rows[i] = [a - r[entering] * b for a, b in zip(r, pivot)]
        basis[p] = entering
    if not any(r[-1] for r in artificial):
        return None
    normal = [-s * sum(r[m + i] for r in artificial) for i, s in enumerate(signs)]
    scale = math.lcm(*(x.denominator for x in normal))
    scaled = [int(x * scale) for x in normal]
    divisor = math.gcd(*scaled)
    return tuple(x // divisor for x in scaled)


def check_generates(model: GroupModel, elements: Iterable[Element]) -> None:
    """Raise NotGeneratingError unless `elements` generate the group as a semigroup.

    The test is exact and runs on the abelianization Z^k, the first
    k = `model.abelian_rank` coordinates: a finite set S generates Z^d or H3
    as a semigroup exactly when its projections generate Z^k as one.  The
    projections must span Z^k as a group, which one integer row reduction
    (`_row_reduce`) decides; if they are closed under negation they then
    generate Z^k as a semigroup too.  Otherwise one exact LP
    (`_half_space_normal`) decides Gordan's alternative: either some z >= 0
    has sum z_g g = -sum g, or some nonzero n has <g, n> >= 0 for every g.
    In the first case y_g = 1 + z_g >= 1 gives sum y_g g = 0, so each -g is
    a nonnegative rational combination of the others and, times a common
    denominator N, -g = (N - 1) g + (a nonnegative integer combination).  In
    the second no product leaves the half-space <x, n> >= 0.  A
    one-sided set like {0, e1, e2} spans Z^2 as a group but stays in the
    half-plane x + y >= 0 and is rejected, naming the primitive normal of
    that half-space.

    For H3 (k = 2) the projections decide because of the following.  Let T
    be the semigroup S generates, with projections all of Z^2, u, v in S
    with independent projections, and R in T projecting to -u - v.
      - The products u^m v^m R^m and v^m u^m R^m are central, with
        z = +-(det(u, v) / 2) m^2 + O(m), so T holds central elements of
        both signs, and T meets the center Z(H3) in a subgroup.
      - For s in S take t in T projecting to -s: s t is central, so
        s^-1 = t (s t)^-1 lies in T, and T is a group.
      - A group that maps onto Z^2 holds lifts of (1, 0) and (0, 1), whose
        commutator is (0, 0, 1); so T is all of H3.
    """
    gens = [g for g in elements if g != model.identity]
    if not gens:
        raise NotGeneratingError(f"{model.name}: no non-identity elements given")
    model.check_arity(gens)
    k = model.abelian_rank
    # Distinct projections in the order given, the LP's columns.
    proj = list(dict.fromkeys(g[:k] for g in gens))
    if not _spans(proj, k):
        raise NotGeneratingError(
            f"{model.name}: integer span of {sorted(gens)} is a proper subgroup"
            if k == model.rank
            else f"{model.name}: projections {sorted(proj)} do not span Z^{k}"
        )
    if {tuple(-x for x in p) for p in proj} == set(proj):
        return
    projected = "" if k == model.rank else f" projected to Z^{k}"
    normal = _half_space_normal(proj, k)
    if normal is not None:
        raise NotGeneratingError(
            f"{model.name}: <g, {normal}> >= 0 for every generator g{projected}, so no "
            "product leaves that half-space; set does not generate as a semigroup"
        )
