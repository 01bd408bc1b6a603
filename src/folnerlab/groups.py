"""Concrete group models with exact integer-tuple elements.

A `GroupModel` packages the group law for a finitely generated group whose
elements are encoded as integer tuples: Z^d under addition, and the discrete
Heisenberg group H3(Z) of upper-triangular integer matrices encoded as
(x, y, z) with

    (x, y, z) * (x', y', z') = (x + x', y + y', z + z' + x * y').

Each model also carries the same law vectorised over int64 arrays of
elements (`multiply_rows`) and a bound on the coordinates of short words
(`reach`), which together let `generators.word_ball` expand word balls with
numpy.  Named generating sets are carried on the model; all contain the
identity so that powers U^n are nondecreasing.  `check_generates` verifies
that a finite set generates the whole group *as a semigroup* (inverses must
be reachable as products), which is the right notion for one-sided product
sets.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .errors import NotGeneratingError

__all__ = ["GroupModel", "zd_model", "heisenberg_model", "check_generates"]

Element = tuple[int, ...]


@dataclass(frozen=True)
class GroupModel:
    name: str
    rank: int  # tuple length of encoded elements
    identity: Element
    multiply: Callable[[Element, Element], Element]
    invert: Callable[[Element], Element]
    # The law on int64 arrays whose last axis holds coordinates, broadcasting
    # over the other axes.
    multiply_rows: Callable[[np.ndarray, np.ndarray], np.ndarray]
    # reach(steps, n): per coordinate, a bound on |coordinate| over all
    # products of at most n of the steps.
    reach: Callable[[Sequence[Element], int], tuple[int, ...]]
    generating_sets: Mapping[str, tuple[Element, ...]] = field(default_factory=dict)

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


def _zd_multiply(a: Element, b: Element) -> Element:
    return tuple(x + y for x, y in zip(a, b))


def _zd_invert(a: Element) -> Element:
    return tuple(-x for x in a)


def _zd_multiply_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a + b


def _column_maxima(steps: Sequence[Element]) -> list[int]:
    return [max(abs(c) for c in column) for column in zip(*steps)]


def _zd_reach(steps: Sequence[Element], n: int) -> tuple[int, ...]:
    return tuple(n * m for m in _column_maxima(steps))


def zd_model(d: int) -> GroupModel:
    """The free abelian group Z^d with standard, diagonal and skew generating sets."""
    if d < 1:
        raise ValueError("dimension must be positive")
    zero = (0,) * d
    unit = lambda i: tuple(1 if j == i else 0 for j in range(d))
    standard = (zero,) + tuple(unit(i) for i in range(d)) + tuple(
        _zd_invert(unit(i)) for i in range(d)
    )
    sets: dict[str, tuple[Element, ...]] = {"standard": tuple(sorted(standard))}
    if d == 2:
        # "diagonal" extends the standard set by the two diagonal steps;
        # "skew" is non-symmetric but still generates as a semigroup.
        diag = standard + ((1, 1), (-1, -1))
        sets["diagonal"] = tuple(sorted(diag))
        sets["skew"] = ((0, 0), (1, 0), (0, 1), (-1, -1))
    return GroupModel(
        name=f"Z^{d}",
        rank=d,
        identity=zero,
        multiply=_zd_multiply,
        invert=_zd_invert,
        multiply_rows=_zd_multiply_rows,
        reach=_zd_reach,
        generating_sets=sets,
    )


def _heis_multiply(a: Element, b: Element) -> Element:
    return (a[0] + b[0], a[1] + b[1], a[2] + b[2] + a[0] * b[1])


def _heis_invert(a: Element) -> Element:
    return (-a[0], -a[1], -a[2] + a[0] * a[1])


def _heis_multiply_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    out = a + b
    out[..., 2] += a[..., 0] * b[..., 1]
    return out


def _heis_reach(steps: Sequence[Element], n: int) -> tuple[int, ...]:
    # After k steps |x| <= k * mx, so step k + 1 moves z by at most
    # mz + k * mx * my; summing over k < n gives the z bound.
    mx, my, mz = _column_maxima(steps)
    return (n * mx, n * my, n * mz + mx * my * n * (n - 1) // 2)


def heisenberg_model() -> GroupModel:
    """Discrete Heisenberg group; the standard set is {1, x^(+-1), y^(+-1)}."""
    standard = (
        (0, 0, 0),
        (1, 0, 0),
        (-1, 0, 0),
        (0, 1, 0),
        (0, -1, 0),
    )
    return GroupModel(
        name="H3(Z)",
        rank=3,
        identity=(0, 0, 0),
        multiply=_heis_multiply,
        invert=_heis_invert,
        multiply_rows=_heis_multiply_rows,
        reach=_heis_reach,
        generating_sets={"standard": tuple(sorted(standard))},
    )


def _integer_span_is_full(vectors: list[Element], d: int) -> bool:
    """True iff the integer span of `vectors` is all of Z^d.

    The span is Z^d exactly when the gcd of all d x d minors of the matrix of
    generators is 1.  Fine for the small d used here.
    """
    minors_gcd = 0
    for rows in combinations(vectors, d):
        minors_gcd = _gcd(minors_gcd, abs(_det([list(r) for r in rows])))
        if minors_gcd == 1:
            return True
    return minors_gcd == 1


def _gcd(a: int, b: int) -> int:
    while b:
        a, b = b, a % b
    return abs(a)


def _det(m: list[list[int]]) -> int:
    """Integer determinant by cofactor expansion (d <= 3 in practice)."""
    n = len(m)
    if n == 1:
        return m[0][0]
    if n == 2:
        return m[0][0] * m[1][1] - m[0][1] * m[1][0]
    total = 0
    for j in range(n):
        minor = [row[:j] + row[j + 1 :] for row in m[1:]]
        total += (-1) ** j * m[0][j] * _det(minor)
    return total


def _semigroup_closure_contains(
    model: GroupModel, generators: list[Element], targets: set[Element], depth: int
) -> bool:
    """Whether every target appears among products of at most `depth` generators."""
    reached = {model.identity}
    frontier = set(reached)
    missing = set(targets) - reached
    for _ in range(depth):
        if not missing:
            return True
        frontier = {
            model.multiply(a, g) for a in frontier for g in generators
        } - reached
        reached |= frontier
        missing -= frontier
    return not missing


def check_generates(
    model: GroupModel, elements: Iterable[Element], search_depth: int = 8
) -> None:
    """Raise NotGeneratingError unless `elements` generate the group as a semigroup.

    For Z^d this is an exact integer-span test followed by a bounded search
    showing each inverse is reachable as a product (a non-symmetric set like
    {0, e1, e2} spans Z^2 as a group but never reaches -e1 and is rejected).
    For the Heisenberg model the criterion is: the (x, y) projections span Z^2
    and the bounded search reaches the central element (0, 0, 1), its inverse,
    and every generator inverse.
    """
    gens = [g for g in elements if g != model.identity]
    if not gens:
        raise NotGeneratingError(f"{model.name}: no non-identity elements given")
    for g in gens:
        if len(g) != model.rank:
            raise NotGeneratingError(f"{model.name}: element {g} has wrong arity")

    if model.name.startswith("Z^"):
        d = model.rank
        if len(gens) < d or not _integer_span_is_full(gens, d):
            raise NotGeneratingError(
                f"{model.name}: integer span of {sorted(gens)} is a proper subgroup"
            )
        inverses = {model.invert(g) for g in gens}
        if not _semigroup_closure_contains(model, gens, inverses, search_depth):
            raise NotGeneratingError(
                f"{model.name}: some inverse is not a product of at most "
                f"{search_depth} generators; set does not generate as a semigroup"
            )
        return

    # Heisenberg: project to the abelianization, then search for the center.
    proj = [(g[0], g[1]) for g in gens]
    if not _integer_span_is_full(proj, 2):
        raise NotGeneratingError(
            f"{model.name}: projections {sorted(set(proj))} do not span Z^2"
        )
    targets = {(0, 0, 1), (0, 0, -1)} | {model.invert(g) for g in gens}
    if not _semigroup_closure_contains(model, gens, targets, search_depth):
        raise NotGeneratingError(
            f"{model.name}: central element or an inverse unreachable within "
            f"{search_depth} factors"
        )
