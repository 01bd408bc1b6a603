"""Exact product-set dynamics: |U^n|, varying factors, Folner ratios.

All sizes and ratios here are exact.  Products are one-sided
(N_{n+1} = N_n * U_{n+1}); sets are never symmetrized.  The identity is
adjoined to every factor before multiplying; that makes the sequence of
products nondecreasing.

Every expansion here is `groups.expand`, and its factors are runs
(U, count): the powers of one set are [(U, n)], varying factors one run
each.  A `ProductSequence` keeps the
kernel's birth layers (sorted keys, one key box) as the one record of the
products of its seeds N_0 = {1}: each N_n and each shell N_b minus N_a is
a run of consecutive layers.  The claims sandwich expands each middle
shell once, in the powers' own key box, and reads its verdicts off counts
of birth steps: how many elements reached by each step of the expansion
were born at each step of the powers, with no set built or compared.
Layers carry their discovery order only when `product_powers` is asked
(`ordered=True`): only `ergodic.ergodic_trace` reads it, and every other
caller reads sizes and shells and skips its sorts.
Shells and set products are `KeySet`s, and the word-shell sandwich is
tested on keys; only `birth` decodes tuples, for callers that want elements.
`profile` is the identity's volume profile, read off the sizes; a word
ball (`generators.WordBall`) is the record of its powers.
Expanding only the newest elements of N_n is exhaustive when the next
factor lies inside the one before it (always, for powers of one set);
otherwise the kernel multiplies the whole of N_n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import accumulate, chain
from typing import Callable, Iterable, Sequence

import numpy as np

from .groups import Element, GroupModel, KeySet, Layer, check_generates, expand, lookup
from .space import VolumeProfile

__all__ = [
    "ProductSequence",
    "product_powers",
    "varying_products",
    "folner_ratios",
    "product_with_powers",
    "shell_inclusion_check",
    "DEFAULT_ELEMENT_BUDGET",
]

DEFAULT_ELEMENT_BUDGET = 5_000_000


@dataclass(frozen=True, eq=False)
class ProductSequence:
    """Products N_n = N_0 * U_1 * ... * U_n (identity adjoined to factors)
    of the seeds N_0 ({1} from `product_powers` and `varying_products`).

    `layers[n]` is the kernel's layer N_n minus N_(n-1) (layer 0 the
    seeds), with its discovery order if asked for; all layers share one
    key box, and N_n is the union of layers 0..n.  `sizes[n] = |N_n|`.
    `factors` holds the runs (U, count) of `groups.expand`, each U sorted
    with the identity adjoined: the powers of one set are [(U, n)], so the
    set is held once however many steps there are.
    """

    model: GroupModel
    factors: Sequence[tuple[tuple[Element, ...], int]]
    layers: tuple[Layer, ...]

    @cached_property
    def sizes(self) -> tuple[int, ...]:
        return tuple(accumulate(map(len, self.layers)))

    @cached_property
    def birth(self) -> dict[Element, int]:
        """The first n with g in N_n, for each g, keys in discovery order
        (sorted within each layer if the layers carry none)."""
        return {g: n for n, layer in enumerate(self.layers) for g in layer.elements()}

    @property
    def steps(self) -> int:
        return len(self.layers) - 1

    def shell(self, a: int, b: int) -> KeySet:
        """N_b minus N_a, reading N_a as empty for a < 0."""
        if not 0 <= b <= self.steps:
            raise ValueError(f"step {b} outside computed range 0..{self.steps}")
        return KeySet.union(self.layers[max(a + 1, 0) : b + 1], self.layers[0].box)

    def profile(self, depth: int) -> VolumeProfile:
        """The identity's volume profile: ball[r] = |N_r|, saturating past the
        last step (for a word ball, `volume_profile` of vertex 0 on its graph)."""
        return VolumeProfile.from_sizes(0, [len(layer) for layer in self.layers], depth)


def _adjoin(model: GroupModel, factor: Iterable[Element]) -> tuple[Element, ...]:
    return tuple(sorted(set(factor) | {model.identity}))


def product_powers(
    model: GroupModel,
    generating_set: Sequence[Element] | str,
    n_max: int,
    element_budget: int = DEFAULT_ELEMENT_BUDGET,
    ordered: bool = False,
) -> ProductSequence:
    """Powers U, U^2, ..., U^n_max of a single factor, exactly; with
    `ordered`, each layer also in discovery order."""
    if n_max < 0:
        raise ValueError(f"n_max must be nonnegative, got {n_max}")
    if isinstance(generating_set, str):
        generating_set = model.generating_set(generating_set)
    check_generates(model, generating_set)
    factors = ((_adjoin(model, generating_set), n_max),)
    layers = expand(model, [model.identity], factors, element_budget, "product expansion", ordered)
    return ProductSequence(model, factors, tuple(layers))


def varying_products(
    model: GroupModel,
    factors: Sequence[Sequence[Element]],
    inner: Sequence[Element],
    outer: Sequence[Element],
    element_budget: int = DEFAULT_ELEMENT_BUDGET,
) -> ProductSequence:
    """Products of varying factors pinched between two certified sets.

    Every factor must contain `inner` and be contained in `outer` (inner
    generates), all three with the identity adjoined, as the products
    take them; violations name the offending factor.  This is the
    sandwich that makes the product sequence behave like powers of a fixed
    set for growth purposes.  An element of the wrong arity in `outer` or a
    factor fails first, as in `inner`.
    """
    check_generates(model, inner)
    model.check_arity(chain(outer, *factors))
    factors = tuple((_adjoin(model, f), 1) for f in factors)
    inner_set, outer_set = set(_adjoin(model, inner)), set(_adjoin(model, outer))
    if not inner_set <= outer_set:
        raise ValueError("inner certificate set must lie inside the outer one")
    for i, (factor, _) in enumerate(factors):
        if missing := inner_set.difference(factor):
            raise ValueError(f"factor {i} is missing certified elements {sorted(missing)}")
        if excess := set(factor) - outer_set:
            raise ValueError(f"factor {i} exceeds the outer certificate by {sorted(excess)}")
    layers = expand(model, [model.identity], factors, element_budget, "product expansion")
    return ProductSequence(model, factors, tuple(layers))


def folner_ratios(sequence: ProductSequence) -> tuple[Fraction, ...]:
    """Exact boundary ratios (|N_(n+1)| - |N_n|) / |N_n| for n = 0..steps-1."""
    sizes = sequence.sizes
    return tuple(
        Fraction(sizes[n + 1] - sizes[n], sizes[n]) for n in range(len(sizes) - 1)
    )


def product_with_powers(
    model: GroupModel,
    base: Iterable[Element] | KeySet,
    generating_set: Sequence[Element],
    m: int,
    element_budget: int = DEFAULT_ELEMENT_BUDGET,
) -> KeySet:
    """The set base * U^m with the identity adjoined to U, via m expansions."""
    layers = list(expand(model, base, [(generating_set, m)], element_budget, "set product"))
    return KeySet.union(layers, layers[0].box)


def shell_inclusion_check(
    sequence: ProductSequence,
    pairs: Iterable[tuple[int, int]],
    element_budget: int = DEFAULT_ELEMENT_BUDGET,
) -> list[tuple[bool, bool]]:
    """Exact word-shell sandwich at width k around radius n, for each (n, k)
    of `pairs`: (forward, backward) per pair, in their order.

    `sequence` holds the powers N_m of one (identity-adjoined) generating
    set U, at least up to m = n + k.  With C_{a,b} = N_b minus N_a and
    h = n - k/2:

        forward:   C_{n, n+k}  is contained in  C_{h, h+1} * U^(2k)
        backward:  C_{h, h+1} * U^(k/4)  is contained in  C_{n-k, n}

    Both follow from cutting geodesic words at length h + 1.  Forward holds
    for powers of any U: g in C_{n, n+k} has a shortest word of length at
    most n + k; its prefix of length h + 1 lies in C_{h, h+1} and the rest
    has length at most 3k/2 - 1 < 2k.  So forward is tested at 3k/2 - 1
    steps first, and at 2k only if that fails, which means the sequence's
    shells and its factor disagree.  Needs k divisible by 4 and k <= n.
    Both right sides are prefixes of one expansion of C_{h, h+1}, so each h
    is expanded once, one h at a time, and both verdicts are read off the
    birth steps in the sequence of the elements it reaches (`_sandwich`),
    which are tabulated once here (`_birth_steps`).
    """
    pairs = list(pairs)
    middles: dict[int, set[int]] = {}  # h -> the widths k with n - k/2 = h
    for n, k in pairs:
        if k < 4 or k % 4 != 0:
            raise ValueError("width k must be a positive multiple of 4")
        if k > n:
            raise ValueError("width k must not exceed the radius n")
        if n + k > sequence.steps:
            raise ValueError(f"needs the powers up to n + k = {n + k}, got {sequence.steps}")
        middles.setdefault(n - k // 2, set()).add(k)
    distinct = {factor for factor, count in sequence.factors if count}
    if len(distinct) != 1:
        raise ValueError("needs the powers of one generating set")
    born = _birth_steps(sequence, element_budget)
    outcomes = {}
    for h, ks in middles.items():
        outcomes.update(_sandwich(sequence, *distinct, h, ks, element_budget, born))
    return [outcomes[pair] for pair in pairs]


def _sandwich(
    sequence: ProductSequence,
    unit: tuple[Element, ...],
    h: int,
    ks: set[int],
    element_budget: int,
    born: Callable[[np.ndarray], np.ndarray],
) -> dict[tuple[int, int], tuple[bool, bool]]:
    """The outcomes at (h + k/2, k) for each k of `ks`, from one expansion of
    the middle shell C_{h, h+1} by the factor `unit` to 3k/2 - 1 steps for
    the largest k.  Its layers are disjoint and C_{h, h+1} * U^m is the
    union of layers 0..m, so one table answers every test: row m, column b,
    the elements reached by step m that are born at step b of the sequence
    (`born`, from `_birth_steps`), b = steps + 1 outside N_steps.  Forward
    at m holds when those with n < b <= n + k number |C_{n, n+k}|, backward
    when all of those reached by step k/4 have n - k < b <= n.  For powers
    of one set, C_{h, h+1} * U^m lies in N_(h+1+m) with h + 1 + m <= n + k,
    within the powers' key box (`groups.expand` keeps it) and their budget.
    U^m lies in U^(2k) once the identity is adjoined, so a forward pass at
    3k/2 - 1 is a pass at 2k, and only a failure reads on to 2k, in a
    longer expansion if the table stops short of it; keys of a box other
    than the sequence's are re-encoded into it."""
    sizes, reach, box = sequence.sizes, 3 * max(ks) // 2 - 1, sequence.layers[0].box
    columns = sequence.steps + 2

    def reached(m: int) -> np.ndarray:  # the table for C_{h, h+1} * U^j, j = 0..m
        layers = list(expand(sequence.model, sequence.layers[h + 1], ((unit, m),), element_budget, "set product"))
        keys = np.concatenate([l.keys if l.box == box else box.keys_of(l.box.decode(l.keys)) for l in layers])
        rows = np.repeat(np.arange(0, len(layers) * columns, columns), list(map(len, layers)))
        table = np.bincount(rows + born(keys), minlength=len(layers) * columns)
        return table.reshape(len(layers), columns).cumsum(axis=0)

    table = reached(reach)
    outcomes = {}
    for k in ks:
        n = h + k // 2
        shell, size = slice(n + 1, n + k + 1), sizes[n + k] - sizes[n]
        forward = table[3 * k // 2 - 1, shell].sum() == size
        if not forward:
            forward = (table if 2 * k <= reach else reached(2 * k))[2 * k, shell].sum() == size
        early = table[k // 4]
        outcomes[n, k] = (bool(forward), bool(early[n - k + 1 : n + 1].sum() == early.sum()))
    return outcomes


def _birth_steps(sequence: ProductSequence, element_budget: int) -> Callable[[np.ndarray], np.ndarray]:
    """The function from keys of the sequence's box (-1 for an element
    outside it) to their birth steps, the first n with the element in N_n,
    and steps + 1 outside N_steps.  Where the box holds a map within the
    budget, as it does for the kernel's seen map (`KeyBox.holds_map`), a
    map of the box's cells holds the steps, in the narrowest unsigned type,
    and a call is one gather; key -1 reads its extra last cell.  Otherwise the
    sorted keys of N_steps and their steps are searched, one `lookup`."""
    layers, outside, box = sequence.layers, sequence.steps + 1, sequence.layers[0].box
    if box.holds_map(element_budget):
        steps = np.full(math.prod(box.widths) + 1, outside, dtype=np.min_scalar_type(outside))
        for n, layer in enumerate(layers):
            steps[layer.keys] = n
        return steps.__getitem__
    keys = np.concatenate([layer.keys for layer in layers])
    rank = np.argsort(keys, kind="stable")  # the layers are sorted runs, which it merges
    ranked, births = keys[rank], np.repeat(np.arange(len(layers)), list(map(len, layers)))[rank]

    def search(queries: np.ndarray) -> np.ndarray:
        found = np.full(len(queries), outside)
        hit, position = lookup(ranked, queries)
        found[hit] = births[position]
        return found

    return search

