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
a run of consecutive layers.  The claims sandwich reads the expansion of a
middle shell the same way, as unions of its first layers, taken from the
kernel only as far as its tests read.
Layers carry their discovery order only when `product_powers` is asked
(`ordered=True`): only `ergodic.ergodic_trace` reads it, and every other
caller reads sizes and shells and skips its sorts.
Shells and set products are `KeySet`s, so the word-shell sandwich is tested
on keys; only `birth` decodes tuples, for callers that want elements.
`profile` is the identity's volume profile, read off the sizes; a word
ball (`generators.WordBall`) is the record of its powers.
Expanding only the newest elements of N_n is exhaustive when the next
factor lies inside the one before it (always, for powers of one set);
otherwise the kernel multiplies the whole of N_n.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import accumulate, chain, islice
from typing import Iterable, Sequence

from .groups import Element, GroupModel, KeySet, Layer, check_generates, expand
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
    shells and its factor disagree.  Needs k divisible by 4 and k <= n.  Both
    right sides are prefix shells of one expansion of C_{h, h+1}, so each h
    is expanded once, as far as its tests read, one h at a time.
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
    outcomes = {}
    for h, ks in middles.items():
        outcomes.update(_sandwich(sequence, *distinct, h, ks, element_budget))
    return [outcomes[pair] for pair in pairs]


def _sandwich(
    sequence: ProductSequence, unit: tuple[Element, ...], h: int, ks: set[int], element_budget: int
) -> dict[tuple[int, int], tuple[bool, bool]]:
    """The outcomes at (h + k/2, k) for each k of `ks`, from one expansion of
    the middle shell C_{h, h+1} by the factor `unit`, its key box sized for
    twice the largest k: C_{h, h+1} * U^m is the union of its layers 0..m.
    Layers are read only as a test needs them.  Forward is tested first at
    m = 3k/2 - 1, where it holds for powers of one set; U^m lies in U^(2k)
    once the identity is adjoined, so a pass there is a pass at 2k, and only
    a failure reads on to 2k.  For powers of one set, C_{h, h+1} * U^(3k/2-1)
    lies in N_(n+k), which the powers already hold within the budget."""
    steps = ((unit, 2 * max(ks)),)
    layers = expand(sequence.model, sequence.shell(h, h + 1), steps, element_budget, "set product")
    grown: list[Layer] = []

    def product(m: int) -> KeySet:  # C_{h, h+1} * U^m
        grown.extend(islice(layers, max(m + 1 - len(grown), 0)))
        return KeySet.union(grown[: m + 1], grown[0].box)

    outcomes = {}
    for k in ks:
        n = h + k // 2
        shell = sequence.shell(n, n + k)
        forward = shell <= product(3 * k // 2 - 1) or shell <= product(2 * k)
        backward = product(k // 4) <= sequence.shell(n - k, n)
        outcomes[n, k] = (forward, backward)
    return outcomes
