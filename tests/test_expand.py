"""
Differential tests of the layered expansion kernel `groups.expand`.

The pure-Python frontier loop of `tuple_law` is the reference: it walks the
sources in discovery order and the sorted factor (identity adjoined), and
records every product not seen before.  It expands only the newest layer
when a factor lies inside the one before it, and all of N_n otherwise.
A direct set product (`_brute_products`) checks the reference itself.

Core claims, on seeded random small generating sets in Z^1, Z^2, Z^3 and
H3, symmetric and one-sided, from the identity and from far-off seed sets:
    - the kernel's layers are the reference's, as sets, sorted, and in
      discovery order when asked for
    - `product_powers` and `varying_products` (nested and non-nested
      factors) reproduce the reference birth map, insertion order included
    - `product_with_powers` agrees with the reference loop, and the first
      ball U^m of `product_powers` that holds a set of targets is the
      reference's
    - `check_generates`, exact for both models, agrees with a reference
      search deep enough for these small sets: it reaches every generator
      inverse (and, in H3, (0, 0, +-1)) exactly for the accepted ones
    - budget errors carry the same stage, count and layer as the reference
    - a key box too large for int64 raises ValueError before any array
      is allocated
"""

import random

import numpy as np
import pytest

from folnerlab import groups
from folnerlab.errors import BudgetExceededError, NotGeneratingError
from folnerlab.groups import KeyBox, KeySet, check_generates, expand, heisenberg_model, zd_model
from folnerlab.products import DEFAULT_ELEMENT_BUDGET, product_powers, product_with_powers, varying_products
from tuple_law import multiply, reference_birth, reference_layers


# -- Oracles -----------------------------------------------------------------


def _reference_search(model, gens, targets, depth):
    """(smallest m <= depth with targets in U^m, or None)."""
    missing = set(targets)
    for m, layer in enumerate(reference_layers(model, [model.identity], [gens] * depth)):
        missing -= set(layer)
        if not missing:
            return m
    return None


def _brute_products(model, seeds, factors):
    """N_0 = seeds, N_n = N_(n-1) * (F_n + identity), as plain sets."""
    sets = [set(seeds)]
    for factor in factors:
        steps = set(factor) | {model.identity}
        sets.append({multiply(model, g, s) for g in sets[-1] for s in steps})
    return sets


# -- Random inputs -----------------------------------------------------------

MODELS = {
    "Z1": (zd_model(1), 3, 0),
    "Z2": (zd_model(2), 2, 0),
    "Z3": (zd_model(3), 1, 0),
    "H3": (heisenberg_model(), 1, 1),
}


def _random_set(model, rng, size, span, z_span):
    out = set()
    while len(out) < size:
        g = [rng.randint(-span, span) for _ in range(model.rank)]
        if z_span:
            g[2] = rng.randint(-z_span, z_span)
        out.add(tuple(g))
    return sorted(out)


def _generating_sets(name, seed, count):
    """Seeded random sets that generate as semigroups, alternately closed
    under inversion and left one-sided."""
    model, span, z_span = MODELS[name]
    rng = random.Random(f"{name}/{seed}")
    found = []
    while len(found) < count:
        gens = _random_set(model, rng, rng.randint(2, 4), span, z_span)
        if len(found) % 2 == 0:
            gens = list(model.symmetrize(gens))
        try:
            check_generates(model, gens)
        except NotGeneratingError:
            continue
        found.append(gens)
    return found


def _cases(count=3):
    return [
        pytest.param(name, gens, id=f"{name}-{k}")
        for name in MODELS
        for k, gens in enumerate(_generating_sets(name, 0, count))
    ]


STEPS = {"Z1": 12, "Z2": 7, "Z3": 4, "H3": 5}


# -- Tests -------------------------------------------------------------------


class TestKernelLayers:
    @pytest.mark.parametrize("name,gens", _cases())
    @pytest.mark.parametrize("ordered", [False, True])
    def test_layers_match_reference(self, name, gens, ordered):
        model = MODELS[name][0]
        factors = [gens] * STEPS[name]
        expected = list(reference_layers(model, [model.identity], factors))
        got = list(expand(model, [model.identity], factors, DEFAULT_ELEMENT_BUDGET, "test", ordered))
        assert len(got) == len(expected)
        for layer, reference in zip(got, expected):
            assert layer.box.elements(layer.keys) == sorted(reference)
            assert layer.elements() == (reference if ordered else sorted(reference))

    @pytest.mark.parametrize("name,gens", _cases(2))
    def test_far_off_seed_sets(self, name, gens):
        model = MODELS[name][0]
        rng = random.Random(name)
        seeds = [
            tuple(rng.choice([-1, 1]) * rng.randint(10, 14) for _ in range(model.rank))
            for _ in range(5)
        ]
        seeds.append(seeds[0])  # a repeated seed is one element
        factors = [gens] * 3
        expected = list(reference_layers(model, seeds, factors))
        got = [layer.elements() for layer in expand(model, seeds, factors, DEFAULT_ELEMENT_BUDGET, "test", True)]
        assert got == expected
        brute = _brute_products(model, seeds, factors)
        assert [set().union(*got[: n + 1]) for n in range(4)] == brute

    def test_the_cases_include_both_kinds_of_sets(self):
        kinds = set()
        for name, gens in (case.values for case in _cases()):
            model = MODELS[name][0]
            kinds.add(set(gens) - {model.identity} == set(model.symmetrize(gens)))
        assert kinds == {True, False}


class TestProductSequences:
    @pytest.mark.parametrize("name,gens", _cases())
    def test_powers_birth_matches_reference(self, name, gens):
        model = MODELS[name][0]
        n = STEPS[name]
        seq = product_powers(model, gens, n)
        expected = reference_birth(model, [gens] * n)
        assert list(seq.birth.items()) == list(expected.items())
        brute = _brute_products(model, [model.identity], [gens] * n)
        assert seq.sizes == tuple(len(s) for s in brute)

    @pytest.mark.parametrize("name", sorted(MODELS))
    @pytest.mark.parametrize("nested", [True, False])
    def test_varying_factors_match_reference(self, name, nested):
        model, span, z_span = MODELS[name]
        rng = random.Random(f"varying/{name}/{nested}")
        inner = _generating_sets(name, 1, 1)[0]
        extras = [g for g in _random_set(model, rng, 6, span + 1, z_span) if g not in inner]
        outer = inner + extras
        # Nested: F_1 holds all extras and each later factor drops some.
        # Otherwise: independent random subsets, with one growth at least.
        if nested:
            kept = [extras[: len(extras) - i // 2] for i in range(2 * len(extras) + 1)]
        else:
            kept = [rng.sample(extras, rng.randint(0, len(extras))) for _ in range(5)]
            kept.insert(1, extras)
            kept[0] = extras[:1]
        factors = [inner + extra for extra in kept][: STEPS[name]]
        seq = varying_products(model, factors, inner, outer)
        expected = reference_birth(model, factors)
        assert list(seq.birth.items()) == list(expected.items())
        brute = _brute_products(model, [model.identity], factors)
        assert [frozenset(seq.shell(-1, n).elements()) for n in range(len(factors) + 1)] == brute
        grows = any(not set(b) <= set(a) for a, b in zip(factors, factors[1:]))
        assert grows != nested


class TestSearchAndSetProducts:
    @pytest.mark.parametrize("name,gens", _cases())
    def test_set_product_from_far_seeds(self, name, gens):
        model = MODELS[name][0]
        rng = random.Random(f"pwp/{name}")
        base = [
            tuple([rng.randint(10, 13)] + [rng.randint(-3, 3) for _ in range(model.rank - 1)])
            for _ in range(4)
        ]
        m = 3
        expected = set().union(*reference_layers(model, base, [gens] * m))
        assert set(product_with_powers(model, base, gens, m).elements()) == expected

    @pytest.mark.parametrize("name,gens", _cases())
    def test_containment_matches_reference(self, name, gens):
        # Targets kept in a key box of their own, tested against the balls
        # U^m of `product_powers` by the cross-box subset test.
        model = MODELS[name][0]
        rng = random.Random(f"contain/{name}")
        ball = set().union(*reference_layers(model, [model.identity], [gens] * 4))
        targets = rng.sample(sorted(ball), 3)
        far = [tuple(40 for _ in range(model.rank))]
        seq = product_powers(model, gens, 4)

        def first_ball_holding(elements):
            offsets = tuple(max(abs(g[c]) for g in elements) for c in range(model.rank))
            box = KeyBox(offsets, tuple(2 * o + 1 for o in offsets))
            wanted = KeySet(np.sort(box.encode(np.array(elements))), box)
            return next((m for m in range(seq.steps + 1) if wanted <= seq.shell(-1, m)), None)

        assert first_ball_holding(targets) == _reference_search(model, gens, targets, 4)
        assert first_ball_holding(far) is None

    @pytest.mark.parametrize("name", sorted(MODELS))
    def test_generation_check_matches_reference(self, name):
        # The exact criterion against a reference search deep enough for
        # these small sets: the deepest accepted one needs 10 factors in Z^d
        # and 16 in H3.
        model, span, z_span = MODELS[name]
        rng = random.Random(f"check/{name}")
        samples = _generating_sets(name, 2, 4) + [
            _random_set(model, rng, rng.randint(2, model.rank + 3), span, z_span)
            for _ in range(30)
        ]
        verdicts = []
        for gens in samples:
            try:
                check_generates(model, gens)
                ok = True
            except NotGeneratingError as exc:
                if "span" in str(exc):
                    continue  # rejected by the span test
                ok = False
            targets = {model.invert(g) for g in gens if g != model.identity}
            if model.rank == 3:
                targets |= {(0, 0, 1), (0, 0, -1)}
            assert ok == (_reference_search(model, gens, targets, 16) is not None), gens
            verdicts.append(ok)
        assert set(verdicts) == {True, False}


class TestBudgets:
    @pytest.mark.parametrize("budget", [4, 9, 30, 77, 150])
    def test_stage_count_and_layer_match_reference(self, budget):
        model = heisenberg_model()
        gens = [(1, 0, 0), (0, 1, 0), (-1, -1, 0), (0, 0, 0)]
        cases = [
            (
                "product expansion",
                lambda: product_powers(model, gens, 8, element_budget=budget),
                lambda: reference_birth(model, [gens] * 8, budget, "product expansion"),
            ),
            (
                "set product",
                lambda: product_with_powers(model, [(10, 2, 0), (11, 0, 3)], gens, 8, budget),
                lambda: list(reference_layers(model, [(10, 2, 0), (11, 0, 3)], [gens] * 8, budget, "set product")),
            ),
        ]
        for stage, kernel, reference in cases:
            with pytest.raises(BudgetExceededError) as expected:
                reference()
            with pytest.raises(BudgetExceededError) as got:
                kernel()
            assert (got.value.stage, got.value.reached, got.value.layer) == (
                stage,
                expected.value.reached,
                expected.value.layer,
            )


class TestKeyBox:
    def test_overflow_is_rejected_before_any_array(self, monkeypatch):
        model = zd_model(2)
        huge = [(2**40, 0), (0, 1), (-1, -1)]
        # Any numpy call would now fail with another error type.
        monkeypatch.setattr(groups, "np", None)
        with pytest.raises(ValueError, match="set product: .* too many for int64 keys"):
            product_with_powers(model, [(0, 0)], huge, 2**12)
        with pytest.raises(ValueError, match="test: .* too many for int64 keys"):
            next(expand(model, [(2**62, 0)], [[(1, 0)]], DEFAULT_ELEMENT_BUDGET, "test"))

    def test_the_largest_box_that_fits_is_exact(self):
        # Offsets 2^30 and 2^31 - 2, so 2^63 - 2^31 - 3 cells: the corner
        # keys come within 2^32 of the int64 limit.
        model = zd_model(2)
        a, b = 2**30 - 1, 2**31 - 3
        seeds = [(a, b), (-a, -b)]
        layers = list(expand(model, seeds, [[(1, 0), (0, 1)]], DEFAULT_ELEMENT_BUDGET, "test", True))
        assert layers[0].elements() == seeds
        assert layers[1].elements() == [(a, b + 1), (a + 1, b), (-a, 1 - b), (1 - a, -b)]
        assert layers[1].keys[-1] > 2**63 - 2**33
        assert np.all(np.diff(layers[1].keys) > 0)
