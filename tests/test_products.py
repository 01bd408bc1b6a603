"""
Tests for exact product-set dynamics.

The guiding identities, each checked against independent enumeration:
    - for the standard symmetric set in Z^d, |U^n| is the l1 ball volume
      (2n^2 + 2n + 1 in rank two)
    - with the identity adjoined, N_n equals the union of the bare j-fold
      products for j <= n
    - shells N_(n+k) minus N_n are trapped between products of the middle
      set with small powers of U, and `shell_inclusion_check` gives the
      outcomes of the frozenset implementation it replaced (kept here as
      the reference), False ones included, one pair at a time and for many
      pairs that share middle shells at once; the `claims` analysis, which
      expands each middle shell once, gives the reference's outcome at
      every (n, k) in Z^2 and H3, keeps its row order, keeps the pair
      checks' error texts and names the stage `set product` in a budget
      error
    - past the frozenset sizes, the set-union sandwich that the birth
      counts replaced (`_union_sandwich`, checked once against the
      frozensets) gives the same outcomes on the bench's claims
      configurations, and so does a run whose key box has more than 8
      cells per key of the budget, where no expansion gets a seen map
    - the subset test of key sets re-encodes across key boxes, and an
      element outside the right side's box is outside the set
    - varying products compare each factor with the inner and outer
      certificates with the identity adjoined to all three, so writing it
      out or not changes no verdict, and a real violation names its factor
      and its elements
"""

import itertools
import math
import re
from fractions import Fraction

import numpy as np
import pytest

from folnerlab import groups, products
from folnerlab.config import validate_config
from folnerlab.errors import BudgetExceededError, NotGeneratingError
from folnerlab.groups import KeyBox, KeySet, expand, heisenberg_model, zd_model
from folnerlab.products import (
    DEFAULT_ELEMENT_BUDGET,
    ProductSequence,
    folner_ratios,
    product_powers,
    product_with_powers,
    shell_inclusion_check,
    varying_products,
)
from folnerlab.runner import run_analyses
from tuple_law import multiply


def _bare_products(model, factor, n):
    """U * ... * U (j factors) for j = 0..n, without adjoining the identity."""
    out = [frozenset([model.identity])]
    for _ in range(n):
        out.append(
            frozenset(multiply(model, g, s) for g in out[-1] for s in factor)
        )
    return out


def _reference_shell_inclusion(sequence, n, k):
    """`shell_inclusion_check` on frozensets of tuples."""
    model, gens = sequence.model, sequence.factors[0][0]
    layers = [frozenset(layer.elements()) for layer in sequence.layers]

    def shell(a, b):
        return frozenset().union(*layers[max(a + 1, 0) : b + 1])

    def product(base, m):
        grown = expand(model, base, [(gens, m)], DEFAULT_ELEMENT_BUDGET, "reference")
        return frozenset(g for layer in grown for g in layer.elements())

    h = n - k // 2
    middle = shell(h, h + 1)
    return shell(n, n + k) <= product(middle, 2 * k), product(middle, k // 4) <= shell(n - k, n)


def _union_sandwich(sequence, pairs, element_budget=DEFAULT_ELEMENT_BUDGET):
    """`shell_inclusion_check` on key sets: each middle shell C_{h, h+1}
    expanded once in a box of its own, sized for twice its largest k, its
    right sides unions of the expansion's first layers, read as far as the
    tests need, and each inclusion a `KeySet` subset test across boxes."""
    middles = {}
    for n, k in pairs:
        middles.setdefault(n - k // 2, set()).add(k)
    unit = sequence.factors[0][0]
    outcomes = {}
    for h, ks in middles.items():
        layers = expand(sequence.model, sequence.shell(h, h + 1), [(unit, 2 * max(ks))], element_budget, "set product")
        grown = []

        def product(m):  # C_{h, h+1} * U^m
            grown.extend(itertools.islice(layers, max(m + 1 - len(grown), 0)))
            return KeySet.union(grown[: m + 1], grown[0].box)

        for k in ks:
            n = h + k // 2
            shell = sequence.shell(n, n + k)
            forward = shell <= product(3 * k // 2 - 1) or shell <= product(2 * k)
            outcomes[n, k] = (forward, product(k // 4) <= sequence.shell(n - k, n))
    return [outcomes[pair] for pair in pairs]


_Z2, _H3 = zd_model(2), heisenberg_model()

SANDWICH_CASES = [
    pytest.param(_Z2, "standard", 12, id="Z2-standard"),
    pytest.param(_Z2, "skew", 12, id="Z2-skew"),
    pytest.param(_Z2, [*_Z2.generating_set("standard"), (3, 1)], 12, id="Z2-standard+(3,1)"),
    pytest.param(_H3, "standard", 8, id="H3-standard"),
    pytest.param(_H3, [(0, 0, 0), (1, 0, 0), (0, 1, 0), (-1, -1, 0)], 8, id="H3-one-sided"),
]


class TestProductPowers:
    def test_z2_sizes_match_closed_form(self):
        seq = product_powers(zd_model(2), "standard", 12)
        assert seq.sizes == tuple(2 * n * n + 2 * n + 1 for n in range(13))

    def test_z3_sizes_match_enumeration(self):
        seq = product_powers(zd_model(3), "standard", 6)
        for n in range(7):
            count = sum(
                1
                for p in itertools.product(range(-n, n + 1), repeat=3)
                if sum(map(abs, p)) <= n
            )
            assert seq.sizes[n] == count

    def test_birth_encodes_every_level(self):
        seq = product_powers(zd_model(1), "standard", 5)
        assert frozenset(seq.shell(-1, 3).elements()) == frozenset((x,) for x in range(-3, 4))
        assert frozenset(seq.shell(2, 3).elements()) == frozenset([(-3,), (3,)])
        assert frozenset(seq.shell(-1, 0).elements()) == frozenset([(0,)])

    def test_level_range_errors(self):
        seq = product_powers(zd_model(1), "standard", 3)
        with pytest.raises(ValueError, match="0..3"):
            frozenset(seq.shell(-1, 4).elements())
        with pytest.raises(ValueError, match="0..3"):
            seq.shell(-2, -1)

    def test_identity_adjunction_gives_union_of_bare_products(self):
        # A factor without the identity; the computed N_n must equal the
        # union of the bare j-fold products.
        model = zd_model(2)
        factor = [(1, 0), (0, 1), (-1, -1)]
        seq = product_powers(model, factor, 6)
        bare = _bare_products(model, factor, 6)
        for n in range(7):
            union = frozenset().union(*bare[: n + 1])
            assert frozenset(seq.shell(-1, n).elements()) == union

    def test_rejects_non_generating_set(self):
        with pytest.raises(NotGeneratingError):
            product_powers(zd_model(2), [(2, 0), (-2, 0), (0, 2), (0, -2)], 4)

    def test_budget_error(self):
        with pytest.raises(BudgetExceededError, match="product expansion"):
            product_powers(zd_model(2), "standard", 50, element_budget=100)

    def test_negative_n_max_is_rejected(self):
        with pytest.raises(ValueError, match="n_max must be nonnegative, got -2"):
            product_powers(zd_model(2), "standard", -2)


class TestFolnerRatios:
    def test_z1_exact_values(self):
        seq = product_powers(zd_model(1), "standard", 4)
        assert folner_ratios(seq) == (
            Fraction(2),
            Fraction(2, 3),
            Fraction(2, 5),
            Fraction(2, 7),
        )

    def test_ratios_vanish_in_z2(self):
        seq = product_powers(zd_model(2), "standard", 48)
        ratios = folner_ratios(seq)
        assert ratios[-1] < Fraction(1, 10)
        assert all(a >= b for a, b in zip(ratios, ratios[1:]))


class TestVaryingProducts:
    def _sets(self, model):
        inner = list(model.generating_set("standard"))
        outer = inner + [(1, 1), (-1, -1), (1, -1), (-1, 1), (0, 0)]
        return inner, outer

    def test_sandwich_bounds_sizes(self):
        model = zd_model(2)
        inner, outer = self._sets(model)
        factors = [inner if n % 2 else outer for n in range(10)]
        seq = varying_products(model, factors, inner, outer)
        lo = product_powers(model, inner, 10)
        hi = product_powers(model, outer, 10)
        for n in range(11):
            assert lo.sizes[n] <= seq.sizes[n] <= hi.sizes[n]

    def test_non_nested_factors_expand_the_whole_product(self):
        # {+-1, 5} is not inside {+-1}: the new elements 3..7 come from all
        # of N_2 = [-2, 2], not only from its newest elements +-2.
        model = zd_model(1)
        inner, outer = [(1,), (-1,)], [(1,), (-1,), (5,)]
        seq = varying_products(model, [inner, inner, outer], inner, outer)
        assert seq.sizes == (1, 3, 5, 11)
        assert frozenset(seq.shell(-1, 3).elements()) == frozenset((x,) for x in range(-3, 8))

    def test_missing_certified_element_names_factor(self):
        model = zd_model(2)
        inner, outer = self._sets(model)
        bad = [e for e in inner if e != (1, 0)]
        with pytest.raises(ValueError, match="factor 2 is missing"):
            varying_products(model, [inner, inner, bad], inner, outer)

    def test_excess_element_names_factor(self):
        model = zd_model(2)
        inner, outer = self._sets(model)
        with pytest.raises(ValueError, match="factor 1 exceeds"):
            varying_products(model, [inner, inner + [(3, 3)]], inner, outer)

    def test_inner_must_lie_in_outer(self):
        model = zd_model(2)
        inner, _ = self._sets(model)
        with pytest.raises(ValueError, match="inside the outer"):
            varying_products(model, [inner], inner, [(1, 0), (-1, 0)])

    @pytest.mark.parametrize("in_factors,in_inner,in_outer", itertools.product([False, True], repeat=3))
    def test_the_identity_need_not_be_written(self, in_factors, in_inner, in_outer):
        # Factors and certificates are compared with the identity adjoined,
        # as the products take them, so writing it out changes no verdict;
        # a real violation fails either way, naming only real elements.
        model = zd_model(2)
        units = [g for g in model.generating_set("standard") if g != model.identity]

        def written(elements, identity):
            return elements + [model.identity] if identity else elements

        inner, outer = written(units, in_inner), written(units, in_outer)
        seq = varying_products(model, [written(units, in_factors)] * 3, inner, outer)
        assert seq.sizes == (1, 5, 13, 25)
        short = written([g for g in units if g != (1, 0)], in_factors)
        with pytest.raises(ValueError, match=r"^factor 1 is missing certified elements \[\(1, 0\)\]$"):
            varying_products(model, [written(units, in_factors), short], inner, outer)
        wide = written(units + [(1, 1)], in_factors)
        with pytest.raises(ValueError, match=r"^factor 1 exceeds the outer certificate by \[\(1, 1\)\]$"):
            varying_products(model, [written(units, in_factors), wide], inner, outer)


class TestProductWithPowers:
    def test_matches_power_growth_from_identity(self):
        model = zd_model(2)
        gen = model.generating_set("standard")
        got = product_with_powers(model, [model.identity], gen, 5)
        seq = product_powers(model, "standard", 5)
        assert frozenset(got.elements()) == frozenset(seq.shell(-1, 5).elements())

    def test_translate_of_ball(self):
        model = zd_model(2)
        gen = model.generating_set("standard")
        got = product_with_powers(model, [(10, 0)], gen, 2)
        assert frozenset(got.elements()) == frozenset(
            (10 + dx, dy) for dx in range(-2, 3) for dy in range(-2, 3)
            if abs(dx) + abs(dy) <= 2
        )


class TestKeySets:
    def test_subset_across_boxes(self):
        small = KeyBox((2, 2), (5, 5))
        large = KeyBox((4, 1), (9, 3))
        rows = np.array([[-2, 1], [0, 0], [2, -1]])
        left = KeySet(np.sort(small.encode(rows)), small)
        right = KeySet(np.sort(large.encode(np.array([[-2, 1], [0, 0], [1, -1], [2, -1], [4, 1]]))), large)
        assert len(left) == 3 and len(right) == 5
        assert left <= right
        assert not right <= left  # (4, 1) lies outside the small box
        # (0, 2) fits the small box but not the large one, so it is not in
        # `right`, though encoded in the large box it would read (1, -1).
        assert large.encode(np.array([0, 2])) == large.encode(np.array([1, -1]))
        outside = KeySet(np.sort(small.encode(np.array([[0, 0], [0, 2]]))), small)
        assert not outside <= right
        assert left.elements() == [(-2, 1), (0, 0), (2, -1)]

    def test_empty_set_is_inside_every_set(self):
        box = KeyBox((1,), (3,))
        empty = KeySet.union([], box)
        assert len(empty) == 0 and empty <= empty
        assert empty <= KeySet(np.array([1]), box)


class TestShellInclusions:
    @pytest.mark.parametrize("n,k", [(8, 4), (12, 4), (12, 8)])
    def test_lattice_shells(self, n, k):
        sequence = product_powers(zd_model(2), "standard", n + k)
        [(forward, backward)] = shell_inclusion_check(
            sequence, [(n, k)], element_budget=2_000_000
        )
        assert forward and backward

    def test_heisenberg_shells(self):
        sequence = product_powers(heisenberg_model(), "standard", 10 + 4)
        [(forward, backward)] = shell_inclusion_check(
            sequence, [(10, 4)], element_budget=2_000_000
        )
        assert forward and backward

    @pytest.mark.parametrize("model,gens,n_max", SANDWICH_CASES)
    def test_matches_frozenset_reference(self, model, gens, n_max):
        sequence = product_powers(model, gens, n_max + 8)
        for k in (4, 8):
            for n in range(k, n_max + 1):
                [got] = shell_inclusion_check(sequence, [(n, k)])
                assert got == _reference_shell_inclusion(sequence, n, k), (n, k)

    def test_a_one_sided_set_fails_backward(self):
        # The inverse of (3, 1) has word length 4, so g * (3, 1) can be
        # shorter than g by up to 4: for g in C_(n-2, n-1) it can fall out
        # of C_(n-4, n), and the backward inclusion fails.
        model = zd_model(2)
        gens = [*model.generating_set("standard"), (3, 1)]
        sequence = product_powers(model, gens, 16)
        outcomes = shell_inclusion_check(sequence, [(n, 4) for n in range(4, 13)])
        assert all(forward for forward, _ in outcomes)
        assert not all(backward for _, backward in outcomes)

    @pytest.mark.parametrize("model,gens,n_max", SANDWICH_CASES)
    def test_shared_middle_shells_match_frozenset_reference(self, model, gens, n_max):
        sequence = product_powers(model, gens, n_max + 8, ordered=False)
        pairs = [(n, k) for k in (8, 4) for n in range(k, n_max + 1)]
        got = shell_inclusion_check(sequence, pairs)
        assert got == [_reference_shell_inclusion(sequence, n, k) for n, k in pairs]

    def test_forward_reads_only_the_steps_it_needs(self):
        # Forward holds for any powers of one set; here the shells are the
        # diagonal set's and the factor the standard set's, so it fails.
        # Pairs (n, 4) and (n + 2, 8) share a middle shell, expanded to 16
        # steps: forward at (n, 4) may read only the first 8 of them.
        diagonal = product_powers(_Z2, "diagonal", 20, ordered=False)
        standard = product_powers(_Z2, "standard", 20, ordered=False)
        sequence = ProductSequence(_Z2, standard.factors, diagonal.layers)
        pairs = [(n, k) for k in (8, 4) for n in range(k, 12)]
        expected = [_reference_shell_inclusion(sequence, n, k) for n, k in pairs]
        assert not any(forward for forward, _ in expected)
        assert shell_inclusion_check(sequence, pairs) == expected

    def test_forward_reads_all_of_its_steps(self):
        # Shells of Z^1's {0, +-1, +-2, +-3} with the factor {0, +-1, +-2}:
        # at (n, 4) the far end of C_(n, n+4), 3n + 12, lies 15 past the
        # middle shell's 3n - 3, so forward needs all 8 of its steps.
        z1 = zd_model(1)
        wide = product_powers(z1, [(s,) for s in range(-3, 4)], 16, ordered=False)
        narrow = product_powers(z1, [(s,) for s in range(-2, 3)], 16, ordered=False)
        sequence = ProductSequence(z1, narrow.factors, wide.layers)
        pairs = [(n, 4) for n in range(4, 13)]
        expected = [_reference_shell_inclusion(sequence, n, k) for n, k in pairs]
        assert all(forward for forward, _ in expected)
        assert shell_inclusion_check(sequence, pairs) == expected

    @pytest.mark.parametrize(
        "model,gens,widths,n_max",
        [
            pytest.param(_Z2, "standard", [4, 8, 12], 20, id="Z2-standard"),
            pytest.param(_Z2, "diagonal", [4, 8, 12], 20, id="Z2-diagonal"),
            pytest.param(_Z2, "skew", [4, 8, 12], 20, id="Z2-skew"),
            pytest.param(_H3, "standard", [4, 8], 9, id="H3-n9"),
            pytest.param(_H3, "standard", [4, 8, 12], 12, id="H3-n12"),
        ],
    )
    def test_the_bench_configs_match_the_union_reference(self, model, gens, widths, n_max):
        sequence = product_powers(model, gens, n_max + max(widths))
        pairs = [(n, k) for k in widths for n in range(k, n_max + 1)]
        assert shell_inclusion_check(sequence, pairs) == _union_sandwich(sequence, pairs)

    def test_the_union_reference_matches_the_frozenset_reference(self):
        model = zd_model(2)
        sequence = product_powers(model, [*model.generating_set("standard"), (3, 1)], 20)
        pairs = [(n, k) for k in (8, 4) for n in range(k, 13)]
        expected = [_reference_shell_inclusion(sequence, n, k) for n, k in pairs]
        assert not all(backward for _, backward in expected)
        assert _union_sandwich(sequence, pairs) == expected

    def test_width_validation(self):
        sequence = product_powers(zd_model(2), "standard", 20)
        for n, k in [(8, 3), (8, 6), (8, 12), (2, 4)]:
            with pytest.raises(ValueError):
                shell_inclusion_check(sequence, [(n, k)], element_budget=10**6)

    @pytest.mark.parametrize(
        "pair,message",
        [
            ((8, 6), "width k must be a positive multiple of 4"),
            ((8, 0), "width k must be a positive multiple of 4"),
            ((8, 12), "width k must not exceed the radius n"),
            ((16, 8), "needs the powers up to n + k = 24, got 20"),
        ],
    )
    def test_pair_checks_keep_their_texts(self, pair, message):
        sequence = product_powers(zd_model(2), "standard", 20, ordered=False)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            shell_inclusion_check(sequence, [(8, 4), pair])

    def test_varying_factors_are_refused(self):
        model = zd_model(2)
        inner = list(model.generating_set("standard"))
        sequence = varying_products(model, [inner] * 11 + [inner + [(1, 1)]], inner, inner + [(1, 1)])
        with pytest.raises(ValueError, match="^needs the powers of one generating set$"):
            shell_inclusion_check(sequence, [(8, 4)])


def _claims_config(space, widths, n_max, budget=None):
    raw = {"space": space, "depth": space["radius"], "analyses": {"claims": {"n_max": n_max, "widths": widths}}}
    if budget is not None:
        raw["budgets"] = {"elements": budget}
    return validate_config(raw)


class TestClaimsAnalysis:
    @pytest.mark.parametrize(
        "space,model,widths,n_max",
        [
            ({"family": "lattice", "d": 2, "radius": 8}, _Z2, [12, 4, 8], 20),
            ({"family": "heisenberg", "radius": 4}, _H3, [8, 4], 9),
        ],
        ids=["Z2", "H3"],
    )
    def test_every_pair_matches_the_reference(self, space, model, widths, n_max):
        _, tables = run_analyses(_claims_config(space, widths, n_max))
        header, columns = tables["claims"]
        assert header == ("n", "k", "forward", "backward")
        sequence = product_powers(model, "standard", n_max + max(widths))
        assert list(zip(*columns)) == [
            (n, k, *_reference_shell_inclusion(sequence, n, k))
            for k in widths
            for n in range(k, n_max + 1)
        ]

    def test_a_run_within_the_budget_of_its_powers_completes(self):
        # N_8 (145 elements) fits; C_{2,3} * U^8 would reach 221 at layer 7,
        # but forward holds by step 5, and C_{2,3} * U^5 lies inside N_8.
        space = {"family": "lattice", "d": 2, "radius": 4}
        summary, tables = run_analyses(_claims_config(space, [4], 4, budget=200))
        unbudgeted, expected = run_analyses(_claims_config(space, [4], 4))
        assert tables == expected and tables["claims"][1][2] == (True,)
        assert summary["claims"] == unbudgeted["claims"] == {"all_hold": True}

    def test_a_box_past_eight_cells_per_key_keeps_the_reference_outcomes(self, monkeypatch):
        # The powers' box of H3 to step 17 has 334,425 cells for |N_17| =
        # 35,549 keys, so at a budget of 40,000 no expansion gets a seen
        # map and no map holds the birth steps: the expansions search sorted
        # arrays, in the powers' own box, and so do the birth steps.
        sequence = product_powers(_H3, "standard", 17, 40_000)
        assert math.prod(sequence.layers[0].box.widths) > 8 * 40_000 >= sequence.sizes[-1]
        pairs = [(n, k) for k in (8, 4) for n in range(k, 10)]
        expected = _union_sandwich(sequence, pairs)
        searches = {}
        for module in (groups, products):
            real = module.lookup
            spy = lambda *args, module=module, real=real: searches.setdefault(module, []).append(1) or real(*args)
            monkeypatch.setattr(module, "lookup", spy)
        assert shell_inclusion_check(sequence, pairs, 40_000) == expected
        assert searches.keys() == {groups, products}
        searches.clear()
        assert shell_inclusion_check(product_powers(_H3, "standard", 17), pairs) == expected
        assert not searches  # both maps

    def test_budget_error_names_the_set_product(self):
        # The shells of Z^1's {0, +-1, +-2, +-3} with the factor {0, +-1, +-2}:
        # at (8, 4) forward fails at step 5 (C_{6,7} * U^5 has 46 elements)
        # and reads on to step 8, past the budget at layer 6.
        z1 = zd_model(1)
        wide = product_powers(z1, [(s,) for s in range(-3, 4)], 16, ordered=False)
        narrow = product_powers(z1, [(s,) for s in range(-2, 3)], 16, ordered=False)
        sequence = ProductSequence(z1, narrow.factors, wide.layers)
        assert shell_inclusion_check(sequence, [(8, 4)], element_budget=70) == [
            _reference_shell_inclusion(sequence, 8, 4)]
        with pytest.raises(BudgetExceededError) as caught:
            shell_inclusion_check(sequence, [(8, 4)], element_budget=50)
        assert str(caught.value) == "set product: size 54 exceeds budget 50 at layer 6"
