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
    - a `KeySet` of seeds keeps its box when the run fits in it (a shell of
      the powers, run to within their steps) and far-off seeds get a box
      of their own, with the reference's layers either way; the `claims`
      analysis of the `claims-5-3` recipe decodes and re-encodes no key
    - the fresh test reads a seen map of the key box when the box has at
      most 8 cells per key of the budget, and searches sorted arrays
      otherwise; the two paths give the reference's layers and discovery
      orders for symmetric and one-sided sets, far-off seeds and
      alternating factors, the budget alone picks the path, and the map
      path makes no `lookup`
    - on the sorted path, the fresh test searches the shorter of the
      candidates and an older array into the longer: symmetric sets in H3
      and Z^d search the older layers into the candidates at every step,
      and one-sided sets, whose union of layers outgrows the candidates,
      take both directions; the layers are the reference's either way,
      ordered and unordered
    - `expand` builds one step plan per distinct factor, and alternating
      factors A, B, A, B are each stepped by their own plan
    - `common` finds the positions `np.intersect1d` finds, and a word ball's
      `edge_count` is the number of its `edges()`, as an `int`, for every
      named set up to radius 16 (Z^2's `diagonal` and `skew` sets have
      edges inside a layer)
    - a key box too large for int64 raises ValueError before any array
      is allocated
"""

import math
import random

import numpy as np
import pytest

from folnerlab import groups, registry
from folnerlab.config import validate_config
from folnerlab.errors import BudgetExceededError, NotGeneratingError
from folnerlab.generators import word_ball
from folnerlab.groups import KeyBox, KeySet, check_generates, common, expand, heisenberg_model, zd_model
from folnerlab.products import DEFAULT_ELEMENT_BUDGET, product_powers, product_with_powers, varying_products
from folnerlab.recipes import recipe
from folnerlab.runner import run_analyses
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
        got = list(expand(model, [model.identity], [(gens, STEPS[name])], DEFAULT_ELEMENT_BUDGET, "test", ordered))
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
        got = [layer.elements() for layer in expand(model, seeds, [(gens, 3)], DEFAULT_ELEMENT_BUDGET, "test", True)]
        assert got == expected
        brute = _brute_products(model, seeds, factors)
        assert [set().union(*got[: n + 1]) for n in range(4)] == brute

    @pytest.mark.parametrize("name,gens", _cases())
    @pytest.mark.parametrize("ordered", [False, True])
    def test_a_run_is_its_steps_one_by_one(self, name, gens, ordered):
        model = MODELS[name][0]
        n = STEPS[name]
        run = list(expand(model, [model.identity], [(gens, n)], DEFAULT_ELEMENT_BUDGET, "test", ordered))
        steps = list(expand(model, [model.identity], [(gens, 1)] * n, DEFAULT_ELEMENT_BUDGET, "test", ordered))
        assert len(run) == len(steps) == n + 1
        for a, b in zip(run, steps):
            assert a.box == b.box
            assert a.keys.tolist() == b.keys.tolist()
            assert a.elements() == b.elements()

    @pytest.mark.parametrize("name,gens", _cases(1))
    def test_a_run_of_count_zero_adds_no_layer(self, name, gens):
        model = MODELS[name][0]
        other = model.generating_set("standard")
        for runs, steps in [([(gens, 0)], 0), ([(other, 0), (gens, 2), (other, 0)], 2)]:
            got = [layer.elements() for layer in expand(model, [model.identity], runs, DEFAULT_ELEMENT_BUDGET, "test", True)]
            assert got == list(reference_layers(model, [model.identity], [gens] * steps))

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
        seq = product_powers(model, gens, n, ordered=True)
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
        # The layers carry no discovery order, so each is read sorted.
        assert list(seq.birth.items()) == sorted(expected.items(), key=lambda item: (item[1], item[0]))
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


class TestKeySetSeeds:
    @pytest.mark.parametrize("name,gens", _cases())
    @pytest.mark.parametrize("ordered", [False, True])
    def test_a_shell_of_the_powers_keeps_their_box(self, name, gens, ordered):
        # C_{j-1, j} * U^m lies in N_(j+m), which the powers' box holds.
        model, n = MODELS[name][0], STEPS[name]
        seeds = product_powers(model, gens, n).layers[n // 2]
        got = list(expand(model, seeds, [(gens, n - n // 2)], DEFAULT_ELEMENT_BUDGET, "test", ordered))
        assert all(layer.box is seeds.box for layer in got)
        expected = list(reference_layers(model, seeds.elements(), [gens] * (n - n // 2)))
        assert [layer.elements() for layer in got] == (expected if ordered else [sorted(e) for e in expected])

    @pytest.mark.parametrize("name,gens", _cases(2))
    def test_far_off_seeds_get_a_box_of_their_own(self, name, gens):
        model = MODELS[name][0]
        rng = random.Random(f"keyset/{name}")
        rows = np.array([[rng.choice([-1, 1]) * rng.randint(10, 14) for _ in range(model.rank)] for _ in range(5)])
        tight = tuple(np.abs(rows).max(axis=0).tolist())  # no room for a step
        box = KeyBox(tight, tuple(2 * b + 1 for b in tight))
        seeds = KeySet(np.unique(box.encode(rows)), box)
        got = list(expand(model, seeds, [(gens, 3)], DEFAULT_ELEMENT_BUDGET, "test", True))
        assert all(layer.box is got[0].box != box for layer in got)
        assert [layer.elements() for layer in got] == list(reference_layers(model, seeds.elements(), [gens] * 3))

    def test_the_claims_recipe_decodes_no_key(self, monkeypatch):
        inside, entered, calls, real_check = [], [], [], registry.shell_inclusion_check

        def spy(name):
            real = getattr(KeyBox, name)

            def counted(box, keys):
                if inside:
                    calls.append(name)
                return real(box, keys)

            return counted

        def check(*args):
            inside.append(True)
            entered.append(args[1])
            try:
                return real_check(*args)
            finally:
                inside.pop()

        for name in ("decode", "keys_of"):
            monkeypatch.setattr(KeyBox, name, spy(name))
        monkeypatch.setattr(registry, "shell_inclusion_check", check)
        summary, tables = run_analyses(validate_config(recipe("claims-5-3").raw))
        assert summary["claims"] == {"all_hold": True}
        assert [len(pairs) for pairs in entered] == [len(tables["claims"][1][0])] == [39]
        assert calls == []


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
            next(expand(model, [(2**62, 0)], [([(1, 0)], 1)], DEFAULT_ELEMENT_BUDGET, "test"))

    def test_extent_is_the_largest_absolute_coordinate(self):
        box = KeyBox((3, 2, 5), (7, 5, 11))
        rng = np.random.default_rng(0)
        rows = np.stack([rng.integers(-b, b + 1, 40) for b in box.offsets], axis=-1)
        assert box.extent(box.encode(rows)) == np.abs(rows).max(axis=0).tolist()
        assert box.extent(box.encode(rows[:1])) == np.abs(rows[0]).tolist()
        assert box.extent(np.empty(0, dtype=np.int64)) == [0, 0, 0]

    def test_the_largest_box_that_fits_is_exact(self):
        # Offsets 2^30 and 2^31 - 2, so 2^63 - 2^31 - 3 cells: the corner
        # keys come within 2^32 of the int64 limit.
        model = zd_model(2)
        a, b = 2**30 - 1, 2**31 - 3
        seeds = [(a, b), (-a, -b)]
        layers = list(expand(model, seeds, [([(1, 0), (0, 1)], 1)], DEFAULT_ELEMENT_BUDGET, "test", True))
        assert layers[0].elements() == seeds
        assert layers[1].elements() == [(a, b + 1), (a + 1, b), (-a, 1 - b), (1 - a, -b)]
        assert layers[1].keys[-1] > 2**63 - 2**33
        assert np.all(np.diff(layers[1].keys) > 0)


# -- The seen map against the sorted path -------------------------------------

PATHS = ["map", "sorted"]


def _take(path, monkeypatch):
    """Make `expand` take `path`, and return the list its `lookup` calls
    are recorded in: a box gets no seen map when none is allowed per key."""
    if path == "sorted":
        monkeypatch.setattr(groups, "_MAP_CELLS_PER_KEY", 0)
    calls, real = [], groups.lookup
    monkeypatch.setattr(groups, "lookup", lambda *args: calls.append(args) or real(*args))
    return calls


class TestSeenMapAgainstSortedPath:
    @pytest.mark.parametrize("name,gens", _cases())
    @pytest.mark.parametrize("ordered", [False, True])
    @pytest.mark.parametrize("path", PATHS)
    def test_layers_match_reference(self, name, gens, ordered, path, monkeypatch):
        model = MODELS[name][0]
        factors = [gens] * STEPS[name]
        calls = _take(path, monkeypatch)
        got = list(expand(model, [model.identity], [(gens, STEPS[name])], DEFAULT_ELEMENT_BUDGET, "test", ordered))
        assert bool(calls) == (path == "sorted")  # the map path searches nothing
        expected = list(reference_layers(model, [model.identity], factors))
        assert [layer.box.elements(layer.keys) for layer in got] == [sorted(e) for e in expected]
        assert [layer.elements() for layer in got] == (expected if ordered else [sorted(e) for e in expected])

    @pytest.mark.parametrize("name,gens", _cases(2))
    @pytest.mark.parametrize("path", PATHS)
    def test_far_off_seed_sets(self, name, gens, path, monkeypatch):
        model = MODELS[name][0]
        rng = random.Random(f"far/{name}")
        seeds = [tuple(rng.randint(-14, 14) for _ in range(model.rank)) for _ in range(6)]
        factors = [gens] * 3
        calls = _take(path, monkeypatch)
        got = [layer.elements() for layer in expand(model, seeds, [(gens, 3)], DEFAULT_ELEMENT_BUDGET, "test", True)]
        assert bool(calls) == (path == "sorted")
        assert got == list(reference_layers(model, seeds, factors))

    @pytest.mark.parametrize("name", sorted(MODELS))
    @pytest.mark.parametrize("ordered", [False, True])
    @pytest.mark.parametrize("path", PATHS)
    def test_alternating_and_nested_factors(self, name, ordered, path, monkeypatch):
        # A, B, A, B multiply all of N_(n-1) at every step; the nested
        # factors that follow multiply only the newest layer.
        model, span, z_span = MODELS[name]
        inner = _generating_sets(name, 4, 1)[0]
        rng = random.Random(f"paths/{name}")
        extras = [g for g in _random_set(model, rng, 8, span + 1, z_span) if g not in inner]
        x, y = [g for g in extras if g != model.identity][:2]
        factors = [inner + [x], inner + [y]] * 2 + [inner + [x, y], inner + [x], inner]
        calls = _take(path, monkeypatch)
        runs = [(factor, 1) for factor in factors]
        got = [layer.elements() for layer in expand(model, [model.identity], runs, DEFAULT_ELEMENT_BUDGET, "test", ordered)]
        assert bool(calls) == (path == "sorted")
        expected = list(reference_layers(model, [model.identity], factors))
        assert got == (expected if ordered else [sorted(e) for e in expected])

    @pytest.mark.parametrize("ordered", [False, True])
    def test_the_budget_picks_the_path(self, ordered, monkeypatch):
        # Far-off seeds make a box of many cells for few keys, so a budget
        # that admits the run can lie on either side of cells / 8.
        model = zd_model(3)
        seeds = [(14, -13, 12), (-12, 14, -14), (0, 0, 0)]
        factors = [model.generating_set("standard")] * 3
        expected = list(reference_layers(model, seeds, factors))
        runs = [(factors[0], 3)]
        box = next(expand(model, seeds, runs, DEFAULT_ELEMENT_BUDGET, "test")).box
        least = -(-math.prod(box.widths) // 8)  # the least budget with a map
        calls = _take("map", monkeypatch)
        for budget, searched in [(least, False), (least - 1, True)]:
            assert budget >= sum(map(len, expected))
            calls.clear()
            got = [layer.elements() for layer in expand(model, seeds, runs, budget, "test", ordered)]
            assert bool(calls) == searched
            assert got == (expected if ordered else [sorted(e) for e in expected])


# -- Step plans and the membership direction ---------------------------------

H3_ONE_SIDED = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (-1, -1, 0)]
OLDER_SEARCHED = {"older into candidates"}
BOTH = {"older into candidates", "candidates into older"}


def _directions(model, runs, ordered, monkeypatch):
    """The kernel's layers from the identity on the sorted path, the only
    one that searches, and the directions of the fresh test's searches: for
    each `lookup` made while layer n >= 1 is computed, whether the
    candidates (which hold every key of layer n) were searched into an
    older array, or an older array into the candidates."""
    monkeypatch.setattr(groups, "_MAP_CELLS_PER_KEY", 0)
    calls, real = [], groups.lookup

    def spy(ranked, queries):
        calls.append((ranked.copy(), queries.copy()))
        return real(ranked, queries)

    monkeypatch.setattr(groups, "lookup", spy)
    layers, marks = [], []
    for layer in expand(model, [model.identity], runs, DEFAULT_ELEMENT_BUDGET, "test", ordered):
        layers.append(layer)
        marks.append(len(calls))
    taken = set()
    for n in range(1, len(layers)):
        new = layers[n].keys
        for ranked, queries in calls[marks[n - 1] : marks[n]]:
            assert len(queries) <= len(ranked)  # the shorter is searched
            candidates_searched = bool(np.isin(new, queries).all())
            assert candidates_searched != bool(np.isin(new, ranked).all())
            taken.add("candidates into older" if candidates_searched else "older into candidates")
    return layers, taken


class TestStepPlansAndMembership:
    @pytest.mark.parametrize(
        "model,gens,steps,directions",
        [
            pytest.param(heisenberg_model(), "standard", 9, OLDER_SEARCHED, id="H3-standard"),
            pytest.param(zd_model(2), "diagonal", 12, OLDER_SEARCHED, id="Z2-diagonal"),
            pytest.param(zd_model(3), "standard", 7, OLDER_SEARCHED, id="Z3-standard"),
            pytest.param(heisenberg_model(), H3_ONE_SIDED, 9, BOTH, id="H3-one-sided"),
            pytest.param(zd_model(2), "skew", 12, BOTH, id="Z2-skew"),
        ],
    )
    @pytest.mark.parametrize("ordered", [False, True])
    def test_both_search_directions_give_the_reference_layers(
        self, model, gens, steps, directions, ordered, monkeypatch
    ):
        if isinstance(gens, str):
            gens = model.generating_set(gens)
        factors = [gens] * steps
        layers, taken = _directions(model, [(gens, steps)], ordered, monkeypatch)
        expected = list(reference_layers(model, [model.identity], factors))
        assert [layer.box.elements(layer.keys) for layer in layers] == [sorted(e) for e in expected]
        assert [layer.elements() for layer in layers] == (expected if ordered else [sorted(e) for e in expected])
        assert taken == directions

    @pytest.mark.parametrize("name", sorted(MODELS))
    @pytest.mark.parametrize("ordered", [False, True])
    def test_alternating_factors_each_use_their_own_plan(self, name, ordered, monkeypatch):
        # A and B differ in one element and are not nested, so every step
        # multiplies all of N_(n-1); a plan cached under the wrong factor
        # would step by the other set.
        model, span, z_span = MODELS[name]
        inner = _generating_sets(name, 3, 1)[0]
        rng = random.Random(f"alternate/{name}")
        extras = [g for g in _random_set(model, rng, 8, span + 1, z_span) if g not in inner]
        x, y = [g for g in extras if g != model.identity][:2]
        factors = [inner + [x], inner + [y]] * 3
        plans, real = [], groups.step_images
        monkeypatch.setattr(groups, "step_images", lambda *args: plans.append(args[2]) or real(*args))
        runs = [(factor, 1) for factor in factors]
        layers = expand(model, [model.identity], runs, DEFAULT_ELEMENT_BUDGET, "test", ordered)
        got = [layer.elements() for layer in layers]
        expected = list(reference_layers(model, [model.identity], factors))
        assert got == (expected if ordered else [sorted(e) for e in expected])
        assert len(plans) == 2
        seq = varying_products(model, factors, inner, inner + [x, y])
        assert seq.birth == reference_birth(model, factors)

    def test_one_plan_per_distinct_factor(self, monkeypatch):
        plans, real = [], groups.step_images
        monkeypatch.setattr(groups, "step_images", lambda *args: plans.append(args[2]) or real(*args))
        model = zd_model(2)
        a, b = model.generating_set("standard"), model.generating_set("skew")
        distinct = sorted(tuple(sorted(set(f) - {model.identity})) for f in (a, b))
        layers = list(expand(model, [model.identity], [(a, 180)], DEFAULT_ELEMENT_BUDGET, "test"))
        assert len(layers) == 181 and len(plans) == 1
        for runs in ([(a, 1), (b, 1)] * 20, [(a, 2), (b, 1), (a, 3)]):
            plans.clear()
            layers = list(expand(model, [model.identity], runs, DEFAULT_ELEMENT_BUDGET, "test"))
            assert len(layers) == 1 + sum(count for _, count in runs)
            assert sorted(plans) == distinct

    @pytest.mark.parametrize("lengths", [(0, 5), (5, 0), (1, 40), (40, 1), (30, 30), (7, 300), (300, 7)])
    def test_common_matches_intersect1d(self, lengths):
        rng = np.random.default_rng(sum(lengths))
        a, b = (np.sort(rng.choice(600, size=k, replace=False)).astype(np.int64) for k in lengths)
        _, in_a, in_b = np.intersect1d(a, b, assume_unique=True, return_indices=True)
        got = common(a, b)
        assert [got[0].tolist(), got[1].tolist()] == [in_a.tolist(), in_b.tolist()]


def _named_sets():
    models = [zd_model(d) for d in (1, 2, 3, 4)] + [heisenberg_model()]
    return [
        pytest.param(model, label, id=f"{model.name}-{label}")
        for model in models
        for label in model.generating_sets
    ]


@pytest.mark.parametrize("model,label", _named_sets())
@pytest.mark.parametrize("radius", [0, 1, 2, 7, 12, 13, 14, 15, 16])
def test_edge_count_is_the_number_of_edges(model, label, radius):
    ball = word_ball(model, label, radius)
    assert ball.edge_count == len(ball.edges())
    assert type(ball.edge_count) is int
