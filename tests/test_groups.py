"""
Tests for the group models and the generation check.

Core claims:
    - every model is one pattern group: its pattern holds positions
      i < j, is closed under (i, k), (k, j) => (i, j), and lists the
      abelianization's positions first; rank, identity and abelian_rank
      are d, 0 and d for Z^d and 3, 0 and 2 for H3
    - the one group law, `multiply_rows`, adds in Z^d and matches
      multiplication of unipotent 3 x 3 matrices in H3 (independent
      oracle), on seeded random int64 rows; invert really inverts
    - the tests' reference law (`tests/tuple_law.py`), the product of a
      pattern's unitriangular matrices, is the H3 law and Z^d addition
      written out, on seeded tuples
    - the law is associative on random triples of rows
    - the one `reach` equals the per-model closed forms it replaced (kept
      here as the reference) term for term on seeded bounds with n up to
      10^12, in Z^1, Z^2, Z^3, Z^27 and H3; it is nondecreasing in n in
      Z^1 to Z^3 and H3; and
      every coordinate of every product of a seed and at most n <= 6
      factors (`tests/tuple_law.py`'s reference layers) lies within it,
      for named and seeded sets of Z^1 to Z^3 and H3 and a nonzero seed set
    - the step plan of `step_images`, which steps in key space, gives the
      keys of the tuple law's products (`tests/tuple_law.py`) on decoded tuples: in Z^1 to
      Z^5 and H3, for named and seeded step sets, on keys at the corners
      of the box and unsorted keys, and for H3 stored as (y, x, z), the
      pattern ((1, 2), (0, 1), (0, 2)), whose slope sits on a later
      coordinate, against the reference law on that model; a product outside the box gets the key its coordinates
      encode to
    - symmetrize closes under inversion and drops the identity
    - check_generates accepts the named sets and rejects proper-subgroup
      spans and semigroup-incomplete sets with telling messages; for Z^d it
      is exact, so a set whose inverses need many factors is accepted
    - for Z^d its verdicts equal those of the determinant-based check
      (kept here as the reference: the gcd of all d x d minors for the
      span, cofactor normals of (d - 1)-subsets for the half-space) on
      seeded sets in Z^1 to Z^4, symmetric and one-sided; each half-space
      normal it names is a certificate: nonzero, primitive and >= 0 on
      every generator
    - it decides sets the reference cannot reach: the one-sided simplex
      e_1, ..., e_d, -(e_1 + ... + e_d) is accepted, and rejected without
      one direction, at ranks 20, 23 and MAX_ZD_RANK; one-sided sets of
      257 generators in Z^2, 24 and 2,000 in Z^3 and 257 H3 projections
      are accepted, and rejected with a certificate without minus the sum
      of the units
    - a set closed under inversion stops at the span test and never
      reaches the LP
    - zd_model takes ranks 1 to MAX_ZD_RANK = 27, the largest whose
      radius-1 word ball has int64 keys
    - for H3 the check decides on the (x, y) projections: on seeded sets,
      symmetric and one-sided, its verdict is the determinant check's on
      the projections in Z^2, each normal it names is a certificate on the
      projections, and for each accepted set an expansion of a
      stated depth reaches (0, 0, +-1) and every generator inverse
    - the check expands nothing: it passes with `groups.expand` replaced by
      a function that raises
"""

import ast
import itertools
import math
import random
from collections import Counter
from itertools import combinations

import numpy as np
import pytest

from folnerlab import groups
from folnerlab.errors import NotGeneratingError
from folnerlab.generators import word_ball
from folnerlab.products import DEFAULT_ELEMENT_BUDGET
from folnerlab.groups import (
    MAX_ZD_RANK,
    GroupModel,
    KeyBox,
    _spans,
    check_generates,
    expand,
    heisenberg_model,
    lookup,
    step_images,
    zd_model,
)
from tuple_law import multiply, reference_layers


# -- Helpers -----------------------------------------------------------------


def _heis_matrix(g):
    x, y, z = g
    return np.array([[1, x, z], [0, 1, y], [0, 0, 1]], dtype=np.int64)


def _random_rows(model, seed, count=200):
    """Seeded random int64 elements of `model`, one per row."""
    rng = np.random.default_rng(seed)
    rows = rng.integers(-9, 10, size=(count, model.rank), dtype=np.int64)
    if model.name.startswith("H3"):
        rows[:, 2] = rng.integers(-40, 41, size=count)
    return rows


def _inverses(model, rows):
    return np.array([model.invert(tuple(g)) for g in rows.tolist()], dtype=np.int64)


# -- Group laws --------------------------------------------------------------


class TestModels:
    def test_zd_arithmetic(self):
        m = zd_model(3)
        a, b = _random_rows(m, 40), _random_rows(m, 41)
        assert np.array_equal(m.multiply_rows(a, b), a + b)
        one = m.multiply_rows(np.array([1, 2, 3]), np.array([4, -2, 0]))
        assert one.tolist() == [5, 0, 3]
        assert m.invert((1, -2, 5)) == (-1, 2, -5)
        assert m.identity == (0, 0, 0)

    def test_heisenberg_matches_matrix_oracle(self):
        m = heisenberg_model()
        a, b = _random_rows(m, 41), _random_rows(m, 141)
        for g, h, prod in zip(a.tolist(), b.tolist(), m.multiply_rows(a, b).tolist()):
            assert np.array_equal(_heis_matrix(prod), _heis_matrix(g) @ _heis_matrix(h))

    def test_the_reference_law_is_written_out(self):
        rng = random.Random("tuple-law")
        big = lambda: rng.randint(-(10**12), 10**12)
        for _ in range(200):
            (x, y, z), (u, v, w) = (big(), big(), big()), (big(), big(), big())
            assert multiply(heisenberg_model(), (x, y, z), (u, v, w)) == (x + u, y + v, z + w + x * v)
        for d in (1, 2, 3, MAX_ZD_RANK):
            for _ in range(20):
                a, b = tuple(big() for _ in range(d)), tuple(big() for _ in range(d))
                assert multiply(zd_model(d), a, b) == tuple(p + q for p, q in zip(a, b))

    def test_heisenberg_invert(self):
        m = heisenberg_model()
        g = _random_rows(m, 42, 100)
        identity = np.zeros_like(g)
        assert np.array_equal(m.multiply_rows(g, _inverses(m, g)), identity)
        assert np.array_equal(m.multiply_rows(_inverses(m, g), g), identity)

    @pytest.mark.parametrize("model", [zd_model(2), heisenberg_model()])
    def test_associative(self, model):
        a, b, c = (_random_rows(model, 43 + i, 100) for i in range(3))
        left = model.multiply_rows(model.multiply_rows(a, b), c)
        right = model.multiply_rows(a, model.multiply_rows(b, c))
        assert np.array_equal(left, right)

    def test_commutator_is_central_generator(self):
        # x y x^-1 y^-1 = (0, 0, 1): the center is reached at word length 4.
        m = heisenberg_model()
        x, y = np.array([1, 0, 0]), np.array([0, 1, 0])
        x_inv, y_inv = (np.array(m.invert(tuple(g))) for g in (x, y))
        g = m.multiply_rows(m.multiply_rows(m.multiply_rows(x, y), x_inv), y_inv)
        assert g.tolist() == [0, 0, 1]

    def test_symmetrize(self):
        m = zd_model(2)
        sym = m.symmetrize(m.generating_set("skew"))
        assert set(sym) == {(1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (-1, -1)}
        assert m.identity not in sym

    def test_unknown_generating_set(self):
        with pytest.raises(KeyError, match="known:"):
            zd_model(2).generating_set("hexagonal")

    def test_zd_requires_positive_dimension(self):
        with pytest.raises(ValueError):
            zd_model(0)

    def test_zd_rank_is_capped_where_unit_balls_leave_int64(self):
        # A radius-1 word ball sizes its key box for 2 steps: 5^d cells.
        assert MAX_ZD_RANK == 27 and 5**27 <= 2**63 < 5**28
        ball = word_ball(zd_model(27), "standard", 1)
        assert ball.sizes[-1] == 55
        with pytest.raises(ValueError, match="dimension must be at most 27, .* got 28"):
            zd_model(28)

    @pytest.mark.parametrize("model,rank,abelian_rank", [
        *[pytest.param(zd_model(d), d, d, id=f"Z{d}") for d in (1, 2, 3, MAX_ZD_RANK)],
        pytest.param(heisenberg_model(), 3, 2, id="H3"),
    ])
    def test_models_are_closed_patterns(self, model, rank, abelian_rank):
        pattern = model.pattern
        assert all(i < j for i, j in pattern) and len(set(pattern)) == len(pattern)
        products = {(i, j) for i, k in pattern for k2, j in pattern if k == k2}
        assert products <= set(pattern)
        # The positions that are no product, the abelianization's, come first.
        assert [p in products for p in pattern] == [False] * abelian_rank + [True] * (rank - abelian_rank)
        assert (model.rank, model.identity, model.abelian_rank) == (rank, (0,) * rank, abelian_rank)


# -- The one reach -------------------------------------------------------------


def _closed_form_reach(model, seed_max, step_max, n):
    """The per-model bounds the one `reach` replaced, kept as its reference.
    In H3, after the seed and k steps |x| <= s_x + k * m_x, so step k + 1
    moves z by at most m_z + (s_x + k * m_x) * m_y; summing over k < n gives
    the z bound."""
    if model.name == "H3(Z)":
        (sx, sy, sz), (mx, my, mz) = seed_max, step_max
        return (sx + n * mx, sy + n * my, sz + n * mz + n * sx * my + mx * my * n * (n - 1) // 2)
    return tuple(s + n * m for s, m in zip(seed_max, step_max))


REACH_MODELS = [
    *[pytest.param(zd_model(d), id=f"Z{d}") for d in (1, 2, 3, MAX_ZD_RANK)],
    pytest.param(heisenberg_model(), id="H3"),
]


def _maxima(elements, rank):
    return [max((abs(g[c]) for g in elements), default=0) for c in range(rank)]


def _reach_sets():
    """(model, seeds, step set): the named sets from the identity, and
    seeded sets from the identity and from a seeded nonzero seed set."""
    models = [zd_model(d) for d in (1, 2, 3)] + [heisenberg_model()]
    for model in models:
        for label in model.generating_sets:
            yield pytest.param(model, [model.identity], model.generating_set(label), id=f"{model.name}-{label}")
        rng = random.Random(f"reach-sets/{model.name}")
        for k in range(2):
            gens = sorted({tuple(rng.randint(-3, 3) for _ in range(model.rank)) for _ in range(4)})
            seeds = [model.identity]
            if k:
                seeds = sorted({tuple(rng.randint(-4, 4) for _ in range(model.rank)) for _ in range(3)})
            yield pytest.param(model, seeds, gens, id=f"{model.name}-seeded-{k}")


class TestReach:
    @pytest.mark.parametrize("model", REACH_MODELS)
    def test_equals_the_closed_forms(self, model):
        rng = random.Random(f"reach/{model.name}")
        for k in range(400):
            seed_max = [rng.randint(0, 10 ** rng.randint(0, 6)) for _ in range(model.rank)]
            step_max = [rng.randint(0, 10 ** rng.randint(0, 6)) for _ in range(model.rank)]
            n = 10**12 if k == 0 else rng.randint(0, 10 ** rng.randint(0, 12))
            assert model.reach(seed_max, step_max, n) == _closed_form_reach(model, seed_max, step_max, n)

    # Z^27 is left to the closed form above, s + n * m, which plainly grows with n.
    @pytest.mark.parametrize("model", [p for p in REACH_MODELS if p.id != "Z27"])
    def test_nondecreasing_in_n(self, model):
        rng = random.Random(f"reach-monotone/{model.name}")
        for _ in range(20):
            seed_max = [rng.randint(0, 9) for _ in range(model.rank)]
            step_max = [rng.randint(0, 9) for _ in range(model.rank)]
            ns = sorted({rng.randint(0, 10 ** rng.randint(0, 12)) for _ in range(10)} | set(range(40)))
            bounds = [model.reach(seed_max, step_max, n) for n in ns]
            for lower, upper in zip(bounds, bounds[1:]):
                assert all(a <= b for a, b in zip(lower, upper))

    @pytest.mark.parametrize("model,seeds,gens", _reach_sets())
    def test_bounds_every_product(self, model, seeds, gens):
        seed_max, step_max = _maxima(seeds, model.rank), _maxima(gens, model.rank)
        reached = []
        for n, layer in enumerate(reference_layers(model, seeds, [gens] * 6)):
            reached += layer
            bound = model.reach(seed_max, step_max, n)
            assert all(m <= b for m, b in zip(_maxima(reached, model.rank), bound)), n


# -- Steps in key space -------------------------------------------------------


def _step_cases():
    cases = []
    for d in range(1, 6):
        model, rng = zd_model(d), random.Random(f"steps/Z{d}")
        seeded = sorted({tuple(rng.randint(-3, 3) for _ in range(d)) for _ in range(6)})
        cases += [
            pytest.param(model, model.generating_set(label), id=f"Z{d}-{label}")
            for label in model.generating_sets
        ]
        cases.append(pytest.param(model, seeded, id=f"Z{d}-seeded"))
    model, rng = heisenberg_model(), random.Random("steps/H3")
    seeded = sorted({(rng.randint(-3, 3), rng.randint(-3, 3), rng.randint(-5, 5)) for _ in range(6)})
    cases.append(pytest.param(model, model.generating_set("standard"), id="H3-standard"))
    cases.append(pytest.param(model, seeded, id="H3-seeded"))
    return cases


class TestStepImages:
    @pytest.mark.parametrize("model,steps", _step_cases())
    def test_matches_the_tuple_law(self, model, steps):
        rng = np.random.default_rng(model.rank * 100 + len(steps))
        offsets = tuple(int(o) for o in rng.integers(1, 5, size=model.rank))
        box = KeyBox(offsets, tuple(2 * o + 1 for o in offsets))
        corners = np.array(list(itertools.product(*[(-o, o) for o in offsets])), dtype=np.int64)
        keys = np.concatenate([box.encode(corners), rng.integers(0, math.prod(box.widths), 60)])
        rng.shuffle(keys)
        images = step_images(model, box, steps)(keys)
        assert images.shape == (len(steps), len(keys))
        elements = box.elements(keys)
        for s, row in zip(steps, images):
            products = [multiply(model, g, s) for g in elements]
            assert row.tolist() == box.encode(np.array(products, dtype=np.int64)).tolist()
            inside = [all(abs(c) <= o for c, o in zip(p, offsets)) for p in products]
            assert box.elements(row[inside]) == [p for p, i in zip(products, inside) if i]

    def test_a_slope_on_a_later_coordinate(self):
        # H3 with its elements stored as (y, x, z): the coordinate that moves
        # z is no longer the leading digit of a key.
        model = GroupModel("H3 as (y, x, z)", ((1, 2), (0, 1), (0, 2)))
        box = KeyBox((3, 4, 9), (7, 9, 19))
        keys = np.random.default_rng(5).integers(0, math.prod(box.widths), 80)
        steps = [(0, 1, 0), (-1, 2, 3), (2, -1, 0), (1, 1, -2)]
        for s, row in zip(steps, step_images(model, box, steps)(keys)):
            products = [multiply(model, g, s) for g in box.elements(keys)]
            assert row.tolist() == box.encode(np.array(products, dtype=np.int64)).tolist()


# -- Generation check --------------------------------------------------------


class TestCheckGenerates:
    @pytest.mark.parametrize("label", ["standard", "diagonal", "skew"])
    def test_named_z2_sets_generate(self, label):
        m = zd_model(2)
        check_generates(m, m.generating_set(label))

    def test_heisenberg_standard_generates(self):
        m = heisenberg_model()
        check_generates(m, m.generating_set("standard"))

    def test_rejects_proper_span(self):
        m = zd_model(2)
        with pytest.raises(NotGeneratingError, match="proper subgroup"):
            check_generates(m, [(2, 0), (0, 2), (-2, 0), (0, -2)])

    def test_rejects_semigroup_incomplete(self):
        # {e1, e2} spans Z^2 as a group but no product ever reaches -e1.
        m = zd_model(2)
        with pytest.raises(NotGeneratingError, match="semigroup"):
            check_generates(m, [(0, 0), (1, 0), (0, 1)])

    def test_accepts_inverses_beyond_any_small_depth(self):
        # -(1, 0) = 4 (1, 0) + 7 (0, 1) + (-5, -7) needs 12 factors.
        check_generates(zd_model(2), [(1, 0), (0, 1), (-5, -7)])

    @pytest.mark.parametrize("gens", [[(1, 0), (0, 1)], [(1, 0), (-1, 0), (0, 1)]])
    def test_rejects_sets_in_a_half_plane(self, gens):
        with pytest.raises(NotGeneratingError, match="half-space"):
            check_generates(zd_model(2), gens)

    def test_z1_needs_both_signs(self):
        check_generates(zd_model(1), [(3,), (-2,)])
        with pytest.raises(NotGeneratingError, match="half-space"):
            check_generates(zd_model(1), [(3,), (2,)])

    def test_rejects_empty(self):
        with pytest.raises(NotGeneratingError, match="no non-identity"):
            check_generates(zd_model(2), [(0, 0)])

    def test_rejects_wrong_arity(self):
        with pytest.raises(NotGeneratingError, match="arity"):
            check_generates(zd_model(2), [(1, 0, 0)])

    def test_rejects_heisenberg_without_inverses(self):
        m = heisenberg_model()
        with pytest.raises(NotGeneratingError, match=r"<g, \(1, 1\)> >= 0 .* projected to Z\^2"):
            check_generates(m, [(1, 0, 0), (0, 1, 0)])

    def test_rejects_heisenberg_bad_projection(self):
        m = heisenberg_model()
        with pytest.raises(NotGeneratingError, match="do not span"):
            check_generates(m, [(1, 0, 0), (-1, 0, 0), (0, 0, 1), (0, 0, -1)])

    def test_roadmap_spans(self):
        assert not _spans([(2, 0), (0, 1), (-2, 0), (0, -1)], 2)
        assert _spans([(2, 1), (1, 1)], 2)
        assert _spans([(1, 0), (0, 1), (-5, -7)], 2)
        with pytest.raises(NotGeneratingError, match=r"<g, \(1, 1\)> >= 0"):
            check_generates(zd_model(2), [(2, 1), (1, 1)])

    def test_standard_set_at_the_largest_rank(self):
        m = zd_model(MAX_ZD_RANK)
        check_generates(m, m.generating_set("standard"))

    @pytest.mark.parametrize("d", [20, 23, MAX_ZD_RANK])
    def test_one_sided_simplex(self, d):
        # -e_i is the sum of the other e_j and -(e_1 + ... + e_d).
        m = zd_model(d)
        units = [tuple(int(i == j) for j in range(d)) for i in range(d)]
        check_generates(m, units + [(-1,) * d])
        without = units + [(-1,) * (d - 1) + (0,)]
        _assert_certificate(_verdict(m, without), without)

    @pytest.mark.parametrize("d,count", [(2, 257), (3, 24), (3, 2000)])
    def test_sets_past_the_old_facet_bound_are_decided(self, d, count):
        # The unit vectors, minus their sum and nonnegative extras generate
        # Z^d as a semigroup; without minus their sum they lie in the
        # nonnegative orthant.  A facet search capped at 256 subsets refused
        # 257 generators in Z^2 and 24 in Z^3.
        m = zd_model(d)
        gens = [tuple(int(i == j) for j in range(d)) for i in range(d)] + [(-1,) * d]
        gens += [g for g in np.ndindex((17,) * d) if sum(g) > 1][: count - d - 1]
        check_generates(m, gens + gens)  # repeats count once
        without = gens[:d] + gens[d + 1 :]
        _assert_certificate(_verdict(m, without), without)

    def test_heisenberg_sets_past_the_old_facet_bound_are_decided(self):
        m = heisenberg_model()
        plane = [(1, 0), (0, 1), (-1, -1)] + [(i, j) for i in range(17) for j in range(17) if i + j > 1]
        check_generates(m, [(x, y, z) for x, y in plane[:257] for z in (0, 1)])
        without = [(x, y, 0) for x, y in plane[:2] + plane[3:258]]
        _assert_certificate(_verdict(m, without), [g[:2] for g in without])

    def test_symmetric_sets_never_reach_the_lp(self, monkeypatch):
        calls = []
        lp = groups._half_space_normal
        monkeypatch.setattr(groups, "_half_space_normal", lambda gens, d: calls.append(gens) or lp(gens, d))
        for d in (1, 2, 3, MAX_ZD_RANK):
            m = zd_model(d)
            check_generates(m, m.generating_set("standard"))
            check_generates(m, m.symmetrize([*m.generating_set("standard"), (1,) * d, (-3,) + (2,) * (d - 1)]))
        m = zd_model(3)
        check_generates(m, m.symmetrize(np.ndindex((13,) * 3)))
        for gens in _seeded_heisenberg_sets():
            if set(gens) == set(heisenberg_model().symmetrize(gens)):
                _verdict(heisenberg_model(), gens)
        assert calls == []
        check_generates(zd_model(2), zd_model(2).generating_set("skew"))
        assert calls == [[(1, 0), (0, 1), (-1, -1)]]


# -- The determinant-based check, kept as the reference -------------------------


def _det(m):
    """Integer determinant by cofactor expansion."""
    n = len(m)
    if n == 0:
        return 1
    if n == 1:
        return m[0][0]
    if n == 2:
        return m[0][0] * m[1][1] - m[0][1] * m[1][0]
    total = 0
    for j in range(n):
        minor = [row[:j] + row[j + 1 :] for row in m[1:]]
        total += (-1) ** j * m[0][j] * _det(minor)
    return total


def _reference_span_is_full(vectors, d):
    """The span is Z^d iff the gcd of all d x d minors is 1."""
    minors_gcd = 0
    for rows in combinations(vectors, d):
        minors_gcd = math.gcd(minors_gcd, _det([list(r) for r in rows]))
        if minors_gcd == 1:
            return True
    return minors_gcd == 1


def _reference_half_space_normal(gens, d):
    for rows in combinations(gens, d - 1):
        normal = [(-1) ** j * _det([r[:j] + r[j + 1 :] for r in rows]) for j in range(d)]
        if not any(normal):
            continue
        dots = [sum(a * b for a, b in zip(g, normal)) for g in gens]
        for sign in (1, -1):
            if min(sign * x for x in dots) >= 0:
                return tuple(sign * c for c in normal)
    return None


def _reference_verdict(model, elements):
    """"span", "accepted", or the half-space normal that rejects the set."""
    gens = [g for g in elements if g != model.identity]
    d = model.rank
    if len(gens) < d or not _reference_span_is_full(gens, d):
        return "span"
    normal = _reference_half_space_normal(gens, d)
    return "accepted" if normal is None else normal


def _verdict(model, elements):
    try:
        check_generates(model, elements)
    except NotGeneratingError as exc:
        text = str(exc)
        if "proper subgroup" in text or "do not span" in text:
            return "span"
        return ast.literal_eval(text[text.index("<g, ") + 4 : text.index(">")])
    return "accepted"


def _assert_certificate(normal, gens):
    """`normal` is a nonzero primitive integer vector with <g, normal> >= 0
    for every g in `gens`."""
    assert isinstance(normal, tuple) and any(normal), (normal, gens)
    assert math.gcd(*normal) == 1, normal
    assert all(sum(a * b for a, b in zip(g, normal)) >= 0 for g in gens), (normal, gens)


def _seeded_sets(d, count, seed=0):
    """Sets of 1 to d + 4 elements with coordinates in -2..2, every other
    one closed under inversion."""
    rng = random.Random(f"sets/{d}/{seed}")
    model = zd_model(d)
    for k in range(count):
        gens = {tuple(rng.randint(-2, 2) for _ in range(d)) for _ in range(rng.randint(1, d + 4))}
        gens.discard(model.identity)
        if not gens:
            continue
        yield model.symmetrize(gens) if k % 2 else sorted(gens)


class TestAgainstTheDeterminantCheck:
    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_verdicts_and_normals_match(self, d, seed):
        model = zd_model(d)
        kinds = {"span": 0, "accepted": 0, "normal": 0}
        for gens in _seeded_sets(d, 100, seed):
            expected, got = _reference_verdict(model, gens), _verdict(model, gens)
            if isinstance(expected, str):
                assert got == expected, gens
                kinds[expected] += 1
                continue
            _assert_certificate(got, gens)
            kinds["normal"] += 1
        assert kinds["span"] and kinds["accepted"] and kinds["normal"]

    def test_heisenberg_projection_span_matches(self):
        model = heisenberg_model()
        rng = random.Random("heisenberg-projections")
        for _ in range(200):
            gens = [tuple(rng.randint(-2, 2) for _ in range(3)) for _ in range(rng.randint(1, 4))]
            gens = [g for g in gens if g != model.identity] or [(1, 0, 0)]
            projections = [g[:2] for g in gens]
            try:
                check_generates(model, gens)
                spans = True
            except NotGeneratingError as exc:
                spans = "do not span" not in str(exc)
            assert spans == _reference_span_is_full(projections, 2), gens


# -- Heisenberg sets, decided on their projections ----------------------------


def _seeded_heisenberg_sets(count=300):
    """Sets of 1 to 5 elements of [-2, 2]^3, every other one closed under
    inversion."""
    rng = random.Random("heisenberg-sets")
    model = heisenberg_model()
    for k in range(count):
        gens = {tuple(rng.randint(-2, 2) for _ in range(3)) for _ in range(rng.randint(1, 5))}
        gens.discard(model.identity)
        if gens:
            yield list(model.symmetrize(gens)) if k % 2 else sorted(gens)


def _reaches(model, gens, targets, depth):
    """True iff U^depth (identity adjoined) holds every target."""
    rows = np.array(sorted(targets), dtype=np.int64)
    missing = np.ones(len(rows), dtype=bool)
    for n, layer in enumerate(expand(model, [model.identity], [(gens, depth)], DEFAULT_ELEMENT_BUDGET, "test")):
        if n == 0:
            wanted = layer.box.keys_of(rows)
        missing[lookup(layer.keys, wanted)[0]] = False
        if not missing.any():
            return True
    return False


class TestHeisenbergOnItsAbelianization:
    # The deepest target of the accepted sets below needs 21 factors.
    DEPTH = 24

    def test_verdicts_are_those_of_the_projections(self):
        model, plane = heisenberg_model(), zd_model(2)
        kinds = Counter()
        for gens in _seeded_heisenberg_sets():
            expected = _reference_verdict(plane, [g[:2] for g in gens])
            got = _verdict(model, gens)
            if isinstance(expected, tuple):
                _assert_certificate(got, [g[:2] for g in gens])
            else:
                assert got == expected, gens
            one_sided = set(gens) != set(model.symmetrize(gens))
            kinds[one_sided, got if isinstance(got, str) else "normal"] += 1
        assert set(kinds) == {
            (False, "span"), (False, "accepted"),
            (True, "span"), (True, "accepted"), (True, "normal"),
        }

    def test_accepted_sets_reach_the_center_and_every_inverse(self):
        model = heisenberg_model()
        accepted = [g for g in _seeded_heisenberg_sets() if _verdict(model, g) == "accepted"]
        assert any(set(g) != set(model.symmetrize(g)) for g in accepted)
        shallow = 0
        for gens in accepted:
            targets = {(0, 0, 1), (0, 0, -1)} | {model.invert(g) for g in gens}
            assert _reaches(model, gens, targets, self.DEPTH), gens
            shallow += _reaches(model, gens, targets, 8)
        # Some sets need more than 8 factors: no short search decides them.
        assert 0 < shallow < len(accepted)

    def test_the_check_never_expands(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("check_generates expanded")

        monkeypatch.setattr(groups, "expand", refuse)
        for model in [zd_model(d) for d in (1, 2, 3, MAX_ZD_RANK)] + [heisenberg_model()]:
            for label in model.generating_sets:
                check_generates(model, model.generating_set(label))
        verdicts = {str(_verdict(heisenberg_model(), gens)) for gens in _seeded_heisenberg_sets()}
        assert {"accepted", "span"} < verdicts
