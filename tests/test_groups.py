"""
Tests for the group models and the generation check.

Core claims:
    - the one group law of each model, `multiply_rows`, adds in Z^d and
      matches multiplication of unipotent 3 x 3 matrices in H3 (independent
      oracle), on seeded random int64 rows; invert really inverts
    - the laws are associative on random triples of rows
    - symmetrize closes under inversion and drops the identity
    - check_generates accepts the named sets and rejects proper-subgroup
      spans and semigroup-incomplete sets with telling messages; for Z^d it
      is exact, so a set whose inverses need many factors is accepted
"""

import numpy as np
import pytest

from folnerlab.errors import NotGeneratingError
from folnerlab.groups import check_generates, heisenberg_model, zd_model


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
        with pytest.raises(NotGeneratingError, match="not found within 8 factors"):
            check_generates(m, [(1, 0, 0), (0, 1, 0)])

    def test_rejects_heisenberg_bad_projection(self):
        m = heisenberg_model()
        with pytest.raises(NotGeneratingError, match="do not span"):
            check_generates(m, [(1, 0, 0), (-1, 0, 0), (0, 0, 1), (0, 0, -1)])
