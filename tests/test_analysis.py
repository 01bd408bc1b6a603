"""
Tests for shell statistics, the recursion audit and the fit helpers.

Rank-two lattice balls satisfy mu(B(n)) = 2n^2 + 2n + 1, which makes every
shell statistic computable in closed form:

    c_{n-k,n} = 2k (2n - k + 1)        c_{n,n+k} = 2k (2n + k + 1)

so the worst ratio over k <= n <= n_max is (2n - k + 1) / (2n + k + 1) at the
largest admitted (n, k).  Those closed forms are the oracles here; the rank
one lattice (ball 2n + 1, all shells of size 2k) exercises the exact equality
cases of the audit.
"""

import math
from fractions import Fraction

import pytest

from folnerlab.analysis import (
    abelian_isop_check,
    delta_from_alpha,
    doubling_constant,
    dyadic_subsequence,
    growth_exponent_fit,
    least_squares_slope,
    lemma_recursion_audit,
    shell_alpha,
    verify_sphere_bound,
)
from folnerlab.generators import TreeChainSpec, lattice_graph, stretched_tree_chain
from folnerlab.space import volume_profile


def _lattice_profile(d: int, depth: int):
    return volume_profile(lattice_graph(d, "standard", depth).graph, 0, depth)


@pytest.fixture(scope="module")
def z1_profile():
    return _lattice_profile(1, 64)


@pytest.fixture(scope="module")
def z2_profile():
    return _lattice_profile(2, 32)


class TestDoubling:
    def test_z2_exact_value(self, z2_profile):
        # max over r <= 8 of (8r^2 + 4r + 1) / (2r^2 + 2r + 1), at r = 8
        assert doubling_constant(z2_profile, 8) == Fraction(545, 145)

    def test_z1_approaches_two(self, z1_profile):
        c = doubling_constant(z1_profile, 32)
        assert Fraction(129, 65) == c  # (2*64+1)/(2*32+1)
        assert 1 < c < 2

    def test_depth_guard(self, z2_profile):
        with pytest.raises(ValueError, match="depth"):
            doubling_constant(z2_profile, 20)


class TestShellAlpha:
    def test_z2_ratios_match_closed_form(self, z2_profile):
        report = shell_alpha(z2_profile, k_min=5, n_max=12, record_all=True)
        for rec in report.records:
            assert rec.c_lo == 2 * rec.k * (2 * rec.n - rec.k + 1)
            assert rec.c_hi == 2 * rec.k * (2 * rec.n + rec.k + 1)
            assert rec.ratio == Fraction(2 * rec.n - rec.k + 1, 2 * rec.n + rec.k + 1)

    def test_z2_worst_pair_is_the_largest(self):
        profile = _lattice_profile(2, 16)
        report = shell_alpha(profile, k_min=5, n_max=8)
        assert report.alpha == Fraction(9, 25)
        assert (report.worst.n, report.worst.k) == (8, 8)
        assert report.pairs_tested == 10  # (n-4) pairs for n = 5..8

    def test_delta_and_constant_are_consistent(self, z2_profile):
        report = shell_alpha(z2_profile, k_min=5, n_max=16)
        assert report.delta == pytest.approx(math.log2(1 + float(report.alpha)))
        # the fitted constant makes the bound tight somewhere, valid everywhere
        sphere, ball = z2_profile.sphere, z2_profile.ball
        values = [sphere[n] * n**report.delta / ball[n] for n in range(1, 17)]
        assert report.fitted_constant == pytest.approx(max(values))

    def test_z1_alpha_is_one(self, z1_profile):
        # every shell has measure 2k, so all ratios are exactly 1
        report = shell_alpha(z1_profile, k_min=5, n_max=32)
        assert report.alpha == 1
        assert report.delta == 1.0

    def test_empty_outer_shells_are_skipped(self):
        # a deep profile on a finite path saturates; saturated pairs must not
        # drive alpha to zero
        from folnerlab.space import Graph

        path = Graph.from_edges(30, [(i, i + 1) for i in range(29)])
        profile = volume_profile(path, 0, 30)
        report = shell_alpha(profile, k_min=3, n_max=15)
        assert report.alpha > 0

    def test_shallow_profile_raises(self):
        profile = _lattice_profile(2, 8)
        with pytest.raises(ValueError, match="too shallow"):
            shell_alpha(profile, k_min=5, n_max=8)

    def test_bad_k_min(self, z2_profile):
        with pytest.raises(ValueError, match="k_min"):
            shell_alpha(z2_profile, k_min=0)


class TestDeltaFromAlpha:
    def test_landmark_values(self):
        assert delta_from_alpha(Fraction(1)) == 1.0
        assert delta_from_alpha(Fraction(3)) == 2.0
        assert delta_from_alpha(Fraction(0)) == 0.0

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            delta_from_alpha(-0.5)


class TestRecursionAudit:
    def test_z1_equality_chain(self, z1_profile):
        # b_i = 2 * 2^i doubles exactly, so alpha = 1 passes with equality
        audit = lemma_recursion_audit(z1_profile, 32, Fraction(1))
        assert audit.b == tuple(2 * 2**i for i in range(6))
        assert audit.passed

    def test_inflated_alpha_reports_violations(self, z1_profile):
        audit = lemma_recursion_audit(z1_profile, 32, Fraction(3, 2))
        assert audit.violations
        assert not audit.passed

    def test_final_bound_is_checked_on_the_data(self, z1_profile):
        # mu(S(32)) * (1 + alpha)^5 <= mu(B(32)) = 65: 2 * 2^5 = 64 holds,
        # 2 * (5/2)^5 > 195 does not.
        assert lemma_recursion_audit(z1_profile, 32, Fraction(1)).final_bound_ok
        audit = lemma_recursion_audit(z1_profile, 32, Fraction(3, 2))
        assert not audit.final_bound_ok

    def test_z2_measured_alpha_passes(self, z2_profile):
        report = shell_alpha(z2_profile, k_min=5, n_max=16)
        audit = lemma_recursion_audit(z2_profile, 16, report.alpha)
        assert audit.passed

    def test_tree_chain_alpha_zero_still_chains(self):
        # alpha = 0 only asserts monotonicity of the b_i, true everywhere
        g = stretched_tree_chain(TreeChainSpec(2, 3, 5))
        profile = volume_profile(g, g.basepoints["r_5"], 32)
        audit = lemma_recursion_audit(profile, 32, Fraction(0))
        assert audit.passed


class TestVerifySphereBound:
    def test_z2_true_delta_passes(self, z2_profile):
        report = shell_alpha(z2_profile, k_min=5, n_max=16)
        check = verify_sphere_bound(z2_profile, report.delta, n_range=(1, 31))
        assert check.passed
        assert check.trend_slope < 0  # constants decay, bound is slack
        # per-n constants are sphere[n] n^delta / ball[n]
        n = check.n_lo + 3
        expected = z2_profile.sphere[n] * n**report.delta / z2_profile.ball[n]
        assert check.constants[3] == pytest.approx(expected)

    def test_overclaimed_delta_fails(self, z2_profile):
        check = verify_sphere_bound(z2_profile, 1.5, n_range=(1, 31))
        assert not check.passed
        assert check.trend_slope > 0.05

    def test_fitted_constant_is_max(self, z2_profile):
        check = verify_sphere_bound(z2_profile, 0.4, n_range=(1, 31))
        assert check.fitted_constant == pytest.approx(max(check.constants))


class TestDyadicSubsequence:
    def test_z1_every_window_certified(self, z1_profile):
        selection = dyadic_subsequence(z1_profile, Fraction(2))
        assert selection.all_certified
        for rec in selection.records:
            assert 2**rec.i < rec.radius <= 2 ** (rec.i + 1)
            assert rec.sphere == 2
            assert rec.radius == 2**rec.i + 1  # ties break small
            assert rec.bound == 2 * Fraction(rec.ball, 2**rec.i)

    def test_window_count_respects_depth(self, z1_profile):
        # depth 64 admits windows up to (32, 64], needing ball[65]: excluded
        selection = dyadic_subsequence(z1_profile, Fraction(2))
        assert selection.records[-1].i == 4

    def test_i_max_truncates(self, z1_profile):
        selection = dyadic_subsequence(z1_profile, Fraction(2), i_max=2)
        assert [rec.i for rec in selection.records] == [0, 1, 2]

    def test_too_shallow_raises(self):
        profile = _lattice_profile(1, 2)
        with pytest.raises(ValueError, match="dyadic window"):
            dyadic_subsequence(profile, Fraction(2))

    def test_false_doubling_fails_certification(self, z2_profile):
        # with a deliberately tiny doubling constant the bound must break
        selection = dyadic_subsequence(z2_profile, Fraction(1, 100))
        assert not selection.all_certified


class TestAbelianIsop:
    def test_z2_closed_form_max(self):
        sizes = [2 * n * n + 2 * n + 1 for n in range(17)]
        got = abelian_isop_check(sizes)
        assert got == Fraction(15 * 64, 2 * 15**2 + 2 * 15 + 1)
        assert got < 2

    def test_n_max_restricts(self):
        sizes = [2 * n * n + 2 * n + 1 for n in range(17)]
        assert abelian_isop_check(sizes, n_max=1) == Fraction(8, 5)

    def test_exponential_growth_is_unbounded(self):
        sizes = [3**n for n in range(12)]
        assert abelian_isop_check(sizes) == Fraction(10 * (3**11 - 3**10), 3**10)

    def test_short_input_raises(self):
        with pytest.raises(ValueError):
            abelian_isop_check([1, 5])


class TestGrowthFit:
    def test_exact_power_law(self):
        sizes = [0] + [n**2 for n in range(1, 65)]
        fit = growth_exponent_fit(sizes)
        assert fit.exponent == pytest.approx(2.0, abs=1e-9)
        assert fit.residual_rms == pytest.approx(0.0, abs=1e-9)

    def test_explicit_dyadic_radii(self):
        sizes = [0] + [5 * n for n in range(1, 300)]
        radii = [2**i for i in range(3, 9)]
        fit = growth_exponent_fit(sizes, radii=radii, min_points=6)
        assert fit.exponent == pytest.approx(1.0, abs=1e-9)
        assert fit.radii == tuple(radii)

    def test_min_points_guard(self):
        with pytest.raises(ValueError, match="at least 8"):
            growth_exponent_fit([1, 3, 5, 7, 9])


class TestLeastSquaresSlope:
    def test_exact_line(self):
        xs = [1.0, 2.0, 3.0, 4.0]
        assert least_squares_slope(xs, [3 * x + 1 for x in xs]) == pytest.approx(3.0)
