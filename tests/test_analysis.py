"""
Tests for shell statistics, the recursion audit and the fit helpers.

Rank-two lattice balls satisfy mu(B(n)) = 2n^2 + 2n + 1, which makes every
shell statistic computable in closed form:

    c_{n-k,n} = 2k (2n - k + 1)        c_{n,n+k} = 2k (2n + k + 1)

so the worst ratio over k <= n <= n_max is (2n - k + 1) / (2n + k + 1) at the
largest admitted (n, k).  Those closed forms are the oracles here; the rank
one lattice (ball 2n + 1, all shells of size 2k) exercises the exact equality
cases of the audit.

`doubling_constant` compares its ratios on integers; the reference kept here
is the loop it replaced, the max of one `Fraction` per ratio.
"""

import math
import random
import tracemalloc
from fractions import Fraction
from itertools import accumulate

import pytest

from folnerlab import analysis
from folnerlab.analysis import (
    ShellRecord,
    ShellReport,
    delta_from_alpha,
    doubling_constant,
    dyadic_subsequence,
    fit_radii,
    growth_exponent_fit,
    isoperimetric_ratios,
    least_squares_slope,
    shell_alpha,
    verify_sphere_bound,
)
from folnerlab.config import validate_config
from folnerlab.generators import stretched_tree_chain, word_ball
from folnerlab.groups import zd_model
from folnerlab.recipes import recipe_document
from folnerlab.runner import build_space
from folnerlab.space import VolumeProfile, sample_centers, volume_profile
from recursion_audit import lemma_recursion_audit


def _lattice_profile(d: int, depth: int):
    return volume_profile(word_ball(zd_model(d), "standard", depth).graph, 0, depth)


@pytest.fixture(scope="module")
def z1_profile():
    return _lattice_profile(1, 64)


@pytest.fixture(scope="module")
def z2_profile():
    return _lattice_profile(2, 32)


class TestDoubling:
    def test_z2_exact_value(self, z2_profile):
        # max over r <= 8 of (8r^2 + 4r + 1) / (2r^2 + 2r + 1), at r = 8
        assert doubling_constant([z2_profile], 8) == Fraction(545, 145)

    def test_z1_approaches_two(self, z1_profile):
        c = doubling_constant([z1_profile], 32)
        assert Fraction(129, 65) == c  # (2*64+1)/(2*32+1)
        assert 1 < c < 2

    def test_depth_guard(self, z2_profile):
        with pytest.raises(ValueError, match="depth"):
            doubling_constant([z2_profile], 20)

    def test_depth_guard_names_the_first_shallow_center(self, z2_profile):
        shallow = VolumeProfile(center=7, ball=(1, 2, 3))
        message = "^profile at center 7 has depth 2, need 4 for r_max=2$"
        with pytest.raises(ValueError, match=message):
            doubling_constant([VolumeProfile(center=3, ball=(1,) * 5), shallow, z2_profile], 2)

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("scale", [1, 2**40, 2**64])
    def test_matches_the_fraction_reference(self, seed, scale):
        rng = random.Random(f"doubling/{seed}")
        r_max = rng.randint(1, 40)
        profiles = [
            _random_profile(rng, center, 2 * r_max + rng.randint(0, 5), scale)
            for center in range(rng.randint(1, 6))
        ]
        got = doubling_constant(profiles, r_max)
        assert type(got) is Fraction
        assert got == _reference_doubling(profiles, r_max)
        if scale == 2**64:
            assert max(p.ball[-1] for p in profiles) >= 2**63

    def test_tied_ratios(self):
        # every ratio is 2, from different counts at each center
        profiles = [VolumeProfile(center=c, ball=tuple(m * b for b in (1, 2, 4, 6, 8)))
                    for c, m in enumerate((1, 3, 2**70))]
        assert doubling_constant(profiles, 2) == _reference_doubling(profiles, 2) == 2
        profiles.append(VolumeProfile(center=9, ball=(1, 2, 3, 5, 10)))  # 10/3 at r = 2
        assert doubling_constant(profiles, 2) == Fraction(10, 3)

    def test_no_profiles(self):
        assert doubling_constant([], 4) == _reference_doubling([], 4) == 0


def _reference_doubling(profiles, r_max):
    best = Fraction(0)
    for p in profiles:
        for r in range(1, r_max + 1):
            best = max(best, Fraction(p.ball[2 * r], p.ball[r]))
    return best


def _random_profile(rng, center, depth, scale):
    """A nondecreasing profile whose ball steps are 0 or up to `scale` times 50."""
    steps = [rng.choice([0, rng.randint(1, 50) * scale + rng.randint(0, scale)]) for _ in range(depth)]
    return VolumeProfile(center=center, ball=tuple(accumulate(steps, initial=rng.randint(1, scale))))


class TestShellAlpha:
    def test_z2_ratios_match_closed_form(self, z2_profile):
        report = shell_alpha([z2_profile], k_min=5, n_max=12, record_all=True)
        for rec in report.records:
            assert rec.c_lo == 2 * rec.k * (2 * rec.n - rec.k + 1)
            assert rec.c_hi == 2 * rec.k * (2 * rec.n + rec.k + 1)
            assert rec.ratio == Fraction(2 * rec.n - rec.k + 1, 2 * rec.n + rec.k + 1)

    def test_z2_worst_pair_is_the_largest(self):
        profile = _lattice_profile(2, 16)
        report = shell_alpha([profile], k_min=5, n_max=8, record_all=False)
        assert report.alpha == Fraction(9, 25)
        assert (report.worst.n, report.worst.k) == (8, 8)
        assert report.pairs_tested == 10  # (n-4) pairs for n = 5..8

    def test_delta_and_constant_are_consistent(self, z2_profile):
        report = shell_alpha([z2_profile], k_min=5, n_max=16, record_all=False)
        assert report.delta == pytest.approx(math.log2(1 + float(report.alpha)))
        # the fitted constant makes the bound tight somewhere, valid everywhere
        sphere, ball = z2_profile.sphere, z2_profile.ball
        values = [sphere[n] * n**report.delta / ball[n] for n in range(1, 17)]
        assert report.fitted_constant == pytest.approx(max(values))

    def test_z1_alpha_is_one(self, z1_profile):
        # every shell has measure 2k, so all ratios are exactly 1
        report = shell_alpha([z1_profile], k_min=5, n_max=32, record_all=False)
        assert report.alpha == 1
        assert report.delta == 1.0

    def test_empty_outer_shells_are_skipped(self):
        # a deep profile on a finite path saturates; saturated pairs must not
        # drive alpha to zero
        from folnerlab.space import Graph

        path = Graph.from_edges(30, [(i, i + 1) for i in range(29)])
        profile = volume_profile(path, 0, 30)
        report = shell_alpha([profile], k_min=3, n_max=15, record_all=False)
        assert report.alpha > 0

    def test_shallow_profile_raises(self):
        profile = _lattice_profile(2, 8)
        with pytest.raises(ValueError, match="too shallow"):
            shell_alpha([profile], k_min=5, n_max=8, record_all=False)

    def test_bad_k_min(self, z2_profile):
        with pytest.raises(ValueError, match="k_min"):
            shell_alpha([z2_profile], k_min=0, n_max=16, record_all=False)

    @pytest.mark.parametrize("d, n_max", [(2, 16), (2, 64), (2, 256), (2, 4000), (1, 400)])
    def test_lattice_closed_forms_past_the_reference(self, d, n_max):
        # Z^2, B(n) = 2n^2 + 2n + 1: the least ratio is (n + 1) / (3n + 1) at
        # k = n = n_max.  Z^1, B(n) = 2n + 1: every ratio is 1, and the first
        # pair (5, 5), which the sweep meets last, holds it.
        ball = tuple(2 * n * n + 2 * n + 1 if d == 2 else 2 * n + 1 for n in range(2 * n_max + 1))
        report = shell_alpha([VolumeProfile(0, ball)], k_min=5, n_max=n_max, record_all=False)
        expected = (Fraction(n_max + 1, 3 * n_max + 1), n_max, n_max) if d == 2 else (1, 5, 5)
        assert (report.alpha, report.worst.n, report.worst.k) == expected

    @pytest.mark.parametrize("name", ["theorem-zd", "theorem-heisenberg", "counterexample-remark-ab"])
    def test_recipe_alpha_falls_with_n_max_and_stays_below_the_k_eq_n_ratio(self, name):
        # alpha(n_max) is an infimum over a set of pairs that grows with
        # n_max, and the pair k = n is admitted whenever its outer shell is
        # nonempty: (B(n) - B(0)) / (B(2n) - B(n)) bounds alpha from above
        config = validate_config(recipe_document(name))
        built = build_space(config)
        profiles = [built.profile(v, config.depth) for v in sorted(set(built.basepoints.values()))]
        k_min, top = config.analyses["shell"]["k_min"], config.analyses["shell"]["n_max"]
        alphas = []
        for n_max in (max(k_min, top // 4), top // 2, 3 * top // 4, top):
            alpha = shell_alpha(profiles, k_min, n_max, record_all=False).alpha
            for p in profiles:
                for n in range(k_min, n_max + 1):
                    if p.ball[2 * n] > p.ball[n]:
                        assert alpha <= Fraction(p.ball[n] - p.ball[0], p.ball[2 * n] - p.ball[n]), (n_max, p.center, n)
            alphas.append(alpha)
        assert alphas == sorted(alphas, reverse=True), alphas


def _sphere_constants(profiles, delta, radii):
    """The pure-Python per-radius constants `analysis._sphere_constants`
    replaced: the max over centers of mu(S(x,n)) n^delta / mu(B(x,n))."""
    return [max(p.sphere[n] * n**delta / p.ball[n] for p in profiles) for n in radii]


def _reference_shell_alpha(profiles, k_min, n_max, record_all):
    """The pure-Python sweep `shell_alpha` replaced: every (center, n, k) in
    order, the running minimum kept by integer cross-multiplication."""
    profs = (profiles,) if isinstance(profiles, VolumeProfile) else tuple(profiles)
    if k_min < 1:
        raise ValueError("k_min must be positive")
    depth = min(p.depth for p in profs)
    if n_max + k_min > depth:
        raise ValueError(
            f"profiles too shallow: depth {depth} < n_max + k_min = {n_max + k_min}"
        )
    best = worst = None
    records = []
    tested = 0
    for p in profs:
        ball = p.ball
        for n in range(k_min, n_max + 1):
            for k in range(k_min, min(n, depth - n) + 1):
                c_lo = ball[n] - ball[n - k]
                c_hi = ball[n + k] - ball[n]
                if c_hi == 0:
                    if record_all:
                        records.append(ShellRecord(p.center, n, k, c_lo, c_hi, None))
                    continue
                tested += 1
                if record_all:
                    records.append(
                        ShellRecord(p.center, n, k, c_lo, c_hi, Fraction(c_lo, c_hi))
                    )
                if best is None or c_lo * best[1] < best[0] * c_hi:
                    best = (c_lo, c_hi)
                    worst = ShellRecord(p.center, n, k, c_lo, c_hi, Fraction(c_lo, c_hi))
    if best is None:
        raise ValueError("no admissible shell pair in the requested range")
    alpha = Fraction(best[0], best[1])
    delta = delta_from_alpha(alpha)
    fitted = max(_sphere_constants(profs, delta, range(1, n_max + 1)))
    return ShellReport(
        n_max=n_max,
        alpha=alpha,
        delta=delta,
        fitted_constant=fitted,
        pairs_tested=tested,
        worst=worst,
        records=tuple(records) if record_all else (worst,),
    )


_TOP = 2**63 - 1  # the largest count the sweep accepts


def _random_ball(rng: random.Random, depth: int) -> tuple[int, ...]:
    """A nondecreasing ball of depth `depth`: small steps with ties and a
    saturated tail, steady steps (every ratio 1), or huge nearly equal steps
    around 2^53 and up to just under 2^63."""
    kind = rng.choice(("small", "saturated", "steady", "near-2^53", "huge"))
    if kind == "small":
        start, steps = rng.randint(1, 3), [rng.choice((0, 1, 1, 2, 3)) for _ in range(depth)]
    elif kind == "saturated":
        stop = rng.randint(0, depth)
        start, steps = 1, [rng.randint(1, 4) if r < stop else 0 for r in range(depth)]
    elif kind == "steady":
        start, steps = rng.randint(1, 5), [rng.choice((2, 4))] * depth
    elif kind == "near-2^53":  # counts cross 2^53
        step = rng.randint(2**49 // depth, 2**50 // depth)
        start = 2**53 - rng.randint(0, 2**50)
        steps = [step + rng.randint(-2, 2) for _ in range(depth)]
    else:
        step = rng.randint(_TOP // (4 * depth), _TOP // (2 * depth) - 2)
        start = rng.randint(1, _TOP // 4)
        steps = [step + rng.randint(-2, 2) for _ in range(depth)]
        if kind == "huge" and rng.random() < 0.5:
            steps[-1] = 0  # leave room for the last count to be exactly _TOP
            start = _TOP - sum(steps)
    return tuple(accumulate([start] + steps))


def _random_case(rng: random.Random):
    depth = rng.randint(2, 24)
    # 1 to 4 centers of depths at least `depth`; a repeated ball ties across centers
    balls = [_random_ball(rng, depth + rng.choice((0, 0, 1, 3)))]
    for _ in range(rng.randint(0, 3)):
        balls.append(rng.choice(balls) if rng.random() < 0.3 else _random_ball(rng, depth + rng.randint(0, 3)))
    profiles = [VolumeProfile(center=rng.randint(0, 99), ball=ball) for ball in balls]
    k_min = rng.choice((1, 1, 2, 3, 5))
    half = min(p.depth for p in profiles) // 2  # the analysis table's default
    n_max = rng.choice((half, rng.randint(0, depth)))  # some admit no pair, some too many
    return profiles, k_min, n_max, rng.random() < 0.5


def _outcome(sweep, *args):
    try:
        return sweep(*args)
    except ValueError as exc:
        return str(exc)


class TestShellSweepMatchesReference:
    """`shell_alpha` against the loop it replaced: whole reports, and error
    texts where both raise, on seeded random profiles, with cells narrow
    enough to split n-rows, chunks of one cell or a few and groups of cells
    that split n-rows."""

    # (cell width, chunk size, cells per group): a chunk is at least one
    # cell, so a chunk size below the width settles one cell at a time
    @pytest.mark.parametrize(
        "width, chunk, cells",
        [(1, 1, 1), (1, 50, 3), (3, 2, 1), (3, 7, 2), (5, 50, 4), (analysis.SHELL_WIDTH, analysis.SHELL_CHUNK, analysis.SHELL_CELLS)],
    )
    @pytest.mark.parametrize("seed", [1, 3, 50, 32768])
    def test_random_profiles(self, seed, width, chunk, cells, monkeypatch):
        monkeypatch.setattr(analysis, "SHELL_WIDTH", width)
        monkeypatch.setattr(analysis, "SHELL_CHUNK", chunk)
        monkeypatch.setattr(analysis, "SHELL_CELLS", cells)
        rng = random.Random(seed)
        for _ in range(150):
            case = _random_case(rng)
            assert _outcome(shell_alpha, *case) == _outcome(_reference_shell_alpha, *case), case

    @pytest.mark.parametrize("cells", [1, 64])
    def test_ties_go_to_the_first_pair(self, cells, monkeypatch):
        monkeypatch.setattr(analysis, "SHELL_WIDTH", 3)
        monkeypatch.setattr(analysis, "SHELL_CHUNK", 3)
        monkeypatch.setattr(analysis, "SHELL_CELLS", cells)
        steady = tuple(range(1, 42, 2))  # every ratio is 1
        report = shell_alpha([VolumeProfile(7, steady), VolumeProfile(3, steady)], k_min=2, n_max=9, record_all=False)
        assert (report.worst.center, report.worst.n, report.worst.k) == (7, 2, 2)
        assert report.pairs_tested == 2 * sum(min(n, 20 - n) - 1 for n in range(2, 10))

    @pytest.mark.parametrize("chunk, cells", [(2, 1), (64, 1), (64, 64)])
    def test_a_first_tie_in_a_later_cell_beats_a_later_n(self, chunk, cells, monkeypatch):
        # with cells of two widths, (5, 5) lies in the third cell of n = 5
        # and (6, 2) in the first of n = 6; both ratios are 3/8, the least
        monkeypatch.setattr(analysis, "SHELL_WIDTH", 2)
        monkeypatch.setattr(analysis, "SHELL_CHUNK", chunk)
        monkeypatch.setattr(analysis, "SHELL_CELLS", cells)
        ball = (1, 2, 3, 4, 6, 7, 9, 13, 17, 19, 23, 26, 29)
        assert Fraction(ball[5] - ball[0], ball[10] - ball[5]) == Fraction(ball[6] - ball[4], ball[8] - ball[6]) == Fraction(3, 8)
        profiles = [VolumeProfile(4, ball), VolumeProfile(9, ball)]
        report = shell_alpha(profiles, k_min=1, n_max=6, record_all=False)
        assert report == _reference_shell_alpha(profiles, k_min=1, n_max=6, record_all=False)
        assert (report.worst.center, report.worst.n, report.worst.k, report.alpha) == (4, 5, 5, Fraction(3, 8))

    @pytest.mark.parametrize("cells", [1, 2, 64])
    def test_a_tie_at_a_smaller_n_of_a_later_center_loses(self, cells, monkeypatch):
        # both balls' least ratio is 1/4: the first center's at (5, 1), the
        # second's at (1, 1), which a group of cells meets first
        monkeypatch.setattr(analysis, "SHELL_WIDTH", 1)
        monkeypatch.setattr(analysis, "SHELL_CELLS", cells)
        first = VolumeProfile(4, (1, 5, 9, 13, 17, 18, 22, 23, 26, 30, 31))
        later = VolumeProfile(9, (1, 2, 6, 7, 8, 9, 10, 11, 12, 15, 18))
        assert _reference_shell_alpha(later, k_min=1, n_max=5, record_all=False).worst.n == 1
        report = shell_alpha([first, later], k_min=1, n_max=5, record_all=False)
        assert report == _reference_shell_alpha([first, later], k_min=1, n_max=5, record_all=False)
        assert (report.worst.center, report.worst.n, report.worst.k, report.alpha) == (4, 5, 1, Fraction(1, 4))

    def test_sphere_constants_are_those_of_the_profiles(self):
        # bit for bit, the pure-Python constants, through the sweep's
        # fitted constant and through `verify_sphere_bound`
        rng = random.Random(7)
        checked = 0
        while checked < 100:
            profiles, k_min, n_max, _ = _random_case(rng)
            report = _outcome(shell_alpha, profiles, k_min, n_max, False)
            if isinstance(report, str) or n_max < 2:
                continue
            expected = _sphere_constants(profiles, report.delta, range(1, n_max + 1))
            assert report.fitted_constant == max(expected), (profiles, k_min, n_max)
            check = verify_sphere_bound(profiles, report.delta, (1, n_max), 0.05)
            assert check.constants == tuple(expected), (profiles, k_min, n_max)
            assert check.fitted_constant == max(expected)
            checked += 1

    def test_ratios_apart_by_less_than_a_float_step(self):
        # c_lo / c_hi = (s - 1) / s and s / (s + 1) for s near 2^60: equal as
        # float64, and the exact minimum comes second
        s = 2**60
        ball = (1, 1 + s, 1 + 2 * s - 1, 1 + 3 * s - 1, 1 + 4 * s)
        assert float(Fraction(s - 1, s)) == float(Fraction(s, s + 1))
        report = shell_alpha([VolumeProfile(0, ball)], k_min=1, n_max=2, record_all=False)
        assert report == _reference_shell_alpha(VolumeProfile(0, ball), k_min=1, n_max=2, record_all=False)
        assert report.alpha == Fraction(s - 1, s)

    def test_equal_ratios_whose_floats_differ_go_to_the_first(self):
        # shells a^2 m, a b m, b^2 m: c(1,1) and c(2,1) are both a / b
        # exactly, but above 2^53 the second one's float is the smaller
        a, b, m = 1981464, 1998071, 67434
        shells = (a * a * m, a * b * m, b * b * m, 0)
        ball = tuple(accumulate((1,) + shells))
        assert float(shells[0]) / float(shells[1]) > float(shells[1]) / float(shells[2])
        report = shell_alpha([VolumeProfile(0, ball)], k_min=1, n_max=2, record_all=False)
        assert report == _reference_shell_alpha(VolumeProfile(0, ball), k_min=1, n_max=2, record_all=False)
        assert (report.worst.n, report.worst.k, report.alpha) == (1, 1, Fraction(a, b))

    def test_counts_from_2_pow_63_are_refused(self):
        ok = VolumeProfile(0, (1, 2, 3, 4))
        big = VolumeProfile(5, (1, 2, 3, 2**63))
        with pytest.raises(ValueError, match=r"center 5 counts 9223372036854775808 vertices within depth 3"):
            shell_alpha([ok, big], k_min=1, n_max=1, record_all=False)
        # only counts within the shared depth enter the sweep
        deeper = VolumeProfile(5, (1, 2, 3, 4, 2**63))
        assert shell_alpha([ok, deeper], k_min=1, n_max=1, record_all=False) == _reference_shell_alpha(
            [ok, deeper], k_min=1, n_max=1, record_all=False
        )

    def test_sweep_memory_stays_within_its_blocks(self):
        # 20 centers at depth 1460 with n_max 700, the size of the tree-chain
        # batch: 4.85M pairs.  Steady balls tie every pair of a block; whole
        # arrays of one center's pairs alone would take about 2 MiB each.
        rng = random.Random(0)
        steps = [[2] * 1460 if c % 2 else [rng.randint(1, 3) for _ in range(1460)] for c in range(20)]
        profiles = [VolumeProfile(c, tuple(accumulate([1] + steps[c]))) for c in range(20)]
        tracemalloc.start()
        try:
            report = shell_alpha(profiles, k_min=5, n_max=700, record_all=False)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.pairs_tested == 20 * analysis.shell_pair_count(5, 700, 1460) == 4_851_120
        assert peak < 4 * 2**20, peak

    def test_memory_stays_within_its_chunks_when_every_cell_is_kept(self):
        # every ratio is 1 and no cell's bound rules it out: every pair is
        # settled, one chunk at a time
        profiles = [VolumeProfile(c, tuple(range(1, 2 * 1461, 2))) for c in range(20)]
        tracemalloc.start()
        try:
            report = shell_alpha(profiles, k_min=5, n_max=700, record_all=False)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (report.alpha, report.worst.center, report.worst.n, report.worst.k) == (1, 0, 5, 5)
        assert report.pairs_tested == 4_851_120
        assert peak < 4 * 2**20, peak

    def test_memory_does_not_grow_with_the_depth(self):
        # one steady center at depth 8000 and n_max 4000: 501,000 cells and
        # 7,986,006 pairs, every one settled; whole arrays of the cells alone
        # would take about 4 MiB each
        profiles = [VolumeProfile(0, tuple(range(1, 2 * 8001, 2)))]
        tracemalloc.start()
        try:
            report = shell_alpha(profiles, k_min=5, n_max=4000, record_all=False)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (report.alpha, report.worst.n, report.worst.k) == (1, 5, 5)
        assert report.pairs_tested == analysis.shell_pair_count(5, 4000, 8000)
        assert peak < 4 * 2**20, peak

    def test_the_bound_settles_few_pairs_of_a_tree_chain(self, monkeypatch):
        # the tree chain of the benchmark's sampled job: 20 seeded centers,
        # depth 1460, n_max 700; count the pairs that reach `_block_least`
        graph = stretched_tree_chain(3, 2, 7)
        centers = sample_centers(graph.vertex_count, graph.basepoints, 20, 0)
        profiles = [volume_profile(graph, v, 1460) for v in centers]
        settled = []
        block_least = analysis._block_least
        monkeypatch.setattr(
            analysis, "_block_least", lambda c_lo, c_hi, bound: settled.append(len(c_lo)) or block_least(c_lo, c_hi, bound)
        )
        report = shell_alpha(profiles, k_min=5, n_max=700, record_all=False)
        monkeypatch.setattr(analysis, "_block_least", block_least)
        assert report == _reference_shell_alpha(profiles, k_min=5, n_max=700, record_all=False)
        assert report.pairs_tested == 4_851_120
        assert sum(settled) < 0.02 * report.pairs_tested, sum(settled)


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
        report = shell_alpha([z2_profile], k_min=5, n_max=16, record_all=False)
        audit = lemma_recursion_audit(z2_profile, 16, report.alpha)
        assert audit.passed

    def test_tree_chain_alpha_zero_still_chains(self):
        # alpha = 0 only asserts monotonicity of the b_i, true everywhere
        g = stretched_tree_chain(2, 3, 5)
        profile = volume_profile(g, g.basepoints["r_5"], 32)
        audit = lemma_recursion_audit(profile, 32, Fraction(0))
        assert audit.passed


class TestVerifySphereBound:
    def test_z2_true_delta_passes(self, z2_profile):
        report = shell_alpha([z2_profile], k_min=5, n_max=16, record_all=False)
        check = verify_sphere_bound([z2_profile], report.delta, n_range=(1, 31), slope_tolerance=0.05)
        assert check.passed
        assert check.trend_slope < 0  # constants decay, bound is slack
        # per-n constants are sphere[n] n^delta / ball[n]
        n = check.n_lo + 3
        expected = z2_profile.sphere[n] * n**report.delta / z2_profile.ball[n]
        assert check.constants[3] == pytest.approx(expected)

    def test_overclaimed_delta_fails(self, z2_profile):
        check = verify_sphere_bound([z2_profile], 1.5, n_range=(1, 31), slope_tolerance=0.05)
        assert not check.passed
        assert check.trend_slope > 0.05

    def test_fitted_constant_is_max(self, z2_profile):
        check = verify_sphere_bound([z2_profile], 0.4, n_range=(1, 31), slope_tolerance=0.05)
        assert check.fitted_constant == pytest.approx(max(check.constants))

    def test_counts_from_2_pow_63_are_refused(self):
        big = VolumeProfile(0, (1, 2, 3, 4, 2**63))
        with pytest.raises(ValueError, match=r"center 0 counts 9223372036854775808 vertices within depth 4"):
            verify_sphere_bound([big], 0.5, n_range=(1, 3), slope_tolerance=0.05)
        # only counts up to radius n_hi + 1 enter the check
        assert verify_sphere_bound([big], 0.5, n_range=(1, 2), slope_tolerance=0.05).constants == (0.5, 2 ** 0.5 / 3)


class TestDyadicSubsequence:
    def test_z1_every_window_certified(self, z1_profile):
        records = dyadic_subsequence(z1_profile, Fraction(2))
        assert all(rec.certified for rec in records)
        for rec in records:
            assert 2**rec.i < rec.radius <= 2 ** (rec.i + 1)
            assert rec.sphere == 2
            assert rec.radius == 2**rec.i + 1  # ties break small
            assert rec.bound == 2 * Fraction(rec.ball, 2**rec.i)

    def test_window_count_respects_depth(self, z1_profile):
        # depth 64 admits windows up to (32, 64], needing ball[65]: excluded
        records = dyadic_subsequence(z1_profile, Fraction(2))
        assert records[-1].i == 4

    def test_i_max_truncates(self, z1_profile):
        records = dyadic_subsequence(z1_profile, Fraction(2), i_max=2)
        assert [rec.i for rec in records] == [0, 1, 2]

    def test_too_shallow_raises(self):
        profile = _lattice_profile(1, 2)
        with pytest.raises(ValueError, match="dyadic window"):
            dyadic_subsequence(profile, Fraction(2))

    def test_false_doubling_fails_certification(self, z2_profile):
        # with a deliberately tiny doubling constant the bound must break
        records = dyadic_subsequence(z2_profile, Fraction(1, 100))
        assert not all(rec.certified for rec in records)


class TestAbelianIsop:
    def test_z2_closed_form_max(self):
        sizes = [2 * n * n + 2 * n + 1 for n in range(17)]
        got = max(isoperimetric_ratios(sizes))
        assert got == Fraction(15 * 64, 2 * 15**2 + 2 * 15 + 1)
        assert got < 2

    def test_n_max_restricts(self):
        sizes = [2 * n * n + 2 * n + 1 for n in range(17)]
        assert max(isoperimetric_ratios(sizes, n_max=1)) == Fraction(8, 5)

    def test_exponential_growth_is_unbounded(self):
        sizes = [3**n for n in range(12)]
        assert max(isoperimetric_ratios(sizes)) == Fraction(10 * (3**11 - 3**10), 3**10)

    def test_short_input_raises(self):
        with pytest.raises(ValueError):
            isoperimetric_ratios([1, 5])


class TestGrowthFit:
    def test_exact_power_law(self):
        sizes = [0] + [n**2 for n in range(1, 65)]
        fit = growth_exponent_fit(sizes, fit_radii(64, False), 8)
        assert fit["exponent"] == pytest.approx(2.0, abs=1e-9)
        assert fit["residual_rms"] == pytest.approx(0.0, abs=1e-9)

    def test_explicit_dyadic_radii(self):
        # Linear at the powers of 2 only, so only a fit at exactly those
        # radii has exponent 1 and no residual.
        sizes = [0] + [5 * n if n & (n - 1) == 0 else n**3 for n in range(1, 300)]
        radii = [2**i for i in range(3, 9)]
        fit = growth_exponent_fit(sizes, radii=radii, min_points=6)
        assert fit["exponent"] == pytest.approx(1.0, abs=1e-9)
        assert fit["residual_rms"] == pytest.approx(0.0, abs=1e-9)
        assert growth_exponent_fit(sizes, fit_radii(299, False), 6)["residual_rms"] > 0.1

    def test_min_points_guard(self):
        with pytest.raises(ValueError, match="at least 8"):
            growth_exponent_fit([1, 3, 5, 7, 9], fit_radii(4, False), 8)


class TestLeastSquaresSlope:
    def test_exact_line(self):
        xs = [1.0, 2.0, 3.0, 4.0]
        assert least_squares_slope(xs, [3 * x + 1 for x in xs]) == pytest.approx(3.0)
