"""
Acceptance suite: eleven checks covering the headline claims end to end.

Each test is one criterion and prints one summary line; shared builds
(word balls, tree chains) live in module-scoped fixtures, requested inside
the timed sections so the reported runtimes include construction.

Centers named r_k are block roots of a stretched-tree chain; the sphere
spike at such a root sits at the radius whose 1-sphere catches the block's
last generation (distance 2^k - 1, so radius 2^k - 2 with the convention
S(x, r) = B(x, r+1) minus B(x, r)).
"""

import itertools
import json
import math
import subprocess
import sys
import time
from fractions import Fraction

import numpy as np
import pytest

from folnerlab.analysis import (
    doubling_constant,
    dyadic_subsequence,
    growth_exponent_fit,
    isoperimetric_ratios,
    least_squares_slope,
    shell_alpha,
    verify_sphere_bound,
)
from folnerlab.ergodic import GOLDEN_ANGLES, ergodic_trace
from folnerlab.generators import (
    norm_profile,
    stairway_strip,
    stretched_tree_chain,
    word_ball,
)
from folnerlab.groups import heisenberg_model, zd_model
from folnerlab.products import (
    folner_ratios,
    product_powers,
    shell_inclusion_check,
    varying_products,
)
from folnerlab.space import monotone_geodesic, volume_profile
from recursion_audit import lemma_recursion_audit


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num:02d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


# -- shared builds -----------------------------------------------------------


@pytest.fixture(scope="module")
def chain238():
    return stretched_tree_chain(2, 3, 8)


@pytest.fixture(scope="module")
def z2_64_profile():
    ball = word_ball(zd_model(2), "standard", 64)
    return volume_profile(ball.graph, 0, 64)


@pytest.fixture(scope="module")
def z2_260_profile():
    ball = word_ball(zd_model(2), "standard", 260)
    return volume_profile(ball.graph, 0, 260)


@pytest.fixture(scope="module")
def h3_ball():
    # radius 35 so that dyadic windows up to (16, 32] close; radii <= 32
    # agree with any larger build, word balls being nested
    return word_ball(heisenberg_model(), "standard", 35)


@pytest.fixture(scope="module")
def h3_profile(h3_ball):
    return volume_profile(h3_ball.graph, 0, 35)


# -- criteria ----------------------------------------------------------------


def test_criterion_01_tree_sphere_spike(request):
    start = time.monotonic()
    g = request.getfixturevalue("chain238")
    ratios = []
    for k in range(3, 8):
        p = volume_profile(g, g.basepoints[f"r_{k}"], 2**k)
        spike = p.sphere[2**k - 2]
        ratio = Fraction(spike, p.ball[2**k - 2])
        assert spike >= 3**k
        assert ratio >= Fraction(1, 8)
        assert Fraction(spike, p.ball[2**k]) >= Fraction(1, 8)
        assert p.ball[2**k] <= 8 * 3**k
        leaf = volume_profile(g, g.basepoints[f"leaf_{k}"], 2**k)
        assert leaf.ball[2**k] <= 8 * 3**k
        ratios.append(float(ratio))
    elapsed = time.monotonic() - start
    assert elapsed < 60
    _report(
        1,
        True,
        f"(2,3,8) chain spike ratios {[round(r, 3) for r in ratios]} >= 1/8, "
        f"balls <= 8*3^k, {elapsed:.1f}s",
    )


def test_criterion_02_slow_stretch_regime():
    g = stretched_tree_chain(3, 2, 7)
    roots = sorted({g.basepoints[f"r_{n}"] for n in range(1, 8)} | {g.basepoints["rp_7"]})
    leaves = [g.basepoints[f"leaf_{n}"] for n in range(1, 8)]
    centers = sorted(set(roots) | set(leaves))
    profiles = [volume_profile(g, v, 1460) for v in centers]

    coarse = doubling_constant(profiles, 3**4)
    fine = doubling_constant(profiles, 3**6)
    assert fine <= 2 * coarse

    constants = []
    for n in range(3, 7):
        chain = monotone_geodesic(
            g, g.basepoints[f"r_{n + 1}"], g.basepoints[f"leaf_{n + 1}"]
        )
        x = chain[(3**n + 3) // 2]
        p = volume_profile(g, x, 3**n + 1)
        constants.append(p.sphere[3**n] / 2**n)
    assert min(constants) > 0
    assert max(constants) / min(constants) <= 1.25

    report = shell_alpha(profiles, k_min=5, n_max=730, record_all=False)
    threshold = 1 - math.log(2) / math.log(3) + 0.1
    assert report.alpha > 0
    assert report.delta <= threshold
    _report(
        2,
        True,
        f"(3,2) chain: doubling {float(fine):.2f} <= 2*{float(coarse):.2f}, "
        f"sphere constants {[round(c, 3) for c in constants]}, "
        f"delta {report.delta:.3f} <= {threshold:.3f}",
    )


def test_criterion_03_decay_pipeline(request, z2_64_profile):
    start = time.monotonic()

    z2 = shell_alpha([z2_64_profile], k_min=5, n_max=32, record_all=False)
    assert z2.alpha == Fraction(33, 97)
    z2_verify = verify_sphere_bound([z2_64_profile], z2.delta, n_range=(1, 63), slope_tolerance=0.05)
    assert z2_verify.passed
    z2_audit = lemma_recursion_audit(z2_64_profile, 32, z2.alpha)
    assert z2_audit.passed and not z2_audit.violations

    h3_profile = request.getfixturevalue("h3_profile")
    h3 = shell_alpha([h3_profile], k_min=5, n_max=16, record_all=False)
    assert h3.alpha == Fraction(3488, 52383)
    h3_verify = verify_sphere_bound([h3_profile], h3.delta, n_range=(1, 31), slope_tolerance=0.05)
    assert h3_verify.passed
    h3_audit = lemma_recursion_audit(h3_profile, 16, h3.alpha)
    assert h3_audit.passed and not h3_audit.violations

    elapsed = time.monotonic() - start
    assert elapsed < 300
    _report(
        3,
        True,
        f"Z^2 alpha 33/97 slope {z2_verify.trend_slope:.3f}, "
        f"H3 alpha {float(h3.alpha):.4f} slope {h3_verify.trend_slope:.3f}, "
        f"audits clean, {elapsed:.1f}s",
    )


def test_criterion_04_exact_oracles(z2_64_profile):
    for d, r_max in ((1, 10), (2, 10), (3, 10)):
        profile = volume_profile(word_ball(zd_model(d), "standard", r_max).graph, 0, r_max)
        seq = product_powers(zd_model(d), "standard", r_max)
        for n in range(r_max + 1):
            count = sum(
                1
                for p in itertools.product(range(-n, n + 1), repeat=d)
                if sum(map(abs, p)) <= n
            )
            assert profile.ball[n] == count == seq.sizes[n]

    gens = [
        np.array([[1, x, 0], [0, 1, y], [0, 0, 1]], dtype=np.int64)
        for x, y in ((1, 0), (-1, 0), (0, 1), (0, -1))
    ]
    reached = {(0, 0, 0)}
    frontier = [np.eye(3, dtype=np.int64)]
    word_sizes = [1]
    for _ in range(5):
        new = []
        for m in frontier:
            for s in gens:
                p = m @ s
                key = (int(p[0, 1]), int(p[1, 2]), int(p[0, 2]))
                if key not in reached:
                    reached.add(key)
                    new.append(p)
        word_sizes.append(len(reached))
        frontier = new
    h3 = volume_profile(word_ball(heisenberg_model(), "standard", 5).graph, 0, 5)
    assert list(h3.ball) == word_sizes

    for n in range(65):
        assert z2_64_profile.ball[n] == 2 * n * n + 2 * n + 1
    _report(4, True, "lattice d<=3, Heisenberg R<=5 and Z^2 closed form all match")


def test_criterion_05_shell_factoring():
    sequence = product_powers(zd_model(2), "standard", 20 + 12)
    checked = 0
    for k in (4, 8, 12):
        for n in range(k, 21):
            [(forward, backward)] = shell_inclusion_check(
                sequence, [(n, k)], element_budget=5_000_000
            )
            assert forward, (n, k)
            assert backward, (n, k)
            checked += 1
    _report(5, True, f"{checked} exact inclusions hold for n <= 20, k in 4/8/12")


def test_criterion_06_varying_products():
    model = zd_model(2)
    inner = list(model.generating_set("standard"))
    outer = inner + [(1, 1), (-1, -1), (1, -1), (-1, 1), (0, 0)]
    factors = [inner if n % 2 else outer for n in range(65)]
    seq = varying_products(model, factors, inner, outer)
    ratios = folner_ratios(seq)
    ns = range(16, 65)
    slope = least_squares_slope(
        [math.log(n) for n in ns], [math.log(float(ratios[n])) for n in ns]
    )
    delta = -slope
    assert delta > 0.5
    _report(6, True, f"alternating products: ratio decay exponent {delta:.3f} > 0.5")


def test_criterion_07_dyadic_certificates(request, z2_260_profile):
    cases = []

    z1 = volume_profile(word_ball(zd_model(1), "standard", 260).graph, 0, 260)
    cases.append(("Z^1", [z1], 7))
    cases.append(("Z^2", [z2_260_profile], 7))
    z3 = volume_profile(word_ball(zd_model(3), "standard", 66).graph, 0, 66)
    cases.append(("Z^3", [z3], 5))
    h3 = request.getfixturevalue("h3_profile")
    cases.append(("H3", [h3], 4))

    chain = request.getfixturevalue("chain238")
    roots = sorted({chain.basepoints[f"r_{n}"] for n in range(1, 9)})
    tree_profiles = [volume_profile(chain, v, 260) for v in roots]
    cases.append(("tree chain", tree_profiles, 7))

    details = []
    for name, profiles, i_top in cases:
        slack = 2 * doubling_constant(profiles, min(p.depth for p in profiles) // 2)
        for p in profiles:
            records = dyadic_subsequence(p, slack, i_max=i_top)
            assert all(rec.certified for rec in records), (name, p.center)
            assert records[-1].i == i_top, (name, p.center)
        details.append(f"{name} i<={i_top}")
    _report(7, True, "2*C_D certificates hold: " + ", ".join(details))


def test_criterion_08_abelian_boundary(z2_260_profile):
    symmetric = max(isoperimetric_ratios(z2_260_profile.ball, n_max=128))
    assert symmetric <= 3

    model = zd_model(2)
    seq = product_powers(model, [(1, 0), (0, 1), (-1, -1)], 130)
    skew = max(isoperimetric_ratios(seq.sizes, n_max=128))
    assert skew <= 3
    _report(
        8,
        True,
        f"n*sphere/ball max: symmetric {float(symmetric):.4f}, "
        f"non-symmetric {float(skew):.4f}, both <= 3",
    )


def test_criterion_09_stairway():
    strip = stairway_strip(10)
    profile = norm_profile(strip, 1025)
    fit = growth_exponent_fit(profile.ball, radii=[2**i for i in range(3, 11)], min_points=8)
    assert abs(fit["exponent"] - 1.0) <= 0.15
    spikes = [profile.sphere[2**k] for k in range(4, 10)]
    for k, spike in zip(range(4, 10), spikes):
        assert spike >= 2**k
    _report(
        9,
        True,
        f"stairway growth exponent {fit['exponent']:.3f}, spikes {spikes} >= 2^k",
    )


def test_criterion_10_ergodic():
    start = time.monotonic()
    seq = product_powers(zd_model(2), "standard", 200, ordered=True)

    trace = ergodic_trace(GOLDEN_ANGLES, seq, "cos_x", (0.1, 0.2))
    assert trace.final_error < 0.05

    theta = GOLDEN_ANGLES[0]
    for n in range(1, 101):
        kernel = sum(
            (2 * (n - abs(a)) + 1) * math.cos(2 * math.pi * a * theta)
            for a in range(-n, n + 1)
        )
        oracle = math.cos(2 * math.pi * 0.1) * kernel / (2 * n * n + 2 * n + 1)
        assert abs(trace.averages[n] - oracle) <= 1e-8

    flat = ergodic_trace(GOLDEN_ANGLES, seq, "one", (0.3, 0.4))
    assert set(flat.errors) == {0.0}

    elapsed = time.monotonic() - start
    assert elapsed < 120
    _report(
        10,
        True,
        f"final error {trace.final_error:.2e} < 0.05, oracle match to 1e-8, "
        f"constant exact, {elapsed:.1f}s",
    )


def test_criterion_11_determinism(tmp_path, child_env):
    def run(args, hash_seed, threads):
        return subprocess.run(
            [sys.executable, *args],
            capture_output=True,
            text=True,
            env=child_env(PYTHONHASHSEED=hash_seed, OMP_NUM_THREADS=threads),
            cwd=tmp_path,
        )

    artifacts = []
    for tag, hash_seed in (("a", "101"), ("b", "202")):
        out = tmp_path / tag
        proc = run(
            ["-m", "folnerlab", "--seed", "7", "--out", str(out), "reproduce", "claims-5-3"],
            hash_seed,
            "1",
        )
        assert proc.returncode == 0, proc.stderr
        artifacts.append(sorted((p.name, p.read_bytes()) for p in out.iterdir()))
    assert artifacts[0] == artifacts[1]

    probe = (
        "from folnerlab.generators import word_ball\n"
        "from folnerlab.groups import zd_model\n"
        "from folnerlab.space import separated_net, monotone_geodesic\n"
        "g = word_ball(zd_model(2), 'standard', 16).graph\n"
        "net = separated_net(g, 0, 4, 12, 2)\n"
        "chain = monotone_geodesic(g, 0, g.vertex_count - 1)\n"
        "print(net)\n"
        "print(chain)\n"
    )
    outputs = []
    for hash_seed, threads in (("11", "1"), ("23", "8")):
        proc = run(["-c", probe], hash_seed, threads)
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]
    _report(
        11,
        True,
        "recipe artifacts byte-identical; nets and geodesics stable across "
        "hash seeds and thread counts",
    )
