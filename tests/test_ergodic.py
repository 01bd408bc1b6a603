"""
Tests for averaging along exact product sets acting on the torus.

The oracle: averaging cos(2 pi p_0) over the l1 ball of radius n translated
by angles (theta_1, theta_2) from start x depends only on the first
coordinate, and collapses to a weighted cosine sum,

    avg_n = cos(2 pi x_0) * W_n(theta_1) / (2n^2 + 2n + 1),
    W_n(t) = sum_{a=-n..n} (2(n - |a|) + 1) cos(2 pi a t),

because exactly 2(n - |a|) + 1 ball points have first coordinate a.  The
trace must reproduce this to addition-order rounding.  A sequence whose
layers carry no discovery order is refused with a ValueError that names
`ordered=True`.

The observables take a layer's points at once; their per-point reference
is in `tests/test_layers.py`.
"""

import math

import numpy as np
import pytest

from folnerlab.ergodic import (
    GOLDEN_ANGLES,
    OBSERVABLES,
    ergodic_trace,
    observable,
)
from folnerlab.groups import zd_model
from folnerlab.products import product_powers


def _powers(steps):
    return product_powers(zd_model(2), "standard", steps, ordered=True)


@pytest.fixture(scope="module")
def ball_sequence():
    return _powers(80)


def _cosine_oracle(n: int, theta: float, x: float) -> float:
    w = sum(
        (2 * (n - abs(a)) + 1) * math.cos(2 * math.pi * a * theta)
        for a in range(-n, n + 1)
    )
    return math.cos(2 * math.pi * x) * w / (2 * n * n + 2 * n + 1)


def _moved_points(sequence, start, monkeypatch):
    """The points `ergodic_trace` evaluates its observable at, in order."""
    seen = []
    record = (lambda p: seen.extend(map(tuple, p.tolist())) or [0.0] * len(p), 0.0)
    monkeypatch.setitem(OBSERVABLES, "record", record)
    ergodic_trace(GOLDEN_ANGLES, sequence, "record", start)
    return seen


class TestRotation:
    def test_move_wraps(self, monkeypatch):
        sequence = _powers(3)
        moved = dict(zip(sequence.birth, _moved_points(sequence, (0.9, 0.1), monkeypatch)))
        p = moved[1, -2]
        assert 0 <= p[0] < 1 and 0 <= p[1] < 1
        assert p[0] == pytest.approx((0.9 + GOLDEN_ANGLES[0]) % 1)
        assert p[1] == pytest.approx((0.1 - 2 * GOLDEN_ANGLES[1]) % 1)

    def test_rows_move_like_single_points(self, monkeypatch):
        sequence = _powers(6)
        for start in [(0.9, 0.1), (-0.3, 1.7)]:
            moved = _moved_points(sequence, start, monkeypatch)
            assert len(moved) == sequence.sizes[-1]
            for g, point in zip(sequence.birth, moved):
                expected = tuple((p + x * t) % 1.0 for p, x, t in zip(start, g, GOLDEN_ANGLES))
                assert point == expected

    def test_arity_mismatch(self, ball_sequence):
        for angles, start in [((0.1, 0.2, 0.3), (0.0, 0.0, 0.0)), (GOLDEN_ANGLES, (0.0,))]:
            with pytest.raises(ValueError, match="^element and point must match the action dimension$"):
                ergodic_trace(angles, ball_sequence, "cos_x", start)


class TestObservables:
    def test_known_means(self):
        assert observable("one")[1] == 1.0
        assert observable("cos_x")[1] == 0.0
        assert observable("box")[1] == 1 / 16

    def test_unknown_name(self):
        with pytest.raises(KeyError, match="known"):
            observable("sin_x")

    def test_box_indicator(self):
        f = observable("box")[0]
        assert f(np.array([[0.1, 0.2]])) == [1.0]
        assert f(np.array([[0.3, 0.2]])) == [0.0]


class TestErgodicTrace:
    def test_matches_cosine_oracle(self, ball_sequence):
        trace = ergodic_trace(GOLDEN_ANGLES, ball_sequence, "cos_x", (0.1, 0.2))
        for n in range(1, 81):
            oracle = _cosine_oracle(n, GOLDEN_ANGLES[0], 0.1)
            assert trace.averages[n] == pytest.approx(oracle, abs=1e-12)

    def test_errors_shrink(self, ball_sequence):
        trace = ergodic_trace(GOLDEN_ANGLES, ball_sequence, "cos_x", (0.1, 0.2))
        assert trace.errors[5] > 1e-3
        assert trace.final_error < 1e-4
        assert trace.envelope == max(trace.errors[-10:]) < 1e-3

    def test_constant_observable_is_exact(self, ball_sequence):
        trace = ergodic_trace(GOLDEN_ANGLES, _powers(10), "one", (0.5, 0.5))
        assert set(trace.errors) == {0.0}
        assert trace.final_error == 0.0

    def test_product_observable_converges(self, ball_sequence):
        trace = ergodic_trace(GOLDEN_ANGLES, _powers(60), "cos_mix", (0.3, 0.7))
        assert trace.space_mean == 0.0
        assert trace.final_error < 1e-4

    def test_box_converges_to_area(self, ball_sequence):
        trace = ergodic_trace(GOLDEN_ANGLES, _powers(60), "box", (0.0, 0.0))
        assert trace.space_mean == 1 / 16
        assert trace.final_error < 0.01

    def test_rational_angles_miss_the_mean(self):
        # a period-two rotation keeps the box average near 1/4, not 1/16
        trace = ergodic_trace((0.5, 0.5), _powers(40), "box", (0.0, 0.0))
        assert trace.final_error > 0.1

    def test_a_shorter_sequence_gives_the_first_averages(self, ball_sequence):
        full = ergodic_trace(GOLDEN_ANGLES, ball_sequence, "cos_x", (0.1, 0.2))
        trace = ergodic_trace(GOLDEN_ANGLES, _powers(7), "cos_x", (0.1, 0.2))
        assert trace.steps == 7
        assert len(trace.errors) == 8
        assert trace.averages == full.averages[:8]

    def test_unordered_sequence_is_refused(self):
        sequence = product_powers(zd_model(2), "standard", 3, ordered=False)
        with pytest.raises(ValueError, match=r"no discovery order; build it with ordered=True"):
            ergodic_trace(GOLDEN_ANGLES, sequence, "cos_x", (0.1, 0.2))
