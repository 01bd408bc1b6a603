"""Estimation of growth constants from exact volume profiles.

Inputs here are `VolumeProfile`s (exact integer ball counts); every ratio is
kept as a `Fraction` until a logarithm or least-squares step forces floats.

Notation used throughout, for a profile around x:

    shell(n, k)   = mu(B(x, n)) - mu(B(x, n-k)),   written c_{n-k,n}
    sphere(n)     = shell(n+1, 1)                  (vertices at distance n+1)

The central quantity is the shell-comparison constant

    alpha = inf over admitted (n, k) of  c_{n-k,n} / c_{n,n+k},

the infimum of inner-shell to outer-shell volume ratios at matched widths.
On a doubling space alpha is bounded away from zero once k exceeds a small
multiple of the monotone-geodesic constant (k_min = 5 covers unit-edge
graphs), and a telescoping recursion over dyadic widths turns alpha into a
polynomial sphere-decay certificate with exponent delta = log2(1 + alpha):

    mu(S(x, n)) <= C * n^(-delta) * mu(B(x, n)).

`verify_sphere_bound` fits the constant C and checks it stays flat;
`dyadic_subsequence` certifies, one `DyadicRecord` per window, the cheaper
radius-selection route that needs only the doubling constant;
`isoperimetric_ratios` measures the stronger 1/n decay of abelian groups.
`growth_exponent_fit` gives a run's `fit` entry.  The analyses over centers
(`doubling_constant`, `shell_alpha`, `verify_sphere_bound`) take a sequence
of profiles, one per center.  Each option default lives once, in the
analysis table `registry.ANALYSES`, the shell sweep's n_max = depth // 2
included: `shell_alpha`, `verify_sphere_bound`, `fit_radii` and
`growth_exponent_fit` take every option from their caller.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .space import VolumeProfile

__all__ = [
    "ShellRecord",
    "ShellReport",
    "DyadicRecord",
    "SphereBoundReport",
    "doubling_constant",
    "shell_alpha",
    "shell_pair_count",
    "delta_from_alpha",
    "verify_sphere_bound",
    "dyadic_subsequence",
    "isoperimetric_ratios",
    "fit_radii",
    "growth_exponent_fit",
    "least_squares_slope",
]


# -- small helpers -----------------------------------------------------------


def least_squares_slope(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Slope of the least-squares line through (xs, ys)."""
    if len(xs) != len(ys) or len(xs) < 2:
        raise ValueError("need at least two points")
    slope, _ = np.polyfit(np.asarray(xs, dtype=float), np.asarray(ys, dtype=float), 1)
    return float(slope)


# -- doubling ----------------------------------------------------------------


def doubling_constant(profiles: Sequence[VolumeProfile], r_max: int) -> Fraction:
    """Max of mu(B(x, 2r)) / mu(B(x, r)) over the given centers and 1 <= r <= r_max.

    Profiles must extend to depth 2 * r_max.  Exact.
    """
    if r_max < 1:
        raise ValueError("r_max must be at least 1")
    best = Fraction(0)
    for p in profiles:
        if p.depth < 2 * r_max:
            raise ValueError(
                f"profile at center {p.center} has depth {p.depth}, "
                f"need {2 * r_max} for r_max={r_max}"
            )
        for r in range(1, r_max + 1):
            best = max(best, Fraction(p.ball[2 * r], p.ball[r]))
    return best


# -- shell comparison --------------------------------------------------------


@dataclass(frozen=True)
class ShellRecord:
    center: int
    n: int
    k: int
    c_lo: int  # inner shell c_{n-k,n}
    c_hi: int  # outer shell c_{n,n+k}
    ratio: Fraction | None  # None when the outer shell is empty


@dataclass(frozen=True)
class ShellReport:
    """Result of a shell-comparison sweep.

    alpha is the infimum of admitted ratios (outer shell nonempty); worst is
    the record attaining it.  records holds the full table only when the
    sweep was run with record_all=True, otherwise just the worst record.
    """

    n_max: int
    alpha: Fraction
    delta: float
    fitted_constant: float
    pairs_tested: int
    worst: ShellRecord
    records: tuple[ShellRecord, ...]


SHELL_BLOCK = 2**15  # (n, k) pairs swept at a time by `shell_alpha`
SHELL_WINDOW = 1e-12  # relative float window that screens shell candidates


def _shell_rows(k_min: int, n_max: int, depth: int) -> np.ndarray:
    """Per n = k_min..n_max, the number of admitted widths k_min <= k <= min(n, depth - n)."""
    n = np.arange(k_min, n_max + 1, dtype=np.int64)
    return np.minimum(n, depth - n) - k_min + 1


def shell_pair_count(k_min: int, n_max: int, depth: int) -> int:
    """The number of (n, k) pairs `shell_alpha` admits per center, with no sweep."""
    return int(_shell_rows(k_min, n_max, depth).sum())


def _shell_blocks(k_min: int, n_max: int, depth: int):
    """The admitted (n, k) pairs in (n, k) order, as index arrays n, n - k and
    n + k of at most SHELL_BLOCK pairs each; a block may split an n-row."""
    rows = _shell_rows(k_min, n_max, depth)
    ends = np.cumsum(rows)
    offset = ends - rows - k_min  # pair index of (n, k) minus k, per n-row
    total = int(ends[-1]) if len(ends) else 0
    for start in range(0, total, SHELL_BLOCK):
        k = np.arange(start, min(start + SHELL_BLOCK, total), dtype=np.int64)
        n = np.searchsorted(ends, k, side="right")
        k -= offset[n]
        n += k_min
        lo = n - k
        k += n
        yield n, lo, k


def _block_least(c_lo: np.ndarray, c_hi: np.ndarray, bound: float) -> tuple[int, float] | None:
    """Position and float ratio of the first pair of the block whose c_lo /
    c_hi is exactly least among those that can match a best so far of float
    ratio `bound`; None if no pair with c_hi > 0 can.

    Only a pair within SHELL_WINDOW of min(block minimum, bound) can.  The
    first float minimum among those, reduced to a / b, is matched in int64
    (c_lo / c_hi equals it exactly when c_lo = t a and c_hi = t b for one t),
    so only the pairs that differ from it meet Python ints and ties are free.
    """
    ratio = np.divide(c_lo, c_hi, out=np.full(len(c_lo), np.inf), where=c_hi > 0)
    limit = min(float(ratio.min()), bound)
    at = np.flatnonzero(ratio <= limit * (1 + SHELL_WINDOW))
    if limit == math.inf or not at.size:
        return None
    first = int(at[np.argmin(ratio[at])])
    g = math.gcd(int(c_lo[first]), int(c_hi[first]))
    a, b = int(c_lo[first]) // g, int(c_hi[first]) // g
    if a:  # else the ratio is 0, which no pair beats, and argmin found the first
        lo, hi = c_lo[at], c_hi[at]
        same = lo % a == 0
        same &= hi % b == 0
        same &= lo // a == hi // b
        first = int(at[np.argmax(same)])
        differ = ~same
        for j, lo_j, hi_j in zip(at[differ].tolist(), lo[differ].tolist(), hi[differ].tolist()):
            if lo_j * b < a * hi_j:
                first, a, b = j, lo_j, hi_j
    return first, float(ratio[first])


def shell_alpha(
    profiles: Sequence[VolumeProfile], k_min: int, n_max: int, record_all: bool
) -> ShellReport:
    """Sweep inner/outer shell ratios c_{n-k,n} / c_{n,n+k} and take the infimum.

    Admits pairs with k_min <= k <= n <= n_max and n + k within the profile
    depth; pairs whose outer shell is empty are excluded (they impose no
    constraint; by then the ball has stopped growing in that direction).
    Raises if no pair is admitted at all, and refuses a profile that counts
    2^63 vertices or more within that depth.  The worst record is the first
    strict minimum in (center, n, k) order.

    Exact, and vectorised: each block of pairs takes its shells as int64
    differences (exact below 2^63), screens them by float64 ratio (each
    conversion and the division err by at most 2^-53 relative, so a true
    minimum lies within SHELL_WINDOW of the block's float minimum), and
    settles only the screened candidates exactly (`_block_least`).
    """
    if k_min < 1:
        raise ValueError("k_min must be positive")
    depth = min(p.depth for p in profiles)
    if n_max + k_min > depth:
        raise ValueError(
            f"profiles too shallow: depth {depth} < n_max + k_min = {n_max + k_min}"
        )
    for p in profiles:
        if p.ball[depth] >= 2**63:
            raise ValueError(
                f"profile at center {p.center} counts {p.ball[depth]} vertices "
                f"within depth {depth}; the shell sweep needs fewer than 2^63"
            )
    balls = [np.array(p.ball[: depth + 1], dtype=np.int64) for p in profiles]
    # Per center: (c_lo, c_hi, n, k, float ratio) of its first strict minimum.
    bests: list[tuple | None] = [None] * len(profiles)
    tables: list[list[ShellRecord]] = [[] for _ in profiles]
    tested = 0
    # The hot path: quadratically many pairs per center.  Blocks come first,
    # so each block's index arrays serve every center.
    for n, lo, hi in _shell_blocks(k_min, n_max, depth):
        for i, ball in enumerate(balls):
            at_n = ball[n]
            c_lo = at_n - ball[lo]
            c_hi = np.subtract(ball[hi], at_n, out=at_n)
            tested += int(np.count_nonzero(c_hi))
            if record_all:
                center = profiles[i].center
                tables[i].extend(
                    ShellRecord(center, *pair, Fraction(pair[2], pair[3]) if pair[3] else None)
                    for pair in zip(n.tolist(), (n - lo).tolist(), c_lo.tolist(), c_hi.tolist())
                )
            best = bests[i]
            least = _block_least(c_lo, c_hi, math.inf if best is None else best[4])
            if least is None:
                continue
            j, ratio = least
            pair = (int(c_lo[j]), int(c_hi[j]), int(n[j]), int(n[j] - lo[j]), ratio)
            if best is None or pair[0] * best[1] < best[0] * pair[1]:
                bests[i] = pair
    worst: ShellRecord | None = None
    for p, best in zip(profiles, bests):
        if best is not None and (worst is None or best[0] * worst.c_hi < worst.c_lo * best[1]):
            worst = ShellRecord(p.center, best[2], best[3], best[0], best[1], Fraction(best[0], best[1]))
    if worst is None:
        raise ValueError("no admissible shell pair in the requested range")
    alpha = worst.ratio
    delta = delta_from_alpha(alpha)
    fitted = max(_sphere_constants(profiles, delta, range(1, n_max + 1)))
    return ShellReport(
        n_max=n_max,
        alpha=alpha,
        delta=delta,
        fitted_constant=fitted,
        pairs_tested=tested,
        worst=worst,
        records=tuple(r for table in tables for r in table) if record_all else (worst,),
    )


def delta_from_alpha(alpha: Fraction | float) -> float:
    """Decay exponent log2(1 + alpha) certified by a shell constant alpha."""
    if alpha < 0:
        raise ValueError("alpha must be nonnegative")
    return math.log2(1 + alpha)


def _sphere_constants(
    profiles: Sequence[VolumeProfile], delta: float, radii: Iterable[int]
) -> list[float]:
    """Per radius n, the smallest C with mu(S(x,n)) <= C n^(-delta) mu(B(x,n))
    at every center x: the max of mu(S(x,n)) n^delta / mu(B(x,n))."""
    return [max(p.sphere[n] * n**delta / p.ball[n] for p in profiles) for n in radii]


# -- sphere-decay verification ------------------------------------------------


@dataclass(frozen=True)
class SphereBoundReport:
    """Fit of C(n) = mu(S(x,n)) * n^delta / mu(B(x,n)) over a radius range.

    fitted_constant is the max over centers and radii; trend_slope is the
    least-squares slope of log C(n) against log n over the top half of the
    range, taking the per-n max across centers.  passed means the constant is
    finite and the trend does not drift upward beyond the tolerance.
    """

    delta: float
    n_lo: int
    n_hi: int
    fitted_constant: float
    trend_slope: float
    slope_tolerance: float
    constants: tuple[float, ...]  # per-n max of the ratio, n = n_lo..n_hi

    @property
    def passed(self) -> bool:
        return math.isfinite(self.fitted_constant) and (
            self.trend_slope <= self.slope_tolerance
        )


def verify_sphere_bound(
    profiles: Sequence[VolumeProfile],
    delta: float,
    n_range: tuple[int, int],
    slope_tolerance: float,
) -> SphereBoundReport:
    """Measure the constant in mu(S) <= C n^(-delta) mu(B) and test its trend."""
    depth = min(p.depth for p in profiles)
    n_lo, n_hi = n_range
    if not 1 <= n_lo < n_hi <= depth - 1:
        raise ValueError(f"radius range {n_range} not within profile depth {depth}")
    per_n = _sphere_constants(profiles, delta, range(n_lo, n_hi + 1))
    fitted = max(per_n)
    half_start = (n_lo + n_hi) // 2
    xs, ys = [], []
    for n, value in zip(range(n_lo, n_hi + 1), per_n):
        if n >= half_start and value > 0:
            xs.append(math.log(n))
            ys.append(math.log(value))
    slope = least_squares_slope(xs, ys) if len(xs) >= 2 else 0.0
    return SphereBoundReport(
        delta=delta,
        n_lo=n_lo,
        n_hi=n_hi,
        fitted_constant=fitted,
        trend_slope=slope,
        slope_tolerance=slope_tolerance,
        constants=tuple(per_n),
    )


# -- dyadic radius selection --------------------------------------------------


@dataclass(frozen=True)
class DyadicRecord:
    i: int
    radius: int  # the selected r_i in (2^i, 2^(i+1)]
    sphere: int
    ball: int
    bound: Fraction  # doubling * ball / 2^i
    certified: bool


def dyadic_subsequence(
    profile: VolumeProfile,
    doubling: Fraction,
    i_max: int | None = None,
) -> tuple[DyadicRecord, ...]:
    """Pick, per dyadic window (2^i, 2^(i+1)], the radius with the smallest sphere.

    Ties break toward the smaller radius.  Each selected r_i is certified
    against mu(S(x, r_i)) <= doubling * mu(B(x, r_i)) / 2^i, the pigeonhole
    consequence of 2^i * min-sphere <= mu(B(x, 2^(i+1))) combined with the
    doubling constant.  Requires profile depth > 2^(i+1) for each admitted i.
    """
    depth = profile.depth
    limit = i_max if i_max is not None else depth.bit_length()
    records: list[DyadicRecord] = []
    for i in range(0, limit + 1):
        lo, hi = 2**i, 2 ** (i + 1)
        if hi + 1 > depth:
            break
        best_r = min(range(lo + 1, hi + 1), key=lambda r: (profile.sphere[r], r))
        sphere, ball = profile.sphere[best_r], profile.ball[best_r]
        bound = doubling * Fraction(ball, lo)
        records.append(
            DyadicRecord(
                i=i,
                radius=best_r,
                sphere=sphere,
                ball=ball,
                bound=bound,
                certified=Fraction(sphere) <= bound,
            )
        )
    if not records:
        raise ValueError(f"profile depth {depth} admits no dyadic window")
    return tuple(records)


# -- abelian-style isoperimetry ----------------------------------------------


def isoperimetric_ratios(
    ball_sizes: Sequence[int], n_max: int | None = None
) -> list[Fraction]:
    """n * (mu(B(n+1)) - mu(B(n))) / mu(B(n)) for n = 1 .. n_max, exactly.

    `ball_sizes[n]` must be mu(B(0, n)), either a profile's ball array or
    the sizes of a product-power sequence; n stops at len(ball_sizes) - 2.
    """
    if len(ball_sizes) < 3:
        raise ValueError("need sizes up to radius at least 2")
    top = len(ball_sizes) - 2
    if n_max is not None:
        top = min(top, n_max)
    return [
        Fraction(n * (ball_sizes[n + 1] - ball_sizes[n]), ball_sizes[n])
        for n in range(1, top + 1)
    ]


# -- growth exponent ---------------------------------------------------------


def fit_radii(depth: int, dyadic: bool) -> Sequence[int]:
    """The radii a growth fit samples at `depth`: the top half of 1..depth,
    or with `dyadic` the scales 8, 16, 32, ... up to the depth."""
    if dyadic:
        return [2**i for i in range(3, depth.bit_length())]
    return range(max(1, depth // 2), depth + 1)


def growth_exponent_fit(
    ball_sizes: Sequence[int], radii: Sequence[int], min_points: int
) -> dict[str, float]:
    """Least-squares slope of log volume against log radius, over `radii`
    (such as the `fit_radii` of the profile depth); at least `min_points`.
    Returns the `exponent` (the slope), `intercept` and `residual_rms`."""
    if len(radii) < min_points:
        raise ValueError(f"need at least {min_points} radii, got {len(radii)}")
    xs = np.log([float(r) for r in radii])
    ys = np.log([float(ball_sizes[r]) for r in radii])
    slope, intercept = np.polyfit(xs, ys, 1)
    residuals = ys - (slope * xs + intercept)
    return {
        "exponent": float(slope),
        "intercept": float(intercept),
        "residual_rms": float(np.sqrt(np.mean(residuals**2))),
    }
