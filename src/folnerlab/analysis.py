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

`shell_alpha` finds alpha exactly in one pass, from the largest radius
down: monotone shells bound the ratios of a cell of widths from below, and
only the cells whose bound reaches the least ratio met so far are settled.
`verify_sphere_bound` fits the constant C and checks it stays flat;
`dyadic_subsequence` certifies, one `DyadicRecord` per window,
the cheaper radius-selection route that needs only the doubling constant;
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
from typing import Sequence

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


SHELL_WIDTH = 16  # widths k per cell of `shell_alpha`'s bound
SHELL_CELLS = 2**13  # cells `shell_alpha` lays out at a time
SHELL_CHUNK = 2**15  # pairs `shell_alpha` settles at a time (at least one cell)
SHELL_WINDOW = 1e-12  # relative float window that screens shell candidates


def shell_pair_count(k_min: int, n_max: int, depth: int) -> int:
    """The number of (n, k) pairs `shell_alpha` admits per center, with no sweep."""
    n = np.arange(k_min, n_max + 1, dtype=np.int64)
    return int((np.minimum(n, depth - n) - k_min + 1).sum())


def _shell_cells(k_min: int, n_max: int, depth: int):
    """The admitted (n, k) pairs cut into cells: each n's widths
    k_min..min(n, depth - n) in runs of at most SHELL_WIDTH.  Yields the n,
    the first k and the last k of SHELL_CELLS cells at a time, in (n, k)
    order within a group and the groups from the largest n down (a group
    may split an n-row)."""
    width = SHELL_WIDTH
    n = np.arange(k_min, n_max + 1, dtype=np.int64)
    top = np.minimum(n, depth - n)  # the last admitted k per n
    runs = (top - k_min + width) // width  # cells per n
    ends = np.cumsum(runs)
    offset = k_min - width * (ends - runs)  # first k of cell c is width c + offset[n-row]
    total = int(ends[-1]) if len(ends) else 0
    for start in reversed(range(0, total, SHELL_CELLS)):
        cell = np.arange(start, min(start + SHELL_CELLS, total), dtype=np.int64)
        row = np.searchsorted(ends, cell, side="right")
        first = width * cell + offset[row]
        yield n[row], first, np.minimum(first + (width - 1), top[row])


def _block_least(c_lo: np.ndarray, c_hi: np.ndarray, bound: float) -> tuple[int, float] | None:
    """Position and float ratio of the first pair of the block whose c_lo /
    c_hi is exactly least among those that can match a best so far of float
    ratio `bound`; None if no pair with c_hi > 0 can.

    Only a pair within SHELL_WINDOW of min(block minimum, bound) can.  The
    first float minimum among those, reduced to a / b, is matched in int64:
    c_lo / c_hi equals it exactly when c_lo = t a and c_hi = t b for t =
    c_lo // a.  t a <= c_lo, and within the window c_lo / c_hi <= (a / b)
    (1 + 2^-39), so t b < 2^63 (1 + 2^-39): a product that wraps is negative
    and matches no c_hi.  So only the pairs that differ from the minimum
    meet Python ints, and ties are free.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = c_lo / c_hi  # inf or nan (never within the window) where c_hi = 0
    limit = min(float(np.fmin.reduce(ratio, initial=math.inf)), bound)
    at = np.flatnonzero(ratio <= limit * (1 + SHELL_WINDOW))
    if limit == math.inf or not at.size:
        return None
    first = int(at[np.argmin(ratio[at])])
    g = math.gcd(int(c_lo[first]), int(c_hi[first]))
    a, b = int(c_lo[first]) // g, int(c_hi[first]) // g
    if a:  # else the ratio is 0, which no pair beats, and argmin found the first
        lo, hi = c_lo[at], c_hi[at]
        t = lo // a
        same = t * a == lo
        same &= t * b == hi
        first = int(at[np.argmax(same)])
        differ = at[~same]
        for j, lo_j, hi_j in zip(differ.tolist(), c_lo[differ].tolist(), c_hi[differ].tolist()):
            if lo_j * b < a * hi_j:
                first, a, b = j, lo_j, hi_j
    return first, float(ratio[first])


def _sweep(balls: np.ndarray, k_min: int, n_max: int) -> tuple[int, int, int, int, int] | None:
    """(c_lo, c_hi, center index, n, k) of the first exact least ratio in
    (center, n, k) order, found as `shell_alpha` says; None if no pair is
    admitted.  A kept cell's pairs are listed SHELL_CHUNK at a time, as rows
    of SHELL_WIDTH widths read off sliding windows of the ball; a column
    past its cell's last k is padding, masked out by an empty c_hi."""
    depth = balls.shape[1] - 1
    pad = SHELL_WIDTH - 1
    # Per center, row j of `window` is B(j - pad .. j), over a copy of the
    # ball padded with B(0) before it and B(depth) after it.
    edges = np.repeat(balls[:, [0, -1]], pad, axis=1)
    padded = np.concatenate((edges[:, :pad], balls, edges[:, pad:]), axis=1)
    shape = (len(balls), depth + 1 + pad, SHELL_WIDTH)
    window = np.ndarray(shape, balls.dtype, padded, 0, padded.strides + padded.strides[1:])
    window.flags.writeable = False
    width = np.arange(SHELL_WIDTH)
    step = max(1, SHELL_CHUNK // SHELL_WIDTH)  # cells per chunk
    bound, best = math.inf, None
    for n, first, last in _shell_cells(k_min, n_max, depth):
        lo_first, hi_first, hi_last = n - first, n + first, n + last  # the ball radii of the cells' shells
        for i, ball in enumerate(balls):
            at_n = ball[n]
            inner = at_n - ball[lo_first]
            with np.errstate(divide="ignore", invalid="ignore"):  # an empty c_hi gives inf or nan
                bound = min(bound, float(np.fmin.reduce(inner / (ball[hi_first] - at_n), initial=math.inf)))
                lower = inner / (ball[hi_last] - at_n)
            keep = np.flatnonzero(lower <= bound * (1 + SHELL_WINDOW))
            del lower
            for start in range(0, len(keep), step):
                at = keep[start : start + step]
                base = at_n[at, None]
                c_lo = window[i, lo_first[at], ::-1]
                np.subtract(base, c_lo, out=c_lo)
                c_hi = window[i, n[at] + first[at] + pad]
                c_hi -= base
                span = last[at] - first[at]
                short = np.flatnonzero(span < pad)
                c_hi[short] *= width <= span[short, None]
                least = _block_least(c_lo.ravel(), c_hi.ravel(), bound)
                if least is None:
                    continue
                j, ratio = least
                row, col = divmod(j, SHELL_WIDTH)
                found = (int(c_lo.flat[j]), int(c_hi.flat[j]), i, int(n[at[row]]), int(first[at[row]]) + col)
                if best is not None:
                    lhs, rhs = found[0] * best[1], best[0] * found[1]
                    if lhs > rhs or lhs == rhs and found[2:] > best[2:]:
                        continue
                best = found
                bound = min(bound, ratio)
    return best


def _tested_pairs(balls: np.ndarray, k_min: int, n_max: int) -> int:
    """The number of admitted pairs with a nonempty outer shell, over every
    center: per n, the k from the least one with B(n+k) > B(n) up to min(n, depth - n)."""
    depth = balls.shape[1] - 1
    n = np.arange(k_min, n_max + 1, dtype=np.int64)
    top = np.minimum(n, depth - n)
    tested = 0
    for ball in balls:
        grows = np.searchsorted(ball, ball[n], side="right") - n
        tested += int(np.maximum(top - np.maximum(grows, k_min) + 1, 0).sum())
    return tested


def _ball_matrix(profiles: Sequence[VolumeProfile], depth: int, stage: str) -> np.ndarray:
    """The int64 matrix of the balls B(0..depth), one row per center; a count
    of 2^63 or more is refused, naming its center and the `stage` it fails."""
    for p in profiles:
        if p.ball[depth] >= 2**63:
            raise ValueError(
                f"profile at center {p.center} counts {p.ball[depth]} vertices "
                f"within depth {depth}; {stage} needs fewer than 2^63"
            )
    return np.array([p.ball[: depth + 1] for p in profiles], dtype=np.int64)


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

    Exact, by bounds over cells.  Each n's admitted widths are cut into
    cells of at most SHELL_WIDTH consecutive k, k1..k2.  The ball B is
    nondecreasing, so for fixed n both shells c_lo(n, k) = B(n) - B(n-k)
    and c_hi(n, k) = B(n+k) - B(n) are nondecreasing in k.  Hence every
    admitted pair (c_hi(n, k) > 0) of a cell has

        c_lo(n, k) / c_hi(n, k) >= c_lo(n, k1) / c_hi(n, k) >= c_lo(n, k1) / c_hi(n, k2),

    the first step by c_lo(n, k) >= c_lo(n, k1), the second by c_hi(n, k2)
    >= c_hi(n, k) > 0; and a cell with c_hi(n, k2) = 0 admits no pair.

    One pass (`_sweep`) visits the cells SHELL_CELLS at a time, the groups
    from the largest n down, with every center on each group.  Before it
    filters a group's cells at a center, it lowers U, the least float ratio
    met so far, to the least ratio at those cells' first pairs (n, k1).  U
    is always an admitted ratio or inf, so alpha <= U, and the cell that
    holds alpha has a bound <= alpha <= U: only the cells whose bound is
    within SHELL_WINDOW of U are listed and settled exactly, SHELL_CHUNK
    pairs at a time (`_block_least`).  Shells are int64 differences, exact
    below 2^63; each float64 conversion and division errs by at most 2^-53
    relative, so no cell that holds a least ratio falls outside the window.
    Alpha can only fall as n_max grows, and on the recipe profiles the
    least pair sits at the largest radii, so the largest n first gives the
    lowest U soonest.  Beyond arrays as long as the depth (the ball matrix
    and its padded copy) the sweep's memory does not grow with the depth.
    Since it meets the pairs out of (center, n, k) order, a chunk's least
    pair replaces the best so far only if its ratio is less, or equal and
    its (center, n, k) comes first.

    pairs_tested is counted per n in closed form: the admitted k from the
    least one with B(n+k) > B(n) on.  With record_all the records list
    every pair, on Python ints, with no second search.
    """
    if k_min < 1:
        raise ValueError("k_min must be positive")
    depth = min(p.depth for p in profiles)
    if n_max + k_min > depth:
        raise ValueError(
            f"profiles too shallow: depth {depth} < n_max + k_min = {n_max + k_min}"
        )
    balls = _ball_matrix(profiles, depth, "the shell sweep")
    least = _sweep(balls, k_min, n_max)
    if least is None:
        raise ValueError("no admissible shell pair in the requested range")
    c_lo, c_hi, i, n, k = least
    worst = ShellRecord(profiles[i].center, n, k, c_lo, c_hi, Fraction(c_lo, c_hi))
    records: tuple[ShellRecord, ...] = (worst,)
    if record_all:
        records = tuple(
            ShellRecord(p.center, n, k, c_lo, c_hi, Fraction(c_lo, c_hi) if c_hi else None)
            for p in profiles
            for n in range(k_min, n_max + 1)
            for k in range(k_min, min(n, depth - n) + 1)
            for c_lo, c_hi in [(p.ball[n] - p.ball[n - k], p.ball[n + k] - p.ball[n])]
        )
    delta = delta_from_alpha(worst.ratio)
    return ShellReport(
        n_max=n_max,
        alpha=worst.ratio,
        delta=delta,
        fitted_constant=max(_sphere_constants(balls, delta, 1, n_max)),
        pairs_tested=_tested_pairs(balls, k_min, n_max),
        worst=worst,
        records=records,
    )


def delta_from_alpha(alpha: Fraction | float) -> float:
    """Decay exponent log2(1 + alpha) certified by a shell constant alpha."""
    if alpha < 0:
        raise ValueError("alpha must be nonnegative")
    return math.log2(1 + alpha)


def _sphere_constants(balls: np.ndarray, delta: float, n_lo: int, n_hi: int) -> list[float]:
    """Per radius n = n_lo..n_hi, the smallest C with mu(S(x,n)) <= C
    n^(-delta) mu(B(x,n)) at every center x: the max of mu(S(x,n)) n^delta
    / mu(B(x,n)), over an int64 ball matrix with one row per center.  Each
    n^delta is Python's pow, and each product and quotient one float64
    operation on correctly rounded operands, as on Python ints."""
    ball = balls[:, n_lo : n_hi + 1]
    powers = np.array([n**delta for n in range(n_lo, n_hi + 1)])
    return ((balls[:, n_lo + 1 : n_hi + 2] - ball) * powers / ball).max(axis=0).tolist()


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
    """Measure the constant in mu(S) <= C n^(-delta) mu(B) and test its trend.

    Refuses, as the shell sweep that gives delta does, a profile that
    counts 2^63 vertices or more within radius n_hi + 1."""
    depth = min(p.depth for p in profiles)
    n_lo, n_hi = n_range
    if not 1 <= n_lo < n_hi <= depth - 1:
        raise ValueError(f"radius range {n_range} not within profile depth {depth}")
    balls = _ball_matrix(profiles, n_hi + 1, "the sphere-bound check")
    per_n = _sphere_constants(balls, delta, n_lo, n_hi)
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
