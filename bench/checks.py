"""Output checks for benchmark jobs.

Each check reads a job's artifacts (file name -> bytes) and returns a list
of problems; a job whose list is not empty counts as failed.  No check
imports folnerlab: expected values come from closed forms, from the small
reference expansion below, or are recomputed from the job's own
`profile.csv` with the formulas the analyses document.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from fractions import Fraction

import numpy as np

from workloads import H3_STANDARD, shuffled_z2_ball, z2_ball_points

# -- reference arithmetic ---------------------------------------------------


def h3_multiply(a, b):
    return (a[0] + b[0], a[1] + b[1], a[2] + b[2] + a[0] * b[1])


def zd_multiply(a, b):
    return tuple(x + y for x, y in zip(a, b))


def power_sizes(multiply, elements, n_max: int) -> list[int]:
    """|U^n| for n = 0..n_max, identity adjoined, by plain frontier expansion."""
    steps = set(map(tuple, elements))
    identity = tuple(0 for _ in next(iter(steps)))
    steps.add(identity)
    seen = {identity}
    frontier = [identity]
    sizes = [1]
    for _ in range(n_max):
        new = []
        for g in frontier:
            for s in steps:
                h = multiply(g, s)
                if h not in seen:
                    seen.add(h)
                    new.append(h)
        frontier = new
        sizes.append(len(seen))
    return sizes


def closed_form_sizes(form: str, n_max: int) -> list[int]:
    """Ball sizes at radius 0..n_max of the named word metric."""
    if form == "z2":  # Z^2, standard generators
        return [2 * r * r + 2 * r + 1 for r in range(n_max + 1)]
    if form == "hex":  # Z^2 with +-e1, +-e2, +-(e1 + e2): centered hexagonal
        return [3 * r * r + 3 * r + 1 for r in range(n_max + 1)]
    if form == "octahedral":  # Z^3, standard generators
        return [(2 * r + 1) * (2 * r * r + 2 * r + 3) // 3 for r in range(n_max + 1)]
    if form == "h3":
        return power_sizes(h3_multiply, H3_STANDARD, n_max)
    raise ValueError(f"unknown closed form {form!r}")


def tree_chain_vertices(a: int, b: int, blocks: int) -> int:
    """Vertex count of the stretched tree chain, from its specification.

    Block n is a depth-n tree with branching b whose generation-k edges are
    paths of a^(n-k) edges, doubled along its last generation: the tree
    brings S_n = sum_k b^k a^(n-k) new vertices, its mirror S_n + 1 - b^n.
    """
    total = 1
    for n in range(1, blocks + 1):
        s = sum(b**k * a ** (n - k) for k in range(1, n + 1))
        total += 2 * s + 1 - b**n
    return total


def cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    return str(value)


# -- artifact parsing -------------------------------------------------------


class CheckError(Exception):
    """An artifact is missing or malformed."""


def read_csv(artifacts: dict, name: str) -> tuple[str, list[str], list[list[str]]]:
    if name not in artifacts:
        raise CheckError(f"missing artifact {name}")
    text = artifacts[name].decode("ascii")
    first, _, body = text.partition("\n")
    if not first.startswith("# config ") or len(first) != len("# config ") + 16:
        raise CheckError(f"{name}: bad header line {first!r}")
    rows = list(csv.reader(io.StringIO(body)))
    if not rows:
        raise CheckError(f"{name}: no column header")
    return first[len("# config "):], rows[0], rows[1:]


def read_json(artifacts: dict, name: str):
    if name not in artifacts:
        raise CheckError(f"missing artifact {name}")
    try:
        return json.loads(artifacts[name])
    except ValueError as exc:
        raise CheckError(f"{name}: not JSON ({exc})") from None


class Experiment:
    """Parsed artifacts of one `run_experiment` job."""

    def __init__(self, job: dict, artifacts: dict):
        self.config = job["config"]
        self.analyses = self.config["analyses"]
        self.depth = self.config["depth"]
        self.artifacts = artifacts
        self.summary = read_json(artifacts, "summary.json")
        _, header, rows = read_csv(artifacts, "profile.csv")
        if header != ["center", "r", "ball", "sphere"]:
            raise CheckError(f"profile.csv: bad columns {header}")
        self.balls: dict[str, list[int]] = {}
        for label, r, ball, _ in rows:
            self.balls.setdefault(label, []).append(int(ball))
            if int(r) != len(self.balls[label]) - 1:
                raise CheckError(f"profile.csv: radii of {label} out of order")
        for label, r, ball, sphere in rows:
            b = self.balls[label]
            r = int(r)
            expected = str(b[r + 1] - b[r]) if r < len(b) - 1 else ""
            if sphere != expected:
                raise CheckError(f"profile.csv: sphere of {label} at {r} is {sphere!r}")
        for name in artifacts:
            if name.endswith(".csv") and read_csv(artifacts, name)[0] != self.summary["config"]:
                raise CheckError(f"{name}: config digest differs from summary.json")

    def table(self, name: str) -> list[list[str]]:
        return read_csv(self.artifacts, name)[2]

    @staticmethod
    def sphere(ball: list[int], r: int) -> int:
        return ball[r + 1] - ball[r]


# -- checks on experiments --------------------------------------------------


def origin_ball(e: Experiment, form: str, upto: int) -> list[str]:
    ball = e.balls.get("origin")
    if ball is None:
        return ["no origin center in profile.csv"]
    expected = closed_form_sizes(form, upto)
    return [
        f"origin ball at radius {r} is {ball[r]}, expected {expected[r]}"
        for r in range(upto + 1)
        if ball[r] != expected[r]
    ]


def vertices_from_profile(e: Experiment) -> list[str]:
    top = e.balls["origin"][-1]
    if e.summary["vertices"] != top:
        return [f"summary vertices {e.summary['vertices']} != ball {top}"]
    return []


def _doubling(e: Experiment, r_max: int) -> Fraction:
    return max(
        Fraction(ball[2 * r], ball[r])
        for ball in e.balls.values()
        for r in range(1, r_max + 1)
    )


def doubling_value(e: Experiment) -> list[str]:
    value = cell(_doubling(e, e.analyses["doubling"]["r_max"]))
    if e.summary["doubling"] != value:
        return [f"doubling {e.summary['doubling']} != recomputed {value}"]
    return []


def shell_worst(e: Experiment) -> list[str]:
    shell = e.summary["shell"]
    n, k, center = shell["worst_n"], shell["worst_k"], shell["worst_center"]
    alpha = Fraction(e.summary["alpha"])
    labels = [f"v{center}"] if f"v{center}" in e.balls else [
        label for label in e.balls if not (label[0] == "v" and label[1:].isdigit())
    ]
    for label in labels:
        ball = e.balls[label]
        outer = ball[n + k] - ball[n]
        if outer and Fraction(ball[n] - ball[n - k], outer) == alpha:
            return []
    return [f"alpha {alpha} not found at the reported worst pair (n={n}, k={k})"]


def verify_table(e: Experiment) -> list[str]:
    n_max = e.analyses["shell"].get("n_max", e.depth // 2)
    delta = e.summary["delta"]
    expected = []
    for n in range(1, min(n_max, e.depth - 1) + 1):
        best = 0.0
        for ball in e.balls.values():
            best = max(best, Experiment.sphere(ball, n) * n**delta / ball[n])
        expected.append([str(n), repr(best)])
    problems = []
    if e.table("verify.csv") != expected:
        problems.append("verify.csv differs from the constants recomputed from profile.csv")
    if e.summary["fitted_C"] != max(float(c) for _, c in expected):
        problems.append("fitted_C is not the largest verify constant")
    return problems


def dyadic_table(e: Experiment) -> list[str]:
    slack = 2 * _doubling(e, e.depth // 2)
    i_max = e.analyses["dyadic"].get("i_max")
    rows = []
    for label, ball in e.balls.items():
        limit = i_max if i_max is not None else e.depth.bit_length()
        for i in range(limit + 1):
            lo, hi = 2**i, 2 ** (i + 1)
            if hi + 1 > e.depth:
                break
            r = min(range(lo + 1, hi + 1), key=lambda s: (Experiment.sphere(ball, s), s))
            sphere = Experiment.sphere(ball, r)
            bound = slack * Fraction(ball[r], lo)
            rows.append([label, i, r, sphere, ball[r], bound, sphere <= bound])
    problems = []
    if e.table("dyadic.csv") != [[cell(v) for v in row] for row in rows]:
        problems.append("dyadic.csv differs from the selection recomputed from profile.csv")
    expected = {"certified": all(row[-1] for row in rows), "slack_doubling": cell(slack)}
    if e.summary["dyadic"] != expected:
        problems.append(f"summary dyadic {e.summary['dyadic']} != {expected}")
    return problems


def abelian_table(e: Experiment) -> list[str]:
    n_max = e.analyses["abelian"].get("n_max")
    rows = []
    for label, ball in e.balls.items():
        top = len(ball) - 2 if n_max is None else min(n_max, len(ball) - 2)
        for n in range(1, top + 1):
            rows.append([label, n, Fraction(n * Experiment.sphere(ball, n), ball[n])])
    problems = []
    if e.table("abelian.csv") != [[cell(v) for v in row] for row in rows]:
        problems.append("abelian.csv differs from the ratios recomputed from profile.csv")
    if e.summary["abelian_max"] != cell(max(row[2] for row in rows)):
        problems.append("abelian_max is not the largest ratio")
    return problems


def tree_vertices(e: Experiment) -> list[str]:
    space = e.config["space"]
    count = tree_chain_vertices(space["a"], space["b"], space["blocks"])
    if e.summary["vertices"] != count:
        return [f"tree chain has {e.summary['vertices']} vertices, spec gives {count}"]
    return []


def center_count(e: Experiment, count: int) -> list[str]:
    if len(e.balls) != count:
        return [f"{len(e.balls)} centers in profile.csv, expected {count}"]
    return []


def annulus_table(e: Experiment) -> list[str]:
    rows = []
    for label, ball in e.balls.items():
        r = 2
        while r <= e.depth:
            inner = ball[r] - ball[r // 2]
            rows.append([label, r, inner, ball[r], Fraction(inner, ball[r])])
            r *= 2
    if e.table("annulus.csv") != [[cell(v) for v in row] for row in rows]:
        return ["annulus.csv differs from the ratios recomputed from profile.csv"]
    return []


def norm_profile(e: Experiment) -> list[str]:
    ball = e.balls.get("origin")
    if list(e.balls) != ["origin"]:
        return [f"expected the single center origin, got {list(e.balls)[:3]}"]
    problems = []
    if ball[0] != 1:
        problems.append(f"{ball[0]} points at norm 0")
    if any(b > a for a, b in zip(ball[1:], ball)):
        problems.append("norm profile decreases")
    if ball[-1] > e.summary["vertices"]:
        problems.append("norm profile counts more points than the strip has")
    return problems


def fit_values(e: Experiment) -> list[str]:
    opts = e.analyses["fit"]
    problems = []
    for label, ball in e.balls.items():
        if opts["dyadic_radii"]:
            radii = [2**i for i in range(3, e.depth.bit_length()) if 2**i <= e.depth]
        else:
            top = len(ball) - 1
            radii = list(range(max(1, top // 2), top + 1))
        xs = np.log([float(r) for r in radii])
        ys = np.log([float(ball[r]) for r in radii])
        slope = float(np.polyfit(xs, ys, 1)[0])
        got = e.summary["fit"][label]["exponent"]
        if not math.isclose(got, slope, rel_tol=1e-9, abs_tol=1e-12):
            problems.append(f"growth exponent at {label} is {got}, recomputed {slope}")
    return problems


def l1_profiles(e: Experiment, radius: int, key: str) -> list[str]:
    """Every center's profile against l1 distances in the Z^2 ball.

    In the l1 ball a shortest lattice path between two of its points can be
    taken monotone, first towards the axes and then away, so it stays
    inside: graph distance equals l1 distance.
    """
    by_id = shuffled_z2_ball(radius, key)
    points = np.array(by_id, dtype=np.int64)
    problems = []
    for label, ball in e.balls.items():
        x, y = (0, 0) if label == "origin" else by_id[int(label[1:])]
        dist = np.abs(points[:, 0] - x) + np.abs(points[:, 1] - y)
        counts = np.bincount(dist[dist <= e.depth], minlength=e.depth + 1)
        if np.cumsum(counts).tolist() != ball:
            problems.append(f"profile of {label} differs from l1 ball counts")
    return problems


def claims_table(e: Experiment) -> list[str]:
    opts = e.analyses["claims"]
    expected = [
        [str(n), str(k), "true", "true"]
        for k in opts["widths"]
        for n in range(k, opts["n_max"] + 1)
    ]
    problems = []
    if e.table("claims.csv") != expected:
        problems.append("claims.csv: some inclusion fails or a row is missing")
    if e.summary["claims"] != {"all_hold": True}:
        problems.append("summary claims.all_hold is not true")
    return problems


EXPERIMENT_CHECKS = {
    f.__name__: f
    for f in (
        origin_ball, vertices_from_profile, doubling_value, shell_worst,
        verify_table, dyadic_table, abelian_table, tree_vertices, center_count,
        annulus_table, norm_profile, fit_values, l1_profiles, claims_table,
    )
}

# -- checks on CLI jobs -----------------------------------------------------


def _option(argv: list[str], name: str) -> str:
    return argv[argv.index(name) + 1]


def powers_table(job: dict, artifacts: dict, group: str, prefix: int | None = None,
                 form: str | None = None) -> list[str]:
    argv = job["argv"]
    n_max = int(_option(argv, "--n-max"))
    _, header, rows = read_csv(artifacts, "powers.csv")
    if header != ["n", "size", "delta_size", "folner_ratio"]:
        return [f"powers.csv: bad columns {header}"]
    sizes = [int(row[1]) for row in rows]
    if [int(row[0]) for row in rows] != list(range(n_max + 1)):
        return ["powers.csv: rows are not n = 0..n_max"]
    problems = []
    for n, row in enumerate(rows):
        delta = sizes[n] - sizes[n - 1] if n else sizes[n]
        ratio = cell(Fraction(sizes[n + 1] - sizes[n], sizes[n])) if n < n_max else ""
        if row[2:] != [str(delta), ratio]:
            problems.append(f"powers.csv: row {n} inconsistent with the sizes")
    if form is not None:
        expected = closed_form_sizes(form, n_max)
    else:
        multiply = h3_multiply if group == "heisenberg" else zd_multiply
        expected = power_sizes(multiply, json.loads(_option(argv, "--set")), prefix)
    for n, size in enumerate(expected):
        if sizes[n] != size:
            problems.append(f"|U^{n}| = {sizes[n]}, reference {size}")
    return problems


GOLDEN = ((math.sqrt(5.0) - 1.0) / 2.0, math.sqrt(2.0) - 1.0)
OBSERVABLES = {
    "cos_x": lambda x, y: np.cos(2.0 * np.pi * x),
    "cos_y": lambda x, y: np.cos(2.0 * np.pi * y),
    "cos_mix": lambda x, y: np.cos(2.0 * np.pi * x) * np.cos(2.0 * np.pi * y),
}


def ergodic_table(job: dict, artifacts: dict) -> list[str]:
    """Ball averages recomputed over U^n, which for the standard set of
    Z^2 with the identity adjoined is the l1 ball of radius n."""
    argv = job["argv"]
    n_max = int(_option(argv, "--n-max"))
    f = OBSERVABLES[_option(argv, "--observable")]
    start = [float(v) for v in _option(argv, "--start").split(",")]
    _, header, rows = read_csv(artifacts, "ergodic.csv")
    if header != ["n", "average", "error"]:
        return [f"ergodic.csv: bad columns {header}"]
    if [int(row[0]) for row in rows] != list(range(n_max + 1)):
        return ["ergodic.csv: rows are not n = 0..n_max"]
    problems = []
    points = np.array(z2_ball_points(n_max), dtype=np.int64)
    norms = np.abs(points).sum(axis=1)
    values = f((start[0] + points[:, 0] * GOLDEN[0]) % 1.0,
               (start[1] + points[:, 1] * GOLDEN[1]) % 1.0)
    for n in sorted({0, 1, 2, n_max // 2, n_max}):
        average = float(values[norms <= n].mean())
        if not math.isclose(float(rows[n][1]), average, rel_tol=1e-9, abs_tol=1e-12):
            problems.append(f"average at n={n} is {rows[n][1]}, recomputed {average}")
    errors = [float(row[2]) for row in rows]
    if errors != [abs(float(row[1])) for row in rows]:
        problems.append("ergodic.csv: error column is not |average - 0|")
    summary = read_json(artifacts, "stdout.txt")
    if summary != {"final_error": errors[-1], "envelope": max(errors[-10:])}:
        problems.append(f"stdout summary {summary} does not match ergodic.csv")
    return problems


CLI_CHECKS = {f.__name__: f for f in (powers_table, ergodic_table)}


def check_job(job: dict, artifacts: dict) -> list[str]:
    """All problems of one job's artifacts; empty when the job passes."""
    try:
        if job["kind"] == "experiment":
            e = Experiment(job, artifacts)
            return [p for name, params in job["checks"]
                    for p in EXPERIMENT_CHECKS[name](e, **params)]
        return [p for name, params in job["checks"]
                for p in CLI_CHECKS[name](job, artifacts, **params)]
    except (CheckError, KeyError, IndexError, ValueError, TypeError, ZeroDivisionError) as exc:
        return [f"{type(exc).__name__}: {exc}"]


def digests(artifacts: dict) -> dict[str, str]:
    return {name: hashlib.sha256(data).hexdigest() for name, data in sorted(artifacts.items())}
