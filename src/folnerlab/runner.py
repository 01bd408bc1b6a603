"""Experiment driver: build a space, profile it, run analyses, write artifacts.

Artifacts per run: `profile.csv` always, one CSV per enabled analysis that
has tabular output, and `summary.json` with the headline numbers.  Every CSV
starts with a `# config HASH` comment so artifacts can be traced back to the
exact normalized config that produced them; bodies are byte-identical across
reruns with the same config and seed.

Formatting rules: exact columns carry rationals as "p/q" strings and
integers as plain decimals; fitted columns carry floats via repr (shortest
round-trip form); booleans are "true"/"false".
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from pathlib import Path
from typing import Any, Mapping, Sequence

from .analysis import (
    DyadicSelection,
    abelian_isop_check,
    doubling_constant,
    dyadic_subsequence,
    growth_exponent_fit,
    shell_alpha,
    verify_sphere_bound,
)
from .config import ExperimentConfig, validate_config
from .ergodic import GOLDEN_ANGLES, TorusAction, ergodic_trace
from .errors import ConfigError
from .generators import (
    StairwayStrip,
    TreeChainSpec,
    WordBall,
    norm_profile,
    stairway_strip,
    stretched_tree_chain,
    word_ball,
)
from .graphio import load_graph
from .groups import GroupModel, heisenberg_model, zd_model
from .products import product_powers, shell_inclusion_check
from .recipes import recipe, recipe_config
from .space import Graph, VolumeProfile, sample_centers, volume_profile

__all__ = ["ExperimentResult", "BuiltSpace", "build_space", "run_experiment", "reproduce"]


@dataclass(frozen=True)
class ExperimentResult:
    summary: Mapping[str, Any]
    artifacts: tuple[Path, ...]

    @property
    def passed(self) -> bool:
        return bool(self.summary["pass"])


@dataclass(frozen=True)
class BuiltSpace:
    """A realized space, plus whatever extra structure it came with.

    The group families carry their word ball and build the graph from it
    only when something asks for `graph`; the others carry the graph.
    """

    given: Graph | None = None  # set for graph files, tree chains and the stairway
    ball: WordBall | None = None  # set for the group families
    strip: StairwayStrip | None = None  # set for the stairway family

    @property
    def model(self) -> GroupModel | None:
        return None if self.ball is None else self.ball.model

    @cached_property
    def graph(self) -> Graph:
        return self.given if self.ball is None else self.ball.graph()

    @property
    def vertex_count(self) -> int:
        return self.graph.vertex_count if self.ball is None else self.ball.vertex_count

    @property
    def edge_count(self) -> int:
        return self.graph.edge_count if self.ball is None else self.ball.edge_count

    @property
    def basepoints(self) -> Mapping[str, int]:
        return self.graph.basepoints if self.ball is None else {"origin": 0}


def build_space(config: ExperimentConfig) -> BuiltSpace:
    space = config.space
    budget = config.vertex_budget
    if "graph_file" in space:
        return BuiltSpace(given=load_graph(space["graph_file"]))
    family = space["family"]
    if family in ("lattice", "heisenberg"):
        model = zd_model(space["d"]) if family == "lattice" else heisenberg_model()
        gens = model.generating_set(space["generating_set"])
        return BuiltSpace(ball=word_ball(model, gens, space["radius"], budget))
    if family == "tree-chain":
        spec = TreeChainSpec(
            stretch=space["a"], valence=space["b"], blocks=space["blocks"]
        )
        return BuiltSpace(given=stretched_tree_chain(spec, budget))
    if family == "stairway":
        strip = stairway_strip(space["levels"], budget)
        return BuiltSpace(given=strip.graph, strip=strip)
    raise ConfigError(f"space.family: unknown family {family!r}")


def _resolve_centers(
    built: BuiltSpace, config: ExperimentConfig
) -> list[tuple[str, int]]:
    """(label, vertex) pairs for the configured centers, in label order."""
    spec = config.centers
    basepoints = built.basepoints
    if spec["sample"] > 0:
        by_vertex = {v: label for label, v in sorted(basepoints.items())}
        vertices = sample_centers(built.graph, spec["sample"], config.seed or 0)
        return [(by_vertex.get(v, f"v{v}"), v) for v in vertices]
    labels = spec["basepoints"]
    if labels == "all":
        return sorted(basepoints.items())
    out = []
    for label in labels:
        if label not in basepoints:
            raise ConfigError(
                f"centers.basepoints: unknown basepoint label {label!r}"
            )
        out.append((label, basepoints[label]))
    return out


def _cell(value: Any) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _write_csv(
    path: Path, digest: str, header: Sequence[str], rows: Sequence[Sequence[Any]]
) -> Path:
    with open(path, "w", encoding="ascii", newline="") as fh:
        fh.write(f"# config {digest}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_cell(v) for v in row])
    return path


def _profiles(
    built: BuiltSpace, centers: Sequence[tuple[str, int]], depth: int
) -> list[tuple[str, VolumeProfile]]:
    if built.strip is not None:
        # Stairway analyses run in the ambient Euclidean metric from the
        # origin; the graph metric sees only a thick path here.
        return [("origin", norm_profile(built.strip, depth))]

    def profile(v: int) -> VolumeProfile:
        if built.ball is not None and v == 0:
            return built.ball.profile(depth)  # the identity: no graph needed
        return volume_profile(built.graph, v, depth)

    return [(label, profile(v)) for label, v in centers]


def run_experiment(
    config: ExperimentConfig, out_dir: str | Path | None = None
) -> ExperimentResult:
    """Run every enabled analysis and write artifacts under the output dir."""
    digest = config.digest
    out = Path(out_dir if out_dir is not None else config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    built = build_space(config)
    centers = _resolve_centers(built, config)
    depth = config.depth
    labeled = _profiles(built, centers, depth)
    profiles = [p for _, p in labeled]
    artifacts: list[Path] = []

    rows = []
    for label, p in labeled:
        spheres = p.sphere
        for r in range(p.depth + 1):
            rows.append((label, r, p.ball[r], spheres[r] if r < p.depth else ""))
    artifacts.append(
        _write_csv(out / "profile.csv", digest, ("center", "r", "ball", "sphere"), rows)
    )

    analyses = config.analyses
    summary: dict[str, Any] = {
        "config": digest,
        "space": dict(config.space),
        "vertices": built.vertex_count,
        "edges": built.edge_count,
        "alpha": None,
        "delta": None,
        "fitted_C": None,
        "pass": True,
    }
    checks: list[bool] = []

    if "doubling" in analyses:
        value = doubling_constant(profiles, analyses["doubling"]["r_max"])
        summary["doubling"] = _cell(value)

    shell_report = None
    if "shell" in analyses:
        opts = analyses["shell"]
        shell_report = shell_alpha(
            profiles,
            k_min=opts["k_min"],
            n_max=opts["n_max"],
            record_all=opts["record_all"],
        )
        summary["alpha"] = _cell(shell_report.alpha)
        summary["delta"] = shell_report.delta
        summary["fitted_C"] = shell_report.fitted_constant
        summary["shell"] = {
            "pairs_tested": shell_report.pairs_tested,
            "worst_center": shell_report.worst.center,
            "worst_n": shell_report.worst.n,
            "worst_k": shell_report.worst.k,
        }
        artifacts.append(
            _write_csv(
                out / "shell.csv",
                digest,
                ("center", "n", "k", "c_lo", "c_hi", "ratio"),
                [
                    (r.center, r.n, r.k, r.c_lo, r.c_hi, "" if r.ratio is None else r.ratio)
                    for r in shell_report.records
                ],
            )
        )

    if "annulus" in analyses:
        rows = []
        for label, p in labeled:
            r = 2
            while r <= p.depth:
                inner = p.ball[r] - p.ball[r // 2]
                rows.append((label, r, inner, p.ball[r], Fraction(inner, p.ball[r])))
                r *= 2
        artifacts.append(
            _write_csv(
                out / "annulus.csv",
                digest,
                ("center", "r", "annulus", "ball", "ratio"),
                rows,
            )
        )

    if "verify" in analyses:
        assert shell_report is not None  # config validation enforces this
        report = verify_sphere_bound(
            profiles,
            shell_report.delta,
            n_range=(1, min(shell_report.n_max, depth - 1)),
            slope_tolerance=analyses["verify"]["slope_tolerance"],
        )
        summary["fitted_C"] = report.fitted_constant
        summary["verify"] = {
            "trend_slope": report.trend_slope,
            "passed": report.passed,
        }
        checks.append(report.passed)
        artifacts.append(
            _write_csv(
                out / "verify.csv",
                digest,
                ("n", "constant"),
                list(zip(range(report.n_lo, report.n_hi + 1), report.constants)),
            )
        )

    if "dyadic" in analyses:
        r_max = depth // 2
        slack = 2 * doubling_constant(profiles, r_max)
        selections: list[DyadicSelection] = [
            dyadic_subsequence(p, slack, analyses["dyadic"].get("i_max"))
            for p in profiles
        ]
        rows = []
        for (label, _), sel in zip(labeled, selections):
            for rec in sel.records:
                rows.append(
                    (label, rec.i, rec.radius, rec.sphere, rec.ball, rec.bound, rec.certified)
                )
        all_ok = all(sel.all_certified for sel in selections)
        summary["dyadic"] = {"certified": all_ok, "slack_doubling": _cell(slack)}
        checks.append(all_ok)
        artifacts.append(
            _write_csv(
                out / "dyadic.csv",
                digest,
                ("center", "i", "radius", "sphere", "ball", "bound", "certified"),
                rows,
            )
        )

    if "abelian" in analyses:
        n_max = analyses["abelian"].get("n_max")
        rows = []
        worst = Fraction(0)
        for label, p in labeled:
            top = p.depth - 1 if n_max is None else min(n_max, p.depth - 1)
            for n in range(1, top + 1):
                ratio = Fraction(n * p.sphere[n], p.ball[n])
                worst = max(worst, ratio)
                rows.append((label, n, ratio))
        summary["abelian_max"] = _cell(worst)
        artifacts.append(
            _write_csv(out / "abelian.csv", digest, ("center", "n", "isop"), rows)
        )

    if "fit" in analyses:
        opts = analyses["fit"]
        radii = None
        if opts["dyadic_radii"]:
            radii = [2**i for i in range(3, depth.bit_length()) if 2**i <= depth]
        fits = {}
        for label, p in labeled:
            fit = growth_exponent_fit(
                p.ball, radii=radii, min_points=opts["min_points"]
            )
            fits[label] = {
                "exponent": fit.exponent,
                "intercept": fit.intercept,
                "residual_rms": fit.residual_rms,
            }
        summary["fit"] = fits

    if "ergodic" in analyses:
        opts = analyses["ergodic"]
        assert built.model is not None
        sequence = product_powers(
            built.model,
            config.space["generating_set"],
            opts["n_max"],
            config.element_budget,
        )
        trace = ergodic_trace(
            TorusAction(GOLDEN_ANGLES),
            sequence,
            opts["observable"],
            tuple(opts["start"]),
        )
        summary["ergodic"] = {
            "observable": opts["observable"],
            "final_error": trace.final_error,
            "envelope": trace.envelope(),
        }
        artifacts.append(
            _write_csv(
                out / "ergodic.csv",
                digest,
                ("n", "average", "error"),
                list(zip(range(len(trace.averages)), trace.averages, trace.errors)),
            )
        )

    if "claims" in analyses:
        opts = analyses["claims"]
        assert built.model is not None
        gen = built.model.generating_set(config.space["generating_set"])
        rows = []
        all_ok = True
        for k in opts["widths"]:
            for n in range(k, opts["n_max"] + 1):
                forward, backward = shell_inclusion_check(
                    built.model, gen, n, k, config.element_budget
                )
                all_ok = all_ok and forward and backward
                rows.append((n, k, forward, backward))
        summary["claims"] = {"all_hold": all_ok}
        checks.append(all_ok)
        artifacts.append(
            _write_csv(
                out / "claims.csv", digest, ("n", "k", "forward", "backward"), rows
            )
        )

    summary["pass"] = all(checks) if checks else True
    summary_path = out / "summary.json"
    summary_path.write_text(
        json.dumps(summary, indent=2, sort_keys=True) + "\n", encoding="ascii"
    )
    artifacts.append(summary_path)
    return ExperimentResult(summary=summary, artifacts=tuple(artifacts))


def reproduce(
    name: str,
    out_dir: str | Path | None = None,
    overrides: Mapping[str, Any] | None = None,
) -> ExperimentResult:
    """Run a bundled recipe, optionally overriding top-level config keys."""
    if overrides:
        raw = dict(recipe(name).raw)
        raw.update(overrides)
        config = validate_config(raw)
    else:
        config = recipe_config(name)
    return run_experiment(config, out_dir=out_dir)
