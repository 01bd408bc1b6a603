"""Experiment driver: build a space, profile it, run analyses, write artifacts.

Artifacts per run: `profile.csv` always, one CSV per enabled analysis that
has tabular output, and `summary.json` with the headline numbers.  Every CSV
starts with a `# config HASH` comment so artifacts can be traced back to the
exact normalized config that produced them; bodies are byte-identical across
reruns with the same config and seed.

The runner names no family, no analysis and no kind of space.
`run_analyses` is the one place analyses run: it builds the space record
through the family table of `registry` (a graph file through
`registry.graph_space`), profiles every center with the record's one
`profile` call, and runs the enabled entries of the analysis table in table
order, merging each entry's summary part and keeping its table.
`run_experiment` writes what it returns, each table as `<name>.csv`; the
CLI's analysis commands call it with the config their options make, and
print their own part of it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Mapping

from .analysis import shell_alpha  # noqa: F401  (kept importable from this module)
from .config import ExperimentConfig
from .errors import BudgetExceededError, ConfigError
from .graphio import load_graph
from .recipes import recipe_config
from .registry import (
    ANALYSES,
    FAMILIES,
    BuiltSpace,
    Context,
    Table,
    graph_space,
    profile_table,
    write_csv,
)
from .space import sample_centers

__all__ = ["ExperimentResult", "BuiltSpace", "build_space", "run_analyses", "run_experiment", "reproduce"]


@dataclass(frozen=True)
class ExperimentResult:
    summary: Mapping[str, Any]
    artifacts: tuple[Path, ...]

    @property
    def passed(self) -> bool:
        return bool(self.summary["pass"])


def build_space(config: ExperimentConfig) -> BuiltSpace:
    space = config.space
    if "graph_file" in space:
        return graph_space(load_graph(space["graph_file"], config.vertex_budget))
    return FAMILIES[space["family"]].build(space, config.vertex_budget)


def _resolve_centers(
    built: BuiltSpace, config: ExperimentConfig
) -> list[tuple[str, int]]:
    """(label, vertex) pairs for the configured centers, in label order."""
    spec = config.centers
    basepoints = built.basepoints
    if spec["sample"] > 0:
        by_vertex = {v: label for label, v in sorted(basepoints.items())}
        vertices = sample_centers(built, spec["sample"], config.seed or 0)
        return [(by_vertex.get(v, f"v{v}"), v) for v in vertices]
    labels = spec["basepoints"]
    if labels == "all":
        labels = sorted(basepoints)
    if not labels:
        raise ConfigError(
            "centers: no centers to profile (the space has no basepoints "
            "or centers.basepoints is empty, and centers.sample is 0)"
        )
    for label in labels:
        if label not in basepoints:
            raise ConfigError(
                f"centers.basepoints: unknown basepoint label {label!r}"
            )
    return [(label, basepoints[label]) for label in labels]


def run_analyses(config: ExperimentConfig) -> tuple[dict[str, Any], dict[str, Table]]:
    """Build the configured space, profile its centers and run the enabled
    analyses in table order.

    Returns the summary and each table by name, `profile` first.
    """
    built = build_space(config)
    centers = _resolve_centers(built, config)
    rows = len(centers) * (config.depth + 1)  # of the profile table, counted before any profile
    if rows > config.element_budget:
        raise BudgetExceededError("centers", rows, config.element_budget)
    labeled = [(label, built.profile(v, config.depth)) for label, v in centers]
    ctx = Context(config.space, config.element_budget, config.depth, labeled)
    summary: dict[str, Any] = {
        "config": config.digest,
        "space": dict(config.space),
        "vertices": built.vertex_count,
        "edges": built.edge_count,
        "alpha": None,
        "delta": None,
        "fitted_C": None,
    }
    tables = {"profile": profile_table(labeled)}
    checks: list[bool] = []
    for name, analysis in ANALYSES.items():
        if name not in config.analyses:
            continue
        outcome = analysis.run(ctx, config.analyses[name])
        summary.update(outcome.summary)
        if outcome.table is not None:
            tables[name] = outcome.table
        if outcome.passed is not None:
            checks.append(outcome.passed)
    summary["pass"] = all(checks)
    return summary, tables


def run_experiment(
    config: ExperimentConfig, out_dir: str | Path | None = None
) -> ExperimentResult:
    """Run every enabled analysis and write artifacts under the output dir."""
    out = Path(out_dir if out_dir is not None else config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    summary, tables = run_analyses(config)
    artifacts = []
    for name, (header, rows) in tables.items():
        path = out / f"{name}.csv"
        with open(path, "w", encoding="utf-8", newline="") as fh:
            write_csv(fh, summary["config"], header, rows)
        artifacts.append(path)
    summary_path = out / "summary.json"
    summary_path.write_text(
        json.dumps(summary, indent=2, sort_keys=True) + "\n", encoding="ascii"
    )
    artifacts.append(summary_path)
    return ExperimentResult(summary=summary, artifacts=tuple(artifacts))


def reproduce(name: str, out_dir: str | Path | None = None) -> ExperimentResult:
    """Run a bundled recipe."""
    return run_experiment(recipe_config(name), out_dir=out_dir)
