"""Experiment driver: build a space, profile it, run analyses, write artifacts.

Artifacts per run: `profile.csv` always, one CSV per enabled analysis that
has tabular output, and `summary.json` with the headline numbers.  Every CSV
starts with a `# config HASH` comment so artifacts can be traced back to the
exact normalized config that produced them; bodies are byte-identical across
reruns with the same config and seed.

The runner names no analysis and no family: it builds the space through
the family table of `registry`, profiles the centers, and runs the enabled
entries of the analysis table in table order, writing each entry's table
as `<name>.csv` and merging its summary part.  The CLI's analysis commands
go through `profile_space` and the same entries.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Mapping, Sequence

from .analysis import shell_alpha  # noqa: F401  (kept importable from this module)
from .config import ExperimentConfig, validate_config
from .errors import ConfigError
from .generators import norm_profile
from .graphio import load_graph
from .recipes import recipe, recipe_config
from .registry import (
    ANALYSES,
    FAMILIES,
    BuiltSpace,
    Context,
    profile_table,
    write_csv,
)
from .space import VolumeProfile, sample_centers, volume_profile

__all__ = ["ExperimentResult", "BuiltSpace", "build_space", "run_experiment", "reproduce"]


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
        return BuiltSpace(given=load_graph(space["graph_file"], config.vertex_budget))
    return FAMILIES[space["family"]].build(space, config.vertex_budget)


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


def profile_space(config: ExperimentConfig) -> tuple[BuiltSpace, Context]:
    """Build the configured space and profile its centers: the context
    every analysis runs in."""
    built = build_space(config)
    labeled = _profiles(built, _resolve_centers(built, config), config.depth)
    return built, Context(config.space, config.element_budget, config.depth, labeled)


def _write_csv(
    path: Path, digest: str, header: Sequence[str], rows: Sequence[Sequence[Any]]
) -> Path:
    with open(path, "w", encoding="ascii", newline="") as fh:
        write_csv(fh, digest, header, rows)
    return path


def run_experiment(
    config: ExperimentConfig, out_dir: str | Path | None = None
) -> ExperimentResult:
    """Run every enabled analysis and write artifacts under the output dir."""
    digest = config.digest
    out = Path(out_dir if out_dir is not None else config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    built, ctx = profile_space(config)
    artifacts = [_write_csv(out / "profile.csv", digest, *profile_table(ctx.labeled))]
    summary: dict[str, Any] = {
        "config": digest,
        "space": dict(config.space),
        "vertices": built.vertex_count,
        "edges": built.edge_count,
        "alpha": None,
        "delta": None,
        "fitted_C": None,
    }
    checks: list[bool] = []
    for name, analysis in ANALYSES.items():
        if name not in config.analyses:
            continue
        outcome = analysis.run(ctx, config.analyses[name])
        summary.update(outcome.summary)
        if outcome.table is not None:
            artifacts.append(_write_csv(out / f"{name}.csv", digest, *outcome.table))
        if outcome.passed is not None:
            checks.append(outcome.passed)

    summary["pass"] = all(checks)
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
