"""Experiment configs: a strict JSON schema, read by `registry.parse_options`.

Every field is read by `parse_options`, from the top-level spec `_CONFIG`
down through each section and the family and analysis tables of
`registry`, so every error names the offending field the way the rest of
the package names offending factors and labels, and this module names no
family and no analysis.  Unknown keys are errors anywhere in the document:
a typo that silently disables an analysis would invalidate an experiment.
What is left here are the rules that span fields: an analysis option
whose default is half the depth gets it, `seed` is required with
`centers.sample`, `depth` is at most `budgets.vertices`, and each analysis
gets what it `needs` of the rest of the config.

Config files and the CLI share this one way in: each analysis command turns
its options into a raw config, and `reproduce` reads a config's fields again
with the global options given, so a bad option fails here with the same
error, naming the same field, as the config would.  Only `validate_sections`
admits a config that enables no analysis, which is what `profile` runs.

A validated config is normalized (defaults filled in) before hashing, so two
spellings of the same experiment share one hash, and every artifact written
by the runner carries that hash in a comment line.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, Mapping

from .errors import ConfigError
from .generators import DEFAULT_VERTEX_BUDGET
from .products import DEFAULT_ELEMENT_BUDGET
from .registry import (
    ANALYSES,
    HALF_DEPTH,
    REQUIRED,
    at_least,
    center_labels,
    named,
    nonempty_string,
    parse_space,
    section,
    seed_value,
)

__all__ = ["BUDGETS", "CENTERS", "ExperimentConfig", "validate_config", "validate_sections", "load_config"]

CENTERS = {
    "basepoints": (center_labels, "all"),
    "sample": (at_least(0), 0),
}
BUDGETS = {
    "vertices": (at_least(1), DEFAULT_VERTEX_BUDGET),
    "elements": (at_least(1), DEFAULT_ELEMENT_BUDGET),
}
_ANALYSES = {name: (section(analysis.options), None) for name, analysis in ANALYSES.items()}
_CONFIG = {
    "space": (named(parse_space, "space"), REQUIRED),
    "depth": (at_least(2), REQUIRED),
    "centers": (named(section(CENTERS), "centers"), {}),
    "analyses": (named(section(_ANALYSES), "analyses"), REQUIRED),
    "output_dir": (nonempty_string, "out"),
    "seed": (seed_value, None),
    "budgets": (named(section(BUDGETS), "budgets"), {}),
}


@dataclass(frozen=True)
class ExperimentConfig:
    """A validated, normalized experiment description, built only by
    `validate_config` and `validate_sections`.

    The fields hold the sections with defaults filled in; `digest` is the
    sha-256 of their sorted-key JSON form, truncated to 16 hex digits, and
    is what artifact files record.
    """

    space: Mapping[str, Any]
    centers: Mapping[str, Any]
    depth: int
    analyses: Mapping[str, Any]
    output_dir: str
    seed: int | None
    budgets: Mapping[str, int]

    @property
    def digest(self) -> str:
        canonical = json.dumps(asdict(self), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("ascii")).hexdigest()[:16]

    @property
    def vertex_budget(self) -> int:
        return self.budgets["vertices"]

    @property
    def element_budget(self) -> int:
        return self.budgets["elements"]


def validate_sections(raw: Any) -> ExperimentConfig:
    """Check a raw JSON object against the schema and fill in defaults,
    allowing `analyses` to enable nothing: a run that only profiles.

    Raises ConfigError naming the first offending field.  Structural checks
    only; label existence against the actual space is the runner's job.
    """
    fields = section(_CONFIG, "a JSON object at top level")(raw, "config")
    depth, centers, analyses, budgets = (fields[key] for key in ("depth", "centers", "analyses", "budgets"))
    for name, options in analyses.items():
        for key, (_, default) in ANALYSES[name].options.items():
            if default is HALF_DEPTH and key not in options:
                options[key] = depth // 2
    for name, entry in ANALYSES.items():
        for option, test, error in entry.needs:
            if name in analyses and not test(analyses, fields["space"], depth):
                where = ".".join(filter(None, ("analyses", name, option)))
                raise ConfigError(f"{where}: " + error.format(depth=depth, **analyses[name]))
    if centers["sample"] > 0 and fields.get("seed") is None:
        raise ConfigError("seed: required whenever centers.sample is positive")
    # A profile holds depth + 1 counts per center.
    if depth > budgets["vertices"]:
        raise ConfigError(
            f"config.depth: must be at most the vertex budget {budgets['vertices']} "
            f"(budgets.vertices, --budget-vertices), got {depth}"
        )
    return ExperimentConfig(**{"seed": None, **fields})


def validate_config(raw: Mapping[str, Any]) -> ExperimentConfig:
    """`validate_sections`, with at least one analysis enabled."""
    config = validate_sections(raw)
    if not config.analyses:
        raise ConfigError("analyses: at least one analysis must be enabled")
    return config


def load_config(path: str | Path) -> ExperimentConfig:
    """Read and validate a JSON config file, which is UTF-8 text."""
    data = Path(path).read_bytes()
    try:
        raw = json.loads(data.decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise ConfigError(
            f"config: byte {data[exc.start]:#04x} at offset {exc.start} is not UTF-8"
        ) from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config: invalid JSON ({exc})") from None
    return validate_config(raw)
