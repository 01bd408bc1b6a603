"""Experiment configs: a strict JSON schema, validated by hand.

The schema is small enough that explicit checks beat a schema library, and
hand-rolled validation lets every error name the offending field the way the
rest of the package names offending factors and labels.  Unknown keys are
errors anywhere in the document: a typo that silently disables an analysis
would invalidate an experiment.  Space parameters and analysis options are
checked through the family and analysis tables of `registry`, so this
module names no family and no analysis.

Config files and the CLI's analysis commands share this one way in: each
command turns its options into a raw config, so a bad option fails here
with the same error, naming the same field, as the config would.  Only
`validate_sections` admits a config that enables no analysis, which is
what the `profile` command runs.

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
    FAMILIES,
    at_least,
    check_keys,
    int_value,
    option_parser,
    parse_options,
)

__all__ = ["ExperimentConfig", "validate_config", "validate_sections", "validate_space", "load_config"]

_TOP_KEYS = {"space", "centers", "depth", "analyses", "output_dir", "seed", "budgets"}


def _require(mapping: Mapping[str, Any], key: str, where: str) -> Any:
    if key not in mapping:
        raise ConfigError(f"{where}: missing required key {key!r}")
    return mapping[key]


def validate_space(raw: Any) -> dict[str, Any]:
    """The `space` section, checked against the family table and normalized."""
    if not isinstance(raw, Mapping):
        raise ConfigError("space: expected an object")
    if "graph_file" in raw:
        check_keys(raw, {"graph_file"}, "space")
        path = raw["graph_file"]
        if not isinstance(path, str) or not path:
            raise ConfigError("space.graph_file: expected a nonempty string")
        return {"graph_file": path}
    family = _require(raw, "family", "space")
    if family not in FAMILIES:
        known = ", ".join(sorted(FAMILIES))
        raise ConfigError(f"space.family: unknown family {family!r}; known: {known}")
    params = {key: value for key, value in raw.items() if key != "family"}
    return {"family": family, **parse_options(params, FAMILIES[family].options, "space")}


_CENTERS = {
    "basepoints": (
        option_parser(
            lambda v: v == "all" or isinstance(v, list) and all(isinstance(p, str) for p in v),
            "expected 'all' or a list of labels",
            lambda v: v if v == "all" else list(v),
        ),
        "all",
    ),
    "sample": (at_least(0), 0),
}
_BUDGETS = {
    "vertices": (at_least(1), DEFAULT_VERTEX_BUDGET),
    "elements": (at_least(1), DEFAULT_ELEMENT_BUDGET),
}


def _validate_section(raw: Any, spec: Mapping[str, Any], where: str) -> dict[str, Any]:
    if not isinstance(raw, Mapping):
        raise ConfigError(f"{where}: expected an object")
    return parse_options(raw, spec, where)


def _validate_analyses(
    raw: Any, depth: int, space: Mapping[str, Any]
) -> dict[str, Any]:
    if not isinstance(raw, Mapping):
        raise ConfigError("analyses: expected an object")
    check_keys(raw, set(ANALYSES), "analyses")
    out = {}
    for name, options in raw.items():
        if not isinstance(options, Mapping):
            raise ConfigError(f"analyses.{name}: expected an object of options")
        out[name] = parse_options(options, ANALYSES[name].options, f"analyses.{name}", depth)
    for name, entry in ANALYSES.items():
        for option, test, error in entry.needs:
            if name in out and not test(out, space, depth):
                where = ".".join(filter(None, ("analyses", name, option)))
                raise ConfigError(f"{where}: " + error.format(depth=depth, **out[name]))
    return out


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


def validate_sections(raw: Mapping[str, Any]) -> ExperimentConfig:
    """Check a raw JSON object against the schema and fill in defaults,
    allowing `analyses` to enable nothing: a run that only profiles.

    Raises ConfigError naming the first offending field.  Structural checks
    only; label existence against the actual space is the runner's job.
    """
    if not isinstance(raw, Mapping):
        raise ConfigError("config: expected a JSON object at top level")
    check_keys(raw, _TOP_KEYS, "config")
    space = validate_space(_require(raw, "space", "config"))
    depth = int_value(_require(raw, "depth", "config"), "config.depth", 2)
    centers_raw = raw.get("centers")
    centers_raw = {} if centers_raw is None else centers_raw
    centers = _validate_section(centers_raw, _CENTERS, "centers")
    analyses = _validate_analyses(_require(raw, "analyses", "config"), depth, space)
    output_dir = raw.get("output_dir", "out")
    if not isinstance(output_dir, str) or not output_dir:
        raise ConfigError("output_dir: expected a nonempty string")
    seed = raw.get("seed")
    if seed is not None and (isinstance(seed, bool) or not isinstance(seed, int)):
        raise ConfigError(f"seed: expected an integer, got {seed!r}")
    if centers["sample"] > 0 and seed is None:
        raise ConfigError("seed: required whenever centers.sample is positive")
    budgets = _validate_section(raw.get("budgets", {}), _BUDGETS, "budgets")
    # A profile holds depth + 1 counts per center.
    if depth > budgets["vertices"]:
        raise ConfigError(
            f"config.depth: must be at most the vertex budget {budgets['vertices']} "
            f"(budgets.vertices, --budget-vertices), got {depth}"
        )
    return ExperimentConfig(space, centers, depth, analyses, output_dir, seed, budgets)


def validate_config(raw: Mapping[str, Any]) -> ExperimentConfig:
    """`validate_sections`, with at least one analysis enabled."""
    config = validate_sections(raw)
    if not config.analyses:
        raise ConfigError("analyses: at least one analysis must be enabled")
    return config


def load_config(path: str | Path) -> ExperimentConfig:
    """Read and validate a JSON config file."""
    text = Path(path).read_text(encoding="utf-8")
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config: invalid JSON ({exc})") from None
    return validate_config(raw)
