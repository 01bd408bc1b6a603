"""
Tests for the config reader: every field is read by `parse_options`.

Core claims:
    - each field of a config (top level, `space`, `centers`, each
      `analyses.<name>` and its options, `budgets`), given a list, an object,
      a boolean, a float, null, a string, NaN or ±inf it does not take,
      fails with a ConfigError that names the field; a number field takes no
      NaN, ±inf or int past the float range, also from a config file's
      `NaN` and `Infinity`
    - `space.family` that is not a string fails as an unknown family, and
      `reproduce --config` reports it in one line, with no traceback
    - against the hand-written reader it replaced, kept below as the
      reference, on seeded configs: a valid config gives an equal
      `ExperimentConfig` and digest, and a config with one fault the same
      error text, but for the documented changes (see `_reread`)
"""

import copy
import json
import random
import subprocess
import sys

import pytest

from folnerlab.config import ExperimentConfig, load_config, validate_sections
from folnerlab.errors import ConfigError
from folnerlab.generators import DEFAULT_VERTEX_BUDGET
from folnerlab.products import DEFAULT_ELEMENT_BUDGET
from folnerlab.registry import ANALYSES, FAMILIES, HALF_DEPTH, REQUIRED, at_least, option_parser

# -- the reference: the reader as it was, checking half the fields by hand ----


def _check_keys(mapping, allowed, where):
    unknown = sorted(set(mapping) - allowed)
    if unknown:
        raise ConfigError(f"{where}: unknown key {unknown[0]!r}")


def _parse_options(raw, spec, where, depth=0):
    _check_keys(raw, set(spec), where)
    out = {}
    for key, (parse, default) in spec.items():
        if key in raw:
            out[key] = parse(raw[key], f"{where}.{key}")
        elif default is REQUIRED:
            raise ConfigError(f"{where}: missing required key {key!r}")
        elif default is HALF_DEPTH:
            out[key] = depth // 2
        elif default is not None:
            out[key] = parse(default, f"{where}.{key}")
    return out


def _require(mapping, key, where):
    if key not in mapping:
        raise ConfigError(f"{where}: missing required key {key!r}")
    return mapping[key]


def _reference_space(raw):
    if not isinstance(raw, dict):
        raise ConfigError("space: expected an object")
    if "graph_file" in raw:
        _check_keys(raw, {"graph_file"}, "space")
        path = raw["graph_file"]
        if not isinstance(path, str) or not path:
            raise ConfigError("space.graph_file: expected a nonempty string")
        return {"graph_file": path}
    family = _require(raw, "family", "space")
    if family not in FAMILIES:  # a list or an object raises TypeError here
        known = ", ".join(sorted(FAMILIES))
        raise ConfigError(f"space.family: unknown family {family!r}; known: {known}")
    params = {key: value for key, value in raw.items() if key != "family"}
    return {"family": family, **_parse_options(params, FAMILIES[family].options, "space")}


_REFERENCE_CENTERS = {
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
_REFERENCE_BUDGETS = {
    "vertices": (at_least(1), DEFAULT_VERTEX_BUDGET),
    "elements": (at_least(1), DEFAULT_ELEMENT_BUDGET),
}


def _reference_section(raw, spec, where):
    if not isinstance(raw, dict):
        raise ConfigError(f"{where}: expected an object")
    return _parse_options(raw, spec, where)


def _reference_analyses(raw, depth, space):
    if not isinstance(raw, dict):
        raise ConfigError("analyses: expected an object")
    _check_keys(raw, set(ANALYSES), "analyses")
    out = {}
    for name, options in raw.items():
        if not isinstance(options, dict):
            raise ConfigError(f"analyses.{name}: expected an object of options")
        out[name] = _parse_options(options, ANALYSES[name].options, f"analyses.{name}", depth)
    for name, entry in ANALYSES.items():
        for option, test, error in entry.needs:
            if name in out and not test(out, space, depth):
                where = ".".join(filter(None, ("analyses", name, option)))
                raise ConfigError(f"{where}: " + error.format(depth=depth, **out[name]))
    return out


def _reference_sections(raw):
    if not isinstance(raw, dict):
        raise ConfigError("config: expected a JSON object at top level")
    _check_keys(raw, {"space", "centers", "depth", "analyses", "output_dir", "seed", "budgets"}, "config")
    space = _reference_space(_require(raw, "space", "config"))
    depth = at_least(2)(_require(raw, "depth", "config"), "config.depth")
    centers_raw = raw.get("centers")
    centers_raw = {} if centers_raw is None else centers_raw
    centers = _reference_section(centers_raw, _REFERENCE_CENTERS, "centers")
    analyses = _reference_analyses(_require(raw, "analyses", "config"), depth, space)
    output_dir = raw.get("output_dir", "out")
    if not isinstance(output_dir, str) or not output_dir:
        raise ConfigError("output_dir: expected a nonempty string")
    seed = raw.get("seed")
    if seed is not None and (isinstance(seed, bool) or not isinstance(seed, int)):
        raise ConfigError(f"seed: expected an integer, got {seed!r}")
    if centers["sample"] > 0 and seed is None:
        raise ConfigError("seed: required whenever centers.sample is positive")
    budgets = _reference_section(raw.get("budgets", {}), _REFERENCE_BUDGETS, "budgets")
    if depth > budgets["vertices"]:
        raise ConfigError(
            f"config.depth: must be at most the vertex budget {budgets['vertices']} "
            f"(budgets.vertices, --budget-vertices), got {depth}"
        )
    return ExperimentConfig(space, centers, depth, analyses, output_dir, seed, budgets)


def _reread(text):
    """A reference error text as the reader words it: top-level scalars sit
    under `config.`, and an analysis that is not an object is "expected an
    object"."""
    for old, new in (("output_dir: ", "config.output_dir: "), ("seed: expected", "config.seed: expected")):
        if text.startswith(old):
            return new + text[len(old):]
    return text.removesuffix(" of options")


def _outcome(read, raw):
    try:
        config = read(raw)
    except ConfigError as error:
        return ("error", str(error))
    return ("config", config, config.digest)


# -- the fields, each fed every JSON type --------------------------------------

_BASE = {
    "space": {"family": "lattice", "d": 2, "radius": 16},
    "depth": 16,
    "centers": {"basepoints": "all", "sample": 0},
    "analyses": {name: {} for name in ANALYSES},
    "output_dir": "out",
    "seed": 1,
    "budgets": {"vertices": 1000, "elements": 1000},
}
_SPACES = {
    "lattice": {"family": "lattice", "d": 2, "radius": 16, "generating_set": "standard"},
    "tree-chain": {"family": "tree-chain", "a": 2, "b": 3, "blocks": 2},
    "stairway": {"family": "stairway", "levels": 3},
    "graph_file": {"graph_file": "z2.graph"},
}
_VALUES = {"list": [1], "object": {"x": 1}, "boolean": True, "float": 1.5, "null": None, "string": "x",
           "nan": float("nan"), "inf": float("inf"), "-inf": float("-inf")}
# (field, value) pairs a field takes
_TAKEN = {
    ("seed", "null"),
    ("output_dir", "string"),
    ("space.graph_file", "string"),
    ("analyses.shell.record_all", "boolean"),
    ("analyses.fit.dyadic_radii", "boolean"),
    ("analyses.verify.slope_tolerance", "float"),
}


def _fields():
    """(path, the space it is read in); the top-level sections first."""
    yield from ((key, "lattice") for key in _BASE)
    for family, space in _SPACES.items():
        yield from (("space." + key, family) for key in space)
    yield from (("centers." + key, "lattice") for key in _BASE["centers"])
    for name, analysis in ANALYSES.items():
        yield f"analyses.{name}", "lattice"
        yield from ((f"analyses.{name}.{key}", "lattice") for key in analysis.options)
    yield from (("budgets." + key, "lattice") for key in _BASE["budgets"])


_DELETE = object()


def _set(raw, path, value):
    """A copy of `raw` with the field at `path` set to `value` (or deleted),
    or None if `raw` lacks a section on the path."""
    raw = copy.deepcopy(raw)
    *parents, key = path.split(".")
    target = raw
    for parent in parents:
        if not isinstance(target.get(parent), dict):
            return None
        target = target[parent]
    if value is _DELETE:
        target.pop(key, None)
    else:
        target[key] = value
    return raw


_CASES = [
    (path, family, kind)
    for path, family in _fields()
    for kind in _VALUES
    if (path, kind) not in _TAKEN
]


def _base(family):
    """The base config on a space; only the lattice takes `ergodic` and `claims`."""
    analyses = {name: {} for name in ANALYSES if family == "lattice" or name not in ("ergodic", "claims")}
    return {**_BASE, "space": _SPACES[family], "analyses": analyses}


class TestEveryFieldIsRead:
    @pytest.mark.parametrize("family", _SPACES)
    def test_the_base_config_is_valid(self, family):
        validate_sections(_base(family))

    @pytest.mark.parametrize("path,family,kind", _CASES)
    def test_a_value_of_the_wrong_type_names_its_field(self, path, family, kind):
        raw = _set(_base(family), path, _VALUES[kind])
        with pytest.raises(ConfigError) as error:
            validate_sections(raw)
        named = path if "." in path or isinstance(_BASE[path], dict) else f"config.{path}"
        assert str(error.value).startswith(named + ":") or str(error.value).startswith(named + ".")

    @pytest.mark.parametrize("value,shown", [
        (float("nan"), "nan"), (float("inf"), "inf"), (float("-inf"), "-inf"), (10**400, str(10**400)),
    ])
    def test_a_number_must_be_finite(self, value, shown):
        with pytest.raises(ConfigError) as error:
            validate_sections(_set(_BASE, "analyses.verify.slope_tolerance", value))
        assert str(error.value) == f"analyses.verify.slope_tolerance: expected a finite number, got {shown}"

    @pytest.mark.parametrize("value,text", [(float("nan"), "NaN"), (float("inf"), "Infinity"), (float("-inf"), "-Infinity")])
    def test_a_config_file_with_a_json_constant_fails(self, tmp_path, value, text):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(_set(_BASE, "analyses.verify.slope_tolerance", value)))
        assert f'"slope_tolerance": {text}' in path.read_text()
        with pytest.raises(ConfigError) as error:
            load_config(path)
        assert str(error.value) == f"analyses.verify.slope_tolerance: expected a finite number, got {value!r}"

    @pytest.mark.parametrize("family", [["lattice"], {"lattice": 1}, 3])
    def test_a_family_that_is_no_name_exits_1_without_a_traceback(self, tmp_path, child_env, family):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({**_BASE, "space": {"family": family, "d": 2, "radius": 4}}))
        result = subprocess.run(
            [sys.executable, "-m", "folnerlab", "--out", str(tmp_path / "out"), "reproduce", "--config", str(config)],
            capture_output=True, text=True, env=child_env(), timeout=60,
        )
        assert result.returncode == 1
        assert result.stdout == ""
        assert result.stderr == (
            f"Error: space.family: unknown family {family!r}; known: heisenberg, lattice, stairway, tree-chain\n"
        )


# -- the differential battery ---------------------------------------------------


def _random_space(rng):
    kind = rng.choice(["lattice", "heisenberg", "tree-chain", "stairway", "graph_file"])
    if kind == "lattice":
        d = rng.randint(1, 3)
        space = {"family": "lattice", "d": d, "radius": rng.randint(1, 20)}
        if rng.random() < 0.5:
            space["generating_set"] = rng.choice(["standard", "diagonal", "skew"] if d == 2 else ["standard"])
        return space
    if kind == "heisenberg":
        space = {"family": "heisenberg", "radius": rng.randint(1, 20)}
        return {**space, "generating_set": "standard"} if rng.random() < 0.3 else space
    if kind == "tree-chain":
        return {"family": "tree-chain", "a": rng.randint(2, 4), "b": rng.randint(2, 4), "blocks": rng.randint(1, 5)}
    if kind == "stairway":
        return {"family": "stairway", "levels": rng.randint(2, 6)}
    return {"graph_file": "z2.graph"}


_OPTIONS = {  # a few values each option takes, or may take at the depth
    "r_max": lambda rng, depth: rng.randint(1, depth // 2),
    "k_min": lambda rng, depth: rng.randint(1, 6),
    "n_max": lambda rng, depth: rng.randint(1, depth),
    "record_all": lambda rng, depth: rng.random() < 0.5,
    "slope_tolerance": lambda rng, depth: rng.choice([0.05, 1, 0.2]),
    "i_max": lambda rng, depth: rng.randint(0, 6),
    "dyadic_radii": lambda rng, depth: rng.random() < 0.5,
    "min_points": lambda rng, depth: rng.randint(2, 8),
    "start": lambda rng, depth: [rng.random(), rng.randint(0, 1)],
    "observable": lambda rng, depth: rng.choice(["cos_x", "box", "one"]),
    "widths": lambda rng, depth: rng.choice([[4], [4, 8], [8, 12]]),
}


def _random_config(rng):
    depth = rng.randint(2, 40)
    raw = {"space": _random_space(rng), "depth": depth, "analyses": {}}
    for name in rng.sample(sorted(ANALYSES), rng.randint(0, 3)):
        options = [key for key in ANALYSES[name].options if rng.random() < 0.5]
        raw["analyses"][name] = {key: _OPTIONS[key](rng, depth) for key in options}
    if rng.random() < 0.5:
        raw["centers"] = {key: value for key, value in (("basepoints", rng.choice(["all", ["origin"]])),
                                                         ("sample", rng.randint(0, 3))) if rng.random() < 0.7}
    for key, value in (("seed", rng.choice([None, 0, -5, 7])), ("output_dir", "out/x"),
                       ("budgets", {"vertices": rng.choice([30, 10**6])})):
        if rng.random() < 0.5:
            raw[key] = value
    return raw


def _valid_configs(count):
    rng, found = random.Random(2024), []
    while len(found) < count:
        raw = _random_config(rng)
        try:
            _reference_sections(raw)
        except ConfigError:
            continue
        found.append(raw)
    return found


_MUTATIONS = [  # (field, value)
    *((key, _DELETE) for key in ("space", "depth", "analyses", "colour")),
    ("colour", "red"),
    *((key, value) for key in ("space", "depth", "centers", "analyses", "output_dir", "seed", "budgets")
      for value in ([1], {"x": 1}, True, 1.5, "", "x", -1, 0, 10**7, None, _DELETE)),
    *(("space.family", value) for value in ("torus", "", 3, True, ["lattice"], {"lattice": 1})),
    ("space.x", 1), ("space.family", None), ("space.family", _DELETE), ("space.graph_file", ""), ("space.graph_file", 5),
    *(("space.radius", value) for value in (0, 2.0, "3", None, _DELETE)),
    *(("space.generating_set", value) for value in ("standard", "diagonal", "bogus", 1)),
    ("space.d", 2), ("space.d", 0), ("space.blocks", 0), ("space.levels", 1),
    *(("centers." + key, value) for key in ("basepoints", "sample", "x")
      for value in ("all", ["a", 1], [], "x", 3, -1, None, _DELETE)),
    *(("analyses." + name, value) for name in (*ANALYSES, "spectral") for value in ({}, [], None, {"x": 1}, _DELETE)),
    *((f"analyses.{name}.{key}", value) for name, analysis in ANALYSES.items() for key in analysis.options
      for value in (0, 1, 3, -1, 2.5, True, "x", [4], [0.5, 0.5], None, _DELETE)),
    *(("budgets." + key, value) for key in ("vertices", "elements", "edges") for value in (1, 0, 2.5, None, _DELETE)),
]


class TestAgainstTheReference:
    @pytest.mark.parametrize("seed", range(4))
    def test_valid_configs_read_the_same(self, seed):
        for raw in _valid_configs(200)[seed::4]:
            expected = _outcome(_reference_sections, raw)
            assert _outcome(validate_sections, raw) == expected

    @pytest.mark.parametrize("seed", range(4))
    def test_one_fault_reads_the_same_text(self, seed):
        rng = random.Random(seed)
        tested = 0
        for raw in _valid_configs(40)[seed::4]:
            for path, value in rng.sample(_MUTATIONS, 60):
                mutated = _set(raw, path, value)
                if mutated is None:
                    continue
                tested += 1
                try:
                    expected = _outcome(_reference_sections, mutated)
                except TypeError:  # the reference's unhashable family
                    assert path == "space.family"
                    actual = _outcome(validate_sections, mutated)
                    assert actual[1].startswith(f"space.family: unknown family {value!r}")
                    continue
                actual = _outcome(validate_sections, mutated)
                if expected[0] == "config" and actual[0] == "error":
                    # Null centers, or a generating set the reference took
                    # without asking the model.
                    taken = (path, value) == ("centers", None)
                    assert actual[1].startswith("centers: expected an object" if taken
                                                else "space.generating_set: unknown generating set")
                    continue
                if expected[0] == "error":
                    expected = ("error", _reread(expected[1]))
                assert actual == expected, (path, value, mutated)
        assert tested > 100

    def test_what_the_reference_took_and_the_reader_does_not(self):
        raw = {**_BASE, "centers": None}
        assert _outcome(_reference_sections, raw)[0] == "config"
        assert _outcome(validate_sections, raw) == ("error", "centers: expected an object")
        space = {"family": "lattice", "d": 3, "radius": 3, "generating_set": "diagonal"}
        raw = {**_BASE, "space": space, "analyses": {"annulus": {}}}
        assert _outcome(_reference_sections, raw)[0] == "config"
        assert _outcome(validate_sections, raw) == (
            "error", "space.generating_set: unknown generating set 'diagonal'; known: standard"
        )
