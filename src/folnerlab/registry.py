"""The two dispatch tables: analyses and space families.

`ANALYSES` maps each analysis name to `run(ctx, opts)`, its options (each
with a parser and a default) and what it needs of the rest of the config,
the depth included, so that a run too shallow for it fails at validation,
naming the field.  `run` returns the analysis's part of `summary.json`, its
CSV table and, for the analyses that gate `pass`, its verdict.  `FAMILIES`
maps each space family to its parameters, declared like analysis options
(a parser and a default, or `REQUIRED`), and its builder, which returns the
one space record, `BuiltSpace`.  What is special about a family lives in
its builder, so the runner names no family, no analysis and no kind of
space.  `parse_options` reads every field of a config with the parsers
here; `config` declares only its top level.  `runner` builds and runs
through both tables, and the CLI's analysis commands go through `config`
and `runner` too, reading their option defaults here.  Adding an
analysis or a family is one entry here.

Analyses run in table order.  The order matters: `verify` reads the shell
report that `shell` leaves in the context.

Tables are formatted by `write_csv`: exact columns carry rationals as
"p/q" strings and integers as plain decimals; fitted columns carry floats
via repr (shortest round-trip form); booleans are "true"/"false".  A table
is a header and its columns, and each column is formatted once: one of
exact `int`s and `str`s (every column of the profile table) goes to
`csv.writer` as it is, which writes the same text; any other goes through
the formatter of its cells' types.
"""

from __future__ import annotations

import csv
import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, repeat
from typing import IO, Any, Callable, Mapping, NamedTuple, Sequence

from .analysis import (
    ShellReport,
    doubling_constant,
    dyadic_subsequence,
    fit_radii,
    growth_exponent_fit,
    isoperimetric_ratios,
    shell_alpha,
    shell_pair_count,
    verify_sphere_bound,
)
from .ergodic import GOLDEN_ANGLES, OBSERVABLES, ergodic_trace
from .errors import BudgetExceededError, ConfigError
from .generators import (
    norm_profile,
    stairway_strip,
    stretched_tree_chain,
    word_ball,
)
from .groups import MAX_ZD_RANK, GroupModel, heisenberg_model, zd_model
from .products import product_powers, shell_inclusion_check
from .space import Graph, VolumeProfile, volume_profile

__all__ = ["ANALYSES", "FAMILIES", "BuiltSpace", "Context", "Outcome", "graph_space", "parse_options"]


# -- option parsing ----------------------------------------------------------


def _integer(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def at_least(minimum: int) -> Callable[[Any, str], int]:
    def parse(value: Any, where: str) -> int:
        if not _integer(value):
            raise ConfigError(f"{where}: expected an integer, got {value!r}")
        if value < minimum:
            raise ConfigError(f"{where}: must be at least {minimum}, got {value}")
        return value

    return parse


def option_parser(test: Callable[[Any], bool], error: str, convert: Callable = lambda v: v):
    """A parser that returns `convert(value)` if `test(value)` holds and
    otherwise raises `error`, formatted with the offending value."""

    def parse(value: Any, where: str) -> Any:
        if not test(value):
            raise ConfigError(f"{where}: " + error.format(value=value))
        return convert(value)

    return parse


def _finite(value: Any) -> bool:
    """An int or float, not a boolean, inside the float range: not NaN,
    ±inf or an int past the largest float."""
    return isinstance(value, (int, float)) and not isinstance(value, bool) and abs(value) <= sys.float_info.max


_flag = option_parser(lambda v: isinstance(v, bool), "expected a boolean")
_string = option_parser(lambda v: isinstance(v, str), "expected a string, got {value!r}")
nonempty_string = option_parser(lambda v: isinstance(v, str) and v != "", "expected a nonempty string")
center_labels = option_parser(
    lambda v: v == "all" or isinstance(v, list) and all(isinstance(p, str) for p in v),
    "expected 'all' or a list of labels",
    lambda v: v if v == "all" else list(v),
)
seed_value = option_parser(lambda v: v is None or _integer(v), "expected an integer, got {value!r}")
_number = option_parser(_finite, "expected a finite number, got {value!r}", float)
_observable = option_parser(
    lambda v: isinstance(v, str) and v in OBSERVABLES,
    "unknown observable {value!r}; known: " + ", ".join(sorted(OBSERVABLES)),
)
_point = option_parser(  # a point on the 2-torus
    lambda v: isinstance(v, list) and len(v) == 2
    and all(map(_finite, v)),
    "expected a list of two finite numbers, got {value!r}",
    lambda v: [float(c) for c in v],
)
_widths = option_parser(
    lambda v: isinstance(v, list) and all(_integer(k) and k >= 4 and k % 4 == 0 for k in v),
    "expected a list of positive multiples of 4, got {value!r}",
    list,
)

HALF_DEPTH = object()  # an option default: the config's depth // 2, filled in by `config`
REQUIRED = object()  # an option default: the key must be given
# option name -> (parser, default); a None default leaves the option unset
Options = Mapping[str, tuple[Callable[[Any, str], Any], Any]]


def parse_options(raw: Mapping[str, Any], spec: Options, where: str) -> dict:
    """Check the options `raw` at `where` against `spec` and fill in defaults."""
    unknown = sorted(set(raw) - set(spec))
    if unknown:
        raise ConfigError(f"{where}: unknown key {unknown[0]!r}")
    out = {}
    for key, (parse, default) in spec.items():
        if key in raw:
            out[key] = parse(raw[key], f"{where}.{key}")
        elif default is REQUIRED:
            raise ConfigError(f"{where}: missing required key {key!r}")
        elif default is not None and default is not HALF_DEPTH:
            out[key] = parse(default, f"{where}.{key}")
    return out


def section(spec: Options | Callable[[Mapping[str, Any], str], Options],
            shape: str = "an object") -> Callable[[Any, str], dict]:
    """The parser of an object whose keys `spec` declares, or `spec(value,
    where)` picks once the value is known to be an object."""

    def parse(value: Any, where: str) -> dict:
        if not isinstance(value, Mapping):
            raise ConfigError(f"{where}: expected {shape}")
        return parse_options(value, spec(value, where) if callable(spec) else spec, where)

    return parse


def named(parse: Callable[[Any, str], Any], name: str) -> Callable[[Any, str], Any]:
    """`parse`, naming the value `name` in errors wherever it is read."""
    return lambda value, where: parse(value, name)


# -- tables ------------------------------------------------------------------


Table = tuple[Sequence[str], Sequence[Sequence[Any]]]  # (header, columns; none if no rows)


# Formatters by exact type, in the order a subclass is matched: one dict
# lookup per type, where an `issubclass(t, Fraction)` goes through ABCMeta.
_CELLS: dict[type, Callable[[Any], str]] = {
    bool: lambda v: "true" if v else "false",
    Fraction: lambda v: f"{v.numerator}/{v.denominator}",
    float: repr,
    int: str,
    str: str,
}


def _formatter(kind: type) -> Callable[[Any], str]:
    fmt = _CELLS.get(kind)
    return fmt if fmt is not None else next((f for t, f in _CELLS.items() if issubclass(kind, t)), str)


def cell(value: Any) -> str:
    return _formatter(type(value))(value)


def _column(values: Sequence[Any]) -> list[str]:
    """The cells of a column: its types' one formatter (ints and "" share `str`), else `cell`."""
    formats = {_formatter(kind) for kind in set(map(type, values))}
    return list(map(formats.pop() if len(formats) == 1 else cell, values))


# The exact types `csv.writer` writes as `cell` does: a `str` as it is and an
# `int` by `str`.  A subclass may change `__str__` (`bool`, `IntEnum`) or be
# written by `csv` as its base's text, so it goes through `_column`.
_PLAIN = frozenset((int, str))


def write_csv(fh: IO[str], digest: str, header: Sequence[str], columns: Sequence[Sequence]) -> None:
    """The table under a `# config` line, each column formatted once; a
    column of exact `int`s and `str`s goes to `csv.writer` as it is."""
    fh.write(f"# config {digest}\n")
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(zip(*(c if _PLAIN.issuperset(map(type, c)) else _column(c) for c in columns)))


def profile_table(labeled: Sequence[tuple[str, VolumeProfile]]) -> Table:
    return ("center", "r", "ball", "sphere"), (
        list(chain.from_iterable(repeat(label, len(p.ball)) for label, p in labeled)),
        list(chain.from_iterable(range(len(p.ball)) for _, p in labeled)),
        list(chain.from_iterable(p.ball for _, p in labeled)),
        list(chain.from_iterable((*p.sphere, "") for _, p in labeled)),
    )


# -- analyses ----------------------------------------------------------------


@dataclass
class Context:
    """What analyses read: the space description, the element budget, the
    depth and the profiles by center label.  `shell` holds the shell report
    once the shell analysis has run."""

    space: Mapping[str, Any]
    element_budget: int
    depth: int = 0
    labeled: Sequence[tuple[str, VolumeProfile]] = ()
    shell: ShellReport | None = None

    @property
    def profiles(self) -> list[VolumeProfile]:
        return [p for _, p in self.labeled]

    @property
    def model(self) -> GroupModel:
        return FAMILIES[self.space["family"]].model(self.space)


class Outcome(NamedTuple):
    summary: dict[str, Any]  # merged into summary.json
    table: Table | None = None  # written as <name>.csv
    passed: bool | None = None  # None: the analysis does not gate "pass"


def _doubling(ctx: Context, opts: Mapping[str, Any]) -> Outcome:
    return Outcome({"doubling": cell(doubling_constant(ctx.profiles, opts["r_max"]))})


def _shell(ctx: Context, opts: Mapping[str, Any]) -> Outcome:
    if opts["record_all"]:
        # one row per center and admitted pair, counted before any is built
        rows = len(ctx.labeled) * shell_pair_count(opts["k_min"], opts["n_max"], ctx.depth)
        if rows > ctx.element_budget:
            raise BudgetExceededError("analyses.shell.record_all", rows, ctx.element_budget)
    report = ctx.shell = shell_alpha(
        ctx.profiles, k_min=opts["k_min"], n_max=opts["n_max"], record_all=opts["record_all"]
    )
    worst = report.worst
    summary = {
        "alpha": cell(report.alpha),
        "delta": report.delta,
        "fitted_C": report.fitted_constant,
        "shell": {
            "pairs_tested": report.pairs_tested,
            "worst_center": worst.center,
            "worst_n": worst.n,
            "worst_k": worst.k,
        },
    }
    rows = [
        (r.center, r.n, r.k, r.c_lo, r.c_hi, "" if r.ratio is None else r.ratio)
        for r in report.records
    ]
    return Outcome(summary, (("center", "n", "k", "c_lo", "c_hi", "ratio"), list(zip(*rows))))


def _annulus(ctx: Context, opts: Mapping[str, Any]) -> Outcome:
    rows = []
    for label, p in ctx.labeled:
        for r in (2**i for i in range(1, p.depth.bit_length())):  # 2, 4, ... <= depth
            inner = p.ball[r] - p.ball[r // 2]
            rows.append((label, r, inner, p.ball[r], Fraction(inner, p.ball[r])))
    return Outcome({}, (("center", "r", "annulus", "ball", "ratio"), list(zip(*rows))))


def _verify(ctx: Context, opts: Mapping[str, Any]) -> Outcome:
    # Over the radii 1..n_max of the shell sweep, whose `fitted_C` it keeps.
    report = verify_sphere_bound(
        ctx.profiles, ctx.shell.delta, n_range=(1, ctx.shell.n_max),
        slope_tolerance=opts["slope_tolerance"],
    )
    summary = {"verify": {"trend_slope": report.trend_slope, "passed": report.passed}}
    columns = (range(report.n_lo, report.n_hi + 1), report.constants)
    return Outcome(summary, (("n", "constant"), columns), report.passed)


def _dyadic(ctx: Context, opts: Mapping[str, Any]) -> Outcome:
    slack = 2 * doubling_constant(ctx.profiles, ctx.depth // 2)
    rows, all_ok = [], True
    for label, p in ctx.labeled:
        for rec in dyadic_subsequence(p, slack, opts.get("i_max")):
            all_ok = all_ok and rec.certified
            rows.append((label, rec.i, rec.radius, rec.sphere, rec.ball, rec.bound, rec.certified))
    summary = {"dyadic": {"certified": all_ok, "slack_doubling": cell(slack)}}
    header = ("center", "i", "radius", "sphere", "ball", "bound", "certified")
    return Outcome(summary, (header, list(zip(*rows))), all_ok)


def _abelian(ctx: Context, opts: Mapping[str, Any]) -> Outcome:
    rows = [
        (label, n, ratio)
        for label, p in ctx.labeled
        for n, ratio in enumerate(isoperimetric_ratios(p.ball, opts.get("n_max")), 1)
    ]
    worst = max((ratio for _, _, ratio in rows), default=Fraction(0))
    return Outcome({"abelian_max": cell(worst)}, (("center", "n", "isop"), list(zip(*rows))))


def _fit(ctx: Context, opts: Mapping[str, Any]) -> Outcome:
    radii = fit_radii(ctx.depth, opts["dyadic_radii"])
    fits = {
        label: growth_exponent_fit(p.ball, radii=radii, min_points=opts["min_points"])
        for label, p in ctx.labeled
    }
    return Outcome({"fit": fits})


def _ergodic(ctx: Context, opts: Mapping[str, Any]) -> Outcome:
    sequence = product_powers(
        ctx.model, ctx.space["generating_set"], opts["n_max"], ctx.element_budget, ordered=True
    )
    trace = ergodic_trace(GOLDEN_ANGLES, sequence, opts["observable"], tuple(opts["start"]))
    summary = {
        "observable": opts["observable"],
        "final_error": trace.final_error,
        "envelope": trace.envelope,
    }
    columns = (range(len(trace.averages)), trace.averages, trace.errors)
    return Outcome({"ergodic": summary}, (("n", "average", "error"), columns))


def _claims(ctx: Context, opts: Mapping[str, Any]) -> Outcome:
    widths, n_max = opts["widths"], opts["n_max"]
    # One expansion serves every (n, k): the largest pair needs N_(n_max + k).
    top = n_max + max((k for k in widths if k <= n_max), default=0)
    sequence = product_powers(ctx.model, ctx.space["generating_set"], top, ctx.element_budget)
    pairs = [(n, k) for k in widths for n in range(k, n_max + 1)]
    outcomes = shell_inclusion_check(sequence, pairs, ctx.element_budget)
    forward, backward = zip(*outcomes)
    all_ok = all(forward) and all(backward)
    header = ("n", "k", "forward", "backward")
    return Outcome({"claims": {"all_hold": all_ok}}, (header, (*zip(*pairs), forward, backward)), all_ok)


def _on_group(analyses: Mapping[str, Any], space: Mapping[str, Any], depth: int) -> bool:
    family = FAMILIES.get(space.get("family"))
    return family is not None and family.model is not None


def _shell_within_depth(analyses: Mapping[str, Any], space: Mapping[str, Any], depth: int) -> bool:
    shell = analyses["shell"]
    return shell["n_max"] + shell["k_min"] <= depth


def _two_radii(analyses: Mapping[str, Any], space: Mapping[str, Any], depth: int) -> bool:
    # verify fits radii 1..n_max of the shell sweep, which keeps n_max below
    # the depth.  A sweep with k_min > n_max tests no pair and fails first.
    shell = analyses["shell"]
    return shell["n_max"] >= 2 or shell["k_min"] > shell["n_max"]


def _tests_a_pair(analyses: Mapping[str, Any], space: Mapping[str, Any], depth: int) -> bool:
    opts = analyses["claims"]
    return any(k <= opts["n_max"] for k in opts["widths"])


def _enough_radii(analyses: Mapping[str, Any], space: Mapping[str, Any], depth: int) -> bool:
    opts = analyses["fit"]
    return len(fit_radii(depth, opts["dyadic_radii"])) >= opts["min_points"]


Need = tuple[str, Callable[[Mapping[str, Any], Mapping[str, Any], int], bool], str]


class Analysis(NamedTuple):
    run: Callable[[Context, Mapping[str, Any]], Outcome]
    options: Options
    # what it needs of the rest of the config: (the option the error names,
    # or "" for the analysis; test of (analyses, space, depth); error,
    # formatted with the depth and the analysis's options)
    needs: tuple[Need, ...] = ()


ANALYSES: dict[str, Analysis] = {
    "doubling": Analysis(_doubling, {"r_max": (at_least(1), HALF_DEPTH)}, ((
        "r_max",
        lambda analyses, space, depth: 2 * analyses["doubling"]["r_max"] <= depth,
        "must be at most half of config.depth {depth}, got {r_max}",
    ),)),
    "shell": Analysis(_shell, {
        "k_min": (at_least(1), 5),
        "n_max": (at_least(1), HALF_DEPTH),
        "record_all": (_flag, False),
    }, ((
        "n_max", _shell_within_depth,
        "n_max + k_min must be at most config.depth {depth}, got {n_max} + {k_min}",
    ),)),
    "annulus": Analysis(_annulus, {}),
    "verify": Analysis(_verify, {"slope_tolerance": (_number, 0.05)}, (
        ("", lambda analyses, space, depth: "shell" in analyses,
         "requires analyses.shell (the decay exponent comes from the shell sweep)"),
        ("", _two_radii,
         "requires analyses.shell.n_max of at least 2 (the sphere-bound fit needs two radii)"),
    )),
    "dyadic": Analysis(_dyadic, {"i_max": (at_least(0), None)}, ((
        "",
        lambda analyses, space, depth: depth >= 3,
        "requires config.depth of at least 3 (the first dyadic window needs the sphere "
        "at radius 2), got {depth}",
    ),)),
    "abelian": Analysis(_abelian, {"n_max": (at_least(1), None)}),
    "fit": Analysis(_fit, {"dyadic_radii": (_flag, False), "min_points": (at_least(2), 8)}, ((
        "min_points", _enough_radii,
        "must be at most the number of radii fitted at config.depth {depth}, got {min_points}",
    ),)),
    "ergodic": Analysis(_ergodic, {
        "start": (_point, [0.1, 0.2]),
        "observable": (_observable, "cos_x"),
        "n_max": (at_least(1), 200),
    }, ((
        "",
        lambda analyses, space, depth: space.get("family") == "lattice" and space.get("d") == 2,
        "requires a lattice space with d = 2 (the golden rotation acts on the 2-torus)",
    ),)),
    "claims": Analysis(_claims, {"widths": (_widths, [4, 8, 12]), "n_max": (at_least(4), 20)}, (
        ("", _on_group,
         "requires a lattice or heisenberg space (the inclusions are checked on the group model)"),
        ("widths", _tests_a_pair,
         "no width is at most n_max, so no (n, k) pair would be tested"),
    )),
}


# -- space families ----------------------------------------------------------


class BuiltSpace(NamedTuple):
    """A realized space, seen as a measure and balls around centers.

    Each family builder fills every field.  `graph()` builds the graph on
    first use, at most once, and `profile(vertex, depth)` is the volume
    profile around a vertex in the metric the family is studied in.
    """

    vertex_count: int
    edge_count: int
    basepoints: Mapping[str, int]
    graph: Callable[[], Graph]
    profile: Callable[[int, int], VolumeProfile]


def graph_space(graph: Graph) -> BuiltSpace:
    """The record of a plain graph, profiled by BFS."""
    return BuiltSpace(
        graph.vertex_count,
        graph.edge_count,
        graph.basepoints,
        lambda: graph,
        lambda v, depth: volume_profile(graph, v, depth),
    )


class Family(NamedTuple):
    options: Options  # the parameters of `space`, read by `parse_options`
    build: Callable[[Mapping[str, Any], int], BuiltSpace]  # (space, vertex budget)
    model: Callable[[Mapping[str, Any]], GroupModel] | None = None  # group families only


def _word_ball(space: Mapping[str, Any], budget: int) -> BuiltSpace:
    model = FAMILIES[space["family"]].model(space)
    ball = word_ball(model, space["generating_set"], space["radius"], budget)

    def profile(v: int, depth: int) -> VolumeProfile:
        if v == 0:
            return ball.profile(depth)  # the identity: no graph needed
        return volume_profile(ball.graph, v, depth)

    return BuiltSpace(ball.sizes[-1], ball.edge_count, {"origin": 0}, lambda: ball.graph, profile)


def _tree_chain(space: Mapping[str, Any], budget: int) -> BuiltSpace:
    return graph_space(stretched_tree_chain(space["a"], space["b"], space["blocks"], budget))


def _stairway(space: Mapping[str, Any], budget: int) -> BuiltSpace:
    strip = stairway_strip(space["levels"], budget)
    origin = strip.graph.basepoints["origin"]

    def profile(v: int, depth: int) -> VolumeProfile:
        # Stairway analyses run in the ambient Euclidean metric from the
        # origin; the graph metric sees only a thick path here.
        if v != origin:
            raise ConfigError(
                f"centers: the stairway is profiled from its origin only, not from vertex {v}"
            )
        return norm_profile(strip, depth)

    return graph_space(strip.graph)._replace(profile=profile)


def _required(minimum: int) -> tuple[Callable[[Any, str], int], Any]:
    return at_least(minimum), REQUIRED


def _rank(value: Any, where: str) -> int:
    d = at_least(1)(value, where)
    if d > MAX_ZD_RANK:
        raise ConfigError(f"{where}: must be at most {MAX_ZD_RANK} (the largest rank whose "
                          f"radius-1 word ball has int64 keys), got {d}")
    return d


_GROUP_SET = {"generating_set": (_string, "standard")}
FAMILIES: dict[str, Family] = {
    "lattice": Family({"d": (_rank, REQUIRED), "radius": _required(1), **_GROUP_SET}, _word_ball,
                      lambda s: zd_model(s["d"])),
    "heisenberg": Family({"radius": _required(1), **_GROUP_SET}, _word_ball,
                         lambda s: heisenberg_model()),
    "tree-chain": Family({"a": _required(2), "b": _required(2), "blocks": _required(1)},
                         _tree_chain),
    "stairway": Family({"levels": _required(2)}, _stairway),
}


_FAMILY = {"family": (option_parser(
    lambda v: isinstance(v, str) and v in FAMILIES,
    "unknown family {value!r}; known: " + ", ".join(sorted(FAMILIES)),
), REQUIRED)}


def _space_fields(raw: Mapping[str, Any], where: str) -> Options:
    """The keys of a space: a graph file, or a family and its parameters.
    The family is read first, so that an unknown one is named as such."""
    if "graph_file" in raw:
        return {"graph_file": (nonempty_string, REQUIRED)}
    given = {key: raw[key] for key in _FAMILY if key in raw}
    return {**_FAMILY, **FAMILIES[parse_options(given, _FAMILY, where)["family"]].options}


def parse_space(value: Any, where: str = "space") -> dict[str, Any]:
    """A space, read against the family table; a group's generating set must
    be one its model names."""
    space = section(_space_fields)(value, where)
    model = FAMILIES[space["family"]].model if "family" in space else None
    known = sorted(model(space).generating_sets) if model else []
    if known and space["generating_set"] not in known:
        raise ConfigError(f"{where}.generating_set: unknown generating set "
                          f"{space['generating_set']!r}; known: {', '.join(known)}")
    return space
