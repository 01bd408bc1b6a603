"""Command-line interface.

One subcommand per workflow step: `generate` emits graph files, `profile`
and the analysis commands consume them, `powers` / `nprod` work on group
models directly, and `reproduce` runs the bundled recipes.  Ad-hoc commands
stamp their CSVs with a digest of their own parameters, so any artifact can
be traced to the invocation that wrote it; `reproduce` artifacts carry the
config hash instead.

The CLI is a thin front end with one way in: `profile` and each analysis
command turn their options into a raw config, validate it as a config file
is validated (so a bad option fails naming the config field, such as
`analyses.fit.min_points`), and run it through the runner's
`run_analyses`, adding only their own digest stamp, stdout line and exit
code.  Every option that sets a config field takes its default and rule
from the config's tables, the global options given set their fields before
the one validation of every command that runs a config, `reproduce` too,
`generate` builds through the family table, and no command computes an
analysis itself.
"""

from __future__ import annotations

import functools
import hashlib
import io
import json
import sys
from fractions import Fraction
from pathlib import Path
from typing import Any, Sequence

import click
from click.core import ParameterSource

from .config import BUDGETS, CENTERS, read_config, validate_config, validate_sections
from .errors import BudgetExceededError
from .graphio import dump_graph
from .groups import GroupModel
from .products import folner_ratios, product_powers, varying_products
from .recipes import RECIPES, recipe_document
from .registry import ANALYSES, FAMILIES, Table, parse_options, parse_space, write_csv
from .runner import run_analyses, run_experiment

__all__ = ["main"]


def _friendly(fn):
    """Turn domain errors into clean CLI failures instead of tracebacks."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except (BudgetExceededError, ValueError, KeyError) as exc:
            message = exc.args[0] if exc.args else str(exc)
            raise click.ClickException(str(message))
        except OSError as exc:  # an --out that cannot be written; args[0] is the errno
            raise click.ClickException(str(exc))

    return wrapper


def _digest(command: str, **params: Any) -> str:
    payload = json.dumps({"command": command, **params}, sort_keys=True)
    return hashlib.sha256(payload.encode("ascii")).hexdigest()[:16]


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, encoding="utf-8")


def _emit_csv(ctx: click.Context, digest: str, table: Table) -> None:
    buf = io.StringIO()
    write_csv(buf, digest, *table)
    _emit(buf.getvalue(), ctx.obj["out"])


def _resolve_model(group: str, d: int) -> GroupModel:
    return FAMILIES["lattice" if group == "zd" else group].model({"d": d})


def _json(text: str, option: str) -> Any:
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise click.ClickException(f"{option}: invalid JSON ({exc})") from None


def _elements(raw: Any, option: str) -> tuple[tuple[int, ...], ...]:
    """A JSON array of integer arrays, as tuples."""
    if not isinstance(raw, list) or not all(isinstance(g, list) for g in raw):
        raise click.ClickException(f"{option}: expected a JSON array of integer arrays")
    for c in (c for g in raw for c in g):
        if isinstance(c, bool) or not isinstance(c, int):
            raise click.ClickException(f"{option}: coordinates must be integers, got {c!r}")
    return tuple(tuple(g) for g in raw)


def _parse_set(model: GroupModel, text: str, option: str) -> tuple[tuple[int, ...], ...]:
    """A generating set given as a named label or a JSON array of tuples."""
    if not text.lstrip().startswith("["):
        return model.generating_set(text)
    return _elements(_json(text, option), option)


def _default(analysis: str, option: str) -> Any:
    return ANALYSES[analysis].options[option][1]


def _set(options: dict[str, Any]) -> dict[str, Any]:
    """The options not given as None, which are left for the config to fill in."""
    return {key: value for key, value in options.items() if value is not None}


def _with_global_options(ctx: click.Context, raw: Any) -> Any:
    """The config document `raw` with `seed` set if --seed is given on the
    command line and each budget flag given merged into `budgets`; a document
    or `budgets` that is no object is left for the validation to refuse."""
    if not isinstance(raw, dict):
        return raw
    given = lambda name: ctx.find_root().get_parameter_source(name) is ParameterSource.COMMANDLINE
    if given("seed"):
        raw = {**raw, "seed": ctx.obj["seed"]}
    budgets = {key: value for key, value in ctx.obj["budgets"].items() if given(f"budget_{key}")}
    if budgets and isinstance(raw.get("budgets", {}), dict):
        raw = {**raw, "budgets": {**raw.get("budgets", {}), **budgets}}
    return raw


def _graph_config(ctx: click.Context, graph_path: str, depth: int, center_labels: Sequence[str],
                  sample: int | None, **analyses: dict[str, Any]) -> dict[str, Any]:
    """The raw config of a graph-file command, with the global options given."""
    return _with_global_options(ctx, {
        "space": {"graph_file": str(graph_path)},
        "depth": depth,
        "centers": _set({"basepoints": list(center_labels) or None, "sample": sample}),
        "analyses": {name: _set(opts) for name, opts in analyses.items()},
        "seed": ctx.obj["seed"],
    })


def _graph_options(sample: bool = True):
    """The options of a command that reads a graph file, in this order:
    --graph, --depth, --center and, if `sample`, --sample."""
    options = [
        click.option("--graph", "graph_path", type=click.Path(exists=True, dir_okay=False), required=True),
        click.option("--depth", type=int, required=True),
        click.option("--center", "center_labels", multiple=True, help="Basepoint label (repeatable; default all)."),
        click.option("--sample", type=int, default=CENTERS["sample"][1], show_default=True, help="Sample this many centers, the --center basepoints among them."),
    ][: 4 if sample else 3]
    return lambda fn: functools.reduce(lambda f, option: option(f), reversed(options), fn)


def _labels(tables: dict[str, Table]) -> list[str]:
    """The profiled centers, in order: one profile row at r = 0 each."""
    centers, radii, *_ = tables["profile"][1]
    return [label for label, r in zip(centers, radii) if r == 0]


@click.group()
@click.option("--seed", type=int, default=0, show_default=True, help="PRNG seed for center sampling.")
@click.option("--budget-vertices", type=int, default=BUDGETS["vertices"][1], show_default=True, help="Hard cap on constructed vertices.")
@click.option("--budget-elements", type=int, default=BUDGETS["elements"][1], show_default=True, help="Hard cap on enumerated group elements.")
@click.option("--out", type=str, default=None, help="Output file (or directory for reproduce).")
@click.pass_context
@_friendly
def main(ctx: click.Context, seed: int, budget_vertices: int, budget_elements: int, out: str | None) -> None:
    """Growth, shells, and ergodic averages on doubling graphs and groups."""
    budgets = parse_options({"vertices": budget_vertices, "elements": budget_elements}, BUDGETS, "budgets")
    ctx.obj = {"seed": seed, "budgets": budgets, "out": out}


@main.command()
@click.option("--family", type=click.Choice(list(FAMILIES)), required=True)
@click.option("--d", type=int, default=2, show_default=True, help="Lattice rank.")
@click.option("--radius", type=int, default=8, show_default=True, help="Word-ball radius (lattice / heisenberg).")
@click.option("--generating-set", default="standard", show_default=True)
@click.option("--a", type=int, default=2, show_default=True, help="Tree-chain stretch.")
@click.option("--b", type=int, default=3, show_default=True, help="Tree-chain valence.")
@click.option("--blocks", type=int, default=6, show_default=True, help="Tree-chain block count.")
@click.option("--levels", type=int, default=8, show_default=True, help="Stairway dyadic levels.")
@click.pass_context
@_friendly
def generate(ctx, family, **params):
    """Build a space and emit it in the graph file format."""
    spec = FAMILIES[family]
    space = parse_space({"family": family, **{key: params[key] for key in spec.options}})
    _emit(dump_graph(spec.build(space, ctx.obj["budgets"]["vertices"]).graph()), ctx.obj["out"])


@main.command()
@_graph_options()
@click.pass_context
@_friendly
def profile(ctx, graph_path, depth, center_labels, sample):
    """Ball and sphere volumes around the chosen centers."""
    _, tables = run_analyses(validate_sections(_graph_config(ctx, graph_path, depth, center_labels, sample)))
    digest = _digest("profile", graph=str(graph_path), depth=depth, centers=_labels(tables))
    _emit_csv(ctx, digest, tables["profile"])


def _powers_table(sizes: Sequence[int], ratios: Sequence[Fraction]) -> Table:
    """n, |N_n|, its growth over |N_(n-1)| and the ratio after it (blank at the last n)."""
    deltas = [size - before for size, before in zip(sizes, [0, *sizes])]
    return ("n", "size", "delta_size", "folner_ratio"), (range(len(sizes)), sizes, deltas, (*ratios, ""))


@main.command()
@click.option("--group", type=click.Choice(["zd", "heisenberg"]), default="zd", show_default=True)
@click.option("--d", type=int, default=2, show_default=True)
@click.option("--set", "set_text", default="standard", show_default=True, help="Named set or JSON array of tuples.")
@click.option("--n-max", type=int, required=True)
@click.pass_context
@_friendly
def powers(ctx, group, d, set_text, n_max):
    """Exact sizes of the powers U^n of one generating set."""
    model = _resolve_model(group, d)
    gen = _parse_set(model, set_text, "--set")
    seq = product_powers(model, gen, n_max, ctx.obj["budgets"]["elements"])
    digest = _digest("powers", group=group, d=d, set=sorted(gen), n_max=n_max)
    _emit_csv(ctx, digest, _powers_table(seq.sizes, folner_ratios(seq)))


@main.command()
@click.option("--group", type=click.Choice(["zd", "heisenberg"]), default="zd", show_default=True)
@click.option("--d", type=int, default=2, show_default=True)
@click.option("--factors", "factors_text", required=True, help="JSON array of factor sets (arrays of tuples).")
@click.option("--inner", "inner_text", required=True, help="Certified subset of every factor.")
@click.option("--outer", "outer_text", required=True, help="Certified superset of every factor.")
@click.pass_context
@_friendly
def nprod(ctx, group, d, factors_text, inner_text, outer_text):
    """Exact sizes of products of varying factors N_n = U_1 ... U_n."""
    model = _resolve_model(group, d)
    raw = _json(factors_text, "--factors")
    if not isinstance(raw, list):
        raise click.ClickException("--factors: expected a JSON array of factor sets")
    factors = [_elements(factor, "--factors") for factor in raw]
    inner = _parse_set(model, inner_text, "--inner")
    outer = _parse_set(model, outer_text, "--outer")
    seq = varying_products(model, factors, inner, outer, ctx.obj["budgets"]["elements"])
    digest = _digest("nprod", group=group, d=d, factors=[sorted(f) for f in factors])
    _emit_csv(ctx, digest, _powers_table(seq.sizes, folner_ratios(seq)))


@main.command("shell-report")
@_graph_options()
@click.option("--k-min", type=int, default=_default("shell", "k_min"), show_default=True)
@click.option("--n-max", type=int, default=None)
@click.option("--record-all", is_flag=True, help="Emit every tested pair, not just the worst.")
@click.pass_context
@_friendly
def shell_report(ctx, graph_path, depth, center_labels, sample, k_min, n_max, record_all):
    """Shell-comparison sweep: alpha, delta, and the worst pair."""
    shell = {"k_min": k_min, "n_max": n_max, "record_all": record_all}
    config = validate_config(_graph_config(ctx, graph_path, depth, center_labels, sample, shell=shell))
    summary, tables = run_analyses(config)
    n_max = config.analyses["shell"]["n_max"]
    digest = _digest("shell-report", graph=str(graph_path), depth=depth, centers=_labels(tables), k_min=k_min, n_max=n_max)
    _emit_csv(ctx, digest, tables["shell"])
    line = {key: summary[key] for key in ("alpha", "delta", "fitted_C")}
    click.echo(json.dumps({**line, "pass": Fraction(summary["alpha"]) > 0}, sort_keys=True))


@main.command()
@_graph_options()
@click.option("--k-min", type=int, default=_default("shell", "k_min"), show_default=True)
@click.option("--n-max", type=int, default=None)
@click.option("--slope-tol", type=float, default=_default("verify", "slope_tolerance"), show_default=True)
@click.pass_context
@_friendly
def verify(ctx, graph_path, depth, center_labels, sample, k_min, n_max, slope_tol):
    """Measure alpha, then verify the n^(-delta) sphere bound it implies."""
    raw = _graph_config(ctx, graph_path, depth, center_labels, sample,
                        shell={"k_min": k_min, "n_max": n_max}, verify={"slope_tolerance": slope_tol})
    summary, tables = run_analyses(validate_config(raw))
    digest = _digest("verify", graph=str(graph_path), depth=depth, centers=_labels(tables), delta=summary["delta"])
    _emit_csv(ctx, digest, tables["verify"])
    line = {key: summary[key] for key in ("alpha", "delta", "fitted_C", "pass")}
    click.echo(json.dumps({**line, "trend_slope": summary["verify"]["trend_slope"]}, sort_keys=True))
    ctx.exit(0 if summary["pass"] else 1)


@main.command()
@_graph_options()
@click.option("--i-max", type=int, default=None)
@click.pass_context
@_friendly
def dyadic(ctx, graph_path, depth, center_labels, sample, i_max):
    """Dyadic radius selection certified against 2 C_D mu(B)/2^i."""
    raw = _graph_config(ctx, graph_path, depth, center_labels, sample, dyadic={"i_max": i_max})
    summary, tables = run_analyses(validate_config(raw))
    digest = _digest("dyadic", graph=str(graph_path), depth=depth, centers=_labels(tables))
    _emit_csv(ctx, digest, tables["dyadic"])
    slack = summary["dyadic"]["slack_doubling"]
    click.echo(json.dumps({"doubling_slack": slack, "pass": summary["pass"]}, sort_keys=True))
    ctx.exit(0 if summary["pass"] else 1)


@main.command()
@_graph_options(sample=False)
@click.option("--dyadic-radii", is_flag=True, help="Fit at radii 8, 16, 32, ... only.")
@click.option("--min-points", type=int, default=_default("fit", "min_points"), show_default=True)
@click.pass_context
@_friendly
def fit(ctx, graph_path, depth, center_labels, dyadic_radii, min_points):
    """Growth exponent: least-squares slope of log volume vs log radius."""
    fit = {"dyadic_radii": dyadic_radii, "min_points": min_points}
    summary, _ = run_analyses(validate_config(_graph_config(ctx, graph_path, depth, center_labels, None, fit=fit)))
    click.echo(json.dumps(summary["fit"], sort_keys=True))


@main.command()
@click.option("--observable", default=_default("ergodic", "observable"), show_default=True)
@click.option("--start", default=",".join(map(str, _default("ergodic", "start"))), show_default=True, help="Start point on the 2-torus, comma separated.")
@click.option("--n-max", type=int, default=_default("ergodic", "n_max"), show_default=True)
@click.pass_context
@_friendly
def ergodic(ctx, observable, start, n_max):
    """Ball averages of a torus rotation along word-ball powers of Z^2."""
    try:
        point = [float(v) for v in start.split(",")]
    except ValueError:  # left as text, for the config check to reject naming its field
        point = start.split(",")
    opts = {"observable": observable, "start": point, "n_max": n_max}
    # The analysis expands its own powers; the space is the smallest valid one.
    raw = {"space": {"family": "lattice", "d": 2, "radius": 1}, "depth": 2,
           "analyses": {"ergodic": opts}, "seed": ctx.obj["seed"]}
    summary, tables = run_analyses(validate_config(_with_global_options(ctx, raw)))
    # `preset`, once an option with the one value "golden", stays in the stamp: bench/digests.json pins ergodic.csv.
    digest = _digest("ergodic", observable=observable, start=point, n_max=n_max, preset="golden")
    _emit_csv(ctx, digest, tables["ergodic"])
    line = {key: summary["ergodic"][key] for key in ("final_error", "envelope")}
    click.echo(json.dumps(line, sort_keys=True))


@main.command()
@click.argument("name", required=False)
@click.option("--list", "list_recipes", is_flag=True, help="List recipe names and claims.")
@click.option("--config", "config_path", type=click.Path(exists=True, dir_okay=False), default=None, help="Run an explicit config file instead of a bundled recipe.")
@click.pass_context
@_friendly
def reproduce(ctx, name, list_recipes, config_path):
    """Run a bundled recipe (or a config file) and write its artifacts."""
    if [name is not None, config_path is not None, list_recipes].count(True) != 1:
        raise click.ClickException("give a recipe name, --config FILE, or --list")
    if list_recipes:
        for recipe_name in sorted(RECIPES):
            click.echo(f"{recipe_name}: {RECIPES[recipe_name].claim}")
        return
    document = read_config(config_path) if config_path is not None else recipe_document(name)
    result = run_experiment(validate_config(_with_global_options(ctx, document)), out_dir=ctx.obj["out"])
    click.echo(json.dumps(result.summary, sort_keys=True))
    ctx.exit(0 if result.passed else 1)
