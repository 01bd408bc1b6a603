"""Command-line interface.

One subcommand per workflow step: `generate` emits graph files, `profile`
and the analysis commands consume them, `powers` / `nprod` work on group
models directly, and `reproduce` runs the bundled recipes.  Ad-hoc commands
stamp their CSVs with a digest of their own parameters, so any artifact can
be traced to the invocation that wrote it; `reproduce` artifacts carry the
config hash instead.

The CLI is a thin front end: `generate` builds through the family table of
`registry`, and `profile` and the analysis commands call the runner's
`profile_space` and the analysis-table entries, adding only their own digest
stamp, stdout line and exit code.  No command computes an analysis itself.
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

from .config import ExperimentConfig, load_config, validate_space
from .errors import (
    BudgetExceededError,
    ConfigError,
    GraphFormatError,
    NotGeneratingError,
)
from .generators import DEFAULT_VERTEX_BUDGET
from .graphio import dump_graph
from .groups import GroupModel
from .products import (
    DEFAULT_ELEMENT_BUDGET,
    folner_ratios,
    product_powers,
    varying_products,
)
from .recipes import RECIPES
from .registry import ANALYSES, FAMILIES, Context, Table, profile_table, write_csv
from .runner import profile_space, reproduce as run_recipe, run_experiment

__all__ = ["main"]


def _friendly(fn):
    """Turn domain errors into clean CLI failures instead of tracebacks."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except (
            ConfigError,
            GraphFormatError,
            BudgetExceededError,
            NotGeneratingError,
            ValueError,
            KeyError,
        ) as exc:
            message = exc.args[0] if exc.args else str(exc)
            raise click.ClickException(str(message))

    return wrapper


def _digest(command: str, **params: Any) -> str:
    payload = json.dumps({"command": command, **params}, sort_keys=True)
    return hashlib.sha256(payload.encode("ascii")).hexdigest()[:16]


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, encoding="ascii")


def _emit_csv(ctx: click.Context, digest: str, table: Table) -> None:
    buf = io.StringIO()
    write_csv(buf, digest, *table)
    _emit(buf.getvalue(), ctx.obj["out"])


def _resolve_model(group: str, d: int) -> GroupModel:
    return FAMILIES["lattice" if group == "zd" else group].model({"d": d})


def _parse_set(model: GroupModel, text: str) -> tuple[tuple[int, ...], ...]:
    """A generating set given as a named label or a JSON array of tuples."""
    if not text.lstrip().startswith("["):
        return model.generating_set(text)
    raw = json.loads(text)
    if not isinstance(raw, list) or not all(isinstance(g, list) for g in raw):
        raise click.ClickException("expected a JSON array of integer arrays")
    return tuple(tuple(int(c) for c in g) for g in raw)


def _profiled(
    ctx: click.Context, graph_path: str, depth: int, center_labels: Sequence[str], sample: int
) -> Context:
    """The runner's context for a graph file, its centers and depth."""
    config = ExperimentConfig({
        "space": {"graph_file": str(graph_path)},
        "depth": depth,
        "centers": {"basepoints": list(center_labels) or "all", "sample": sample},
        "seed": ctx.obj["seed"],
        "budgets": {"vertices": ctx.obj["budget_vertices"], "elements": ctx.obj["budget_elements"]},
    })
    return profile_space(config)[1]


_Z2_STANDARD = {"family": "lattice", "d": 2, "generating_set": "standard"}


def _labels(context: Context) -> list[str]:
    return [label for label, _ in context.labeled]


@click.group()
@click.option("--seed", type=int, default=0, show_default=True, help="PRNG seed for center sampling.")
@click.option("--budget-vertices", type=int, default=DEFAULT_VERTEX_BUDGET, show_default=True, help="Hard cap on constructed vertices.")
@click.option("--budget-elements", type=int, default=DEFAULT_ELEMENT_BUDGET, show_default=True, help="Hard cap on enumerated group elements.")
@click.option("--out", type=str, default=None, help="Output file (or directory for reproduce/run).")
@click.pass_context
def main(ctx: click.Context, seed: int, budget_vertices: int, budget_elements: int, out: str | None) -> None:
    """Growth, shells, and ergodic averages on doubling graphs and groups."""
    ctx.obj = {
        "seed": seed,
        "budget_vertices": budget_vertices,
        "budget_elements": budget_elements,
        "out": out,
    }


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
def generate(ctx, family, d, radius, generating_set, a, b, blocks, levels):
    """Build a space and emit it in the graph file format."""
    params = dict(d=d, radius=radius, generating_set=generating_set,
                  a=a, b=b, blocks=blocks, levels=levels)
    spec = FAMILIES[family]
    space = validate_space({"family": family, **{key: params[key] for key in (*spec.ints, *spec.strs)}})
    built = spec.build(space, ctx.obj["budget_vertices"])
    _emit(dump_graph(built.graph), ctx.obj["out"])


@main.command()
@click.option("--graph", "graph_path", type=click.Path(exists=True, dir_okay=False), required=True)
@click.option("--depth", type=int, required=True)
@click.option("--center", "center_labels", multiple=True, help="Basepoint label (repeatable; default all).")
@click.option("--sample", type=int, default=0, show_default=True, help="Sample this many centers instead.")
@click.pass_context
@_friendly
def profile(ctx, graph_path, depth, center_labels, sample):
    """Ball and sphere volumes around the chosen centers."""
    context = _profiled(ctx, graph_path, depth, center_labels, sample)
    digest = _digest("profile", graph=str(graph_path), depth=depth, centers=_labels(context))
    _emit_csv(ctx, digest, profile_table(context.labeled))


def _powers_rows(sizes: Sequence[int], ratios: Sequence[Fraction]) -> list[tuple]:
    rows = []
    for n, size in enumerate(sizes):
        delta = size - sizes[n - 1] if n > 0 else size
        ratio = ratios[n] if n < len(ratios) else ""
        rows.append((n, size, delta, ratio))
    return rows


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
    gen = _parse_set(model, set_text)
    seq = product_powers(model, gen, n_max, ctx.obj["budget_elements"])
    digest = _digest("powers", group=group, d=d, set=sorted(gen), n_max=n_max)
    rows = _powers_rows(seq.sizes, folner_ratios(seq))
    _emit_csv(ctx, digest, (("n", "size", "delta_size", "folner_ratio"), rows))


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
    raw = json.loads(factors_text)
    if not isinstance(raw, list):
        raise click.ClickException("expected a JSON array of factor sets")
    factors = [tuple(tuple(int(c) for c in g) for g in factor) for factor in raw]
    inner = _parse_set(model, inner_text)
    outer = _parse_set(model, outer_text)
    seq = varying_products(model, factors, inner, outer, element_budget=ctx.obj["budget_elements"])
    digest = _digest("nprod", group=group, d=d, factors=[sorted(f) for f in factors])
    rows = _powers_rows(seq.sizes, folner_ratios(seq))
    _emit_csv(ctx, digest, (("n", "size", "delta_size", "folner_ratio"), rows))


@main.command("shell-report")
@click.option("--graph", "graph_path", type=click.Path(exists=True, dir_okay=False), required=True)
@click.option("--depth", type=int, required=True)
@click.option("--center", "center_labels", multiple=True)
@click.option("--sample", type=int, default=0, show_default=True)
@click.option("--k-min", type=int, default=5, show_default=True)
@click.option("--n-max", type=int, default=None)
@click.option("--record-all", is_flag=True, help="Emit every tested pair, not just the worst.")
@click.pass_context
@_friendly
def shell_report(ctx, graph_path, depth, center_labels, sample, k_min, n_max, record_all):
    """Shell-comparison sweep: alpha, delta, and the worst pair."""
    context = _profiled(ctx, graph_path, depth, center_labels, sample)
    shell = ANALYSES["shell"].run(context, {"k_min": k_min, "n_max": n_max, "record_all": record_all})
    digest = _digest("shell-report", graph=str(graph_path), depth=depth, centers=_labels(context), k_min=k_min, n_max=context.shell.n_max)
    _emit_csv(ctx, digest, shell.table)
    summary = {key: shell.summary[key] for key in ("alpha", "delta", "fitted_C")}
    click.echo(json.dumps({**summary, "pass": context.shell.alpha > 0}, sort_keys=True))


@main.command()
@click.option("--graph", "graph_path", type=click.Path(exists=True, dir_okay=False), required=True)
@click.option("--depth", type=int, required=True)
@click.option("--center", "center_labels", multiple=True)
@click.option("--sample", type=int, default=0, show_default=True)
@click.option("--k-min", type=int, default=5, show_default=True)
@click.option("--n-max", type=int, default=None)
@click.option("--slope-tol", type=float, default=0.05, show_default=True)
@click.pass_context
@_friendly
def verify(ctx, graph_path, depth, center_labels, sample, k_min, n_max, slope_tol):
    """Measure alpha, then verify the n^(-delta) sphere bound it implies."""
    context = _profiled(ctx, graph_path, depth, center_labels, sample)
    shell = ANALYSES["shell"].run(context, {"k_min": k_min, "n_max": n_max, "record_all": False})
    verified = ANALYSES["verify"].run(context, {"slope_tolerance": slope_tol})
    digest = _digest("verify", graph=str(graph_path), depth=depth, centers=_labels(context), delta=context.shell.delta)
    _emit_csv(ctx, digest, verified.table)
    summary = {
        "alpha": shell.summary["alpha"],
        "delta": shell.summary["delta"],
        "fitted_C": verified.summary["fitted_C"],
        "trend_slope": verified.summary["verify"]["trend_slope"],
        "pass": verified.passed,
    }
    click.echo(json.dumps(summary, sort_keys=True))
    ctx.exit(0 if verified.passed else 1)


@main.command()
@click.option("--graph", "graph_path", type=click.Path(exists=True, dir_okay=False), required=True)
@click.option("--depth", type=int, required=True)
@click.option("--center", "center_labels", multiple=True)
@click.option("--sample", type=int, default=0, show_default=True)
@click.option("--i-max", type=int, default=None)
@click.pass_context
@_friendly
def dyadic(ctx, graph_path, depth, center_labels, sample, i_max):
    """Dyadic radius selection certified against 2 C_D mu(B)/2^i."""
    context = _profiled(ctx, graph_path, depth, center_labels, sample)
    dyadic = ANALYSES["dyadic"].run(context, {"i_max": i_max})
    digest = _digest("dyadic", graph=str(graph_path), depth=depth, centers=_labels(context))
    _emit_csv(ctx, digest, dyadic.table)
    slack = dyadic.summary["dyadic"]["slack_doubling"]
    click.echo(json.dumps({"doubling_slack": slack, "pass": dyadic.passed}, sort_keys=True))
    ctx.exit(0 if dyadic.passed else 1)


@main.command()
@click.option("--graph", "graph_path", type=click.Path(exists=True, dir_okay=False), required=True)
@click.option("--depth", type=int, required=True)
@click.option("--center", "center_labels", multiple=True)
@click.option("--dyadic-radii", is_flag=True, help="Fit at radii 8, 16, 32, ... only.")
@click.option("--min-points", type=int, default=8, show_default=True)
@click.pass_context
@_friendly
def fit(ctx, graph_path, depth, center_labels, dyadic_radii, min_points):
    """Growth exponent: least-squares slope of log volume vs log radius."""
    context = _profiled(ctx, graph_path, depth, center_labels, 0)
    fits = ANALYSES["fit"].run(context, {"dyadic_radii": dyadic_radii, "min_points": min_points})
    click.echo(json.dumps(fits.summary["fit"], sort_keys=True))


@main.command()
@click.option("--observable", default="cos_x", show_default=True)
@click.option("--start", default="0.1,0.2", show_default=True, help="Start point on the 2-torus, comma separated.")
@click.option("--n-max", type=int, default=200, show_default=True)
@click.option("--preset", type=click.Choice(["golden"]), default="golden", show_default=True)
@click.pass_context
@_friendly
def ergodic(ctx, observable, start, n_max, preset):
    """Ball averages of a torus rotation along word-ball powers of Z^2."""
    point = tuple(float(v) for v in start.split(","))
    if len(point) != 2:
        raise click.ClickException("start must have two coordinates")
    context = Context(_Z2_STANDARD, ctx.obj["budget_elements"])
    trace = ANALYSES["ergodic"].run(
        context, {"observable": observable, "start": point, "n_max": n_max, "preset": preset}
    )
    digest = _digest("ergodic", observable=observable, start=list(point), n_max=n_max, preset=preset)
    _emit_csv(ctx, digest, trace.table)
    summary = {key: trace.summary["ergodic"][key] for key in ("final_error", "envelope")}
    click.echo(json.dumps(summary, sort_keys=True))


@main.command()
@click.argument("name", required=False)
@click.option("--list", "list_recipes", is_flag=True, help="List recipe names and claims.")
@click.option("--config", "config_path", type=click.Path(exists=True, dir_okay=False), default=None, help="Run an explicit config file instead of a bundled recipe.")
@click.pass_context
@_friendly
def reproduce(ctx, name, list_recipes, config_path):
    """Run a bundled recipe (or a config file) and write its artifacts."""
    if list_recipes:
        for recipe_name in sorted(RECIPES):
            click.echo(f"{recipe_name}: {RECIPES[recipe_name].claim}")
        return
    if config_path is not None:
        result = run_experiment(load_config(config_path), out_dir=ctx.obj["out"])
    elif name is not None:
        result = run_recipe(name, out_dir=ctx.obj["out"])
    else:
        raise click.ClickException("give a recipe name, --config FILE, or --list")
    click.echo(json.dumps(result.summary, sort_keys=True))
    ctx.exit(0 if result.passed else 1)
