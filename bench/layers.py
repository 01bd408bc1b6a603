"""The traced layers of folnerlab and the per-layer metrics taken from them.

Each `Layer` names one public function (or `Graph` method) that the traced
run wraps, with the work counters read from its arguments and result.
Each `Metric` is one per-layer metric of BENCHMARK.json (lower is
better for all of them), with the end-to-end metric and workload it should
move and the workloads where it should stay flat; a change to one layer is
judged against these predictions.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable


@dataclass(frozen=True)
class Layer:
    name: str  # "module.function" or "module.Class.method" inside folnerlab
    counters: dict[str, Callable[[tuple, dict, Any], int]]


def _artifact_bytes(args, kwargs, result) -> int:
    return sum(Path(p).stat().st_size for p in result.artifacts)


def _evaluations(args, kwargs, result) -> int:
    sequence = args[1] if len(args) > 1 else kwargs["sequence"]
    return sequence.sizes[result.steps]


LAYERS = (
    Layer("generators.cayley_ball", {"vertices": lambda a, k, r: r.graph.vertex_count}),
    Layer("generators.stretched_tree_chain", {}),
    Layer("generators.stairway_strip", {}),
    Layer("generators.norm_profile", {}),
    Layer("space.Graph.from_edges", {}),
    Layer("space.Graph.validate", {}),
    Layer("space.volume_profile", {"visited": lambda a, k, r: r.ball[-1]}),
    Layer("graphio.parse_graph", {"bytes": lambda a, k, r: len(a[0].encode())}),
    Layer("analysis.shell_alpha", {"pairs": lambda a, k, r: r.pairs_tested}),
    Layer("analysis.verify_sphere_bound", {"radii": lambda a, k, r: len(r.constants)}),
    Layer("analysis.doubling_constant", {}),
    Layer("analysis.dyadic_subsequence", {}),
    Layer("analysis.growth_exponent_fit", {}),
    Layer("products.product_powers", {"elements": lambda a, k, r: len(r.birth)}),
    Layer("products.product_with_powers", {"elements": lambda a, k, r: len(r)}),
    Layer("products.shell_inclusion_check", {}),
    Layer("groups.check_generates", {}),
    Layer("ergodic.ergodic_trace", {"evaluations": _evaluations}),
    Layer("runner.run_experiment", {"artifact_bytes": _artifact_bytes}),
    Layer("runner.build_space", {}),
    Layer("cli.main", {}),
)


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    layer: str  # a Layer name, or "trace" for the tracing overhead
    field: str  # "self_s", "calls" or one of the layer's counters
    moves: tuple[tuple[str, str], ...]  # (end-to-end metric, workload)
    flat: tuple[str, ...]  # workloads on which it should not move


GB, EG, PS = "group-balls", "explicit-graphs", "product-sets"


def _metrics(layer: str, fields: list[str], moves, flat, units=None) -> list[Metric]:
    units = units or {}
    return [
        Metric(
            name=f"{layer}.{field}",
            unit="s" if field == "self_s" else units.get(field, "count"),
            layer=layer,
            field=field,
            moves=tuple(moves),
            flat=tuple(flat),
        )
        for field in fields
    ]


_GRAPH_BUILD = [("run_s", GB), ("peak_rss_mb", GB)]
_EXPLICIT = [("run_s", EG)]
_PRODUCTS = [("run_s", PS)]

METRICS = (
    _metrics("generators.cayley_ball", ["self_s", "calls", "vertices"], _GRAPH_BUILD, [PS])
    + _metrics("space.Graph.from_edges", ["self_s"], _GRAPH_BUILD + _EXPLICIT, [PS])
    + _metrics("space.Graph.validate", ["self_s"], _GRAPH_BUILD + _EXPLICIT, [PS])
    + [
        m
        for name in ("stretched_tree_chain", "stairway_strip", "norm_profile")
        for m in _metrics(f"generators.{name}", ["self_s"], _EXPLICIT, [GB, PS])
    ]
    + _metrics("space.volume_profile", ["self_s", "calls", "visited"], _EXPLICIT, [PS])
    + _metrics("graphio.parse_graph", ["self_s", "bytes"], _EXPLICIT, [GB, PS],
               {"bytes": "B"})
    + _metrics("analysis.shell_alpha", ["self_s", "pairs"], _EXPLICIT, [GB, PS])
    + _metrics("analysis.verify_sphere_bound", ["self_s", "radii"], _EXPLICIT, [GB, PS])
    + [
        m
        for name in ("doubling_constant", "dyadic_subsequence", "growth_exponent_fit")
        for m in _metrics(f"analysis.{name}", ["self_s"], _EXPLICIT, [GB, PS])
    ]
    + _metrics("products.product_powers", ["self_s", "calls", "elements"], _PRODUCTS, [GB, EG])
    + _metrics("products.product_with_powers", ["self_s", "calls", "elements"], _PRODUCTS,
               [GB, EG])
    + _metrics("products.shell_inclusion_check", ["self_s", "calls"], _PRODUCTS, [GB, EG])
    + _metrics("groups.check_generates", ["self_s"], _PRODUCTS, [GB, EG])
    + _metrics("ergodic.ergodic_trace", ["self_s", "evaluations"], _PRODUCTS, [GB, EG])
    + _metrics("runner.run_experiment", ["self_s"], [], [GB, EG, PS])
    + [Metric("runner.artifact_bytes", "B", "runner.run_experiment", "artifact_bytes",
              (), (GB, EG, PS))]
    + _metrics("runner.build_space", ["self_s"], [], [GB, EG, PS])
    + _metrics("cli.main", ["self_s"], [], [GB, EG, PS])
    + [Metric("trace.overhead_s", "s", "trace", "overhead_s", (), (GB, EG, PS))]
)
