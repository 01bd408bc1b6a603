"""In-process stage split of one benchmark workload.

    python3 tools/stage_split.py WORKLOAD [--batches N] [--seed S]

Builds the workload's jobs and graph files with `bench/workloads.py` in a
temporary directory, runs the batch once to warm up, then N more times with
every stage below wrapped by `bench/spans.py`'s `SpanRecorder`.  Prints one
JSON object: per stage, the median over the batches of its self time (its
time less that of the stages it calls) and its calls per batch, in total
and per job (the stages the job calls), and each job's median wall time.
`runner.run_experiment` and `cli.main` hold what no listed stage takes:
config checks, centers, summary and the analyses' own loops.  It reads the
files under `bench/` and writes none of them.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "bench"), str(ROOT / "src")]

from child import Program  # noqa: E402  (bench/, on the path above)
from layers import Layer  # noqa: E402
from spans import SpanRecorder  # noqa: E402
from workloads import WORKLOADS, write_inputs  # noqa: E402

STAGES = (
    "runner.run_experiment",
    "cli.main",
    "config.validate_config",
    "graphio.parse_graph",
    "space.Graph.from_edges",
    "space._connected",
    "space.Graph.validate",
    "space._adjacency",
    "space.volume_profile",  # the BFS; its first call on a graph builds the adjacency
    "generators.word_ball",
    "generators.WordBall.edges",
    "generators.stretched_tree_chain",
    "generators.stairway_strip",
    "generators.norm_profile",
    "groups.check_generates",
    "products.product_powers",
    "products.shell_inclusion_check",
    "ergodic.ergodic_trace",
    "analysis.doubling_constant",
    "analysis.shell_alpha",
    "analysis.verify_sphere_bound",
    "analysis.dyadic_subsequence",
    "analysis.isoperimetric_ratios",
    "analysis.growth_exponent_fit",
    "registry.write_csv",
)


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def split(workload: str, batches: int, seed: int) -> dict:
    program = Program(ROOT)
    recorder = SpanRecorder(tuple(Layer(name, {}) for name in STAGES))
    with tempfile.TemporaryDirectory(prefix="stage-split-") as work:
        inputs = write_inputs(workload, seed, Path(work) / "inputs")
        jobs = json.loads((inputs / "jobs.json").read_text(encoding="ascii"))["jobs"]
        per_job = [{"wall": [], "stages": {}} for _ in jobs]
        with contextlib.chdir(inputs):  # configs name their graph files by relative paths
            for batch in range(batches + 1):
                if batch:
                    recorder.install()
                try:
                    for index, job in enumerate(jobs):
                        out = Path(work) / f"out-{batch}-{index:02d}"
                        out.mkdir()
                        gc.collect()
                        first = len(recorder.spans)
                        t0 = time.perf_counter()
                        error = program.run(job, out)
                        wall = time.perf_counter() - t0
                        if error is not None:
                            raise SystemExit(f"{job['name']}: {error}")
                        if batch:
                            per_job[index]["wall"].append(wall)
                            for name, entry in recorder.aggregate(first).items():
                                stage = per_job[index]["stages"].setdefault(name, {"self_s": [], "calls": []})
                                stage["self_s"].append(entry["self_s"])
                                stage["calls"].append(entry["calls"])
                finally:
                    recorder.uninstall()

    def stages(entries: list[dict], every: bool) -> dict:
        """Median self ms and calls per batch of each stage, summed over
        `entries`; a stage no entry calls only if `every`."""
        out = {}
        for name in STAGES:
            self_s = [sum(e["stages"][name]["self_s"][b] for e in entries) for b in range(batches)]
            calls = [sum(e["stages"][name]["calls"][b] for e in entries) for b in range(batches)]
            if every or any(calls):
                out[name] = {"self_ms": round(1e3 * _median(self_s), 3), "calls": _median(calls)}
        return out

    batch_s = [sum(e["wall"][b] for e in per_job) for b in range(batches)]
    return {
        "workload": workload,
        "seed": seed,
        "batches": batches,
        "python": sys.version.split()[0],
        "batch_ms": round(1e3 * _median(batch_s), 3),
        "stages": stages(per_job, every=True),
        "jobs": {
            job["name"]: {"wall_ms": round(1e3 * _median(entry["wall"]), 3), "stages": stages([entry], every=False)}
            for job, entry in zip(jobs, per_job)
        },
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workload", choices=WORKLOADS)
    parser.add_argument("--batches", type=int, default=5)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    if args.batches < 1:
        parser.error("--batches must be at least 1")
    print(json.dumps(split(args.workload, args.batches, args.seed), indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
