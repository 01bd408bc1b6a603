"""folnerlab benchmark: seeded experiment batches, end to end and per layer.

Run from the root of a source checkout:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py                       # every workload, both modes

For each workload run this script writes the seeded inputs (cached under
bench/.cache), times fresh interpreters importing folnerlab (`setup_s`),
and starts one child process (child.py) that repeats the workload's batch
of jobs for S seconds, checking every job's output.  Only one child runs
at a time.  With --trace 0 it reports the end-to-end metrics of
BENCHMARK.json, from per-job medians over the batches; with --trace 1 the
per-layer metrics, medians over the traced batches, which alternate with
untraced ones so that the tracing overhead is measured in the same
process.  The end-to-end times are scaled to a nominal host speed, measured
next to each job and probe by hostspeed.py; the unscaled ones are printed
and recorded as well.

Every metric is printed as `workload metric value unit`; the last line is
the JSON result {"correct", "attempted", "failed", "metrics"}.  A full
record with provenance goes to bench/.out.  Exits with 2, printing no
result, when the checkout holds no folnerlab sources.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

from hostspeed import host_reference, reference_loop, scaled
from layers import METRICS
from workloads import DEFAULT_SEED, WORKLOADS, write_inputs

BENCH = Path(__file__).resolve().parent
SETUP_PROBES = 15
CHILD_TIMEOUT_S = 150
# The share of traced run time that the layers a workload is built around
# must take, so that the workload measures what it claims to.
DOMINANT = {
    "group-balls": (0.8, ("generators.cayley_ball", "space.Graph.from_edges",
                          "space.Graph.validate")),
    "explicit-graphs": (0.7, ("analysis.", "graphio.", "space.volume_profile")),
    "product-sets": (0.8, ("products.", "ergodic.")),
}
PROBE = (
    "import sys, time; sys.path.insert(0, 'src'); import folnerlab; "
    "print(time.monotonic(), folnerlab.__file__)"
)


def child_env() -> dict[str, str]:
    """Single-threaded numerical libraries, fixed string hashing."""
    env = dict(os.environ)
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", PYTHONHASHSEED="0")
    env.pop("PYTHONPATH", None)
    return env


def setup_seconds(root: Path) -> tuple[list[float], list[float]]:
    """Seconds from starting an interpreter to `import folnerlab` done, and
    the reference loop's seconds around each probe."""
    samples, references = [], []
    src = (root / "src").resolve()
    for _ in range(SETUP_PROBES):
        before = reference_loop()
        started = time.monotonic()
        probe = subprocess.run([sys.executable, "-c", PROBE], cwd=root, env=child_env(),
                               capture_output=True, text=True, timeout=60, check=True)
        ready, source = probe.stdout.split()
        if not Path(source).resolve().is_relative_to(src):
            raise RuntimeError(f"folnerlab imported from {source}, not from {src}")
        samples.append(float(ready) - started)
        references.append(host_reference([before, reference_loop()]))
    return samples, references


def provenance(root: Path) -> dict:
    source = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        source.update(path.relative_to(root).as_posix().encode() + b"\0" + path.read_bytes())
    git_sha = None
    if (root / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True, check=False)
        git_sha = done.stdout.strip() or None
    return {
        "git_sha": git_sha,
        "source_sha256": source.hexdigest(),
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
    }


def run_child(root: Path, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    inputs = write_inputs(workload, seed, BENCH / ".cache" / "inputs")
    command = [sys.executable, str(BENCH / "child.py"), "--root", str(root),
               "--jobs", str(inputs / "jobs.json"), "--seconds", str(seconds),
               "--work", str(BENCH / ".cache" / "work" / f"{workload}-{os.getpid()}")]
    if trace:
        command += ["--trace", "--spans",
                    str(BENCH / ".out" / f"spans-{workload}-seed{seed}.jsonl")]
    if seed == DEFAULT_SEED and (BENCH / "digests.json").is_file():
        command += ["--digests", str(BENCH / "digests.json")]
    child = subprocess.Popen(command, cwd=root, env=child_env(), stdout=subprocess.PIPE,
                             text=True)
    try:
        stdout, _ = child.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        child.kill()
        child.wait()
        raise RuntimeError(f"{workload}: child did not finish in {CHILD_TIMEOUT_S} s")
    if child.returncode != 0:
        raise RuntimeError(f"{workload}: child exited with {child.returncode}")
    return json.loads(stdout.strip().splitlines()[-1])


def batch_seconds(batches: list[dict], key: str, scale: bool = True) -> float:
    """Seconds of one batch: each job's median over `batches`, summed.

    Each job's time is scaled to the nominal host speed by the reference
    loop timed around it, unless `scale` is false.  Per-job medians drop the
    slow outliers that other tenants of a shared host cause in a few jobs of
    most batches, which a median of batch sums keeps."""
    total = 0.0
    for index in range(len(batches[0][key])):
        times = [b[key][index] for b in batches]
        if scale:
            times = [scaled(t, b["ref_s"][index]) for t, b in zip(times, batches)]
        total += statistics.median(times)
    return total


def end_to_end(measured: dict, setup: tuple[list[float], list[float]]
               ) -> dict[str, tuple[float, str]]:
    batches = [b for b in measured["batches"] if not (b["warmup"] or b["traced"])]
    return {
        "run_s": (batch_seconds(batches, "wall_s"), "s"),
        "cpu_s": (batch_seconds(batches, "cpu_s"), "s"),
        "setup_s": (statistics.median(map(scaled, *setup)), "s"),
        "peak_rss_mb": (measured["peak_rss_kib"] / 1024, "MiB"),
    }


def unscaled(measured: dict, setup: tuple[list[float], list[float]]
             ) -> dict[str, tuple[float, str]]:
    """The end-to-end times as measured, without the host-speed scaling."""
    batches = [b for b in measured["batches"] if not (b["warmup"] or b["traced"])]
    return {
        "run_wall_s": (batch_seconds(batches, "wall_s", scale=False), "s"),
        "cpu_unscaled_s": (batch_seconds(batches, "cpu_s", scale=False), "s"),
        "setup_wall_s": (statistics.median(setup[0]), "s"),
        "reference_s": (statistics.median(r for b in batches for r in b["ref_s"]), "s"),
    }


def per_layer(measured: dict) -> dict[str, tuple[float, str]]:
    traced = [b for b in measured["batches"] if b["traced"]]
    untraced = [b for b in measured["batches"] if not (b["warmup"] or b["traced"])]
    overhead = batch_seconds(traced, "wall_s") - batch_seconds(untraced, "wall_s")
    out = {}
    for m in METRICS:
        if m.layer == "trace":
            out[m.name] = (overhead, m.unit)
        else:
            out[m.name] = (statistics.median(b["layers"][m.layer][m.field] for b in traced),
                           m.unit)
    return out


def dominant_share(workload: str, measured: dict) -> tuple[float, float]:
    """Median share of traced run time in the workload's own layers, and
    the share it must reach."""
    need, prefixes = DOMINANT[workload]
    shares = [
        sum(v["self_s"] for name, v in b["layers"].items() if name.startswith(prefixes))
        / sum(b["wall_s"])
        for b in measured["batches"] if b["traced"]
    ]
    return statistics.median(shares), need


def run_workload(root: Path, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    load_before = os.getloadavg()
    setup = ([], []) if trace else setup_seconds(root)
    measured = run_child(root, workload, seed, seconds, trace)
    load_after = os.getloadavg()
    metrics = per_layer(measured) if trace else end_to_end(measured, setup)
    informative = {} if trace else unscaled(measured, setup)
    attempted = sum(b["attempted"] for b in measured["batches"])
    failed = sum(b["failed"] for b in measured["batches"])
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "provenance": provenance(root),
        "load_before": load_before, "load_after": load_after,
        "setup_samples_s": setup[0], "setup_reference_s": setup[1],
        "attempted": attempted, "failed": failed, "fail_frac": failed / attempted,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
        "unscaled": {name: {"value": v, "unit": u} for name, (v, u) in informative.items()},
        "child": measured,
    }
    out = BENCH / ".out" / f"{workload}-seed{seed}-trace{int(trace)}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(record, indent=1) + "\n", encoding="ascii")

    for problem in measured["problems"]:
        print(f"{workload} problem {problem}", file=sys.stderr)
    print(f"{workload} provenance {json.dumps(record['provenance'], sort_keys=True)}")
    print(f"{workload} loadavg {load_before[0]:.2f} -> {load_after[0]:.2f}")
    print(f"{workload} batches {len(measured['batches'])}")
    print(f"{workload} fail_frac {record['fail_frac']:.6g} 1")
    if trace:
        share, need = dominant_share(workload, measured)
        print(f"{workload} dominant_share {share:.4f} 1 (needs >= {need})")
    for name, (value, unit) in (metrics | informative).items():
        print(f"{workload} {name} {value:.6g} {unit}")
    return record


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float,
                        help="measuring time per run (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="with --workload all, both modes run")
    args = parser.parse_args()

    root = Path.cwd()
    if not (root / "src" / "folnerlab" / "__init__.py").is_file():
        print(f"no folnerlab sources under {root / 'src'}; run from a checkout root",
              file=sys.stderr)
        return 2
    seconds = args.seconds or json.loads((root / "BENCHMARK.json").read_text())["run_seconds"]
    if args.workload == "all":
        runs = [(w, t) for w in WORKLOADS for t in (False, True)]
    else:
        runs = [(args.workload, bool(args.trace))]
    try:
        records = [run_workload(root, w, args.seed, seconds, t) for w, t in runs]
    except (RuntimeError, subprocess.SubprocessError, OSError, ValueError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    failed = sum(r["failed"] for r in records)
    metrics = {}
    for r in records:
        prefix = "" if len(records) == 1 else f"{r['workload']}/"
        metrics.update({prefix + name: m for name, m in r["metrics"].items()})
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in records),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
