"""One workload run: repeat the workload's batch of jobs in this process.

Started by run.py as a fresh process, with the working directory set to
the workload's input directory, so that configs name their graph files by
relative paths.  Prints one JSON object on its last stdout line: the wall
and CPU time of each job in each batch, per-layer aggregates of traced
batches, job counts, failures and peak RSS.

    python3 bench/child.py --root ROOT --jobs JOBS.json --work DIR
        --seconds S [--trace] [--digests FILE] [--spans FILE]

The first batch warms up caches and lazy imports and is not timed in the
result; with --trace, the batches after it alternate untraced and traced.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

from checks import check_job, digests
from hostspeed import Sampler, host_reference, reference_loop
from layers import LAYERS
from spans import SpanRecorder


def cpu_seconds() -> float:
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


class Program:
    """The folnerlab entry points the jobs call, looked up on every call so
    that the traced run's wrappers are used when they are installed."""

    def __init__(self, root: Path):
        sys.path.insert(0, str(root / "src"))
        import folnerlab.cli
        import folnerlab.config
        import folnerlab.runner

        source = Path(folnerlab.__file__).resolve()
        if not source.is_relative_to((root / "src").resolve()):
            raise SystemExit(f"folnerlab imported from {source}, not from {root / 'src'}")
        self.cli, self.config, self.runner = folnerlab.cli, folnerlab.config, folnerlab.runner

    def run(self, job: dict, out: Path) -> str | None:
        """Run one job writing under `out`; the error text, or None."""
        if job["kind"] == "experiment":
            config = self.config.validate_config(job["config"])
            self.runner.run_experiment(config, out)
            return None
        stdout = io.StringIO()
        try:
            with contextlib.redirect_stdout(stdout):
                code = self.cli.main(["--out", str(out / job["out"])] + job["argv"],
                                     standalone_mode=False)
        finally:
            (out / "stdout.txt").write_text(stdout.getvalue(), encoding="ascii")
        return None if code in (None, 0) else f"exit code {code}"


class Checker:
    """Checks each job's artifacts in full the first time it runs, and then
    that reruns give the same bytes; with recorded digests (the default
    seed), also that the artifacts match them."""

    def __init__(self, recorded: dict | None):
        self.recorded = recorded
        self.verified: dict[str, dict[str, str]] = {}
        self.problems: list[str] = []

    def __call__(self, job: dict, out: Path, error: str | None) -> bool:
        name = job["name"]
        artifacts = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
        found = digests(artifacts)
        if error is not None:
            problems = [error]
        elif name in self.verified:
            problems = [] if found == self.verified[name] else ["artifacts differ from the first run"]
        else:
            problems = check_job(job, artifacts)
            if self.recorded is not None and self.recorded.get(name) != found:
                problems.append("artifact digests differ from the recorded ones")
            if not problems:
                self.verified[name] = found
        self.problems.extend(f"{name}: {p}" for p in problems[:3])
        return not problems


def run_batch(program: Program, jobs: list[dict], work: Path, check: Checker) -> dict:
    """Run each job once; wall and CPU seconds per job, the reference
    loop's seconds over it (sampled before, during and after the job), and
    the failures."""
    wall, cpu, ref = [], [], []
    failed = 0
    for index, job in enumerate(jobs):
        out = work / f"{index:02d}-{job['name']}"
        out.mkdir(parents=True)
        gc.collect()
        before = reference_loop()
        with Sampler() as sampler:
            c0, t0 = cpu_seconds(), time.perf_counter()
            try:
                error = program.run(job, out)
            except Exception as exc:  # a failing job is counted, and the run goes on
                traceback.print_exc()
                error = f"{type(exc).__name__}: {exc}"
            t1, c1 = time.perf_counter(), cpu_seconds()
        wall.append(t1 - t0 - sampler.wall_s)
        cpu.append(c1 - c0 - sampler.cpu_s)
        ref.append(host_reference([before, *sampler.samples, reference_loop()]))
        failed += not check(job, out, error)
        shutil.rmtree(out)
    return {"wall_s": wall, "cpu_s": cpu, "ref_s": ref, "attempted": len(jobs), "failed": failed}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--root", type=Path, required=True)
    parser.add_argument("--jobs", type=Path, required=True)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--digests", type=Path)
    parser.add_argument("--spans", type=Path)
    args = parser.parse_args()

    program = Program(args.root)
    inputs = json.loads(args.jobs.read_text(encoding="ascii"))
    jobs = inputs["jobs"]
    recorded = None
    if args.digests is not None:
        recorded = json.loads(args.digests.read_text())["workloads"][inputs["workload"]]
    check = Checker(recorded)
    recorder = SpanRecorder(LAYERS) if args.trace else None
    shutil.rmtree(args.work, ignore_errors=True)
    os.chdir(args.jobs.parent)

    batches = []
    started = time.perf_counter()
    while True:
        warmup = not batches
        traced = recorder is not None and not warmup and len(batches) % 2 == 0
        first_span = len(recorder.spans) if recorder else 0
        if traced:
            recorder.install()
        b0 = time.perf_counter()
        try:
            batch = run_batch(program, jobs, args.work / str(len(batches)), check)
        finally:
            if traced:
                recorder.uninstall()
        last = time.perf_counter() - b0
        batch["warmup"], batch["traced"] = warmup, traced
        if traced:
            batch["layers"] = recorder.aggregate(first_span)
        batches.append(batch)
        enough = len(batches) >= (3 if recorder else 2)
        if enough and time.perf_counter() - started + last > args.seconds:
            break
    shutil.rmtree(args.work, ignore_errors=True)

    if recorder is not None and args.spans is not None:
        args.spans.parent.mkdir(parents=True, exist_ok=True)
        with open(args.spans, "w", encoding="ascii") as fh:
            for span in recorder.spans:
                fh.write(json.dumps(span) + "\n")
    print(json.dumps({
        "batches": batches,
        "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "problems": check.problems[:20],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
