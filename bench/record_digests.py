"""Record the SHA-256 digest of every artifact of the default seed.

    python3 bench/record_digests.py

Run from the root of a source checkout.  Runs each workload's batch once,
untraced, checks every job, and writes bench/digests.json only when all
jobs pass.  Benchmark runs with the default seed then fail any job whose
artifacts differ from the recorded bytes; rerun this only for an intended
change of artifact bytes, and say so where the change is described.
"""

from __future__ import annotations

import os

os.environ.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1")

import json  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

from child import Checker, Program, run_batch  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, write_inputs  # noqa: E402

BENCH = Path(__file__).resolve().parent


def main() -> int:
    root = Path.cwd()
    program = Program(root)
    recorded = {}
    for workload in WORKLOADS:
        inputs = write_inputs(workload, DEFAULT_SEED, BENCH / ".cache" / "inputs")
        jobs = json.loads((inputs / "jobs.json").read_text(encoding="ascii"))["jobs"]
        work = BENCH / ".cache" / "work" / f"record-{os.getpid()}"
        check = Checker(None)
        os.chdir(inputs)
        try:
            batch = run_batch(program, jobs, work, check)
        finally:
            os.chdir(root)
            shutil.rmtree(work, ignore_errors=True)
        if batch["failed"]:
            print("\n".join(check.problems), file=sys.stderr)
            return 1
        recorded[workload] = check.verified
    path = BENCH / "digests.json"
    path.write_text(json.dumps({"seed": DEFAULT_SEED, "workloads": recorded},
                               indent=1, sort_keys=True) + "\n", encoding="ascii")
    print(f"wrote {path.relative_to(root)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
