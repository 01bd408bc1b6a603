"""
The scripts under `tools/`.

Core claims:
    - `tools/stage_split.py` runs one product-sets batch in a child process
      and prints its split: every stage it names is a function or method
      in `src/folnerlab`, the stages the batch calls have calls, and every
      job of the batch has a wall time and stages of its own
"""

import importlib
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_stage_split_names_stages_of_src(tmp_path, child_env):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "stage_split.py"), "product-sets", "--batches", "1"],
        capture_output=True, text=True, cwd=tmp_path, env=child_env(), timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    split = json.loads(proc.stdout)
    assert (split["workload"], split["seed"], split["batches"]) == ("product-sets", 0, 1)
    for name in split["stages"]:
        module, *path = name.split(".")
        target = importlib.import_module(f"folnerlab.{module}")
        for attribute in path:
            target = getattr(target, attribute)
        assert callable(target), name
    called = {name for name, stage in split["stages"].items() if stage["calls"]}
    assert {"runner.run_experiment", "cli.main", "products.product_powers",
            "products.shell_inclusion_check", "ergodic.ergodic_trace", "registry.write_csv"} <= called
    assert split["jobs"] and all(job["wall_ms"] > 0 and job["stages"] for job in split["jobs"].values())
    for job in split["jobs"].values():
        assert set(job["stages"]) <= called
