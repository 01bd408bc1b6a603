"""Tests of the benchmark itself: inputs, output checks and tracing.

    python3 -m pytest bench
"""

from __future__ import annotations

import json
import signal
import time
from pathlib import Path

import pytest

from checks import check_job, digests
from child import Checker, Program
from hostspeed import REFERENCE_S, SAMPLE_INTERVAL_S, Sampler, host_reference, scaled
from layers import LAYERS, METRICS
from spans import SpanRecorder
from workloads import DEFAULT_SEED, WHY, WORKLOADS, write_inputs

ROOT = Path(__file__).resolve().parents[1]
BENCH = Path(__file__).resolve().parent


@pytest.fixture(scope="module")
def program() -> Program:
    return Program(ROOT)


def _files(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def _run(program: Program, job: dict, out: Path) -> dict[str, bytes]:
    out.mkdir(parents=True)
    assert program.run(job, out) is None
    return _files(out)


def _smoke(tmp_path: Path, seed: int) -> tuple[Path, list[dict]]:
    """The smoke jobs of the product-sets workload, with their inputs."""
    inputs = write_inputs("product-sets", seed, tmp_path / "inputs")
    jobs = json.loads((inputs / "jobs.json").read_text())["jobs"]
    return inputs, [job for job in jobs if job["name"].startswith("smoke-")]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_gives_identical_inputs(tmp_path, workload):
    first = write_inputs(workload, 5, tmp_path / "a")
    second = write_inputs(workload, 5, tmp_path / "b")
    other = write_inputs(workload, 6, tmp_path / "c")
    assert _files(first) == _files(second)
    assert _files(first)["jobs.json"] != _files(other)["jobs.json"]


def test_outputs_pass_their_checks_and_corruption_fails(tmp_path, program, monkeypatch):
    inputs, jobs = _smoke(tmp_path, 3)
    monkeypatch.chdir(inputs)
    for job in jobs:
        artifacts = _run(program, job, tmp_path / job["name"])
        assert check_job(job, artifacts) == [], job["name"]
        main = "profile.csv" if job["kind"] == "experiment" else job["out"]
        body = artifacts[main].decode().rstrip("\n")
        cut = body.rindex(",")  # lengthen the last number of the last row
        broken = f"{body[:cut]}9{body[cut:]}\n".encode()
        assert check_job(job, {**artifacts, main: broken}), job["name"]


def test_recorded_digests_catch_any_corrupted_artifact(tmp_path, program, monkeypatch):
    recorded = json.loads((BENCH / "digests.json").read_text())
    assert recorded["seed"] == DEFAULT_SEED
    inputs, jobs = _smoke(tmp_path, DEFAULT_SEED)
    monkeypatch.chdir(inputs)
    for job in jobs:
        out = tmp_path / job["name"]
        _run(program, job, out)
        assert Checker(recorded["workloads"]["product-sets"])(job, out, None), job["name"]
        for path in sorted(out.iterdir()):
            data = path.read_bytes()
            path.write_bytes(data[:-2] + bytes([data[-2] ^ 1]) + data[-1:])
            check = Checker(recorded["workloads"]["product-sets"])
            assert not check(job, out, None), (job["name"], path.name)
            path.write_bytes(data)


def test_traced_and_untraced_runs_write_identical_artifacts(tmp_path, program, monkeypatch):
    import folnerlab.analysis
    import folnerlab.runner

    inputs, jobs = _smoke(tmp_path, 4)
    monkeypatch.chdir(inputs)
    plain = {job["name"]: digests(_run(program, job, tmp_path / "plain" / job["name"]))
             for job in jobs}
    recorder = SpanRecorder(LAYERS)
    recorder.install()
    try:
        assert folnerlab.runner.shell_alpha.__wrapped__ is folnerlab.analysis.shell_alpha.__wrapped__
        traced = {job["name"]: digests(_run(program, job, tmp_path / "traced" / job["name"]))
                  for job in jobs}
    finally:
        recorder.uninstall()
    assert traced == plain
    totals = recorder.aggregate()
    assert all(totals[layer.name]["calls"] > 0 for layer in LAYERS)
    assert not hasattr(folnerlab.runner.shell_alpha, "__wrapped__")


def test_self_time_excludes_children():
    recorder = SpanRecorder(LAYERS)
    recorder.spans.extend([
        ["runner.run_experiment", -1, 0.0, 10.0, None],
        ["runner.build_space", 0, 1.0, 4.0, None],
        ["space.Graph.validate", 1, 2.0, 3.0, None],
        ["space.volume_profile", 0, 5.0, 6.0, {"visited": 7}],
    ])
    totals = recorder.aggregate()
    assert totals["runner.run_experiment"]["self_s"] == 6.0
    assert totals["runner.build_space"]["self_s"] == 2.0
    assert totals["space.volume_profile"] == {"self_s": 1.0, "calls": 1, "visited": 7}


def test_benchmark_json_matches_the_metric_tables():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["workloads"] == [{"name": w, "why": WHY[w]} for w in WORKLOADS]
    assert spec["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": "lower"} for m in METRICS
    ]
    layers = {layer.name: layer for layer in LAYERS}
    for m in METRICS:
        assert m.layer == "trace" or m.field in ("self_s", "calls") \
            or m.field in layers[m.layer].counters


def test_sampler_times_the_reference_loop_during_a_block_and_restores_the_handler():
    previous = signal.getsignal(signal.SIGALRM)
    with Sampler() as sampler:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 5 * SAMPLE_INTERVAL_S:
            sum(range(1000))
    assert len(sampler.samples) >= 3
    assert 0 < sampler.wall_s < time.perf_counter() - t0
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is previous


def test_scaling_cancels_host_speed():
    # A job of 2 s at the nominal speed, on a host running half as fast.
    slow = 2 * REFERENCE_S
    assert scaled(4.0, host_reference([slow, slow, slow])) == 2.0
    # Half the job's work at each speed: 1 s at the nominal speed, then 2 s
    # at half of it, sampled every second; the harmonic mean integrates.
    assert abs(scaled(3.0, host_reference([REFERENCE_S, slow, slow])) - 2.0) < 1e-12
