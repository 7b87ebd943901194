"""The benchmark's own tests; run from the repository root with

    python3 -m pytest perfbench -q

They start the benchmark command itself, so they take about two minutes.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import run  # noqa: E402
import workloads  # noqa: E402


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def result_of(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def record_of(workload: str, seed: int, trace: int) -> dict:
    path = os.path.join(
        ROOT, ".perfbench", "results", f"{workload}-seed{seed}-trace{trace}.json"
    )
    with open(path) as fh:
        return json.load(fh)


def test_stable_ball_bytes_do_not_depend_on_threads(tmp_path, monkeypatch):
    from htclip import cli

    monkeypatch.chdir(tmp_path)
    config = workloads.ball_config(7, grid=[16, 32, 64], trials=130)
    (tmp_path / "config.json").write_text(json.dumps(config))
    outputs = []
    for threads in (1, 2):
        out = tmp_path / f"out-{threads}"
        rc = cli.main([
            "run", "--config", "config.json", "--out", str(out),
            "--threads", str(threads),
        ])
        assert rc == 0
        outputs.append(workloads.read_outputs(str(out)))
    assert outputs[0] == outputs[1]


def _exact_metrics(metrics: dict) -> dict:
    return {
        name: m["value"]
        for name, m in metrics.items()
        if m["unit"] in ("count", "bytes") or name.endswith(".calls")
        or name == "algorithms.loop_steps_per_trial_step"
    }


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_counts_repeat_and_wall_is_accounted(workload):
    seed = 5
    first = result_of(bench("--workload", workload, "--seed", str(seed),
                            "--seconds", "0.1", "--trace", "1"))
    second = result_of(bench("--workload", workload, "--seed", str(seed),
                             "--seconds", "0.1", "--trace", "1"))
    assert first["correct"] and second["correct"]
    assert first["failed"] == 0
    assert set(first["metrics"]) == {name for name, _, _ in run.PER_LAYER}
    counts = _exact_metrics(first["metrics"])
    assert counts and counts == _exact_metrics(second["metrics"])

    trace = record_of(workload, seed, 1)["trace"]
    # calling thread: self times + pool wait add up to the traced wall time
    assert trace["main_self_s"] + trace["pool_wait_s"] == pytest.approx(
        trace["wall_s"], rel=1e-9
    )
    assert trace["worker_self_s"] == pytest.approx(trace["worker_busy_s"], rel=1e-9)
    assert sum(trace["layer_self_share"].values()) == pytest.approx(1.0)
    if workload == "rate-hard-cvx":
        assert trace["largest_layer"] == "algorithms"
        assert next(iter(trace["top_self_s"])) == "algorithms.run_trials"
    if workload == "rate-stable-ball":
        assert trace["largest_layer"] == "noise"


def test_untraced_run_prints_every_end_to_end_metric():
    res = result_of(bench("--workload", "rate-hard-cvx", "--seed", "3",
                          "--seconds", "0.1", "--trace", "0"))
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    assert list(res["metrics"]) == [name for name, _, _ in run.END_TO_END]
    for name, unit, _ in run.END_TO_END:
        assert res["metrics"][name]["unit"] == unit
        assert res["metrics"][name]["value"] > 0


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "rate-hard-cvx", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
