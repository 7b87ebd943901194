"""htclip benchmark: one command, every metric by name with its unit.

    python3 perfbench/run.py --workload rate-hard-cvx --seed 1 --seconds 20 --trace 0

Run from the repository root (any directory whose src/htclip holds the
sources).  Each run starts fresh worker processes (perfbench/worker.py):

- --trace 0: ROUNDS rounds, each of SETUPS_PER_ROUND set-up-only
  workers and one worker that sets up and runs untraced ops for
  --seconds / ROUNDS.  The machine's speed drifts on a scale of
  seconds, so set-ups are spread over the whole run like the ops are.
  Prints the end-to-end metrics: setup_s (median over all workers),
  work_per_s (median over all ops) and peak_rss_mb (median over the
  measuring workers of ru_maxrss after their first op).
- --trace 1: one worker that alternates untraced and traced ops for
  --seconds.  Prints the per-layer metrics (see tracing.py).

Every op's outputs are checked (workloads.py); an op that fails a check
counts in "failed" and does not stop the run.  The last stdout line is
the JSON result; the lines before it carry machine facts and details.
A full record goes to .perfbench/results/ in the repository root.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC_PKG = os.path.join(ROOT, "src", "htclip")
STATE = os.path.join(ROOT, ".perfbench")

ROUNDS = 4
SETUPS_PER_ROUND = 2
SETUP_TIMEOUT_S = 60
# a worker may finish its last op past its --seconds; the longest ops
# (verify-clip) take about 10 s, so this leaves room for a few
OVERRUN_S = 30

# the workloads and metrics are those BENCHMARK.json lists
with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    _SPEC = json.load(fh)
WORKLOADS = tuple(w["name"] for w in _SPEC["workloads"])
END_TO_END = tuple((m["name"], m["unit"], m["better"]) for m in _SPEC["end_to_end"])
PER_LAYER = tuple((m["name"], m["unit"], m["better"]) for m in _SPEC["per_layer"])

# metric suffix -> (summary field, divide by trial steps)
_SPAN_FIELDS = {
    ".calls": ("calls", False),
    ".s": ("s", False),
    ".self_s": ("self_s", False),
    ".ns_per_trial_step": ("s", True),
    ".self_ns_per_trial_step": ("self_s", True),
}


def source_hash() -> str:
    h = hashlib.sha256()
    for name in sorted(os.listdir(SRC_PKG)):
        if name.endswith(".py"):
            h.update(name.encode() + b"\0")
            with open(os.path.join(SRC_PKG, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def machine_facts() -> dict:
    import numpy

    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "htclip_src_sha256": source_hash(),
        "controlled": "CPU frequency and core isolation are not controlled",
    }


def spawn(mode: str, args, workdir: str, timeout: float, seconds=None,
          spans=None) -> dict:
    result = os.path.join(workdir, f"result-{mode}.json")
    if os.path.exists(result):
        os.unlink(result)
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--mode", mode, "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(seconds or args.seconds), "--result", result,
    ]
    if spans:
        cmd += ["--spans", spans]
    cmd += ["--spawn-ns", str(time.clock_gettime_ns(time.CLOCK_MONOTONIC))]
    proc = subprocess.run(
        cmd, cwd=workdir, capture_output=True, text=True, timeout=timeout
    )
    if proc.returncode != 0 or not os.path.exists(result):
        sys.stderr.write(proc.stdout + proc.stderr)
        raise RuntimeError(f"{mode} worker exited {proc.returncode}")
    with open(result) as fh:
        return json.load(fh)


def _good(ops: list) -> list:
    ok = [op for op in ops if not op["problems"]]
    return ok or ops


def end_to_end(setups: list, rounds: list) -> dict:
    ops = _good([op for r in rounds for op in r["ops"]])
    work = rounds[0]["work"]
    return {
        "setup_s": statistics.median(setups),
        "work_per_s": statistics.median(work / op["wall_s"] for op in ops),
        "peak_rss_mb": statistics.median(r["peak_rss_kb"] for r in rounds) / 1024.0,
    }


def merge_rounds(rounds: list) -> dict:
    """One result from the measuring workers, failing ops whose process
    produced other outputs than the first one did."""
    for r in rounds[1:]:
        if r["digest"] != rounds[0]["digest"]:
            for op in r["ops"]:
                op["problems"].append("outputs differ from the first process")
    return {**rounds[0], "ops": [op for r in rounds for op in r["ops"]]}


def per_layer(res: dict) -> dict:
    summaries = res["summaries"]
    probes = res["probes"][0]
    sizes = probes["algorithms.run_trials"]
    loop_steps = sum(T for T, _ in sizes)
    trial_steps = sum(T * rows for T, rows in sizes)
    untraced = _good(res["ops"])
    traced = _good(res["traced_ops"])
    wall_untraced = statistics.median(op["wall_s"] for op in untraced)
    all_ops = res["ops"] + res["traced_ops"]
    out = {
        "harness.cpu_util": statistics.median(
            op["cpu_s"] / op["wall_s"] for op in untraced
        ),
        "algorithms.mean_rows": (
            statistics.mean(rows for _, rows in sizes) if sizes else 0.0
        ),
        "algorithms.loop_steps_per_trial_step": (
            loop_steps / trial_steps if trial_steps else 0.0
        ),
        "clipping.pass2_bytes": max(probes["clipping.clip_error_mc"], default=0),
        "trace.wall_s": statistics.median(s["wall_s"] for s in summaries),
        "trace.remainder_s": statistics.median(s["remainder_s"] for s in summaries),
        "trace.pool_wait_s": statistics.median(s["pool_wait_s"] for s in summaries),
        "trace.overhead_share": (
            statistics.median(op["wall_s"] for op in traced) / wall_untraced - 1.0
        ),
        "failed_share": sum(bool(op["problems"]) for op in all_ops) / len(all_ops),
    }
    for name, _, _ in PER_LAYER:
        if name in out:
            continue
        for suffix, (field, per_step) in _SPAN_FIELDS.items():
            if name.endswith(suffix):
                span = name[: -len(suffix)]
                break
        else:
            raise KeyError(f"no rule for per-layer metric {name}")
        if field == "calls":
            out[name] = summaries[0]["per_name"][span]["calls"]
            continue
        value = statistics.median(s["per_name"][span][field] for s in summaries)
        if per_step:
            value = value * 1e9 / trial_steps if trial_steps else 0.0
        out[name] = value
    return out


def trace_report(res: dict) -> dict:
    """Where the last traced op's time went, by layer, and its accounting."""
    s = res["summaries"][-1]
    busy = s["busy_s"]
    shares = {k: v / busy for k, v in s["layer_self_s"].items()}
    shares["bench"] = s["remainder_s"] / busy
    keys = (
        "wall_s", "main_self_s", "pool_wait_s", "remainder_s", "worker_busy_s",
        "worker_self_s", "busy_s", "spans",
    )
    top = sorted(
        ((k, v["self_s"]) for k, v in s["per_name"].items() if v["calls"]),
        key=lambda kv: -kv[1],
    )
    return {
        **{k: s[k] for k in keys},
        "layer_self_share": shares,
        "largest_layer": max(s["layer_self_s"], key=s["layer_self_s"].get),
        "top_self_s": dict(top[:6]),
    }


def details(res: dict) -> dict:
    ops = _good(res["ops"])
    walls = sorted(op["wall_s"] for op in ops)
    out = {
        "ops": len(res["ops"]),
        "op_wall_s": {
            "median": statistics.median(walls),
            "min": walls[0],
            "max": walls[-1],
        },
        "inputs": res["facts"],
    }
    if res["trial_steps"]:
        out["trial_steps_per_s"] = statistics.median(
            res["trial_steps"] / op["wall_s"] for op in ops
        )
    else:
        out["exact_states_per_s"] = statistics.median(
            res["facts"]["exact_states"] / op["split"]["exact_s"] for op in ops
        )
        out["mc_samples_per_s"] = statistics.median(
            res["facts"]["mc_samples"] / op["split"]["mc_s"] for op in ops
        )
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC_PKG, "__init__.py")):
        print(f"error: no htclip sources at {SRC_PKG}", file=sys.stderr)
        return 2
    if not args.seconds > 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2

    results_dir = os.path.join(STATE, "results")
    os.makedirs(results_dir, exist_ok=True)
    # one fixed working directory for every op of this invocation
    workdir = tempfile.mkdtemp(prefix="run-", dir=STATE)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        if args.trace:
            spans = os.path.join(results_dir, f"{tag}-spans.npz")
            res = spawn("trace", args, workdir,
                        SETUP_TIMEOUT_S + args.seconds + OVERRUN_S, spans=spans)
            metrics = per_layer(res)
            units = PER_LAYER
            extra = {"trace": trace_report(res)}
            ops = res["ops"] + res["traced_ops"]
        else:
            setups, rounds = [], []
            for _ in range(ROUNDS):
                setups += [
                    spawn("setup", args, workdir, SETUP_TIMEOUT_S)["setup_s"]
                    for _ in range(SETUPS_PER_ROUND)
                ]
                seconds = args.seconds / ROUNDS
                rounds.append(spawn("measure", args, workdir,
                                    SETUP_TIMEOUT_S + seconds + OVERRUN_S,
                                    seconds=seconds))
                setups.append(rounds[-1]["setup_s"])
            res = merge_rounds(rounds)
            metrics = end_to_end(setups, rounds)
            units = END_TO_END
            extra = {
                "setup_s_samples": setups,
                "peak_rss_mb_samples": [r["peak_rss_kb"] / 1024.0 for r in rounds],
            }
            ops = res["ops"]
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = [op["problems"] for op in ops if op["problems"]]
    for problems in failed[:3]:
        sys.stderr.write("op failed: " + "; ".join(problems) + "\n")
    result = {
        "correct": not failed,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {
            name: {"value": metrics[name], "unit": unit} for name, unit, _ in units
        },
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "facts": machine_facts(),
        "details": details(res),
        "op_walls_s": [op["wall_s"] for op in ops],
        **extra,
        "result": result,
    }
    with open(os.path.join(results_dir, f"{tag}.json"), "w") as fh:
        json.dump(record, fh, indent=1)
    print("facts " + json.dumps(record["facts"]))
    print("details " + json.dumps(record["details"]))
    if args.trace:
        print("trace " + json.dumps(extra["trace"]))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
