"""One fresh benchmark process: set up a workload, then run its ops.

Started by run.py, never by hand.  Modes:

- setup: import htclip, build the workload's inputs, report the set-up
  time (measured from the parent's spawn timestamp) and exit;
- measure: set up, then run untraced ops for --seconds;
- trace: set up, then alternate untraced and traced ops for --seconds
  (at least one of each).

A run stops before the next op (or pair) would end past --seconds,
judged by the duration of the last one; it runs at least one.

The result is one JSON document written to --result.  Ops that raise or
fail their checks are recorded as failed; they do not stop the run.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def _run_op(workload, tracer=None) -> dict:
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    try:
        result = tracer.run(workload.op) if tracer else workload.op()
        wall = time.perf_counter() - t0
        cpu = time.process_time() - cpu0
        problems = workload.check(result)
    except Exception:
        wall = time.perf_counter() - t0
        cpu = time.process_time() - cpu0
        problems = ["op raised:\n" + traceback.format_exc()]
    return {
        "wall_s": wall,
        "cpu_s": cpu,
        "problems": problems,
        "split": getattr(workload, "last_split", None),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--spawn-ns", type=int, required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--spans", help="save the last traced op's spans here (.npz)")
    args = ap.parse_args(argv)

    workdir = os.getcwd()
    sys.path.insert(0, SRC)
    import htclip

    if not os.path.abspath(htclip.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"imported htclip from {htclip.__file__}, not {SRC}")
    import workloads

    workload = workloads.setup(args.workload, args.seed, workdir)
    # CLOCK_MONOTONIC is shared by all processes of the machine, so the
    # parent's spawn stamp and this stamp are comparable
    setup_s = (time.clock_gettime_ns(time.CLOCK_MONOTONIC) - args.spawn_ns) * 1e-9
    out = {
        "setup_s": setup_s,
        "work": workload.work,
        "trial_steps": workload.trial_steps,
        "facts": workload.facts,
    }

    try:
        if args.mode != "setup":
            ops, traced = [], []
            summaries, probes = [], []
            tracer = None
            if args.mode == "trace":
                import numpy as np

                import tracing

                tracer = tracing.Tracer()
            start = now = time.perf_counter()
            while True:
                last = now
                ops.append(_run_op(workload))
                if len(ops) == 1:
                    # set-up plus one op; later ops only add allocator drift
                    out["peak_rss_kb"] = resource.getrusage(
                        resource.RUSAGE_SELF
                    ).ru_maxrss
                if tracer is not None:
                    op = _run_op(workload, tracer)
                    cols = tracer.as_arrays()
                    summary = tracing.summarize(cols, tracer.names)
                    probe = {k: list(v) for k, v in tracer.probes.items()}
                    if summaries and (
                        tracing.counts(summary) != tracing.counts(summaries[0])
                        or probe != probes[0]
                    ):
                        op["problems"].append("span counts differ between traced ops")
                    summaries.append(summary)
                    probes.append(probe)
                    traced.append(op)
                # stop before a further round would overrun --seconds
                now = time.perf_counter()
                if now + (now - last) - start > args.seconds:
                    break
            out["ops"] = ops
            out["digest"] = workload.digest()
            if tracer is not None:
                out["traced_ops"] = traced
                out["summaries"] = summaries
                out["probes"] = probes
                if args.spans:
                    np.savez_compressed(
                        args.spans, names=np.array(tracer.names), **cols
                    )
    finally:
        workload.close()
    with open(args.result, "w") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
