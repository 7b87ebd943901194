"""Per-stage cost of the run_trials step loop, in ns per trial-step.

Runs one shard of rows through harness.run_experiment, single-threaded,
with a timing probe around each stage the step loop calls:

    draw        GradOracle.draw (the noise chunk prefetch)
    gradient    GradOracle.grad_rows (the gradient map)
    clip        clip_rows
    prox        the prox or stabilized prox step and its projection
    schedule    the per-chunk eta/tau fill and per-step lookups
    kernel_self run_trials minus the stages above: the averaging
                updates, finiteness checks and loop bookkeeping
    evaluation  eval_F_batch on the reported aggregates

Each case is one problem at one dimension d and one starting width
(rows in the shard).  The hard problem mirrors the rate-hard-cvx
workload (cvx-fano, d_star = 4 padded to d, horizons 256..2048, so the
running rows shrink as each horizon ends and rows carry their own M, y
and schedule); the ball problem mirrors rate-stable-ball (stabilized
cvx-ex-anytime under alpha-stable noise, horizons 64..512).  Stage
times are the median over --repeats runs, divided by the trial-steps
the shard runs (the sum of its rows' horizons).  Each probe adds about
0.3 us per call, which the stage it wraps absorbs.

The probes wrap whichever of the step's call names the imported htclip
defines, so the same script times older and newer kernels:

    PYTHONPATH=src python tools/kernel_stages.py [--repeats 3] [--cases hard]

It prints one JSON object to stdout.  numpy only; not part of the tests.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import time
from contextlib import contextmanager

import numpy as np

from htclip import algorithms, harness, noise

WIDTHS = (200, 1000)
# d = 8 is the narrowest row that row_norms reduces with np.add.reduce
DIMS = (4, 8, 64)
HARD_GRID = [256, 512, 1024, 2048]
BALL_GRID = [64, 128, 256, 512]

# stage -> names in htclip.algorithms's namespace the step loop calls
ALGORITHM_CALLS = {
    "clip": ("clip_rows",),
    "prox": (
        "prox_step",
        "stabilized_prox_step",
        "_project",
        "_prox_point",
        "_stabilized_point",
    ),
}
# stage -> (class, method) pairs the step loop calls
METHOD_CALLS = {
    "draw": ((noise.GradOracle, "draw"),),
    "gradient": ((noise.GradOracle, "grad_rows"),),
    "schedule": ((algorithms._Steps, "fill"), (algorithms._Steps, "at")),
}


def hard_config(d: int, width: int) -> dict:
    return {
        "problem": {"kind": "hard", "d": d, "G": 1.0, "D": 1.0},
        "noise": {"kind": "hard-instance", "p": 1.5, "sigma_s": 1.0, "sigma_l": 2.0},
        "schedule": {"regime": "cvx-ex-T"},
        "hardness": {"regime": "cvx-fano", "d_star": 4},
        "run": {
            "T_grid": HARD_GRID,
            "trials": width // len(HARD_GRID),
            "master_seed": 1,
        },
    }


def ball_config(d: int, width: int) -> dict:
    return {
        "problem": {
            "kind": "euclid-norm",
            "d": d,
            "G": 1.0,
            "domain": {"kind": "ball", "radius": 2.0},
            "x1_mode": {"kind": "offset", "vector": [0.1] * d},
        },
        "noise": {
            "kind": "additive-stable",
            "p": 1.5,
            "scales": 0.05,
            "stable": {"alpha": 1.8},
        },
        "schedule": {"regime": "cvx-ex-anytime"},
        "run": {
            "T_grid": BALL_GRID,
            "trials": width // len(BALL_GRID),
            "master_seed": 1,
        },
    }


class _Probes:
    """Timing wrappers around the step loop's calls; spent[stage] in ns."""

    def __init__(self):
        self.spent = {}
        self._undo = []

    def _wrap(self, stage: str, fn):
        spent = self.spent
        spent.setdefault(stage, 0)
        clock = time.perf_counter_ns

        def timed(*args, **kwargs):
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                spent[stage] += clock() - t0

        return timed

    def _patch(self, owner, name: str, stage: str) -> None:
        fn = owner.__dict__[name]
        setattr(owner, name, self._wrap(stage, fn))
        self._undo.append((owner, name, fn))

    @contextmanager
    def installed(self):
        try:
            for stage, names in ALGORITHM_CALLS.items():
                for name in names:
                    if name in vars(algorithms):
                        self._patch(algorithms, name, stage)
            for stage, pairs in METHOD_CALLS.items():
                for cls, name in pairs:
                    self._patch(cls, name, stage)
            self._patch(harness, "run_trials", "run_trials")
            self._patch(harness, "eval_F_batch", "evaluation")
            yield self
        finally:
            for owner, name, fn in reversed(self._undo):
                setattr(owner, name, fn)
            self._undo.clear()


@contextmanager
def _one_shard(width: int):
    """Make run_experiment put every row in one shard of width rows."""
    saved = harness._shard_width
    harness._shard_width = lambda d, itemsize: width
    try:
        yield
    finally:
        harness._shard_width = saved


def run_case(problem: str, d: int, width: int, repeats: int) -> dict:
    build = hard_config if problem == "hard" else ball_config
    config = harness.parse_config(build(d, width))
    run = config.run
    rows = run["trials"] * len(run["T_grid"])
    trial_steps = run["trials"] * sum(run["T_grid"])
    samples = []
    with _one_shard(rows):
        harness.run_experiment(config)  # warm caches and lazy set-up
        for _ in range(repeats):
            probes = _Probes()
            with probes.installed():
                harness.run_experiment(config)
            spent = dict(probes.spent)
            inner = sum(v for k, v in spent.items() if k not in ("run_trials", "evaluation"))
            spent["kernel_self"] = spent["run_trials"] - inner
            samples.append(spent)
    order = ("draw", "gradient", "clip", "prox", "schedule", "kernel_self",
             "run_trials", "evaluation")
    return {
        "problem": problem,
        "d": d,
        "width": rows,
        "trial_steps": trial_steps,
        "ns_per_trial_step": {
            k: round(statistics.median(s[k] for s in samples) / trial_steps, 1)
            for k in order
        },
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repeats", type=int, default=3)
    ap.add_argument("--cases", choices=("hard", "ball", "all"), default="all")
    args = ap.parse_args(argv)
    problems = ("hard", "ball") if args.cases == "all" else (args.cases,)
    cases = [
        run_case(problem, d, width, args.repeats)
        for problem in problems
        for d in DIMS
        for width in WIDTHS
    ]
    report = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "repeats": args.repeats,
        "cases": cases,
    }
    print(json.dumps(report, indent=1))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
