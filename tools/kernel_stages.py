"""Per-stage cost of the run_trials step loop, in ns per trial-step.

Runs rows through harness.run_experiment, single-threaded, with a
timing probe around each stage the step loop calls:

    draw        GradOracle.draw (the noise sub-chunk draws), and for
                hard-instance rows _Events.draw (the sub-chunk's
                nonzero states drawn as events and grouped by row)
    gradient    GradOracle.grad_rows (the gradient map), and for
                hard-instance rows _Events.subtract (the gradient rows
                of the rows with a nonzero state, subtracted from them;
                in a chunk that clips it holds their clip_rows calls,
                which clip times too, so kernel_self then reads low by
                those)
    pass        for hard-instance rows of a sub-chunk in which every
                running row's eta and tau hold (plain steps, mu = 0),
                _Events.plan: the rows' iterates computed event to
                event, which the step loop then writes where they change
                (its rounds' clip_rows calls are timed in clip too, so
                kernel_self then reads low by those)
    clip        clip_rows
    prox        the prox or stabilized prox step and its projection
    schedule    the per-chunk eta/tau fill and per-step lookups
    kernel_self run_trials minus the stages above: the averaging
                updates, finiteness checks and loop bookkeeping
    evaluation  eval_F_batch on the reported aggregates
    seeding     the shard's generators, built before run_trials:
                _seeding.default_rngs, or numpy.random.default_rng
                where htclip has no _seeding module

Each case is one problem at one dimension d and one starting width
(rows in the shard).  A width narrower than the horizon grid runs that
many rows of its longest horizon, so width 1 is the fixed cost of a
loop step.  The hard problem mirrors the rate-hard-cvx workload
(cvx-fano, d_star = 4 padded to d, horizons 256..2048, so the running
rows shrink as each horizon ends and rows carry their own M, y and
schedule), and the rate-hard-cvx case is that workload's own shape
(d = 4, horizons 256..4096, 200 trials, one shard); the ball problem
mirrors rate-stable-ball (stabilized cvx-ex-anytime under alpha-stable
noise, horizons 64..512); the gauss problem mirrors AC-08 (euclid-norm,
Gaussian noise with p = 2, cvx-ex-T, horizons 256..2048) at d = 4.
These run every row in one shard.  The
stable-ball case is the rate-stable-ball workload's own shape: d = 64,
128 trials of horizons 256..2048, which cross a noise chunk edge, cut
into shards of harness._shard_width rows (reported as "shards": each
shard's rows and the states S the kernel drew them at, as
algorithms._rows_sub_chunk gave it).  Stage times are the median over
--repeats runs, divided by the trial-steps the run takes (the sum of its
rows' horizons).  Each probe adds about 0.3 us per call, which the
stage it wraps absorbs.  "clip_rows_calls" counts a run's clip_rows
calls: one per loop step unless the kernel skips the clip for chunks
whose tau bounds every gradient row.  "draw_floor" is the time of the bare
generator calls the draws must make, one per row and draw: random for
hard-instance states (GradOracle.draw's, or HardInstance.sample_events's
where the kernel draws events), standard_normal for Gaussian ones, and
random and standard_exponential for alpha-stable ones, each into a
reused buffer of the draw's n * d doubles.  They are replayed on one
thread from the draws one untimed run makes, and timed as the median
over --repeats;
the gap from "draw" to it is what the draw adds to its random numbers.
"event_pass" counts, over one untimed run of a case whose kernel plans
sub-chunks, the _Events.plan calls ("plans"), those that declined
("declined"), and the rounds and iterate changes the plans made: a
growing count of rounds per plan means longer settle chains.
(A stable draw fills its rows on every core, so on several cores its
"draw" may fall below this sequential floor.)
Each problem and d run at several widths is also fitted, stage by
stage, as a fixed cost per loop step plus a cost per trial-step
("fits": "us_per_loop_step" and "ns_per_trial_step", least squares
over the widths; every width runs the same loop steps, its longest
horizon).  At the widest width, "ceiling" is how many times faster
run_trials, evaluation and seeding together would run without
run_trials' fixed cost and without seeding: their total over that total
less those two.
One more run of each case, untimed and without probes, runs under
tracemalloc and gives the case's peak traced memory ("peak_traced_mb",
in units of 2^20 bytes): the most that numpy and Python, on every
thread, held at once of what they allocated during that run.
"stable_transform" is the bare alpha-stable transform (noise._cms at
alpha = 1.8, beta = 0, the stable workloads' noise) on one block of
noise._BLOCK entries on the calling thread: the median ns per entry over
20 calls per --repeats, each on fresh angles and exponentials.

The probes wrap whichever of the step's call names the imported htclip
defines, so the same script times older and newer kernels:

    PYTHONPATH=src python tools/kernel_stages.py [--repeats 3] [--cases hard]

--cases picks one of hard, ball, gauss, stable-ball and rate-hard-cvx,
or all of them.

It prints one JSON object to stdout.  numpy only; not part of the tests.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import time
import tracemalloc
from contextlib import contextmanager
from typing import Optional

import numpy as np

from htclip import algorithms, hardness, harness, noise

try:
    from htclip import _seeding
except ImportError:  # an older htclip, which seeds each row by default_rng
    _seeding = None

WIDTHS = (1, 200, 1000)
# d = 8 is the narrowest row that row_norms reduces with np.add.reduce
DIMS = (4, 8, 64)
HARD_GRID = [256, 512, 1024, 2048]
BALL_GRID = [64, 128, 256, 512]
GAUSS_GRID = HARD_GRID
GAUSS_DIMS = (4,)
# the rate-stable-ball workload: d, horizons and trials
STABLE_BALL = (64, [256, 512, 1024, 2048], 128)
# the rate-hard-cvx workload: d, horizons and trials
RATE_HARD = (4, [256, 512, 1024, 2048, 4096], 200)

# stage -> names in htclip.algorithms's namespace the step loop calls
ALGORITHM_CALLS = {
    "clip": ("clip_rows",),
    # _prox_end is the shared tail; the older names time a parent tree
    "prox": (
        "prox_step",
        "stabilized_prox_step",
        "_prox_end",
        "_stabilized_base",
        "_project",
        "_prox_point",
        "_stabilized_point",
        "_prox_finish",
    ),
}
# stage -> (module, class, method) the step loop calls, where the
# module defines the class
METHOD_CALLS = {
    "draw": ((noise, "GradOracle", "draw"), (algorithms, "_Events", "draw")),
    "gradient": ((noise, "GradOracle", "grad_rows"), (algorithms, "_Events", "subtract")),
    "pass": ((algorithms, "_Events", "plan"),),
    "schedule": ((algorithms, "_Steps", "fill"), (algorithms, "_Steps", "at")),
}


def _grid(grid: list, width: int) -> dict:
    """T_grid and trials for width rows: the grid's trials, or width
    rows of its longest horizon when width is narrower than the grid."""
    if width < len(grid):
        return {"T_grid": grid[-1:], "trials": width}
    return {"T_grid": grid, "trials": width // len(grid)}


def hard_config(d: int, width: int, grid=HARD_GRID) -> dict:
    return {
        "problem": {"kind": "hard", "d": d, "G": 1.0, "D": 1.0},
        "noise": {"kind": "hard-instance", "p": 1.5, "sigma_s": 1.0, "sigma_l": 2.0},
        "schedule": {"regime": "cvx-ex-T"},
        "hardness": {"regime": "cvx-fano", "d_star": 4},
        "run": {**_grid(grid, width), "master_seed": 1},
    }


def ball_config(d: int, width: int, grid=BALL_GRID) -> dict:
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
        "run": {**_grid(grid, width), "master_seed": 1},
    }


def gauss_config(d: int, width: int) -> dict:
    return {
        "problem": {
            "kind": "euclid-norm",
            "d": d,
            "G": 1.0,
            "x1_mode": {"kind": "offset", "vector": [0.5] * d},
        },
        "noise": {"kind": "additive-gaussian", "p": 2.0, "scales": 0.25},
        "schedule": {"regime": "cvx-ex-T"},
        "run": {**_grid(GAUSS_GRID, width), "master_seed": 1},
    }


def stable_ball_config(d: int, width: int) -> dict:
    return ball_config(d, width, STABLE_BALL[1])


def rate_hard_config(d: int, width: int) -> dict:
    return hard_config(d, width, RATE_HARD[1])


BUILDERS = {
    "hard": hard_config,
    "ball": ball_config,
    "gauss": gauss_config,
    "stable-ball": stable_ball_config,
    "rate-hard-cvx": rate_hard_config,
}


class _Probes:
    """Timing wrappers around the step loop's calls; spent[stage] in ns,
    calls[stage] the calls made."""

    def __init__(self):
        self.spent = {}
        self.calls = {}
        self._undo = []

    def _wrap(self, stage: str, fn):
        spent, calls = self.spent, self.calls
        spent.setdefault(stage, 0)
        calls.setdefault(stage, 0)
        clock = time.perf_counter_ns

        def timed(*args, **kwargs):
            calls[stage] += 1
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
            for stage, calls in METHOD_CALLS.items():
                for module, cls, name in calls:
                    if name in vars(vars(module).get(cls, object)):
                        self._patch(vars(module)[cls], name, stage)
            if _seeding is None:
                self._patch(np.random, "default_rng", "seeding")
            else:
                self._patch(_seeding, "default_rngs", "seeding")
            self._patch(harness, "run_trials", "run_trials")
            self._patch(harness, "eval_F_batch", "evaluation")
            yield self
        finally:
            for owner, name, fn in reversed(self._undo):
                setattr(owner, name, fn)
            self._undo.clear()


def _draw_calls(config) -> list:
    """(oracle kind, n, rows, d) of each GradOracle.draw and
    HardInstance.sample_events call one run makes."""
    calls = []
    draw = noise.GradOracle.draw
    events = vars(hardness.HardInstance).get("sample_events")

    def noted(self, rng, n, out=None):
        calls.append((self.kind, n, 1 if out is None else len(rng), self.d))
        return draw(self, rng, n, out)

    def noted_events(self, rngs, n):
        calls.append(("hard-instance", n, len(rngs), self.d))
        return events(self, rngs, n)

    noise.GradOracle.draw = noted
    if events is not None:
        hardness.HardInstance.sample_events = noted_events
    try:
        harness.run_experiment(config)
    finally:
        noise.GradOracle.draw = draw
        if events is not None:
            hardness.HardInstance.sample_events = events
    return calls


def _draw_floor_ns(calls: list, repeats: int) -> float:
    """Median ns of the bare generator calls that the draws in calls make."""
    rng = np.random.default_rng(0)
    buf = np.empty(max((n * d for _, n, _, d in calls), default=0))
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter_ns()
        for kind, n, rows, d in calls:
            part = buf[: n * d]
            for _ in range(rows):
                if kind == "additive-gaussian":
                    rng.standard_normal(out=part)
                elif kind != "deterministic":
                    rng.random(out=part)
                    if kind == "additive-stable":
                        rng.standard_exponential(out=part)
        times.append(time.perf_counter_ns() - t0)
    return statistics.median(times)


def _transform_ns(repeats: int) -> dict:
    """Median ns per entry of noise._cms at alpha = 1.8, beta = 0 on
    noise._BLOCK entries, on this thread (see the module docstring)."""
    rng = np.random.default_rng(0)
    n = noise._BLOCK
    phi0 = rng.uniform(-np.pi / 2.0, np.pi / 2.0, n)
    w0 = rng.standard_exponential(n)
    phi, w = np.empty(n), np.empty(n)
    params = noise.StableParams(1.8)
    times = []
    for _ in range(20 * max(repeats, 1)):
        phi[:] = phi0
        w[:] = w0
        t0 = time.perf_counter_ns()
        noise._cms(params, phi, w, phi)
        times.append(time.perf_counter_ns() - t0)
    return {"alpha": 1.8, "beta": 0.0, "entries": n,
            "ns_per_entry": statistics.median(times) / n}


def _event_pass(config) -> Optional[dict]:
    """Counts of the _Events.plan calls one run makes (see the module
    docstring), or None where the kernel makes none."""
    plan = vars(algorithms).get("_Events") and vars(algorithms._Events).get("plan")
    if plan is None:
        return None
    made = []

    def noted(self, *args):
        made.append(plan(self, *args))
        return made[-1]

    algorithms._Events.plan = noted
    try:
        harness.run_experiment(config)
    finally:
        algorithms._Events.plan = plan
    if not made:
        return None
    done = [p for p in made if p is not None]
    return {
        "plans": len(made),
        "declined": len(made) - len(done),
        "rounds": sum(p.rounds for p in done),
        "changes": sum(len(p.rows) for p in done),
    }


@contextmanager
def _one_shard(width: int):
    """Make run_experiment put every row in one shard of width rows."""
    saved = harness._shard_width
    harness._shard_width = lambda oracle, rows: width
    try:
        yield
    finally:
        harness._shard_width = saved


@contextmanager
def _shard_widths(widths: list):
    """Note the rows of each shard the kernel runs, with the states S it
    draws them at, as algorithms._rows_sub_chunk gives it."""
    saved = algorithms._rows_sub_chunk

    def noted(oracle, rows):
        sub = saved(oracle, rows)
        widths.append([rows, sub])
        return sub

    algorithms._rows_sub_chunk = noted
    try:
        yield
    finally:
        algorithms._rows_sub_chunk = saved


def run_case(problem: str, d: int, width: int, repeats: int) -> dict:
    config = harness.parse_config(BUILDERS[problem](d, width))
    run = config.run
    rows = run["trials"] * len(run["T_grid"])
    trial_steps = run["trials"] * sum(run["T_grid"])
    samples = []
    shards = []
    own = problem == "stable-ball"
    with _shard_widths(shards) if own else _one_shard(rows):
        harness.run_experiment(config)  # warm caches and lazy set-up
        planned = list(shards)
        for _ in range(repeats):
            probes = _Probes()
            with probes.installed():
                harness.run_experiment(config)
            spent = dict(probes.spent)
            inner = sum(
                v for k, v in spent.items() if k not in ("run_trials", "evaluation", "seeding")
            )
            spent["kernel_self"] = spent["run_trials"] - inner
            samples.append(spent)
            clip_calls = probes.calls.get("clip", 0)
        floor = _draw_floor_ns(_draw_calls(config), repeats)
        event_pass = _event_pass(config)
        tracemalloc.start()
        try:
            harness.run_experiment(config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    order = ("draw", "gradient", "pass", "clip", "prox", "schedule", "kernel_self",
             "run_trials", "evaluation", "seeding")
    per_step = {
        k: round(statistics.median(s.get(k, 0) for s in samples) / trial_steps, 1)
        for k in order
    }
    per_step["draw_floor"] = round(floor / trial_steps, 1)
    case = {
        "problem": problem,
        "d": d,
        "width": rows,
        "loop_steps": max(run["T_grid"]),
        "trial_steps": trial_steps,
        "ns_per_trial_step": per_step,
        "clip_rows_calls": clip_calls,
        "peak_traced_mb": round(peak / 2**20, 2),
    }
    if event_pass is not None:
        case["event_pass"] = event_pass
    if own:
        case["shards"] = planned
    return case


CASES = {
    "hard": [("hard", d, w) for d in DIMS for w in WIDTHS],
    "ball": [("ball", d, w) for d in DIMS for w in WIDTHS],
    "gauss": [("gauss", d, w) for d in GAUSS_DIMS for w in WIDTHS],
    "stable-ball": [("stable-ball", STABLE_BALL[0], STABLE_BALL[2] * len(STABLE_BALL[1]))],
    "rate-hard-cvx": [
        ("rate-hard-cvx", RATE_HARD[0], w) for w in (1, 200, RATE_HARD[2] * len(RATE_HARD[1]))
    ],
}
# the stages whose times add up to a run's
TOTAL = ("run_trials", "evaluation", "seeding")


def fit(cases: list) -> dict:
    """The fixed cost per loop step and the cost per trial-step of each
    stage of one problem and d run at several widths, and the ceiling at
    the widest."""
    loop = [c["loop_steps"] for c in cases]
    trial = [c["trial_steps"] for c in cases]
    design = np.array([loop, trial], dtype=float).T
    out = {"problem": cases[0]["problem"], "d": cases[0]["d"],
           "widths": [c["width"] for c in cases], "stages": {}}
    for stage in cases[0]["ns_per_trial_step"]:
        total = [c["ns_per_trial_step"][stage] * c["trial_steps"] for c in cases]
        (fixed, per), *_ = np.linalg.lstsq(design, np.array(total), rcond=None)
        out["stages"][stage] = {
            "us_per_loop_step": round(fixed / 1e3, 3), "ns_per_trial_step": round(per, 1)
        }
    wide = max(cases, key=lambda c: c["width"])
    ns = wide["ns_per_trial_step"]
    total = sum(ns[k] for k in TOTAL) * wide["trial_steps"]
    fixed = out["stages"]["run_trials"]["us_per_loop_step"] * 1e3 * wide["loop_steps"]
    removable = fixed + ns["seeding"] * wide["trial_steps"]
    out["ceiling"] = {
        "width": wide["width"],
        "total_ms": round(total / 1e6, 2),
        "fixed_ms": round(fixed / 1e6, 2),
        "seeding_ms": round(ns["seeding"] * wide["trial_steps"] / 1e6, 2),
        "ceiling": round(total / (total - removable), 3),
    }
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repeats", type=int, default=3)
    ap.add_argument("--cases", choices=(*CASES, "all"), default="all")
    args = ap.parse_args(argv)
    names = list(CASES) if args.cases == "all" else [args.cases]
    cases = [
        run_case(problem, d, width, args.repeats)
        for name in names
        for problem, d, width in CASES[name]
    ]
    groups = {}
    for case in cases:
        if "shards" not in case:
            groups.setdefault((case["problem"], case["d"]), []).append(case)
    report = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "repeats": args.repeats,
        "stable_transform": _transform_ns(args.repeats),
        "cases": cases,
        "fits": [fit(group) for group in groups.values() if len(group) > 1],
    }
    print(json.dumps(report, indent=1))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
