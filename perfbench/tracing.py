"""Span tracing of htclip from outside the library.

Each target below is a public function or method rebound, while a traced
op runs, at the name its caller looks up (a module global or a class
attribute).  The wrapper records one span per call: (id, name, start,
end, parent id, thread).  The parent is the innermost open span of the
same thread, kept on a thread-local stack; a span opened on a worker
thread with an empty stack is a root of that thread.  Spans stay in
memory and are summarized (and optionally saved) after the op.

A span's self time is its duration minus the durations of its child
spans.  The benchmark opens a root span "bench.op" around every traced
op on the calling thread, so on that thread the self times of all spans,
plus the time spent waiting for the harness thread pool, add up to the
op's wall time exactly; "bench.op" self time is the part of the op spent
outside every traced layer.  Worker threads add their own roots, so
layer totals are in busy thread seconds.
"""

from __future__ import annotations

import importlib
import itertools
import threading
import time

import numpy as np

# (owner, attribute, span name).  owner is "module" or "module:Class";
# the span name is the defining module plus the qualified function name.
TARGETS = (
    ("htclip.cli", "main", "cli.main"),
    ("htclip.cli", "parse_config", "harness.parse_config"),
    ("htclip.cli", "run_experiment", "harness.run_experiment"),
    ("htclip.cli", "persist", "harness.persist"),
    ("htclip.harness", "run_trials", "algorithms.run_trials"),
    ("htclip.harness", "make_hard_instance", "hardness.make_hard_instance"),
    ("htclip.harness", "make_schedule", "schedules.make_schedule"),
    ("htclip.harness", "eval_F_batch", "problems.eval_F_batch"),
    ("htclip.algorithms", "prox_step", "problems.prox_step"),
    ("htclip.algorithms", "stabilized_prox_step", "problems.stabilized_prox_step"),
    ("htclip.algorithms", "eval_F_batch", "problems.eval_F_batch"),
    ("htclip.problems", "prox_step", "problems.prox_step"),
    ("htclip.noise:GradOracle", "draw", "noise.GradOracle.draw"),
    ("htclip.noise:GradOracle", "grad_rows", "noise.GradOracle.grad_rows"),
    ("htclip.noise", "sample_alpha_stable", "noise.sample_alpha_stable"),
    ("htclip.noise", "subgrad_f_batch", "problems.subgrad_f_batch"),
    ("htclip.hardness:HardInstance", "sample_xi", "hardness.HardInstance.sample_xi"),
    ("htclip.hardness:HardInstance", "grad_rows", "hardness.HardInstance.grad_rows"),
    ("htclip.hardness:HardInstance", "support", "hardness.HardInstance.support"),
    ("htclip.schedules:Schedule", "eta", "schedules.Schedule.eta"),
    ("htclip.schedules:Schedule", "tau", "schedules.Schedule.tau"),
    ("htclip.clipping", "clip_error_exact", "clipping.clip_error_exact"),
    ("htclip.clipping", "clip_error_mc", "clipping.clip_error_mc"),
    ("htclip.clipping", "clip_batch", "clipping.clip_batch"),
    ("htclip.clipping", "operator_norm", "clipping.operator_norm"),
)

ROOT = "bench.op"
LAYERS = (
    "cli", "harness", "algorithms", "noise", "hardness", "problems",
    "schedules", "clipping",
)


def _run_trials_size(args, kwargs):
    # run_trials(objective, oracle, schedule, T, x_1, rngs, ...)
    T = kwargs["T"] if "T" in kwargs else args[3]
    rngs = kwargs["rngs"] if "rngs" in kwargs else args[5]
    return int(T), len(rngs)


def _mc_pass2_bytes(args, kwargs):
    # clip_error_mc(oracle, x, tau, alpha, n_samples, ...) holds n * d
    # float64 pass-2 rows at once
    oracle = args[0]
    n = kwargs["n_samples"] if "n_samples" in kwargs else args[4]
    return int(n) * int(oracle.d) * 8


# argument facts recorded per call, next to the span, for these names
ARG_PROBES = {
    "algorithms.run_trials": _run_trials_size,
    "clipping.clip_error_mc": _mc_pass2_bytes,
}


def _owner(spec: str):
    mod_name, _, cls_name = spec.partition(":")
    obj = importlib.import_module(mod_name)
    return getattr(obj, cls_name) if cls_name else obj


class _ThreadStack(threading.local):
    """Per-thread stack of open span ids, plus a small thread number."""

    def __init__(self, numbers):
        self.stack = []
        self.thread = next(numbers)


class Tracer:
    """Collects spans for one op; install() rebinds, uninstall() restores."""

    def __init__(self):
        self.names = [ROOT] + sorted({name for _, _, name in TARGETS})
        self._index = {name: i for i, name in enumerate(self.names)}
        self._saved = []
        self.reset()

    def reset(self) -> None:
        self.spans = []
        self.probes = {name: [] for name in ARG_PROBES}
        self._ids = itertools.count()
        self._local = _ThreadStack(itertools.count())

    def _wrap(self, fn, name_idx: int):
        spans = self.spans
        ids = self._ids
        local = self._local
        clock = time.perf_counter_ns
        name = self.names[name_idx]
        probe = ARG_PROBES.get(name)
        probed = self.probes.get(name)

        def traced(*args, **kwargs):
            if probe is not None:
                probed.append(probe(args, kwargs))
            stack = local.stack
            sid = next(ids)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans.append((sid, name_idx, t0, t1, parent, local.thread))

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer is already installed")
        for owner_spec, attr, name in TARGETS:
            owner = _owner(owner_spec)
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, self._index[name]))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def run(self, op):
        """Run op() under a fresh span set with the wrappers installed."""
        self.reset()
        self.install()
        try:
            return self._wrap(op, 0)()
        finally:
            self.uninstall()

    def as_arrays(self) -> dict:
        """Spans as columns, ordered by span id."""
        if not self.spans:
            raise ValueError("no spans recorded")
        arr = np.array(sorted(self.spans), dtype=np.int64)
        sid, name, t0, t1, parent, thread = arr.T
        if not np.array_equal(sid, np.arange(sid.size)):
            raise ValueError("span ids are not contiguous")
        return {
            "id": sid, "name": name, "start_ns": t0, "end_ns": t1,
            "parent": parent, "thread": thread,
        }


def counts(summary: dict) -> dict:
    """Calls per span name; a deterministic op repeats them exactly."""
    return {name: row["calls"] for name, row in summary["per_name"].items()}


def _union_ns(start: np.ndarray, end: np.ndarray) -> float:
    """Total length covered by the intervals [start, end)."""
    if start.size == 0:
        return 0.0
    order = np.argsort(start, kind="stable")
    start, end = start[order], end[order]
    reach = np.maximum.accumulate(end)
    first = np.flatnonzero(np.r_[True, start[1:] > reach[:-1]])
    return float(np.add.reduce(np.maximum.reduceat(end, first) - start[first]))


def summarize(cols: dict, names) -> dict:
    """Per-name calls, inclusive and self seconds, and wall accounting.

    While pool workers run, the calling thread only waits inside
    harness.run_experiment; that time (the union of the worker root
    spans) is taken out of run_experiment's self time and reported as
    pool_wait_s, so self times count busy thread time only.
    """
    dur = (cols["end_ns"] - cols["start_ns"]).astype(np.float64)
    parent = cols["parent"]
    has_parent = parent >= 0
    child = np.bincount(
        parent[has_parent], weights=dur[has_parent], minlength=dur.size
    )
    self_ns = dur - child
    name = cols["name"]
    root = np.flatnonzero(name == 0)
    if root.size != 1 or parent[root[0]] != -1:
        raise ValueError("expected exactly one bench.op root span")
    main = cols["thread"] == cols["thread"][root[0]]
    worker_roots = ~main & ~has_parent
    wait_ns = _union_ns(cols["start_ns"][worker_roots], cols["end_ns"][worker_roots])
    k = len(names)
    calls = np.bincount(name, minlength=k)
    incl = np.bincount(name, weights=dur, minlength=k)
    excl = np.bincount(name, weights=self_ns, minlength=k)
    if wait_ns:
        excl[names.index("harness.run_experiment")] -= wait_ns
    per_name = {
        names[i]: {
            "calls": int(calls[i]),
            "s": float(incl[i]) * 1e-9,
            "self_s": float(excl[i]) * 1e-9,
        }
        for i in range(k)
    }
    by_layer = {layer: 0.0 for layer in LAYERS}
    for n, row in per_name.items():
        layer = n.split(".", 1)[0]
        if layer in by_layer:
            by_layer[layer] += row["self_s"]
    return {
        "per_name": per_name,
        "wall_s": float(dur[root[0]]) * 1e-9,
        # calling thread: its self times plus pool_wait_s add up to wall_s
        "main_self_s": (float(np.add.reduce(self_ns[main])) - wait_ns) * 1e-9,
        "pool_wait_s": wait_ns * 1e-9,
        "remainder_s": per_name[ROOT]["self_s"],
        # worker threads: their self times add up to their root spans
        "worker_busy_s": float(np.add.reduce(dur[worker_roots])) * 1e-9,
        "worker_self_s": float(np.add.reduce(self_ns[~main])) * 1e-9,
        "busy_s": (float(np.add.reduce(self_ns)) - wait_ns) * 1e-9,
        "layer_self_s": by_layer,
        "spans": int(dur.size),
    }
