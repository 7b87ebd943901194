"""Clipped and stabilized clipped proximal subgradient runs.

Both methods iterate, from x_1 in the domain,

    g_t   = oracle draw at x_t, clipped to norm tau_t,
    x_{t+1} = prox step from x_t with step eta_t        (clipped)
    x_{t+1} = stabilized prox step with anchor x_1       (stabilized)

for t = 1..T, and report the plain average (1/T) sum x_{t+1}, the
weighted average with weights (t+4)(t+5), and the last iterate.  The
stabilized variant requires mu = 0 and a nonincreasing step schedule.

The single-run and multi-trial entry points share one batched kernel in
which every per-iterate operation is elementwise along rows, so a
trial's trajectory is bit-identical no matter how many trials share the
batch.  Both return a BatchResult, whose fields are per-trial rows from
run_trials and vectors from a single run.  The clip is _util.clip_rows,
the routine clip_batch and ball projection also call; the mask it
returns counts the clip events.

The trials of one batch may differ in horizon, oracle and schedule.
Rows come longest horizon first, so the rows still running at step t
are a prefix that shrinks as each horizon ends; a finished row keeps its
last iterate, averages and clip count at its own horizon.  Each row's
eta_t and tau_t come from its own schedule, and hard-instance rows of
different horizons or codewords map gradients with per-row M and y.

Oracle noise is prefetched in fixed chunks of NOISE_CHUNK states per
trial, which pins each trial's consumption of its own rng stream.  Only
the states a row runs are made: a chunk drawn at step t draws the random
numbers of all NOISE_CHUNK states but makes only the first
min(horizon + 1 - t, NOISE_CHUNK) of them (for alpha-stable noise, by a
transform split across cores), straight into one (min(T, NOISE_CHUNK),
trials, d) buffer of the oracle's state dtype, allocated once per run,
so a step reads its states as one contiguous block.  Iterates are
checked for finiteness at every chunk boundary and at each horizon, not
at every step: a coordinate that turns non-finite stays non-finite under
the prox maps (they are linear in x, and projection onto a ball maps it
to nan), so a blow-up anywhere inside a chunk is still reported.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

import numpy as np

from ._util import clip_rows, finite_row_norms
from .noise import GradOracle, _busy_core
from .problems import (
    CompositeObjective,
    eval_F_batch,
    project,
    prox_step,
    stabilized_prox_step,
)
from .schedules import Schedule, weighted_avg_weight

__all__ = [
    "NOISE_CHUNK",
    "Checkpoint",
    "BatchResult",
    "checkpoint_times",
    "run_clipped_sgd",
    "run_stabilized_clipped_sgd",
    "run_trials",
    "average",
    "suboptimality_series",
    "SeriesPoint",
]

# per-trial noise states drawn per prefetch; fixed so streams never depend
# on T, batch size, or thread count
NOISE_CHUNK = 1024


@dataclass(frozen=True)
class Checkpoint:
    """Snapshot after t steps: per-trial rows in a batch, vectors in a single run."""

    t: int
    x_last: np.ndarray
    avg_plain: np.ndarray
    avg_weighted: np.ndarray
    clip_events: object


@dataclass(frozen=True)
class BatchResult:
    """Result of a run after T steps; checkpoints always include t = T.

    Fields are per-trial rows from run_trials and vectors (clip_events
    an int) from a single run.  With per-trial horizons, T is the
    longest and each row holds its trial at its own horizon.
    """

    T: int
    x_last: np.ndarray
    avg_plain: np.ndarray
    avg_weighted: np.ndarray
    clip_events: object
    checkpoints: list = field(default_factory=list)


def checkpoint_times(T: int, stride) -> list:
    """Recording times in 1..T; always contains T.

    stride may be a positive int (arithmetic grid) or "geometric[:R]"
    with ratio R > 1 (default 2), giving 1, ~R, ~R^2, ..., T.
    """
    T = int(T)
    if T < 1:
        raise ValueError("horizon T must be a positive integer")
    if isinstance(stride, str):
        name, _, ratio_s = stride.partition(":")
        if name != "geometric":
            raise ValueError(f"unknown record stride {stride!r}")
        ratio = float(ratio_s) if ratio_s else 2.0
        if not (ratio > 1.0):
            raise ValueError("geometric stride ratio must exceed 1")
        times = []
        t = 1
        while t < T:
            times.append(t)
            t = max(t + 1, int(math.floor(t * ratio + 1e-9)))
        times.append(T)
        return times
    k = int(stride)
    if k < 1:
        raise ValueError("record stride must be a positive integer")
    times = list(range(k, T + 1, k))
    if not times or times[-1] != T:
        times.append(T)
    return times


def _check_start(objective: CompositeObjective, x_1, name: str = "x_1") -> np.ndarray:
    """x_1 as a float vector in objective's domain; errors call it name."""
    x = np.asarray(x_1, dtype=float)
    if x.shape != (objective.d,):
        raise ValueError(f"{name} must be a vector of dimension {objective.d}")
    proj = project(objective.domain, x)
    gap = float(finite_row_norms(proj - x))
    if gap > 1e-12 * (1.0 + float(finite_row_norms(x))):
        raise ValueError(f"{name} lies outside the domain")
    return x


def _check_finite(x: np.ndarray, t: int) -> None:
    if not np.all(np.isfinite(x)):
        raise FloatingPointError(f"non-finite iterate by step t={t}")


def _per_trial(value, n: int, name: str) -> list:
    """value for each of n trials: a list or tuple of n, or one for all."""
    if isinstance(value, (list, tuple)):
        if len(value) != n:
            raise ValueError(f"need one {name} per trial generator, got {len(value)}")
        return list(value)
    return [value] * n


def _same_prox(a: CompositeObjective, b: CompositeObjective) -> bool:
    """Whether a and b share a domain and regularizer, all a prox step reads."""
    if a is b:
        return True
    da, db = a.domain, b.domain
    return (
        type(da) is type(db)
        and a.d == b.d
        and a.mu == b.mu
        and getattr(da, "radius", None) == getattr(db, "radius", None)
        and np.array_equal(getattr(da, "center", ()), getattr(db, "center", ()))
        and (a.r is None or np.array_equal(a.r.center, b.r.center))
    )


class _Steps:
    """eta_t, eta_{t+1} and tau_t of the running rows, a noise chunk at a time.

    Each distinct schedule's scalar eta and tau are called for every step
    of a chunk when the chunk is drawn, so the values are the ones a call
    per step returns.  With one schedule they stay Python floats.  With
    several, each row takes its own schedule's value: eta as (k, d) tiles
    for the prox steps, tau as a (k,) vector for the clip, rebuilt only
    when a value or the number k of running rows changes.
    """

    def __init__(self, schedules, horizons, d: int, stabilized: bool):
        # schedules equal in value are one; the first row of each has its
        # longest horizon, as rows come longest horizon first
        self.distinct, self.last, index = [], [], []
        for i, (s, h) in enumerate(zip(schedules, horizons)):
            if i == 0 or s is not schedules[i - 1]:
                if s not in self.distinct:
                    self.distinct.append(s)
                    self.last.append(h)
                j = self.distinct.index(s)
            index.append(j)
        self.index = np.array(index)
        self.d = d
        self.stabilized = stabilized

    def fill(self, t0: int, width: int) -> None:
        """Evaluate every schedule for steps t0 .. t0 + width - 1."""
        extra = int(self.stabilized)
        etas, taus = [], []
        for s, last in zip(self.distinct, self.last):
            ts = range(t0, min(t0 + width, last + 1))
            etas.append([s.eta(t) for t in range(ts.start, ts.stop + extra)])
            taus.append([s.tau(t) for t in ts])
        if len(self.distinct) == 1:
            self.eta, self.tau = etas[0], taus[0]
            return

        def table(rows, n):
            # past its last horizon a schedule is read by no row: repeat
            # its last value, or any value once its rows are all done
            return np.array([r + (r[-1:] or [1.0]) * (n - len(r)) for r in rows])

        self.eta = table(etas, width + extra)
        self.tau = table(taus, width)
        same = np.all(self.tau[:, 1:] == self.tau[:, :-1], axis=0)
        same &= np.all(self.eta[:, 1:width] == self.eta[:, : width - 1], axis=0)
        if self.stabilized:
            same &= np.all(self.eta[:, 2:] == self.eta[:, 1:-1], axis=0)
        self.fresh = np.concatenate(([True], ~same))
        self.k = None

    def at(self, pos: int, k: int) -> tuple:
        """(eta_t, eta_{t+1}, tau_t) at offset pos of the chunk; eta_{t+1}
        is None unless stabilized."""
        # schedules are nonincreasing; min clamps away 1-ulp pow rounding
        if len(self.distinct) == 1:
            eta_t = self.eta[pos]
            eta_next = min(self.eta[pos + 1], eta_t) if self.stabilized else None
            return eta_t, eta_next, self.tau[pos]
        if self.fresh[pos] or k != self.k:
            rows = self.index[:k]
            eta_t = np.repeat(self.eta[rows, pos], self.d).reshape(k, self.d)
            eta_next = None
            if self.stabilized:
                eta_next = np.repeat(self.eta[rows, pos + 1], self.d).reshape(k, self.d)
                eta_next = np.minimum(eta_next, eta_t)
            self.k, self.cur = k, (eta_t, eta_next, self.tau[rows, pos])
        return self.cur


def _grad_oracle(oracles: list, k: int):
    """An oracle whose grad_rows maps each of the first k rows as its own
    oracle does: the shared oracle, or for hard instances one whose M and
    y hold a row per trial (grad_rows reads no other field)."""
    first = oracles[0]
    if all(o is first for o in oracles[1:k]):
        return first
    M = np.stack([o.instance.M for o in oracles[:k]])
    y = np.stack([o.instance.y for o in oracles[:k]])
    return replace(first, instance=replace(first.instance, M=M, y=y))


def _run_kernel(
    objective: CompositeObjective,
    oracles: list,
    schedules: list,
    horizons: list,
    x_1: np.ndarray,
    rngs: Sequence[np.random.Generator],
    stabilized: bool,
    record: Sequence[int],
) -> BatchResult:
    n = len(rngs)
    d = objective.d
    T = horizons[0]
    x1 = np.broadcast_to(x_1, (n, d)).copy()
    x = x1.copy()
    out = BatchResult(
        T=T,
        x_last=np.empty((n, d)),
        avg_plain=np.zeros((n, d)),
        avg_weighted=np.zeros((n, d)),
        clip_events=np.zeros(n, dtype=np.int64),
    )
    # the running rows are a prefix: rows are sorted by horizon, longest
    # first, and the averages and clip counts of finished rows stay put
    mean, wavg, clips = out.avg_plain, out.avg_weighted, out.clip_events
    wsum = 0.0
    # after step t, the rows with a horizon above t still run
    running = {h: sum(1 for g in horizons if g > h) for h in set(horizons)}
    k = n
    grad = _grad_oracle(oracles, k)
    steps = _Steps(schedules, horizons, d, stabilized)
    record_set = set(int(t) for t in record)

    buf = np.empty((min(NOISE_CHUNK, T), n, d), dtype=oracles[0].state_dtype)
    pos = NOISE_CHUNK
    for t in range(1, T + 1):
        if pos == NOISE_CHUNK:
            if t > 1:
                _check_finite(x, t - 1)
            m = min(NOISE_CHUNK, T + 1 - t)
            for i in range(k):
                # a row reads no state past its own horizon
                used = min(m, horizons[i] + 1 - t)
                oracles[i].draw(rngs[i], NOISE_CHUNK, out=buf[:used, i])
            steps.fill(t, m)
            pos = 0
        xi = buf[pos, :k]
        eta_t, eta_next, tau_t = steps.at(pos, k)
        pos += 1

        g, over = clip_rows(grad.grad_rows(x, xi), tau_t)
        clips += over

        if stabilized:
            x = stabilized_prox_step(
                objective.r, objective.domain, x, x1, g, eta_t, eta_next
            )
        else:
            x = prox_step(objective.r, objective.domain, x, g, eta_t)

        mean += (x - mean) / t
        w = weighted_avg_weight(t)
        wsum += w
        wavg += (w / wsum) * (x - wavg)

        if t in record_set:
            out.checkpoints.append(
                Checkpoint(
                    t=t,
                    x_last=x.copy(),
                    avg_plain=mean.copy(),
                    avg_weighted=wavg.copy(),
                    clip_events=clips.copy(),
                )
            )
        if t in running:
            # the rows whose horizon is t are done
            left = running[t]
            _check_finite(x[left:], t)
            out.x_last[left:k] = x[left:]
            k = left
            x, x1, mean, wavg, clips = x[:k], x1[:k], mean[:k], wavg[:k], clips[:k]
            if k:
                grad = _grad_oracle(oracles, k)
    return out


def run_trials(
    objective: CompositeObjective,
    oracle,
    schedule,
    T: int,
    x_1,
    rngs: Sequence[np.random.Generator],
    stabilized: bool = False,
    record_stride=None,
    horizons: Optional[Sequence[int]] = None,
) -> BatchResult:
    """Run len(rngs) independent trials in one vectorized batch.

    Trial i consumes only rngs[i]; its trajectory is identical to a
    single run with that generator.  oracle and schedule are one for all
    trials, or a list with one per trial; several oracles must be
    hard-instance oracles of objectives that share objective's domain and
    regularizer.  horizons, when given, holds each trial's own horizon,
    nonincreasing from T, and each row of the result holds its trial at
    its own horizon; checkpoints need a single horizon.
    """
    T = int(T)
    if T < 1:
        raise ValueError("horizon T must be a positive integer")
    n = len(rngs)
    if n < 1:
        raise ValueError("need at least one trial generator")
    oracles = _per_trial(oracle, n, "oracle")
    schedules = _per_trial(schedule, n, "schedule")
    horizons = [T] * n if horizons is None else [int(h) for h in horizons]
    if len(horizons) != n or horizons[0] != T or horizons[-1] < 1 or any(
        a < b for a, b in zip(horizons, horizons[1:])
    ):
        raise ValueError("horizons must be positive, nonincreasing from T, one per trial")
    if record_stride is not None and horizons[-1] != T:
        raise ValueError("checkpoints need every trial to share the horizon T")
    distinct = list({id(o): o for o in oracles}.values())
    if len(distinct) == 1:
        if oracles[0].objective is not objective:
            raise ValueError("oracle was built for a different objective")
    elif any(
        o.kind != "hard-instance" or not _same_prox(o.objective, objective)
        for o in distinct
    ):
        raise ValueError(
            "trials may differ in oracle only between hard instances whose "
            "objectives share objective's domain and regularizer"
        )
    if stabilized and objective.mu != 0.0:
        raise ValueError("stabilized updates require mu = 0")
    x_1 = _check_start(objective, x_1)
    record = checkpoint_times(T, record_stride) if record_stride is not None else [T]
    # a gradient row whose squared norm overflows is clipped correctly by
    # clip_rows, so its overflow warning is silenced here, once per batch
    # rather than once per step; an overflow or invalid value that reaches
    # the iterate makes it non-finite, which the kernel raises as
    # FloatingPointError
    with np.errstate(over="ignore", invalid="ignore"), _busy_core():
        return _run_kernel(
            objective, oracles, schedules, horizons, x_1, rngs, stabilized, record
        )


def _first_row(rec):
    """A BatchResult or Checkpoint with its rows replaced by row 0."""
    return replace(
        rec,
        x_last=rec.x_last[0],
        avg_plain=rec.avg_plain[0],
        avg_weighted=rec.avg_weighted[0],
        clip_events=int(rec.clip_events[0]),
    )


def _single(
    objective, oracle, schedule, T, x_1, rng, stabilized, record_stride
) -> BatchResult:
    stride = record_stride if record_stride is not None else "geometric:2"
    batch = run_trials(
        objective, oracle, schedule, T, x_1, [rng],
        stabilized=stabilized, record_stride=stride,
    )
    return replace(
        _first_row(batch), checkpoints=[_first_row(cp) for cp in batch.checkpoints]
    )


def run_clipped_sgd(
    objective: CompositeObjective,
    oracle: GradOracle,
    schedule: Schedule,
    T: int,
    x_1,
    rng: np.random.Generator,
    record_stride=None,
) -> BatchResult:
    """Single clipped run; thin wrapper over the batched kernel."""
    return _single(objective, oracle, schedule, T, x_1, rng, False, record_stride)


def run_stabilized_clipped_sgd(
    objective: CompositeObjective,
    oracle: GradOracle,
    schedule: Schedule,
    T: int,
    x_1,
    rng: np.random.Generator,
    record_stride=None,
) -> BatchResult:
    """Single stabilized run (mu = 0, nonincreasing eta enforced per step)."""
    return _single(objective, oracle, schedule, T, x_1, rng, True, record_stride)


def average(traj: BatchResult, mode: str) -> np.ndarray:
    """Final aggregate iterate: mode in {plain, weighted, last}."""
    if mode == "plain":
        return traj.avg_plain
    if mode == "weighted":
        return traj.avg_weighted
    if mode == "last":
        return traj.x_last
    raise ValueError(f"unknown averaging mode: {mode!r}")


@dataclass(frozen=True)
class SeriesPoint:
    """Suboptimality snapshot; raw values keep sign, plain fields clamp at 0."""

    t: int
    plain: float
    weighted: float
    last: float
    raw_plain: float
    raw_weighted: float
    raw_last: float
    mu_dist_sq: float
    clip_events: int


def suboptimality_series(traj: BatchResult, objective: CompositeObjective) -> list:
    """Per-checkpoint F(aggregate) - F_star values; needs a known optimum."""
    opt = objective.optimum
    if opt is None:
        raise ValueError("suboptimality requires an objective with a known optimum")
    out = []
    for cp in traj.checkpoints:
        vals = eval_F_batch(
            objective, np.stack([cp.avg_plain, cp.avg_weighted, cp.x_last])
        )
        raw = vals - opt.F_star
        diff = cp.x_last - opt.x_star
        out.append(
            SeriesPoint(
                t=cp.t,
                plain=max(float(raw[0]), 0.0),
                weighted=max(float(raw[1]), 0.0),
                last=max(float(raw[2]), 0.0),
                raw_plain=float(raw[0]),
                raw_weighted=float(raw[1]),
                raw_last=float(raw[2]),
                mu_dist_sq=objective.mu * float(np.add.reduce(diff * diff)),
                clip_events=cp.clip_events,
            )
        )
    return out
