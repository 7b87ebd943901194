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
returns counts the clip events.  Oracle noise is prefetched in fixed
chunks of NOISE_CHUNK states per trial, which pins each trial's
consumption of its own rng stream; the chunks are written row by row
into one (trials, min(T, NOISE_CHUNK), d) buffer allocated once per
run.  Iterates are checked for finiteness
at every chunk boundary and at the end of the run, not at every step: a
coordinate that turns non-finite stays non-finite under the prox maps
(they are linear in x, and projection onto a ball maps it to nan), so a
blow-up anywhere inside a chunk is still reported.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from ._util import clip_rows, row_norms
from .noise import GradOracle
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
    an int) from a single run.
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


def _check_start(objective: CompositeObjective, x_1) -> np.ndarray:
    x = np.asarray(x_1, dtype=float)
    if x.shape != (objective.d,):
        raise ValueError(f"x_1 must be a vector of dimension {objective.d}")
    proj = project(objective.domain, x)
    if float(row_norms(proj - x)) > 1e-12 * (1.0 + float(row_norms(x))):
        raise ValueError("x_1 lies outside the domain")
    return x


def _check_finite(x: np.ndarray, t: int) -> None:
    if not np.all(np.isfinite(x)):
        raise FloatingPointError(f"non-finite iterate by step t={t}")


def _run_kernel(
    objective: CompositeObjective,
    oracle: GradOracle,
    schedule: Schedule,
    T: int,
    x_1: np.ndarray,
    rngs: Sequence[np.random.Generator],
    stabilized: bool,
    record: Sequence[int],
) -> BatchResult:
    n = len(rngs)
    d = objective.d
    x1 = np.broadcast_to(x_1, (n, d)).copy()
    x = x1.copy()
    mean = np.zeros((n, d))
    wavg = np.zeros((n, d))
    wsum = 0.0
    clip_events = np.zeros(n, dtype=np.int64)
    record_set = set(int(t) for t in record)
    checkpoints = []

    buf = np.empty((n, min(T, NOISE_CHUNK), d))
    pos = NOISE_CHUNK
    for t in range(1, T + 1):
        if pos == NOISE_CHUNK:
            if t > 1:
                _check_finite(x, t - 1)
            m = min(NOISE_CHUNK, T + 1 - t)
            for i, rng in enumerate(rngs):
                buf[i, :m] = oracle.draw(rng, NOISE_CHUNK)[:m]
            pos = 0
        xi = buf[:, pos, :]
        pos += 1

        g, over = clip_rows(oracle.grad_rows(x, xi), schedule.tau(t))
        clip_events += over

        eta_t = schedule.eta(t)
        if stabilized:
            # schedules are nonincreasing; clamp away 1-ulp pow rounding
            eta_next = min(schedule.eta(t + 1), eta_t)
            x = stabilized_prox_step(
                objective.r, objective.domain, x, x1, g, eta_t, eta_next
            )
        else:
            x = prox_step(objective.r, objective.domain, x, g, eta_t)

        mean = mean + (x - mean) / t
        w = weighted_avg_weight(t)
        wsum += w
        wavg = wavg + (w / wsum) * (x - wavg)

        if t in record_set:
            checkpoints.append(
                Checkpoint(
                    t=t,
                    x_last=x.copy(),
                    avg_plain=mean.copy(),
                    avg_weighted=wavg.copy(),
                    clip_events=clip_events.copy(),
                )
            )

    _check_finite(x, T)
    return BatchResult(
        T=T,
        x_last=x,
        avg_plain=mean,
        avg_weighted=wavg,
        clip_events=clip_events,
        checkpoints=checkpoints,
    )


def run_trials(
    objective: CompositeObjective,
    oracle: GradOracle,
    schedule: Schedule,
    T: int,
    x_1,
    rngs: Sequence[np.random.Generator],
    stabilized: bool = False,
    record_stride=None,
) -> BatchResult:
    """Run len(rngs) independent trials in one vectorized batch.

    Trial i consumes only rngs[i]; its trajectory is identical to a
    single run with that generator.
    """
    T = int(T)
    if T < 1:
        raise ValueError("horizon T must be a positive integer")
    if len(rngs) < 1:
        raise ValueError("need at least one trial generator")
    if oracle.objective is not objective:
        raise ValueError("oracle was built for a different objective")
    if stabilized and objective.mu != 0.0:
        raise ValueError("stabilized updates require mu = 0")
    x_1 = _check_start(objective, x_1)
    record = checkpoint_times(T, record_stride) if record_stride is not None else [T]
    # a gradient row whose squared norm overflows is clipped correctly by
    # clip_rows, so its overflow warning is silenced here, once per block
    # rather than once per step; an overflow or invalid value that reaches
    # the iterate makes it non-finite, which the kernel raises as
    # FloatingPointError
    with np.errstate(over="ignore", invalid="ignore"):
        return _run_kernel(
            objective, oracle, schedule, T, x_1, rngs, stabilized, record
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
