"""Clipped and stabilized clipped proximal subgradient runs.

Both methods iterate, from x_1 in the domain,

    g_t   = oracle draw at x_t, clipped to norm tau_t,
    x_{t+1} = prox step from x_t with step eta_t        (clipped)
    x_{t+1} = stabilized prox step with anchor x_1       (stabilized)

for t = 1..T, and report the plain average (1/T) sum x_{t+1}, the
weighted average with weights (t+4)(t+5), and the last iterate.  The
stabilized variant requires mu = 0 and a nonincreasing step schedule.
run_trials keeps both running averages unless its caller names the one
aggregate it reads (the harness passes its reporting mode); an average
that is not kept is never updated and is None in the result.

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

The step sizes are validated where they are made: when a chunk's eta and
tau values are filled, every eta the chunk will run must be positive,
or run_trials raises the prox steps' own ValueError.  The kernel then
takes the prox steps' closed forms without a per-step check;
problems.prox_step and stabilized_prox_step keep theirs for other
callers.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from ._util import clip_rows, finite_row_norms
from .noise import GradOracle, _busy_core
from .problems import (
    CompositeObjective,
    _project,
    _prox_point,
    _stabilized_point,
    project,
)

# the kernel calls the closed forms above; the checked steps and
# eval_F_batch stay bound here because perfbench/tracing.py wraps them
# by this module's names
from .problems import eval_F_batch, prox_step, stabilized_prox_step  # noqa: F401
from .schedules import Schedule, weighted_avg_weight

__all__ = [
    "NOISE_CHUNK",
    "BatchResult",
    "run_clipped_sgd",
    "run_stabilized_clipped_sgd",
    "run_trials",
    "average",
]

# per-trial noise states drawn per prefetch; fixed so streams never depend
# on T, batch size, or thread count
NOISE_CHUNK = 1024


@dataclass(frozen=True)
class BatchResult:
    """Result of a run after T steps.

    Fields are per-trial rows from run_trials and vectors (clip_events
    an int) from a single run.  With per-trial horizons, T is the
    longest and each row holds its trial at its own horizon.  An average
    that run_trials was asked not to keep (aggregate=) is None; the
    single-run entry points keep both.
    """

    T: int
    x_last: np.ndarray
    avg_plain: Optional[np.ndarray]
    avg_weighted: Optional[np.ndarray]
    clip_events: object


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
        """Evaluate every schedule for steps t0 .. t0 + width - 1.

        Raises the prox steps' ValueError if any eta the chunk will run
        is not positive, so the kernel's steps need no check of their own.
        """
        extra = int(self.stabilized)
        etas, taus = [], []
        for s, last in zip(self.distinct, self.last):
            ts = range(t0, min(t0 + width, last + 1))
            etas.append([s.eta(t) for t in range(ts.start, ts.stop + extra)])
            taus.append([s.tau(t) for t in ts])
        # every eta here is some running row's eta_t or, stabilized, its
        # eta_{t+1}; 0 < min(eta_{t+1}, eta_t) <= eta_t holds iff both are
        # positive, as nan fails every comparison
        if not all(e > 0 for row in etas for e in row):
            if self.stabilized:
                raise ValueError("stabilized step requires 0 < eta_next <= eta_t")
            raise ValueError("step size eta must be positive")
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
    aggregate: Optional[str],
) -> BatchResult:
    n = len(rngs)
    d = objective.d
    T = horizons[0]
    r, domain = objective.r, objective.domain
    x1 = np.broadcast_to(x_1, (n, d)).copy()
    x = x1.copy()
    out = BatchResult(
        T=T,
        x_last=np.empty((n, d)),
        avg_plain=np.zeros((n, d)) if aggregate in (None, "plain") else None,
        avg_weighted=np.zeros((n, d)) if aggregate in (None, "weighted") else None,
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

        # the steps' etas were checked when the chunk's values were filled
        if stabilized:
            x = _project(domain, _stabilized_point(r, x, x1, g, eta_t, eta_next))
        else:
            x = _project(domain, _prox_point(r, x, g, eta_t))

        if mean is not None:
            mean += (x - mean) / t
        if wavg is not None:
            w = weighted_avg_weight(t)
            wsum += w
            wavg += (w / wsum) * (x - wavg)

        if t in running:
            # the rows whose horizon is t are done
            left = running[t]
            _check_finite(x[left:], t)
            out.x_last[left:k] = x[left:]
            k = left
            x, x1, clips = x[:k], x1[:k], clips[:k]
            mean = None if mean is None else mean[:k]
            wavg = None if wavg is None else wavg[:k]
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
    horizons: Optional[Sequence[int]] = None,
    aggregate: Optional[str] = None,
) -> BatchResult:
    """Run len(rngs) independent trials in one vectorized batch.

    Trial i consumes only rngs[i]; its trajectory is identical to a
    single run with that generator.  oracle and schedule are one for all
    trials, or a list with one per trial; several oracles must be
    hard-instance oracles of objectives that share objective's domain and
    regularizer.  horizons, when given, holds each trial's own horizon,
    nonincreasing from T, and each row of the result holds its trial at
    its own horizon.  A row's trajectory does not depend on its
    horizon, so a row of horizon t holds the first t steps of a longer
    row with the same seed: horizons=range(T, 0, -1) with T generators
    of one seed gives that seed's iterate and averages after step t in
    row T - t.

    aggregate names the one aggregate the caller reads, "plain",
    "weighted" or "last" (see average); the kernel then skips the
    running averages no one reads, and they are None in the result.
    The default keeps both averages.  x_last and clip_events are always
    kept, and every kept field has the bits of the default call.

    Raises ValueError naming the step rule when a schedule gives a
    non-positive eta, at the start of the noise chunk that would run it.
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
    if aggregate not in (None, "plain", "weighted", "last"):
        raise ValueError(f"unknown averaging mode: {aggregate!r}")
    x_1 = _check_start(objective, x_1)
    # a gradient row whose squared norm overflows is clipped correctly by
    # clip_rows, so its overflow warning is silenced here, once per batch
    # rather than once per step; an overflow or invalid value that reaches
    # the iterate makes it non-finite, which the kernel raises as
    # FloatingPointError
    with np.errstate(over="ignore", invalid="ignore"), _busy_core():
        return _run_kernel(
            objective, oracles, schedules, horizons, x_1, rngs, stabilized, aggregate
        )


def _single(objective, oracle, schedule, T, x_1, rng, stabilized) -> BatchResult:
    """run_trials on the one generator rng, its row 0 as vectors."""
    batch = run_trials(objective, oracle, schedule, T, x_1, [rng], stabilized=stabilized)
    return replace(
        batch,
        x_last=batch.x_last[0],
        avg_plain=batch.avg_plain[0],
        avg_weighted=batch.avg_weighted[0],
        clip_events=int(batch.clip_events[0]),
    )


def run_clipped_sgd(
    objective: CompositeObjective,
    oracle: GradOracle,
    schedule: Schedule,
    T: int,
    x_1,
    rng: np.random.Generator,
) -> BatchResult:
    """Single clipped run; thin wrapper over the batched kernel."""
    return _single(objective, oracle, schedule, T, x_1, rng, False)


def run_stabilized_clipped_sgd(
    objective: CompositeObjective,
    oracle: GradOracle,
    schedule: Schedule,
    T: int,
    x_1,
    rng: np.random.Generator,
) -> BatchResult:
    """Single stabilized run (mu = 0).

    Each step uses min(eta_{t+1}, eta_t), and every eta is checked
    positive once per noise chunk, before the chunk's steps run.
    """
    return _single(objective, oracle, schedule, T, x_1, rng, True)


def average(traj: BatchResult, mode: str) -> np.ndarray:
    """Final aggregate iterate: mode in {plain, weighted, last}."""
    if mode == "plain":
        return traj.avg_plain
    if mode == "weighted":
        return traj.avg_weighted
    if mode == "last":
        return traj.x_last
    raise ValueError(f"unknown averaging mode: {mode!r}")
