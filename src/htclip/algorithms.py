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

A noise chunk skips the clip when no running row's tau_t in it falls
below the bound its oracle's grad_bound() gives: the computed norm of a
hard instance's gradient row never exceeds that bound (see
HardInstance.grad_bound), and other oracles give +inf, so they skip
only at tau = +inf.  clip_rows would then scale no row and count no
event (a nan row is never clipped either), so the iterates and the clip
counts, hence clip_rate, have the bits of a run that clips every step.

The trials of one batch may differ in horizon, oracle and schedule.
Rows come longest horizon first, so the rows still running at step t
are a prefix that shrinks as each horizon ends; a finished row keeps its
last iterate, averages and clip count at its own horizon.  Each row's
eta_t and tau_t come from its own schedule, and hard-instance rows of
different horizons or codewords map gradients with per-row M and y.

Oracle noise comes in fixed chunks of NOISE_CHUNK states per trial,
which pins each trial's consumption of its own rng stream, and a row
draws a chunk a sub-chunk of S states at a time, S a power of two that
divides NOISE_CHUNK.  S is _rows_sub_chunk's for the batch's rows:
_sub_chunk(d) for stable and hard-instance rows, and for Gaussian and
deterministic rows the largest, down to _sub_chunk(d, _LEAST_ENTRIES),
whose noise (_noise_bytes) fits NOISE_BUDGET; no output bit depends on
it.  A row draws only the states it runs: none past its horizon.  Stable,
Gaussian and deterministic rows draw into one (S, trials, d) buffer of
the oracle's state dtype, allocated once per run, so a step reads its
states as one contiguous block.  The rows of one oracle draw
a sub-chunk in one GradOracle.draw call, which draws and transforms
their alpha-stable states a row block at a time on every core, and a
noise.ChunkStream per row gives each sub-chunk the bits it has in a
draw of the whole chunk.

Every step has one body, whatever the oracle: u = x_t/eta_t (or, for
the stabilized step, problems._stabilized_base's numerator), then
u -= g, then problems._prox_end, the closed form's last operations
(+ mu c, / den, projection) that the public prox_step and
stabilized_prox_step end in too.  x_t/eta_t into a buffer and then
u -= g rounds exactly as the one expression x_t/eta_t - g, so every row
has the bits of those public steps.  A plain step writes x_t/eta_t
into a buffer that then becomes the iterate, and the running averages
are updated through one scratch, so such a step allocates no (rows, d)
array beyond its gradient rows.  Rows with a state buffer take g as
the oracle's grad_rows, clipped.  Hard-instance rows hold no state
buffer: their states are sparse (the lower-bound regimes take q = 1/T
or less), so a run of rows of one oracle and count draws a sub-chunk as
its nonzero entries (HardInstance.sample_events: the dense draw's one
threshold rule, bits and generator use, in row-major order, which
_Events groups by row and by step), and _Events.subtract computes,
clips and subtracts a gradient row only for the rows with a nonzero
state.

A sub-chunk of hard-instance rows runs event to event when it is
steady (_Steps.steady): its steps are plain, with mu = 0, and each
running row's eta_t and tau_t, hence its denominator 1/eta_t, hold at
every step of it, as under the known-horizon schedules of the
lower-bound runs.  A row's step from a zero state is then one
deterministic map of its iterate's bits, x -> project((x/eta - g0)/den)
with g0 the zero state's gradient row at x, so a row that this map
leaves as it was keeps its bits, step after step, until its next
event.  _Events.plan steps the rows a round at a time, each from its
own cursor, by the dense step's expression: x/eta less the event's
gradient row, clipped and counted as the dense step clips it, or less
g0, then the step's shared tail (_prox_end).  A row that stays
put jumps to its next event.  The step loop then writes only the rows
whose iterate changed, and keeps the running averages, finiteness
checks and horizon ends of the dense step.  Subtracting g0 at every
zero-state step gives the dense step's +0.0 where x/eta is -0.0, so
the pass needs no underflow flag.  A sub-chunk that is not steady (an
anytime or stabilized schedule, a strongly convex row), or whose rows
have too many events for the pass to pay, takes the dense step; so does
the rest of a sub-chunk from the step where a pass ran out of rounds, as
a row that settles slowly makes it do.

Iterates are checked for finiteness at every chunk boundary and at each
horizon, not at every step: a coordinate that turns non-finite stays
non-finite under the prox maps (they are linear in x, and projection
onto a ball maps it to nan), so a blow-up anywhere inside a chunk is
still reported.

The step sizes are validated where they are made: when a chunk's eta and
tau values are filled, every eta the chunk will run must be positive,
or run_trials raises the prox steps' own ValueError.  The kernel then
takes the prox steps' closed forms without a per-step check;
problems.prox_step and stabilized_prox_step keep theirs for other
callers.  The plain prox step's denominator 1/eta_t + mu comes from
_Steps, made with the eta values or tiles it hands out, so a tile's is
made once per distinct step size and number of running rows, not per
step; it has the bits of the closed form's own.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from ._util import clip_rows, finite_row_norms
from .noise import ChunkStream, GradOracle, _busy_core, _stable_scratch
from .problems import CompositeObjective, _prox_end, _stabilized_base, project

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

# per-trial noise states of a chunk; fixed so streams never depend on T,
# batch size, or thread count
NOISE_CHUNK = 1024

# bytes a shard's rows may hold in noise while they draw (_noise_bytes),
# which bound the harness's shard width and the kernel's sub-chunk
NOISE_BUDGET = 8 << 20

# a row's sub-chunk holds at most this many state entries, and an
# alpha-stable or hard-instance row's always as many
_SUB_CHUNK_ENTRIES = 4096
# and a Gaussian or zero row's at least this many: its fill is one
# generator call a row, so a small S costs it little and lets a run of
# many rows (AC-08's) take fewer, wider shards
_LEAST_ENTRIES = 512


def _sub_chunk(d: int, entries: int = _SUB_CHUNK_ENTRIES) -> int:
    """The largest power of two up to NOISE_CHUNK and entries // d, and
    at least 1: the most states a row draws at a time in dimension d
    (1,024 at d <= 4, 64 at d = 64).  It divides NOISE_CHUNK, so chunks
    start on sub-chunk edges."""
    most = min(NOISE_CHUNK, max(entries // d, 1))
    return 1 << (most.bit_length() - 1)


def _noise_bytes(oracle, rows: int, sub: int) -> int:
    """Bytes that rows rows of oracle's noise hold at most while they
    draw sub states a row: their (sub, rows, d) state buffer and, for
    alpha-stable rows, the draw's scratch (noise._stable_scratch).
    Hard-instance rows hold only their events, and are counted as their
    int8 codes, a byte an entry."""
    held = rows * sub * oracle.objective.d * oracle.state_dtype.itemsize
    return held + (_stable_scratch(rows) if oracle.kind == "additive-stable" else 0)


def _rows_sub_chunk(oracle, rows: int) -> int:
    """S, the states each of rows rows of oracle's noise draws at a time:
    the largest power of two up to _sub_chunk(d) whose _noise_bytes fit
    NOISE_BUDGET, and no less than the least, which is _sub_chunk(d,
    _LEAST_ENTRIES) for Gaussian and zero rows and _sub_chunk(d) for
    every other oracle."""
    sub = least = _sub_chunk(oracle.objective.d)
    if getattr(oracle, "kind", None) in ("additive-gaussian", "deterministic"):
        least = _sub_chunk(oracle.objective.d, _LEAST_ENTRIES)
    while sub > least and _noise_bytes(oracle, rows, sub) > NOISE_BUDGET:
        sub //= 2
    return sub


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


def _values(r: list) -> np.ndarray:
    """The floats of list r as an array; a known horizon's constant list
    is filled from its one value."""
    if r and r.count(r[0]) == len(r):
        return np.full(len(r), r[0], float)
    return np.array(r, float)


class _Steps:
    """eta_t, eta_{t+1} and tau_t of the running rows, a noise chunk at a time.

    Each distinct schedule's eta and tau for the steps of a chunk come
    from one Schedule.table call when the chunk is drawn, with the values
    a call per step returns.  With one schedule they stay Python floats.  With
    several, each row takes its own schedule's value: eta as (k, d) tiles
    for the prox steps, tau as a (k,) vector for the clip, rebuilt only
    when a value or the number k of running rows changes.  The plain prox
    step's denominator 1/eta_t + mu is taken with them, once per step
    size, the stabilized step's not at all.

    clip is False for a chunk in which no running row's tau_t falls
    below bounds[row], the norm bound of that row's gradient rows (see
    _grad_bounds): the clip would scale no row, so the chunk skips it.
    """

    def __init__(self, schedules, horizons, bounds, d: int, mu: float, stabilized: bool):
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
        self.bounds = bounds
        self.d = d
        self.mu = mu
        self.stabilized = stabilized

    def fill(self, t0: int, width: int, k: int) -> None:
        """Evaluate every schedule for steps t0 .. t0 + width - 1, with k
        rows running at t0, and decide whether the chunk clips.

        Raises the prox steps' ValueError if any eta the chunk will run
        is not positive, so the kernel's steps need no check of their own.
        """
        extra = int(self.stabilized)
        etas, taus = [], []
        for s, last in zip(self.distinct, self.last):
            stop = min(t0 + width, last + 1)
            eta, tau = s.table(t0, stop + extra)
            etas.append(eta)
            taus.append(tau[: stop - t0])
        eta_a, tau_a = ([_values(r) for r in rows] for rows in (etas, taus))
        # every eta here is some running row's eta_t or, stabilized, its
        # eta_{t+1}; 0 < min(eta_{t+1}, eta_t) <= eta_t holds iff both are
        # positive, as nan fails every comparison
        if not all((a > 0).all() for a in eta_a):
            if self.stabilized:
                raise ValueError("stabilized step requires 0 < eta_next <= eta_t")
            raise ValueError("step size eta must be positive")
        # each schedule's smallest tau in the chunk; a nan tau never
        # clips, but np.min keeps it and it fails the comparison
        low = np.array([np.min(a, initial=np.inf) for a in tau_a])
        self.clip = not np.all(low[self.index[:k]] >= self.bounds[:k])
        if len(self.distinct) == 1:
            self.eta, self.tau = etas[0], taus[0]
            return

        def table(rows, n):
            # past its last horizon a schedule is read by no row: repeat
            # its last value, or any value once its rows are all done
            out = np.empty((len(rows), n))
            for o, a in zip(out, rows):
                o[: len(a)] = a
                o[len(a) :] = a[-1] if len(a) else 1.0
            return out

        self.eta = table(eta_a, width + extra)
        self.tau = table(tau_a, width)
        same = np.all(self.tau[:, 1:] == self.tau[:, :-1], axis=0)
        same &= np.all(self.eta[:, 1:width] == self.eta[:, : width - 1], axis=0)
        if self.stabilized:
            same &= np.all(self.eta[:, 2:] == self.eta[:, 1:-1], axis=0)
        self.fresh = np.concatenate(([True], ~same))
        self.k = None

    def steady(self, pos: int, n: int, k: int) -> Optional[tuple]:
        """(eta, den, tau) of the k running rows when each row's eta_t and
        tau_t hold at offsets pos .. pos + n - 1 of the chunk, else None:
        eta and den floats or (k, 1) columns, tau a float or (k,) vector,
        or None when the chunk skips the clip.  Plain steps only."""
        if len(self.distinct) == 1:
            eta, tau = self.eta[pos], self.tau[pos]
            if self.eta[pos : pos + n].count(eta) < n or self.tau[pos : pos + n].count(tau) < n:
                return None
        elif self.fresh[pos + 1 : pos + n].any():
            return None
        else:
            rows = self.index[:k]
            eta, tau = self.eta[rows, pos, None], self.tau[rows, pos]
            # at is not asked for these steps, so its tiles may be older
            # than the next step it is asked for
            self.k = None
        return eta, 1.0 / eta + self.mu, tau if self.clip else None

    def at(self, pos: int, k: int) -> tuple:
        """(eta_t, eta_{t+1}, tau_t, den) at offset pos of the chunk:
        stabilized, den is None; otherwise eta_{t+1} is None and den is
        the prox step's 1/eta_t + mu."""
        # schedules are nonincreasing; min clamps away 1-ulp pow rounding
        if len(self.distinct) == 1:
            eta_t = self.eta[pos]
            if self.stabilized:
                return eta_t, min(self.eta[pos + 1], eta_t), self.tau[pos], None
            return eta_t, None, self.tau[pos], 1.0 / eta_t + self.mu
        if self.fresh[pos] or k != self.k:
            rows = self.index[:k]
            eta_t = np.repeat(self.eta[rows, pos], self.d).reshape(k, self.d)
            if self.stabilized:
                eta_next = np.repeat(self.eta[rows, pos + 1], self.d).reshape(k, self.d)
                eta_next, den = np.minimum(eta_next, eta_t), None
            else:
                eta_next, den = None, 1.0 / eta_t + self.mu
            self.k, self.cur = k, (eta_t, eta_next, self.tau[rows, pos], den)
        return self.cur


def _grad_bounds(oracles: list) -> np.ndarray:
    """Each row's oracle's grad_bound(), +inf for an oracle without one."""
    known = {}
    for o in oracles:
        if id(o) not in known:
            bound = getattr(o, "grad_bound", None)
            known[id(o)] = np.inf if bound is None else bound()
    return np.array([known[id(o)] for o in oracles])


def _runs(oracles: list, used: list):
    """(a, b) for each run of rows a..b - 1 with one oracle and one count
    in used (nonincreasing)."""
    a = 0
    for b in range(1, len(used) + 1):
        if b == len(used) or used[b] != used[a] or oracles[b] is not oracles[a]:
            yield a, b
            a = b


def _draw(oracles: list, streams: list, buf: np.ndarray, used: list) -> None:
    """Draw the next used[i] states of each running row i into
    buf[:used[i], i], in one oracle.draw call per run of rows."""
    for a, b in _runs(oracles, used):
        oracles[a].draw(streams[a:b], used[a], out=buf[: used[a], a:b])


# -0.0's bits read as an int64: the least int64
_NEG_ZERO = np.iinfo(np.int64).min

# a pass runs at most one round for every _ROUND_SHARE steps of its sub-chunk
_ROUND_SHARE = 4


# a row of d bools read as one unsigned integer, for the d that have one
_ROW_WORDS = {1: np.uint8, 2: np.uint16, 4: np.uint32, 8: np.uint64}


def _rows_differ(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Which rows of the float arrays a and b differ in their bits."""
    ne = a.view(np.int64) != b.view(np.int64)
    word = _ROW_WORDS.get(ne.shape[1])
    # numpy reduces a short row slowly; a row's bools as one word test at once
    return ne.any(1) if word is None else ne.view(word)[:, 0] != 0


@dataclass(frozen=True)
class _Plan:
    """A sub-chunk's iterates as changes (_Events.plan): at each step
    offset s below stop, the running rows rows[at[s]:at[s + 1]] take the
    values vals[at[s]:at[s + 1]] and every other row keeps its iterate;
    from offset stop on, the sub-chunk runs dense steps.  rounds counts
    the pass's rounds."""

    stop: int
    at: list
    rows: np.ndarray
    vals: np.ndarray
    rounds: int


class _Events:
    """The gradients of hard-instance rows, subtracted where their states
    are not zero.

    A sub-chunk's states come as events, drawn in one
    HardInstance.sample_events call per run of rows, and are grouped into
    event rows: a row with a nonzero state entry at a step.  The event
    rows' states come each row's in step order, then a mark: a zero state
    at step used[row], one past the row's last, whose gradient row is the
    row's zero-state g0 (plan reads them).  For the dense steps, _grouped
    gives the event rows by step instead, with the parts of their
    gradient rows that do not depend on x (grad_parts), made once per
    sub-chunk when first read.  At a step, subtract takes u, the prox
    point's numerator before the gradient, to u - g, with g the dense
    gradient row (HardInstance.grad_rows) of every row: an event row's
    is made from its parts at x, clipped if the chunk clips and counted
    in clips, and subtracted from its row of u.

    Every other row has a gradient row of zeros, which clip_rows never
    scales or counts.  Each entry is +0.0 or -0.0, so subtracting it
    leaves u as it is, except where u is -0.0 and the entry is -0.0 too:
    then the difference is +0.0.  np.sign(-0.0) is +0.0, so for cvx that
    is where x < 0 and x/eta is -0.0, which for a positive finite eta
    takes an underflow.  (For str the entry is always -0.0, and u - g0 +
    mu c, with c = 0, is u + mu c.)  run_trials has numpy call
    underflowed at each underflow, and a step after one gives the rows
    whose u holds a -0.0, bar event rows, u - g0 with g0 their gradient
    rows of zero states.  (An infinite eta makes a cvx step's
    denominator 0 and its iterate non-finite either way.)  An instance
    with a non-finite M, y or mu may make a zero state's gradient nan,
    so then every row takes u - g0 at every step.
    """

    def __init__(self, oracles: list, rngs: Sequence[np.random.Generator]):
        first = oracles[0]
        # every row maps as the first row's instance does, with its own M and y
        self.map = first.instance
        if all(o is first for o in oracles):
            self.M, self.y = self.map.M, self.map.y
        else:
            # each distinct instance's M and y once, then a row of each per row
            which = {id(o): o for o in oracles}
            index = {key: i for i, key in enumerate(which)}
            rows = [index[id(o)] for o in oracles]
            self.M = np.stack([o.instance.M for o in which.values()])[rows]
            self.y = np.stack([o.instance.y for o in which.values()])[rows]
        self.oracles, self.rngs = oracles, rngs
        zero = self.map.grad_parts(np.zeros(self.M.shape, np.int8), self.M, self.y)
        self.nan = not all(np.isfinite(p).all() for p in zero)
        self.underflow = True

    def underflowed(self, kind: str, flag: int) -> None:
        """numpy's errstate callback: an operation underflowed."""
        self.underflow = True

    def _parts(self, states: np.ndarray, rows: np.ndarray) -> tuple:
        """grad_parts of the state rows of rows."""
        one = self.M.ndim == 1
        return self.map.grad_parts(
            states, self.M if one else self.M[rows], self.y if one else self.y[rows]
        )

    def draw(self, used: list) -> None:
        """Draw the next used[i] states of each running row i (used is
        nonincreasing) and group their events by row and step."""
        # the last sub-chunk's events are let go before these are drawn
        self.row = self.step = self.states = self.mark = self._by_step = None
        found = []
        for a, b in _runs(self.oracles, used):
            step, row, col, code = self.oracles[a].instance.sample_events(
                self.rngs[a:b], used[a]
            )
            found.append((step, row + a, col, code))
        k, span = len(used), used[0] + 1
        # each row's mark: a zero state at step used[row]
        found.append((np.array(used), np.arange(k), np.zeros(k, np.intp), np.zeros(k, np.int8)))
        step, row, col, code = (np.concatenate(e) for e in zip(*found))
        key = row * span + step
        order = np.argsort(key)
        key = key[order]
        # an event row starts where the (row, step) pair changes
        new = np.ones(len(key), bool)
        new[1:] = key[1:] != key[:-1]
        which = np.cumsum(new) - 1
        self.states = np.zeros((int(which[-1]) + 1, self.map.d), np.int8)
        self.states[which, col[order]] = code[order]
        self.row, self.step = np.divmod(key[new], span)
        last = np.ones(len(self.row), bool)
        last[:-1] = self.row[1:] != self.row[:-1]
        self.mark = np.flatnonzero(last)
        self.n = used[0]

    def _grouped(self) -> tuple:
        """(at, rows, parts): the event rows by step, then row, without
        the marks; step s's are at[s]:at[s + 1]."""
        if self._by_step is None:
            ev = np.ones(len(self.row), bool)
            ev[self.mark] = False
            ev = np.flatnonzero(ev)
            ev = ev[np.argsort(self.step[ev], kind="stable")]
            at = np.searchsorted(self.step[ev], np.arange(self.n + 1)).tolist()
            rows = self.row[ev]
            self._by_step = (at, rows, self._parts(self.states[ev], rows))
        return self._by_step

    def subtract(self, pos: int, x: np.ndarray, u: np.ndarray, tau, clips) -> None:
        """u - g in place, at step pos of the sub-chunk, for the running
        rows x and the dense gradient rows g at x; tau is None when the
        chunk skips the clip."""
        at, rows, parts = self._grouped()
        p, q = at[pos], at[pos + 1]
        rows = rows[p:q]
        if self.nan or self.underflow:
            zero = np.ones(len(u), bool) if self.nan else (u.view(np.int64) == _NEG_ZERO).any(1)
            zero[rows] = False
            at = np.flatnonzero(zero)
            states = np.zeros((len(at), u.shape[1]), np.int8)
            u[at] -= self.map.grad_at(x[at], self._parts(states, at))
            self.underflow = False
        if p == q:
            return
        g = self.map.grad_at(x[rows], tuple(part[p:q] for part in parts))
        if tau is not None:
            g, over = clip_rows(g, tau[rows] if isinstance(tau, np.ndarray) else tau)
            clips[rows] += over
        u[rows] -= g

    def plan(self, x, used, eta, den, tau, clips, r, domain) -> Optional[_Plan]:
        """The running rows' iterates over the drawn sub-chunk, from x at
        its start, computed event to event when every row's eta, den and
        tau (None when the chunk skips the clip) hold for the whole
        sub-chunk: eta and den as floats or (rows, 1) columns, tau as a
        float or a vector.  Event clips are counted in clips.  None when a
        row has too many events for the pass to beat the dense steps.

        Each round steps every unfinished row once from its cursor, by
        the dense step's expression: u = x/eta, less the gradient row of
        the row's state there (its event row's, clipped as the dense step
        clips it, or its mark's, the zero state's g0), then _prox_end.  A
        row whose step from a zero state leaves its bits as they were is
        at a fixed point of that deterministic map, which it then keeps
        until its next event, so its cursor jumps there.  A row is done
        at its mark.  After used[0] // _ROUND_SHARE rounds the pass
        stops: its changes count up to the least cursor of the rows left,
        and the dense steps take over from there.  A pass that covers the
        whole sub-chunk lets the events go, as no dense step reads them."""
        n = used[0]
        cap = n // _ROUND_SHARE
        first = np.concatenate(([0], self.mark[:-1] + 1))
        if 2 * int((self.mark - first).max()) >= cap:
            return None
        step, states = self.step, self.states
        # each unfinished row's index, cursor, next event row, mark and
        # used count; its eta, den and tau
        k = len(used)
        live = np.stack((np.arange(k), np.zeros(k, np.intp), first, self.mark, used), axis=1)
        val = np.empty((k, 3))
        val[:, :1], val[:, 1:2], val[:, 2] = eta, den, np.inf if tau is None else tau
        xa, records, hits, rounds = x, [], [], 0
        while rounds < cap and len(xa):
            rounds += 1
            row, cur, nxt, mark, end = live.T
            due = step[nxt]
            ev = cur == due
            pick = np.where(ev, nxt, mark)
            g = self.map.grad_at(xa, self._parts(states.take(pick, axis=0), row))
            if tau is not None and ev.any():
                e = ev.nonzero()[0]
                g[e], over = clip_rows(g[e], val[e, 2])
                hits.append((row[e[over]], cur[e[over]]))
            u = np.divide(xa, val[:, :1])
            u -= g
            xa, was = _prox_end(r, domain, u, val[:, 1:2]), xa
            moved = _rows_differ(xa, was)
            hit = moved.nonzero()[0]
            if len(hit):
                records.append((cur.take(hit), row.take(hit), xa.take(hit, axis=0)))
            # a row that moved, or took its event, steps on; one that
            # stayed put from a zero state jumps to its next event
            ahead = np.where(ev | moved, cur + 1, due)
            live[:, 1] = ahead
            live[:, 2] += ev
            going = ahead < end
            if np.count_nonzero(going) < len(going):
                keep = going.nonzero()[0]
                live, val, xa = (a.take(keep, axis=0) for a in (live, val, xa))
        stop = int(live[:, 1].min()) if len(xa) else n
        cur, row, vals = (np.concatenate(c) for c in zip((cur[:0], row[:0], x[:0]), *records))
        records.clear()
        if stop < n:
            keep = (cur < stop).nonzero()[0]
            cur, row, vals = (a.take(keep, axis=0) for a in (cur, row, vals))
        # steps fit in 16 bits, which numpy sorts by radix
        order = np.argsort(cur.astype(np.uint16), kind="stable")
        cur, row, vals = (a.take(order, axis=0) for a in (cur, row, vals))
        if hits:
            row_hit, cur_hit = (np.concatenate(c) for c in zip(*hits))
            np.add.at(clips, row_hit[cur_hit < stop], 1)
        if stop == n:
            # no dense step reads these events
            self.row = self.step = self.states = self.mark = None
        return _Plan(
            stop=stop,
            at=np.searchsorted(cur, np.arange(stop + 1)).tolist(),
            rows=row,
            vals=vals,
            rounds=rounds,
        )


def _run_kernel(
    objective: CompositeObjective,
    oracles: list,
    schedules: list,
    horizons: list,
    x_1: np.ndarray,
    rngs: Sequence[np.random.Generator],
    stabilized: bool,
    aggregate: Optional[str],
    events: Optional[_Events],
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
    steps = _Steps(schedules, horizons, _grad_bounds(oracles), d, objective.mu, stabilized)

    # the next iterate's buffer (a plain step's) and the averages' scratch
    spare, scratch = np.empty((n, d)), np.empty((n, d))
    sub = _rows_sub_chunk(oracles[0], n)
    if events is None:
        # every row has the one oracle, as only hard instances may differ
        grad = oracles[0]
        buf = np.empty((min(sub, T), n, d), dtype=grad.state_dtype)
        streams = [ChunkStream(rng, NOISE_CHUNK * d) for rng in rngs]
    # hard rows of plain steps with mu = 0 may run a sub-chunk event to event
    plannable = events is not None and not stabilized and r is None
    t = 1
    while t <= T:
        pos = (t - 1) % NOISE_CHUNK
        if pos == 0:
            if t > 1:
                _check_finite(x, t - 1)
            steps.fill(t, min(NOISE_CHUNK, T + 1 - t), k)
        # a row reads no state past its own horizon
        used = [min(sub, h + 1 - t) for h in horizons[:k]]
        # the last sub-chunk's plan is let go before this one's draw
        stop, at, rows, vals = 0, None, None, None
        if events is None:
            _draw(oracles, streams, buf, used)
        else:
            events.draw(used)
            steady = plannable and steps.steady(pos, used[0], k)
            plan = steady and events.plan(x, used, *steady, clips, r, domain)
            if plan:
                stop, at, rows, vals = plan.stop, plan.at, plan.rows, plan.vals

        for s in range(used[0]):
            if s < stop:
                # the plan's changes at this step; every other row stays put
                p, q = at[s], at[s + 1]
                if q - p == 1:
                    x[rows[p]] = vals[p]
                elif p < q:
                    x[rows[p:q]] = vals[p:q]
            else:
                # the steps' etas were checked when the chunk's values were filled
                eta_t, eta_next, tau_t, den = steps.at(pos + s, k)
                if stabilized:
                    u, den = _stabilized_base(r, x, x1, eta_t, eta_next)
                else:
                    # u becomes the next iterate, and x the buffer for the one after
                    u, spare = np.divide(x, eta_t, out=spare), x
                if events is None:
                    g = grad.grad_rows(x, buf[s, :k])
                    if steps.clip:
                        g, over = clip_rows(g, tau_t)
                        clips += over
                    u -= g
                else:
                    events.subtract(s, x, u, tau_t if steps.clip else None, clips)
                x = _prox_end(r, domain, u, den)

            if mean is not None:
                np.subtract(x, mean, out=scratch)
                scratch /= t
                mean += scratch
            if wavg is not None:
                w = weighted_avg_weight(t)
                wsum += w
                np.subtract(x, wavg, out=scratch)
                scratch *= w / wsum
                wavg += scratch

            if t in running:
                # the rows whose horizon is t are done
                left = running[t]
                _check_finite(x[left:], t)
                out.x_last[left:k] = x[left:]
                k = left
                x, x1, clips = x[:k], x1[:k], clips[:k]
                spare, scratch = spare[:k], scratch[:k]
                mean = None if mean is None else mean[:k]
                wavg = None if wavg is None else wavg[:k]
            t += 1
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

    Each trial draws its noise in chunks of NOISE_CHUNK states.  After a
    trial's last step, its generator is where whole-chunk draws leave
    it when the trial ends at the end of a chunk.  A trial that ends
    inside a chunk leaves its generator just after the states it ran or,
    for alpha-stable noise, past the chunk's NOISE_CHUNK * d uniforms and
    the exponentials of the states it ran.

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
    with contextlib.ExitStack() as scope:
        scope.enter_context(np.errstate(over="ignore", invalid="ignore"))
        scope.enter_context(_busy_core())
        events = None
        if getattr(oracles[0], "kind", None) == "hard-instance":
            # hard-instance rows draw events, and watch for underflows
            events = _Events(oracles, rngs)
            scope.enter_context(np.errstate(under="call", call=events.underflowed))
        return _run_kernel(
            objective, oracles, schedules, horizons, x_1, rngs, stabilized, aggregate,
            events,
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
