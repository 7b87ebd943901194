"""Gradient oracles, heavy-tailed samplers, and moment machinery.

A noise model is summarized by a triple (p, sigma_s, sigma_l) of declared
moment bounds on the oracle error n = g - grad f:

    E |<e, n>|^p <= sigma_s^p   for every unit vector e,
    E ||n||^p    <= sigma_l^p,

with p in (1, 2].  Validity forces 0 <= sigma_s <= sigma_l, and in
dimension d also sigma_l <= sqrt(pi d / 2) sigma_s (unless both are 0).
The effective dimension d_eff = sigma_l^2 / sigma_s^2 measures how far
the noise is from being aligned with a single direction.

Heavy-tailed noise is alpha-stable, drawn by the Chambers-Mallows-Stuck
(CMS) transform of one uniform angle and one exponential per variate;
a draw of n states takes all n·d uniforms of its generator and then all
n·d exponentials.  Every stable draw fills those two arrays with
_stable_fill, and every oracle draw finishes its states with
GradOracle._finish (CMS, then scales).  GradOracle.draw(rngs, n, out)
draws the states of many rows at once, row r from its own stream
rngs[r] into out[:, r].  A ChunkStream lets a caller draw a chunk of
states a part at a time with the bits of one whole draw: the uniforms
come from a copy of the generator and the exponentials from the
generator itself, moved past the chunk's uniforms.

Work is cut into row blocks of bounded size, one _Job, which the caller
and a lazily started module thread pool claim, one thread per core that
no running kernel keeps busy, each claimer with a scratch slot that the
caller allocates.  A block of a many-row draw fills its rows into its
claimer's slot and finishes them straight into out, so the draw holds
one block's random numbers per claimer, whatever its rows; a draw from
one generator fills its random numbers straight into its result and
transforms them there, a row block at a time.  The transform is elementwise,
so its bits are the same for any cut, any core count and any row layout.
The Monte Carlo verifiers (clipping.clip_error_mc, estimate_moments)
read their chunks from _draw_ahead, whose job for chunk k + 1 fills and
finishes it on module threads while the caller works on chunk k, in
memory the caller allocated (glibc would keep a malloc arena for a chunk
allocated on a module thread).  Only numpy, the untraced _cms and the
rows' generators run on the module threads.  The exact verifiers
(clip_error_exact, estimate_moments with exact=True) walk a finite
support through the same blocks (_SupportWalk).
"""

from __future__ import annotations

import contextlib
import itertools
import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ._util import as_vector, finite_row_norms, row_norms
from .problems import CompositeObjective, subgrad_f_batch
from .schedules import _check_moments, d_eff_of

__all__ = [
    "NoiseSpec",
    "StableParams",
    "sample_alpha_stable",
    "stable_abs_moment",
    "directional_bound_independent",
    "GradOracle",
    "ChunkStream",
    "make_oracle",
    "estimate_moments",
    "d_eff_lower_bound",
    "stable_eps_star",
]


# ---------------------------------------------------------------------------
# declared moment bounds


@dataclass(frozen=True)
class NoiseSpec:
    """Declared (p, sigma_s, sigma_l) moment bounds for an oracle."""

    p: float
    sigma_s: float
    sigma_l: float

    def __post_init__(self):
        p, ss, sl = _check_moments(self.p, self.sigma_s, self.sigma_l, finite=True)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "sigma_s", ss)
        object.__setattr__(self, "sigma_l", sl)

    def check_bracket(self, d: int) -> None:
        """Validate sigma_l <= sqrt(pi d / 2) sigma_s (both-zero allowed)."""
        if self.sigma_l == 0.0:
            return
        if self.sigma_s == 0.0 or self.sigma_l > math.sqrt(math.pi * d / 2.0) * self.sigma_s:
            raise ValueError(
                f"sigma_l={self.sigma_l} exceeds sqrt(pi d/2) sigma_s in d={d}"
            )

    @property
    def d_eff(self) -> float:
        return d_eff_of(self.sigma_s, self.sigma_l)


# ---------------------------------------------------------------------------
# alpha-stable sampling (Chambers-Mallows-Stuck)


@dataclass(frozen=True)
class StableParams:
    """Stability index alpha in (0, 2], skewness beta in [-1, 1], scale gamma."""

    alpha: float
    beta: float = 0.0
    gamma: float = 1.0

    def __post_init__(self):
        a = float(self.alpha)
        b = float(self.beta)
        g = float(self.gamma)
        if not (0.0 < a <= 2.0):
            raise ValueError("stability index alpha must lie in (0, 2]")
        if not (-1.0 <= b <= 1.0):
            raise ValueError("skewness beta must lie in [-1, 1]")
        if not (g >= 0.0) or not np.isfinite(g):
            raise ValueError("scale gamma must be a nonnegative finite real")
        object.__setattr__(self, "alpha", a)
        object.__setattr__(self, "beta", b)
        object.__setattr__(self, "gamma", g)


def sample_alpha_stable(
    params: StableParams, rng: np.random.Generator, size=None
) -> np.ndarray:
    """Draw S_alpha(beta, gamma) variates via the CMS transform.

    Every draw consumes exactly one uniform angle and one exponential,
    regardless of the parameter branch, so stream alignment is stable.
    At alpha = 2 the output is exactly N(0, 2 gamma^2) and beta is
    irrelevant.  The transform runs in place, in row blocks on every
    core (see _split); being elementwise, it gives the same bits for
    any cut.
    """
    phi = np.empty(1 if size is None else size)
    w = np.empty(phi.shape)
    _stable_fill(rng, phi, w)

    def block(a, b):
        _cms(params, phi[a:b], w[a:b], phi[a:b])

    _split(block, len(phi), math.prod(phi.shape[1:]))
    return phi[0] if size is None else phi


def _cms(params: StableParams, phi: np.ndarray, w: np.ndarray, out: np.ndarray) -> None:
    """Write the CMS variates of angles phi and exponentials w into out.

    phi and w are overwritten; out may be phi.  Each branch evaluates the
    textbook expression (in the comment) in the same order of operations
    as a one-line numpy expression would, so the bits are the same.
    """
    alpha = params.alpha
    beta = params.beta
    gamma = params.gamma
    if alpha == 2.0:
        # 2 sqrt(w) sin(phi)
        np.sqrt(w, out=w)
        w *= 2.0
        w *= np.sin(phi, out=phi)
        np.multiply(w, gamma, out=out)
        return
    if beta == 0.0:
        # sin(alpha phi) / cos(phi)^(1/alpha)
        #     * (cos((1 - alpha) phi) / w)^((1 - alpha) / alpha)
        c = np.multiply(phi, 1.0 - alpha)
        np.cos(c, out=c)
        np.divide(c, w, out=w)
        w **= (1.0 - alpha) / alpha
        np.cos(phi, out=c)
        c **= 1.0 / alpha
        phi *= alpha
        np.sin(phi, out=phi)
        phi /= c
        phi *= w
        np.multiply(phi, gamma, out=out)
        return
    if alpha == 1.0:
        # ((pi/2 + beta phi) tan(phi)
        #     - beta log(pi/2 w cos(phi) / (pi/2 + beta phi))) / (pi/2)
        half_pi = math.pi / 2.0
        a = np.multiply(phi, beta)
        a += half_pi
        w *= half_pi
        w *= np.cos(phi)
        w /= a
        np.log(w, out=w)
        w *= beta
        np.tan(phi, out=phi)
        phi *= a
        phi -= w
        phi /= half_pi
        np.multiply(phi, gamma, out=out)
        out += 0.0 if gamma == 0.0 else beta * (2.0 / math.pi) * gamma * math.log(gamma)
        return
    # s0 sin(alpha (phi + b0)) / cos(phi)^(1/alpha)
    #     * (cos(phi - alpha (phi + b0)) / w)^((1 - alpha) / alpha)
    t = math.tan(math.pi * alpha / 2.0)
    b0 = math.atan(beta * t) / alpha
    s0 = (1.0 + (beta * t) ** 2) ** (1.0 / (2.0 * alpha))
    q = np.add(phi, b0)
    q *= alpha
    c = np.subtract(phi, q)
    np.cos(c, out=c)
    np.divide(c, w, out=w)
    w **= (1.0 - alpha) / alpha
    np.sin(q, out=q)
    q *= s0
    np.cos(phi, out=phi)
    phi **= 1.0 / alpha
    q /= phi
    q *= w
    np.multiply(q, gamma, out=out)


# A transform of n elements is cut into blocks of about _BLOCK elements or
# fewer (a few milliseconds of work each, against some tens of
# microseconds to hand a block to a thread) and shared by at most
# n // _BLOCK cores, so a block's temporaries stay small whatever the
# transform's size, a core's share is at least a block, and a caller that
# asks for a chunk drawn ahead mid-transform rarely waits long on a
# started block.  _BLOCK doubles (256 KiB) are also the scratch that a
# skip of uniforms (_skip_doubles) and a draw of hard-instance events
# (hardness.HardInstance.sample_events) hold at a time.
_BLOCK = 1 << 15
_pool: Optional[ThreadPoolExecutor] = None
_pool_pid: Optional[int] = None
_pool_lock = threading.Lock()
_busy = 0  # threads inside _busy_core


@contextlib.contextmanager
def _busy_core():
    """Count the calling thread as keeping a core busy while the block
    runs (a run_trials kernel does, between its draws), so that a split
    transform leaves that core to it."""
    global _busy
    with _pool_lock:
        _busy += 1
    try:
        yield
    finally:
        with _pool_lock:
            _busy -= 1


def _cores() -> int:
    """The cores this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _executor() -> ThreadPoolExecutor:
    """The module's transform threads, made at first use in each process
    (a forked child does not inherit the parent's threads)."""
    global _pool, _pool_pid
    with _pool_lock:
        if _pool_pid != os.getpid():
            _pool = ThreadPoolExecutor(
                max(_cores() - 1, 1), thread_name_prefix="htclip-cms"
            )
            _pool_pid = os.getpid()
        return _pool


def _cuts(rows: int, row_size: int, blocks: int) -> list:
    """Offsets [0, ..., rows] of at most `blocks` row blocks of at least
    one row each that cover range(rows), each starting at an element
    offset that is a multiple of 8, so SIMD loops see the same vector
    lanes and tail as in one pass.  Every block but the last has cuts[1]
    rows; no rows make no block."""
    step = 8 // math.gcd(row_size, 8)
    per = max(-(-rows // (blocks * step)), 1) * step
    return list(range(0, rows, per)) + [rows]


class _Job:
    """Row blocks [cuts[i], cuts[i + 1]), each run as transform(a, b,
    *slot) by the caller or a module thread, one claimer per slot in
    slots (scratch arrays, or none), which the caller allocates.

    Module threads take slots[1:], run under the caller's numpy error
    state and, once first (if given) has run on one of them, claim
    blocks until none is left: next() on an itertools.count is atomic
    under the GIL, so every block runs once.  finish() has the caller
    claim with slots[0] what no thread has started (first too) and wait
    for the rest, raising the first error any claimer raised; cancel()
    drops the unclaimed blocks and waits for the rest.  Either way no
    thread runs a block once it returns.
    """

    def __init__(self, transform, cuts: list, slots: list, first=None):
        self.cuts = cuts
        self.transform = transform
        self.slots = slots
        self.first = first
        self._claim = itertools.count()
        self._start = None
        self._futures = []
        if len(slots) < 2:
            return
        errors = np.geterr()
        pool = _executor()

        def claim(slot):
            with np.errstate(**errors):
                self._work(slot)

        def start():
            if first is not None:
                with np.errstate(**errors):
                    first()
            return [pool.submit(claim, slot) for slot in slots[1:]]

        if first is None:
            self._futures = start()
        else:
            self._start = pool.submit(start)

    def _work(self, slot) -> None:
        """Run blocks until none is left unclaimed."""
        i = next(self._claim)
        while i + 1 < len(self.cuts):
            self.transform(self.cuts[i], self.cuts[i + 1], *slot)
            i = next(self._claim)

    def _drop(self) -> None:
        """Claim every block no thread has started, without running it."""
        while next(self._claim) + 1 < len(self.cuts):
            pass

    def finish(self) -> None:
        try:
            if self._start is not None and not self._start.cancel():
                self._futures = self._start.result()
            elif self.first is not None:
                self.first()  # no module thread has started the job
            self._work(self.slots[0])
        except BaseException:
            self._drop()
            raise
        finally:
            _join(self._futures)

    def cancel(self) -> None:
        self._drop()
        if self._start is not None and not self._start.cancel():
            try:
                _join(self._start.result())
            except Exception:
                pass  # the caller stopped reading chunks before this one


def _join(futures) -> None:
    """Cancel the futures no thread has started and wait for the others;
    then raise the first error any of them raised."""
    wait([f for f in futures if not f.cancel()])
    for f in futures:
        if not f.cancelled():
            f.result()


def _split(transform, rows: int, row_size: int, scratch=lambda most: ()) -> None:
    """Run transform(a, b, *scratch(most)) on row blocks [a, b) that
    cover range(rows), each claimer with its own scratch.

    Rows hold row_size elements each.  The rows are cut into blocks of
    at most about _BLOCK elements (but at least one row) and into at
    least one block per core not kept busy by another thread (see
    _busy_core), up to one core per _BLOCK elements, which the caller
    and a module thread per other such core claim (see _Job).  most is
    the rows of the largest block, so the scratch a split holds is
    bounded by the claimers, not the rows.
    """
    size = rows * row_size
    # a busy caller is one of the _busy threads; an idle caller beside
    # busy ones takes one core too many, a rare and small oversubscription
    cores = min(_cores() - max(_busy - 1, 0), size // _BLOCK)
    blocks = max(cores, -(-size // _BLOCK))
    if blocks < 2:
        transform(0, rows, *scratch(rows))
        return
    cuts = _cuts(rows, row_size, blocks)
    # the caller and a module thread for each free core beside its own,
    # none that would find no block left
    claimers = min(max(cores, 1), len(cuts) - 1)
    _Job(transform, cuts, [scratch(cuts[1]) for _ in range(claimers)]).finish()


class ChunkStream:
    """A generator read in chunks of `doubles` uniforms, so that a caller
    can draw a chunk of alpha-stable states a part at a time with the
    bits of one draw of the whole chunk.

    A stable draw takes all of its uniforms before its exponentials.  So
    the first part of each chunk makes a copy of rng, from which the
    chunk's uniforms come, and moves rng itself past them, where the
    chunk's exponentials start.  Once a chunk's states are all drawn,
    rng is where one draw of the chunk leaves it, and the next part
    starts the next chunk; after fewer, rng is past the chunk's uniforms
    and the exponentials drawn.  Other kinds of states draw from rng as
    usual.  A part may not run past the end of its chunk.
    """

    def __init__(self, rng: np.random.Generator, doubles: int):
        self.rng = rng
        self.doubles = doubles
        self._copy = None
        self._left = 0

    def uniforms(self, count: int) -> np.random.Generator:
        """The generator the next count uniforms of the chunk come from."""
        if self._left == 0:
            bg = self.rng.bit_generator
            if self._copy is None:
                # numpy.random is loaded by now: rng is a Generator
                from ._seeding import blank

                self._copy = blank(type(bg))
            self._copy.bit_generator.state = bg.state
            _skip_doubles(self.rng, self.doubles)
            self._left = self.doubles
        if count > self._left:
            raise ValueError("a draw from a ChunkStream may not cross a chunk edge")
        self._left -= count
        return self._copy


def _stable_scratch(rows: int) -> int:
    """Bytes that an alpha-stable draw of rows rows (GradOracle.draw with
    out) holds beside out, at most: each row's ChunkStream copy of its
    generator (about 700 bytes, counted as 1 KiB), and for each core
    that may claim its row blocks (see _split) a block's angles and
    exponentials, the two block-sized temporaries of _cms and the
    buffers of the strided store (counted as five blocks)."""
    return rows * 1024 + _cores() * 5 * 8 * _BLOCK


def _skip_doubles(rng: np.random.Generator, k: int) -> None:
    """Move rng past k uniform doubles, as rng.random(k) would."""
    bg = rng.bit_generator
    # PCG64's and PCG64DXSM's advance(k) is k draws of one uint64, the
    # word a double takes; Philox.advance counts 256-bit blocks, and SFC64
    # and MT19937 have no advance.  np.random is looked up here, not at
    # import: numpy loads it lazily, and loading it would add its memory
    # and import time to every process that imports htclip.
    if type(bg) in (np.random.PCG64, np.random.PCG64DXSM):
        state = bg.state
        bg.advance(k)
        if state["has_uint32"]:
            # advance drops a buffered 32-bit half, which doubles never read
            moved = bg.state
            moved.update(has_uint32=1, uinteger=state["uinteger"])
            bg.state = moved
        return
    for a in range(0, k, _BLOCK):
        rng.random(min(_BLOCK, k - a))


def _generator(rng) -> np.random.Generator:
    """The generator a draw of other states reads."""
    return rng.rng if isinstance(rng, ChunkStream) else rng


def _stable_fill(rng, phi: np.ndarray, w: np.ndarray) -> None:
    """Fill phi with a stable draw's uniform angles and w with its
    exponentials from rng, a Generator or ChunkStream: bit for bit
    rng.uniform(-pi/2, pi/2, phi.shape), then rng.standard_exponential."""
    uniforms = rng.uniforms(phi.size) if isinstance(rng, ChunkStream) else rng
    uniforms.random(out=phi)
    phi *= math.pi
    phi += -math.pi / 2.0
    _generator(rng).standard_exponential(out=w)


def _draw_ahead(oracle: GradOracle, rng: np.random.Generator, sizes):
    """Yield oracle.draw(rng, m) for each m in sizes, in order, with the
    same bits and leaving rng where those draws would.

    Stable and Gaussian chunks are drawn one ahead: while the caller
    works on chunk k, a module thread fills chunk k + 1 and the module
    threads finish its row blocks; the caller joins in on the blocks
    left when it asks for that chunk (see _Job).  The caller allocates
    the chunks' memory: two (max(sizes), d) state buffers used in turn
    and, for stable noise, one exponential scratch.
    A yielded array is valid until the caller asks for the next chunk
    (its buffer then receives the chunk after that), and rng must not be
    used elsewhere until the generator is exhausted or closed; close it
    (contextlib.closing) so that a caller that stops early, or raises,
    waits for the chunk in flight.  With no idle core beside the caller
    (see _busy_core) no module thread takes a chunk, and the caller draws
    each when it asks for it; so do other oracle kinds.
    """
    sizes = list(sizes)
    if oracle.kind not in ("additive-stable", "additive-gaussian") or not sizes:
        for m in sizes:
            yield oracle.draw(rng, m)
        return
    shape = (max(sizes), oracle.d)
    bufs = (np.empty(shape), np.empty(shape))
    scratch = np.empty(shape) if oracle.kind == "additive-stable" else None

    def ahead(k) -> _Job:
        out = bufs[k % 2][: sizes[k]]
        w = out if scratch is None else scratch[: sizes[k]]  # Gaussian: no w
        cuts = _cuts(sizes[k], oracle.d, max(out.size // _BLOCK, 1))
        # module threads claim every block, even a one-row chunk's, so
        # the chunk is drawn while the caller works
        threads = max(min(_cores() - 1 - _busy, len(cuts) - 1), 0)
        return _Job(
            lambda a, b: oracle._finish(out[a:b], w[a:b], out[a:b]),
            cuts, [()] * (threads + 1), first=lambda: oracle._fill(rng, out, w),
        )

    job = ahead(0)
    try:
        for k in range(len(sizes)):
            current, job = job, None
            current.finish()
            if k + 1 < len(sizes):
                job = ahead(k + 1)
            yield bufs[k % 2][: sizes[k]]
    finally:
        if job is not None:
            job.cancel()


def stable_abs_moment(p: float, alpha: float, gamma: float = 1.0) -> float:
    """E |X|^p for symmetric alpha-stable X with scale gamma; needs p < alpha.

    Uses the closed form
        E|X|^p = gamma^p 2^p Gamma((1+p)/2) Gamma(1 - p/alpha)
                 / (Gamma(1 - p/2) sqrt(pi)).
    The alpha = 2, p = 2 corner returns the Gaussian value 2 gamma^2.
    """
    p = float(p)
    alpha = float(alpha)
    if alpha == 2.0 and p == 2.0:
        return 2.0 * gamma * gamma
    if not (0.0 < p < alpha):
        raise ValueError("stable moment of order p requires p < alpha")
    c = (
        2.0**p
        * math.gamma((1.0 + p) / 2.0)
        * math.gamma(1.0 - p / alpha)
        / (math.gamma(1.0 - p / 2.0) * math.sqrt(math.pi))
    )
    try:
        return float(gamma) ** p * c
    except OverflowError:
        raise ValueError(
            f"stable scale gamma = {gamma:g} is not finite to the power p = {p:g}"
        ) from None


def directional_bound_independent(moments_p: np.ndarray, p: float) -> float:
    """Directional p-th moment bound for independent symmetric coordinates.

    Given m_i = E|n_i|^p, every unit direction e satisfies
        E |<e, n>|^p <= 2^{2-p} (sum_i m_i^{2/(2-p)})^{(2-p)/2}
    for p < 2, degenerating to max_i m_i at p = 2.
    """
    m = np.asarray(moments_p, dtype=float)
    if p == 2.0:
        return float(np.max(m)) if m.size else 0.0
    ex = 2.0 / (2.0 - p)
    with np.errstate(over="ignore"):  # a bound past the floats is inf
        s = float(np.add.reduce(m**ex))
    return 2.0 ** (2.0 - p) * s ** ((2.0 - p) / 2.0)


# ---------------------------------------------------------------------------
# gradient oracles

_ORACLE_KINDS = ("deterministic", "additive-gaussian", "additive-stable", "hard-instance")


@dataclass(frozen=True)
class GradOracle:
    """Stochastic subgradient oracle g(x, xi) with declared moment bounds.

    The oracle is split into a state draw (noise-only, position free) and
    a deterministic map (x, state) -> gradient row.  That split is what
    lets the batch runner draw noise ahead of the steps, a sub-chunk of
    many rows at a time, without changing the stream layout.
    """

    kind: str
    noise: NoiseSpec
    objective: CompositeObjective
    scales: Optional[np.ndarray] = None
    stable: Optional[StableParams] = None
    instance: Optional[object] = None

    def __post_init__(self):
        if self.kind not in _ORACLE_KINDS:
            raise ValueError(f"unknown oracle kind: {self.kind!r}")
        if self.kind in ("additive-gaussian", "additive-stable"):
            if self.scales is None:
                raise ValueError(f"{self.kind} oracle requires per-coordinate scales")
            object.__setattr__(
                self, "scales", as_vector(self.scales, self.objective.d)
            )
            if np.any(np.asarray(self.scales) < 0):
                raise ValueError("noise scales must be nonnegative")
        if self.kind == "additive-stable" and self.stable is None:
            raise ValueError("additive-stable oracle requires StableParams")
        if self.kind == "hard-instance" and self.instance is None:
            raise ValueError("hard-instance oracle requires an instance payload")

    @property
    def d(self) -> int:
        return self.objective.d

    @property
    def state_dtype(self) -> np.dtype:
        """dtype of drawn states: int8 outcome codes for hard instances."""
        return np.dtype(np.int8 if self.kind == "hard-instance" else float)

    def _fill(self, rng, states: np.ndarray, w: np.ndarray) -> None:
        """Fill states with the random numbers of a stable or Gaussian
        draw from rng, a Generator or ChunkStream, and for stable noise w
        with its exponentials; Gaussian noise leaves w alone."""
        if self.kind == "additive-stable":
            _stable_fill(rng, states, w)
        else:
            _generator(rng).standard_normal(out=states)

    def _finish(self, states: np.ndarray, w: np.ndarray, out: np.ndarray) -> None:
        """Turn filled states (and w) into the draw's states in out, which
        may be states: the CMS transform, then the scales, for stable
        noise, and the scales alone for Gaussian noise."""
        if self.kind == "additive-stable":
            _cms(self.stable, states, w, out)
            out *= self.scales
        else:
            np.multiply(states, self.scales, out=out)

    def draw(self, rng, n: int, out: Optional[np.ndarray] = None) -> np.ndarray:
        """Draw n oracle noise states as an (n, d) array of state_dtype.

        rng is a Generator or a ChunkStream over one.  With out, an
        (n, rows, d) array of state_dtype, rng is a sequence of one such
        stream per row instead, over distinct generators: row r's states
        come from rng[r] into out[:, r], and out is returned.  Alpha-stable
        rows are drawn and transformed a row block at a time, on every
        core (see _split), each block in its claimer's scratch.  Many
        hard-instance rows are drawn as their nonzero states only
        (HardInstance.sample_events), so out is refused for them.  Without
        out, the states are filled straight into the result and
        transformed there in row blocks, so the draw holds no more than
        the result and, for alpha-stable states, their exponentials.
        """
        d = self.d
        if out is None:  # one generator: its states go straight into the result
            if self.kind == "hard-instance":
                return self.instance.sample_xi(rng, n)
            states = np.zeros((n, d))
            if self.kind != "deterministic":
                w = np.empty((n, d)) if self.kind == "additive-stable" else states
                self._fill(rng, states, w)
                _split(lambda a, b: self._finish(states[a:b], w[a:b], states[a:b]), n, d)
            return states
        if self.kind == "hard-instance":
            raise ValueError("draw many hard-instance rows with HardInstance.sample_events")
        shape = (n, len(rng), d)
        if out.dtype != self.state_dtype or out.shape != shape:
            raise ValueError(
                f"out must be a {self.state_dtype} array of shape {shape}, "
                f"got {out.dtype} {out.shape}"
            )
        if self.kind == "additive-stable":
            by_row = out.transpose(1, 0, 2)

            def block(a, b, phi, w):
                for r in range(a, b):
                    self._fill(rng[r], phi[r - a], w[r - a])
                self._finish(phi[: b - a], w[: b - a], by_row[a:b])

            def scratch(most):
                return np.empty((most, n, d)), np.empty((most, n, d))

            _split(block, len(rng), n * d, scratch)
            return out
        if self.kind == "deterministic":
            out[...] = 0.0
            return out
        z = np.empty((n, d))
        for r, stream in enumerate(rng):
            self._fill(stream, z, z)
            self._finish(z, z, out[:, r])
        return out

    def grad_rows(self, X: np.ndarray, states: np.ndarray) -> np.ndarray:
        """Map positions and drawn states to stochastic subgradient rows."""
        if self.kind == "hard-instance":
            return self.instance.grad_rows(X, states)
        return subgrad_f_batch(self.objective, X) + states

    def grad_bound(self) -> float:
        """A bound no computed row_norms of a grad_rows row exceeds: the
        hard instance's (HardInstance.grad_bound), +inf for other kinds."""
        if self.kind == "hard-instance":
            return self.instance.grad_bound()
        return math.inf

    def grad(self, x: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return self.grad_rows(x[None, :], self.draw(rng, 1))[0]

    def mean_grad(self, x: np.ndarray) -> np.ndarray:
        """E[g(x, xi)], the true subgradient selection at x."""
        x = np.asarray(x, dtype=float)
        if self.kind == "hard-instance":
            return self.instance.mean_grad(x)
        return subgrad_f_batch(self.objective, x[None, :])[0]

    def support(self, cap: Optional[int] = None):
        """(states, probs) for finitely supported noise, else None; a
        hard instance raises before enumerating more than cap states
        (default hardness.SUPPORT_CAP)."""
        if self.kind == "deterministic":
            return np.zeros((1, self.d)), np.ones(1)
        if self.kind == "hard-instance":
            return self.instance.support(cap)
        return None

    def product_support(self, cap: Optional[int] = None):
        """(active, masses) for finitely supported noise, whose states
        are products of per-coordinate outcomes 0, +1 and -1
        (HardInstance.product_support; deterministic noise has no active
        coordinate), else None; a hard instance raises if it has more
        than cap states (default hardness.SUPPORT_CAP)."""
        if self.kind == "deterministic":
            return np.zeros(0, np.intp), np.ones((3, self.d))
        if self.kind == "hard-instance":
            return self.instance.product_support(cap)
        return None


def make_oracle(
    objective: CompositeObjective,
    kind: str,
    *,
    scales=None,
    stable: Optional[StableParams] = None,
    instance: Optional[object] = None,
    declared_noise: Optional[NoiseSpec] = None,
    p: Optional[float] = None,
) -> GradOracle:
    """Build a GradOracle, deriving declared moment bounds when omitted.

    Derivations (independent coordinates):
      - gaussian with per-coordinate std s_i: p = 2, sigma_s = max_i s_i,
        sigma_l = ||s||_2 (exact bounds);
      - stable with index alpha and moment order p < alpha: per-coordinate
        m_i = E|xi_i|^p in closed form, sigma_l^p = sum_i m_i and sigma_s^p
        from the independent-coordinate directional bound;
      - deterministic: (2, 0, 0);
      - hard-instance: taken from the instance declaration.
    """
    if kind == "deterministic":
        spec = declared_noise or NoiseSpec(2.0, 0.0, 0.0)
        if spec.sigma_l != 0.0:
            raise ValueError("deterministic oracle must declare zero noise")
        return GradOracle(kind, spec, objective)

    if kind == "additive-gaussian":
        s = as_vector(scales, objective.d)
        if declared_noise is None:
            declared_noise = NoiseSpec(2.0, float(np.max(s)), float(finite_row_norms(s)))
        declared_noise.check_bracket(objective.d)
        return GradOracle(kind, declared_noise, objective, scales=s)

    if kind == "additive-stable":
        if stable is None:
            raise ValueError("additive-stable oracle requires StableParams")
        s = as_vector(scales, objective.d)
        if declared_noise is None:
            if p is None:
                raise ValueError("deriving stable moment bounds requires the order p")
            p = float(p)
            if not (p < stable.alpha or (p == 2.0 and stable.alpha == 2.0)):
                raise ValueError(
                    f"moment order p={p} must be below the stability index "
                    f"alpha={stable.alpha}"
                )
            m = np.array(
                [stable_abs_moment(p, stable.alpha, float(stable.gamma) * float(si))
                 for si in s]
            )
            sig_l_p = float(np.add.reduce(m))
            sig_s_p = min(directional_bound_independent(m, p), sig_l_p)
            declared_noise = NoiseSpec(p, sig_s_p ** (1.0 / p), sig_l_p ** (1.0 / p))
        else:
            if declared_noise.p >= stable.alpha and stable.alpha < 2.0:
                raise ValueError(
                    "declared moment order is not finite for this stability index"
                )
        return GradOracle(kind, declared_noise, objective, scales=s, stable=stable)

    if kind == "hard-instance" and instance is not None:
        declared_noise = declared_noise or instance.noise_spec()
    # GradOracle rejects an unknown kind and a hard instance without one
    return GradOracle(kind, declared_noise, objective, instance=instance)


# ---------------------------------------------------------------------------
# finite supports

# numpy's bundled OpenBLAS keeps a product on one thread up to these
# sizes and splits a larger one across its threads, whose count then
# changes the bits of the sums: gemv while m * n < 2304 *
# GEMM_MULTITHREAD_THRESHOLD (interface/gemv.c), gemm while m * n * k <=
# SMP_THRESHOLD_MIN * GEMM_MULTITHREAD_THRESHOLD (interface/gemm.c), with
# SMP_THRESHOLD_MIN = 65536 and the build option GEMM_MULTITHREAD_THRESHOLD
# at its default 4; dot while n <= 10,000 (kernel/x86_64/ddot.c).  Another
# BLAS, or an OpenBLAS built with another threshold, may split elsewhere.
_GEMV_SERIAL = 2304 * 4 - 1
_GEMM_SERIAL = 65536 * 4
# the float64 entries of block partials a walk holds at a time (2 MiB)
_SLOTS = 1 << 18


def _walk_exponent(d: int, width: int) -> int:
    """The largest b for which a block of 3^b rows of length d keeps its
    sums over rows (gemv of up to max(d, width) columns, dot of one
    column) and its product with a (d, width) matrix (gemm) serial."""
    b = 0
    while (3 ** (b + 1) * max(d, width) <= _GEMV_SERIAL
           and 3 ** (b + 1) * d * width <= _GEMM_SERIAL):
        b += 1
    return b


class _SupportWalk:
    """The gradient rows at x of a finitely supported oracle's states,
    walked in fixed blocks of rows, on every core.

    The states are the product of the active coordinates' outcomes 0,
    +1 and -1 (GradOracle.product_support) in itertools.product order,
    so a block of 3^b rows aligned on 3^b fixes each outer active
    coordinate and runs the b inner ones through one pattern.  A row is
    built from each coordinate's three outcome values at x, grad_rows of
    the codes 0, +1 and -1, which are the entries grad_rows makes of any
    state, so no states array is built.  A block's probabilities are its
    states' products of masses, multiplied in coordinate order as
    HardInstance.support multiplies them.  b is the largest exponent
    whose block sums stay serial in OpenBLAS (_walk_exponent): 3^6 rows
    at d = 12, the whole support when it is smaller.
    """

    def __init__(self, oracle: GradOracle, x: np.ndarray, active, masses, width: int):
        d = oracle.d
        k = len(active)
        b = min(k, _walk_exponent(d, width))
        self.d, self.rows, self.blocks = d, 3**b, 3 ** (k - b)
        self.states = 3**k
        self.outer, self.inner = active[: k - b], active[k - b :]
        self.masses = masses
        # the outer coordinates' outcomes, one row a block, last fastest
        self.codes = np.indices((3,) * (k - b)).reshape(k - b, self.blocks).T
        codes = np.zeros((3, d), np.int8)
        codes[1], codes[2] = 1, -1
        self.values = oracle.grad_rows(x[None, :], codes)
        self.pattern = np.empty((self.rows, d))
        self.pattern[:] = self.values[0]
        per = self.rows
        for i in self.inner:
            per //= 3
            view = self.pattern.reshape(-1, 3, per, d)
            view[:, 1, :, i] = self.values[1, i]
            view[:, 2, :, i] = self.values[2, i]

    def fill(self, a: int, b: int, G: np.ndarray) -> np.ndarray:
        """Write the gradient rows of blocks [a, b) into G, a (b - a,
        rows, d) array; return their (b - a, rows) probabilities."""
        codes = self.codes[a:b]
        G[...] = self.pattern
        G[:, :, self.outer] = self.values[codes, self.outer][:, None, :]
        w = np.ones((b - a, 1))
        for c, o in zip(codes.T, self.outer):
            w *= self.masses[c, o][:, None]
        for o in self.inner:
            w = (w[:, :, None] * self.masses[:, o]).reshape(b - a, -1)
        return w

    def sums(self, step, *shapes) -> list:
        """The sums over all blocks of per-block partials, one array a
        shape in shapes, each added in block order from the first block.

        step(a, b, G, probs, *outs) writes the partials of blocks [a, b)
        into outs, one (b - a, *shape) array a shape, with G their
        (b - a, rows, d) gradient rows (which step may overwrite) and
        probs their (b - a, rows) probabilities.  step should compute
        each block's partials by itself (a stacked matmul makes one BLAS
        call a block), so that they do not depend on the run.  The blocks
        go in windows whose partials fill at most _SLOTS entries (a block
        at least), so the partials held do not grow with the blocks; a
        window's runs are _split's, claimed by the caller and a module
        thread per free core, each claimer with its own G, and its
        partials join the sums before the next window starts.  A run is
        one stacked array so that a claimer makes one numpy call per step
        of a run, not of a block: with a block per call, two claimers
        took longer than one, handing the interpreter lock to each other
        at every call."""
        rows, d = self.rows, self.d
        window = min(max(_SLOTS // sum(math.prod(s) for s in shapes), 1), self.blocks)
        slots = [np.empty((window, *s)) for s in shapes]
        totals = None
        for lo in range(0, self.blocks, window):
            n = min(window, self.blocks - lo)

            def blocks(a, b, G):
                G = G[: b - a]
                probs = self.fill(lo + a, lo + b, G)
                step(lo + a, lo + b, G, probs, *(s[a:b] for s in slots))

            _split(blocks, n, rows * d, lambda most: (np.empty((most, rows, d)),))
            # added a block at a time: np.sum leaves its order open, and
            # np.cumsum over the blocks runs each entry's blocks apart,
            # which is many times slower than the add
            for i in range(n):
                if totals is None:
                    totals = [s[i].copy() for s in slots]
                    continue
                for s, total in zip(slots, totals):
                    total += s[i]
        return totals


# ---------------------------------------------------------------------------
# empirical moments


def estimate_moments(
    oracle: GradOracle,
    x: np.ndarray,
    p: float,
    *,
    n_samples: int = 100_000,
    n_directions: int = 16,
    rng: Optional[np.random.Generator] = None,
    exact: bool = False,
    grad_true: Optional[np.ndarray] = None,
):
    """Estimate (sigma_s^p lower bound, sigma_l^p) of the oracle error at x.

    The directional moment is maximized over the d coordinate directions
    plus n_directions random unit vectors; by definition this is a lower
    bound on the true sigma_s^p.  With exact=True the oracle must have
    finite support and both quantities are computed by enumeration.
    """
    x = as_vector(x, oracle.d)
    if grad_true is None:
        grad_true = oracle.mean_grad(x)
    grad_true = as_vector(grad_true, oracle.d)
    d = oracle.d
    if rng is None:
        rng = np.random.default_rng(0)
    dirs = np.eye(d)
    if n_directions > 0:
        extra = rng.standard_normal((n_directions, d))
        nrm = row_norms(extra)
        keep = nrm > 0
        dirs = np.concatenate([dirs, extra[keep] / nrm[keep, None]], axis=0)

    if exact:
        supp = oracle.product_support()
        if supp is None:
            raise ValueError("exact moment computation requires finite support")
        walk = _SupportWalk(oracle, x, *supp, width=len(dirs))

        def sums(a, b, G, probs, out):
            P = probs[:, None, :]
            noise = G - grad_true
            out[:, 0] = (P @ (row_norms(noise) ** p)[..., None])[:, 0, 0]
            out[:, 1:] = (P @ (np.abs(noise @ dirs.T) ** p))[:, 0]

        (total,) = walk.sums(sums, (1 + len(dirs),))
        return float(np.max(total[1:])), float(total[0])

    n = int(n_samples)
    if n < 1:
        raise ValueError("n_samples must be positive")
    chunk = 1 << 14
    tot_l = 0.0
    tot_dir = np.zeros(dirs.shape[0])
    sizes = [min(chunk, n - a) for a in range(0, n, chunk)]
    with contextlib.closing(_draw_ahead(oracle, rng, sizes)) as draws:
        for states in draws:
            noise = oracle.grad_rows(x[None, :], states) - grad_true
            tot_l += float(np.add.reduce(row_norms(noise) ** p))
            tot_dir += np.add.reduce(np.abs(noise @ dirs.T) ** p, axis=0)
    return float(np.max(tot_dir) / n), tot_l / n


# ---------------------------------------------------------------------------
# effective-dimension lower bounds


def stable_eps_star(d: int, p: float) -> float:
    """Optimized tail gap eps for the stable lower bound in dimension d."""
    if d < 2:
        raise ValueError("stable lower bound requires d >= 2")
    return min(p / (2.0 * math.log(d) - 1.0), 2.0 - p)


def d_eff_lower_bound(
    variant: str,
    *,
    sigmas=None,
    d: Optional[int] = None,
    p: Optional[float] = None,
    eps: Optional[float] = None,
) -> float:
    """Constructive lower bounds on the worst-case effective dimension.

    variant "independent": coordinates are independent symmetric with
    directional p-th moments sigmas (sorted internally); returns
        max_j j^{1-2/p} (sum_{i<=j} s_(i)^p)^{2/p}
          / ( 2^{4/p-2} (sum_i s_i^{2p/(2-p)})^{2/p-1} ),
    with the p = 2 limit sum s_i^2 / max s_i^2.

    variant "iid": equal scales, d^{2-2/p} / 2^{4/p-2} (equals d at p=2).

    variant "stable": iid symmetric (p+eps)-stable coordinates, d >= 2,
    p in (1, 2); eps defaults to the optimized value and must satisfy
    0 < eps <= min(p/(2 ln d - 1), 2 - p); returns
        (p-1) d^{1 - 2 eps / (p (p+eps))} / (p^3 3^4 2^{4/p}),
    which is Omega(d) uniformly over admissible eps.
    """
    if variant == "independent":
        if sigmas is None or p is None:
            raise ValueError("independent variant requires sigmas and p")
        s = np.sort(np.asarray(sigmas, dtype=float))[::-1]
        if s.size == 0 or np.any(s < 0):
            raise ValueError("sigmas must be a nonempty nonnegative vector")
        p = _check_moments(p)[0]
        if s[0] == 0.0:
            return 0.0
        with np.errstate(over="ignore", under="ignore"):  # checked below
            if p == 2.0:
                num, den = np.add.reduce(s * s), s[0] * s[0]
            else:
                j = np.arange(1, s.size + 1, dtype=float)
                num = np.max(j ** (1.0 - 2.0 / p) * np.cumsum(s**p) ** (2.0 / p))
                den = 2.0 ** (4.0 / p - 2.0) * float(
                    np.add.reduce(s ** (2.0 * p / (2.0 - p)))
                ) ** (2.0 / p - 1.0)
        if not (0.0 < num < math.inf and 0.0 < den < math.inf):
            raise ValueError(f"sigmas must keep their powers in the floats at p = {p:g}")
        return float(num / den)

    if variant == "iid":
        if d is None or p is None:
            raise ValueError("iid variant requires d and p")
        if d < 1:
            raise ValueError("d must be a positive integer")
        p = _check_moments(p)[0]
        return float(d) ** (2.0 - 2.0 / p) / 2.0 ** (4.0 / p - 2.0)

    if variant == "stable":
        if d is None or p is None:
            raise ValueError("stable variant requires d and p")
        if not (1.0 < p < 2.0):
            raise ValueError("stable variant requires p in (1, 2)")
        cap = stable_eps_star(d, p)
        if eps is None:
            eps = cap
        eps = float(eps)
        if not (0.0 < eps <= cap):
            raise ValueError(f"eps must lie in (0, {cap}]")
        expo = 1.0 - 2.0 * eps / (p * (p + eps))
        return (p - 1.0) * float(d) ** expo / (p**3 * 81.0 * 2.0 ** (4.0 / p))

    raise ValueError(f"unknown variant: {variant!r}")
