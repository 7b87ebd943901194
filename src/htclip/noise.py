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
(CMS) transform of one uniform angle and one exponential per variate.
GradOracle.draw(rng, n, out=m_rows) draws the random numbers of all n
states, so an rng stream advances by the same amount whatever part of a
draw is used, but makes only the first m states, into out.  The CMS
transform runs in place on the drawn arrays, and a large one is cut into
row blocks, one per core that no other running kernel keeps busy, which
the caller and a lazily started module thread pool transform at once.
The transform is elementwise, so its bits are the same for any cut and
any core count.
"""

from __future__ import annotations

import contextlib
import itertools
import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ._util import as_vector, finite_row_norms, row_norms
from .problems import CompositeObjective, subgrad_f_batch
from .schedules import d_eff_of

__all__ = [
    "NoiseSpec",
    "StableParams",
    "sample_alpha_stable",
    "stable_abs_moment",
    "directional_bound_independent",
    "GradOracle",
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
        p = float(self.p)
        ss = float(self.sigma_s)
        sl = float(self.sigma_l)
        if not (1.0 < p <= 2.0):
            raise ValueError("moment order p must lie in (1, 2]")
        if not np.isfinite(sl):
            raise ValueError(f"noise sigma_l is not finite ({sl})")
        if not (0.0 <= ss <= sl):
            raise ValueError(
                "need 0 <= sigma_s <= sigma_l: the directional moment bound "
                "cannot exceed the full-norm bound"
            )
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
    params: StableParams, rng: np.random.Generator, size=None, out=None
) -> np.ndarray:
    """Draw S_alpha(beta, gamma) variates via the CMS transform.

    Every draw consumes exactly one uniform angle and one exponential,
    regardless of the parameter branch, so stream alignment is stable.
    At alpha = 2 the output is exactly N(0, 2 gamma^2) and beta is
    irrelevant.

    With out, an array of shape (m,) + size[1:] with m <= size[0], every
    variate of size is still drawn from rng, but only the first m along
    axis 0 are transformed, into out, which is returned.  The transform
    runs in place on the drawn arrays, and a transform of many variates
    is cut into row blocks transformed on every core (see _split); being
    elementwise, its result is the same for any cut.
    """
    phi = rng.uniform(-math.pi / 2.0, math.pi / 2.0, size)
    w = rng.standard_exponential(size)
    if size is None:
        if out is not None:
            raise ValueError("out needs an array size")
        phi, w = np.array([phi]), np.array([w])
        _cms(params, phi, w, phi)
        return phi[0]
    if out is None:
        out = phi
    elif out.dtype != phi.dtype or out.shape[1:] != phi.shape[1:] or len(out) > len(phi):
        raise ValueError(
            f"out must be a float array of shape (m,) + {phi.shape[1:]} with "
            f"m <= {len(phi)}, got {out.dtype} {out.shape}"
        )
    _split(
        lambda a, b: _cms(params, phi[a:b], w[a:b], out[a:b]),
        len(out),
        math.prod(phi.shape[1:]),
    )
    return out


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


# A transform of n elements is cut into at most n // _SPLIT_MIN blocks, so
# a block has at least _SPLIT_MIN elements: about half a millisecond of
# work, against some tens of microseconds to hand a block to a thread.
_SPLIT_MIN = 1 << 13
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


def _split(transform, rows: int, row_size: int) -> None:
    """Run transform(a, b) on row blocks [a, b) that cover range(rows).

    Rows hold row_size elements each.  With enough elements the rows are
    cut into one block per core not kept busy by another thread (see
    _busy_core), which the caller and the module's threads claim one at
    a time; a thread runs its blocks under the caller's numpy error
    state.  The caller claims until no block is left, so it never waits
    on a thread that has not started.  Every block starts at an element
    offset that is a multiple of 8, so SIMD loops see the same vector
    lanes and tail as in one pass.
    """
    # a busy caller is one of the _busy threads; an idle caller beside
    # busy ones takes one core too many, a rare and small oversubscription
    blocks = min(_cores() - max(_busy - 1, 0), rows * row_size // _SPLIT_MIN)
    if blocks < 2:
        transform(0, rows)
        return
    step = 8 // math.gcd(row_size, 8)
    per = -(-rows // (blocks * step)) * step
    cuts = list(range(0, rows, per)) + [rows]
    claim = itertools.count()  # next() on it is atomic under the GIL

    def work():
        i = next(claim)
        while i + 1 < len(cuts):
            transform(cuts[i], cuts[i + 1])
            i = next(claim)

    errors = np.geterr()

    def work_in_thread():
        with np.errstate(**errors):
            work()

    pool = _executor()
    futures = [pool.submit(work_in_thread) for _ in range(len(cuts) - 2)]
    try:
        work()
    finally:
        for f in futures:
            if not f.cancel():
                f.result()


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
    return gamma**p * c


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
    lets the batch runner prefetch noise in fixed-size chunks without
    changing the stream layout.
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

    def draw(
        self, rng: np.random.Generator, n: int, out: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Draw n oracle noise states as an (n, d) array of state_dtype.

        With out, an (m, d) array of state_dtype with m <= n, the random
        numbers of all n states are still drawn from rng, but only the
        first m states are made, into out, which is returned.
        """
        if self.kind == "additive-stable":
            states = sample_alpha_stable(self.stable, rng, (n, self.d), out=out)
            states *= self.scales
            return states
        if self.kind == "additive-gaussian":
            z = rng.standard_normal((n, self.d))
            if out is None:
                out = z
            return np.multiply(z[: len(out)], self.scales, out=out)
        if self.kind == "deterministic":
            states = np.zeros((n, self.d))
        else:
            states = self.instance.sample_xi(rng, n)
        if out is None:
            return states
        out[...] = states[: len(out)]
        return out

    def grad_rows(self, X: np.ndarray, states: np.ndarray) -> np.ndarray:
        """Map positions and drawn states to stochastic subgradient rows."""
        if self.kind == "hard-instance":
            return self.instance.grad_rows(X, states)
        return subgrad_f_batch(self.objective, X) + states

    def grad(self, x: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return self.grad_rows(x[None, :], self.draw(rng, 1))[0]

    def mean_grad(self, x: np.ndarray) -> np.ndarray:
        """E[g(x, xi)], the true subgradient selection at x."""
        x = np.asarray(x, dtype=float)
        if self.kind == "hard-instance":
            return self.instance.mean_grad(x)
        return subgrad_f_batch(self.objective, x[None, :])[0]

    def support(self):
        """(states, probs) for finitely supported noise, else None."""
        if self.kind == "deterministic":
            return np.zeros((1, self.d)), np.ones(1)
        if self.kind == "hard-instance":
            return self.instance.support()
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
                [stable_abs_moment(p, stable.alpha, stable.gamma * si) for si in s]
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

    if kind == "hard-instance":
        if instance is None:
            raise ValueError("hard-instance oracle requires an instance payload")
        spec = declared_noise or instance.noise_spec()
        return GradOracle(kind, spec, objective, instance=instance)

    raise ValueError(f"unknown oracle kind: {kind!r}")


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
        supp = oracle.support()
        if supp is None:
            raise ValueError("exact moment computation requires finite support")
        states, probs = supp
        G = oracle.grad_rows(np.broadcast_to(x, states.shape), states)
        noise = G - grad_true
        sig_l_p = float(probs @ row_norms(noise) ** p)
        proj = np.abs(noise @ dirs.T) ** p
        sig_s_p = float(np.max(probs @ proj))
        return sig_s_p, sig_l_p

    chunk = 1 << 14
    remaining = int(n_samples)
    if remaining < 1:
        raise ValueError("n_samples must be positive")
    tot_l = 0.0
    tot_dir = np.zeros(dirs.shape[0])
    seen = 0
    while remaining > 0:
        m = min(chunk, remaining)
        states = oracle.draw(rng, m)
        G = oracle.grad_rows(np.broadcast_to(x, (m, d)), states)
        noise = G - grad_true
        tot_l += float(np.add.reduce(row_norms(noise) ** p))
        tot_dir += np.add.reduce(np.abs(noise @ dirs.T) ** p, axis=0)
        seen += m
        remaining -= m
    return float(np.max(tot_dir) / seen), tot_l / seen


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
        if not (1.0 < p <= 2.0):
            raise ValueError("moment order p must lie in (1, 2]")
        if s[0] == 0.0:
            return 0.0
        if p == 2.0:
            return float(np.add.reduce(s * s) / (s[0] * s[0]))
        j = np.arange(1, s.size + 1, dtype=float)
        num = np.max(j ** (1.0 - 2.0 / p) * np.cumsum(s**p) ** (2.0 / p))
        den = 2.0 ** (4.0 / p - 2.0) * float(
            np.add.reduce(s ** (2.0 * p / (2.0 - p)))
        ) ** (2.0 / p - 1.0)
        return float(num / den)

    if variant == "iid":
        if d is None or p is None:
            raise ValueError("iid variant requires d and p")
        if d < 1:
            raise ValueError("d must be a positive integer")
        if not (1.0 < p <= 2.0):
            raise ValueError("moment order p must lie in (1, 2]")
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
