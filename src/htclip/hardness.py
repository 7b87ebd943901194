"""Hard-instance generators matching the convergence lower bounds.

Both families draw coordinates of xi independently from the three-point
law D_v:  xi_i = 0 with probability 1 - q_i, +1 with (1 + v_i theta_i) q_i / 2,
-1 with (1 - v_i theta_i) q_i / 2, where v is a sign codeword.

Convex family (kind "cvx"):
    f(x, xi) = sum_i M_i |xi_i| |x_i - xi_i y_i|,
    stochastic subgradient  M_i |xi_i| sign(x_i - xi_i y_i) e_i,
    minimizer x*_i = v_i y_i, F* = sum_i (1 - theta_i) q_i M_i |y_i|.

Strongly convex family (kind "str"): f(x, xi) = -mu <x, M * xi> plus the
quadratic regularizer (mu/2)||x||^2, so F_v is a shifted parabola with
minimizer x*_i = mu-free mean M_i q_i theta_i v_i and
F* = -(mu/2)||x*||^2.

Active coordinates are the first d_star of d; the rest have M_i = q_i = 0
and never produce gradient mass.  The declared noise bounds are
(p, sigma_l / sqrt(d_star), sigma_l): with the sigma-branch magnitude M
both are tight for the directional and full-norm moments respectively.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np

from ._util import as_vector, row_norms
from .noise import _BLOCK, GradOracle, NoiseSpec, _generator, make_oracle
from .problems import (
    AllSpace,
    CompositeObjective,
    HardCvx,
    HardStr,
    Optimum,
    QuadReg,
)
from .schedules import _check_moments

__all__ = [
    "HARD_REGIMES",
    "HardParams",
    "hard_params",
    "HardInstance",
    "sample_dv",
    "make_hard_instance",
    "Codebook",
    "gv_codebook",
    "two_point_codebook",
    "pad_codewords",
]

HARD_REGIMES = ("cvx-fano", "cvx-twopoint", "str-fano", "str-twopoint")

SUPPORT_CAP = 2_000_000

# the largest d_star a gv codebook is built for: its ceil(exp(48 / 8)) =
# 404 words are picked by an O(words^2) scan, and each 8 more multiply
# the words by e and the scan by about 7
GV_MAX_D_STAR = 48

@dataclass(frozen=True)
class HardParams:
    """Resolved scalars (q, theta, M, y) for one lower-bound regime."""

    regime: str
    d_star: int
    T: int
    G: float
    D: float
    mu: float
    sigma_l: float
    sigma_s: float
    p: float
    delta: Optional[float]
    q: float
    theta: float
    M: float
    y: float

    def to_dict(self) -> dict:
        return asdict(self)


def _twopoint_q(T: int, d_star: int, theta: float, delta: float) -> float:
    if not (0.0 < delta < 1.0 / 8.0):
        raise ValueError("two-point regimes require delta in (0, 1/8)")
    kl = theta * math.log((1.0 + theta) / (1.0 - theta))
    return min(math.log(1.0 / (8.0 * delta)) / (T * d_star * kl), 1.0)


def hard_params(
    regime: str,
    *,
    d_star: int,
    T: int,
    G: float,
    D: float,
    sigma_l: float,
    p: float,
    mu: float = 0.0,
    delta: Optional[float] = None,
) -> HardParams:
    """Resolve (q, theta, M, y) for a lower-bound regime.

    Fano regimes use q = 1/T and theta = 1/10; two-point regimes use
    theta = 1/2 and the delta-dependent q.  The magnitude M is the
    minimum of the Lipschitz-budget and noise-budget branches.
    """
    if regime not in HARD_REGIMES:
        raise ValueError(f"unknown hard regime: {regime!r}")
    d_star = int(d_star)
    T = int(T)
    if d_star < 1 or T < 1:
        raise ValueError("d_star and T must be positive integers")
    G = float(G)
    D = float(D)
    sigma_l = float(sigma_l)
    mu = float(mu)
    if not (G > 0 and D > 0 and sigma_l > 0):
        raise ValueError("G, D, sigma_l must be positive")
    p = _check_moments(p)[0]
    strongly = regime.startswith("str")
    if strongly and mu <= 0.0:
        raise ValueError("strongly convex regimes require mu > 0")
    if not strongly and mu != 0.0:
        raise ValueError("convex regimes require mu = 0")

    if regime.endswith("fano"):
        q = 1.0 / T
        theta = 0.1
    else:
        theta = 0.5
        if delta is None:
            raise ValueError("two-point regimes require delta")
        q = _twopoint_q(T, d_star, theta, float(delta))

    rd = math.sqrt(d_star)
    if strongly:
        M = min(
            D / (theta * q * rd),
            G / (mu * theta * q * rd),
            sigma_l / (mu * (4.0 * q * d_star) ** (1.0 / p)),
        )
        y = 0.0
    else:
        M = min(G / (q * rd), sigma_l / ((4.0 * q * d_star) ** (1.0 / p)))
        y = D / rd
    return HardParams(
        regime=regime,
        d_star=d_star,
        T=T,
        G=G,
        D=D,
        mu=mu,
        sigma_l=sigma_l,
        sigma_s=sigma_l / rd,
        p=p,
        delta=None if delta is None else float(delta),
        q=q,
        theta=theta,
        M=M,
        y=y,
    )


@dataclass(frozen=True)
class HardInstance:
    """Concrete instance: per-coordinate arrays plus optimum metadata.

    wp and wm, the cvx family's mean-gradient weights, are derived from
    the fields on construction, as are the sampling thresholds.
    """

    kind: str
    d: int
    d_star: int
    v: np.ndarray
    q: np.ndarray
    theta: np.ndarray
    M: np.ndarray
    y: np.ndarray
    mu: float
    x_star: np.ndarray
    F_star: float
    p: float
    sigma_s: float
    sigma_l: float

    def __post_init__(self):
        # outcome masses of D_v (xi_i = 0, +1, -1) and the cvx
        # mean-gradient weights M q (1 +/- v theta) / 2, computed once
        vt = self.v * self.theta
        wq = self.M * self.q
        p0 = 1.0 - self.q
        pp = (1.0 + vt) * self.q / 2.0
        pm = (1.0 - vt) * self.q / 2.0
        for name, value in (
            ("_masses", (p0, pp, pm)),
            ("_thresholds", (p0, p0 + pp)),
            ("_least_lo", float(p0.min(initial=1.0))),  # see _rule
            ("wp", wq * (1.0 + vt) / 2.0),
            ("wm", wq * (1.0 - vt) / 2.0),
        ):
            object.__setattr__(self, name, value)

    def noise_spec(self) -> NoiseSpec:
        return NoiseSpec(self.p, self.sigma_s, self.sigma_l)

    def sample_xi(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """Draw n rows of xi from D_v (one uniform per coordinate), as int8
        outcome codes 0, +1 and -1: the codes (_rule) of rng.random((n, d)),
        rng a Generator or noise.ChunkStream over one, scattered from its
        events (sample_events)."""
        step, _, col, code = self.sample_events([rng], n)
        xi = np.zeros((n, self.d), np.int8)
        xi[step, col] = code
        return xi

    def _rule(self, at: np.ndarray, values: np.ndarray) -> np.ndarray:
        """The threshold rule: the int8 codes of the uniforms values at
        flat indices at into a contiguous (..., d) array, so in columns
        at % d.  Column i maps [0, lo_i) to 0, [lo_i, hi_i) to +1 and
        [hi_i, 1) to -1, with lo = 1 - q and hi = lo + the +1 mass
        (1 + v theta) q / 2, so hi >= lo for theta in [0, 1], as
        make_hard_instance checks.

        Every draw compares its uniforms with one scalar, the least lo
        over the coordinates, and takes the rule only at the entries that
        reach it, since every code below it is 0: in the lower-bound
        regimes q is 1/T or less, so they are few.  A draw writes nothing
        to the instance, so threads may share one.
        """
        col = at % self.d
        lo, hi = self._thresholds
        code = np.where(values < hi[col], np.int8(1), np.int8(-1))
        code[values < lo[col]] = 0
        return code

    def sample_events(self, rngs, n: int) -> tuple:
        """The nonzero states of n rows of xi from D_v from each
        generator in rngs, or noise.ChunkStream over one, as events:
        (step, row, col, code) arrays of the entries whose code is not 0,
        in the order they are drawn, by row, then step, then coordinate.
        Row r's are the nonzero codes (_rule) of rngs[r].random((n, d)),
        drawn in that order, so each generator is left where that draw
        leaves it.

        The rows are drawn a block at a time, each row's uniforms into
        its part of one block scratch whose entries that reach the least
        lo are found in one call, so a block of rows costs one call of
        each numpy operation; the rule is taken on all blocks' entries at
        the end, in one call.  The uniforms and the comparison's bool
        scratch hold at most the bytes of noise._BLOCK doubles, or one
        row's worth if a row is longer.
        """
        size = n * self.d
        block = max(1, min(len(rngs), 8 * _BLOCK // max(9 * size, 1)))
        u = np.empty((block, n, self.d))
        ge = np.empty(u.shape, dtype=np.bool_)
        found, values = [np.zeros(0, np.intp)], [np.zeros(0)]
        for a in range(0, len(rngs), block):
            rows = rngs[a : a + block]
            for j, rng in enumerate(rows):
                _fill_uniforms(_generator(rng), u[j])
            np.greater_equal(u[: len(rows)], self._least_lo, out=ge[: len(rows)])
            at = ge[: len(rows)].reshape(-1).nonzero()[0]
            values.append(u.reshape(-1)[at])
            found.append(at + a * size)
        at = np.concatenate(found)
        code = self._rule(at, np.concatenate(values))
        keep = code.nonzero()[0]
        row, at = np.divmod(at[keep], size)
        step, col = np.divmod(at, self.d)
        return step, row, col, code[keep]

    def grad_rows(self, X: np.ndarray, Xi: np.ndarray) -> np.ndarray:
        """Gradient rows at X for states Xi, int8 codes or floats:
        grad_at(X, grad_parts(Xi)).

        Every product with a state is exact (its entries are 0 and +-1),
        so both state types give the same bits.  M and y may hold one row
        per row of X instead of one value per coordinate.
        """
        return self.grad_at(np.asarray(X, dtype=float), self.grad_parts(Xi))

    def grad_parts(self, Xi: np.ndarray, M=None, y=None) -> tuple:
        """The factors of grad_rows at states Xi that do not depend on x,
        for M and y (the instance's by default; either may hold a row
        per state row): Xi y and |Xi| M for cvx, -mu M Xi for str."""
        M = self.M if M is None else M
        if self.kind == "cvx":
            am = np.abs(Xi, dtype=float)
            am *= M
            return Xi * (self.y if y is None else y), am
        return (-self.mu * M * Xi,)

    def grad_at(self, X: np.ndarray, parts: tuple) -> np.ndarray:
        """Gradient rows at the float rows X from grad_parts of their
        states: M |xi| sign(x - xi y) for cvx, formed in the sign array
        (multiplication commutes bit for bit), and the parts' own row
        for str, whose gradient does not depend on x."""
        if self.kind == "cvx":
            s = X - parts[0]
            np.sign(s, out=s)
            s *= parts[1]
            return s
        return parts[0]

    def grad_bound(self) -> float:
        """row_norms of the largest row grad_rows returns: M, or -mu M.

        Each entry of a gradient row is 0 or exactly +- the matching
        entry of that row, made by the same expression, so its square is
        0 or that entry's square.  Rounded addition is monotone, and
        row_norms sums every row in one order, so no computed norm of a
        gradient row exceeds this computed one.
        """
        return float(row_norms(self.M if self.kind == "cvx" else -self.mu * self.M))

    def mean_grad(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if self.kind == "cvx":
            return self.wp * np.sign(x - self.y) + self.wm * np.sign(x + self.y)
        return -self.mu * (self.M * self.q) * self.theta * self.v

    def product_support(self, cap: Optional[int] = None):
        """(active, masses) of the product support: the indices of the
        active coordinates, in support order, and the (3, d) masses of
        the outcomes 0, +1 and -1, one column a coordinate.  Raises if
        there are more than cap states (default SUPPORT_CAP)."""
        cap = SUPPORT_CAP if cap is None else cap
        active = np.flatnonzero(self.q > 0.0)
        size = 3 ** len(active)
        if size > cap:
            raise ValueError(f"support size {size} exceeds the enumeration cap {cap}")
        return active, np.array(self._masses)

    def support(self, cap: Optional[int] = None):
        """Full product support (states, probs) in itertools.product
        order (last coordinate fastest); active coordinates take the
        outcomes 0, +1, -1, inactive ones are pinned at 0.  Raises
        before enumerating if there are more than cap states (default
        SUPPORT_CAP)."""
        active, masses = self.product_support(cap)
        states = np.zeros((3 ** len(active), self.d))
        w = np.ones(1)
        inner = len(states)
        for i in active:
            # coordinate i repeats each outcome over the inner block of
            # later active coordinates, and cycles through the outcomes
            inner //= 3
            block = states.reshape(-1, 3, inner, self.d)
            block[:, 1, :, i] = 1.0
            block[:, 2, :, i] = -1.0
            w = (w[:, None] * masses[None, :, i]).ravel()
        return states, w


def _fill_uniforms(rng, u: np.ndarray) -> None:
    """Fill u with the uniforms rng.random(u.shape) draws: in place from a
    Generator, or copied from an rng that only returns its draws."""
    if isinstance(rng, np.random.Generator):
        rng.random(out=u)
    else:
        u[...] = rng.random(u.shape)


def sample_dv(
    instance: HardInstance, rng: np.random.Generator, n: Optional[int] = None
) -> np.ndarray:
    """Draw from D_v: a single state vector, or an (n, d) batch when n
    given, as int8 codes 0, +1 and -1."""
    if n is None:
        return instance.sample_xi(rng, 1)[0]
    return instance.sample_xi(rng, n)


def pad_codewords(words: np.ndarray, d: int) -> np.ndarray:
    """Extend codewords from d_star to d coordinates with +1 fill."""
    words = np.atleast_2d(np.asarray(words, dtype=float))
    m, ds = words.shape
    if d < ds:
        raise ValueError("cannot pad codewords into fewer coordinates")
    out = np.ones((m, d))
    out[:, :ds] = words
    return out


def make_hard_instance(
    kind: str, d: int, d_star: int, params: HardParams, v
) -> tuple:
    """Build (objective, oracle) for one codeword v.

    v may have length d_star (padded with +1) or d; entries must be +/-1.
    The composite objective carries the budget Lipschitz constant G and,
    for the strongly convex family, the quadratic (mu/2)||x||^2 as its
    regularizer.
    """
    if kind not in ("cvx", "str"):
        raise ValueError(f"unknown hard instance kind: {kind!r}")
    if kind != params.regime.split("-")[0]:
        raise ValueError(f"params regime {params.regime!r} does not match kind {kind!r}")
    d = int(d)
    ds = params.d_star
    if int(d_star) != ds:
        raise ValueError("d_star does not match the resolved parameters")
    if ds < 1:
        raise ValueError(f"d_star must be at least 1, got {ds}")
    g = params.M * (1.0 if kind == "cvx" else params.mu)  # the gradient bound
    for name, value, rule, ok in (
        ("q", params.q, "in [0, 1]", 0.0 <= params.q <= 1.0),
        ("theta", params.theta, "in [0, 1]", 0.0 <= params.theta <= 1.0),
        # every user of a gradient row, or of the difference of two, squares it
        ("M", params.M, "finite and >= 0, with 4 d_star g^2 finite for g = M (cvx) "
         "or mu M (str)", 0.0 <= params.M and 4.0 * ds * g * g < math.inf),
        ("y", params.y, "finite", math.isfinite(params.y)),
    ):
        if not ok:
            raise ValueError(f"hard instance {name} must be {rule}, got {value}")
    if d < ds:
        raise ValueError("need d >= d_star")
    v = as_vector(v)
    if v.shape[0] == ds and d > ds:
        v = pad_codewords(v, d)[0]
    if v.shape[0] != d:
        raise ValueError(f"codeword length must be d_star={ds} or d={d}")
    if np.any(np.abs(v) != 1.0):
        raise ValueError("codeword entries must be +/-1")

    act = (np.arange(d) < ds).astype(float)
    q = params.q * act
    theta = params.theta * act
    M = params.M * act
    y = params.y * act

    with np.errstate(over="ignore"):  # F_star is checked below
        if kind == "cvx":
            x_star = v * y
            F_star = float(np.add.reduce((1.0 - theta) * q * M * np.abs(y)))
            mu = 0.0
            r = None
        else:
            x_star = M * q * theta * v
            F_star = -0.5 * params.mu * float(np.add.reduce(x_star * x_star))
            mu = params.mu
            r = QuadReg(mu, np.zeros(d))
    if not math.isfinite(F_star):
        raise ValueError(f"hard instance F_star must be finite, got {F_star}")

    inst = HardInstance(
        kind=kind,
        d=d,
        d_star=ds,
        v=v,
        q=q,
        theta=theta,
        M=M,
        y=y,
        mu=mu,
        x_star=x_star,
        F_star=F_star,
        p=params.p,
        sigma_s=params.sigma_s,
        sigma_l=params.sigma_l,
    )
    f = HardCvx(inst) if kind == "cvx" else HardStr(inst)
    objective = CompositeObjective(
        f=f,
        r=r,
        domain=AllSpace(d),
        lipschitz_G=params.G,
        mu=mu,
        optimum=Optimum(x_star, F_star),
    )
    oracle = make_oracle(objective, "hard-instance", instance=inst)
    return objective, oracle


# ---------------------------------------------------------------------------
# codebooks


@dataclass(frozen=True)
class Codebook:
    """Sign codewords with verified pairwise Hamming separation."""

    words: np.ndarray
    d_star: int
    min_distance: float
    target_size: int
    shortfall: bool

    @property
    def size(self) -> int:
        return self.words.shape[0]


def _pairwise_min_distance(words: np.ndarray) -> float:
    m = words.shape[0]
    if m < 2:
        return float(words.shape[1])
    best = math.inf
    for i in range(m - 1):
        dist = np.count_nonzero(words[i + 1 :] != words[i], axis=1)
        best = min(best, int(np.min(dist)))
    return float(best)


def gv_codebook(
    d_star: int,
    rng: np.random.Generator,
    target_size: Optional[int] = None,
    max_consecutive_rejects: int = 10_000,
) -> Codebook:
    """Randomized greedy codebook with pairwise distance >= d_star / 4.

    Aims for ceil(exp(d_star / 8)) codewords (the packing guarantee),
    which needs d_star <= GV_MAX_D_STAR; gives up after
    max_consecutive_rejects straight rejections and flags the shortfall
    instead of failing.
    """
    d_star = int(d_star)
    if d_star < 1:
        raise ValueError("d_star must be a positive integer")
    if target_size is None:
        if d_star > GV_MAX_D_STAR:
            raise ValueError(
                f"d_star = {d_star} is above {GV_MAX_D_STAR}, the largest a gv "
                "codebook is built for: its ceil(exp(d_star / 8)) words are "
                "picked by a scan quadratic in their number"
            )
        target_size = int(math.ceil(math.exp(d_star / 8.0)))
    need = d_star / 4.0
    kept = []
    rejects = 0
    while len(kept) < target_size and rejects < max_consecutive_rejects:
        w = rng.integers(0, 2, d_star) * 2.0 - 1.0
        if all(np.count_nonzero(w != k) >= need for k in kept):
            kept.append(w)
            rejects = 0
        else:
            rejects += 1
    words = np.array(kept)
    return Codebook(
        words=words,
        d_star=d_star,
        min_distance=_pairwise_min_distance(words),
        target_size=target_size,
        shortfall=len(kept) < target_size,
    )


def two_point_codebook(d_star: int) -> Codebook:
    """The pair {+1^d_star, -1^d_star}, Hamming distance exactly d_star."""
    d_star = int(d_star)
    if d_star < 1:
        raise ValueError("d_star must be a positive integer")
    words = np.stack([np.ones(d_star), -np.ones(d_star)])
    return Codebook(
        words=words,
        d_star=d_star,
        min_distance=float(d_star),
        target_size=2,
        shortfall=False,
    )
