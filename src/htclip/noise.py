"""Gradient oracles, heavy-tailed samplers, and moment machinery.

A noise model is summarized by a triple (p, sigma_s, sigma_l) of declared
moment bounds on the oracle error n = g - grad f:

    E |<e, n>|^p <= sigma_s^p   for every unit vector e,
    E ||n||^p    <= sigma_l^p,

with p in (1, 2].  Validity forces 0 <= sigma_s <= sigma_l, and in
dimension d also sigma_l <= sqrt(pi d / 2) sigma_s (unless both are 0).
The effective dimension d_eff = sigma_l^2 / sigma_s^2 measures how far
the noise is from being aligned with a single direction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ._util import as_vector, row_norms
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
        if not (0.0 <= ss <= sl) or not np.isfinite(sl):
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
    params: StableParams, rng: np.random.Generator, size=None
) -> np.ndarray:
    """Draw S_alpha(beta, gamma) variates via the CMS transform.

    Every draw consumes exactly one uniform angle and one exponential,
    regardless of the parameter branch, so stream alignment is stable.
    At alpha = 2 the output is exactly N(0, 2 gamma^2) and beta is
    irrelevant.
    """
    alpha = params.alpha
    beta = params.beta
    gamma = params.gamma
    phi = rng.uniform(-math.pi / 2.0, math.pi / 2.0, size)
    w = rng.standard_exponential(size)
    if alpha == 2.0:
        x = 2.0 * np.sqrt(w) * np.sin(phi)
        return gamma * x
    if beta == 0.0:
        x = (np.sin(alpha * phi) / np.cos(phi) ** (1.0 / alpha)) * (
            np.cos((1.0 - alpha) * phi) / w
        ) ** ((1.0 - alpha) / alpha)
        return gamma * x
    if alpha == 1.0:
        half_pi = math.pi / 2.0
        x = (
            (half_pi + beta * phi) * np.tan(phi)
            - beta * np.log((half_pi * w * np.cos(phi)) / (half_pi + beta * phi))
        ) / half_pi
        shift = 0.0 if gamma == 0.0 else beta * (2.0 / math.pi) * gamma * math.log(gamma)
        return gamma * x + shift
    t = math.tan(math.pi * alpha / 2.0)
    b0 = math.atan(beta * t) / alpha
    s0 = (1.0 + (beta * t) ** 2) ** (1.0 / (2.0 * alpha))
    x = (
        s0
        * np.sin(alpha * (phi + b0))
        / np.cos(phi) ** (1.0 / alpha)
        * (np.cos(phi - alpha * (phi + b0)) / w) ** ((1.0 - alpha) / alpha)
    )
    return gamma * x


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

    def draw(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """Draw n oracle noise states as an (n, d) array."""
        if self.kind == "deterministic":
            return np.zeros((n, self.d))
        if self.kind == "additive-gaussian":
            return rng.standard_normal((n, self.d)) * self.scales
        if self.kind == "additive-stable":
            return sample_alpha_stable(self.stable, rng, (n, self.d)) * self.scales
        return self.instance.sample_xi(rng, n)

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
            declared_noise = NoiseSpec(
                2.0, float(np.max(s)), float(math.sqrt(float(np.add.reduce(s * s))))
            )
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
