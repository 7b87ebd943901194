"""Composite objectives F = f + r with closed-form proximal steps.

The model problem is min_{x in X} F(x) = f(x) + r(x) where f is convex and
G-Lipschitz (nonsmooth allowed), r is either absent or a quadratic
(mu/2)||x - c||^2, and X is the whole space or a Euclidean ball.  Both
proximal updates below have closed forms: minimize a linearization of f
plus the exact r plus a proximity term, then project onto X.

Conventions: sign(0) = 0 throughout (numpy's sign), and subgradients at
kinks are the selection induced by that convention.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from ._util import as_vector, clip_rows, row_norms

__all__ = [
    "AllSpace",
    "Ball",
    "QuadReg",
    "AbsSum",
    "EuclidNorm",
    "Linear",
    "HardCvx",
    "HardStr",
    "Optimum",
    "CompositeObjective",
    "domain_dim",
    "project",
    "eval_f",
    "eval_F",
    "eval_F_batch",
    "subgrad_f",
    "subgrad_f_batch",
    "prox_step",
    "stabilized_prox_step",
    "reduce_strongly_convex",
]


# ---------------------------------------------------------------------------
# domains


@dataclass(frozen=True)
class AllSpace:
    """Unconstrained domain in R^d."""

    d: int

    def __post_init__(self):
        if int(self.d) < 1:
            raise ValueError("domain dimension must be a positive integer")
        object.__setattr__(self, "d", int(self.d))


@dataclass(frozen=True)
class Ball:
    """Euclidean ball {x : ||x - center|| <= radius}."""

    center: np.ndarray
    radius: float

    def __post_init__(self):
        c = as_vector(self.center)
        r = float(self.radius)
        if not (r > 0) or not np.isfinite(r):
            raise ValueError("ball radius must be a positive finite real")
        object.__setattr__(self, "center", c)
        object.__setattr__(self, "radius", r)


Domain = Union[AllSpace, Ball]


def domain_dim(domain: Domain) -> int:
    if isinstance(domain, AllSpace):
        return domain.d
    if isinstance(domain, Ball):
        return domain.center.shape[0]
    raise TypeError(f"unknown domain kind: {type(domain).__name__}")


def project(domain: Domain, x: np.ndarray) -> np.ndarray:
    """Euclidean projection onto the domain.

    Accepts a single vector or a batch of row vectors; points already
    inside the ball are returned unchanged.  A finite row whose squared
    norm overflows still lands on the sphere, without a warning.
    """
    with np.errstate(over="ignore"):  # squared norms clip_rows mends
        return _project(domain, x)


def _project(domain: Domain, x: np.ndarray) -> np.ndarray:
    # the prox steps' projection: run_trials silences the overflow
    # warning once per batch, as np.errstate costs about 1.5 us per entry
    x = np.asarray(x, dtype=float)
    if isinstance(domain, AllSpace):
        return x
    if isinstance(domain, Ball):
        diff, outside = clip_rows(x - domain.center, domain.radius)
        return domain.center + diff if np.any(outside) else x
    raise TypeError(f"unknown domain kind: {type(domain).__name__}")


# ---------------------------------------------------------------------------
# regularizer


@dataclass(frozen=True)
class QuadReg:
    """Quadratic regularizer r(x) = (mu/2) ||x - center||^2 with mu > 0."""

    mu: float
    center: np.ndarray

    def __post_init__(self):
        mu = float(self.mu)
        if not (mu > 0) or not np.isfinite(mu):
            raise ValueError("quadratic regularizer requires finite mu > 0")
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "center", as_vector(self.center))


# ---------------------------------------------------------------------------
# f kinds


@dataclass(frozen=True)
class AbsSum:
    """Weighted separable piece f(x) = sum_i M_i |x_i - y_i| with M_i >= 0."""

    M: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        M = as_vector(self.M)
        y = as_vector(self.y, M.shape[0])
        if np.any(M < 0):
            raise ValueError("AbsSum weights must be nonnegative")
        object.__setattr__(self, "M", M)
        object.__setattr__(self, "y", y)

    @property
    def d(self) -> int:
        return self.M.shape[0]

    def value(self, x: np.ndarray) -> np.ndarray:
        return np.add.reduce(self.M * np.abs(x - self.y), axis=-1)

    def subgrad(self, x: np.ndarray) -> np.ndarray:
        return self.M * np.sign(x - self.y)


@dataclass(frozen=True)
class EuclidNorm:
    """Radial piece f(x) = G ||x - y||, subgradient 0 at the kink."""

    G: float
    y: np.ndarray

    def __post_init__(self):
        G = float(self.G)
        if not (G >= 0) or not np.isfinite(G):
            raise ValueError("EuclidNorm scale must be a nonnegative finite real")
        object.__setattr__(self, "G", G)
        object.__setattr__(self, "y", as_vector(self.y))

    @property
    def d(self) -> int:
        return self.y.shape[0]

    def value(self, x: np.ndarray) -> np.ndarray:
        return self.G * row_norms(x - self.y)

    def subgrad(self, x: np.ndarray) -> np.ndarray:
        diff = np.asarray(x, dtype=float) - self.y
        nrm = row_norms(diff)
        pos = nrm > 0
        scale = np.where(pos, self.G / np.where(pos, nrm, 1.0), 0.0)
        return diff * scale[..., None]


@dataclass(frozen=True)
class Linear:
    """Linear piece f(x) = <c, x>."""

    c: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "c", as_vector(self.c))

    @property
    def d(self) -> int:
        return self.c.shape[0]

    def value(self, x: np.ndarray) -> np.ndarray:
        return np.add.reduce(self.c * np.asarray(x, dtype=float), axis=-1)

    def subgrad(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return np.broadcast_to(self.c, x.shape).copy() if x.ndim > 1 else self.c.copy()


@dataclass(frozen=True)
class HardCvx:
    """Mean objective of the two-sided absolute-value hard family.

    f_v(x) = sum_i M_i q_i [ (1+v_i theta_i)/2 |x_i - y_i|
                           + (1-v_i theta_i)/2 |x_i + y_i| ].

    The instance payload carries y and the weights wp, wm of the two
    terms; see hardness.
    """

    inst: object

    @property
    def d(self) -> int:
        return self.inst.d

    def value(self, x: np.ndarray) -> np.ndarray:
        t = self.inst
        x = np.asarray(x, dtype=float)
        return np.add.reduce(t.wp * np.abs(x - t.y) + t.wm * np.abs(x + t.y), axis=-1)

    def subgrad(self, x: np.ndarray) -> np.ndarray:
        return self.inst.mean_grad(x)


@dataclass(frozen=True)
class HardStr:
    """Linear mean objective of the strongly convex hard family.

    f_v(x) = -mu <x, m> with m = E[M * xi] = M * q * theta * v; the
    curvature lives entirely in the quadratic regularizer.
    """

    inst: object

    @property
    def d(self) -> int:
        return self.inst.d

    def value(self, x: np.ndarray) -> np.ndarray:
        t = self.inst
        x = np.asarray(x, dtype=float)
        return -t.mu * np.add.reduce(t.M * t.q * t.theta * t.v * x, axis=-1)

    def subgrad(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        g = self.inst.mean_grad(x)
        return np.broadcast_to(g, x.shape).copy() if x.ndim > 1 else g


FKind = Union[AbsSum, EuclidNorm, Linear, HardCvx, HardStr]


# ---------------------------------------------------------------------------
# composite objective


@dataclass(frozen=True)
class Optimum:
    """Known minimizer and optimal value, when available in closed form."""

    x_star: np.ndarray
    F_star: float

    def __post_init__(self):
        object.__setattr__(self, "x_star", as_vector(self.x_star))
        object.__setattr__(self, "F_star", float(self.F_star))


@dataclass(frozen=True)
class CompositeObjective:
    """F = f + r over a domain, with its Lipschitz and curvature metadata.

    Invariants: r is None exactly when mu == 0, and when present its
    modulus equals mu.  lipschitz_G bounds ||subgrad f|| on the domain.
    """

    f: FKind
    r: Optional[QuadReg]
    domain: Domain
    lipschitz_G: float
    mu: float = 0.0
    optimum: Optional[Optimum] = None

    def __post_init__(self):
        G = float(self.lipschitz_G)
        mu = float(self.mu)
        if not (G >= 0) or not np.isfinite(G):
            raise ValueError("lipschitz_G must be a nonnegative finite real")
        if mu < 0 or not np.isfinite(mu):
            raise ValueError("mu must be a nonnegative finite real")
        if (self.r is None) != (mu == 0.0):
            raise ValueError("r must be present exactly when mu > 0")
        if self.r is not None and self.r.mu != mu:
            raise ValueError("r.mu must equal the composite mu")
        d = domain_dim(self.domain)
        if self.f.d != d:
            raise ValueError(f"dimension mismatch: f has d={self.f.d}, domain d={d}")
        if self.r is not None and self.r.center.shape[0] != d:
            raise ValueError("dimension mismatch between r.center and domain")
        if self.optimum is not None and self.optimum.x_star.shape[0] != d:
            raise ValueError("dimension mismatch between optimum and domain")
        object.__setattr__(self, "lipschitz_G", G)
        object.__setattr__(self, "mu", mu)

    @property
    def d(self) -> int:
        return domain_dim(self.domain)


def _check_dim(obj: CompositeObjective, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.shape[-1] != obj.d:
        raise ValueError(f"dimension mismatch: expected {obj.d}, got {x.shape[-1]}")
    return x


def eval_f(obj: CompositeObjective, x: np.ndarray) -> float:
    """f(x) at a single point."""
    x = _check_dim(obj, x)
    return float(obj.f.value(x))


def eval_F_batch(obj: CompositeObjective, X: np.ndarray) -> np.ndarray:
    """F(x) = f(x) + r(x) along rows of X."""
    X = _check_dim(obj, X)
    val = obj.f.value(X)
    if obj.r is not None:
        diff = X - obj.r.center
        val = val + 0.5 * obj.r.mu * np.add.reduce(diff * diff, axis=-1)
    return val


def eval_F(obj: CompositeObjective, x: np.ndarray) -> float:
    return float(eval_F_batch(obj, x))


def subgrad_f(obj: CompositeObjective, x: np.ndarray) -> np.ndarray:
    """A subgradient of f at x (sign(0) = 0 selection at kinks)."""
    x = _check_dim(obj, x)
    return obj.f.subgrad(x)


def subgrad_f_batch(obj: CompositeObjective, X: np.ndarray) -> np.ndarray:
    X = _check_dim(obj, X)
    return obj.f.subgrad(X)


# ---------------------------------------------------------------------------
# proximal steps


def _all(cond) -> bool:
    """cond, a bool or an array of them, holds everywhere."""
    return cond if isinstance(cond, bool) else bool(cond.all())


def _step(eta):
    """A step size: a float, or an array of per-row steps such as an (n, d) tile."""
    return eta if isinstance(eta, np.ndarray) else float(eta)


def _prox_point(r: Optional[QuadReg], x_t, g, eta) -> np.ndarray:
    """prox_step's unconstrained minimizer (x_t/eta + mu c - g) / (1/eta + mu)."""
    x_t = np.asarray(x_t, dtype=float)
    g = np.asarray(g, dtype=float)
    a = x_t / eta - g
    if r is None:
        mu = 0.0
    else:
        mu = r.mu
        a = a + mu * r.center
    return a / (1.0 / eta + mu)


def prox_step(
    r: Optional[QuadReg],
    domain: Domain,
    x_t: np.ndarray,
    g: np.ndarray,
    eta,
) -> np.ndarray:
    """argmin_{x in X} r(x) + <g, x> + ||x - x_t||^2 / (2 eta).

    Closed form: the unconstrained minimizer is
    (x_t/eta + mu c - g) / (1/eta + mu), projected onto X.  Accepts
    batched rows for x_t and g, and per-row steps for eta (an array that
    broadcasts against the rows).
    """
    eta = _step(eta)
    if not _all(eta > 0):
        raise ValueError("step size eta must be positive")
    return _project(domain, _prox_point(r, x_t, g, eta))


def stabilized_prox_step(
    r: Optional[QuadReg],
    domain: Domain,
    x_t: np.ndarray,
    x_1: np.ndarray,
    g: np.ndarray,
    eta_t,
    eta_next,
) -> np.ndarray:
    """Proximal step with an anchor term pulling toward the start point.

    argmin_{x in X} r(x) + <g, x> + ||x - x_t||^2 / (2 eta_t)
                    + (eta_t/eta_next - 1) ||x - x_1||^2 / (2 eta_t),

    requiring 0 < eta_next <= eta_t.  With eta_next == eta_t the anchor
    weight vanishes and the update reduces to prox_step exactly (same
    code path, bit for bit).  eta_t and eta_next may be per-row arrays,
    as in prox_step; a row whose anchor weight vanishes then takes
    prox_step's arithmetic exactly.
    """
    eta_t = _step(eta_t)
    eta_next = _step(eta_next)
    if not _all(eta_next > 0) or not _all(eta_next <= eta_t):
        raise ValueError("stabilized step requires 0 < eta_next <= eta_t")
    return _project(domain, _stabilized_point(r, x_t, x_1, g, eta_t, eta_next))


def _stabilized_point(r: Optional[QuadReg], x_t, x_1, g, eta_t, eta_next) -> np.ndarray:
    """stabilized_prox_step's unconstrained minimizer, for checked steps."""
    s = (eta_t / eta_next - 1.0) / eta_t
    plain = s == 0.0
    if _all(plain):
        return _prox_point(r, x_t, g, eta_t)
    x_t = np.asarray(x_t, dtype=float)
    g = np.asarray(g, dtype=float)
    a = x_t / eta_t + s * np.asarray(x_1, dtype=float) - g
    if r is None:
        mu = 0.0
    else:
        mu = r.mu
        a = a + mu * r.center
    c = a / (1.0 / eta_t + s + mu)
    if not isinstance(plain, bool) and plain.any():
        c = np.where(plain, _prox_point(r, x_t, g, eta_t), c)
    return c


# ---------------------------------------------------------------------------
# strongly convex reduction


def reduce_strongly_convex(
    f: FKind,
    mu: float,
    y_ref: np.ndarray,
    domain: Domain,
    lipschitz_G: float,
    optimum: Optional[Optimum] = None,
) -> CompositeObjective:
    """Recast F(x) = f(x) + (mu/2)||x - y_ref||^2 as a composite problem.

    The quadratic becomes the regularizer handled exactly by the prox, so
    only the G-Lipschitz part is linearized.  The returned objective
    carries the 5x inflated Lipschitz constant valid on the relevant
    ball around y_ref for the recentred analysis.
    """
    mu = float(mu)
    if not (mu > 0) or not np.isfinite(mu):
        raise ValueError("reduction requires mu > 0")
    G = float(lipschitz_G)
    if not (G >= 0) or not np.isfinite(G):
        raise ValueError("lipschitz_G must be a nonnegative finite real")
    y_ref = as_vector(y_ref, domain_dim(domain))
    return CompositeObjective(
        f=f,
        r=QuadReg(mu, y_ref),
        domain=domain,
        lipschitz_G=5.0 * G,
        mu=mu,
        optimum=optimum,
    )
