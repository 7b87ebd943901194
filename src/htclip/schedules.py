"""Step-size and clipping-threshold schedules for the six regimes.

Regimes (convex use plain averaging, strongly convex weighted):

  cvx-hp-T        known horizon, high-probability constants (needs delta)
  cvx-hp-anytime  horizon free, high probability; pairs with stabilization
  cvx-ex-T        known horizon, in-expectation constants
  cvx-ex-anytime  horizon free, in expectation; pairs with stabilization
  str-hp          strongly convex, eta_t = 6/(mu t), hp threshold
  str-ex          strongly convex, eta_t = 6/(mu t), ex threshold

Base constants per family, writing L = ln(3/delta) and
d_eff = sigma_l^2 / sigma_s^2:

  tau_star^p    = min( sigma_s sigma_l^{p-1} / L,
                       sigma_s^2 / sigma_l^{2-p}  [p < 2 only] )
  varphi_star   = max( sqrt(d_eff) L, d_eff [p < 2 only] )
                = sigma_l^p / tau_star^p
  tau~_star     = sigma_s^{2/p} / sigma_l^{2/p-1}   (p < 2; +inf at p = 2)
  varphi~_star  = d_eff [p < 2 only] = (sigma_l / tau~_star)^p
  psi_star      = 1 + ln varphi_star  (and the ~ analogue)

Extended-real conventions, used consistently below: with zero noise the
clipping constants degenerate (tau_star = +inf, varphi_star = 0); a
threshold term tau_star t^{1/p} with tau_star = +inf due to zero noise is
dropped from the max (the floor G/(1-alpha) remains), whereas at p = 2 in
the ex family, where noise is present but clipping is unnecessary, the
threshold resolves to +inf (clipping disabled).  A step-size argument
lambda_star / (tau_star t^{1/p}) with tau_star = +inf drops out of the
min.  Products like varphi_star psi_star are 0 when varphi_star = 0.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, fields
from typing import Optional

__all__ = [
    "REGIMES",
    "ClipConstants",
    "ScheduleParams",
    "Schedule",
    "d_eff_of",
    "hp_params",
    "ex_params",
    "make_schedule",
    "gamma_t",
    "gamma_t_product",
    "weighted_avg_weight",
]

REGIMES = (
    "cvx-hp-T",
    "cvx-hp-anytime",
    "cvx-ex-T",
    "cvx-ex-anytime",
    "str-hp",
    "str-ex",
)

INF = math.inf

# the smallest normal float
_TINY = sys.float_info.min


def _check_moments(p=None, sigma_s=0.0, sigma_l=0.0, *, finite=False) -> tuple:
    """The moment bounds (p, sigma_s, sigma_l) as floats, checked.

    p must lie in (1, 2] (None is passed through unchecked) and
    0 <= sigma_s <= sigma_l; with finite, sigma_l must also be finite.
    """
    if p is not None:
        p = float(p)
        if not (1.0 < p <= 2.0):
            raise ValueError("moment order p must lie in (1, 2]")
    ss = float(sigma_s)
    sl = float(sigma_l)
    if not (0.0 <= ss <= sl):
        raise ValueError(
            "need 0 <= sigma_s <= sigma_l: the directional moment bound "
            "cannot exceed the full-norm bound"
        )
    if finite and sl == INF:
        raise ValueError(f"noise sigma_l is not finite ({sl})")
    return p, ss, sl


def _check_power(p: float, sigma_l: float) -> None:
    """Reject a sigma_l^p, which bounds and schedules are built from, that overflows."""
    try:
        sigma_l**p
    except OverflowError:
        raise ValueError(
            f"noise sigma_l is not finite to the power p "
            f"({sigma_l:g} ** {p:g} overflows)"
        ) from None


def d_eff_of(sigma_s: float, sigma_l: float) -> float:
    """Effective dimension sigma_l^2 / sigma_s^2; zero iff both are zero."""
    _, ss, sl = _check_moments(None, sigma_s, sigma_l)
    if sl == 0.0:
        return 0.0
    if ss == 0.0:
        raise ValueError("sigma_s = 0 with sigma_l > 0 violates the moment bracket")
    ratio = sl / ss
    if not ratio * ratio < INF:
        raise ValueError(f"d_eff = (sigma_l / sigma_s)^2 overflows ({sl:g} / {ss:g})")
    return ratio**2


def _check_delta(delta) -> float:
    if delta is None:
        raise ValueError("high-probability constants require delta")
    delta = float(delta)
    if not (0.0 < delta < 1.0):
        raise ValueError("confidence delta must lie in (0, 1)")
    return delta


@dataclass(frozen=True)
class ClipConstants:
    """Base clipping constants (tau_star, varphi_star, psi_star) of a family."""

    tau_star: float
    varphi_star: float
    psi_star: Optional[float]


def hp_params(p: float, sigma_s: float, sigma_l: float, delta: float) -> ClipConstants:
    """High-probability constants; tau_star = +inf when sigma_l = 0."""
    p, ss, sl = _check_moments(p, sigma_s, sigma_l)
    delta = _check_delta(delta)
    if sl == 0.0:
        return ClipConstants(INF, 0.0, None)
    deff = d_eff_of(ss, sl)
    L = math.log(3.0 / delta)
    cand = ss * sl ** (p - 1.0) / L
    if p < 2.0:
        cand = min(cand, ss * ss / sl ** (2.0 - p))
    tau_star = cand ** (1.0 / p)
    varphi = max(math.sqrt(deff) * L, deff if p < 2.0 else 0.0)
    return ClipConstants(tau_star, varphi, 1.0 + math.log(varphi))


def ex_params(p: float, sigma_s: float, sigma_l: float) -> ClipConstants:
    """In-expectation constants; tau~_star = +inf at p = 2 or sigma_l = 0."""
    p, ss, sl = _check_moments(p, sigma_s, sigma_l)
    deff = d_eff_of(ss, sl)  # the moment bracket, at p = 2 too
    if sl == 0.0 or p == 2.0:
        return ClipConstants(INF, 0.0, None)
    tau_star = ss ** (2.0 / p) / sl ** (2.0 / p - 1.0)
    return ClipConstants(tau_star, deff, 1.0 + math.log(deff))


@dataclass(frozen=True)
class ScheduleParams:
    """Problem constants a schedule is built from.

    D is the start-to-optimum distance bound, G the Lipschitz constant,
    mu the strong convexity modulus (0 for the convex regimes), delta the
    confidence level (hp families only), alpha_clip the threshold margin,
    T_known the horizon (known-T regimes only).
    """

    p: float
    sigma_s: float
    sigma_l: float
    G: float
    D: float
    mu: float = 0.0
    delta: Optional[float] = None
    alpha_clip: float = 0.5
    T_known: Optional[int] = None

    def __post_init__(self):
        p, ss, sl = _check_moments(self.p, self.sigma_s, self.sigma_l, finite=True)
        _check_power(p, sl)
        if ss > 0.0 and ss * ss < _TINY:
            # the clipping constants divide by powers of sigma_s
            raise ValueError(
                f"noise sigma_s = {ss:g} is too small: its square underflows "
                f"below {_TINY:g}"
            )
        G = float(self.G)
        D = float(self.D)
        if not (G > 0.0) or not math.isfinite(G):
            raise ValueError("Lipschitz constant G must be a positive finite real")
        try:
            Gp = G**p
        except OverflowError:
            Gp = math.inf
        if not (0.0 < Gp < math.inf):
            # the schedules divide by G^p
            raise ValueError(
                f"Lipschitz constant G ** p must be a positive finite real, "
                f"got {G:g} ** {p:g} = {Gp:g}"
            )
        if not (D > 0.0) or not math.isfinite(D):
            raise ValueError("distance bound D must be a positive finite real")
        mu = float(self.mu)
        if mu < 0.0 or not math.isfinite(mu):
            raise ValueError("mu must be a nonnegative finite real")
        a = float(self.alpha_clip)
        if not (0.0 < a < 1.0):
            raise ValueError("alpha_clip must lie in (0, 1)")
        if self.delta is not None:
            object.__setattr__(self, "delta", _check_delta(self.delta))
        if self.T_known is not None:
            T = int(self.T_known)
            if T < 1:
                raise ValueError("T_known must be a positive integer")
            object.__setattr__(self, "T_known", T)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "sigma_s", ss)
        object.__setattr__(self, "sigma_l", sl)
        object.__setattr__(self, "G", G)
        object.__setattr__(self, "D", D)
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "alpha_clip", a)


@dataclass(frozen=True)
class Schedule:
    """Resolved schedule: eta(t) and tau(t) plus the constants behind them.

    Fields not applicable to the regime are None.  tau(t) may be +inf,
    meaning clipping is disabled at that step.
    """

    regime: str
    params: ScheduleParams
    family: str
    tau_star: float
    varphi_star: float
    psi_star: Optional[float]
    averaging: str
    algorithm_hint: str
    eta_star: Optional[float] = None
    gamma_star: Optional[float] = None
    lambda_star: Optional[float] = None
    varphi: Optional[float] = None
    tau_const: Optional[float] = None
    critical_T: Optional[float] = None

    def eta(self, t: int) -> float:
        """Step size before iteration t (1-based)."""
        t = int(t)
        if t < 1:
            raise ValueError("iteration index t must be >= 1")
        r = self.regime
        if r in ("cvx-hp-T", "cvx-ex-T"):
            return self.eta_star
        if r in ("cvx-hp-anytime", "cvx-ex-anytime"):
            val = min(self.gamma_star, self.eta_star / math.sqrt(t))
            if self.lambda_star is not None and math.isfinite(self.tau_star):
                val = min(val, self.lambda_star / (self.tau_star * t ** (1.0 / self.params.p)))
            return val
        return 6.0 / (self.params.mu * t)

    def tau(self, t: int) -> float:
        """Clipping threshold at iteration t (1-based); +inf disables clipping."""
        t = int(t)
        if t < 1:
            raise ValueError("iteration index t must be >= 1")
        if self.regime in ("cvx-hp-T", "cvx-ex-T"):
            return self.tau_const
        return _tau_at(self.params, self.tau_star, t)

    def constants(self) -> dict:
        """The resolved fields other than params, plus d_eff; JSON-friendly
        (inf as the string 'inf')."""
        out = {}
        for f in fields(self):
            v = getattr(self, f.name)
            if v is None or isinstance(v, str):
                out[f.name] = v
            elif f.name != "params":
                out[f.name] = "inf" if v == INF else float(v)
        out["d_eff"] = d_eff_of(self.params.sigma_s, self.params.sigma_l)
        return out


def _tau_at(params: ScheduleParams, tau_star: float, t: float) -> float:
    floor = params.G / (1.0 - params.alpha_clip)
    if params.sigma_l == 0.0:
        return floor
    if not math.isfinite(tau_star):
        return INF
    return max(floor, tau_star * t ** (1.0 / params.p))


def _varphi_at_T(params: ScheduleParams, varphi_star: float, T: int) -> float:
    if varphi_star == 0.0:
        return 0.0
    a = 1.0 - params.alpha_clip
    inner = a**params.p * varphi_star * (params.sigma_l / params.G) ** params.p * T
    return min(varphi_star, math.sqrt(inner))


def _critical_T(params: ScheduleParams, varphi_star: float) -> Optional[float]:
    # smallest T at which the T-dependent varphi saturates at varphi_star
    if params.sigma_l == 0.0 or varphi_star == 0.0:
        return None
    a = 1.0 - params.alpha_clip
    return varphi_star * (params.G / params.sigma_l) ** params.p / a**params.p


def _lambda_star(params: ScheduleParams, ts: float, L2: float) -> Optional[float]:
    """The anytime step cap lambda_star at tau_star = ts, None when ts is
    infinite; L2 is log(3/delta)^2 for the hp family, 0 for ex."""
    if not math.isfinite(ts):
        return None
    p = params.p
    ss, sl = params.sigma_s, params.sigma_l
    try:
        a = sl**p / ts**p
        b = ss**2 * sl ** (2.0 * p - 2.0) / ts ** (2.0 * p)
    except (OverflowError, ZeroDivisionError):
        a = b = INF
    if not math.isfinite(a + b):
        # tau_star^(2p) underflows to 0 for sigma_s far below 1, or a
        # power overflows for sigma_s far above it
        raise ValueError(
            f"noise sigma_s = {ss:g} is out of range for an anytime schedule: "
            f"at tau_star = {ts:g}, sigma_l^p / tau_star^p + sigma_s^2 "
            "sigma_l^(2p-2) / tau_star^(2p) is not a finite float"
        )
    return params.D / math.sqrt(L2 + a + b)


def make_schedule(regime: str, params: ScheduleParams) -> Schedule:
    """Resolve all constants for the given regime.

    Raises on regime/parameter mismatches: strongly convex regimes need
    mu > 0 and convex ones mu = 0, known-T regimes need T_known, hp
    regimes need delta.
    """
    if regime not in REGIMES:
        raise ValueError(f"unknown schedule regime: {regime!r}")
    p = params.p
    ss, sl = params.sigma_s, params.sigma_l
    G, D = params.G, params.D
    strongly = regime.startswith("str")
    if strongly and params.mu <= 0.0:
        raise ValueError(f"regime {regime} requires mu > 0")
    if not strongly and params.mu != 0.0:
        raise ValueError(f"regime {regime} requires mu = 0 (regime/mu mismatch)")
    family = "hp" if "-hp" in regime else "ex"
    # the ex constants below are the hp ones at L = ln(3/delta) = 0
    if family == "hp":
        base = hp_params(p, ss, sl, params.delta)
        L = math.log(3.0 / params.delta)
    else:
        base = ex_params(p, ss, sl)
        L = 0.0
    known_T = regime.endswith("-T")
    if known_T and params.T_known is None:
        raise ValueError(f"regime {regime} requires a known horizon T_known")

    averaging = "weighted" if strongly else "plain"
    algorithm_hint = "stabilized" if regime.endswith("-anytime") else "clipped"
    common = dict(
        regime=regime,
        params=params,
        family=family,
        tau_star=base.tau_star,
        varphi_star=base.varphi_star,
        psi_star=base.psi_star,
        averaging=averaging,
        algorithm_hint=algorithm_hint,
    )

    if strongly:
        return Schedule(**common)

    if known_T:
        T = params.T_known
        varphi = _varphi_at_T(params, base.varphi_star, T)
        a1 = (D / G) / (varphi + L) if varphi + L > 0.0 else INF
        a2 = (D / G) / math.sqrt((sl**p / G**p + 1.0) * T)
        if ss > 0.0:
            coef = ss ** (2.0 / p - 1.0) * sl ** (2.0 - 2.0 / p) + ss ** (
                1.0 / p
            ) * sl ** (1.0 - 1.0 / p) * L ** (1.0 - 1.0 / p)
        else:
            coef = 0.0
        a3 = D / (coef * T ** (1.0 / p)) if coef > 0.0 else INF
        return Schedule(
            **common,
            eta_star=min(a1, a2, a3),
            varphi=varphi,
            tau_const=_tau_at(params, base.tau_star, T),
            critical_T=_critical_T(params, base.varphi_star),
        )

    phi_psi = base.varphi_star * base.psi_star if base.varphi_star > 0.0 else 0.0
    return Schedule(
        **common,
        eta_star=(D / G) / math.sqrt(sl**p / G**p + 1.0),
        gamma_star=(D / G) / (phi_psi + L) if phi_psi + L > 0.0 else INF,
        lambda_star=_lambda_star(params, base.tau_star, L * L),
    )


# ---------------------------------------------------------------------------
# strongly convex weighting


def gamma_t(t: int) -> float:
    """Closed form of the contraction product for eta_s = 6/(mu s):

        Gamma_t = prod_{s=2}^t (1 + mu eta_{s-1}) / (1 + mu eta_s / 2)
                = t (t+4) (t+5) / 30,

    independent of mu.  Gamma_1 = 1.
    """
    t = int(t)
    if t < 1:
        raise ValueError("t must be >= 1")
    return t * (t + 4.0) * (t + 5.0) / 30.0


def gamma_t_product(t: int, mu: float) -> float:
    """Literal product form of gamma_t, for cross-checking the closed form."""
    t = int(t)
    if t < 1:
        raise ValueError("t must be >= 1")
    mu = float(mu)
    if mu <= 0.0:
        raise ValueError("mu must be positive")
    out = 1.0
    for s in range(2, t + 1):
        eta_prev = 6.0 / (mu * (s - 1))
        eta_s = 6.0 / (mu * s)
        out *= (1.0 + mu * eta_prev) / (1.0 + mu * eta_s / 2.0)
    return out


def weighted_avg_weight(t: int) -> float:
    """Averaging weight proportional to Gamma_t eta_t: (t+4)(t+5)."""
    t = int(t)
    if t < 1:
        raise ValueError("t must be >= 1")
    return (t + 4.0) * (t + 5.0)
