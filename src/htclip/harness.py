"""Experiment harness: config parsing, deterministic execution, persistence.

An experiment sweeps a geometric grid of horizons T, runs a fixed number
of independent trials per T, reports the designated aggregate's
suboptimality statistics per T, and fits ln error against ln T.

Determinism contract: results are a pure function of the resolved config
plus master seed.  Trial j at grid index ti consumes exactly the rng
seeded with derive_seed(master, j, ti), and under v_mode "cycle" runs
codeword (j // BLOCK_TRIALS) % size.  Trials are executed in blocks of
consecutive indices whose width is set by bytes, not by count: as many
multiples of BLOCK_TRIALS rows as keep the kernel's noise prefetch
buffer within NOISE_BUDGET, but only BLOCK_TRIALS rows while codewords
rotate, so no block mixes codewords.  Every block of every horizon goes
through one ThreadPoolExecutor(max_workers=threads).map, at any thread
count, and the results are sliced back per horizon in submission order.
The kernel is row-wise, so neither the block partition nor the thread
count changes any output byte.
"""

from __future__ import annotations

import hashlib
import json
import math
import numbers
import os
import subprocess
import tempfile
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ._version import __version__ as _pkg_version
from ._util import as_vector, row_norms
from .algorithms import NOISE_CHUNK, average, run_trials
from .hardness import (
    HARD_REGIMES,
    gv_codebook,
    hard_params,
    make_hard_instance,
    two_point_codebook,
)
from .noise import NoiseSpec, StableParams, make_oracle
from .problems import (
    AbsSum,
    AllSpace,
    Ball,
    CompositeObjective,
    EuclidNorm,
    Linear,
    Optimum,
    QuadReg,
    eval_F_batch,
)
from .schedules import REGIMES, Schedule, ScheduleParams, make_schedule

__all__ = [
    "BLOCK_TRIALS",
    "derive_seed",
    "ExperimentConfig",
    "parse_config",
    "ExperimentResult",
    "PerTStats",
    "FitResult",
    "SummaryStats",
    "run_experiment",
    "fit_rate",
    "summarize",
    "persist",
]

# codeword period of v_mode "cycle" and the narrowest block of trials
BLOCK_TRIALS = 64

# bytes of prefetched noise, (rows, NOISE_CHUNK, d) float64, that sizes a
# block: the kernel's per-step Python cost is shared by all its rows
NOISE_BUDGET = 8 << 20

_MASK64 = (1 << 64) - 1

# rng stream tags: grid index ti for trial streams, high tags reserved
_TAG_CODEBOOK = 1 << 16


def _mix64(z: int) -> int:
    """SplitMix64 finalizer; a bijection on 64-bit words."""
    z = (z + 0x9E3779B97F4A7C15) & _MASK64
    z ^= z >> 30
    z = (z * 0xBF58476D1CE4E5B9) & _MASK64
    z ^= z >> 27
    z = (z * 0x94D049BB133111EB) & _MASK64
    z ^= z >> 31
    return z


def derive_seed(master: int, trial: int, tag: int) -> int:
    """Collision-free 64-bit stream seed for (master, trial, tag).

    trial and tag must each fit in 32 bits; the pair is packed
    bijectively before mixing, so distinct (trial, tag) pairs under one
    master never collide.
    """
    trial = int(trial)
    tag = int(tag)
    if not (0 <= trial < (1 << 32)):
        raise ValueError("trial index must fit in 32 bits")
    if not (0 <= tag < (1 << 32)):
        raise ValueError("stream tag must fit in 32 bits")
    return _mix64((int(master) & _MASK64) ^ _mix64((tag << 32) | trial))


# ---------------------------------------------------------------------------
# configuration


def _require_keys(section: dict, path: str, allowed: set, required: set):
    if not isinstance(section, dict):
        raise ValueError(f"config section {path!r} must be an object")
    for k in section:
        if k not in allowed:
            raise ValueError(f"unknown config key {path}.{k}")
    for k in required:
        if k not in section:
            raise ValueError(f"missing required config key {path}.{k}")


def _as_int(val, path: str) -> int:
    """An integer config value; integral floats pass, anything else is rejected."""
    if isinstance(val, float) and val.is_integer():
        return int(val)
    if isinstance(val, bool) or not isinstance(val, numbers.Integral):
        raise ValueError(f"{path} must be an integer, got {val!r}")
    return int(val)


def _as_float(val, path: str) -> float:
    """A real config value; null, strings, booleans and NaN are rejected."""
    if isinstance(val, bool) or not isinstance(val, numbers.Real) or math.isnan(val):
        raise ValueError(f"{path} must be a number, got {val!r}")
    return float(val)


def _as_floats(val, path: str) -> list:
    """A list of real config values, each checked by _as_float."""
    if not isinstance(val, list):
        raise ValueError(f"{path} must be a list of numbers, got {val!r}")
    return [_as_float(v, f"{path}[{i}]") for i, v in enumerate(val)]


@dataclass(frozen=True)
class ExperimentConfig:
    """Parsed and validated experiment configuration.

    Built by parse_config; holds the resolved dict (defaults applied) the
    digest is computed from.
    """

    problem: dict
    noise: dict
    schedule: dict
    hardness: Optional[dict]
    run: dict
    eval: dict
    output: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        out = {
            "problem": self.problem,
            "noise": self.noise,
            "schedule": self.schedule,
            "run": self.run,
            "eval": self.eval,
            "output": self.output,
        }
        if self.hardness is not None:
            out["hardness"] = self.hardness
        return out

    def digest(self) -> str:
        blob = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()


def _parse_T_grid(val, path: str) -> list:
    if isinstance(val, list):
        Ts = [_as_int(t, path) for t in val]
    elif isinstance(val, dict):
        _require_keys(val, path, {"min", "max", "ratio"}, {"min", "max"})
        lo = _as_int(val["min"], f"{path}.min")
        hi = _as_int(val["max"], f"{path}.max")
        ratio = _as_float(val.get("ratio", 2.0), f"{path}.ratio")
        if lo < 1 or hi < lo:
            raise ValueError(f"{path}: need 1 <= min <= max")
        if not (ratio > 1.0):
            raise ValueError(f"{path}.ratio must exceed 1")
        Ts = []
        t = lo
        while t <= hi:
            Ts.append(t)
            t = max(t + 1, int(round(t * ratio)))
    else:
        raise ValueError(f"{path} must be a list of horizons or a min/max/ratio object")
    if not Ts or any(t < 1 for t in Ts) or sorted(set(Ts)) != Ts:
        raise ValueError(f"{path} must be strictly increasing positive integers")
    return Ts


def parse_config(data: dict) -> ExperimentConfig:
    """Validate a config mapping strictly; unknown keys are rejected by name."""
    _require_keys(
        data,
        "config",
        {"problem", "noise", "schedule", "hardness", "run", "eval", "output"},
        {"problem", "noise", "schedule", "run"},
    )

    prob = dict(data["problem"])
    _require_keys(
        prob,
        "problem",
        {"kind", "d", "G", "mu", "D", "domain", "x1_mode", "c"},
        {"kind", "d"},
    )
    kind = prob["kind"]
    if kind not in ("abs-sum", "euclid-norm", "linear", "hard"):
        raise ValueError(f"problem.kind {kind!r} is not supported")
    d = _as_int(prob["d"], "problem.d")
    if d < 1:
        raise ValueError("problem.d must be a positive integer")
    prob["d"] = d
    prob["mu"] = _as_float(prob.get("mu", 0.0), "problem.mu")
    if prob["mu"] < 0:
        raise ValueError("problem.mu must be nonnegative")
    if kind != "linear" and "c" in prob:
        raise ValueError("problem.c is only valid for kind linear")
    domain = prob.get("domain", {"kind": "all-space"})
    _require_keys(domain, "problem.domain", {"kind", "center", "radius"}, {"kind"})
    if domain["kind"] not in ("all-space", "ball"):
        raise ValueError("problem.domain.kind must be all-space or ball")
    if domain["kind"] == "ball":
        if "radius" not in domain:
            raise ValueError("missing required config key problem.domain.radius")
        domain = {
            "kind": "ball",
            "center": _as_floats(domain.get("center", [0.0] * d), "problem.domain.center"),
            "radius": _as_float(domain["radius"], "problem.domain.radius"),
        }
    prob["domain"] = domain
    x1_mode = prob.get("x1_mode", {"kind": "origin"})
    if isinstance(x1_mode, str):
        x1_mode = {"kind": x1_mode}
    _require_keys(x1_mode, "problem.x1_mode", {"kind", "vector"}, {"kind"})
    if x1_mode["kind"] not in ("origin", "offset"):
        raise ValueError("problem.x1_mode.kind must be origin or offset")
    if x1_mode["kind"] == "offset":
        if "vector" not in x1_mode:
            raise ValueError("missing required config key problem.x1_mode.vector")
        vec = _as_floats(x1_mode["vector"], "problem.x1_mode.vector")
        if len(vec) != d:
            raise ValueError("problem.x1_mode.vector must have length problem.d")
        x1_mode = {"kind": "offset", "vector": vec}
    else:
        x1_mode = {"kind": "origin"}
    prob["x1_mode"] = x1_mode

    noi = dict(data["noise"])
    _require_keys(
        noi,
        "noise",
        {"kind", "p", "sigma_s", "sigma_l", "stable", "scales"},
        {"kind"},
    )
    nkind = noi["kind"]
    if nkind not in ("deterministic", "additive-gaussian", "additive-stable", "hard-instance"):
        raise ValueError(f"noise.kind {nkind!r} is not supported")
    if (kind == "hard") != (nkind == "hard-instance"):
        raise ValueError("noise.kind hard-instance is required exactly for problem.kind hard")
    if nkind == "additive-stable":
        stable = noi.get("stable")
        if stable is None:
            raise ValueError("missing required config key noise.stable")
        _require_keys(stable, "noise.stable", {"alpha", "beta", "gamma"}, {"alpha"})
        noi["stable"] = {
            "alpha": _as_float(stable["alpha"], "noise.stable.alpha"),
            "beta": _as_float(stable.get("beta", 0.0), "noise.stable.beta"),
            "gamma": _as_float(stable.get("gamma", 1.0), "noise.stable.gamma"),
        }
    elif "stable" in noi:
        raise ValueError("noise.stable is only valid for kind additive-stable")
    if nkind in ("additive-gaussian", "additive-stable"):
        if "scales" not in noi:
            raise ValueError("missing required config key noise.scales")
        scales = noi["scales"]
        if isinstance(scales, list):
            noi["scales"] = _as_floats(scales, "noise.scales")
            if len(noi["scales"]) != d:
                raise ValueError("noise.scales must be a scalar or have length problem.d")
        else:
            noi["scales"] = _as_float(scales, "noise.scales")
        if np.any(np.asarray(noi["scales"]) < 0):
            raise ValueError("noise.scales must be nonnegative")
    elif "scales" in noi:
        raise ValueError("noise.scales is only valid for the additive noise kinds")
    if nkind in ("deterministic", "additive-gaussian"):
        noi.setdefault("p", 2.0)
    if "p" not in noi:
        raise ValueError("missing required config key noise.p")
    noi["p"] = _as_float(noi["p"], "noise.p")
    if not (1.0 < noi["p"] <= 2.0):
        raise ValueError("noise.p must lie in (1, 2]")
    if ("sigma_s" in noi) != ("sigma_l" in noi):
        raise ValueError("noise.sigma_s and noise.sigma_l must be given together")
    if "sigma_s" in noi:
        noi["sigma_s"] = _as_float(noi["sigma_s"], "noise.sigma_s")
        noi["sigma_l"] = _as_float(noi["sigma_l"], "noise.sigma_l")
        if not (0.0 <= noi["sigma_s"] <= noi["sigma_l"]):
            raise ValueError(
                "noise: need sigma_s <= sigma_l, the directional moment bound "
                "cannot exceed the full-norm bound"
            )
    if (
        nkind == "additive-stable"
        and noi["stable"]["alpha"] < 2.0
        and noi["p"] >= noi["stable"]["alpha"]
    ):
        raise ValueError("noise.p must be below the stability index noise.stable.alpha")

    sch = dict(data["schedule"])
    _require_keys(
        sch, "schedule", {"regime", "delta", "alpha_clip", "algorithm"}, {"regime"}
    )
    regime = sch["regime"]
    if regime not in REGIMES:
        raise ValueError(f"schedule.regime {regime!r} is not one of {REGIMES}")
    strongly = regime.startswith("str")
    if strongly != (prob["mu"] > 0):
        raise ValueError(
            "schedule.regime and problem.mu disagree (regime/mu mismatch): "
            "str-* regimes require mu > 0, cvx regimes mu = 0"
        )
    sch["alpha_clip"] = _as_float(sch.get("alpha_clip", 0.5), "schedule.alpha_clip")
    if not (0.0 < sch["alpha_clip"] < 1.0):
        raise ValueError("schedule.alpha_clip must lie in (0, 1)")
    if "delta" in sch:
        sch["delta"] = _as_float(sch["delta"], "schedule.delta")
        if not (0.0 < sch["delta"] < 1.0):
            raise ValueError("schedule.delta must lie in (0, 1)")
    elif "-hp" in regime:
        raise ValueError(f"schedule.delta is required for regime {regime}")
    algorithm = sch.get(
        "algorithm", "stabilized" if regime.endswith("-anytime") else "clipped"
    )
    if algorithm not in ("clipped", "stabilized"):
        raise ValueError("schedule.algorithm must be clipped or stabilized")
    if algorithm == "stabilized" and prob["mu"] > 0:
        raise ValueError("schedule.algorithm stabilized requires mu = 0")
    sch["algorithm"] = algorithm

    hardn = None
    if "hardness" in data:
        if kind != "hard":
            raise ValueError("config section hardness requires problem.kind hard")
        hardn = dict(data["hardness"])
        _require_keys(
            hardn,
            "hardness",
            {"regime", "d_star", "codebook", "v_mode"},
            {"regime", "d_star"},
        )
        if hardn["regime"] not in HARD_REGIMES:
            raise ValueError(
                f"hardness.regime {hardn['regime']!r} is not one of {HARD_REGIMES}"
            )
        ds = _as_int(hardn["d_star"], "hardness.d_star")
        if not (1 <= ds <= d):
            raise ValueError("hardness.d_star must satisfy 1 <= d_star <= d")
        hardn["d_star"] = ds
        hardn["codebook"] = hardn.get("codebook", "twopoint")
        if hardn["codebook"] not in ("twopoint", "gv"):
            raise ValueError("hardness.codebook must be twopoint or gv")
        hardn["v_mode"] = hardn.get("v_mode", "first")
        if hardn["v_mode"] not in ("first", "cycle"):
            raise ValueError("hardness.v_mode must be first or cycle")
        if hardn["regime"].startswith("str") != strongly:
            raise ValueError("hardness.regime and schedule.regime families disagree")
        if hardn["regime"].endswith("twopoint") and "delta" not in sch:
            raise ValueError("two-point hardness regimes require schedule.delta")
        if prob["x1_mode"]["kind"] != "origin":
            raise ValueError("hard problems are constructed around x1 = origin")
        if "D" not in prob:
            raise ValueError("missing required config key problem.D (hard construction scale)")
        if "sigma_l" not in noi:
            raise ValueError("hard problems require declared noise.sigma_l (noise budget)")
    elif kind == "hard":
        raise ValueError("problem.kind hard requires a hardness section")

    if kind == "linear" and "c" not in prob:
        raise ValueError("missing required config key problem.c")
    if kind in ("hard", "abs-sum", "euclid-norm") and "G" not in prob:
        raise ValueError("missing required config key problem.G")
    if "G" in prob:
        prob["G"] = _as_float(prob["G"], "problem.G")
        if not (prob["G"] > 0):
            raise ValueError("problem.G must be positive")
    if "D" in prob:
        prob["D"] = _as_float(prob["D"], "problem.D")
        if not (prob["D"] > 0):
            raise ValueError("problem.D must be positive")
    if "c" in prob:
        prob["c"] = _as_floats(prob["c"], "problem.c")
        if len(prob["c"]) != d:
            raise ValueError("problem.c must have length problem.d")

    run = dict(data["run"])
    _require_keys(
        run,
        "run",
        {"T_grid", "trials", "master_seed", "record_stride"},
        {"T_grid", "trials", "master_seed"},
    )
    run["T_grid"] = _parse_T_grid(run["T_grid"], "run.T_grid")
    run["trials"] = _as_int(run["trials"], "run.trials")
    if run["trials"] < 1:
        raise ValueError("run.trials must be a positive integer")
    run["master_seed"] = _as_int(run["master_seed"], "run.master_seed")
    run["record_stride"] = run.get("record_stride", "geometric:2")

    ev = dict(data.get("eval", {}))
    _require_keys(
        ev,
        "eval",
        {"quantile_levels", "averaging", "fit_drop_smallest", "assert_slope_range"},
        set(),
    )
    ev["averaging"] = ev.get("averaging", "designated")
    if ev["averaging"] not in ("designated", "plain", "weighted", "last"):
        raise ValueError(
            "eval.averaging must be one of designated, plain, weighted, last"
        )
    if "quantile_levels" in ev:
        levels = _as_floats(ev["quantile_levels"], "eval.quantile_levels")
    elif "delta" in sch:
        levels = [1.0 - sch["delta"]]
    else:
        levels = [0.9]
    for lv in levels:
        if not (0.0 < lv <= 1.0):
            raise ValueError("eval.quantile_levels entries must lie in (0, 1]")
    ev["quantile_levels"] = levels
    ev["fit_drop_smallest"] = bool(ev.get("fit_drop_smallest", True))
    if "assert_slope_range" in ev:
        bounds = _as_floats(ev["assert_slope_range"], "eval.assert_slope_range")
        if len(bounds) != 2 or not (bounds[0] <= bounds[1]):
            raise ValueError("eval.assert_slope_range must be [lo, hi] with lo <= hi")
        ev["assert_slope_range"] = bounds

    out = dict(data.get("output", {}))
    _require_keys(out, "output", {"dir"}, set())

    return ExperimentConfig(
        problem=prob,
        noise=noi,
        schedule=sch,
        hardness=hardn,
        run=run,
        eval=ev,
        output=out,
    )


# ---------------------------------------------------------------------------
# materialization


@dataclass(frozen=True)
class _Setting:
    """Everything needed to run the trials of one grid point."""

    T: int
    objective: CompositeObjective
    oracle: object
    schedule: Schedule
    x1: np.ndarray
    stabilized: bool
    hard_params: Optional[object] = None


def _build_domain(prob: dict):
    dom = prob["domain"]
    if dom["kind"] == "all-space":
        return AllSpace(prob["d"])
    return Ball(np.array(dom["center"], dtype=float), dom["radius"])


def _resolve_x1(prob: dict) -> np.ndarray:
    mode = prob["x1_mode"]
    if mode["kind"] == "origin":
        return np.zeros(prob["d"])
    return as_vector(mode["vector"], prob["d"])


def _build_standard_problem(config: ExperimentConfig):
    """Objective with a closed-form optimum for the non-hard kinds."""
    prob = config.problem
    d = prob["d"]
    mu = prob["mu"]
    domain = _build_domain(prob)
    kind = prob["kind"]
    if kind == "linear":
        c = np.array(prob["c"], dtype=float)
        G = float(row_norms(c))
        if "G" in prob and abs(prob["G"] - G) > 1e-9 * (1.0 + G):
            raise ValueError("problem.G disagrees with ||c|| for kind linear")
        f = Linear(c)
        if mu > 0:
            r = QuadReg(mu, np.zeros(d))
            x_star = -c / mu
            F_star = float(c @ x_star) + 0.5 * mu * float(x_star @ x_star)
        else:
            if isinstance(domain, AllSpace):
                raise ValueError(
                    "linear problem with mu = 0 needs a ball domain to be bounded"
                )
            r = None
            nc = float(row_norms(c))
            if nc == 0.0:
                raise ValueError("problem.c must be nonzero")
            x_star = domain.center - domain.radius * c / nc
            F_star = float(c @ x_star)
    else:
        G = prob["G"]
        if kind == "abs-sum":
            # equal weights G/sqrt(d) keep the subgradient norm at most G
            f = AbsSum(np.full(d, G / math.sqrt(d)), np.zeros(d))
        else:
            f = EuclidNorm(G, np.zeros(d))
        r = QuadReg(mu, np.zeros(d)) if mu > 0 else None
        x_star = np.zeros(d)
        F_star = 0.0
    if isinstance(domain, Ball):
        if float(row_norms(x_star - domain.center)) > domain.radius * (1 + 1e-12):
            raise ValueError("problem domain does not contain the optimum")
    return CompositeObjective(
        f=f,
        r=r,
        domain=domain,
        lipschitz_G=G,
        mu=mu,
        optimum=Optimum(x_star, F_star),
    )


def _build_oracle(config: ExperimentConfig, objective: CompositeObjective):
    noi = config.noise
    kind = noi["kind"]
    declared = None
    if "sigma_s" in noi:
        declared = NoiseSpec(noi["p"], noi["sigma_s"], noi["sigma_l"])
    if kind == "deterministic":
        return make_oracle(objective, kind, declared_noise=declared)
    scale = noi["scales"]
    scales = (
        np.full(objective.d, float(scale))
        if isinstance(scale, float)
        else as_vector(scale, objective.d)
    )
    if kind == "additive-gaussian":
        return make_oracle(objective, kind, scales=scales, declared_noise=declared)
    st = noi["stable"]
    stable = StableParams(st["alpha"], st["beta"], st["gamma"])
    return make_oracle(
        objective, kind, scales=scales, stable=stable,
        declared_noise=declared, p=noi["p"],
    )


def _make_codebook(kind: str, d_star: int, master: int):
    """The twopoint codebook, or the gv codebook drawn from master's codebook stream."""
    if kind == "twopoint":
        return two_point_codebook(d_star)
    rng = np.random.default_rng(derive_seed(master, 0, _TAG_CODEBOOK))
    return gv_codebook(d_star, rng)


def _codebook_for(config: ExperimentConfig):
    h = config.hardness
    if h is None:
        return None
    return _make_codebook(h["codebook"], h["d_star"], config.run["master_seed"])


def _materialize(config: ExperimentConfig, T: int, codebook, word_index: int) -> _Setting:
    prob = config.problem
    sch = config.schedule
    regime = sch["regime"]
    stabilized = sch["algorithm"] == "stabilized"
    if prob["kind"] == "hard":
        h = config.hardness
        hp = hard_params(
            h["regime"],
            d_star=h["d_star"],
            T=T,
            G=prob["G"],
            D=prob["D"],
            sigma_l=config.noise["sigma_l"],
            p=config.noise["p"],
            mu=prob["mu"],
            delta=sch.get("delta") if h["regime"].endswith("twopoint") else None,
        )
        v = codebook.words[word_index % codebook.size]
        objective, oracle = make_hard_instance(
            h["regime"].split("-")[0], prob["d"], h["d_star"], hp, v
        )
        x1 = np.zeros(prob["d"])
        D = prob["D"]
        spec = oracle.noise
    else:
        objective = _build_standard_problem(config)
        oracle = _build_oracle(config, objective)
        x1 = _resolve_x1(prob)
        computed_D = float(row_norms(x1 - objective.optimum.x_star))
        if "D" in prob:
            D = prob["D"]
            if abs(D - computed_D) > 1e-9 * (1.0 + computed_D):
                raise ValueError(
                    "problem.D disagrees with ||x1 - x_star|| for this problem"
                )
        else:
            D = computed_D
        if D <= 0:
            raise ValueError("x1 coincides with the optimum; D must be positive")
        spec = oracle.noise
        spec.check_bracket(objective.d)
        hp = None
    params = ScheduleParams(
        p=spec.p,
        sigma_s=spec.sigma_s,
        sigma_l=spec.sigma_l,
        G=objective.lipschitz_G,
        D=D,
        mu=prob["mu"],
        delta=sch.get("delta"),
        alpha_clip=sch["alpha_clip"],
        T_known=T if regime.endswith("-T") else None,
    )
    schedule = make_schedule(regime, params)
    return _Setting(
        T=T,
        objective=objective,
        oracle=oracle,
        schedule=schedule,
        x1=x1,
        stabilized=stabilized,
        hard_params=hp,
    )


def _schedule_entry(setting: _Setting) -> dict:
    """Horizon, resolved schedule constants and hard parameters of a setting."""
    entry = {"T": setting.T}
    entry.update(setting.schedule.constants())
    if setting.hard_params is not None:
        entry["hard_params"] = setting.hard_params.to_dict()
    return entry


# ---------------------------------------------------------------------------
# statistics


@dataclass(frozen=True)
class SummaryStats:
    n: int
    mean: float
    std: float
    quantiles: dict


def summarize(values, quantile_levels) -> SummaryStats:
    """Mean, sample std (0 for n = 1), and nearest-rank quantiles."""
    v = np.asarray(values, dtype=float)
    if v.ndim != 1 or v.size == 0:
        raise ValueError("summarize needs a nonempty 1-D sample")
    n = v.size
    mean = float(np.mean(v))
    std = 0.0 if n < 2 else float(np.std(v, ddof=1))
    s = np.sort(v)
    quants = {}
    for lv in quantile_levels:
        lv = float(lv)
        if not (0.0 < lv <= 1.0):
            raise ValueError("quantile levels must lie in (0, 1]")
        rank = max(int(math.ceil(lv * n)), 1)
        quants[lv] = float(s[rank - 1])
    return SummaryStats(n=n, mean=mean, std=std, quantiles=quants)


@dataclass(frozen=True)
class FitResult:
    slope: float
    intercept: float
    slope_stderr: float
    r2: float
    n_points: int
    dropped_smallest: bool


def fit_rate(T_values, errors, drop_smallest: bool = True) -> FitResult:
    """OLS of ln error on ln T.

    The smallest horizon is dropped by default (transient burn-in).  All
    errors must be positive; needs at least 2 points after the drop.
    r2 is defined as 1 when the total sum of squares vanishes.
    """
    Ts = np.asarray(T_values, dtype=float)
    errs = np.asarray(errors, dtype=float)
    if Ts.shape != errs.shape or Ts.ndim != 1:
        raise ValueError("T_values and errors must be 1-D of equal length")
    if np.any(errs <= 0) or np.any(Ts <= 0):
        raise ValueError("rate fitting requires positive horizons and errors")
    order = np.argsort(Ts)
    Ts, errs = Ts[order], errs[order]
    dropped = False
    if drop_smallest and Ts.size >= 3:
        Ts, errs = Ts[1:], errs[1:]
        dropped = True
    n = Ts.size
    if n < 2:
        raise ValueError("rate fitting needs at least 2 points (after the drop)")
    x = np.log(Ts)
    y = np.log(errs)
    xm, ym = float(np.mean(x)), float(np.mean(y))
    sxx = float(np.add.reduce((x - xm) ** 2))
    if sxx == 0.0:
        raise ValueError("rate fitting needs at least two distinct horizons")
    slope = float(np.add.reduce((x - xm) * (y - ym))) / sxx
    intercept = ym - slope * xm
    resid = y - (intercept + slope * x)
    rss = float(np.add.reduce(resid * resid))
    sst = float(np.add.reduce((y - ym) ** 2))
    r2 = 1.0 if sst == 0.0 else 1.0 - rss / sst
    stderr = 0.0 if n <= 2 else math.sqrt(rss / (n - 2) / sxx)
    return FitResult(
        slope=slope,
        intercept=intercept,
        slope_stderr=stderr,
        r2=r2,
        n_points=n,
        dropped_smallest=dropped,
    )


# ---------------------------------------------------------------------------
# execution


@dataclass(frozen=True)
class PerTStats:
    """Designated-aggregate suboptimality statistics at one horizon."""

    T: int
    stats: SummaryStats
    mu_dist2_mean: float
    clip_rate: float
    codeword_means: Optional[dict] = None


@dataclass(frozen=True)
class ExperimentResult:
    config: ExperimentConfig
    config_digest: str
    per_T: list
    fit: Optional[FitResult]
    manifest: dict
    assertions_passed: Optional[bool]


def _block_width(d: int) -> int:
    """Rows per block: the most multiples of BLOCK_TRIALS within NOISE_BUDGET."""
    rows_bytes = BLOCK_TRIALS * NOISE_CHUNK * d * 8
    return BLOCK_TRIALS * max(1, NOISE_BUDGET // rows_bytes)


def _run_block(setting: _Setting, master: int, tag: int, indices, mode: str) -> tuple:
    rngs = [
        np.random.default_rng(derive_seed(master, j, tag)) for j in indices
    ]
    batch = run_trials(
        setting.objective,
        setting.oracle,
        setting.schedule,
        setting.T,
        setting.x1,
        rngs,
        stabilized=setting.stabilized,
    )
    obj = setting.objective
    opt = obj.optimum
    subopt = np.maximum(eval_F_batch(obj, average(batch, mode)) - opt.F_star, 0.0)
    diff = batch.x_last - opt.x_star
    mu_dist2 = obj.mu * np.add.reduce(diff * diff, axis=-1)
    clip_rate = batch.clip_events / float(setting.T)
    return subopt, mu_dist2, clip_rate


def _git_describe() -> Optional[str]:
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            capture_output=True,
            text=True,
            timeout=10,
        )
    except Exception:
        return None
    if out.returncode != 0:
        return None
    return out.stdout.strip() or None


def run_experiment(config: ExperimentConfig, threads: int = 1) -> ExperimentResult:
    """Run the full T sweep; deterministic given the config, for any threads."""
    threads = int(threads)
    if threads < 1:
        raise ValueError("threads must be a positive integer")
    run = config.run
    master = run["master_seed"]
    Ts = run["T_grid"]
    trials = run["trials"]
    levels = config.eval["quantile_levels"]

    delta = config.schedule.get("delta")
    if delta is not None and trials < 10.0 / delta:
        warnings.warn(
            f"trials={trials} is below 10/delta; the {1 - delta:g}-quantile "
            "estimate will be unstable",
            stacklevel=2,
        )

    codebook = _codebook_for(config)
    cycle = (
        config.hardness is not None and config.hardness["v_mode"] == "cycle"
    )

    words = codebook.size if cycle else 1
    # a block must not mix codewords, so rotating ones pin its width
    width = BLOCK_TRIALS if words > 1 else _block_width(config.problem["d"])
    blocks = [range(b0, min(b0 + width, trials)) for b0 in range(0, trials, width)]

    # settings[ti][wi] runs codeword wi at grid index ti; block b runs
    # codeword b % words, since codewords rotate every BLOCK_TRIALS trials
    settings = [
        [_materialize(config, T, codebook, wi) for wi in range(min(words, len(blocks)))]
        for T in Ts
    ]
    first = settings[0][0]
    mode = config.eval["averaging"]
    if mode == "designated":
        mode = first.schedule.averaging

    jobs = [
        (row[b % words], master, ti, idx, mode)
        for ti, row in enumerate(settings)
        for b, idx in enumerate(blocks)
    ]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        outs = list(pool.map(lambda job: _run_block(*job), jobs))

    word = np.arange(trials) // BLOCK_TRIALS % words
    per_T = []
    for ti, T in enumerate(Ts):
        parts = outs[ti * len(blocks) : (ti + 1) * len(blocks)]
        subopt, mu_dist2, clip_rate = (np.concatenate(col) for col in zip(*parts))
        codeword_means = None
        if cycle:
            codeword_means = {
                wi: float(np.mean(subopt[word == wi]))
                for wi in range(len(settings[ti]))
            }
        per_T.append(
            PerTStats(
                T=T,
                stats=summarize(subopt, levels),
                mu_dist2_mean=float(np.mean(mu_dist2)),
                clip_rate=float(np.mean(clip_rate)),
                codeword_means=codeword_means,
            )
        )

    fit = None
    means = [row.stats.mean for row in per_T]
    if len(per_T) >= 3 and all(m > 0 for m in means):
        fit = fit_rate(Ts, means, drop_smallest=config.eval["fit_drop_smallest"])

    assertions_passed = None
    if "assert_slope_range" in config.eval:
        lo, hi = config.eval["assert_slope_range"]
        assertions_passed = fit is not None and lo <= fit.slope <= hi

    spec = first.oracle.noise
    manifest = {
        "config": config.to_dict(),
        "config_digest": config.digest(),
        "package_version": _pkg_version,
        "git_describe": _git_describe(),
        "master_seed": master,
        "T_values": list(Ts),
        "trials": trials,
        "block_trials": BLOCK_TRIALS,
        "designated_aggregate": first.schedule.averaging,
        "reported_aggregate": config.eval["averaging"],
        "noise_declared": {
            "p": spec.p,
            "sigma_s": spec.sigma_s,
            "sigma_l": spec.sigma_l,
            "d_eff": spec.d_eff,
        },
        "schedule_constants": [_schedule_entry(row[0]) for row in settings],
    }
    if codebook is not None:
        manifest["codebook"] = {
            "kind": config.hardness["codebook"],
            "size": codebook.size,
            "d_star": codebook.d_star,
            "min_distance": codebook.min_distance,
            "target_size": codebook.target_size,
            "shortfall": codebook.shortfall,
            "v_mode": config.hardness["v_mode"],
        }
    if fit is not None:
        manifest["fit"] = {
            "slope": fit.slope,
            "intercept": fit.intercept,
            "slope_stderr": fit.slope_stderr,
            "r2": fit.r2,
            "n_points": fit.n_points,
            "dropped_smallest": fit.dropped_smallest,
        }
    if assertions_passed is not None:
        manifest["assertions_passed"] = assertions_passed

    return ExperimentResult(
        config=config,
        config_digest=config.digest(),
        per_T=per_T,
        fit=fit,
        manifest=manifest,
        assertions_passed=assertions_passed,
    )


# ---------------------------------------------------------------------------
# persistence


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", text=True)
    try:
        with os.fdopen(fd, "w", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def persist(result: ExperimentResult, out_dir: str) -> dict:
    """Write series.csv, fit.csv, and manifest.json atomically.

    Floats are rendered with 17 significant digits (round-trip exact);
    files use LF endings and carry no timestamps, so identical results
    produce identical bytes.
    """
    if not result.per_T:
        raise ValueError("cannot persist an empty result")
    os.makedirs(out_dir, exist_ok=True)
    levels = result.config.eval["quantile_levels"]

    cols = ["T", "n", "mean", "std"]
    cols += [f"q_{lv:g}" for lv in levels]
    cols += ["mu_dist2_mean", "clip_rate"]
    lines = [",".join(cols)]
    for row in result.per_T:
        vals = [str(row.T), str(row.stats.n), _fmt(row.stats.mean), _fmt(row.stats.std)]
        vals += [_fmt(row.stats.quantiles[lv]) for lv in levels]
        vals += [_fmt(row.mu_dist2_mean), _fmt(row.clip_rate)]
        lines.append(",".join(vals))
    series_path = os.path.join(out_dir, "series.csv")
    _atomic_write(series_path, "\n".join(lines) + "\n")

    fit_path = os.path.join(out_dir, "fit.csv")
    header = "slope,intercept,slope_stderr,r2,n_points,dropped_smallest"
    if result.fit is None:
        _atomic_write(fit_path, header + "\n")
    else:
        f = result.fit
        row = ",".join(
            [
                _fmt(f.slope),
                _fmt(f.intercept),
                _fmt(f.slope_stderr),
                _fmt(f.r2),
                str(f.n_points),
                str(int(f.dropped_smallest)),
            ]
        )
        _atomic_write(fit_path, header + "\n" + row + "\n")

    manifest_path = os.path.join(out_dir, "manifest.json")
    _atomic_write(
        manifest_path,
        json.dumps(result.manifest, sort_keys=True, indent=2) + "\n",
    )
    return {
        "series": series_path,
        "fit": fit_path,
        "manifest": manifest_path,
    }
