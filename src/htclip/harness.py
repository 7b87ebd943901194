"""Experiment harness: config parsing, deterministic execution, persistence.

An experiment sweeps a geometric grid of horizons T, runs a fixed number
of independent trials per T, reports the designated aggregate's
suboptimality statistics per T, and fits ln error against ln T.

Determinism contract: results are a pure function of the resolved config
plus master seed.  Trial j at grid index ti consumes exactly the rng
seeded with derive_seed(master, j, ti), and under v_mode "cycle" runs
codeword (j // BLOCK_TRIALS) % size.  Every (ti, j) pair is one row;
the rows are listed longest horizon first and cut into shards of
consecutive rows whose width is set by bytes, not by count: the most
multiples of BLOCK_TRIALS rows whose noise, at the sub-chunk the kernel
draws them at, fits NOISE_BUDGET (see _shard_width).  A shard is one
run_trials call, which runs one step loop to the shard's longest
horizon with each row's own oracle, schedule and horizon, so a shard
may mix horizons and codewords.  Every shard goes through one
ThreadPoolExecutor(max_workers=threads).map, at any thread count, and
the rows are put back per horizon in submission order.  The kernel is
row-wise, so neither the shard partition nor the thread count changes
any output byte.  Nor does the working directory: manifest.json records
package_version as its only provenance, so all three output files are a
function of the config plus seed.

run_experiment is four phases in turn: materialize (_phase_materialize:
the codebook and a setting per horizon and codeword), kernel
(_phase_kernel: the shard map, one suboptimality, distance and clip-rate
column each), evaluate (_phase_evaluate: per-T statistics, the fit and
the slope assertion) and report (_phase_report: the manifest).  htclip
schedule reads the materialize phase too, so the constants it prints are
the manifest's schedule_constants.

Each config section and key is declared once, in the spec tables above
parse_config; a bad value raises a ValueError that names its key.
"""

from __future__ import annotations

import hashlib
import json
import math
import numbers
import os
import tempfile
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field
from itertools import repeat
from typing import Optional

import numpy as np

from ._version import __version__ as _pkg_version
from ._util import finite_row_norms
from .algorithms import NOISE_BUDGET, _check_start, _noise_bytes, _rows_sub_chunk
from .algorithms import average, run_trials
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

# codeword period of v_mode "cycle" and the narrowest shard of rows
BLOCK_TRIALS = 64

_MASK64 = (1 << 64) - 1

# rng stream tags: grid index ti for trial streams, high tags reserved
_TAG_CODEBOOK = 1 << 16


def _mix64(z: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer on uint64 arrays, whose arithmetic wraps; a
    bijection on 64-bit words."""
    z = z + np.uint64(0x9E3779B97F4A7C15)
    z ^= z >> 30
    z *= np.uint64(0xBF58476D1CE4E5B9)
    z ^= z >> 27
    z *= np.uint64(0x94D049BB133111EB)
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
    return int(_derive_seeds(master, [trial], [tag])[0])


def _derive_seeds(master: int, trials, tags) -> np.ndarray:
    """derive_seed(master, trial, tag) of each pair of trials and tags,
    unchecked, as a uint64 array."""
    packed = (np.array(tags, np.uint64) << 32) | np.array(trials, np.uint64)
    return _mix64(np.uint64(int(master) & _MASK64) ^ _mix64(packed))


# ---------------------------------------------------------------------------
# configuration

# Every config key is declared once, in the section tables below, as
# key -> (parse,) for an optional key that stays absent when not given,
# or (parse, default) where the default is a value or _REQ for a required
# key.  parse(value, path) checks one value and returns its resolved form;
# _section runs it on every given value and every default.  The rules that
# span keys, and the defaults that depend on a kind, are in parse_config.

_REQ = object()

# Caps on the size keys.  Each keeps a run's integers in range and its
# memory bounded: a trial holds at most 4,096 noise entries at a time
# (see algorithms._sub_chunk), derive_seed takes trial indices below 2^32
# and grid indices below 2^16, and results are kept for every
# (horizon, trial) row.
MAX_D = 1 << 12  # problem.d and hardness.d_star
MAX_TRIALS = 1 << 20  # run.trials
MAX_T = 1 << 30  # each horizon in run.T_grid
MAX_HORIZONS = 1 << 10  # entries of run.T_grid


def _int(val, path: str) -> int:
    """An integer; integral floats pass, anything else is rejected."""
    if isinstance(val, float) and val.is_integer():
        return int(val)
    if isinstance(val, bool) or not isinstance(val, numbers.Integral):
        raise ValueError(f"{path} must be an integer, got {val!r}")
    return int(val)


def _real(val, path: str) -> float:
    """A finite real; null, strings, booleans, NaN, +-inf and integers
    beyond the float range are rejected."""
    if not isinstance(val, bool) and isinstance(val, numbers.Real):
        try:
            if math.isfinite(val):
                return float(val)
        except OverflowError:
            pass
    raise ValueError(f"{path} must be a finite number, got {val!r}")


def _reals(val, path: str) -> list:
    """A list of finite reals, each entry named by its index."""
    if not isinstance(val, list):
        raise ValueError(f"{path} must be a list of numbers, got {val!r}")
    return [_real(v, f"{path}[{i}]") for i, v in enumerate(val)]


def _text(val, path: str) -> str:
    if not isinstance(val, str):
        raise ValueError(f"{path} must be a string, got {val!r}")
    return val


def _stride(val, path: str):
    """A record stride: a positive integer (every that many steps) or
    "geometric[:R]" with a finite ratio R > 1 (2 when omitted)."""
    if isinstance(val, str):
        name, _, ratio = val.partition(":")
        try:
            ok = name == "geometric" and 1.0 < (float(ratio) if ratio else 2.0) < math.inf
        except ValueError:
            ok = False
    else:
        try:
            val = _int(val, path)
        except ValueError:
            ok = False
        else:
            ok = val >= 1
    if not ok:
        raise ValueError(
            f'{path} must be a positive integer or "geometric[:R]" with a '
            f"finite R > 1, got {val!r}"
        )
    return val


def _flag(val, path: str) -> bool:
    if not isinstance(val, bool):
        raise ValueError(f"{path} must be true or false, got {val!r}")
    return val


def _one_of(*choices):
    def parse(val, path):
        if not isinstance(val, str) or val not in choices:
            raise ValueError(f"{path} {val!r} is not one of {', '.join(choices)}")
        return val

    return parse


def _where(parse, ok, need: str):
    """parse, then require ok(value); need says what ok asks for."""

    def checked(val, path):
        val = parse(val, path)
        if not ok(val):
            raise ValueError(f"{path} {need}")
        return val

    return checked


def _sub(spec: dict):
    return lambda val, path: _section(val, path, spec)


def _section(raw, path: str, spec: dict) -> dict:
    """The resolved section: an object with only spec's keys, all required
    ones given, each value and default parsed.  path "" is the whole config."""
    where = path or "config"
    if not isinstance(raw, dict):
        raise ValueError(f"config section {where!r} must be an object")
    for k in raw:
        if k not in spec:
            raise ValueError(f"unknown config key {where}.{k}")
    out = {}
    for k, (parse, *default) in spec.items():
        key = f"{path}.{k}" if path else k
        if k in raw:
            out[k] = parse(raw[k], key)
        elif default and default[0] is _REQ:
            raise ValueError(f"missing required config key {where}.{k}")
        elif default:
            out[k] = parse(default[0], key)
    return out


def _T_grid(val, path: str) -> list:
    """A list of horizons, or a min/max/ratio object expanded geometrically."""
    if isinstance(val, dict):
        g = _section(val, path, _GRID)
        if g["max"] < g["min"]:
            raise ValueError(f"{path}: need 1 <= min <= max")
        Ts = []
        t = g["min"]
        while t <= g["max"] and len(Ts) <= MAX_HORIZONS:
            Ts.append(t)
            # past MAX_T the grid ends either way; the cap keeps a huge
            # ratio from overflowing the int conversion
            t = max(t + 1, int(round(min(t * g["ratio"], MAX_T + 1.0))))
    elif isinstance(val, list):
        Ts = [_int(t, f"{path}[{i}]") for i, t in enumerate(val)]
    else:
        raise ValueError(f"{path} must be a list of horizons or a min/max/ratio object")
    if not Ts or any(t < 1 for t in Ts) or sorted(set(Ts)) != Ts:
        raise ValueError(f"{path} must be strictly increasing positive integers")
    if len(Ts) > MAX_HORIZONS or Ts[-1] > MAX_T:
        raise ValueError(
            f"{path} must hold at most {MAX_HORIZONS} horizons of at most {MAX_T}"
        )
    return Ts


def _x1_mode(val, path: str) -> dict:
    # a bare string is shorthand for {"kind": string}
    return _section({"kind": val} if isinstance(val, str) else val, path, _X1_MODE)


def _count(cap: int):
    """A positive integer of at most cap."""
    return _where(_int, lambda v: 1 <= v <= cap, f"must be an integer in [1, {cap}]")


_POSITIVE = _where(_real, lambda v: v > 0, "must be positive")
_NONNEG = _where(_real, lambda v: v >= 0, "must be nonnegative")
_UNIT = _where(_real, lambda v: 0 < v < 1, "must lie in (0, 1)")

_GRID = {
    "min": (_count(MAX_T), _REQ),
    "max": (_count(MAX_T), _REQ),
    "ratio": (_where(_real, lambda v: v > 1, "must exceed 1"), 2.0),
}
_DOMAIN = {
    "kind": (_one_of("all-space", "ball"), _REQ),
    "center": (_reals,),
    "radius": (_POSITIVE,),
}
_X1_MODE = {"kind": (_one_of("origin", "offset"), _REQ), "vector": (_reals,)}
_PROBLEM = {
    "kind": (_one_of("abs-sum", "euclid-norm", "linear", "hard"), _REQ),
    "d": (_count(MAX_D), _REQ),
    "G": (_POSITIVE,),
    "mu": (_NONNEG, 0.0),
    "D": (_POSITIVE,),
    "domain": (_sub(_DOMAIN), {"kind": "all-space"}),
    "x1_mode": (_x1_mode, "origin"),
    "c": (_reals,),
}
_STABLE = {
    "alpha": (_where(_real, lambda v: 0 < v <= 2, "must lie in (0, 2]"), _REQ),
    "beta": (_where(_real, lambda v: -1 <= v <= 1, "must lie in [-1, 1]"), 0.0),
    "gamma": (_NONNEG, 1.0),
}
_NOISE = {
    "kind": (
        _one_of("deterministic", "additive-gaussian", "additive-stable", "hard-instance"),
        _REQ,
    ),
    "p": (_where(_real, lambda v: 1 < v <= 2, "must lie in (1, 2]"),),
    "sigma_s": (_NONNEG,),
    "sigma_l": (_NONNEG,),
    "stable": (_sub(_STABLE),),
    "scales": (
        _where(
            lambda v, path: (_reals if isinstance(v, list) else _real)(v, path),
            lambda v: not np.any(np.asarray(v) < 0),
            "must be nonnegative",
        ),
    ),
}
_SCHEDULE = {
    "regime": (_one_of(*REGIMES), _REQ),
    "delta": (_UNIT,),
    "alpha_clip": (_UNIT, 0.5),
    "algorithm": (_one_of("clipped", "stabilized"),),
}
_HARDNESS = {
    "regime": (_one_of(*HARD_REGIMES), _REQ),
    "d_star": (_count(MAX_D), _REQ),
    "codebook": (_one_of("twopoint", "gv"), "twopoint"),
    "v_mode": (_one_of("first", "cycle"), "first"),
}
_RUN = {
    "T_grid": (_T_grid, _REQ),
    "trials": (_count(MAX_TRIALS), _REQ),
    "master_seed": (_int, _REQ),
    # recorded in manifest.json and read by nothing; kept because the
    # pinned manifest bytes hold it, until runs report curves against t
    "record_stride": (_stride, "geometric:2"),
}
_EVAL = {
    "quantile_levels": (
        _where(
            _reals, lambda v: all(0 < lv <= 1 for lv in v), "entries must lie in (0, 1]"
        ),
    ),
    "averaging": (_one_of("designated", "plain", "weighted", "last"), "designated"),
    "fit_drop_smallest": (_flag, True),
    "assert_slope_range": (
        _where(
            _reals, lambda v: len(v) == 2 and v[0] <= v[1], "must be [lo, hi] with lo <= hi"
        ),
    ),
}
_CONFIG = {
    "problem": (_sub(_PROBLEM), _REQ),
    "noise": (_sub(_NOISE), _REQ),
    "schedule": (_sub(_SCHEDULE), _REQ),
    "hardness": (_sub(_HARDNESS),),
    "run": (_sub(_RUN), _REQ),
    "eval": (_sub(_EVAL), {}),
    "output": (_sub({"dir": (_text,)}), {}),
}


def _gate(sec: dict, path: str, key: str, need: bool, allow: bool, what: str = ""):
    """A presence rule across keys: key is required if need, allowed only if allow."""
    if need and key not in sec:
        raise ValueError(f"missing required config key {path}.{key}")
    if key in sec and not allow:
        raise ValueError(f"{path}.{key} is only valid for {what}")


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
        """The resolved sections; hardness only when there is one."""
        return {k: v for k, v in vars(self).items() if v is not None}

    def digest(self) -> str:
        blob = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()


def parse_config(data: dict) -> ExperimentConfig:
    """Validate a config mapping strictly; a bad key or value raises a
    ValueError that names it, unknown keys included."""
    cfg = _section(data, "", _CONFIG)
    prob, noi, sch, ev = cfg["problem"], cfg["noise"], cfg["schedule"], cfg["eval"]
    hardn, dom, x1 = cfg.get("hardness"), prob["domain"], prob["x1_mode"]
    kind, nkind, regime = prob["kind"], noi["kind"], sch["regime"]
    d, mu, strongly = prob["d"], prob["mu"], regime.startswith("str")
    hard, linear, ball = kind == "hard", kind == "linear", dom["kind"] == "ball"
    offset, stable = x1["kind"] == "offset", nkind == "additive-stable"
    additive = stable or nkind == "additive-gaussian"

    if hard != (nkind == "hard-instance"):
        raise ValueError("noise.kind hard-instance is required exactly for problem.kind hard")
    _gate(cfg, "config", "hardness", hard, hard, "problem.kind hard")
    _gate(prob, "problem", "c", linear, linear, "kind linear")
    _gate(prob, "problem", "G", not linear, True)
    _gate(prob, "problem", "D", hard, True)
    _gate(dom, "problem.domain", "radius", ball, ball, "kind ball")
    _gate(dom, "problem.domain", "center", False, ball, "kind ball")
    _gate(x1, "problem.x1_mode", "vector", offset, offset, "kind offset")
    _gate(noi, "noise", "stable", stable, stable, "kind additive-stable")
    _gate(noi, "noise", "scales", additive, additive, "the additive noise kinds")
    if nkind in ("deterministic", "additive-gaussian"):
        noi.setdefault("p", 2.0)
    _gate(noi, "noise", "p", True, True)
    _gate(noi, "noise", "sigma_s", "sigma_l" in noi, True)
    _gate(noi, "noise", "sigma_l", hard or "sigma_s" in noi, True)
    twopoint = hard and hardn["regime"].endswith("twopoint")
    _gate(sch, "schedule", "delta", "-hp" in regime or twopoint, True)
    if ball:
        dom.setdefault("center", [0.0] * d)
    for path, vec in (
        ("problem.c", prob.get("c")),
        ("problem.domain.center", dom.get("center")),
        ("problem.x1_mode.vector", x1.get("vector")),
        ("noise.scales", noi.get("scales")),
    ):
        if isinstance(vec, list) and len(vec) != d:
            raise ValueError(f"{path} must have length problem.d = {d}, got {len(vec)}")

    if strongly != (mu > 0):
        raise ValueError(
            "schedule.regime and problem.mu disagree (regime/mu mismatch): "
            "str-* regimes require mu > 0, cvx regimes mu = 0"
        )
    if "sigma_s" in noi and noi["sigma_s"] > noi["sigma_l"]:
        raise ValueError(
            "noise.sigma_s must not exceed noise.sigma_l: the directional "
            "moment bound cannot exceed the full-norm bound"
        )
    if stable and noi["p"] >= noi["stable"]["alpha"] and noi["stable"]["alpha"] < 2.0:
        raise ValueError("noise.p must be below the stability index noise.stable.alpha")
    sch.setdefault("algorithm", "stabilized" if regime.endswith("-anytime") else "clipped")
    if sch["algorithm"] == "stabilized" and mu > 0:
        raise ValueError("schedule.algorithm stabilized requires mu = 0")
    ev.setdefault("quantile_levels", [1.0 - sch["delta"]] if "delta" in sch else [0.9])
    if hard:
        if hardn["d_star"] > d:
            raise ValueError("hardness.d_star must satisfy 1 <= d_star <= d")
        if hardn["regime"].startswith("str") != strongly:
            raise ValueError("hardness.regime and schedule.regime families disagree")
        if offset:
            raise ValueError("problem.x1_mode must be origin: hard problems start at 0")

    return ExperimentConfig(
        problem=prob,
        noise=noi,
        schedule=sch,
        hardness=hardn,
        run=cfg["run"],
        eval=ev,
        output=cfg["output"],
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


def _resolve_x1(prob: dict, objective: CompositeObjective) -> np.ndarray:
    mode = prob["x1_mode"]
    if mode["kind"] == "origin":
        return _check_start(objective, np.zeros(prob["d"]), "problem.x1_mode origin")
    return _check_start(objective, mode["vector"], "problem.x1_mode.vector")


def _build_standard_problem(config: ExperimentConfig):
    """Objective with a closed-form optimum for the non-hard kinds."""
    prob = config.problem
    d = prob["d"]
    mu = prob["mu"]
    domain = _build_domain(prob)
    kind = prob["kind"]
    if kind == "linear":
        c = np.array(prob["c"], dtype=float)
        G = float(finite_row_norms(c))
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
            if G == 0.0:
                raise ValueError("problem.c must be nonzero")
            x_star = domain.center - domain.radius * c / G
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
        gap = float(finite_row_norms(x_star - domain.center))
        if gap > domain.radius * (1 + 1e-12):
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
    """The config's noise oracle.  scales and stable are passed when the
    config has them; make_oracle reads the arguments its kind takes."""
    noi = config.noise
    declared = None
    if "sigma_s" in noi:
        declared = NoiseSpec(noi["p"], noi["sigma_s"], noi["sigma_l"])
    return make_oracle(
        objective, noi["kind"],
        scales=np.full(objective.d, noi["scales"]) if "scales" in noi else None,
        stable=StableParams(**noi["stable"]) if "stable" in noi else None,
        declared_noise=declared, p=noi["p"],
    )


def _make_codebook(kind: str, d_star: int, master: int):
    """The twopoint codebook, or the gv codebook drawn from master's codebook stream."""
    if kind == "twopoint":
        return two_point_codebook(d_star)
    rng = np.random.default_rng(derive_seed(master, 0, _TAG_CODEBOOK))
    try:
        return gv_codebook(d_star, rng)
    except ValueError as exc:
        raise ValueError(f"hardness.d_star: {exc}") from None


def _setting(config: ExperimentConfig, T: int, codebook, word_index: int) -> _Setting:
    """The setting of horizon T that runs codeword word_index (wrapped)."""
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
        x1 = _resolve_x1(prob, objective)
        computed_D = float(finite_row_norms(x1 - objective.optimum.x_star))
        if "D" in prob:
            D = prob["D"]
            if abs(D - computed_D) > 1e-9 * (1.0 + computed_D):
                raise ValueError(
                    "problem.D disagrees with ||x1 - x_star|| for this problem"
                )
        else:
            D = computed_D
        if D <= 0:
            raise ValueError(
                "problem.x1_mode: x1 coincides with the optimum; D must be positive"
            )
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


def _phase_materialize(config: ExperimentConfig, Ts) -> tuple:
    """The materialize phase: the codebook (None for a standard problem)
    and settings[ti][wi], the setting of horizon Ts[ti] that runs codeword
    wi.  Trial j runs settings[ti][j // BLOCK_TRIALS % len(settings[ti])]:
    under v_mode "cycle" the codewords rotate every BLOCK_TRIALS trials,
    and otherwise only codeword 0 runs."""
    h, trials = config.hardness, config.run["trials"]
    codebook = None
    if h is not None:
        codebook = _make_codebook(h["codebook"], h["d_star"], config.run["master_seed"])
    words = codebook.size if h is not None and h["v_mode"] == "cycle" else 1
    used = min(words, math.ceil(trials / BLOCK_TRIALS))
    return codebook, [[_setting(config, T, codebook, wi) for wi in range(used)] for T in Ts]


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


def _shard_width(oracle, rows: int) -> int:
    """Rows per shard of a run of rows rows of oracle's noise: the most
    multiples of BLOCK_TRIALS, up to the run's rows, whose noise
    (algorithms._noise_bytes) fits NOISE_BUDGET at the sub-chunk the
    kernel draws them at (algorithms._rows_sub_chunk: the largest that
    fits, or the least), or BLOCK_TRIALS if none do.  Each thread runs
    one shard at a time."""
    for width in range(BLOCK_TRIALS * -(-rows // BLOCK_TRIALS), BLOCK_TRIALS, -BLOCK_TRIALS):
        if _noise_bytes(oracle, width, _rows_sub_chunk(oracle, width)) <= NOISE_BUDGET:
            return width
    return BLOCK_TRIALS


def _run_shard(rows: list, master: int, mode: str, shared: bool) -> tuple:
    """Run one shard; rows are (grid index, trial, setting), longest horizon
    first.  shared: every row runs the first row's oracle."""
    settings = [s for _, _, s in rows]
    first = settings[0]
    # numpy.random loads with the first shard
    from ._seeding import default_rngs

    grid, trials = zip(*((ti, j) for ti, j, _ in rows))
    rngs = default_rngs(_derive_seeds(master, trials, grid))
    horizons = [s.T for s in settings]
    batch = run_trials(
        first.objective,
        first.oracle if shared else [s.oracle for s in settings],
        [s.schedule for s in settings],
        first.T,
        first.x1,
        rngs,
        stabilized=first.stabilized,
        horizons=horizons,
        aggregate=mode,
    )
    agg = average(batch, mode)
    subopt = np.empty(len(rows))
    mu_dist2 = np.empty(len(rows))
    # each run of rows with one setting is evaluated on its own objective
    cuts = [i for i in range(1, len(rows)) if settings[i] is not settings[i - 1]]
    for a, b in zip([0, *cuts], [*cuts, len(rows)]):
        obj = settings[a].objective
        opt = obj.optimum
        subopt[a:b] = np.maximum(eval_F_batch(obj, agg[a:b]) - opt.F_star, 0.0)
        diff = batch.x_last[a:b] - opt.x_star
        mu_dist2[a:b] = obj.mu * np.add.reduce(diff * diff, axis=-1)
    clip_rate = batch.clip_events / np.array(horizons, dtype=float)
    return subopt, mu_dist2, clip_rate


def _phase_kernel(config: ExperimentConfig, settings: list, threads: int) -> tuple:
    """The kernel phase: the shard map.  Returns the suboptimality,
    mu * ||x_last - x*||^2 and clip-rate columns, each (horizons, trials)."""
    master, trials = config.run["master_seed"], config.run["trials"]
    first, n, words = settings[0][0], len(settings), len(settings[0])
    mode = config.eval["averaging"]
    if mode == "designated":
        mode = first.schedule.averaging
    # the rows run longest horizon first, trial by trial; a standard
    # problem does not depend on T, so its rows share one oracle
    rows = [
        (ti, j, settings[ti][j // BLOCK_TRIALS % words])
        for ti in reversed(range(n)) for j in range(trials)
    ]
    width = _shard_width(first.oracle, len(rows))
    shards = [rows[a:a + width] for a in range(0, len(rows), width)]
    shared = config.problem["kind"] != "hard"
    with ThreadPoolExecutor(max_workers=threads) as pool:
        outs = pool.map(_run_shard, shards, repeat(master), repeat(mode), repeat(shared))
        return tuple(np.concatenate(col).reshape(n, trials)[::-1] for col in zip(*outs))


def _phase_evaluate(config: ExperimentConfig, words: int, columns: tuple) -> tuple:
    """The evaluate phase: per_T from the kernel's columns, the fit and
    whether the slope lies in eval.assert_slope_range (None without it);
    words is the number of codewords the trials run."""
    Ts, trials, ev = config.run["T_grid"], config.run["trials"], config.eval
    delta = config.schedule.get("delta")
    if delta is not None and trials < 10.0 / delta:
        warnings.warn(
            f"trials={trials} is below 10/delta; the {1 - delta:g}-quantile "
            "estimate will be unstable",
            stacklevel=3,
        )
    cycle = config.hardness is not None and config.hardness["v_mode"] == "cycle"
    word = np.arange(trials) // BLOCK_TRIALS % words
    per_T = [
        PerTStats(
            T=T,
            stats=summarize(subopt, ev["quantile_levels"]),
            mu_dist2_mean=float(np.mean(mu_dist2)),
            clip_rate=float(np.mean(clip_rate)),
            codeword_means=(
                {wi: float(np.mean(subopt[word == wi])) for wi in range(words)}
                if cycle else None
            ),
        )
        for T, subopt, mu_dist2, clip_rate in zip(Ts, *columns)
    ]

    fit = None
    means = [row.stats.mean for row in per_T]
    if len(per_T) >= 3 and all(m > 0 for m in means):
        fit = fit_rate(Ts, means, drop_smallest=ev["fit_drop_smallest"])
    passed = None
    if "assert_slope_range" in ev:
        lo, hi = ev["assert_slope_range"]
        passed = fit is not None and lo <= fit.slope <= hi
    return per_T, fit, passed


def _phase_report(config: ExperimentConfig, codebook, settings: list, fit, passed) -> dict:
    """The report phase: manifest.json's content, config.digest() taken once."""
    first, h = settings[0][0], config.hardness
    spec = first.oracle.noise
    manifest = {
        "config": config.to_dict(),
        "config_digest": config.digest(),
        "package_version": _pkg_version,
        "master_seed": config.run["master_seed"],
        "T_values": list(config.run["T_grid"]),
        "trials": config.run["trials"],
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
            "kind": h["codebook"],
            "size": codebook.size,
            "d_star": codebook.d_star,
            "min_distance": codebook.min_distance,
            "target_size": codebook.target_size,
            "shortfall": codebook.shortfall,
            "v_mode": h["v_mode"],
        }
    if fit is not None:
        manifest["fit"] = asdict(fit)
    if passed is not None:
        manifest["assertions_passed"] = passed
    return manifest


def run_experiment(config: ExperimentConfig, threads: int = 1) -> ExperimentResult:
    """Run the full T sweep as the four phases; deterministic given the
    config, for any threads."""
    threads = int(threads)
    if threads < 1:
        raise ValueError("threads must be a positive integer")
    codebook, settings = _phase_materialize(config, config.run["T_grid"])
    columns = _phase_kernel(config, settings, threads)
    per_T, fit, passed = _phase_evaluate(config, len(settings[0]), columns)
    manifest = _phase_report(config, codebook, settings, fit, passed)
    return ExperimentResult(
        config=config,
        config_digest=manifest["config_digest"],
        per_T=per_T,
        fit=fit,
        manifest=manifest,
        assertions_passed=passed,
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
