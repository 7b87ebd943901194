"""Command line front end.

Subcommands:

- run: execute an experiment config, write series/fit/manifest files
- schedule: print the resolved schedule constants for a config
- clip-verify: measure clipping error and check the theoretical bounds
- deff: effective-dimension lower-bound calculators
- hardness: materialize a hard instance and dump its parameters

Every subcommand accepts --json, in which case stdout carries exactly
one JSON document.  HTCLIP_THREADS is the fallback for --threads.
Each other flag is one entry of its subcommand's table, in the shape of
harness._section's, with the config key's own parser where the flag sets
one; main parses every value and default with it, so an error names its flag.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import os
import sys

import numpy as np

from ._util import row_norms
from ._version import __version__
from .clipping import BOUND_NAMES, clip_error_exact, clip_error_mc
from .hardness import HardParams, hard_params, make_hard_instance
from .harness import (
    _HARDNESS, _NOISE, _POSITIVE, _PROBLEM, _REQ, _RUN, _SCHEDULE, _STABLE,
    MAX_T, _int, _make_codebook, _one_of, _phase_materialize, _real, _schedule_entry,
    _section, _text, _where, parse_config, persist, run_experiment,
)
from .noise import StableParams, d_eff_lower_bound, make_oracle
from .problems import AllSpace, CompositeObjective, EuclidNorm, Optimum
from .schedules import d_eff_of

__all__ = ["main"]


def _load_config(path: str, seed_override=None):
    with open(path) as fh:
        data = json.load(fh)
    if seed_override is not None:
        if not isinstance(data, dict) or not isinstance(data.get("run"), dict):
            raise ValueError("config has no run section to apply --seed to")
        data["run"]["master_seed"] = seed_override
    return parse_config(data)


def _emit(args, payload: dict, human_lines) -> None:
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print("\n".join(human_lines))


def _literal(text: str):
    """A flag's text as the int or float it spells, else the text."""
    for kind in (int, float):
        with contextlib.suppress(ValueError):
            return kind(text)
    return text


def _num(val, path: str) -> float:
    """A real as a float, NaN and +-inf included: the library owns its range."""
    if isinstance(val, (int, float)):
        with contextlib.suppress(OverflowError):
            return float(val)
    raise ValueError(f"{path} must be a number, got {val!r}")


def _vector(text: str, path: str) -> list:
    """Comma-separated finite reals."""
    try:
        return [_real(_literal(s), path) for s in text.split(",")]
    except ValueError:
        raise ValueError(f"{path} must hold finite numbers, got {text!r}") from None


_HORIZON = _where(_int, lambda v: 1 <= v <= MAX_T, f"must lie in [1, {MAX_T}]")
_SEED = _RUN["master_seed"][0]
_THREADS = _where(
    lambda v, path: v, lambda v: type(v) is int and v >= 1, "must be a positive integer"
)


# ---------------------------------------------------------------------------
# run


def _cmd_run(args) -> int:
    config = _load_config(args.config, args.seed)
    threads = args.threads
    if threads is None:
        env = _literal(os.environ.get("HTCLIP_THREADS", "1"))
        threads = _THREADS(env, "HTCLIP_THREADS")
    result = run_experiment(config, threads=threads)
    out_dir = args.out or config.output.get("dir") or "htclip-out"
    paths = persist(result, out_dir)

    if args.json:
        print(json.dumps(result.manifest, indent=2, sort_keys=True))
    else:
        levels = config.eval["quantile_levels"]
        for row in result.per_T:
            quants = " ".join(f"q_{lv:g}={row.stats.quantiles[lv]:.6g}" for lv in levels)
            print(
                f"T={row.T} n={row.stats.n} mean={row.stats.mean:.6g} "
                f"std={row.stats.std:.6g} {quants} "
                f"mu_dist2={row.mu_dist2_mean:.6g} clip_rate={row.clip_rate:.6g}"
            )
        if result.fit is not None:
            f = result.fit
            print(
                f"fit: slope={f.slope:.6g} stderr={f.slope_stderr:.6g} "
                f"r2={f.r2:.6g} n_points={f.n_points}"
            )
        else:
            print("fit: not computed (needs >= 3 horizons with positive error)")
        for name, path in paths.items():
            print(f"wrote {name}: {path}")
        if result.assertions_passed is not None:
            print(f"assertions: {'PASS' if result.assertions_passed else 'FAIL'}")
    return 1 if result.assertions_passed is False else 0


# ---------------------------------------------------------------------------
# schedule


def _cmd_schedule(args) -> int:
    config = _load_config(args.config, args.seed)
    # the settings htclip run reports in manifest.json's schedule_constants
    _, settings = _phase_materialize(
        config, [args.T] if args.T is not None else config.run["T_grid"]
    )
    entries = [_schedule_entry(row[0]) for row in settings]
    payload = {"config_digest": config.digest(), "schedules": entries}
    lines = []
    for entry in entries:
        lines.append(f"T={entry['T']}")
        lines += [f"  {k} = {entry[k]}" for k in sorted(entry)
                  if k not in ("T", "hard_params")]
        if "hard_params" in entry:
            for k, v in sorted(entry["hard_params"].items()):
                lines.append(f"  hard.{k} = {v}")
    _emit(args, payload, lines)
    return 0


# ---------------------------------------------------------------------------
# clip-verify


def _cmd_clip_verify(args) -> int:
    rng = np.random.default_rng(args.seed if args.seed is not None else 0)
    if args.mode == "exact":
        # a hand-assembled instance; its declared noise budget is left at
        # zero because exact enumeration recomputes the moments anyway
        kind = "str" if args.mu > 0 else "cvx"
        d_star = args.d_star if args.d_star is not None else args.d
        # make_hard_instance names and rejects a d_star outside [1, d]
        rd = math.sqrt(d_star) if 1 <= d_star <= args.d else 1.0
        params = HardParams(
            regime=f"{kind}-fano", d_star=d_star, T=1, G=args.M * rd,
            D=max(abs(args.y) * rd, 1.0), mu=args.mu, sigma_l=0.0, sigma_s=0.0,
            p=args.p, delta=None, q=args.q, theta=args.theta, M=args.M, y=args.y,
        )
        v = np.ones(args.d)  # the all-ones codeword, padded or not
        objective, oracle = make_hard_instance(kind, args.d, d_star, params, v)
        x = args.x if args.x is not None else np.zeros(args.d)
        report = clip_error_exact(oracle, x, args.tau, alpha=args.alpha_clip)
    else:
        d = args.d
        objective = CompositeObjective(
            f=EuclidNorm(args.G, np.zeros(d)), r=None, domain=AllSpace(d),
            lipschitz_G=args.G, mu=0.0, optimum=Optimum(np.zeros(d), 0.0),
        )
        # Gaussian noise reads neither the stable parameters nor p
        oracle = make_oracle(
            objective, f"additive-{args.noise}", scales=np.full(d, args.scale),
            stable=StableParams(args.alpha, args.beta, args.gamma), p=args.p,
        )
        x = args.x if args.x is not None else np.zeros(d)
        # the norm objective's subgradient is G x / ||x||, made 0 by a
        # norm whose square overflows or underflows to 0
        with np.errstate(over="ignore"):
            if np.any(x) and not 0.0 < row_norms(x) < math.inf:
                raise ValueError(f"--x must have a norm whose square is finite and "
                                 f"nonzero in --mode mc, got {args.x!r}")
        report = clip_error_mc(
            oracle, x, args.tau, alpha=args.alpha_clip,
            n_samples=args.n_samples, rng=rng,
        )
    payload = report.to_dict()
    lines = []
    for name, ok in zip(BOUND_NAMES, report.passes):
        if ok is None:
            lines.append(f"{name}: SKIP (chi = 0)")
        else:
            lines.append(f"{name}: {'PASS' if ok else 'FAIL'}")
    lines.append(f"overall: {'PASS' if report.ok() else 'FAIL'}")
    _emit(args, payload, lines)
    return 0 if report.ok() else 1


# ---------------------------------------------------------------------------
# deff


# the inputs of each deff variant, all required but eps
_DEFF_INPUTS = {
    "declared": ("sigma_s", "sigma_l"),
    "independent": ("sigmas", "p"),
    "iid": ("d", "p"),
    "stable": ("d", "p", "eps"),
}


def _cmd_deff(args) -> int:
    inputs = {k: getattr(args, k) for k in _DEFF_INPUTS[args.variant]}
    need = [k for k in inputs if k != "eps"]
    if any(inputs[k] is None for k in need):
        flags = " and ".join("--" + k.replace("_", "-") for k in need)
        raise ValueError(f"variant {args.variant} needs {flags}")
    if args.variant == "declared":
        value = d_eff_of(**inputs)
    else:
        value = d_eff_lower_bound(args.variant, **inputs)
    payload = {"variant": args.variant, "inputs": inputs, "value": value}
    _emit(args, payload, [f"d_eff[{args.variant}] >= {value:.12g}"])
    return 0


# ---------------------------------------------------------------------------
# hardness


def _cmd_hardness(args) -> int:
    params = hard_params(
        args.regime, d_star=args.d_star, T=args.T, G=args.G, D=args.D,
        sigma_l=args.sigma_l, p=args.p, mu=args.mu, delta=args.delta,
    )
    seed = args.seed if args.seed is not None else 0
    codebook = _make_codebook(args.codebook, args.d_star, seed)
    wi = args.word_index % codebook.size
    v = codebook.words[wi]
    objective, oracle = make_hard_instance(
        args.regime.split("-")[0], args.d, args.d_star, params, v
    )
    spec = oracle.noise
    payload = {
        "params": params.to_dict(),
        "d": args.d,
        "codebook": {
            "kind": args.codebook, "word_index": wi,
            **{k: getattr(codebook, k)
               for k in ("size", "min_distance", "target_size", "shortfall")},
        },
        "v": list(map(int, v)),
        "optimum": {
            "x_star": list(map(float, objective.optimum.x_star)),
            "F_star": objective.optimum.F_star,
        },
        "noise": {"p": spec.p, "sigma_s": spec.sigma_s, "sigma_l": spec.sigma_l},
    }
    lines = [
        f"regime={args.regime} d={args.d} d_star={args.d_star} T={args.T}",
        f"q={params.q:.12g} theta={params.theta:.12g} M={params.M:.12g} "
        f"y={params.y:.12g}",
        f"codebook={args.codebook} size={codebook.size} "
        f"min_distance={codebook.min_distance} shortfall={codebook.shortfall}",
        f"F_star={objective.optimum.F_star:.12g}",
        f"noise: p={spec.p:g} sigma_s={spec.sigma_s:.12g} sigma_l={spec.sigma_l:.12g}",
    ]
    _emit(args, payload, lines)
    return 0


# ---------------------------------------------------------------------------
# parser


_RUN_FLAGS = {
    "--config": (_text, _REQ),
    "--out": (_text,),  # overrides output.dir
    "--seed": (_SEED,),  # overrides run.master_seed
    "--threads": (_THREADS,),  # default HTCLIP_THREADS, else 1
}
_SCHEDULE_FLAGS = {
    "--config": (_text, _REQ),
    "--seed": (_SEED,),
    "--T": (_HORIZON,),  # one horizon instead of run.T_grid
}
_CLIP_FLAGS = {
    "--mode": (_one_of("exact", "mc"), _REQ),
    "--tau": (_where(_num, lambda v: v > 0, "must be positive"), _REQ),
    "--alpha-clip": _SCHEDULE["alpha_clip"],
    "--p": (_NOISE["p"][0], 1.5),
    "--d": _PROBLEM["d"],
    "--x": (_vector,),  # the evaluation point (default the origin)
    "--seed": (_where(_int, lambda v: v >= 0, "must be nonnegative"),),
    # exact mode: the three-point instance, whose parameters
    # make_hard_instance checks and names
    "--d-star": (_int,),  # active coordinates (default d)
    "--q": (_num, 0.5),
    "--theta": (_num, 0.0),
    "--M": (_num, 1.0),
    "--y": (_num, 1.0),
    "--mu": _PROBLEM["mu"],
    # mc mode: additive noise on the norm objective
    "--noise": (_one_of("gaussian", "stable"), "gaussian"),
    "--G": (_PROBLEM["G"][0], 1.0),
    "--scale": (_NOISE["scales"][0], 1.0),
    "--alpha": (_STABLE["alpha"][0], 1.8),
    "--beta": _STABLE["beta"],
    "--gamma": _STABLE["gamma"],
    "--n-samples": (_int, 100_000),
}
_DEFF_FLAGS = {
    "--variant": (_one_of(*_DEFF_INPUTS), _REQ),
    "--sigma-s": _NOISE["sigma_s"],
    "--sigma-l": _NOISE["sigma_l"],
    "--sigmas": (_vector,),  # per-coordinate moments
    "--d": (_PROBLEM["d"][0],),
    "--p": _NOISE["p"],
    "--eps": (_real,),
}
_HARDNESS_FLAGS = {
    "--regime": _HARDNESS["regime"],
    "--d": _PROBLEM["d"],
    "--d-star": _HARDNESS["d_star"],
    "--T": (_HORIZON, _REQ),
    "--G": (_PROBLEM["G"][0], _REQ),
    "--D": (_PROBLEM["D"][0], _REQ),
    "--sigma-l": (_POSITIVE, _REQ),
    "--p": (_NOISE["p"][0], _REQ),
    "--mu": _PROBLEM["mu"],
    "--delta": _SCHEDULE["delta"],
    "--codebook": _HARDNESS["codebook"],
    "--word-index": (_int, 0),
    "--seed": (_SEED,),
}
_COMMANDS = {
    "run": (_cmd_run, _RUN_FLAGS, "run an experiment config"),
    "schedule": (_cmd_schedule, _SCHEDULE_FLAGS, "print resolved schedule constants"),
    "clip-verify": (_cmd_clip_verify, _CLIP_FLAGS, "verify the clipping-error bounds"),
    "deff": (_cmd_deff, _DEFF_FLAGS, "effective-dimension calculators"),
    "hardness": (_cmd_hardness, _HARDNESS_FLAGS, "materialize a hard instance"),
}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command line's parser, built once per process: parse_args
    keeps nothing of one call for the next."""
    parser = argparse.ArgumentParser(
        prog="htclip", description="Clipped and stabilized SGD under heavy-tailed noise"
    )
    parser.add_argument("--version", action="version", version=f"htclip {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, flags, help_text) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for flag, (parse, *default) in flags.items():
            # a value is kept under its flag, as text for a parser of
            # text and read as a number where it is one otherwise
            p.add_argument(
                flag, dest=flag, metavar=flag[2:].upper(), default=argparse.SUPPRESS,
                type=str if parse in (_text, _vector) else _literal,
                required=bool(default) and default[0] is _REQ,
            )
        p.add_argument("--json", action="store_true")
        p.set_defaults(func=func, flags=flags)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        given = {k: v for k, v in vars(args).items() if k in args.flags}
        values = _section(given, "", args.flags)
        for flag in args.flags:
            setattr(args, flag[2:].replace("-", "_"), values.get(flag))
        return args.func(args)
    except (
        ValueError, FileNotFoundError, json.JSONDecodeError, FloatingPointError
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
