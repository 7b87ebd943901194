"""Command line front end.

Subcommands:

- run: execute an experiment config, write series/fit/manifest files
- schedule: print the resolved schedule constants for a config
- clip-verify: measure clipping error and check the theoretical bounds
- deff: effective-dimension lower-bound calculators
- hardness: materialize a hard instance and dump its parameters

Every subcommand accepts --json, in which case stdout carries exactly
one JSON document.  HTCLIP_THREADS is the fallback for --threads.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from ._version import __version__
from .clipping import BOUND_NAMES, clip_error_exact, clip_error_mc
from .hardness import HARD_REGIMES, HardParams, hard_params, make_hard_instance
from .harness import (
    _codebook_for,
    _make_codebook,
    _materialize,
    _schedule_entry,
    parse_config,
    persist,
    run_experiment,
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
        data = dict(data)
        data["run"] = dict(data["run"])
        data["run"]["master_seed"] = int(seed_override)
    return parse_config(data)


def _emit(args, payload: dict, human_lines) -> None:
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in human_lines:
            print(line)


def _parse_vector(text: str) -> np.ndarray:
    return np.array([float(v) for v in text.split(",")], dtype=float)


# ---------------------------------------------------------------------------
# run


def _cmd_run(args) -> int:
    config = _load_config(args.config, args.seed)
    threads = args.threads
    if threads is None:
        raw = os.environ.get("HTCLIP_THREADS", "1")
        if not raw.strip().isdigit() or int(raw) < 1:
            raise ValueError(f"HTCLIP_THREADS must be a positive integer, got {raw!r}")
        threads = int(raw)
    result = run_experiment(config, threads=threads)
    out_dir = args.out or config.output.get("dir") or "htclip-out"
    paths = persist(result, out_dir)

    if args.json:
        print(json.dumps(result.manifest, indent=2, sort_keys=True))
    else:
        levels = config.eval["quantile_levels"]
        for row in result.per_T:
            quants = " ".join(
                f"q_{lv:g}={row.stats.quantiles[lv]:.6g}" for lv in levels
            )
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
            print(
                "assertions: PASS" if result.assertions_passed else "assertions: FAIL"
            )
    if result.assertions_passed is False:
        return 1
    return 0


# ---------------------------------------------------------------------------
# schedule


def _cmd_schedule(args) -> int:
    config = _load_config(args.config, args.seed)
    Ts = [args.T] if args.T is not None else config.run["T_grid"]
    codebook = _codebook_for(config)
    entries = [
        _schedule_entry(_materialize(config, int(T), codebook, 0)) for T in Ts
    ]
    payload = {"config_digest": config.digest(), "schedules": entries}
    lines = []
    for entry in entries:
        lines.append(f"T={entry['T']}")
        for k in sorted(entry):
            if k in ("T", "hard_params"):
                continue
            lines.append(f"  {k} = {entry[k]}")
        if "hard_params" in entry:
            for k, v in sorted(entry["hard_params"].items()):
                lines.append(f"  hard.{k} = {v}")
    _emit(args, payload, lines)
    return 0


# ---------------------------------------------------------------------------
# clip-verify


def _dv_params(args) -> HardParams:
    # hand-assembled parameter bundle; the declared noise budget is left
    # at zero because exact enumeration recomputes the moments anyway
    regime = "str-fano" if args.mu > 0 else "cvx-fano"
    d_star = args.d_star if args.d_star is not None else args.d
    return HardParams(
        regime=regime,
        d_star=d_star,
        T=1,
        G=args.M * math.sqrt(d_star),
        D=max(abs(args.y) * math.sqrt(d_star), 1.0),
        mu=args.mu,
        sigma_l=0.0,
        sigma_s=0.0,
        p=args.p,
        delta=None,
        q=args.q,
        theta=args.theta,
        M=args.M,
        y=args.y,
    )


def _cmd_clip_verify(args) -> int:
    rng = np.random.default_rng(args.seed if args.seed is not None else 0)
    if args.mode == "exact":
        params = _dv_params(args)
        kind = "str" if args.mu > 0 else "cvx"
        v = np.ones(params.d_star)
        objective, oracle = make_hard_instance(
            kind, args.d, params.d_star, params, v
        )
        x = _parse_vector(args.x) if args.x else np.zeros(args.d)
        report = clip_error_exact(oracle, x, args.tau, alpha=args.alpha_clip)
    else:
        d = args.d
        objective = CompositeObjective(
            f=EuclidNorm(args.G, np.zeros(d)),
            r=None,
            domain=AllSpace(d),
            lipschitz_G=args.G,
            mu=0.0,
            optimum=Optimum(np.zeros(d), 0.0),
        )
        scales = np.full(d, args.scale)
        if args.noise == "gaussian":
            oracle = make_oracle(objective, "additive-gaussian", scales=scales)
        else:
            stable = StableParams(args.alpha, args.beta, args.gamma)
            oracle = make_oracle(
                objective, "additive-stable", scales=scales,
                stable=stable, p=args.p,
            )
        x = _parse_vector(args.x) if args.x else np.zeros(d)
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


def _cmd_deff(args) -> int:
    if args.variant == "declared":
        if args.sigma_s is None or args.sigma_l is None:
            raise ValueError("variant declared needs --sigma-s and --sigma-l")
        value = d_eff_of(args.sigma_s, args.sigma_l)
        inputs = {"sigma_s": args.sigma_s, "sigma_l": args.sigma_l}
    elif args.variant == "independent":
        if args.sigmas is None or args.p is None:
            raise ValueError("variant independent needs --sigmas and --p")
        sig = _parse_vector(args.sigmas)
        value = d_eff_lower_bound("independent", sigmas=sig, p=args.p)
        inputs = {"sigmas": list(map(float, sig)), "p": args.p}
    elif args.variant == "iid":
        if args.d is None or args.p is None:
            raise ValueError("variant iid needs --d and --p")
        value = d_eff_lower_bound("iid", d=args.d, p=args.p)
        inputs = {"d": args.d, "p": args.p}
    else:
        if args.d is None or args.p is None:
            raise ValueError("variant stable needs --d and --p")
        value = d_eff_lower_bound("stable", d=args.d, p=args.p, eps=args.eps)
        inputs = {"d": args.d, "p": args.p, "eps": args.eps}
    payload = {"variant": args.variant, "inputs": inputs, "value": value}
    _emit(args, payload, [f"d_eff[{args.variant}] >= {value:.12g}"])
    return 0


# ---------------------------------------------------------------------------
# hardness


def _cmd_hardness(args) -> int:
    params = hard_params(
        args.regime,
        d_star=args.d_star,
        T=args.T,
        G=args.G,
        D=args.D,
        sigma_l=args.sigma_l,
        p=args.p,
        mu=args.mu,
        delta=args.delta,
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
            "kind": args.codebook,
            "size": codebook.size,
            "min_distance": codebook.min_distance,
            "target_size": codebook.target_size,
            "shortfall": codebook.shortfall,
            "word_index": wi,
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


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="htclip",
        description="Clipped and stabilized SGD under heavy-tailed noise",
    )
    parser.add_argument("--version", action="version", version=f"htclip {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment config")
    p_run.add_argument("--config", required=True, help="path to the JSON config")
    p_run.add_argument("--out", help="output directory (overrides output.dir)")
    p_run.add_argument("--seed", type=int, help="override run.master_seed")
    p_run.add_argument("--threads", type=int, help="worker threads (default HTCLIP_THREADS or 1)")
    p_run.add_argument("--json", action="store_true", help="print the manifest as JSON")
    p_run.set_defaults(func=_cmd_run)

    p_sch = sub.add_parser("schedule", help="print resolved schedule constants")
    p_sch.add_argument("--config", required=True)
    p_sch.add_argument("--seed", type=int, help="override run.master_seed")
    p_sch.add_argument("--T", type=int, help="single horizon (default: whole grid)")
    p_sch.add_argument("--json", action="store_true")
    p_sch.set_defaults(func=_cmd_schedule)

    p_cv = sub.add_parser("clip-verify", help="verify the clipping-error bounds")
    p_cv.add_argument("--mode", choices=("exact", "mc"), required=True)
    p_cv.add_argument("--tau", type=float, required=True, help="threshold (inf allowed)")
    p_cv.add_argument("--alpha-clip", type=float, default=0.5)
    p_cv.add_argument("--p", type=float, default=1.5)
    p_cv.add_argument("--d", type=int, required=True)
    p_cv.add_argument("--x", help="evaluation point, comma separated (default origin)")
    p_cv.add_argument("--seed", type=int)
    p_cv.add_argument("--json", action="store_true")
    # exact mode: three-point coordinate noise instance
    p_cv.add_argument("--d-star", type=int, help="active coordinates (default d)")
    p_cv.add_argument("--q", type=float, default=0.5)
    p_cv.add_argument("--theta", type=float, default=0.0)
    p_cv.add_argument("--M", type=float, default=1.0)
    p_cv.add_argument("--y", type=float, default=1.0)
    p_cv.add_argument("--mu", type=float, default=0.0)
    # mc mode: additive noise on the norm objective
    p_cv.add_argument("--noise", choices=("gaussian", "stable"), default="gaussian")
    p_cv.add_argument("--G", type=float, default=1.0)
    p_cv.add_argument("--scale", type=float, default=1.0)
    p_cv.add_argument("--alpha", type=float, default=1.8, help="stability index")
    p_cv.add_argument("--beta", type=float, default=0.0)
    p_cv.add_argument("--gamma", type=float, default=1.0)
    p_cv.add_argument("--n-samples", type=int, default=100_000)
    p_cv.set_defaults(func=_cmd_clip_verify)

    p_de = sub.add_parser("deff", help="effective-dimension calculators")
    p_de.add_argument(
        "--variant",
        choices=("declared", "independent", "iid", "stable"),
        required=True,
    )
    p_de.add_argument("--sigma-s", type=float)
    p_de.add_argument("--sigma-l", type=float)
    p_de.add_argument("--sigmas", help="comma-separated per-coordinate moments")
    p_de.add_argument("--d", type=int)
    p_de.add_argument("--p", type=float)
    p_de.add_argument("--eps", type=float)
    p_de.add_argument("--json", action="store_true")
    p_de.set_defaults(func=_cmd_deff)

    p_ha = sub.add_parser("hardness", help="materialize a hard instance")
    p_ha.add_argument("--regime", choices=HARD_REGIMES, required=True)
    p_ha.add_argument("--d", type=int, required=True)
    p_ha.add_argument("--d-star", type=int, required=True)
    p_ha.add_argument("--T", type=int, required=True)
    p_ha.add_argument("--G", type=float, required=True)
    p_ha.add_argument("--D", type=float, required=True)
    p_ha.add_argument("--sigma-l", type=float, required=True)
    p_ha.add_argument("--p", type=float, required=True)
    p_ha.add_argument("--mu", type=float, default=0.0)
    p_ha.add_argument("--delta", type=float)
    p_ha.add_argument("--codebook", choices=("twopoint", "gv"), default="twopoint")
    p_ha.add_argument("--word-index", type=int, default=0)
    p_ha.add_argument("--seed", type=int)
    p_ha.add_argument("--json", action="store_true")
    p_ha.set_defaults(func=_cmd_hardness)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (
        ValueError, FileNotFoundError, json.JSONDecodeError, FloatingPointError
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
