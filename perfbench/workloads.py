"""The benchmark's workloads: inputs made from a seed, one timed op, checks.

Every workload is built by setup(name, seed, workdir) after htclip is
importable.  The returned object runs one op per op() call and checks
the op's outputs with check(); op() is what the benchmark times, check()
runs outside the timed region.  All ops of one object get the same
inputs, so their outputs must be identical.

The sizes below are fixed constants of the benchmark: changing one
changes what every recorded number means.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import time

import numpy as np

# rate-hard-cvx: the AC-06 problem on a shorter horizon grid
HARD_GRID = {"min": 256, "max": 4096, "ratio": 2}
HARD_TRIALS = 200
HARD_SLOPE = -1.0 / 3.0
HARD_BAND = 0.10

# rate-stable-ball: stabilized anytime run under stable noise, d = 64
BALL_D = 64
BALL_GRID = {"min": 256, "max": 2048, "ratio": 2}
BALL_TRIALS = 128
BALL_THREADS = 2

# verify-clip: exact enumeration over 3^12 states, Monte Carlo at d = 16
EXACT_D_STAR = 12
EXACT_T = 4  # Fano q = 1/T
EXACT_TAUS = (0.25, 1.0)
MC_D = 16
MC_SAMPLES = 1_000_000
MC_TAUS = (2.0, 8.0)
STABLE_ALPHA = 1.8
NOISE_P = 1.5


def hard_config(seed: int) -> dict:
    return {
        "problem": {"kind": "hard", "d": 4, "G": 1.0, "D": 1.0},
        "noise": {"kind": "hard-instance", "p": NOISE_P, "sigma_s": 1.0, "sigma_l": 2.0},
        "schedule": {"regime": "cvx-ex-T"},
        "hardness": {"regime": "cvx-fano", "d_star": 4},
        "run": {
            "T_grid": dict(HARD_GRID),
            "trials": HARD_TRIALS,
            "master_seed": int(seed),
        },
    }


def ball_config(seed: int, grid=None, trials: int = BALL_TRIALS) -> dict:
    return {
        "problem": {
            "kind": "euclid-norm",
            "d": BALL_D,
            "G": 1.0,
            "domain": {"kind": "ball", "radius": 2.0},
            "x1_mode": {"kind": "offset", "vector": [0.1] * BALL_D},
        },
        "noise": {
            "kind": "additive-stable",
            "p": NOISE_P,
            "scales": 0.05,
            "stable": {"alpha": STABLE_ALPHA},
        },
        "schedule": {"regime": "cvx-ex-anytime"},
        "run": {
            "T_grid": grid or dict(BALL_GRID),
            "trials": trials,
            "master_seed": int(seed),
        },
    }


def read_outputs(out_dir: str) -> dict:
    """series.csv, fit.csv and manifest.json bytes, minus git_describe.

    git_describe records the caller's repository, not the inputs, so it
    is left out of the identity check.
    """
    files = {}
    for name in ("series.csv", "fit.csv"):
        with open(os.path.join(out_dir, name), "rb") as fh:
            files[name] = fh.read()
    with open(os.path.join(out_dir, "manifest.json")) as fh:
        manifest = json.load(fh)
    manifest.pop("git_describe", None)
    files["manifest.json"] = json.dumps(manifest, sort_keys=True).encode()
    return files


def fitted_slope(fit_csv: bytes) -> float:
    lines = fit_csv.decode().splitlines()
    if len(lines) != 2:
        raise ValueError("fit.csv has no fitted row")
    return float(lines[1].split(",")[0])


class RateExperiment:
    """One `htclip run` of a config file, in process, through cli.main."""

    def __init__(self, config: dict, threads: int, workdir: str, slope_band=None):
        from htclip import harness

        self.workdir = workdir
        self.threads = int(threads)
        self.slope_band = slope_band
        self.config_path = os.path.join(workdir, "config.json")
        with open(self.config_path, "w") as fh:
            json.dump(config, fh)
        parsed = harness.parse_config(config)
        run = parsed.run
        self.trial_steps = sum(run["T_grid"]) * run["trials"]
        self.work = self.trial_steps
        self.facts = {"T_grid": list(run["T_grid"]), "trials": run["trials"],
                      "threads": self.threads}
        self._sink = open(os.devnull, "w")
        self._reference = None
        self._count = 0

    def close(self) -> None:
        self._sink.close()

    def op(self):
        from contextlib import redirect_stdout

        from htclip import cli

        out_dir = os.path.join(self.workdir, f"out-{self._count}")
        self._count += 1
        with redirect_stdout(self._sink):
            rc = cli.main([
                "run", "--config", self.config_path, "--out", out_dir,
                "--threads", str(self.threads),
            ])
        return rc, out_dir

    def digest(self):
        """sha256 of the first op's checked outputs; None before any op."""
        if self._reference is None:
            return None
        h = hashlib.sha256()
        for name in sorted(self._reference):
            h.update(name.encode() + b"\0" + self._reference[name])
        return h.hexdigest()

    def check(self, result) -> list:
        rc, out_dir = result
        try:
            if rc != 0:
                return [f"htclip run exited {rc}"]
            files = read_outputs(out_dir)
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)
        problems = []
        if self._reference is None:
            self._reference = files
        for name, blob in files.items():
            if blob != self._reference[name]:
                problems.append(f"{name} differs from the first op of this run")
        if self.slope_band is not None:
            centre, half = self.slope_band
            slope = fitted_slope(files["fit.csv"])
            if not abs(slope - centre) <= half:
                problems.append(f"slope {slope:.4f} outside {centre:.4f} +/- {half}")
        return problems


class VerifyClip:
    """clip_error_exact at two thresholds, then clip_error_mc at two."""

    def __init__(self, seed: int):
        import htclip
        from htclip import hardness

        rng = np.random.default_rng([int(seed), 0xC11F])
        v = rng.choice([-1.0, 1.0], EXACT_D_STAR)
        params = hardness.hard_params(
            "cvx-fano", d_star=EXACT_D_STAR, T=EXACT_T, G=1.0, D=1.0,
            sigma_l=2.0, p=NOISE_P,
        )
        _, self.exact_oracle = hardness.make_hard_instance(
            "cvx", EXACT_D_STAR, EXACT_D_STAR, params, v
        )
        self.exact_x = rng.uniform(-0.5, 0.5, EXACT_D_STAR) * params.y
        objective = htclip.CompositeObjective(
            htclip.EuclidNorm(1.0, np.zeros(MC_D)), None, htclip.AllSpace(MC_D), 1.0,
            optimum=htclip.Optimum(np.zeros(MC_D), 0.0),
        )
        self.mc_oracle = htclip.make_oracle(
            objective, "additive-stable", scales=np.ones(MC_D),
            stable=htclip.StableParams(STABLE_ALPHA, 0.0, 1.0), p=NOISE_P,
        )
        self.mc_x = rng.uniform(-1.0, 1.0, MC_D)
        self.mc_seed = int(rng.integers(1 << 62))
        self.exact_states = len(EXACT_TAUS) * 3**EXACT_D_STAR
        self.mc_samples = len(MC_TAUS) * MC_SAMPLES
        self.trial_steps = 0
        self.work = self.exact_states + self.mc_samples
        self.facts = {"exact_states": self.exact_states, "mc_samples": self.mc_samples,
                      "pass2_bytes": MC_SAMPLES * MC_D * 8}
        self._reference = None

    def close(self) -> None:
        pass

    def op(self):
        from htclip import clipping

        t0 = time.perf_counter()
        reports = [
            clipping.clip_error_exact(self.exact_oracle, self.exact_x, tau)
            for tau in EXACT_TAUS
        ]
        t1 = time.perf_counter()
        reports += [
            clipping.clip_error_mc(
                self.mc_oracle, self.mc_x, tau, n_samples=MC_SAMPLES,
                rng=np.random.default_rng([self.mc_seed, k]),
            )
            for k, tau in enumerate(MC_TAUS)
        ]
        # wall time of each half, for the per-kind throughputs
        self.last_split = {"exact_s": t1 - t0, "mc_s": time.perf_counter() - t1}
        return reports

    def digest(self):
        """sha256 of the first op's reports; None before any op."""
        if self._reference is None:
            return None
        return hashlib.sha256(self._reference.encode()).hexdigest()

    def check(self, reports) -> list:
        problems = [
            f"{r.method} report at tau={r.tau:g} fails a bound"
            for r in reports
            if not r.ok()
        ]
        states = sum(r.n_samples for r in reports if r.method == "exact-enumeration")
        if states != self.exact_states:
            problems.append(f"enumerated {states} states, expected {self.exact_states}")
        blob = json.dumps([r.to_dict() for r in reports], sort_keys=True)
        if self._reference is None:
            self._reference = blob
        elif blob != self._reference:
            problems.append("reports differ from the first op of this run")
        return problems


def setup(name: str, seed: int, workdir: str):
    if name == "rate-hard-cvx":
        return RateExperiment(
            hard_config(seed), 1, workdir, slope_band=(HARD_SLOPE, HARD_BAND)
        )
    if name == "rate-stable-ball":
        return RateExperiment(ball_config(seed), BALL_THREADS, workdir)
    if name == "verify-clip":
        return VerifyClip(seed)
    raise ValueError(f"unknown workload {name!r}")
