"""Golden bytes: pinned sha256 hashes of the files `htclip run` writes
and of the clipping-error verifiers' reports (at the end of this file).

Each config below is run through the CLI at 1 and 3 threads, and the
hashes of series.csv, fit.csv and manifest.json must match the pinned
values exactly.  Together the configs cover the four problem kinds
(hard with cvx-fano and str-twopoint), all six schedule regimes, v_mode
first and cycle (with a gv codebook), a ball domain, and eval.averaging
designated, plain and last.

The run configs use only Gaussian, hard-instance and deterministic
noise: alpha-stable draws go through SIMD-dispatched sin/cos/pow whose
bits can differ between CPUs (their thread determinism is covered by
AC-12).  One verifier case does use stable noise, because the Monte
Carlo verifier's main workload is stable noise; see its comment.
"""

import hashlib
import json
import pathlib

import numpy as np
import pytest

from htclip import (
    AllSpace,
    CompositeObjective,
    EuclidNorm,
    Optimum,
    StableParams,
    clip_error_exact,
    clip_error_mc,
    hard_params,
    make_hard_instance,
    make_oracle,
)
from htclip.cli import main

_BALL = {"kind": "ball", "center": [0.0, 0.0, 0.0], "radius": 2.0}

CONFIGS = {
    "abs-sum-cvx-hp-T": {
        "problem": {
            "kind": "abs-sum", "d": 3, "G": 1.0,
            "x1_mode": {"kind": "offset", "vector": [1.0, 0.5, -0.5]},
        },
        "noise": {"kind": "additive-gaussian", "scales": 0.5},
        "schedule": {"regime": "cvx-hp-T", "delta": 0.1},
        "run": {"T_grid": [8, 16, 32, 64], "trials": 70, "master_seed": 11},
    },
    "euclid-norm-cvx-ex-anytime-ball-plain": {
        "problem": {
            "kind": "euclid-norm", "d": 3, "G": 1.0, "domain": _BALL,
            "x1_mode": {"kind": "offset", "vector": [1.0, -1.0, 0.5]},
        },
        "noise": {"kind": "additive-gaussian", "scales": [0.3, 0.6, 0.9]},
        "schedule": {"regime": "cvx-ex-anytime"},
        "run": {"T_grid": {"min": 8, "max": 64, "ratio": 2}, "trials": 40,
                "master_seed": 12},
        "eval": {"averaging": "plain", "quantile_levels": [0.5, 0.9]},
    },
    "linear-str-hp-ball-last": {
        "problem": {
            "kind": "linear", "d": 3, "mu": 1.0, "c": [0.5, -0.25, 0.75],
            "domain": _BALL,
        },
        "noise": {"kind": "additive-gaussian", "scales": 0.4},
        "schedule": {"regime": "str-hp", "delta": 0.05},
        "run": {"T_grid": [8, 16, 32, 64], "trials": 30, "master_seed": 13},
        "eval": {"averaging": "last"},
    },
    "linear-cvx-hp-anytime-ball-deterministic": {
        "problem": {
            "kind": "linear", "d": 3, "c": [1.0, 0.0, -1.0], "domain": _BALL,
        },
        "noise": {"kind": "deterministic"},
        "schedule": {"regime": "cvx-hp-anytime", "delta": 0.1},
        "run": {"T_grid": [8, 16, 32, 64], "trials": 2, "master_seed": 14},
    },
    "hard-cvx-fano-cvx-ex-T-gv-cycle": {
        "problem": {"kind": "hard", "d": 5, "G": 1.0, "D": 1.0},
        "noise": {"kind": "hard-instance", "p": 1.5, "sigma_s": 0.5,
                  "sigma_l": 1.0},
        "schedule": {"regime": "cvx-ex-T"},
        "hardness": {"regime": "cvx-fano", "d_star": 4, "codebook": "gv",
                     "v_mode": "cycle"},
        "run": {"T_grid": [8, 16, 32, 64], "trials": 200, "master_seed": 15},
    },
    "hard-str-twopoint-str-ex": {
        "problem": {"kind": "hard", "d": 3, "G": 1.0, "D": 1.0, "mu": 0.5},
        "noise": {"kind": "hard-instance", "p": 1.8, "sigma_s": 0.5,
                  "sigma_l": 1.0},
        "schedule": {"regime": "str-ex", "delta": 0.05},
        "hardness": {"regime": "str-twopoint", "d_star": 3},
        "run": {"T_grid": [8, 16, 32, 64], "trials": 70, "master_seed": 16},
    },
}

GOLDEN = {
    "abs-sum-cvx-hp-T": {
        "series.csv":
            "5c9de7e7bb668304d78f17fdc18e41fe6a5b4af054103f95faa09298130e87c7",
        "fit.csv":
            "fd3b5d1616cd8cd21cccbaedd1dbfe0052e75085ff0eba456777a9521b62c8a0",
        "manifest.json":
            "c263788e802e6333be5f201d666ff76b345a69794c60bdbde0fe7da4867a524a",
    },
    "euclid-norm-cvx-ex-anytime-ball-plain": {
        "series.csv":
            "638b0b502531133667acecd82ef9d7aa5362d126598a99a3b82aad6596970186",
        "fit.csv":
            "f698ae534452bfe0fd0fec26845cb852a2b16b9f7c47545b66496ae2507ca776",
        "manifest.json":
            "a4a277f5f3eccdf3a0629fe27d787755b074fa7c3df1fcd8630ffa74bd94e30d",
    },
    "hard-cvx-fano-cvx-ex-T-gv-cycle": {
        "series.csv":
            "02e37c26cb9f1dac20d6d7630b08ffee1f916767140fe88c5272e3d1bbdd4981",
        "fit.csv":
            "f03e291c0bdfb1651c61246ff0fdc883f83388d1409b4dd4d9db4776920b382a",
        "manifest.json":
            "61651d19537170da093e16c23c0fb27031abdf4f4fc3dde68f561d03ec29ab50",
    },
    "hard-str-twopoint-str-ex": {
        "series.csv":
            "ec68c4ec1a582ec391a015cb76a233eb1e9b98eb3de77a1ef1d18cba807bac8a",
        "fit.csv":
            "b39784011c7b5266bd7be8add165d32b5a4c9187c7c6ea93cf14ac69295d45a2",
        "manifest.json":
            "888284411b2bd5c01e7b61c44a05793998ae899ba272cdacdc4843b305cbc850",
    },
    "linear-cvx-hp-anytime-ball-deterministic": {
        "series.csv":
            "5ed81b9179e04066592d2f58e948aaa18b350276d0e1537e846235dfcea9b39b",
        "fit.csv":
            "01a002747cbd45fe74894f432565aab97fcdbb56f56ad7740a5bb912ef91386a",
        "manifest.json":
            "1643c099c58384dd0c61067a3dae5b82dca9392fd4db61ecd84081c06b57f58c",
    },
    "linear-str-hp-ball-last": {
        "series.csv":
            "172394aa8e5159cbbdb3e34351a9b51663ebc36d72dc5eb379c0d1ff633d3705",
        "fit.csv":
            "1bf1843c7c52d5448a64db7798e0e95469e9a7f801f7e0076e6fea8c9986cc59",
        "manifest.json":
            "7b86fb64746bf30ec651a9f2282b487af5d77534a5fe137e5ceabc65d9b906b8",
    },
}


def _run_hashes(tmp_path, name, threads):
    cfg = tmp_path / f"{name}.json"
    cfg.write_text(json.dumps(CONFIGS[name]))
    out = tmp_path / f"out-{threads}"
    rc = main(["run", "--config", str(cfg), "--out", str(out),
               "--threads", str(threads)])
    assert rc == 0
    return {
        k: hashlib.sha256((out / k).read_bytes()).hexdigest()
        for k in ("series.csv", "fit.csv", "manifest.json")
    }


@pytest.mark.filterwarnings("ignore:trials=.*below 10/delta")
@pytest.mark.parametrize("threads", [1, 3])
@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_golden_bytes(tmp_path, capsys, name, threads):
    assert _run_hashes(tmp_path, name, threads) == GOLDEN[name]


def test_manifest_is_independent_of_the_working_directory(
    tmp_path, capsys, monkeypatch
):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(CONFIGS["euclid-norm-cvx-ex-anytime-ball-plain"]))
    manifests = []
    for cwd in (pathlib.Path(__file__).resolve().parents[1], tmp_path):
        monkeypatch.chdir(cwd)
        out = tmp_path / f"out-{len(manifests)}"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        manifests.append((out / "manifest.json").read_bytes())
    assert "git_describe" not in json.loads(manifests[0])
    assert manifests[0] == manifests[1]


# ---------------------------------------------------------------------------
# verifier reports
#
# sha256 of json.dumps(report.to_dict(), sort_keys=True) for the two
# clipping-error verifiers.  The exact case enumerates a cvx-fano
# instance whose last two coordinates are inactive; the Monte Carlo
# cases run three pass chunks (the last one partial) on stable and on
# Gaussian noise.  The reports include BLAS products and, for the stable
# case, the SIMD-dispatched stable sampler, so on a CPU family whose
# kernels round differently the stable and BLAS-dependent pins can move
# even though the verifier arithmetic did not.

_MC_N = 70_000


def _exact_report(tau):
    params = hard_params(
        "cvx-fano", d_star=4, T=4, G=1.0, D=1.0, sigma_l=2.0, p=1.5
    )
    _, oracle = make_hard_instance(
        "cvx", 6, 4, params, np.array([1.0, -1.0, -1.0, 1.0])
    )
    x = np.array([0.1, -1.0, 0.3, 1.0, 0.4, -0.7]) * params.y
    return clip_error_exact(oracle, x, tau)


def _mc_report(kind, tau):
    d = 3
    obj = CompositeObjective(
        EuclidNorm(1.0, np.zeros(d)), None, AllSpace(d), 1.0,
        optimum=Optimum(np.zeros(d), 0.0),
    )
    if kind == "stable":
        oracle = make_oracle(
            obj, "additive-stable", scales=np.array([1.0, 0.5, 0.25]),
            stable=StableParams(1.8), p=1.5,
        )
    else:
        oracle = make_oracle(
            obj, "additive-gaussian", scales=np.array([1.0, 0.5, 0.25])
        )
    return clip_error_mc(
        oracle, np.array([0.3, -0.6, 0.2]), tau, n_samples=_MC_N,
        rng=np.random.default_rng(21),
    )


VERIFIER_CASES = {
    "exact-tau-0.05": lambda: _exact_report(0.05),
    "exact-tau-1": lambda: _exact_report(1.0),
    "mc-stable-tau-2": lambda: _mc_report("stable", 2.0),
    "mc-gaussian-tau-1": lambda: _mc_report("gaussian", 1.0),
}

VERIFIER_GOLDEN = {
    "exact-tau-0.05":
        "0d299923a9d69bb1bc0c3425736cf3a843f485590a4f241385aa59ce379d14d9",
    "exact-tau-1":
        "9eb091afa1df615eebe0397ea76e4c90a4e20c116425bc28d1ea1a4e4f30e444",
    "mc-gaussian-tau-1":
        "0c76cc73b1681441c4cd7308e2b3ff2ee9dcb801a2ee7dde7d0814c4866aab3e",
    "mc-stable-tau-2":
        "f8f3dd8c0b18780431f1628375fad9dab28c928f657cd5020f3525bd6706f51d",
}


@pytest.mark.parametrize("name", sorted(VERIFIER_CASES))
def test_golden_verifier_report(name):
    report = VERIFIER_CASES[name]()
    blob = json.dumps(report.to_dict(), sort_keys=True)
    assert hashlib.sha256(blob.encode()).hexdigest() == VERIFIER_GOLDEN[name]
