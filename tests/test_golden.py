"""Golden bytes: pinned sha256 hashes of the files `htclip run` writes.

Each config below is run through the CLI at 1 and 3 threads, and the
hashes of series.csv, fit.csv and manifest.json (with its git_describe
field dropped) must match the pinned values exactly.  Together the
configs cover the four problem kinds (hard with cvx-fano and
str-twopoint), all six schedule regimes, v_mode first and cycle (with a
gv codebook), a ball domain, and eval.averaging designated, plain and
last.

Only Gaussian, hard-instance and deterministic noise are used:
alpha-stable draws go through SIMD-dispatched sin/cos/pow whose bits can
differ between CPUs (their thread determinism is covered by AC-12).
"""

import hashlib
import json

import pytest

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
    manifest = json.loads((out / "manifest.json").read_text())
    manifest.pop("git_describe")
    blobs = {
        "series.csv": (out / "series.csv").read_bytes(),
        "fit.csv": (out / "fit.csv").read_bytes(),
        "manifest.json": (
            json.dumps(manifest, sort_keys=True, indent=2) + "\n"
        ).encode(),
    }
    return {k: hashlib.sha256(v).hexdigest() for k, v in blobs.items()}


@pytest.mark.filterwarnings("ignore:trials=.*below 10/delta")
@pytest.mark.parametrize("threads", [1, 3])
@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_golden_bytes(tmp_path, capsys, name, threads):
    assert _run_hashes(tmp_path, name, threads) == GOLDEN[name]
