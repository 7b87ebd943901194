import contextlib
import copy
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from htclip import cli, hard_params
from htclip.cli import main
from htclip.clipping import BOUND_NAMES
from htclip.hardness import GV_MAX_D_STAR
from htclip.harness import MAX_T

from test_golden import CONFIGS as GOLDEN_CONFIGS
from test_harness import _paths


def _write_config(tmp_path, data, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def _noiseless_config(T_grid=(16, 32, 64), trials=1, seed=7, **extra):
    cfg = {
        "problem": {
            "kind": "euclid-norm",
            "d": 2,
            "G": 1.0,
            "x1_mode": {"kind": "offset", "vector": [1.0, 0.0]},
        },
        "noise": {"kind": "deterministic"},
        "schedule": {"regime": "cvx-ex-T"},
        "run": {"T_grid": list(T_grid), "trials": trials, "master_seed": seed},
    }
    cfg.update(extra)
    return cfg


class TestRun:
    def test_writes_outputs(self, tmp_path, capsys):
        cfg = _write_config(tmp_path, _noiseless_config())
        out = tmp_path / "out"
        rc = main(["run", "--config", cfg, "--out", str(out)])
        assert rc == 0
        for name in ("series.csv", "fit.csv", "manifest.json"):
            assert (out / name).exists()
        text = capsys.readouterr().out
        assert "T=16" in text
        assert "wrote series:" in text
        assert "fit: slope=" in text

    def test_json_prints_manifest(self, tmp_path, capsys):
        cfg = _write_config(tmp_path, _noiseless_config())
        rc = main(["run", "--config", cfg, "--out", str(tmp_path / "o"), "--json"])
        assert rc == 0
        manifest = json.loads(capsys.readouterr().out)
        assert manifest["trials"] == 1
        assert manifest["T_values"] == [16, 32, 64]
        assert "config_digest" in manifest

    def test_output_dir_from_config(self, tmp_path, capsys):
        target = tmp_path / "from-config"
        data = _noiseless_config(output={"dir": str(target)})
        cfg = _write_config(tmp_path, data)
        assert main(["run", "--config", cfg]) == 0
        assert (target / "series.csv").exists()

    def test_seed_override_lands_in_manifest(self, tmp_path, capsys):
        cfg = _write_config(tmp_path, _noiseless_config(seed=7))
        rc = main(
            ["run", "--config", cfg, "--out", str(tmp_path / "o"),
             "--seed", "999", "--json"]
        )
        assert rc == 0
        manifest = json.loads(capsys.readouterr().out)
        assert manifest["master_seed"] == 999
        assert manifest["config"]["run"]["master_seed"] == 999

    def test_failed_slope_assertion_exits_one(self, tmp_path, capsys):
        data = _noiseless_config(eval={"assert_slope_range": [0.9, 1.0]})
        cfg = _write_config(tmp_path, data)
        rc = main(["run", "--config", cfg, "--out", str(tmp_path / "o")])
        assert rc == 1
        assert "assertions: FAIL" in capsys.readouterr().out

    def test_threads_env_fallback(self, tmp_path, monkeypatch, capsys):
        cfg = _write_config(tmp_path, _noiseless_config())
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "a"),
                     "--threads", "1"]) == 0
        monkeypatch.setenv("HTCLIP_THREADS", "3")
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "b")]) == 0
        a = (tmp_path / "a" / "series.csv").read_bytes()
        b = (tmp_path / "b" / "series.csv").read_bytes()
        assert a == b

    def test_threads_env_invalid(self, tmp_path, monkeypatch, capsys):
        cfg = _write_config(tmp_path, _noiseless_config())
        monkeypatch.setenv("HTCLIP_THREADS", "many")
        rc = main(["run", "--config", cfg, "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["x", "0"])
    def test_threads_env_invalid_names_variable(self, tmp_path, monkeypatch, capsys, value):
        cfg = _write_config(tmp_path, _noiseless_config())
        monkeypatch.setenv("HTCLIP_THREADS", value)
        rc = main(["run", "--config", cfg, "--out", str(tmp_path / "o")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: HTCLIP_THREADS must be a positive integer")

    def test_non_finite_iterate_exits_two(self, tmp_path, monkeypatch, capsys):
        from htclip.noise import GradOracle

        gaussian_draw = GradOracle.draw

        def overflowing_draw(self, rng, n, out=None):
            states = gaussian_draw(self, rng, n, out=out)
            states[10] = np.inf
            return states

        monkeypatch.setattr(GradOracle, "draw", overflowing_draw)
        data = _noiseless_config(T_grid=(16,), trials=2)
        data["noise"] = {"kind": "additive-gaussian", "scales": 0.25}
        cfg = _write_config(tmp_path, data)
        rc = main(["run", "--config", cfg, "--out", str(tmp_path / "o")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: non-finite iterate")
        assert "Traceback" not in err


class TestScheduleCommand:
    def _gauss_config(self, tmp_path):
        data = _noiseless_config(T_grid=(16, 32))
        data["noise"] = {"kind": "additive-gaussian", "scales": 0.25}
        return _write_config(tmp_path, data)

    def test_json_constants(self, tmp_path, capsys):
        cfg = self._gauss_config(tmp_path)
        rc = main(["schedule", "--config", cfg, "--json"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["schedules"]) == 2
        entry = payload["schedules"][0]
        assert entry["T"] == 16
        for key in ("tau_star", "varphi_star", "eta_star"):
            assert key in entry
        # p = 2 noise: the in-expectation threshold is infinite
        assert entry["tau_star"] == "inf"
        assert entry["eta_star"] > 0

    def test_single_horizon(self, tmp_path, capsys):
        cfg = self._gauss_config(tmp_path)
        rc = main(["schedule", "--config", cfg, "--T", "128", "--json"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert [e["T"] for e in payload["schedules"]] == [128]

    def test_human_listing(self, tmp_path, capsys):
        cfg = self._gauss_config(tmp_path)
        assert main(["schedule", "--config", cfg]) == 0
        text = capsys.readouterr().out
        assert "T=16" in text
        assert "eta_star = " in text

    @pytest.mark.parametrize("regime", ["cvx-ex-T", "cvx-ex-anytime", "str-ex"])
    @pytest.mark.parametrize("T", ["0", "-3", str(MAX_T + 1)])
    def test_rejects_a_horizon_out_of_range(self, tmp_path, capsys, regime, T):
        data = _noiseless_config(T_grid=(16, 32))
        data["schedule"] = {"regime": regime}
        if regime.startswith("str"):
            data["problem"]["mu"] = 1.0
        cfg = _write_config(tmp_path, data)
        assert main(["schedule", "--config", cfg, "--T", T]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: --T must lie in [1, {MAX_T}]")


class TestClipVerify:
    def test_exact_passes(self, capsys):
        rc = main(["clip-verify", "--mode", "exact", "--d", "2", "--tau", "3"])
        assert rc == 0
        text = capsys.readouterr().out
        assert "overall: PASS" in text
        assert "du_sq_mean: PASS" in text
        assert "FAIL" not in text

    def test_exact_json_payload(self, capsys):
        rc = main(
            ["clip-verify", "--mode", "exact", "--d", "2", "--tau", "3",
             "--theta", "0.1", "--json"]
        )
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["method"] == "exact-enumeration"
        assert payload["chi"] == 1
        assert set(payload["bounds"]) == set(BOUND_NAMES)
        assert set(payload["measured"]) >= {"du_sq_mean", "db_norm"}

    @pytest.mark.parametrize(
        "flag, value, name",
        [
            ("--q", "1.5", "q"),
            ("--q", "-0.2", "q"),
            ("--theta", "2", "theta"),
            ("--theta", "-0.1", "theta"),
            ("--M", "-1", "M"),
            ("--M", "inf", "M"),
            ("--y", "nan", "y"),
            ("--d-star", "0", "d_star"),
        ],
    )
    def test_exact_rejects_an_impossible_instance(self, capsys, flag, value, name):
        # outcome masses outside [0, 1], or no active coordinate, make no
        # instance; the error names the parameter and no report is printed
        rc = main(["clip-verify", "--mode", "exact", "--d", "2", "--tau", "3",
                   flag, value])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert f" {name} must be" in captured.err

    @pytest.mark.parametrize(
        "args, flag",
        [
            (["--mode", "exact", "--mu", "-1"], "--mu"),
            (["--mode", "exact", "--mu", "nan"], "--mu"),
            (["--mode", "exact", "--x", "nan,0"], "--x"),
            (["--mode", "mc", "--x", "nan,0", "--n-samples", "10000"], "--x"),
        ],
        ids=["exact-mu-negative", "exact-mu-nan", "exact-x-nan", "mc-x-nan"],
    )
    def test_rejects_a_bad_flag_by_its_name(self, capsys, args, flag):
        rc = main(["clip-verify", "--d", "2", "--tau", "3", *args])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {flag} must ")

    def test_mc_gaussian_passes(self, capsys):
        rc = main(
            ["clip-verify", "--mode", "mc", "--d", "4", "--tau", "inf",
             "--seed", "1", "--n-samples", "20000"]
        )
        assert rc == 0
        assert "overall: PASS" in capsys.readouterr().out

    def test_mc_rejects_tiny_sample(self, capsys):
        rc = main(
            ["clip-verify", "--mode", "mc", "--d", "2", "--tau", "1",
             "--n-samples", "100"]
        )
        assert rc == 2
        assert "error:" in capsys.readouterr().err


class TestClipVerifyPoint:
    @pytest.mark.parametrize("x", ["1e300,0", "1e-200,0"], ids=["overflows", "underflows"])
    def test_mc_rejects_a_point_whose_squared_norm_leaves_the_floats(self, capsys, x):
        # the norm objective's subgradient x / ||x|| would silently be 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(["clip-verify", "--mode", "mc", "--d", "2", "--tau", "3",
                       "--x", x, "--n-samples", "10000"])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: --x must ")

    def test_exact_accepts_such_a_point(self, capsys):
        # the hard instance's gradient never squares x
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(["clip-verify", "--mode", "exact", "--d", "2", "--tau", "3",
                       "--x", "1e300,0"])
        assert rc == 0
        assert "overall: PASS" in capsys.readouterr().out


class TestDeff:
    def test_iid(self, capsys):
        rc = main(["deff", "--variant", "iid", "--d", "4", "--p", "2"])
        assert rc == 0
        assert "d_eff[iid] >= 4" in capsys.readouterr().out

    def test_declared_json(self, capsys):
        rc = main(
            ["deff", "--variant", "declared", "--sigma-s", "1",
             "--sigma-l", "2", "--json"]
        )
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["value"] == pytest.approx(4.0)

    def test_independent(self, capsys):
        rc = main(
            ["deff", "--variant", "independent", "--sigmas", "3,4",
             "--p", "2", "--json"]
        )
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["value"] == pytest.approx(25.0 / 16.0)

    @pytest.mark.parametrize("sigmas", ["1,nan", "1,inf"])
    def test_independent_rejects_non_finite_sigmas(self, capsys, sigmas):
        rc = main(["deff", "--variant", "independent", "--sigmas", sigmas,
                   "--p", "1.5", "--json"])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: --sigmas must ")

    def test_missing_arguments(self, capsys):
        rc = main(["deff", "--variant", "iid"])
        assert rc == 2
        assert "error:" in capsys.readouterr().err


class TestHardness:
    def test_json_matches_direct_construction(self, capsys):
        rc = main(
            ["hardness", "--regime", "cvx-fano", "--d", "4", "--d-star", "4",
             "--T", "100", "--G", "2", "--D", "3", "--sigma-l", "1",
             "--p", "1.5", "--json"]
        )
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        want = hard_params(
            "cvx-fano", d_star=4, T=100, G=2.0, D=3.0,
            sigma_l=1.0, p=1.5, mu=0.0, delta=None,
        ).to_dict()
        assert payload["params"] == want
        assert len(payload["v"]) == 4
        assert all(entry in (-1, 1) for entry in payload["v"])
        assert payload["codebook"]["size"] == 2
        assert payload["noise"]["sigma_l"] <= 1.0 + 1e-12

    def test_gv_codebook_matches_a_run_with_the_same_seed(self, tmp_path, capsys):
        cfg = _write_config(tmp_path, {
            "problem": {"kind": "hard", "d": 8, "G": 1.0, "D": 1.0},
            "noise": {"kind": "hard-instance", "p": 1.5, "sigma_s": 0.5, "sigma_l": 1.0},
            "schedule": {"regime": "cvx-ex-T"},
            "hardness": {"regime": "cvx-fano", "d_star": 8, "codebook": "gv"},
            "run": {"T_grid": [8], "trials": 1, "master_seed": 13},
        })
        out = tmp_path / "out"
        assert main(["run", "--config", cfg, "--out", str(out)]) == 0
        want = json.loads((out / "manifest.json").read_text())["codebook"]
        capsys.readouterr()
        rc = main(
            ["hardness", "--regime", "cvx-fano", "--d", "8", "--d-star", "8",
             "--T", "8", "--G", "1", "--D", "1", "--sigma-l", "1", "--p", "1.5",
             "--codebook", "gv", "--seed", "13", "--json"]
        )
        assert rc == 0
        got = json.loads(capsys.readouterr().out)["codebook"]
        assert (got["size"], got["min_distance"]) == (want["size"], want["min_distance"])

    def test_gv_codebook_above_its_d_star_cap_exits_two_at_once(self, tmp_path, capsys):
        d_star = GV_MAX_D_STAR + 1
        cfg = _write_config(tmp_path, {
            "problem": {"kind": "hard", "d": d_star, "G": 1.0, "D": 1.0},
            "noise": {"kind": "hard-instance", "p": 1.5, "sigma_s": 0.5, "sigma_l": 1.0},
            "schedule": {"regime": "cvx-ex-T"},
            "hardness": {"regime": "cvx-fano", "d_star": d_star, "codebook": "gv"},
            "run": {"T_grid": [8], "trials": 1, "master_seed": 13},
        })
        for argv in (
            ["run", "--config", cfg, "--out", str(tmp_path / "out")],
            ["hardness", "--regime", "cvx-fano", "--d", str(d_star),
             "--d-star", str(d_star), "--T", "8", "--G", "1", "--D", "1",
             "--sigma-l", "1", "--p", "1.5", "--codebook", "gv"],
        ):
            start = time.perf_counter()
            rc = main(argv)
            assert time.perf_counter() - start < 1.0
            assert rc == 2
            assert "error: hardness.d_star" in capsys.readouterr().err

    def test_twopoint_without_delta_fails(self, capsys):
        rc = main(
            ["hardness", "--regime", "cvx-twopoint", "--d", "2",
             "--d-star", "1", "--T", "10", "--G", "1", "--D", "1",
             "--sigma-l", "1", "--p", "1.5"]
        )
        assert rc == 2
        assert "error:" in capsys.readouterr().err


class TestParsing:
    def test_unknown_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2
        assert "usage:" in capsys.readouterr().err

    def test_no_subcommand(self, capsys):
        with pytest.raises(SystemExit):
            main([])

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert "htclip" in capsys.readouterr().out

    def test_unknown_config_key(self, tmp_path, capsys):
        data = _noiseless_config()
        data["problem"]["bogus"] = 1
        cfg = _write_config(tmp_path, data)
        rc = main(["run", "--config", cfg, "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "unknown config key problem.bogus" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "section, patch, key",
        [
            ("problem", {"d": None}, "problem.d"),
            ("eval", {"quantile_levels": 0.9}, "eval.quantile_levels"),
            ("noise", {"kind": "additive-gaussian", "scales": "12"}, "noise.scales"),
            ("run", {"trials": 2.7}, "run.trials"),
            ("problem", {"G": None}, "problem.G"),
            ("problem", {"kind": "linear", "c": [1.0, None]}, "problem.c"),
            ("noise", {"kind": "additive-gaussian", "scales": [1.0, None]}, "noise.scales"),
            ("noise", {"kind": "additive-gaussian", "scales": -1.0}, "noise.scales"),
            ("noise", {"kind": "additive-gaussian", "scales": float("nan")}, "noise.scales"),
            ("noise", {"kind": "additive-gaussian", "scales": 1e300}, "sigma_l is not finite"),
            ("problem", {"G": 1e-200}, "G ** p must be a positive finite real"),
            ("problem", {"G": 1e200}, "G ** p must be a positive finite real"),
            ("run", [1], "config section 'run' must be an object"),
            ("output", {"dir": 5}, "output.dir"),
            ("run", {"T_grid": {"min": 16, "max": 64, "ratio": float("inf")}},
             "run.T_grid.ratio"),
            ("problem", {"G": float("inf")}, "problem.G"),
            ("eval", {"fit_drop_smallest": "false"}, "eval.fit_drop_smallest"),
            ("problem", {"domain": {"kind": "ball", "radius": 0.0}}, "problem.domain.radius"),
            ("problem", {"domain": {"kind": "ball", "radius": 2.0, "center": [0.0]}},
             "problem.domain.center"),
            ("problem", {"domain": {"kind": "all-space", "radius": 2.0}},
             "problem.domain.radius"),
            ("problem", {"d": 1e300, "x1_mode": "origin"}, "problem.d"),
            ("hardness", {"regime": "cvx-fano", "d_star": 10**400}, "hardness.d_star"),
            ("run", {"trials": 1e300}, "run.trials"),
            ("run", {"T_grid": {"min": 16, "max": 1e300}}, "run.T_grid.max"),
            ("run", {"T_grid": [16, 1e300]}, "run.T_grid"),
            ("run", {"T_grid": {"min": 1, "max": 2**30, "ratio": 1.0000001}},
             "run.T_grid"),
            ("problem", {"domain": {"kind": "ball", "radius": 0.5}},
             "problem.x1_mode.vector"),
            ("noise", {"kind": "additive-gaussian", "scales": 1e-300},
             "noise sigma_s = 1e-300 is too small"),
            # section None: patch holds the updates of several sections
            (None, {
                "problem": {"kind": "linear", "c": [0.6, 0.8],
                            "domain": {"kind": "ball", "radius": 2.0}},
                "noise": {"kind": "additive-gaussian", "scales": 1e-100},
                "schedule": {"regime": "cvx-hp-anytime", "delta": 0.1},
                "run": {"trials": 100},
            }, "noise sigma_s = 1e-100 is out of range"),
            (None, {
                "problem": {"kind": "hard", "d": 64, "D": 1.0, "x1_mode": "origin"},
                "noise": {"kind": "hard-instance", "p": 1.5, "sigma_s": 0.5,
                          "sigma_l": 1.0},
                "hardness": {"regime": "cvx-fano", "d_star": 49, "codebook": "gv"},
            }, "hardness.d_star"),
        ],
    )
    def test_bad_config_value_names_its_key(self, tmp_path, capsys, section, patch, key):
        data = _noiseless_config()
        if section is None:
            for name, updates in patch.items():
                data.setdefault(name, {}).update(updates)
        elif isinstance(patch, dict):
            data.setdefault(section, {}).update(patch)
        else:
            data[section] = patch
        cfg = _write_config(tmp_path, data)
        rc = main(["run", "--config", cfg, "--out", str(tmp_path / "o")])
        assert rc == 2
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize("stride", ["geometric:0.5", "every:2", 0])
    def test_bad_record_stride_exits_two_naming_the_key(self, tmp_path, capsys, stride):
        data = _noiseless_config()
        data.setdefault("run", {})["record_stride"] = stride
        cfg = _write_config(tmp_path, data)
        rc = main(["run", "--config", cfg, "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "run.record_stride" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_sigma_l_power_overflow_exits_two(self, tmp_path, capsys):
        # sigma_l = sqrt(2) 1e200 is finite, sigma_l^2 is not
        data = _noiseless_config()
        data["noise"] = {"kind": "additive-gaussian", "scales": 1e200}
        cfg = _write_config(tmp_path, data)
        rc = main(["run", "--config", cfg, "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "sigma_l is not finite to the power p" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path, capsys):
        rc = main(["run", "--config", str(tmp_path / "absent.json")])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_malformed_config_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        rc = main(["run", "--config", str(bad)])
        assert rc == 2
        assert "error:" in capsys.readouterr().err


class TestStandardProblemConfig:
    """Config paths of the standard (non-hard) problems: the start, a
    declared D and declared noise moments."""

    @staticmethod
    def _run(tmp_path, data):
        cfg = _write_config(tmp_path, data)
        out = tmp_path / "o"
        return main(["run", "--config", cfg, "--out", str(out)]), out

    @pytest.mark.parametrize("kind", ["euclid-norm", "abs-sum"])
    def test_a_start_at_the_optimum_exits_two_naming_x1_mode(self, tmp_path, capsys, kind):
        # both kinds have their optimum at 0, the default origin start
        data = _noiseless_config()
        data["problem"] = {"kind": kind, "d": 2, "G": 1.0}
        rc, out = self._run(tmp_path, data)
        assert rc == 2
        assert "problem.x1_mode" in capsys.readouterr().err
        assert not out.exists()

    def test_a_declared_d_that_agrees_with_the_start_runs(self, tmp_path):
        data = _noiseless_config()
        data["problem"]["D"] = 1.0  # ||x1 - x*|| for the start (1, 0)
        rc, out = self._run(tmp_path, data)
        assert rc == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["problem"]["D"] == 1.0

    def test_a_declared_d_that_disagrees_exits_two_naming_it(self, tmp_path, capsys):
        data = _noiseless_config()
        data["problem"]["D"] = 2.0
        rc, out = self._run(tmp_path, data)
        assert rc == 2
        assert "problem.D" in capsys.readouterr().err
        assert not out.exists()

    def test_declared_noise_moments_reach_the_manifest(self, tmp_path):
        data = _noiseless_config(trials=2)
        data["noise"] = {
            "kind": "additive-gaussian", "scales": 0.1,
            "p": 1.5, "sigma_s": 0.2, "sigma_l": 0.25,
        }
        rc, out = self._run(tmp_path, data)
        assert rc == 0
        declared = json.loads((out / "manifest.json").read_text())["noise_declared"]
        assert declared["p"] == 1.5
        assert declared["sigma_s"] == 0.2
        assert declared["sigma_l"] == 0.25
        assert declared["d_eff"] == pytest.approx(0.25**2 / 0.2**2)


# ---------------------------------------------------------------------------
# main() fuzz: a small run config with one value replaced


def _small(cfg):
    cfg = copy.deepcopy(cfg)
    cfg["run"]["T_grid"] = [8, 16, 32]
    cfg["run"]["trials"] = min(cfg["run"]["trials"], 3)
    return cfg


_RUN_BASES = {name: _small(cfg) for name, cfg in GOLDEN_CONFIGS.items()}
_RUN_BASES["euclid-norm-cvx-ex-anytime-stable-ball"] = {
    "problem": {
        "kind": "euclid-norm", "d": 3, "G": 1.0,
        "domain": {"kind": "ball", "center": [0.0, 0.0, 0.0], "radius": 2.0},
        "x1_mode": {"kind": "offset", "vector": [0.5, -1.0, 0.8]},
    },
    "noise": {"kind": "additive-stable", "p": 1.2, "scales": [0.4, 0.8, 0.2],
              "stable": {"alpha": 1.5, "beta": 0.0, "gamma": 1.0}},
    "schedule": {"regime": "cvx-ex-anytime"},
    "run": {"T_grid": [8, 16, 32], "trials": 3, "master_seed": 19},
}

# replacements that keep a valid config small: counts and sizes stay
# below 40, so every accepted config runs in milliseconds
_SMALL_REPLACEMENTS = st.one_of(
    st.sampled_from([
        10**400, 1e300, -1e300, 1e100, 1e-100, 1e-300, float("inf"),
        float("-inf"), float("nan"), None, True, 0, -1, 0.5, "", "12", "gv",
        "cycle", "origin", "cvx-hp-anytime", "str-ex", [], [1.0, None],
        [2, 4, 8], {}, {"kind": "ball"}, {"min": 2, "max": 16},
    ]),
    st.integers(-3, 40),
    st.floats(-10.0, 10.0),
    st.lists(st.floats(-3.0, 3.0), max_size=4),
)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=st.data(), name=st.sampled_from(sorted(_RUN_BASES)), value=_SMALL_REPLACEMENTS)
def test_run_exits_0_1_or_2_and_never_raises(data, name, value):
    raw = copy.deepcopy(_RUN_BASES[name])
    path = data.draw(st.sampled_from(list(_paths(raw))))
    node = raw
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    with tempfile.TemporaryDirectory() as tmp:
        cfg = os.path.join(tmp, "config.json")
        with open(cfg, "w") as fh:
            json.dump(raw, fh)
        err = io.StringIO()
        with warnings.catch_warnings(), contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            # the small trial counts trip the quantile-stability warning
            warnings.simplefilter("ignore", UserWarning)
            rc = main(["run", "--config", cfg, "--out", os.path.join(tmp, "out")])
    assert rc in (0, 1, 2)
    if rc == 2:
        assert err.getvalue().startswith("error: "), err.getvalue()


# ---------------------------------------------------------------------------
# --json bytes of each subcommand, pinned as sha256 digests of stdout


_PIN_CONFIG = {
    "problem": {"kind": "euclid-norm", "d": 2, "G": 1.0,
                "x1_mode": {"kind": "offset", "vector": [1.0, 0.0]}},
    "noise": {"kind": "additive-gaussian", "scales": 0.25},
    "schedule": {"regime": "cvx-ex-T"},
    "run": {"T_grid": [16, 32], "trials": 1, "master_seed": 7},
}
_JSON_PINS = {
    "schedule": (
        ["schedule", "--config", "{config}"],
        "9f189634d001149c14ce758e7b92628dd73779bab64fec1aa16a656e9e0a8858",
    ),
    "clip-verify-exact": (
        ["clip-verify", "--mode", "exact", "--d", "4", "--tau", "1", "--theta", "0.1",
         "--x", "0.5,0,-1,2"],
        "f13a0ae5c6104b1f0e575f66df352fa9650cc86757ac636da280cf529633c908",
    ),
    "clip-verify-mc": (
        ["clip-verify", "--mode", "mc", "--d", "4", "--tau", "1", "--n-samples", "10000",
         "--seed", "3"],
        "9161963771976836a24259bf07bc9701afcea6e0f49733e59cf95139486da784",
    ),
    "clip-verify-mc-stable": (
        ["clip-verify", "--mode", "mc", "--noise", "stable", "--d", "4", "--tau", "8",
         "--alpha", "1.8", "--scale", "0.3", "--p", "1.5", "--n-samples", "10000",
         "--seed", "5"],
        "4c4c221a741c04a4b6e2db83b1c5b1efc51fd27c8f789e580999a951562542e1",
    ),
    "deff-declared": (
        ["deff", "--variant", "declared", "--sigma-s", "1", "--sigma-l", "2"],
        "ef7c90141c2e5a433572c844c27a897978ccbcd39920e337b13fb6519ae54383",
    ),
    "deff-independent": (
        ["deff", "--variant", "independent", "--sigmas", "3,4,0.5", "--p", "1.5"],
        "20a5b862114dee49cf705681ba417197843b0b369ca72cf89db52086678b0c27",
    ),
    "deff-iid": (
        ["deff", "--variant", "iid", "--d", "4", "--p", "1.5"],
        "1846f229f4709ac14bc478ef2ceae6a91c3ec9376597c92291d7f42f498fc6d2",
    ),
    "deff-stable": (
        ["deff", "--variant", "stable", "--d", "8", "--p", "1.5"],
        "2405dc6c54eb7a2f24452640185b17105b5068f9b7efa448504a28595394e261",
    ),
    "hardness-twopoint": (
        ["hardness", "--regime", "cvx-twopoint", "--d", "4", "--d-star", "2", "--T", "10",
         "--G", "1", "--D", "1", "--sigma-l", "1", "--p", "1.5", "--delta", "0.05"],
        "d2b54d430511ef57830d1e377e0e4bf0f292e79183de788348fe10c2bca9872f",
    ),
    "hardness-gv": (
        ["hardness", "--regime", "str-fano", "--d", "8", "--d-star", "8", "--T", "100",
         "--G", "2", "--D", "3", "--sigma-l", "1", "--p", "1.5", "--mu", "0.5",
         "--codebook", "gv", "--seed", "13", "--word-index", "3"],
        "c5a830dd9711b1a7fe18f9b265051a55d391ad4b2d4c7d9c681fa90c1e5d5920",
    ),
}


@pytest.mark.parametrize("case", sorted(_JSON_PINS))
def test_json_output_bytes_are_pinned(tmp_path, capsys, case):
    argv, digest = _JSON_PINS[case]
    config = _write_config(tmp_path, _PIN_CONFIG)
    assert main([a.format(config=config) for a in argv] + ["--json"]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


# ---------------------------------------------------------------------------
# bad flags: each exits 2 with a message that names the flag or parameter,
# with no traceback and no RuntimeWarning


@pytest.mark.parametrize(
    "argv, name",
    [
        (["run", "--config", "absent.json", "--threads", "0"], "--threads must be"),
        (["hardness", "--regime", "cvx-fano", "--d", "4", "--d-star", "4", "--T", "0",
          "--G", "1", "--D", "1", "--sigma-l", "1", "--p", "1.5"], "--T must lie"),
        (["hardness", "--regime", "cvx-fano", "--d", "100000", "--d-star", "4",
          "--T", "10", "--G", "1", "--D", "1", "--sigma-l", "1", "--p", "1.5"],
         "--d must be"),
        (["deff", "--variant", "independent", "--sigmas", "1,x", "--p", "1.5"],
         "--sigmas must"),
        (["clip-verify", "--mode", "mc", "--d", "2", "--tau", "1", "--scale", "1e300",
          "--n-samples", "10000"], "sigma_l is not finite to the power p"),
        (["clip-verify", "--mode", "exact", "--d", "2", "--tau", "1", "--M", "1e300",
          "--json"], " M must"),
        (["deff", "--variant", "independent", "--sigmas", "1e300,1e300", "--p", "1.5",
          "--json"], "sigmas must"),
        (["hardness", "--regime", "str-fano", "--d", "4", "--d-star", "4", "--T", "10",
          "--G", "1e300", "--D", "1e300", "--sigma-l", "1e300", "--p", "1.5",
          "--mu", "1e-300", "--json"], "F_star must"),
        (["clip-verify", "--mode", "mc", "--d", "2", "--tau", "1", "--n-samples", "10000",
          "--noise", "stable", "--alpha", "1.9", "--p", "1.5", "--gamma", "1e300"],
         "gamma"),
        (["clip-verify", "--mode", "exact", "--d", "100000", "--d-star", "4", "--tau", "1"],
         "--d must be"),
        (["clip-verify", "--mode", "mc", "--d", "2", "--tau", "3", "--n-samples", "10000",
          "--alpha-clip", "5e-324"], "alpha must"),
        (["clip-verify", "--mode", "mc", "--d", "2", "--tau", "3", "--n-samples", "10000",
          "--G", "1e300", "--x", "1,0"], "f_norm"),
        (["clip-verify", "--mode", "mc", "--d", "8", "--tau", "inf", "--n-samples", "10000",
          "--scale", "1e153"], "squared norm"),
        (["deff", "--variant", "declared", "--sigma-s", "1e-200", "--sigma-l", "1e200"],
         "d_eff"),
    ],
    ids=["run-threads-0", "hardness-T-0", "hardness-d-past-cap", "deff-sigmas-text",
         "mc-scale-power-overflows", "exact-M-squares-overflow",
         "deff-sigmas-powers-overflow", "hardness-F-star-overflows",
         "mc-stable-gamma-power-overflows", "exact-d-past-cap", "mc-alpha-clip-subnormal",
         "mc-f-norm-squares-overflow", "mc-draws-squares-overflow",
         "deff-declared-ratio-squares-overflow"],
)
def test_bad_flag_exits_two_naming_it(capsys, argv, name):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(argv)
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert name in captured.err
    assert "Traceback" not in captured.err


def test_a_bound_past_the_floats_reads_inf(capsys):
    # tau^-p overflows at tau = 1e-300: those bounds are inf, and hold
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["clip-verify", "--mode", "exact", "--d", "2", "--tau", "1e-300",
                   "--x", "2,2", "--json"])
    assert rc == 0
    bounds = json.loads(capsys.readouterr().out)["bounds"]
    assert math.isinf(bounds["db_norm"]) and math.isfinite(bounds["du_max_norm"])


# ---------------------------------------------------------------------------
# main() fuzz of the other subcommands: flags replaced by interesting text

_TEXTS = [
    "0", "-1", "1", "2", "3", "8", "0.5", "1.5", "1.9", "0.1", "1e300", "-1e300",
    "1e-300", "5e-324", "1e100", "1e-100", "1e400", "inf", "-inf", "nan", "x", "",
    "1,2", "1" + "0" * 400,
]
_TEXT = st.one_of(
    st.sampled_from(_TEXTS),
    st.integers(-3, 12).map(str),
    st.floats(-10.0, 10.0).map(repr),
)
# sizes kept small, so that every accepted command runs in milliseconds
_DIM = st.sampled_from(["1", "2", "3", "4", "8", "0", "-1", "x", "4097", "1e300", "2.5"])
_VECTOR = st.lists(_TEXT, min_size=1, max_size=8).map(",".join)
_FUZZ = {
    "schedule": (["schedule", "--config", "{config}"], {"--T": _TEXT, "--seed": _TEXT}),
    "clip-verify-exact": (
        ["clip-verify", "--mode", "exact", "--d", "2", "--tau", "3"],
        {"--d": _DIM, "--d-star": _DIM, "--tau": _TEXT, "--alpha-clip": _TEXT,
         "--p": _TEXT, "--x": _VECTOR, "--q": _TEXT, "--theta": _TEXT, "--M": _TEXT,
         "--y": _TEXT, "--mu": _TEXT},
    ),
    "clip-verify-mc": (
        ["clip-verify", "--mode", "mc", "--d", "2", "--tau", "3", "--n-samples", "10000"],
        {"--d": _DIM, "--tau": _TEXT, "--alpha-clip": _TEXT, "--p": _TEXT, "--x": _VECTOR,
         "--seed": _TEXT, "--noise": st.sampled_from(["gaussian", "stable", "x"]),
         "--G": _TEXT, "--scale": _TEXT, "--alpha": _TEXT, "--beta": _TEXT,
         "--gamma": _TEXT},
    ),
    "deff": (
        ["deff", "--variant", "iid", "--d", "4", "--p", "1.5"],
        {"--variant": st.sampled_from(["declared", "independent", "iid", "stable", "x"]),
         "--sigma-s": _TEXT, "--sigma-l": _TEXT, "--sigmas": _VECTOR, "--d": _TEXT,
         "--p": _TEXT, "--eps": _TEXT},
    ),
    "hardness": (
        ["hardness", "--regime", "cvx-fano", "--d", "4", "--d-star", "4", "--T", "100",
         "--G", "2", "--D", "3", "--sigma-l", "1", "--p", "1.5"],
        {"--regime": st.sampled_from(["cvx-fano", "str-fano", "cvx-twopoint",
                                      "str-twopoint", "x"]),
         "--d": _DIM, "--d-star": _DIM, "--T": _TEXT, "--G": _TEXT, "--D": _TEXT,
         "--sigma-l": _TEXT, "--p": _TEXT, "--mu": _TEXT, "--delta": _TEXT,
         "--codebook": st.sampled_from(["twopoint", "gv", "x"]), "--word-index": _TEXT,
         "--seed": _TEXT},
    ),
}


def _infinities(node, path=""):
    """The paths of the +-inf numbers in a JSON document."""
    if isinstance(node, dict):
        return [p for k, v in node.items() for p in _infinities(v, f"{path}.{k}")]
    if isinstance(node, list):
        return [p for v in node for p in _infinities(v, path)]
    return [path] if isinstance(node, float) and math.isinf(node) else []


@settings(max_examples=300, deadline=None, derandomize=True)
@given(data=st.data(), case=st.sampled_from(sorted(_FUZZ)), as_json=st.booleans())
def test_subcommands_exit_0_1_or_2_and_never_raise(data, case, as_json):
    base, flags = _FUZZ[case]
    chosen = data.draw(st.lists(st.sampled_from(sorted(flags)), min_size=1, max_size=4,
                                unique=True))
    values = {flag: data.draw(flags[flag], label=flag) for flag in chosen}
    with tempfile.TemporaryDirectory() as tmp:
        config = os.path.join(tmp, "config.json")
        with open(config, "w") as fh:
            json.dump(_PIN_CONFIG, fh)
        argv = [a.format(config=config) for a in base]
        # --flag=value, so that argparse reads a value such as -inf as one
        argv += [f"{flag}={value}" for flag, value in values.items()]
        argv += ["--json"] if as_json else []
        out, err = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            warnings.simplefilter("error", RuntimeWarning)
            rc = main(argv)
    out, err = out.getvalue(), err.getvalue()
    assert rc in (0, 1, 2)
    assert "Traceback" not in err
    if rc == 2:
        assert err.startswith("error: ") and out == "", err
        return
    if as_json:
        constants = []
        payload = json.loads(out, parse_constant=lambda c: constants.append(c) or float(c))
        assert "NaN" not in constants, out
        # +-inf only where an input is infinite, or in a bound past the floats
        infinite_input = any(math.isinf(float(v)) for v in [*values.values(), *base]
                             if _is_number(v))
        assert infinite_input or all(p.startswith(".bounds.")
                                     for p in _infinities(payload)), out
        assert rc == 0 or payload["ok"] is False
    else:
        assert rc == 0 or "overall: FAIL" in out


def _is_number(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


# main's calls in one process, with argparse.ArgumentParser counting the
# command line's parsers built (patched before htclip.cli is imported)
_CALLS_SCRIPT = """
import argparse, contextlib, io, json, sys

built = []
init = argparse.ArgumentParser.__init__

def counted(self, *args, **kwargs):
    if kwargs.get("prog") == "htclip":
        built.append(1)
    init(self, *args, **kwargs)

argparse.ArgumentParser.__init__ = counted
from htclip.cli import main

calls = []
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = main(argv)
    calls.append([rc, out.getvalue()])
print(json.dumps({"built": len(built), "calls": calls}))
"""


def test_main_builds_its_parser_once_per_process():
    # each call of main in a process answers as a fresh process does
    argvs = [
        ["deff", "--variant", "iid", "--d", "4", "--p", "2"],
        ["clip-verify", "--mode", "exact", "--d", "2", "--tau", "3", "--json"],
        ["deff", "--variant", "iid", "--d", "0", "--p", "2"],
    ]
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=src)

    def python(*args):
        return subprocess.run([sys.executable, *args], env=env, capture_output=True,
                              text=True, timeout=120)

    proc = python("-c", _CALLS_SCRIPT, json.dumps(argvs))
    assert proc.returncode == 0, proc.stderr[-2000:]
    got = json.loads(proc.stdout)
    assert got["built"] == 1
    fresh = [python("-m", "htclip.cli", *argv) for argv in argvs]
    assert got["calls"] == [[p.returncode, p.stdout] for p in fresh]
    assert [p.returncode for p in fresh] == [0, 0, 2]
