import json

import numpy as np
import pytest

from htclip import hard_params
from htclip.cli import main
from htclip.clipping import BOUND_NAMES


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

        def overflowing_draw(self, rng, n):
            states = gaussian_draw(self, rng, n)
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
        ],
    )
    def test_bad_config_value_names_its_key(self, tmp_path, capsys, section, patch, key):
        data = _noiseless_config()
        if isinstance(patch, dict):
            data.setdefault(section, {}).update(patch)
        else:
            data[section] = patch
        cfg = _write_config(tmp_path, data)
        rc = main(["run", "--config", cfg, "--out", str(tmp_path / "o")])
        assert rc == 2
        assert key in capsys.readouterr().err

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
