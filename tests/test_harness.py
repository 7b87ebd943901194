import copy
import json
import math
import os
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from htclip import (
    NOISE_CHUNK,
    AbsSum,
    AllSpace,
    ChunkStream,
    CompositeObjective,
    EuclidNorm,
    Optimum,
    StableParams,
    QuadReg,
    fit_rate,
    hard_params,
    make_hard_instance,
    make_oracle,
    parse_config,
    persist,
    run_experiment,
    summarize,
)
from htclip import algorithms, harness, noise
from htclip.harness import BLOCK_TRIALS, derive_seed

import oracles
from test_algorithms import _abs_objective, _const
from test_golden import CONFIGS as GOLDEN_CONFIGS


def _gauss_raw(T_grid=(16, 32, 64), trials=8, seed=123):
    return {
        "problem": {
            "kind": "euclid-norm",
            "d": 2,
            "G": 1.0,
            "x1_mode": {"kind": "offset", "vector": [1.0, 0.0]},
        },
        "noise": {"kind": "additive-gaussian", "scales": 0.25},
        "schedule": {"regime": "cvx-ex-T"},
        "run": {"T_grid": list(T_grid), "trials": trials, "master_seed": seed},
    }


def _noiseless_raw(T_grid, trials=1, seed=7):
    raw = _gauss_raw(T_grid, trials, seed)
    raw["noise"] = {"kind": "deterministic"}
    return raw


def _hard_raw(trials, v_mode="cycle"):
    return {
        "problem": {"kind": "hard", "d": 2, "G": 1.0, "D": 1.0},
        "noise": {"kind": "hard-instance", "p": 1.5, "sigma_s": 0.7072, "sigma_l": 1.0},
        "schedule": {"regime": "cvx-ex-T"},
        "hardness": {
            "regime": "cvx-fano", "d_star": 2, "codebook": "twopoint",
            "v_mode": v_mode,
        },
        "run": {"T_grid": [8], "trials": trials, "master_seed": 5},
    }


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(1, 2, 3) == derive_seed(1, 2, 3)

    def test_matches_reference_mix(self):
        masters = np.random.default_rng(0).integers(0, 2**63, size=1000)
        for m in masters[:50]:
            for trial, tag in ((0, 0), (5, 1), (63, 2), (2**31, 7)):
                want = int(
                    oracles.derive_seed_np(
                        np.uint64(m), np.uint64(trial), np.uint64(tag)
                    )
                )
                assert derive_seed(int(m), trial, tag) == want

    def test_no_collisions_across_trials(self):
        trials = np.arange(1_000_000, dtype=np.uint64)
        seeds = oracles.derive_seed_np(
            np.uint64(20260822), trials, np.uint64(3)
        )
        assert np.unique(seeds).size == trials.size

    def test_distinct_streams_across_tags(self):
        trials = np.arange(1000, dtype=np.uint64)
        a = oracles.derive_seed_np(np.uint64(1), trials, np.uint64(0))
        b = oracles.derive_seed_np(np.uint64(1), trials, np.uint64(1))
        assert not np.any(a == b)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            derive_seed(1, 2**32, 0)
        with pytest.raises(ValueError):
            derive_seed(1, 0, 2**32)


class TestParseConfig:
    @pytest.mark.parametrize(
        "stride", ["geometric:2", "geometric", "geometric:1.5", 1, 7, 4.0]
    )
    def test_record_stride_takes_a_positive_int_or_a_geometric_ratio(self, stride):
        raw = _gauss_raw()
        raw["run"]["record_stride"] = stride
        assert parse_config(raw).run["record_stride"] == stride

    @pytest.mark.parametrize(
        "stride",
        ["geometric:0.5", "geometric:1", "geometric:inf", "geometric:nan",
         "geometric:abc", "arithmetic:2", "", 0, -3, 2.5, True, None, [2]],
    )
    def test_record_stride_rejects_anything_else_by_its_key(self, stride):
        raw = _gauss_raw()
        raw["run"]["record_stride"] = stride
        with pytest.raises(ValueError, match=r"run\.record_stride must be a positive"):
            parse_config(raw)

    def test_defaults(self):
        cfg = parse_config(_gauss_raw())
        assert cfg.schedule["alpha_clip"] == 0.5
        assert cfg.schedule["algorithm"] == "clipped"
        assert cfg.run["record_stride"] == "geometric:2"
        assert cfg.eval["averaging"] == "designated"
        assert cfg.eval["quantile_levels"] == [0.9]
        assert cfg.eval["fit_drop_smallest"] is True

    def test_delta_sets_quantile_level(self):
        raw = _gauss_raw()
        raw["schedule"] = {"regime": "cvx-hp-T", "delta": 0.05}
        cfg = parse_config(raw)
        assert cfg.eval["quantile_levels"] == [0.95]

    def test_anytime_defaults_to_stabilized(self):
        raw = _gauss_raw()
        raw["schedule"] = {"regime": "cvx-ex-anytime"}
        assert parse_config(raw).schedule["algorithm"] == "stabilized"

    def test_unknown_key_named_with_path(self):
        raw = _gauss_raw()
        raw["problem"]["extra"] = 1
        with pytest.raises(ValueError, match="unknown config key problem.extra"):
            parse_config(raw)

    def test_missing_key_named_with_path(self):
        raw = _gauss_raw()
        del raw["run"]["master_seed"]
        with pytest.raises(
            ValueError, match="missing required config key run.master_seed"
        ):
            parse_config(raw)

    def test_regime_mu_mismatch_message(self):
        raw = _gauss_raw()
        raw["schedule"] = {"regime": "str-ex"}
        with pytest.raises(ValueError, match="regime/mu mismatch"):
            parse_config(raw)

    def test_sigma_ordering_message(self):
        raw = _gauss_raw()
        raw["noise"]["sigma_s"] = 2.0
        raw["noise"]["sigma_l"] = 1.0
        raw["noise"]["p"] = 2.0
        with pytest.raises(ValueError, match="directional moment bound"):
            parse_config(raw)

    def test_geometric_grid_expansion(self):
        raw = _gauss_raw()
        raw["run"]["T_grid"] = {"min": 4, "max": 64, "ratio": 2.0}
        cfg = parse_config(raw)
        assert cfg.run["T_grid"] == [4, 8, 16, 32, 64]

    def test_empty_grid_rejected(self):
        raw = _gauss_raw()
        raw["run"]["T_grid"] = []
        with pytest.raises(ValueError):
            parse_config(raw)

    def test_hard_requires_sections(self):
        raw = _gauss_raw()
        raw["problem"]["kind"] = "hard"
        raw["noise"] = {"kind": "hard-instance", "p": 1.5, "sigma_s": 0.5, "sigma_l": 1.0}
        with pytest.raises(ValueError, match="hardness"):
            parse_config(raw)

    def test_digest_tracks_content(self):
        a = parse_config(_gauss_raw())
        b = parse_config(_gauss_raw())
        assert a.digest() == b.digest()
        c = parse_config(_gauss_raw(seed=124))
        assert c.digest() != a.digest()

    def test_stable_requires_p_below_alpha(self):
        raw = _gauss_raw()
        raw["noise"] = {
            "kind": "additive-stable",
            "p": 1.8,
            "stable": {"alpha": 1.5},
            "scales": 0.1,
        }
        with pytest.raises(ValueError, match="stability index"):
            parse_config(raw)


class TestSummarize:
    def test_nearest_rank(self):
        stats = summarize(np.arange(1.0, 11.0), [0.9])
        assert stats.quantiles[0.9] == 9.0
        assert stats.mean == pytest.approx(5.5)

    def test_single_value(self):
        stats = summarize([3.0], [0.5, 1.0])
        assert stats.std == 0.0
        assert stats.quantiles[0.5] == 3.0
        assert stats.quantiles[1.0] == 3.0

    def test_gaussian_quantile_matches_scipy(self):
        from scipy.stats import norm

        x = np.random.default_rng(0).standard_normal(200_000)
        stats = summarize(x, [0.5, 0.9])
        assert stats.quantiles[0.5] == pytest.approx(norm.ppf(0.5), abs=0.02)
        assert stats.quantiles[0.9] == pytest.approx(norm.ppf(0.9), abs=0.02)
        assert stats.quantiles[0.9] == pytest.approx(1.2816, abs=0.02)

    def test_rejects_bad_levels(self):
        with pytest.raises(ValueError):
            summarize([1.0, 2.0], [0.0])
        with pytest.raises(ValueError):
            summarize([1.0, 2.0], [1.5])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            summarize([], [0.9])


class TestFitRate:
    def test_exact_power_law(self):
        Ts = np.array([8.0, 16.0, 32.0, 64.0, 128.0])
        errs = 3.0 * Ts**-0.5
        fit = fit_rate(Ts, errs)
        assert fit.slope == pytest.approx(-0.5, abs=1e-12)
        assert fit.intercept == pytest.approx(math.log(3.0), abs=1e-12)
        assert fit.r2 == pytest.approx(1.0)
        assert fit.dropped_smallest
        assert fit.n_points == 4

    def test_no_drop_below_three_points(self):
        fit = fit_rate([10.0, 100.0], [1.0, 0.1])
        assert not fit.dropped_smallest
        assert fit.n_points == 2
        assert fit.slope_stderr == 0.0
        assert fit.slope == pytest.approx(-1.0, abs=1e-12)

    def test_constant_series(self):
        fit = fit_rate([10.0, 100.0, 1000.0], [2.0, 2.0, 2.0])
        assert fit.slope == pytest.approx(0.0, abs=1e-12)
        assert fit.r2 == 1.0

    def test_perturbed_grid_recovers_exponent(self, rng):
        Ts = 2.0 ** np.arange(10, 16)
        errs = 5.0 * Ts**-0.66 * np.exp(rng.normal(0.0, 0.01, size=6))
        fit = fit_rate(Ts, errs)
        assert fit.slope == pytest.approx(-0.66, abs=0.05)
        assert fit.slope_stderr < 0.02

    def test_drop_smallest_flag(self):
        Ts = [8.0, 16.0, 32.0]
        errs = [1.0, 0.5, 0.25]
        kept = fit_rate(Ts, errs, drop_smallest=False)
        assert not kept.dropped_smallest
        assert kept.n_points == 3

    def test_rejects_nonpositive_errors(self):
        with pytest.raises(ValueError):
            fit_rate([10.0, 20.0], [1.0, 0.0])

    def test_rejects_single_point(self):
        with pytest.raises(ValueError):
            fit_rate([10.0], [1.0])


class TestRunExperiment:
    def test_noiseless_rate(self):
        raw = _noiseless_raw([64, 256, 1024])
        res = run_experiment(parse_config(raw))
        assert res.fit is not None
        assert res.fit.slope == pytest.approx(-0.5, abs=0.05)
        for row in res.per_T:
            assert row.clip_rate == 0.0

    def test_trials_single_quantile_equals_mean(self):
        raw = _noiseless_raw([16, 32])
        res = run_experiment(parse_config(raw))
        for row in res.per_T:
            assert row.stats.n == 1
            assert row.stats.quantiles[0.9] == row.stats.mean
            assert row.stats.std == 0.0

    def test_thread_invariance(self):
        raw = _gauss_raw(T_grid=(16, 32), trials=2 * BLOCK_TRIALS + 2)
        cfg = parse_config(raw)
        a = run_experiment(cfg, threads=1)
        b = run_experiment(cfg, threads=4)
        for ra, rb in zip(a.per_T, b.per_T):
            assert ra.stats.mean == rb.stats.mean
            assert ra.stats.std == rb.stats.std
            assert ra.clip_rate == rb.clip_rate
        assert a.manifest == b.manifest

    def test_master_seed_changes_samples_not_structure(self):
        # two-point grid: no rate fit, so the manifests differ only in
        # the seed-bearing fields stripped below
        raw_a = _gauss_raw(T_grid=(16, 32), trials=64, seed=1001)
        raw_b = _gauss_raw(T_grid=(16, 32), trials=64, seed=2002)
        ra = run_experiment(parse_config(raw_a))
        rb = run_experiment(parse_config(raw_b))

        def strip(manifest):
            m = copy.deepcopy(manifest)
            m.pop("master_seed")
            m.pop("config_digest")
            m["config"]["run"].pop("master_seed")
            return m

        assert strip(ra.manifest) == strip(rb.manifest)
        # means differ only by sampling noise
        for pa, pb in zip(ra.per_T, rb.per_T):
            se = math.hypot(
                pa.stats.std / math.sqrt(pa.stats.n),
                pb.stats.std / math.sqrt(pb.stats.n),
            )
            assert abs(pa.stats.mean - pb.stats.mean) <= 4.0 * se

    def test_warns_when_trials_too_few_for_quantile(self):
        raw = _noiseless_raw([16], trials=4)
        raw["schedule"] = {"regime": "cvx-hp-T", "delta": 0.01}
        with pytest.warns(UserWarning, match="10/delta"):
            run_experiment(parse_config(raw))

    def test_assert_slope_range(self):
        raw = _noiseless_raw([64, 256, 1024])
        raw["eval"] = {"assert_slope_range": [-0.6, -0.4]}
        res = run_experiment(parse_config(raw))
        assert res.assertions_passed is True
        raw["eval"] = {"assert_slope_range": [-0.1, 0.1]}
        res = run_experiment(parse_config(raw))
        assert res.assertions_passed is False

    def test_hard_cycle_codeword_rotation(self):
        raw = _hard_raw(trials=2 * BLOCK_TRIALS)
        res = run_experiment(parse_config(raw))
        row = res.per_T[0]
        assert row.codeword_means is not None
        assert sorted(row.codeword_means) == [0, 1]
        assert res.manifest["codebook"]["size"] == 2

    @pytest.mark.parametrize(
        "kind",
        ["gaussian", "hard-cycle", "hard-first", "hard-str-cycle", "str-gaussian",
         "stabilized-anytime", "stabilized-T"],
    )
    def test_block_width_is_outside_the_outputs(self, tmp_path, monkeypatch, kind):
        if kind == "gaussian":
            raw = _gauss_raw(T_grid=(16, 32, 64), trials=2 * BLOCK_TRIALS + 2)
        elif kind.startswith("hard"):
            raw = _hard_raw(trials=2 * BLOCK_TRIALS + 9, v_mode=kind.split("-")[-1])
            raw["run"]["T_grid"] = [8, 16, 32]
            if "str" in kind:
                raw["problem"]["mu"] = 0.5
                raw["schedule"] = {"regime": "str-ex"}
                raw["hardness"]["regime"] = "str-fano"
        elif kind == "str-gaussian":
            raw = _gauss_raw(T_grid=(16, 32, 64), trials=2 * BLOCK_TRIALS + 2)
            raw["problem"]["mu"] = 0.5
            raw["schedule"] = {"regime": "str-hp", "delta": 0.1}
        else:
            # stabilized steps on a ball: one schedule for every horizon
            # (anytime), or one per horizon with a constant step (known T)
            raw = _gauss_raw(T_grid=(16, 32, 64), trials=2 * BLOCK_TRIALS + 2)
            raw["problem"]["domain"] = {"kind": "ball", "radius": 1.5}
            raw["schedule"] = (
                {"regime": "cvx-ex-anytime"} if kind == "stabilized-anytime"
                else {"regime": "cvx-ex-T", "algorithm": "stabilized"}
            )
        cfg = parse_config(raw)
        outputs = []
        for budget in (0, harness.NOISE_BUDGET):
            # a zero budget forces the narrowest blocks, BLOCK_TRIALS rows
            monkeypatch.setattr(harness, "NOISE_BUDGET", budget)
            for threads in (1, 3):
                out = tmp_path / f"{budget}-{threads}"
                persist(run_experiment(cfg, threads=threads), str(out))
                outputs.append(
                    [(out / name).read_bytes()
                     for name in ("series.csv", "fit.csv", "manifest.json")]
                )
        assert all(o == outputs[0] for o in outputs[1:])

    def test_stable_shards_and_sub_chunks_are_outside_the_outputs(
        self, tmp_path, monkeypatch
    ):
        # a stabilized ball run under alpha-stable noise, whose rows draw
        # their chunks a sub-chunk at a time through ChunkStreams: its
        # bytes stay at every thread count, at a zero budget
        # (BLOCK_TRIALS-row shards) and with every row drawing 8 states at
        # a time instead of the 512 the kernel gives it
        d = 8
        raw = {
            "problem": {
                "kind": "euclid-norm", "d": d, "G": 1.0,
                "domain": {"kind": "ball", "radius": 1.5},
                "x1_mode": {"kind": "offset", "vector": [0.1] * d},
            },
            "noise": {"kind": "additive-stable", "p": 1.5, "scales": 0.05,
                      "stable": {"alpha": 1.8}},
            "schedule": {"regime": "cvx-ex-anytime"},
            "run": {"T_grid": [25, 50, 100], "trials": 2 * BLOCK_TRIALS + 2,
                    "master_seed": 5},
        }
        cfg = parse_config(raw)
        rule, subs = algorithms._rows_sub_chunk, []

        def eight(oracle, rows):
            subs.append(rule(oracle, rows))
            return 8

        runs = [(budget, threads, False)
                for budget in (0, harness.NOISE_BUDGET) for threads in (1, 2, 3)]
        outputs = []
        for budget, threads, forced in runs + [(harness.NOISE_BUDGET, 2, True)]:
            monkeypatch.setattr(harness, "NOISE_BUDGET", budget)
            if forced:
                monkeypatch.setattr(algorithms, "_rows_sub_chunk", eight)
            out = tmp_path / f"{budget}-{threads}-{forced}"
            persist(run_experiment(cfg, threads=threads), str(out))
            outputs.append(
                [(out / name).read_bytes()
                 for name in ("series.csv", "fit.csv", "manifest.json")]
            )
        assert subs and set(subs) == {512}
        assert all(o == outputs[0] for o in outputs[1:])

    def test_manifest_schedule_constants(self):
        raw = _gauss_raw(T_grid=(16, 32), trials=4)
        res = run_experiment(parse_config(raw))
        entries = res.manifest["schedule_constants"]
        assert [e["T"] for e in entries] == [16, 32]
        assert all("eta_star" in e for e in entries)
        nd = res.manifest["noise_declared"]
        assert nd["p"] == 2.0
        assert nd["sigma_l"] == pytest.approx(0.25 * math.sqrt(2.0))


class TestRunShard:
    """_run_shard is the one source of each row's clamped suboptimality
    F(aggregate) - F_star, mu ||x_last - x*||^2 and clip rate."""

    @staticmethod
    def _run(objective, schedule, horizons, x1, mode):
        oracle = make_oracle(objective, "deterministic")
        rows = [
            (ti, 0, harness._Setting(T, objective, oracle, schedule, x1, False))
            for ti, T in enumerate(horizons)
        ]
        return harness._run_shard(rows, 3, mode, True)

    @pytest.mark.parametrize(
        "mode, want", [("last", [0.3, 0.4]), ("plain", [0.375, 0.425])]
    )
    def test_values_match_direct_evaluation(self, mode, want):
        # |x| from 0.5 with eta = 0.1 and tau = 0.5, which clips every unit
        # subgradient: iterates 0.45, 0.4, 0.35, 0.3
        subopt, mu_dist2, clip_rate = self._run(
            _abs_objective(), _const(0.1, tau=0.5), [4, 2], np.array([0.5]), mode
        )
        assert subopt == pytest.approx(want, rel=1e-14)
        assert mu_dist2.tolist() == [0.0, 0.0]
        assert clip_rate.tolist() == [1.0, 1.0]

    def test_mu_dist2_of_the_last_iterate(self):
        # g = 0, eta_1 = 6/mu: x_2 = x_1/7, so mu ||x_2 - x*||^2 = 2/49
        obj = CompositeObjective(
            AbsSum(np.zeros(1), np.zeros(1)), QuadReg(2.0, np.zeros(1)),
            AllSpace(1), 1.0, mu=2.0, optimum=Optimum(np.zeros(1), 0.0),
        )
        subopt, mu_dist2, _ = self._run(obj, _const(3.0), [1], np.array([1.0]), "plain")
        assert mu_dist2[0] == pytest.approx(2.0 / 49.0, rel=1e-13)
        assert subopt[0] == pytest.approx(1.0 / 49.0, rel=1e-13)

    def test_clamps_negative_gaps(self):
        # a deliberately inflated F_star drives raw gaps negative
        obj = CompositeObjective(
            AbsSum(np.ones(1), np.zeros(1)), None, AllSpace(1), 1.0,
            optimum=Optimum(np.zeros(1), 10.0),
        )
        for mode in ("plain", "weighted", "last"):
            subopt, _, _ = self._run(obj, _const(0.1), [3, 1], np.array([0.5]), mode)
            assert subopt.tolist() == [0.0, 0.0]


class TestPersist:
    def test_round_trip_bytes(self, tmp_path):
        raw = _gauss_raw(T_grid=(16, 32, 64), trials=8)
        res = run_experiment(parse_config(raw))
        out1 = tmp_path / "a"
        out2 = tmp_path / "b"
        persist(res, str(out1))
        persist(res, str(out2))
        for name in ("series.csv", "fit.csv", "manifest.json"):
            b1 = (out1 / name).read_bytes()
            b2 = (out2 / name).read_bytes()
            assert b1 == b2
            assert b"\r" not in b1

    def test_series_layout(self, tmp_path):
        raw = _gauss_raw(T_grid=(16, 32, 64), trials=8)
        res = run_experiment(parse_config(raw))
        paths = persist(res, str(tmp_path / "out"))
        lines = open(paths["series"]).read().splitlines()
        assert lines[0] == "T,n,mean,std,q_0.9,mu_dist2_mean,clip_rate"
        assert len(lines) == 4
        first = lines[1].split(",")
        assert first[0] == "16"
        assert first[1] == "8"
        # 17-significant-digit floats round-trip exactly
        assert float(first[2]) == res.per_T[0].stats.mean

    def test_manifest_digest_consistent(self, tmp_path):
        raw = _gauss_raw(T_grid=(16, 32), trials=4)
        res = run_experiment(parse_config(raw))
        paths = persist(res, str(tmp_path / "out"))
        manifest = json.loads(open(paths["manifest"]).read())
        assert manifest["config_digest"] == res.config_digest
        reparsed = parse_config(manifest["config"])
        assert reparsed.digest() == res.config_digest

    def test_fit_csv_contents(self, tmp_path):
        raw = _gauss_raw(T_grid=(16, 32, 64), trials=8)
        res = run_experiment(parse_config(raw))
        paths = persist(res, str(tmp_path / "out"))
        lines = open(paths["fit"]).read().splitlines()
        assert lines[0] == "slope,intercept,slope_stderr,r2,n_points,dropped_smallest"
        got = lines[1].split(",")
        assert float(got[0]) == res.fit.slope
        assert got[4] == str(res.fit.n_points)

    def test_no_partial_files_on_error(self, tmp_path):
        raw = _gauss_raw(T_grid=(16,), trials=2)
        res = run_experiment(parse_config(raw))
        broken = res.__class__(
            config=res.config,
            config_digest=res.config_digest,
            per_T=[],
            fit=None,
            manifest=res.manifest,
            assertions_passed=None,
        )
        target = tmp_path / "never"
        with pytest.raises(ValueError):
            persist(broken, str(target))
        assert not target.exists() or not any(target.iterdir())


# ---------------------------------------------------------------------------
# parse_config fuzz: a golden config with one value replaced


def _paths(node, path=()):
    """Every key path into a config, sections and list entries included."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, child in items:
        yield path + (key,)
        if isinstance(child, (dict, list)):
            yield from _paths(child, path + (key,))


_REPLACEMENTS = st.one_of(
    st.sampled_from([
        10**400, -(10**400), 2**63, 1e300, 1e308, -1e300, float("inf"), float("-inf"),
        float("nan"), None, True, 0, -1, 0.5, "", "12", "cycle", [], [1.0, None],
        {}, {"kind": "ball"}, {"min": 1, "max": 10**12, "ratio": 1e308},
    ]),
    st.integers(-(10**12), 10**12),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=6),
    st.lists(st.floats(-10.0, 10.0), max_size=4),
)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(data=st.data(), name=st.sampled_from(sorted(GOLDEN_CONFIGS)),
       value=_REPLACEMENTS)
def test_parse_config_rejects_a_bad_value_by_its_key(data, name, value):
    raw = copy.deepcopy(GOLDEN_CONFIGS[name])
    path = data.draw(st.sampled_from(list(_paths(raw))))
    node = raw
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    try:
        parse_config(raw)
    except ValueError as exc:
        # every message names a config section or a key inside one
        assert re.search(
            r"\b(config|problem|noise|schedule|hardness|run|eval|output)\b", str(exc)
        ), str(exc)


def _noise_oracle(kind, d):
    if kind == "hard-instance":
        params = hard_params("cvx-fano", d_star=3, T=64, G=1.0, D=1.0, sigma_l=1.0, p=1.5)
        return make_hard_instance("cvx", d, 3, params, np.ones(3))[1]
    obj = CompositeObjective(
        f=EuclidNorm(1.0, np.zeros(d)), r=None, domain=AllSpace(d), lipschitz_G=1.0
    )
    if kind == "additive-stable":
        return make_oracle(
            obj, kind, scales=np.full(d, 0.5), stable=StableParams(1.8), p=1.5
        )
    return make_oracle(obj, kind, scales=np.full(d, 0.5))


def _traced_draw(kind, d, rows, sub):
    """Bytes of the (sub, rows, d) state buffer, and the traced peak of
    allocating it and drawing one sub-chunk into it for rows rows; the
    kernel draws hard-instance rows as events, so their int8 codes are
    filled a row at a time with sample_xi."""
    oracle = _noise_oracle(kind, d)
    streams = [ChunkStream(np.random.default_rng(i), NOISE_CHUNK * d) for i in range(rows)]
    tracemalloc.start()
    try:
        buf = np.empty((sub, rows, d), dtype=oracle.state_dtype)
        if kind == "hard-instance":
            for r, stream in enumerate(streams):
                buf[:, r] = oracle.instance.sample_xi(stream, sub)
        else:
            algorithms._draw([oracle] * rows, streams, buf, [sub] * rows)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.all(np.isfinite(buf))
    return buf.nbytes, peak


@pytest.mark.parametrize("d", [4, 64, 4096])
@pytest.mark.parametrize("kind", ["additive-gaussian", "additive-stable", "hard-instance"])
def test_a_shards_noise_buffers_fit_the_budget(kind, d):
    # a shard of _shard_width rows, drawing the sub-chunk the kernel gives
    # it, holds its (sub-chunk, rows, d) state buffer, float or int8, and
    # while it draws, whatever the draw keeps per row and per core; all
    # of it, as tracemalloc counts it, fits NOISE_BUDGET, for the
    # narrowest shard (the largest sub-chunk) and the widest (the least).
    # Not counted: what a draw allocates once, whatever the rows, measured
    # by a two-row draw less its two rows' buffers (the temporaries of the
    # row being drawn, a two-row block's scratch and ufunc buffers for
    # the strided columns), and the few Python references a draw keeps
    # per row (a slice of the stream list), 64 bytes a row
    oracle = _noise_oracle(kind, d)
    for rows in (BLOCK_TRIALS, 1 << 20):
        width = harness._shard_width(oracle, rows)
        sub = algorithms._rows_sub_chunk(oracle, width)
        assert width >= BLOCK_TRIALS
        held, peak = _traced_draw(kind, d, width, sub)
        two, once = _traced_draw(kind, d, 2, sub)
        assert held <= peak - (once - two) <= harness.NOISE_BUDGET + 64 * width



@pytest.mark.parametrize("d", [4, 64, 4096])
@pytest.mark.parametrize("cores", [1, 4, 8])
def test_stable_shards_fit_the_budget_on_other_core_counts(monkeypatch, cores, d):
    # test_a_shards_noise_buffers_fit_the_budget for alpha-stable rows on
    # other core counts: each core that may claim a row block holds its
    # scratch (noise._stable_scratch), so the width falls as cores grow,
    # to BLOCK_TRIALS rows from 5 cores on
    monkeypatch.setattr(noise, "_cores", lambda: cores)
    oracle = _noise_oracle("additive-stable", d)
    for rows in (BLOCK_TRIALS, 1 << 20):
        width = harness._shard_width(oracle, rows)
        sub = algorithms._rows_sub_chunk(oracle, width)
        held, peak = _traced_draw("additive-stable", d, width, sub)
        two, once = _traced_draw("additive-stable", d, 2, sub)
        assert held <= peak - (once - two) <= harness.NOISE_BUDGET + 64 * width


_MANY = 1 << 20


@pytest.mark.parametrize("kind, d, rows, cores, plan", [
    # the widest shards on two cores: a stable row keeps S = _sub_chunk(d)
    # and counts its generator copy and each core's row-block scratch, a
    # Gaussian row goes down to 512 entries, a hard row counts a byte
    ("additive-stable", 4, _MANY, 2, (128, 1024)),
    ("additive-stable", 12, _MANY, 2, (192, 256)),
    ("additive-stable", 64, _MANY, 2, (128, 64)),
    ("additive-stable", 4096, _MANY, 2, (128, 1)),
    ("additive-gaussian", 4, _MANY, 2, (2048, 128)),
    ("additive-gaussian", 12, _MANY, 2, (2688, 32)),
    ("additive-gaussian", 64, _MANY, 2, (2048, 8)),
    ("additive-gaussian", 4096, _MANY, 2, (256, 1)),
    ("hard-instance", 4, _MANY, 2, (2048, 1024)),
    ("hard-instance", 12, _MANY, 2, (2688, 256)),
    ("hard-instance", 64, _MANY, 2, (2048, 64)),
    ("hard-instance", 4096, _MANY, 2, (2048, 1)),
    # rate-stable-ball: one 128-row shard per horizon on two cores; fewer
    # cores claim less scratch, more claim more
    ("additive-stable", 64, 512, 2, (128, 64)),
    ("additive-stable", 64, 512, 1, (192, 64)),
    ("additive-stable", 64, 512, 4, (64, 64)),
    # AC-08: one shard, its S cut to fit
    ("additive-gaussian", 4, 1400, 2, (1408, 128)),
    # a narrow run keeps the most S
    ("additive-gaussian", 4, 200, 2, (256, 1024)),
    # rate-hard-cvx and AC-06/07: one shard
    ("hard-instance", 4, 1000, 2, (1024, 1024)),
    ("hard-instance", 4, 1400, 2, (1408, 1024)),
])
def test_shard_widths_are_pinned(monkeypatch, kind, d, rows, cores, plan):
    # (width, S): the most BLOCK_TRIALS multiples whose noise fits
    # NOISE_BUDGET at the S the kernel takes for them, the largest that
    # fits or the kind's least; the budget counts the (S, width, d) state
    # buffer the kernel allocates, 8 bytes a float entry and 1 a
    # hard-instance code, and what an alpha-stable draw holds beside it
    # (noise._stable_scratch)
    monkeypatch.setattr(noise, "_cores", lambda: cores)
    oracle = _noise_oracle(kind, d)
    width = harness._shard_width(oracle, rows)
    assert (width, algorithms._rows_sub_chunk(oracle, width)) == plan
