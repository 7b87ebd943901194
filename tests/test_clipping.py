import json
import math
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from htclip import (
    AbsSum,
    AllSpace,
    CompositeObjective,
    EuclidNorm,
    clip,
    clip_batch,
    clip_bounds,
    clip_error_exact,
    clip_error_mc,
    estimate_moments,
    hard_params,
    make_hard_instance,
    make_oracle,
    operator_norm,
    StableParams,
)
from htclip import clipping, noise
from htclip.clipping import BOUND_NAMES

import oracles
from test_problems import _dv_instance


class TestClip:
    def test_over_threshold_rescales(self):
        got = clip(np.array([1.5, 2.0]), 2.0)
        assert got == pytest.approx(np.array([1.2, 1.6]), abs=1e-15)
        assert np.linalg.norm(got) == pytest.approx(2.0)

    def test_under_threshold_unchanged(self):
        g = np.array([0.3, -0.4])
        assert np.array_equal(clip(g, 2.0), g)

    def test_zero_vector(self):
        assert np.array_equal(clip(np.zeros(3), 1.0), np.zeros(3))

    def test_infinite_threshold_passthrough(self):
        g = np.array([1e12, -3e9])
        assert np.array_equal(clip(g, math.inf), g)

    def test_rejects_nonpositive_tau(self):
        with pytest.raises(ValueError):
            clip(np.ones(2), 0.0)
        with pytest.raises(ValueError):
            clip(np.ones(2), -1.0)

    def test_norm_bounded_by_min(self, rng):
        G = rng.normal(size=(1000, 3), scale=4.0)
        for tau in (0.5, 2.0, 10.0):
            n = np.linalg.norm(clip_batch(G, tau), axis=1)
            assert np.all(n <= np.minimum(np.linalg.norm(G, axis=1), tau) + 1e-12)

    def test_nonexpansive(self, rng):
        A = rng.normal(size=(100_000, 2), scale=3.0)
        B = rng.normal(size=(100_000, 2), scale=3.0)
        da = clip_batch(A, 1.7) - clip_batch(B, 1.7)
        ab = A - B
        assert np.all(
            np.linalg.norm(da, axis=1) <= np.linalg.norm(ab, axis=1) + 1e-12
        )

    def test_batch_matches_single(self, rng):
        G = rng.normal(size=(50, 4), scale=3.0)
        batch = clip_batch(G, 1.3)
        for i in range(50):
            assert np.array_equal(batch[i], clip(G[i], 1.3))

    def test_matches_reference(self, rng):
        G = rng.normal(size=(200, 3), scale=2.0)
        ref = np.array([oracles.clip_ref(g, 1.1) for g in G])
        assert clip_batch(G, 1.1) == pytest.approx(ref, abs=1e-14)

    def test_overflowing_norm_clips_to_tau(self):
        # ||g||^2 = 2e400 overflows; the row must land on norm 1, not on 0
        with np.errstate(over="ignore"):
            got = clip_batch(np.array([[1e200, 1e200]]), 1.0)
        assert np.linalg.norm(got[0]) == pytest.approx(1.0, rel=1e-15)
        assert got[0] == pytest.approx(np.full(2, math.sqrt(0.5)), rel=1e-15)

    def test_overflowing_norm_below_tau_unchanged(self):
        # ||g||^2 overflows but ||g|| = sqrt(2) 1e200 is below tau
        g = np.array([[1e200, 1e200]])
        assert np.array_equal(clip_batch(g, 1e300), g)

    def test_overflowing_norm_raises_no_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = clip_batch(np.array([[1e200, 1e200]]), 1.0)
        assert np.linalg.norm(got[0]) == pytest.approx(1.0, rel=1e-15)


# rows of finite entries up to 1e300 in magnitude, so every true norm is
# finite (d <= 6) while squared norms may overflow
_ROWS = arrays(
    np.float64, st.tuples(st.integers(1, 12), st.integers(1, 6)),
    elements=st.floats(-1e300, 1e300, allow_nan=False, allow_infinity=False),
)
_TAUS = st.floats(1e-3, 1e3)
_EPS = np.finfo(float).eps
# a fixed example sequence, so the suite's verdict does not vary by run
_PROPERTY = settings(max_examples=300, deadline=None, derandomize=True)


def _unit_rows(G):
    big = np.max(np.abs(G), axis=1, keepdims=True)
    U = G / np.where(big > 0.0, big, 1.0)
    return U / np.where(big > 0.0, np.linalg.norm(U, axis=1, keepdims=True), 1.0)


class TestClipProperties:
    @_PROPERTY
    @given(G=_ROWS, tau=_TAUS)
    def test_norm_at_most_tau(self, G, tau):
        out = clip_batch(G, tau)
        assert np.all(np.linalg.norm(out, axis=1) <= tau * (1.0 + 4.0 * _EPS))

    @_PROPERTY
    @given(G=_ROWS, tau=_TAUS)
    def test_rows_within_tau_unchanged(self, G, tau):
        with np.errstate(over="ignore"):
            norms = np.sqrt(np.add.reduce(G * G, axis=1))
        out = clip_batch(G, tau)
        keep = norms <= tau
        assert np.array_equal(out[keep], G[keep])

    @_PROPERTY
    @given(G=_ROWS, tau=_TAUS)
    def test_clipped_rows_keep_direction(self, G, tau):
        out = clip_batch(G, tau)
        assert np.allclose(_unit_rows(out), _unit_rows(G), rtol=0.0, atol=1e-12)
        assert np.all((out == 0.0) | (np.sign(out) == np.sign(G)))


class TestClipBounds:
    def test_worked_example(self):
        b = clip_bounds(2.0, 1.0, 2.0, 1.0, 4.0, 0.5)
        assert b[0] == pytest.approx(8.0)
        assert b[1] == pytest.approx(16.0)
        assert b[2] == pytest.approx(8.0)
        assert b[3] == pytest.approx(6.0)
        assert b[4] == pytest.approx(3.0 * math.sqrt(2.0) / 4.0 + 0.625)
        assert b[5] == pytest.approx(1.0)

    def test_noiseless_bias_terms(self):
        b = clip_bounds(1.5, 0.0, 0.0, 2.0, 8.0, 0.5)
        assert b[1] == 0.0
        assert b[2] == pytest.approx(16.0)
        # bias bound reduces to the pure truncation term 2 f^{p+1} / tau^p
        assert b[4] == pytest.approx(2.0 * 2.0**1.5 * 2.0 / 8.0**1.5)

    def test_infinite_tau_zero_noise(self):
        b = clip_bounds(1.5, 0.0, 0.0, 1.0, math.inf, 0.5)
        assert b[1] == 0.0
        assert b[4] == 0.0
        assert b[5] == 0.0

    def test_tau_monotonicity(self):
        taus = [1.0, 2.0, 4.0, 8.0, 16.0]
        rows = [clip_bounds(1.5, 1.0, 2.0, 1.0, t, 0.5) for t in taus]
        for a, b in zip(rows, rows[1:]):
            assert b[0] > a[0]
            assert b[4] < a[4]
            assert b[5] < a[5]

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            clip_bounds(2.0, 1.0, 2.0, 1.0, 4.0, 1.0)
        with pytest.raises(ValueError):
            clip_bounds(2.0, 2.0, 1.0, 1.0, 4.0, 0.5)
        with pytest.raises(ValueError):
            clip_bounds(1.0, 1.0, 2.0, 1.0, 4.0, 0.5)


class TestOperatorNorm:
    def test_scalar(self):
        assert operator_norm(np.array([[1.0]])) == pytest.approx(1.0)

    def test_diagonal_negative(self):
        assert operator_norm(np.diag([1.0, -5.0])) == pytest.approx(5.0)

    def test_hand_symmetric(self):
        A = np.array([[3.0, 4.0], [4.0, 3.0]])
        assert operator_norm(A) == pytest.approx(7.0, rel=1e-12)

    def test_matches_eigvalsh_small(self, rng):
        for _ in range(20):
            B = rng.normal(size=(12, 12))
            A = B + B.T
            want = float(np.max(np.abs(np.linalg.eigvalsh(A))))
            assert operator_norm(A) == pytest.approx(want, rel=1e-9)

    def test_spread_spectrum_d100(self, rng):
        # d = 100, eigenvalues spread over [1, 10]: the top one is 10
        d = 100
        Q, _ = np.linalg.qr(rng.normal(size=(d, d)))
        vals = np.linspace(1.0, 10.0, d)
        A = (Q * vals) @ Q.T
        A = 0.5 * (A + A.T)
        assert operator_norm(A) == pytest.approx(10.0, rel=1e-6)

    def test_rejects_nonsymmetric(self):
        with pytest.raises(ValueError):
            operator_norm(np.array([[0.0, 1.0], [0.0, 0.0]]))

    @pytest.mark.parametrize("d", [1, 12, 64, 65, 200])
    def test_matches_scipy_eigvalsh(self, rng, d):
        linalg = pytest.importorskip("scipy.linalg")
        B = rng.normal(size=(d, d))
        A = B + B.T
        want = float(np.max(np.abs(linalg.eigvalsh(A))))
        assert operator_norm(A) == pytest.approx(want, rel=1e-12)

    def test_near_degenerate_top_pair(self, rng):
        # top eigenvalues 1 and -0.999999: |lambda| separates by only 1e-6
        linalg = pytest.importorskip("scipy.linalg")
        d = 100
        Q, _ = np.linalg.qr(rng.normal(size=(d, d)))
        vals = np.concatenate([[1.0, -0.999999], np.linspace(-0.5, 0.5, d - 2)])
        A = (Q * vals) @ Q.T
        A = 0.5 * (A + A.T)
        want = float(np.max(np.abs(linalg.eigvalsh(A))))
        assert operator_norm(A) == pytest.approx(want, rel=1e-12)


class TestClipErrorExact:
    def test_deterministic_truncation_bias(self):
        obj = CompositeObjective(
            f=AbsSum(np.array([1.0]), np.array([0.0])),
            r=None,
            domain=AllSpace(1),
            lipschitz_G=1.0,
        )
        oracle = make_oracle(obj, "deterministic")
        report = clip_error_exact(oracle, np.array([2.0]), tau=0.5)
        assert report.chi == 0
        assert report.measured["du_max_norm"] == 0.0
        assert report.measured["du_sq_mean"] == 0.0
        assert report.measured["db_norm"] == pytest.approx(0.5)
        assert report.passes[3] is None and report.passes[5] is None
        assert report.ok()

    def test_symmetric_noise_zero_bias(self):
        # theta = 0 at the minimizer: g is symmetric about 0 and clipping
        # preserves the symmetry, so the bias vanishes exactly
        obj, oracle = _dv_instance(1, q=0.5, theta=0.0, M=1.0, y=1.0)
        report = clip_error_exact(oracle, np.array([0.0]), tau=0.8)
        assert report.f_norm == 0.0
        assert report.chi == 1
        assert report.measured["db_norm"] == pytest.approx(0.0, abs=1e-15)
        assert all(p is True for p in report.passes)

    def test_matches_brute_force(self):
        obj, oracle = _dv_instance(3, q=0.4, theta=0.3, M=1.2, y=0.9)
        x = np.array([0.2, -1.4, 0.5])
        tau = 1.6
        report = clip_error_exact(oracle, x, tau=tau, alpha=0.5)
        inst = oracle.instance
        states, probs = oracles.dv_enum(inst.q, inst.theta, inst.v)
        rows = oracles.cvx_grad_rows(x, states, inst.M, inst.y)
        want = oracles.clip_error_brute(rows, probs, oracle.mean_grad(x), tau)
        for key, val in want.items():
            assert report.measured[key] == pytest.approx(val, rel=1e-12, abs=1e-12)
        assert report.bounds == pytest.approx(
            clip_bounds(
                report.p, report.sigma_s, report.sigma_l, report.f_norm, tau, 0.5
            )
        )
        assert report.ok()

    def test_all_bounds_hold_on_grid(self):
        obj, oracle = _dv_instance(2, q=0.6, theta=0.2, M=1.0, y=1.0)
        for tau in (0.4, 0.9, 1.7, 3.0, 10.0):
            for x in (np.zeros(2), np.array([0.5, -0.5]), np.array([2.0, 2.0])):
                report = clip_error_exact(oracle, x, tau=tau, alpha=0.5)
                assert report.ok(), (tau, x, report.to_dict())

    def test_wrong_grad_true_rejected(self):
        obj, oracle = _dv_instance(1, q=0.5, theta=0.1, M=1.0, y=1.0)
        with pytest.raises(ValueError, match="mean"):
            clip_error_exact(
                oracle, np.zeros(1), tau=1.0, grad_true=np.array([5.0])
            )

    def test_requires_finite_support(self):
        obj = CompositeObjective(
            f=EuclidNorm(1.0, np.zeros(2)),
            r=None,
            domain=AllSpace(2),
            lipschitz_G=1.0,
        )
        oracle = make_oracle(obj, "additive-gaussian", scales=np.ones(2))
        with pytest.raises(ValueError):
            clip_error_exact(oracle, np.zeros(2), tau=1.0)


class TestClipErrorMC:
    def _gaussian_oracle(self, d=4):
        obj = CompositeObjective(
            f=EuclidNorm(0.0, np.zeros(d)),
            r=None,
            domain=AllSpace(d),
            lipschitz_G=0.0,
        )
        return make_oracle(obj, "additive-gaussian", scales=np.ones(d))

    def test_deterministic_zero_everything(self):
        obj = CompositeObjective(
            f=AbsSum(np.zeros(2), np.zeros(2)),
            r=None,
            domain=AllSpace(2),
            lipschitz_G=0.0,
        )
        oracle = make_oracle(obj, "deterministic")
        report = clip_error_mc(
            oracle, np.zeros(2), tau=1.0, n_samples=10_000,
            rng=np.random.default_rng(0),
        )
        assert report.measured["du_sq_mean"] == 0.0
        assert report.measured["db_norm"] == 0.0
        assert report.ok()

    def test_unclipped_gaussian_moments(self):
        oracle = self._gaussian_oracle(4)
        report = clip_error_mc(
            oracle, np.zeros(4), tau=math.inf, n_samples=100_000,
            rng=np.random.default_rng(1),
        )
        # E||n||^2 = d = 4; the bound uses sigma_l^2 = 4 so b2 = 16
        assert report.measured["du_sq_mean"] == pytest.approx(4.0, abs=0.05)
        assert report.bounds[1] == pytest.approx(16.0)
        assert report.measured["db_norm"] <= 3.0 * report.margins["db_norm"]
        assert report.chi == 1
        assert report.ok()

    def test_clipped_gaussian_passes(self):
        oracle = self._gaussian_oracle(4)
        for tau in (1.0, 3.0):
            report = clip_error_mc(
                oracle, np.zeros(4), tau=tau, n_samples=50_000,
                rng=np.random.default_rng(2),
            )
            assert report.measured["du_max_norm"] <= 2.0 * tau + 1e-12
            assert report.ok()

    def test_stable_noise_passes(self):
        d = 4
        obj = CompositeObjective(
            f=EuclidNorm(0.0, np.zeros(d)),
            r=None,
            domain=AllSpace(d),
            lipschitz_G=0.0,
        )
        oracle = make_oracle(
            obj, "additive-stable", scales=np.full(d, 0.3),
            stable=StableParams(1.8), p=1.5,
        )
        report = clip_error_mc(
            oracle, np.zeros(d), tau=2.0, n_samples=50_000,
            rng=np.random.default_rng(3),
        )
        assert report.ok()

    def test_rejects_tiny_sample_size(self):
        oracle = self._gaussian_oracle(2)
        with pytest.raises(ValueError):
            clip_error_mc(oracle, np.zeros(2), tau=1.0, n_samples=100)

    def test_report_serializes(self):
        oracle = self._gaussian_oracle(2)
        report = clip_error_mc(
            oracle, np.zeros(2), tau=1.5, n_samples=10_000,
            rng=np.random.default_rng(4),
        )
        blob = json.dumps(report.to_dict())
        back = json.loads(blob)
        assert set(back["passes"]) == set(BOUND_NAMES)
        assert back["method"] == "monte-carlo"
        assert back["n_samples"] == 10_000


def _inline_draws(oracle, rng, sizes):
    # the chunks drawn one by one on the caller, as before the draw-ahead
    return (oracle.draw(rng, m) for m in sizes)


def _mc_oracles(d=3):
    obj = CompositeObjective(
        f=EuclidNorm(1.0, np.zeros(d)), r=None, domain=AllSpace(d), lipschitz_G=1.0,
    )
    scales = np.linspace(1.0, 0.25, d)
    _, hard = _dv_instance(d, q=0.4, theta=0.3, M=1.2, y=0.9)
    return {
        "stable": make_oracle(
            obj, "additive-stable", scales=scales, stable=StableParams(1.8), p=1.5,
        ),
        "gaussian": make_oracle(obj, "additive-gaussian", scales=scales),
        "hard": hard,
    }


class TestDrawAheadReports:
    """The verifiers read their chunks through noise._draw_ahead; their
    reports have the bytes of chunks drawn inline, on any core count."""

    N = 3 * (1 << 15) + 123  # not a multiple of clip_error_mc's chunk

    @pytest.mark.parametrize("kind", ["stable", "gaussian", "hard"])
    def test_mc_report_matches_inline_draws(self, monkeypatch, kind):
        oracle = _mc_oracles()[kind]
        x = np.array([0.3, -0.6, 0.2])

        def report():
            r = clip_error_mc(oracle, x, 1.5, n_samples=self.N,
                              rng=np.random.default_rng(8))
            return json.dumps(r.to_dict(), sort_keys=True)

        with monkeypatch.context() as m:
            m.setattr(clipping, "_draw_ahead", _inline_draws)
            want = report()
        for cores in (1, 2, 3, 4):
            monkeypatch.setattr(noise, "_cores", lambda: cores)
            assert report() == want

    @pytest.mark.parametrize("kind", ["stable", "gaussian", "hard"])
    def test_estimated_moments_match_inline_draws(self, monkeypatch, kind):
        oracle = _mc_oracles()[kind]
        x = np.array([0.3, -0.6, 0.2])

        def moments():
            return estimate_moments(oracle, x, 1.5, n_samples=40_001,
                                    rng=np.random.default_rng(8))

        with monkeypatch.context() as m:
            m.setattr(noise, "_draw_ahead", _inline_draws)
            want = moments()
        for cores in (1, 2, 3, 4):
            monkeypatch.setattr(noise, "_cores", lambda: cores)
            assert moments() == want

    def test_an_error_in_the_loop_leaves_no_draw_running(self, monkeypatch):
        monkeypatch.setattr(noise, "_cores", lambda: 2)
        oracle = _mc_oracles()["stable"]
        x = np.array([0.3, -0.6, 0.2])
        want = clip_error_mc(oracle, x, 1.5, n_samples=self.N,
                             rng=np.random.default_rng(8)).to_dict()
        cms = noise._cms
        ends = []

        def slow_cms(params, phi, w, out):
            time.sleep(0.005)
            cms(params, phi, w, out)
            ends.append(time.perf_counter())

        calls = []

        def failing_clip(G, tau):
            calls.append(1)
            if len(calls) == 2:
                raise KeyError("the caller's loop")
            return clip_batch(G, tau)

        with monkeypatch.context() as m:
            m.setattr(noise, "_cms", slow_cms)
            m.setattr(clipping, "clip_batch", failing_clip)
            with pytest.raises(KeyError):
                clip_error_mc(oracle, x, 1.5, n_samples=self.N,
                              rng=np.random.default_rng(8))
            caught = time.perf_counter()
            time.sleep(0.1)
        assert ends and max(ends) <= caught
        again = clip_error_mc(oracle, x, 1.5, n_samples=self.N,
                              rng=np.random.default_rng(8))
        assert again.to_dict() == want


def _traced_peak(fn):
    """Peak bytes of traced allocations (numpy arrays included) during fn()."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestVerifierMemory:
    def test_exact_holds_few_copies_of_the_support(self):
        d_star = 10
        params = hard_params(
            "cvx-fano", d_star=d_star, T=4, G=1.0, D=1.0, sigma_l=2.0, p=1.5
        )
        v = np.resize([1.0, -1.0, -1.0], d_star)
        _, oracle = make_hard_instance("cvx", d_star, d_star, params, v)
        x = np.linspace(-0.5, 0.5, d_star) * params.y
        states_bytes = 3**d_star * d_star * 8
        peak = _traced_peak(lambda: clip_error_exact(oracle, x, 0.5))
        assert peak <= 4.0 * states_bytes

    def test_mc_pass_two_holds_one_buffer(self):
        d, n = 8, 1_000_000
        obj = CompositeObjective(
            f=EuclidNorm(1.0, np.zeros(d)), r=None, domain=AllSpace(d),
            lipschitz_G=1.0,
        )
        oracle = make_oracle(obj, "additive-gaussian", scales=np.ones(d))
        peak = _traced_peak(
            lambda: clip_error_mc(
                oracle, np.full(d, 0.5), 2.0, n_samples=n,
                rng=np.random.default_rng(5),
            )
        )
        assert peak <= 1.5 * n * d * 8
