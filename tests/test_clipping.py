import json
import math
import os
import subprocess
import sys
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
from htclip._util import row_norms
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


def _exact_d12(seed=3):
    """A cvx-fano instance with 3^12 support states and a point x, built
    as the verify-clip benchmark builds its exact case."""
    rng = np.random.default_rng(seed)
    params = hard_params(
        "cvx-fano", d_star=12, T=4, G=1.0, D=1.0, sigma_l=2.0, p=1.5
    )
    v = rng.choice([-1.0, 1.0], 12)
    _, oracle = make_hard_instance("cvx", 12, 12, params, v)
    return oracle, rng.uniform(-0.5, 0.5, 12) * params.y


# prints the d = 12 exact reports at the verify-clip taus and exact
# moments, then the CLI's report, with noise._cores patched to return
# argv[1] if it is given
_EXACT_D12_SCRIPT = """
import json, sys
from htclip import clip_error_exact, estimate_moments, noise
from htclip.cli import main
from test_clipping import _exact_d12
if len(sys.argv) > 1:
    noise._cores = lambda: int(sys.argv[1])
oracle, x = _exact_d12()
reports = [clip_error_exact(oracle, x, tau).to_dict() for tau in (0.25, 1.0)]
print(json.dumps(reports, sort_keys=True))
print(repr(estimate_moments(oracle, x, 1.5, exact=True)))
sys.stdout.flush()
sys.exit(main(["clip-verify", "--mode", "exact", "--d", "12", "--tau", "1", "--json"]))
"""


class TestExactSupportWalk:
    """clip_error_exact and estimate_moments(exact=True) walk the support
    in fixed row blocks (noise._SupportWalk)."""

    def test_report_bytes_do_not_depend_on_blas_or_pool_threads(self):
        here = os.path.dirname(os.path.abspath(__file__))
        src = os.path.dirname(os.path.dirname(os.path.abspath(noise.__file__)))
        outs = []
        # (OPENBLAS_NUM_THREADS, cores the walk may use, or the machine's)
        for threads, cores in (("1", ()), ("2", ("1",)), ("2", ("3",))):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                       PYTHONPATH=os.pathsep.join([src, here]))
            proc = subprocess.run(
                [sys.executable, "-c", _EXACT_D12_SCRIPT, *cores], env=env,
                capture_output=True, timeout=120,
            )
            assert proc.returncode == 0, proc.stderr.decode()[-2000:]
            outs.append(proc.stdout)
        assert outs[0].count(b"exact-enumeration") == 3
        assert outs[1:] == outs[:1] * 2

    def test_str_report_bytes_do_not_depend_on_cores(self, monkeypatch):
        _, oracle = _dv_instance(12, q=0.3, theta=0.2, M=0.8, y=1.0, mu=0.5)
        x = np.zeros(12)
        blobs = []
        for cores in (1, 3):
            monkeypatch.setattr(noise, "_cores", lambda: cores)
            reports = [clip_error_exact(oracle, x, tau) for tau in (0.25, 1.0)]
            blobs.append(json.dumps([r.to_dict() for r in reports], sort_keys=True))
            blobs.append(repr(estimate_moments(oracle, x, 1.5, exact=True)))
        assert blobs[:2] == blobs[2:]

    @pytest.mark.parametrize("kind", ["cvx", "str"])
    def test_several_blocks_match_brute_force(self, kind):
        d = 10
        assert 3**d > 3 ** noise._walk_exponent(d, d)  # more than one block
        mu = 0.7 if kind == "str" else 0.0
        _, oracle = _dv_instance(d, q=0.45, theta=0.3, M=0.9, y=0.8, mu=mu)
        inst = oracle.instance
        x = np.linspace(-1.0, 1.0, d) * 0.8
        states, probs = oracles.dv_enum(inst.q, inst.theta, inst.v)
        if kind == "cvx":
            rows = oracles.cvx_grad_rows(x, states, inst.M, inst.y)
        else:
            rows = oracles.str_grad_rows(states, inst.M, mu)
        norms = np.linalg.norm(rows, axis=1)
        # one tau clips some rows but not all, the other clips none
        for tau, clips in ((float(np.median(norms)), True),
                           (1.01 * float(np.max(norms)), False)):
            assert (0 < np.count_nonzero(norms > tau) < len(norms)) == clips
            report = clip_error_exact(oracle, x, tau)
            want = oracles.clip_error_brute(rows, probs, oracle.mean_grad(x), tau)
            for key, val in want.items():
                assert report.measured[key] == pytest.approx(val, rel=1e-12, abs=1e-12)
        noise_rows = rows - oracle.mean_grad(x)
        sig_s_p, sig_l_p = estimate_moments(oracle, x, 1.5, exact=True, n_directions=0)
        want_l = float(probs @ np.linalg.norm(noise_rows, axis=1) ** 1.5)
        want_s = float(np.max(probs @ np.abs(noise_rows) ** 1.5))
        assert sig_l_p == pytest.approx(want_l, rel=1e-12)
        assert sig_s_p == pytest.approx(want_s, rel=1e-12)

    def test_windows_of_slots_match_brute_force(self):
        # d far above d_star: each block's d x d slot is large, so the
        # walk adds its slots to the sums a few blocks at a time
        d, d_star = 200, 4
        params = hard_params(
            "cvx-fano", d_star=d_star, T=4, G=1.0, D=1.0, sigma_l=2.0, p=1.5
        )
        _, oracle = make_hard_instance("cvx", d, d_star, params, np.ones(d_star))
        inst = oracle.instance
        x = np.linspace(-1.0, 1.0, d) * 0.4 * params.y
        walk = noise._SupportWalk(oracle, x, *oracle.product_support(), width=d)
        assert walk.blocks > noise._SLOTS // (1 + d * d) > 1  # several windows
        states, probs = oracle.support()
        rows = oracles.cvx_grad_rows(x, states, inst.M, inst.y)
        norms = np.linalg.norm(rows, axis=1)
        tau = float(np.median(norms))
        assert 0 < np.count_nonzero(norms > tau) < len(norms)
        report = clip_error_exact(oracle, x, tau)
        want = oracles.clip_error_brute(rows, probs, oracle.mean_grad(x), tau)
        for key, val in want.items():
            assert report.measured[key] == pytest.approx(val, rel=1e-12, abs=1e-12)

    def test_one_block_moments_keep_the_whole_support_expressions(self):
        # a one-block support takes the expressions of one pass over the
        # states that support() enumerates, bit for bit
        _, oracle = _dv_instance(4, q=0.4, theta=0.2, M=1.5, y=1.0)
        x = np.array([0.3, -0.7, 0.1, 0.9])
        got = estimate_moments(oracle, x, 1.5, exact=True, n_directions=3,
                               rng=np.random.default_rng(4))
        extra = np.random.default_rng(4).standard_normal((3, 4))
        dirs = np.concatenate([np.eye(4), extra / row_norms(extra)[:, None]])
        states, probs = oracle.support()
        noise_rows = oracle.grad_rows(x[None, :], states) - oracle.mean_grad(x)
        want_l = float(probs @ row_norms(noise_rows) ** 1.5)
        want_s = float(np.max(probs @ np.abs(noise_rows @ dirs.T) ** 1.5))
        assert got == (want_s, want_l)


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

    def test_default_generator_is_seeded_zero(self):
        oracle = self._gaussian_oracle(2)
        got = clip_error_mc(oracle, np.zeros(2), tau=1.0, n_samples=10_000)
        want = clip_error_mc(
            oracle, np.zeros(2), tau=1.0, n_samples=10_000, rng=np.random.default_rng(0)
        )
        assert got == want

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


def _inline_draws(oracle, rng, sizes, outs=None):
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

    def test_exact_holds_no_array_of_the_support(self):
        # one pass over the whole support held about 154 MiB here
        oracle, x = _exact_d12()
        peak = _traced_peak(lambda: clip_error_exact(oracle, x, 0.25))
        assert peak < 16 << 20

    def test_exact_holds_few_d_by_d_matrices_when_d_exceeds_d_star(self):
        # 81 states at d = 512: one pass over all states held about
        # 7.3 MiB, mostly the d x d second moment and its eigensolve; a
        # d x d slot per block would hold 81 of them
        d, d_star = 512, 4
        params = hard_params(
            "cvx-fano", d_star=d_star, T=4, G=1.0, D=1.0, sigma_l=2.0, p=1.5
        )
        _, oracle = make_hard_instance("cvx", d, d_star, params, np.ones(d_star))
        peak = _traced_peak(lambda: clip_error_exact(oracle, np.zeros(d), 1.0))
        assert peak < 5 * d * d * 8

    def test_exact_rejects_a_support_over_its_cap_before_enumerating(self):
        # 3^13 states lie between the verifier's cap and the instance's
        # own: enumerating them would take 3^13 * 13 * 8 = 166 MB
        d = 13
        _, oracle = _dv_instance(d, 0.5, 0.5, 1.0, 0.5)

        def reject():
            with pytest.raises(
                ValueError,
                match="support size 1594323 exceeds the enumeration cap 1000000",
            ):
                clip_error_exact(oracle, np.zeros(d), 1.0)

        assert _traced_peak(reject) < 1 << 20

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

    @pytest.mark.parametrize("kind, d", [("additive-stable", 16), ("additive-gaussian", 8)])
    def test_mc_holds_its_buffer_two_n_vectors_and_a_chunk(self, kind, d):
        # pass 1's chunk buffers are freed before pass 2's (n, d) buffer is
        # made, pass 2 draws into that buffer, and the buffer is freed
        # before the margins' standard deviations
        n = 1_000_000
        obj = CompositeObjective(
            f=EuclidNorm(1.0, np.zeros(d)), r=None, domain=AllSpace(d),
            lipschitz_G=1.0,
        )
        stable = {"stable": StableParams(1.8), "p": 1.5} if kind == "additive-stable" else {}
        oracle = make_oracle(obj, kind, scales=np.ones(d), **stable)
        peak = _traced_peak(
            lambda: clip_error_mc(
                oracle, np.full(d, 0.5), 2.0, n_samples=n,
                rng=np.random.default_rng(5),
            )
        )
        assert peak <= n * d * 8 + 2 * n * 8 + (1 << 15) * d * 8

    def test_mc_pass_one_drops_a_chunks_clipped_rows_before_the_next(self, monkeypatch):
        # pass 1 holds its draws' buffers (two states and one exponential
        # scratch), the draw's block scratch, and one chunk's gradient and
        # clipped rows; holding the chunk before's clipped rows as well
        # read 24.9 MiB here, against 21.1
        d, n, chunk = 16, 1_000_000, (1 << 15) * 16 * 8
        monkeypatch.setattr(noise, "_cores", lambda: 2)
        obj = CompositeObjective(
            f=EuclidNorm(1.0, np.zeros(d)), r=None, domain=AllSpace(d),
            lipschitz_G=1.0,
        )
        oracle = make_oracle(obj, "additive-stable", scales=np.ones(d),
                             stable=StableParams(1.8), p=1.5)

        class PassOneDone(Exception):
            pass

        def pass_one(oracle, rng, sizes, outs=None):
            yield from noise._draw_ahead(oracle, rng, sizes)
            raise PassOneDone(tracemalloc.get_traced_memory()[1])

        monkeypatch.setattr(clipping, "_draw_ahead", pass_one)
        with pytest.raises(PassOneDone) as done:
            _traced_peak(lambda: clip_error_mc(
                oracle, np.full(d, 0.5), 2.0, n_samples=n, rng=np.random.default_rng(5),
            ))
        assert done.value.args[0] <= 5 * chunk + noise._stable_scratch(0)
