import math

import numpy as np
import pytest

from htclip import (
    AbsSum,
    AllSpace,
    CompositeObjective,
    NoiseSpec,
    StableParams,
    d_eff_lower_bound,
    directional_bound_independent,
    estimate_moments,
    make_oracle,
    sample_alpha_stable,
    stable_abs_moment,
    stable_eps_star,
)

from test_problems import _dv_instance


def _flat_objective(d):
    return CompositeObjective(
        f=AbsSum(np.zeros(d), np.zeros(d)),
        r=None,
        domain=AllSpace(d),
        lipschitz_G=0.0,
    )


class TestNoiseSpec:
    @pytest.mark.parametrize(
        "spec, want",
        [
            ((2.0, 0.0, 0.0), 0.0),
            ((2.0, 1.0, 1.0), 1.0),
            ((1.5, 1.0, 2.0), 4.0),
        ],
    )
    def test_d_eff(self, spec, want):
        assert NoiseSpec(*spec).d_eff == pytest.approx(want)

    def test_rejects_p_out_of_range(self):
        with pytest.raises(ValueError):
            NoiseSpec(1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            NoiseSpec(2.5, 1.0, 1.0)

    def test_rejects_sigma_order(self):
        with pytest.raises(ValueError, match="directional moment bound"):
            NoiseSpec(2.0, 2.0, 1.0)

    def test_bracket_upper_edge(self):
        NoiseSpec(2.0, 1.0, 2.0).check_bracket(4)
        with pytest.raises(ValueError):
            NoiseSpec(2.0, 1.0, 3.0).check_bracket(4)
        with pytest.raises(ValueError):
            NoiseSpec(2.0, 0.0, 1.0).check_bracket(4)
        NoiseSpec(2.0, 0.0, 0.0).check_bracket(4)


class TestStableSampler:
    def test_zero_scale_is_zero(self):
        rng = np.random.default_rng(3)
        x = sample_alpha_stable(StableParams(1.5, 0.0, 0.0), rng, 100)
        assert np.all(x == 0.0)

    def test_alpha_two_is_gaussian(self):
        rng = np.random.default_rng(0)
        x = sample_alpha_stable(StableParams(2.0, 0.0, 1.0), rng, 1_000_000)
        # N(0, 2 gamma^2): sample variance of 1e6 draws lands within 0.02
        assert np.mean(x * x) == pytest.approx(2.0, abs=0.02)
        assert np.mean(x) == pytest.approx(0.0, abs=0.01)

    def test_stream_alignment_across_parameters(self):
        # every variate consumes one uniform and one exponential, so the
        # generator state after n draws is branch-independent
        tails = []
        for params in (
            StableParams(2.0),
            StableParams(1.5),
            StableParams(1.3, beta=0.5),
            StableParams(1.0, beta=-0.7),
        ):
            rng = np.random.default_rng(7)
            x = sample_alpha_stable(params, rng, 100)
            assert np.all(np.isfinite(x))
            tails.append(rng.random(5))
        for t in tails[1:]:
            assert np.array_equal(t, tails[0])

    def test_heavy_tail_index(self):
        # alpha = 1.2 draws exceed the alpha = 2 spread by orders of magnitude
        rng = np.random.default_rng(11)
        x = sample_alpha_stable(StableParams(1.2, 0.0, 1.0), rng, 200_000)
        assert np.max(np.abs(x)) > 1e3


class TestStableAbsMoment:
    def test_gaussian_corner(self):
        assert stable_abs_moment(2.0, 2.0, 1.0) == pytest.approx(2.0)
        assert stable_abs_moment(2.0, 2.0, 3.0) == pytest.approx(18.0)

    def test_gaussian_fractional_matches_normal_moment(self):
        # alpha = 2, scale gamma gives N(0, 2 gamma^2), so E|X|^p has the
        # textbook half-normal form
        p = 1.5
        want = 2.0**p * math.gamma((1.0 + p) / 2.0) / math.sqrt(math.pi)
        assert stable_abs_moment(p, 2.0, 1.0) == pytest.approx(want, rel=1e-12)

    def test_monte_carlo_cross_check(self):
        rng = np.random.default_rng(5)
        x = sample_alpha_stable(StableParams(1.5, 0.0, 1.0), rng, 1_000_000)
        emp = float(np.mean(np.abs(x) ** 0.7))
        assert emp == pytest.approx(stable_abs_moment(0.7, 1.5, 1.0), rel=0.02)

    def test_scale_power(self):
        m1 = stable_abs_moment(1.2, 1.5, 1.0)
        assert stable_abs_moment(1.2, 1.5, 2.0) == pytest.approx(2.0**1.2 * m1)

    def test_rejects_order_at_or_above_alpha(self):
        with pytest.raises(ValueError):
            stable_abs_moment(1.5, 1.5)
        with pytest.raises(ValueError):
            stable_abs_moment(1.9, 1.5)


class TestDirectionalBound:
    def test_p_two_is_max(self):
        assert directional_bound_independent(np.array([1.0, 4.0, 2.0]), 2.0) == 4.0

    def test_single_coordinate(self):
        # one coordinate: bound is 2^{2-p} m, a valid relaxation of m
        got = directional_bound_independent(np.array([3.0]), 1.5)
        assert got == pytest.approx(2.0**0.5 * 3.0)

    def test_dominates_each_coordinate(self, rng):
        m = rng.uniform(0.1, 2.0, size=8)
        for p in (1.2, 1.5, 1.9, 2.0):
            assert directional_bound_independent(m, p) >= np.max(m) - 1e-12


class TestMakeOracle:
    def test_gaussian_declared_bounds(self):
        obj = _flat_objective(4)
        oracle = make_oracle(obj, "additive-gaussian", scales=np.full(4, 1.0))
        assert oracle.noise.p == 2.0
        assert oracle.noise.sigma_s == pytest.approx(1.0)
        assert oracle.noise.sigma_l == pytest.approx(2.0)
        assert oracle.noise.d_eff == pytest.approx(4.0)

    def test_gaussian_unequal_scales(self):
        obj = _flat_objective(2)
        oracle = make_oracle(obj, "additive-gaussian", scales=np.array([3.0, 4.0]))
        assert oracle.noise.sigma_s == pytest.approx(4.0)
        assert oracle.noise.sigma_l == pytest.approx(5.0)

    def test_gaussian_sigma_l_whose_square_overflows(self):
        # sum s^2 = 2e400 overflows, sigma_l = sqrt(2) 1e200 does not
        obj = _flat_objective(2)
        oracle = make_oracle(obj, "additive-gaussian", scales=np.full(2, 1e200))
        assert oracle.noise.sigma_l == pytest.approx(math.sqrt(2.0) * 1e200, rel=1e-15)
        assert oracle.noise.sigma_s == 1e200

    def test_gaussian_sigma_l_whose_square_underflows(self):
        # sum s^2 = 2e-600 underflows to 0, sigma_l = sqrt(2) 1e-300 does not
        obj = _flat_objective(2)
        oracle = make_oracle(obj, "additive-gaussian", scales=np.full(2, 1e-300))
        assert oracle.noise.sigma_l == pytest.approx(math.sqrt(2.0) * 1e-300, rel=1e-15)
        assert oracle.noise.sigma_s == 1e-300

    def test_gaussian_sigma_l_keeps_the_plain_sum(self, rng):
        s = rng.uniform(0.1, 3.0, 7)
        oracle = make_oracle(_flat_objective(7), "additive-gaussian", scales=s)
        assert oracle.noise.sigma_l == math.sqrt(float(np.add.reduce(s * s)))

    def test_stable_declared_bounds(self):
        obj = _flat_objective(4)
        oracle = make_oracle(
            obj,
            "additive-stable",
            scales=np.full(4, 1.0),
            stable=StableParams(1.8),
            p=1.5,
        )
        m = stable_abs_moment(1.5, 1.8, 1.0)
        want_l = (4.0 * m) ** (1.0 / 1.5)
        want_s = min(
            directional_bound_independent(np.full(4, m), 1.5), 4.0 * m
        ) ** (1.0 / 1.5)
        assert oracle.noise.sigma_l == pytest.approx(want_l, rel=1e-12)
        assert oracle.noise.sigma_s == pytest.approx(want_s, rel=1e-12)
        assert oracle.noise.sigma_s <= oracle.noise.sigma_l

    def test_stable_requires_order_below_alpha(self):
        obj = _flat_objective(2)
        with pytest.raises(ValueError):
            make_oracle(
                obj,
                "additive-stable",
                scales=np.ones(2),
                stable=StableParams(1.5),
                p=1.5,
            )

    def test_deterministic_rejects_declared_noise(self):
        obj = _flat_objective(2)
        with pytest.raises(ValueError):
            make_oracle(obj, "deterministic", declared_noise=NoiseSpec(2.0, 1.0, 1.0))

    def test_grad_adds_noise_to_subgradient(self, rng):
        obj = CompositeObjective(
            f=AbsSum(np.array([2.0]), np.array([0.0])),
            r=None,
            domain=AllSpace(1),
            lipschitz_G=2.0,
        )
        oracle = make_oracle(obj, "additive-gaussian", scales=np.array([0.5]))
        states = oracle.draw(rng, 100)
        rows = oracle.grad_rows(np.full((100, 1), 3.0), states)
        assert rows == pytest.approx(2.0 + states)

    def test_mean_grad_is_subgradient(self):
        obj = CompositeObjective(
            f=AbsSum(np.array([2.0]), np.array([0.0])),
            r=None,
            domain=AllSpace(1),
            lipschitz_G=2.0,
        )
        oracle = make_oracle(obj, "additive-gaussian", scales=np.array([0.5]))
        assert oracle.mean_grad(np.array([-1.0])) == pytest.approx(np.array([-2.0]))


class TestEstimateMoments:
    def test_deterministic_is_zero(self):
        obj = _flat_objective(2)
        oracle = make_oracle(obj, "deterministic")
        sig_s_p, sig_l_p = estimate_moments(oracle, np.zeros(2), 2.0, n_samples=64)
        assert sig_s_p == 0.0
        assert sig_l_p == 0.0

    def test_gaussian_second_moment(self):
        obj = _flat_objective(1)
        oracle = make_oracle(obj, "additive-gaussian", scales=np.array([1.0]))
        sig_s_p, sig_l_p = estimate_moments(
            oracle,
            np.zeros(1),
            2.0,
            n_samples=1_000_000,
            rng=np.random.default_rng(0),
        )
        assert sig_l_p == pytest.approx(1.0, abs=0.01)
        assert sig_s_p == pytest.approx(1.0, abs=0.01)

    def test_exact_matches_enumeration(self):
        import oracles

        obj, oracle = _dv_instance(2, q=0.4, theta=0.2, M=1.5, y=1.0)
        x = np.array([0.3, -0.7])
        sig_s_p, sig_l_p = estimate_moments(
            oracle, x, 1.5, exact=True, n_directions=0
        )
        inst = oracle.instance
        states, probs = oracles.dv_enum(inst.q, inst.theta, inst.v)
        rows = oracles.cvx_grad_rows(x, states, inst.M, inst.y)
        noise = rows - oracle.mean_grad(x)
        want_l = float(probs @ np.linalg.norm(noise, axis=1) ** 1.5)
        want_s = float(np.max(probs @ np.abs(noise) ** 1.5))
        assert sig_l_p == pytest.approx(want_l, rel=1e-12)
        assert sig_s_p == pytest.approx(want_s, rel=1e-12)

    def test_exact_requires_finite_support(self):
        obj = _flat_objective(1)
        oracle = make_oracle(obj, "additive-gaussian", scales=np.array([1.0]))
        with pytest.raises(ValueError):
            estimate_moments(oracle, np.zeros(1), 2.0, exact=True)


class TestEffectiveDimensionLowerBounds:
    def test_iid_p_two_is_d(self):
        for d in (1, 4, 16, 100):
            assert d_eff_lower_bound("iid", d=d, p=2.0) == pytest.approx(float(d))

    def test_iid_example(self):
        assert d_eff_lower_bound("iid", d=16, p=1.5) == pytest.approx(4.0)

    def test_independent_equal_scales_reduces_to_iid(self):
        for d in (2, 5, 16):
            for p in (1.2, 1.5, 1.9, 2.0):
                got = d_eff_lower_bound(
                    "independent", sigmas=np.full(d, 0.7), p=p
                )
                assert got == pytest.approx(
                    d_eff_lower_bound("iid", d=d, p=p), rel=1e-12
                )

    def test_independent_p_two(self):
        got = d_eff_lower_bound("independent", sigmas=np.array([3.0, 4.0]), p=2.0)
        assert got == pytest.approx(25.0 / 16.0)

    def test_stable_eps_star_value(self):
        d, p = 16, 1.5
        assert stable_eps_star(d, p) == pytest.approx(
            min(p / (2.0 * math.log(d) - 1.0), 2.0 - p)
        )

    def test_stable_variant_positive_and_linear_in_d(self):
        lo = d_eff_lower_bound("stable", d=64, p=1.5)
        hi = d_eff_lower_bound("stable", d=256, p=1.5)
        assert lo > 0.0
        assert hi > lo

    def test_stable_rejects_bad_eps(self):
        with pytest.raises(ValueError):
            d_eff_lower_bound("stable", d=16, p=1.5, eps=1.0)

    def test_unknown_variant(self):
        with pytest.raises(ValueError):
            d_eff_lower_bound("nope", d=4, p=1.5)
