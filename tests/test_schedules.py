import math

import numpy as np
import pytest

from htclip import (
    ScheduleParams,
    d_eff_of,
    ex_params,
    gamma_t,
    gamma_t_product,
    hp_params,
    make_schedule,
    weighted_avg_weight,
)

import oracles


class TestDeffOf:
    def test_values(self):
        assert d_eff_of(0.0, 0.0) == 0.0
        assert d_eff_of(1.0, 1.0) == pytest.approx(1.0)
        assert d_eff_of(1.0, 2.0) == pytest.approx(4.0)

    def test_rejects_order_violation(self):
        with pytest.raises(ValueError, match="directional moment bound"):
            d_eff_of(2.0, 1.0)


class TestHpParams:
    def test_worked_example(self):
        # p = 2, sigma_s = sigma_l = 1, delta = 3/e^2 gives ln(3/delta) = 2
        got = hp_params(2.0, 1.0, 1.0, 3.0 / math.e**2)
        assert got.tau_star == pytest.approx(math.sqrt(0.5), rel=1e-12)
        assert got.varphi_star == pytest.approx(2.0, rel=1e-12)
        assert got.psi_star == pytest.approx(1.0 + math.log(2.0), rel=1e-12)

    def test_noiseless_disables_clipping(self):
        got = hp_params(1.5, 0.0, 0.0, 0.1)
        assert got.tau_star == math.inf
        assert got.varphi_star == 0.0
        assert got.psi_star is None

    def test_degenerate_directional_rejected(self):
        with pytest.raises(ValueError, match="moment bracket"):
            hp_params(1.5, 0.0, 1.0, 0.1)

    def test_identity_tau_phi(self, rng):
        # tau_star * varphi_star^{1/p} = sigma_l on both min/max branches
        for _ in range(300):
            p = float(rng.uniform(1.0000001, 2.0))
            ss = float(rng.uniform(0.01, 3.0))
            sl = ss * float(rng.uniform(1.0, 10.0))
            delta = float(rng.uniform(1e-6, 1.0))
            got = hp_params(p, ss, sl, delta)
            assert got.tau_star * got.varphi_star ** (1.0 / p) == pytest.approx(
                sl, rel=1e-12
            )


class TestExParams:
    def test_worked_example(self):
        got = ex_params(1.5, 1.0, 2.0)
        assert got.tau_star == pytest.approx(2.0 ** (-1.0 / 3.0), rel=1e-12)
        assert got.tau_star == pytest.approx(0.7937005259840997, rel=1e-12)
        assert got.varphi_star == pytest.approx(4.0)

    def test_p_two_disables_clipping(self):
        got = ex_params(2.0, 1.0, 2.0)
        assert got.tau_star == math.inf
        assert got.varphi_star == 0.0

    @pytest.mark.parametrize("p", [1.5, 2.0])
    def test_degenerate_directional_rejected(self, p):
        # at p = 2 too, where the constants need no d_eff, a schedule
        # with sigma_s = 0 < sigma_l is refused when it is made
        with pytest.raises(ValueError, match="moment bracket"):
            ex_params(p, 0.0, 1.0)
        with pytest.raises(ValueError, match="moment bracket"):
            make_schedule("cvx-ex-T", _params(p=p, sigma_s=0.0, sigma_l=1.0, T_known=8))

    def test_equal_sigmas(self):
        got = ex_params(1.5, 1.5, 1.5)
        assert got.tau_star == pytest.approx(1.5, rel=1e-12)
        assert got.varphi_star == pytest.approx(1.0)
        assert got.psi_star == pytest.approx(1.0)

    def test_identity_tau_phi(self, rng):
        for _ in range(300):
            p = float(rng.uniform(1.0000001, 1.9999999))
            ss = float(rng.uniform(0.01, 3.0))
            sl = ss * float(rng.uniform(1.0, 10.0))
            got = ex_params(p, ss, sl)
            assert got.tau_star * got.varphi_star ** (1.0 / p) == pytest.approx(
                sl, rel=1e-12
            )


def _params(**kw):
    base = dict(p=1.5, sigma_s=1.0, sigma_l=2.0, G=1.0, D=1.0)
    base.update(kw)
    return ScheduleParams(**base)


class TestKnownHorizon:
    def test_noiseless_hp_eta(self):
        # eta_star = (D/G) min{1/ln(3/delta), 1/sqrt(T)}
        params = _params(
            p=2.0, sigma_s=0.0, sigma_l=0.0, G=2.0, D=3.0,
            delta=3.0 / math.e**2, T_known=100,
        )
        sched = make_schedule("cvx-hp-T", params)
        assert sched.eta_star == pytest.approx(1.5 / 10.0, rel=1e-12)
        assert sched.tau(1) == pytest.approx(4.0)
        assert sched.tau(77) == pytest.approx(4.0)

        small_T = make_schedule("cvx-hp-T", _params(
            p=2.0, sigma_s=0.0, sigma_l=0.0, G=2.0, D=3.0,
            delta=3.0 / math.e**2, T_known=2,
        ))
        assert small_T.eta_star == pytest.approx(1.5 / 2.0, rel=1e-12)

    def test_constant_eta_and_tau(self):
        sched = make_schedule("cvx-ex-T", _params(T_known=64))
        assert sched.eta(1) == sched.eta(64) == sched.eta_star
        assert sched.tau(1) == sched.tau(64) == sched.tau_const
        assert sched.averaging == "plain"
        assert sched.algorithm_hint == "clipped"

    def test_ex_p_two_runs_plain_sgd(self):
        params = _params(p=2.0, sigma_s=1.0, sigma_l=2.0, G=1.0, D=1.0, T_known=400)
        sched = make_schedule("cvx-ex-T", params)
        assert sched.tau_star == math.inf
        assert sched.tau(17) == math.inf
        # only the sqrt branch survives: eta = D / sqrt((sigma_l^2 + G^2) T)
        assert sched.eta_star == pytest.approx(
            1.0 / math.sqrt(5.0 * 400.0), rel=1e-12
        )

    def test_varphi_saturates_at_critical_T(self):
        params = _params(T_known=10)
        sched = make_schedule("cvx-ex-T", params)
        crit = sched.critical_T
        assert crit == pytest.approx(
            sched.varphi_star * (params.G / params.sigma_l) ** params.p
            / (1.0 - params.alpha_clip) ** params.p
        )
        big = make_schedule(
            "cvx-ex-T", _params(T_known=int(math.ceil(crit)) + 10)
        )
        assert big.varphi == pytest.approx(big.varphi_star, rel=1e-12)
        small = make_schedule("cvx-ex-T", _params(T_known=1))
        assert small.varphi < small.varphi_star

    def test_tau_floor(self):
        sched = make_schedule("cvx-ex-T", _params(T_known=1, G=100.0))
        assert sched.tau_const == pytest.approx(200.0)


class TestAnytime:
    def test_gamma_star_worked_example(self):
        # varphi_star = max(2 ln(3/delta), d_eff) = 4, psi_star = 1 + ln 4
        params = _params(delta=3.0 / math.e**2)
        sched = make_schedule("cvx-hp-anytime", params)
        want = 1.0 / (4.0 * (1.0 + math.log(4.0)) + 2.0)
        assert sched.gamma_star == pytest.approx(want, rel=1e-12)
        assert sched.gamma_star == pytest.approx(0.086616252093913, rel=1e-12)

    def test_eta_is_three_way_min(self):
        params = _params(delta=0.1)
        sched = make_schedule("cvx-hp-anytime", params)
        for t in (1, 2, 7, 100, 10_000):
            want = min(
                sched.gamma_star,
                sched.eta_star / math.sqrt(t),
                sched.lambda_star / (sched.tau_star * t ** (1.0 / params.p)),
            )
            assert sched.eta(t) == pytest.approx(want, rel=1e-12)

    def test_eta_nonincreasing(self):
        sched = make_schedule("cvx-ex-anytime", _params())
        etas = [sched.eta(t) for t in range(1, 200)]
        assert all(b <= a + 1e-15 for a, b in zip(etas, etas[1:]))

    def test_tau_grows_with_floor(self):
        params = _params(delta=0.05)
        sched = make_schedule("cvx-hp-anytime", params)
        floor = params.G / (1.0 - params.alpha_clip)
        for t in (1, 3, 10, 1000):
            assert sched.tau(t) >= floor
        assert sched.tau(10_000) == pytest.approx(
            sched.tau_star * 10_000 ** (1.0 / params.p)
        )

    def test_algorithm_hint_stabilized(self):
        assert make_schedule("cvx-ex-anytime", _params()).algorithm_hint == "stabilized"

    def test_noiseless_anytime_tau_is_floor(self):
        sched = make_schedule(
            "cvx-hp-anytime", _params(p=2.0, sigma_s=0.0, sigma_l=0.0, delta=0.1)
        )
        assert sched.tau(1) == sched.tau(999) == pytest.approx(2.0)
        assert sched.lambda_star is None


class TestStronglyConvex:
    def test_eta_six_over_mu_t(self):
        sched = make_schedule("str-ex", _params(mu=2.0))
        assert sched.eta(1) == pytest.approx(3.0)
        assert sched.eta(2) == pytest.approx(1.5)
        assert sched.eta(10) == pytest.approx(0.3)

    def test_weighted_averaging(self):
        sched = make_schedule("str-hp", _params(mu=1.0, delta=0.1))
        assert sched.averaging == "weighted"

    def test_tau_invariant_over_regimes(self, rng):
        # every regime keeps tau(t) >= G / (1 - alpha_clip)
        for _ in range(50):
            p = float(rng.uniform(1.1, 2.0))
            ss = float(rng.uniform(0.1, 2.0))
            sl = ss * float(rng.uniform(1.0, 4.0))
            G = float(rng.uniform(0.5, 5.0))
            a = float(rng.uniform(0.1, 0.9))
            for regime in (
                "cvx-hp-T", "cvx-ex-T", "cvx-hp-anytime",
                "cvx-ex-anytime", "str-hp", "str-ex",
            ):
                mu = 1.0 if regime.startswith("str") else 0.0
                sched = make_schedule(regime, ScheduleParams(
                    p=p, sigma_s=ss, sigma_l=sl, G=G, D=1.0, mu=mu,
                    delta=0.1, alpha_clip=a, T_known=32,
                ))
                floor = G / (1.0 - a)
                for t in (1, 5, 32):
                    assert sched.tau(t) >= floor - 1e-12


class TestValidation:
    def test_regime_mu_mismatch(self):
        with pytest.raises(ValueError, match="mu > 0"):
            make_schedule("str-ex", _params())
        with pytest.raises(ValueError, match="regime/mu mismatch"):
            make_schedule("cvx-ex-T", _params(mu=1.0, T_known=8))

    def test_known_T_required(self):
        with pytest.raises(ValueError, match="T_known"):
            make_schedule("cvx-ex-T", _params())

    def test_hp_requires_delta(self):
        with pytest.raises(ValueError, match="delta"):
            make_schedule("cvx-hp-anytime", _params())

    def test_unknown_regime(self):
        with pytest.raises(ValueError, match="regime"):
            make_schedule("cvx-sp-T", _params())

    def test_params_reject_bad_G(self):
        with pytest.raises(ValueError):
            ScheduleParams(p=1.5, sigma_s=0.0, sigma_l=0.0, G=0.0, D=1.0)

    def test_params_reject_bad_alpha(self):
        with pytest.raises(ValueError):
            _params(alpha_clip=1.0)

    def test_constants_json_friendly(self):
        import json

        sched = make_schedule("cvx-ex-T", _params(p=2.0, T_known=4))
        blob = json.loads(json.dumps(sched.constants()))
        assert blob["tau_star"] == "inf"
        assert blob["d_eff"] == pytest.approx(4.0)


class TestGammaWeights:
    def test_closed_form_values(self):
        assert gamma_t(1) == pytest.approx(1.0)
        assert gamma_t(2) == pytest.approx(2.8)
        assert gamma_t(4) == pytest.approx(9.6)

    def test_matches_product(self):
        for mu in (0.1, 1.0, 10.0):
            prod = oracles.gamma_product_ref(200, mu)
            for t in range(1, 201):
                assert gamma_t(t) == pytest.approx(prod[t - 1], rel=1e-11)

    def test_module_product_agrees(self):
        for t in (1, 2, 7, 64, 301):
            assert gamma_t_product(t, 3.0) == pytest.approx(gamma_t(t), rel=1e-11)

    def test_weights(self):
        assert weighted_avg_weight(1) == pytest.approx(30.0)
        assert weighted_avg_weight(2) == pytest.approx(42.0)
        # Gamma_t eta_t = t(t+4)(t+5)/30 * 6/(mu t) proportional to (t+4)(t+5)
        for t in (1, 5, 40):
            assert weighted_avg_weight(t) == pytest.approx(
                gamma_t(t) * (6.0 / t) * 5.0
            )


# Resolved constants at every branch corner of make_schedule: p = 2 and
# p < 2, zero and nonzero noise, and for known-T regimes a horizon below
# and one far past critical_T (where varphi saturates at varphi_star).
# The values are exact: a rewrite of make_schedule must keep each
# expression's order of operations.
_PINNED_KEYS = (
    "tau_star", "varphi_star", "psi_star", "eta_star", "gamma_star",
    "lambda_star", "varphi", "tau_const", "critical_T", "d_eff",
)
_PINNED_LABELS = {
    "cvx-hp-T": ("hp", "plain", "clipped"),
    "cvx-ex-T": ("ex", "plain", "clipped"),
    "cvx-hp-anytime": ("hp", "plain", "stabilized"),
    "cvx-ex-anytime": ("ex", "plain", "stabilized"),
    "str-hp": ("hp", "weighted", "clipped"),
    "str-ex": ("ex", "weighted", "clipped"),
}
_PINNED = [
    (('cvx-hp-T', 2.0, 0.0, 0.0, 2), ('inf', 0.0, None, 0.5698917855772687, None, None, 0.0, 4.0, None, 0.0)),
    (('cvx-hp-T', 2.0, 0.0, 0.0, 1000000), ('inf', 0.0, None, 0.0023333333333333335, None, None, 0.0, 4.0, None, 0.0)),
    (('cvx-hp-T', 2.0, 1.0, 3.0, 2), (0.8559894917742372, 12.2830336866663, 3.5082189350970623, 0.2986988916224388, None, None, 3.7173125907703253, 4.0, 21.836504331851202, 9.0)),
    (('cvx-hp-T', 2.0, 1.0, 3.0, 1000000), (0.8559894917742372, 12.2830336866663, 3.5082189350970623, 0.0010761423073740331, None, None, 12.2830336866663, 855.9894917742372, 21.836504331851202, 9.0)),
    (('cvx-hp-T', 1.5, 0.0, 0.0, 2), ('inf', 0.0, None, 0.5698917855772687, None, None, 0.0, 4.0, None, 0.0)),
    (('cvx-hp-T', 1.5, 0.0, 0.0, 1000000), ('inf', 0.0, None, 0.0023333333333333335, None, None, 0.0, 4.0, None, 0.0)),
    (('cvx-hp-T', 1.5, 1.0, 3.0, 2), (0.5635305861669615, 12.2830336866663, 3.5082189350970623, 0.28846267925584557, None, None, 3.994512337230862, 4.0, 18.910967481232078, 9.0)),
    (('cvx-hp-T', 1.5, 1.0, 3.0, 1000000), (0.5635305861669615, 12.2830336866663, 3.5082189350970623, 0.00015954880639922097, None, None, 12.2830336866663, 5635.305861669612, 18.910967481232078, 9.0)),
    (('cvx-ex-T', 2.0, 0.0, 0.0, 2), ('inf', 0.0, None, 1.6499158227686108, None, None, 0.0, 4.0, None, 0.0)),
    (('cvx-ex-T', 2.0, 0.0, 0.0, 1000000), ('inf', 0.0, None, 0.0023333333333333335, None, None, 0.0, 4.0, None, 0.0)),
    (('cvx-ex-T', 2.0, 1.0, 3.0, 2), ('inf', 0.0, None, 1.1666666666666667, None, None, 0.0, 'inf', None, 9.0)),
    (('cvx-ex-T', 2.0, 1.0, 3.0, 1000000), ('inf', 0.0, None, 0.001649915822768611, None, None, 0.0, 'inf', None, 9.0)),
    (('cvx-ex-T', 1.5, 0.0, 0.0, 2), ('inf', 0.0, None, 1.6499158227686108, None, None, 0.0, 4.0, None, 0.0)),
    (('cvx-ex-T', 1.5, 0.0, 0.0, 1000000), ('inf', 0.0, None, 0.0023333333333333335, None, None, 0.0, 4.0, None, 0.0)),
    (('cvx-ex-T', 1.5, 1.0, 3.0, 2), (0.6933612743506348, 9.0, 3.1972245773362196, 0.682408747456848, None, None, 3.4192605854321667, 4.0, 13.856406460551018, 9.0)),
    (('cvx-ex-T', 1.5, 1.0, 3.0, 1000000), (0.6933612743506348, 9.0, 3.1972245773362196, 0.0003365248997383955, None, None, 9.0, 6933.612743506344, 13.856406460551018, 9.0)),
    (('cvx-hp-anytime', 2.0, 0.0, 0.0, None), ('inf', 0.0, None, 2.3333333333333335, 0.5698917855772687, None, None, None, None, 0.0)),
    (('cvx-hp-anytime', 2.0, 1.0, 3.0, None), (0.8559894917742372, 12.2830336866663, 3.5082189350970623, 1.6499158227686108, 0.04944978364263487, 1.0342278830884009, None, None, None, 9.0)),
    (('cvx-hp-anytime', 1.5, 0.0, 0.0, None), ('inf', 0.0, None, 2.3333333333333335, 0.5698917855772687, None, None, None, None, 0.0)),
    (('cvx-hp-anytime', 1.5, 1.0, 3.0, None), (0.5635305861669615, 12.2830336866663, 3.5082189350970623, 1.6499158227686108, 0.04944978364263487, 1.0342278830884004, None, None, None, 9.0)),
    (('cvx-ex-anytime', 2.0, 0.0, 0.0, None), ('inf', 0.0, None, 2.3333333333333335, 'inf', None, None, None, None, 0.0)),
    (('cvx-ex-anytime', 2.0, 1.0, 3.0, None), ('inf', 0.0, None, 1.6499158227686108, 'inf', None, None, None, None, 9.0)),
    (('cvx-ex-anytime', 1.5, 0.0, 0.0, None), ('inf', 0.0, None, 2.3333333333333335, 'inf', None, None, None, None, 0.0)),
    (('cvx-ex-anytime', 1.5, 1.0, 3.0, None), (0.6933612743506348, 9.0, 3.1972245773362196, 1.6499158227686108, 0.08108884846470878, 1.649915822768611, None, None, None, 9.0)),
    (('str-hp', 2.0, 0.0, 0.0, None), ('inf', 0.0, None, None, None, None, None, None, None, 0.0)),
    (('str-hp', 2.0, 1.0, 3.0, None), (0.8559894917742372, 12.2830336866663, 3.5082189350970623, None, None, None, None, None, None, 9.0)),
    (('str-hp', 1.5, 0.0, 0.0, None), ('inf', 0.0, None, None, None, None, None, None, None, 0.0)),
    (('str-hp', 1.5, 1.0, 3.0, None), (0.5635305861669615, 12.2830336866663, 3.5082189350970623, None, None, None, None, None, None, 9.0)),
    (('str-ex', 2.0, 0.0, 0.0, None), ('inf', 0.0, None, None, None, None, None, None, None, 0.0)),
    (('str-ex', 2.0, 1.0, 3.0, None), ('inf', 0.0, None, None, None, None, None, None, None, 9.0)),
    (('str-ex', 1.5, 0.0, 0.0, None), ('inf', 0.0, None, None, None, None, None, None, None, 0.0)),
    (('str-ex', 1.5, 1.0, 3.0, None), (0.6933612743506348, 9.0, 3.1972245773362196, None, None, None, None, None, None, 9.0)),
]


@pytest.mark.parametrize("case, values", _PINNED)
def test_constants_are_pinned_at_every_branch_corner(case, values):
    regime, p, sigma_s, sigma_l, T = case
    params = ScheduleParams(
        p=p, sigma_s=sigma_s, sigma_l=sigma_l, G=3.0, D=7.0, alpha_clip=0.25,
        mu=0.5 if regime.startswith("str") else 0.0,
        delta=0.05 if "-hp" in regime else None, T_known=T,
    )
    family, averaging, hint = _PINNED_LABELS[regime]
    want = dict(zip(_PINNED_KEYS, values), regime=regime, family=family,
                averaging=averaging, algorithm_hint=hint)
    assert make_schedule(regime, params).constants() == want


@pytest.mark.parametrize("case", [case for case, _ in _PINNED])
def test_table_has_the_values_of_the_scalar_calls(case):
    regime, p, sigma_s, sigma_l, T = case
    params = ScheduleParams(
        p=p, sigma_s=sigma_s, sigma_l=sigma_l, G=3.0, D=7.0, alpha_clip=0.25,
        mu=0.5 if regime.startswith("str") else 0.0,
        delta=0.05 if "-hp" in regime else None, T_known=T,
    )
    s = make_schedule(regime, params)
    for t0, t1 in ((1, 1), (1, 2), (1, 1100), (3, 2), (1023, 2049), (10**6, 10**6 + 3)):
        etas, taus = s.table(t0, t1)
        ts = range(t0, t1)
        # equal as values and as types: the kernel's steps take them as they are
        assert [(type(e), e) for e in etas] == [(type(s.eta(t)), s.eta(t)) for t in ts]
        assert [(type(v), v) for v in taus] == [(type(s.tau(t)), s.tau(t)) for t in ts]
    with pytest.raises(ValueError, match="t must be >= 1"):
        s.table(0, 5)
