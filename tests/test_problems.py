import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import optimize

from htclip import (
    AbsSum,
    AllSpace,
    Ball,
    CompositeObjective,
    EuclidNorm,
    HardParams,
    Linear,
    Optimum,
    QuadReg,
    hard_params,
    make_hard_instance,
    prox_step,
    reduce_strongly_convex,
    stabilized_prox_step,
)
from htclip.problems import eval_F, eval_F_batch, eval_f, project, subgrad_f

import oracles


def _simple_objective(f, r=None, mu=0.0, domain=None, G=1.0):
    d = f.d
    return CompositeObjective(
        f=f,
        r=r,
        domain=domain if domain is not None else AllSpace(d),
        lipschitz_G=G,
        mu=mu,
    )


class TestEvaluation:
    def test_abs_sum_at_minimizer(self):
        obj = _simple_objective(AbsSum(np.array([1.0]), np.array([0.0])))
        assert eval_F(obj, np.array([0.0])) == 0.0

    def test_pure_quadratic(self):
        obj = _simple_objective(
            AbsSum(np.array([0.0]), np.array([0.0])),
            r=QuadReg(2.0, np.array([0.0])),
            mu=2.0,
        )
        assert eval_F(obj, np.array([3.0])) == pytest.approx(9.0, abs=1e-15)

    def test_hard_cvx_mean_value(self):
        # 0.5*(0.55*0 + 0.45*2) at x=1 with q=.5, theta=.1, v=+1, y=1
        obj, oracle = _dv_instance(1, q=0.5, theta=0.1, M=1.0, y=1.0)
        assert eval_f(obj, np.array([1.0])) == pytest.approx(0.45, abs=1e-15)
        states, probs = oracle.support()
        brute = oracles.cvx_value(
            np.array([1.0]), states, probs, np.array([1.0]), np.array([1.0])
        )
        assert eval_f(obj, np.array([1.0])) == pytest.approx(brute, abs=1e-14)

    def test_eval_batch_matches_scalar(self, rng):
        obj = _simple_objective(
            AbsSum(np.array([1.0, 2.0]), np.array([0.5, -0.5])),
            r=QuadReg(0.7, np.zeros(2)),
            mu=0.7,
        )
        X = rng.normal(size=(40, 2))
        batch = eval_F_batch(obj, X)
        for i in range(40):
            assert batch[i] == pytest.approx(eval_F(obj, X[i]), rel=1e-14)


class TestSubgradients:
    def test_abs_sum_sign_zero(self):
        obj = _simple_objective(AbsSum(np.array([1.0]), np.array([0.0])))
        assert subgrad_f(obj, np.array([0.0])) == pytest.approx(np.array([0.0]))

    def test_abs_sum_negative_side(self):
        obj = _simple_objective(AbsSum(np.array([2.0]), np.array([0.0])))
        assert subgrad_f(obj, np.array([-3.0])) == pytest.approx(np.array([-2.0]))

    def test_euclid_norm_direction(self):
        obj = _simple_objective(EuclidNorm(1.0, np.zeros(2)))
        got = subgrad_f(obj, np.array([3.0, 4.0]))
        assert got == pytest.approx(np.array([0.6, 0.8]), abs=1e-15)

    def test_euclid_norm_at_center(self):
        obj = _simple_objective(EuclidNorm(1.0, np.zeros(2)))
        assert subgrad_f(obj, np.zeros(2)) == pytest.approx(np.zeros(2))


class TestProjection:
    def test_all_space_identity(self):
        assert project(AllSpace(2), np.array([5.0, 5.0])) == pytest.approx(
            np.array([5.0, 5.0])
        )

    def test_ball_radial(self):
        got = project(Ball(np.zeros(2), 1.0), np.array([3.0, 4.0]))
        assert got == pytest.approx(np.array([0.6, 0.8]), abs=1e-15)

    def test_ball_offcenter_clamp(self):
        got = project(Ball(np.array([1.0, 0.0]), 2.0), np.array([4.0, 0.0]))
        assert got == pytest.approx(np.array([3.0, 0.0]), abs=1e-15)

    def test_interior_point_unchanged(self):
        x = np.array([0.2, -0.1])
        assert project(Ball(np.zeros(2), 1.0), x) == pytest.approx(x)

    def test_overflowing_norm_lands_on_sphere(self):
        # ||x||^2 = 2e400 overflows; the projection must not collapse to 0,
        # and the overflow it mends raises no warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = project(Ball(np.zeros(2), 1.0), np.array([1e200, 1e200]))
        assert np.linalg.norm(got) == pytest.approx(1.0, rel=1e-15)

    def test_batch_rows(self, rng):
        dom = Ball(np.array([1.0, -1.0]), 0.5)
        X = rng.normal(size=(30, 2), scale=3.0)
        got = project(dom, X)
        for i in range(30):
            assert got[i] == pytest.approx(project(dom, X[i]), abs=1e-15)
            assert np.linalg.norm(got[i] - dom.center) <= dom.radius + 1e-12

    def test_inside_rows_of_a_batch_keep_their_bits(self, rng):
        # with a nonzero center, center + (x - center) moves the last bits
        # of some inside points; each row is projected on its own, so an
        # inside row is unchanged even when its batch holds one outside
        dom = Ball(np.array([0.1, 0.3, -0.7]), 0.5)
        box = rng.uniform(-1.3, 1.3, size=(20000, 3))
        inside = box[np.linalg.norm(box - dom.center, axis=1) < 0.49]
        outside = box[np.linalg.norm(box - dom.center, axis=1) > 0.51]
        moved = 0
        for a, b in zip(inside, outside):
            moved += not np.array_equal(dom.center + (a - dom.center), a)
            assert project(dom, a).tobytes() == a.tobytes()
            for pair, i in ((np.stack([a, b]), 0), (np.stack([b, a]), 1)):
                got = project(dom, pair)
                assert got[i].tobytes() == a.tobytes()
                assert got[1 - i].tobytes() == project(dom, b).tobytes()
        assert moved > 20

class TestProxStep:
    def test_plain_gradient_step(self):
        got = prox_step(None, AllSpace(2), np.array([2.0, 0.0]), np.array([1.0, 0.0]), 1.0)
        assert got == pytest.approx(np.array([1.0, 0.0]), abs=1e-15)

    def test_quadratic_regularizer(self):
        r = QuadReg(1.0, np.zeros(2))
        got = prox_step(r, AllSpace(2), np.array([2.0, 0.0]), np.zeros(2), 1.0)
        assert got == pytest.approx(np.array([1.0, 0.0]), abs=1e-12)

        def objective(X):
            return 0.5 * np.sum(X * X, axis=1) + np.sum(
                (X - np.array([2.0, 0.0])) ** 2, axis=1
            ) / 2.0

        ref = oracles.grid_minimize(objective, np.zeros(2), 4.0)
        assert got == pytest.approx(ref, abs=1e-7)

    def test_ball_projection_step(self):
        got = prox_step(None, Ball(np.zeros(2), 1.0), np.array([2.0, 0.0]), np.zeros(2), 1.0)
        assert got == pytest.approx(np.array([1.0, 0.0]), abs=1e-15)

    def test_rejects_nonpositive_eta(self):
        with pytest.raises(ValueError):
            prox_step(None, AllSpace(1), np.array([0.0]), np.array([0.0]), 0.0)


class TestStabilizedProxStep:
    def test_equal_etas_match_prox_step_bitwise(self, rng):
        r = QuadReg(0.3, np.zeros(3))
        x_t = rng.normal(size=3)
        x_1 = rng.normal(size=3)
        g = rng.normal(size=3)
        a = stabilized_prox_step(r, AllSpace(3), x_t, x_1, g, 0.7, 0.7)
        b = prox_step(r, AllSpace(3), x_t, g, 0.7)
        assert np.array_equal(a, b)

    def test_halved_eta_no_gradient(self):
        got = stabilized_prox_step(
            None, AllSpace(1), np.array([1.0]), np.array([0.0]), np.array([0.0]), 1.0, 0.5
        )
        assert got == pytest.approx(np.array([0.5]), abs=1e-14)

    def test_halved_eta_unit_gradient(self):
        got = stabilized_prox_step(
            None, AllSpace(1), np.array([1.0]), np.array([0.0]), np.array([1.0]), 1.0, 0.5
        )
        assert got == pytest.approx(np.array([0.0]), abs=1e-14)

    def test_anchored_at_current_point(self):
        # minimize x + (x-1)^2/2 + (x-1)^2/2; the anchor at x_t keeps the
        # effective step at eta_next
        got = stabilized_prox_step(
            None, AllSpace(1), np.array([1.0]), np.array([1.0]), np.array([1.0]), 1.0, 0.5
        )

        def objective(X):
            x = X[:, 0]
            return x + (x - 1.0) ** 2 / 2.0 + (x - 1.0) ** 2 / 2.0

        ref = oracles.grid_minimize(objective, np.zeros(1), 4.0)
        assert got == pytest.approx(ref, abs=1e-7)
        assert got == pytest.approx(np.array([0.5]), abs=1e-14)

    def test_rejects_growing_eta(self):
        with pytest.raises(ValueError):
            stabilized_prox_step(
                None, AllSpace(1), np.array([0.0]), np.array([0.0]), np.array([0.0]),
                0.5, 1.0,
            )


# ---------------------------------------------------------------------------
# the prox steps against numeric minimization


@st.composite
def _prox_cases(draw):
    """A prox problem: a ball or all of R^d, an optional quadratic
    regularizer, points, a gradient and the steps eta_t >= eta_next."""
    d = draw(st.integers(1, 4))

    def vector(bound):
        return np.array(
            draw(st.lists(st.floats(-bound, bound), min_size=d, max_size=d))
        )

    if draw(st.booleans()):
        domain = Ball(vector(3.0), draw(st.floats(0.1, 5.0)))
    else:
        domain = AllSpace(d)
    r = None
    if draw(st.booleans()):
        r = QuadReg(draw(st.floats(0.05, 20.0)), vector(5.0))
    eta_t = draw(st.floats(0.05, 20.0))
    eta_next = eta_t * draw(st.floats(0.05, 1.0))
    return domain, r, vector(5.0), vector(5.0), vector(5.0), eta_t, eta_next


def _numeric_prox(domain, r, x_t, x_1, g, eta_t, eta_next):
    """Minimize the stabilized prox objective with SLSQP; returns the
    objective and the minimizer found, projected onto the domain."""
    s = (eta_t / eta_next - 1.0) / eta_t

    def F(x):
        val = g @ x + (x - x_t) @ (x - x_t) / (2.0 * eta_t)
        val += 0.5 * s * (x - x_1) @ (x - x_1)
        if r is not None:
            val += 0.5 * r.mu * (x - r.center) @ (x - r.center)
        return val

    def dF(x):
        grad = g + (x - x_t) / eta_t + s * (x - x_1)
        if r is not None:
            grad = grad + r.mu * (x - r.center)
        return grad

    constraints = []
    x0 = np.zeros_like(x_t)
    if isinstance(domain, Ball):
        c, R = domain.center, domain.radius
        x0 = c.copy()
        constraints = [{
            "type": "ineq",
            "fun": lambda x: R * R - (x - c) @ (x - c),
            "jac": lambda x: -2.0 * (x - c),
        }]
    res = optimize.minimize(
        F, x0, jac=dF, method="SLSQP", constraints=constraints,
        options={"ftol": 1e-15, "maxiter": 1000},
    )
    # SLSQP may end a hair outside the ball, below the constrained minimum
    return F, project(domain, res.x)


def _assert_minimizes(F, got, ref, domain, eta_t, eta_next, r):
    if isinstance(domain, Ball):
        assert np.linalg.norm(got - domain.center) <= domain.radius * (1.0 + 1e-12)
    scale = 1.0 + abs(F(ref))
    assert F(got) <= F(ref) + 1e-9 * scale
    # the objective is kappa-strongly convex, so F(ref) - F(got) bounds
    # kappa / 2 ||ref - got||^2 for the true minimizer got
    kappa = 1.0 / eta_next + (r.mu if r is not None else 0.0)
    gap = max(F(ref) - F(got), 0.0) + 1e-9 * scale
    assert np.linalg.norm(got - ref) <= math.sqrt(2.0 * gap / kappa) + 1e-6


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_prox_cases())
def test_prox_step_minimizes_its_objective(case):
    domain, r, x_t, _, g, eta, _ = case
    F, ref = _numeric_prox(domain, r, x_t, x_t, g, eta, eta)
    got = prox_step(r, domain, x_t, g, eta)
    _assert_minimizes(F, got, ref, domain, eta, eta, r)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_prox_cases())
def test_stabilized_prox_step_minimizes_its_objective(case):
    domain, r, x_t, x_1, g, eta_t, eta_next = case
    F, ref = _numeric_prox(domain, r, x_t, x_1, g, eta_t, eta_next)
    got = stabilized_prox_step(r, domain, x_t, x_1, g, eta_t, eta_next)
    _assert_minimizes(F, got, ref, domain, eta_t, eta_next, r)


class TestReduceStronglyConvex:
    def test_quadratic_splits_exactly(self):
        mu = 2.0
        base = EuclidNorm(0.0, np.zeros(2))
        obj = reduce_strongly_convex(base, mu, np.zeros(2), AllSpace(2), 1.0)
        assert obj.mu == mu
        assert obj.r is not None and obj.r.mu == mu
        x = np.array([1.5, -0.5])
        assert eval_F(obj, x) == pytest.approx(mu / 2.0 * float(x @ x), rel=1e-14)

    def test_pointwise_identity_random(self, rng):
        base = AbsSum(np.array([1.0, 0.5, 2.0]), np.array([0.2, -0.3, 0.0]))
        mu = 0.8
        y_ref = np.array([0.1, 0.0, -0.2])
        obj = reduce_strongly_convex(base, mu, y_ref, AllSpace(3), 3.5)
        for _ in range(1000):
            x = rng.normal(size=3)
            direct = float(np.sum(np.abs(x - base.y) * base.M)) + mu / 2.0 * float(
                np.sum((x - y_ref) ** 2)
            )
            assert eval_F(obj, x) == pytest.approx(direct, rel=1e-12, abs=1e-12)

    def test_hard_str_values_preserved(self, rng):
        params = hard_params(
            "str-fano", d_star=3, T=50, G=1.0, D=1.0, sigma_l=2.0, p=1.5, mu=2.0
        )
        obj, _ = make_hard_instance("str", 3, 3, params, np.ones(3))
        reduced = reduce_strongly_convex(
            obj.f, obj.mu, obj.r.center, obj.domain, obj.lipschitz_G / 5.0
        )
        for _ in range(200):
            x = rng.normal(size=3)
            assert eval_F(reduced, x) == pytest.approx(
                eval_F(obj, x), rel=1e-12, abs=1e-12
            )

    def test_inflates_lipschitz_by_five(self):
        obj = reduce_strongly_convex(
            EuclidNorm(2.0, np.zeros(2)), 1.0, np.zeros(2), AllSpace(2), 2.0
        )
        assert obj.lipschitz_G == pytest.approx(10.0)


class TestCompositeValidation:
    def test_mu_requires_regularizer(self):
        with pytest.raises(ValueError):
            CompositeObjective(
                f=EuclidNorm(1.0, np.zeros(2)),
                r=None,
                domain=AllSpace(2),
                lipschitz_G=1.0,
                mu=1.0,
            )

    def test_regularizer_requires_mu(self):
        with pytest.raises(ValueError):
            CompositeObjective(
                f=EuclidNorm(1.0, np.zeros(2)),
                r=QuadReg(1.0, np.zeros(2)),
                domain=AllSpace(2),
                lipschitz_G=1.0,
                mu=0.0,
            )

    def test_mismatched_moduli(self):
        with pytest.raises(ValueError):
            CompositeObjective(
                f=EuclidNorm(1.0, np.zeros(2)),
                r=QuadReg(2.0, np.zeros(2)),
                domain=AllSpace(2),
                lipschitz_G=1.0,
                mu=1.0,
            )

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            CompositeObjective(
                f=EuclidNorm(1.0, np.zeros(2)),
                r=None,
                domain=AllSpace(3),
                lipschitz_G=1.0,
                mu=0.0,
            )

    def test_linear_value_and_subgrad(self):
        obj = _simple_objective(Linear(np.array([1.0, -2.0])), G=math.sqrt(5.0))
        x = np.array([2.0, 1.0])
        assert eval_f(obj, x) == pytest.approx(0.0)
        assert subgrad_f(obj, x) == pytest.approx(np.array([1.0, -2.0]))

    def test_optimum_distance(self):
        opt = Optimum(np.zeros(2), 0.0)
        obj = CompositeObjective(
            f=EuclidNorm(1.0, np.zeros(2)),
            r=None,
            domain=AllSpace(2),
            lipschitz_G=1.0,
            mu=0.0,
            optimum=opt,
        )
        assert obj.optimum.F_star == 0.0


def _dv_instance(d, q, theta, M, y, mu=0.0):
    regime = "str-fano" if mu > 0 else "cvx-fano"
    params = HardParams(
        regime=regime,
        d_star=d,
        T=1,
        G=M * math.sqrt(d),
        D=max(abs(y) * math.sqrt(d), 1.0),
        mu=mu,
        sigma_l=0.0,
        sigma_s=0.0,
        p=1.5,
        delta=None,
        q=q,
        theta=theta,
        M=M,
        y=y,
    )
    kind = "str" if mu > 0 else "cvx"
    return make_hard_instance(kind, d, d, params, np.ones(d))
