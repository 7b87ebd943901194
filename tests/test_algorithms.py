import math
from dataclasses import replace

import numpy as np
import pytest

from htclip import (
    NOISE_CHUNK,
    AbsSum,
    AllSpace,
    Ball,
    CompositeObjective,
    EuclidNorm,
    Optimum,
    QuadReg,
    StableParams,
    average,
    hard_params,
    make_hard_instance,
    make_oracle,
    run_clipped_sgd,
    run_stabilized_clipped_sgd,
    run_trials,
    weighted_avg_weight,
)
from htclip._util import clip_rows

import oracles


class StubSchedule:
    """Hand schedule exposing only what the kernel reads."""

    def __init__(self, eta_fn, tau_fn):
        self._eta = eta_fn
        self._tau = tau_fn

    def eta(self, t):
        return self._eta(t)

    def tau(self, t):
        return self._tau(t)


def _const(eta, tau=math.inf):
    return StubSchedule(lambda t: eta, lambda t: tau)


def _abs_objective():
    return CompositeObjective(
        f=AbsSum(np.array([1.0]), np.array([0.0])),
        r=None,
        domain=AllSpace(1),
        lipschitz_G=1.0,
        optimum=Optimum(np.zeros(1), 0.0),
    )


def _each_step(objective, oracle, schedule, T, x_1, seed=0, **kwargs):
    """The run after each step t = 1..T in row t - 1: one run_trials call
    with a row of horizon t per step, every row on one seed."""
    res = run_trials(
        objective, oracle, schedule, T, x_1,
        [np.random.default_rng(seed) for _ in range(T)],
        horizons=range(T, 0, -1), **kwargs,
    )
    return replace(
        res,
        x_last=res.x_last[::-1],
        avg_plain=None if res.avg_plain is None else res.avg_plain[::-1],
        avg_weighted=None if res.avg_weighted is None else res.avg_weighted[::-1],
        clip_events=res.clip_events[::-1],
    )


class TestDeterministicRuns:
    def test_hand_walk_to_minimum(self):
        # |x| from 0.5 with eta = 0.1: 0.4, 0.3, 0.2, 0.1, 0.0
        obj = _abs_objective()
        oracle = make_oracle(obj, "deterministic")
        steps = _each_step(obj, oracle, _const(0.1), 5, np.array([0.5]))
        assert steps.x_last[:, 0] == pytest.approx([0.4, 0.3, 0.2, 0.1, 0.0], abs=1e-15)
        traj = run_clipped_sgd(
            obj, oracle, _const(0.1), 5, np.array([0.5]), np.random.default_rng(0)
        )
        assert traj.avg_plain[0] == pytest.approx(0.2, abs=1e-15)
        assert traj.clip_events == 0

    def test_clipping_halves_the_step(self):
        # tau = 0.5 rescales the unit subgradient, so steps shrink to 0.05
        obj = _abs_objective()
        oracle = make_oracle(obj, "deterministic")
        traj = run_clipped_sgd(
            obj, oracle, _const(0.1, tau=0.5), 5, np.array([0.5]),
            np.random.default_rng(0),
        )
        assert traj.x_last[0] == pytest.approx(0.25, abs=1e-15)
        assert traj.clip_events == 5
        steps = _each_step(obj, oracle, _const(0.1, tau=0.5), 5, np.array([0.5]))
        assert steps.clip_events.tolist() == [1, 2, 3, 4, 5]

    def test_strongly_convex_contraction(self):
        # g = 0, eta_1 = 6/mu: x_2 = (x_1/eta)/(1/eta + mu) = x_1/7
        obj = CompositeObjective(
            f=AbsSum(np.zeros(1), np.zeros(1)),
            r=QuadReg(1.0, np.zeros(1)),
            domain=AllSpace(1),
            lipschitz_G=1.0,
            mu=1.0,
            optimum=Optimum(np.zeros(1), 0.0),
        )
        oracle = make_oracle(obj, "deterministic")
        sched = StubSchedule(lambda t: 6.0 / t, lambda t: math.inf)
        traj = run_clipped_sgd(
            obj, oracle, sched, 1, np.array([1.0]), np.random.default_rng(0)
        )
        assert traj.x_last[0] == pytest.approx(1.0 / 7.0, rel=1e-14)

    def test_matches_reference_subgradient_descent(self):
        d = 3
        obj = CompositeObjective(
            f=EuclidNorm(2.0, np.ones(d)),
            r=None,
            domain=AllSpace(d),
            lipschitz_G=2.0,
        )
        oracle = make_oracle(obj, "deterministic")
        sched = StubSchedule(lambda t: 0.3 / math.sqrt(t), lambda t: math.inf)
        x1 = np.array([2.0, -1.0, 0.5])
        steps = _each_step(obj, oracle, sched, 40, x1)

        def subgrad(x):
            diff = x - np.ones(d)
            n = np.linalg.norm(diff)
            return 2.0 * diff / n if n > 0 else np.zeros(d)

        ref = oracles.reference_sgd(x1, subgrad, lambda t: 0.3 / math.sqrt(t), 40)
        assert len(ref) == 40
        for x, want in zip(steps.x_last, ref):
            assert x == pytest.approx(want, abs=1e-12)

    def test_ball_constrained_stays_inside(self):
        dom = Ball(np.zeros(2), 1.0)
        obj = CompositeObjective(
            f=AbsSum(np.array([3.0, 3.0]), np.array([2.0, 2.0])),
            r=None,
            domain=dom,
            lipschitz_G=3.0 * math.sqrt(2.0),
        )
        oracle = make_oracle(obj, "deterministic")
        steps = _each_step(obj, oracle, _const(0.5), 20, np.zeros(2))
        assert np.all(np.linalg.norm(steps.x_last, axis=1) <= 1.0 + 1e-12)

    def test_projected_matches_reference(self):
        dom = Ball(np.array([0.5, 0.0]), 0.75)
        obj = CompositeObjective(
            f=AbsSum(np.array([2.0, 1.0]), np.array([-1.0, 1.5])),
            r=None,
            domain=dom,
            lipschitz_G=math.sqrt(5.0),
        )
        oracle = make_oracle(obj, "deterministic")
        x1 = np.array([0.5, 0.0])
        steps = _each_step(obj, oracle, _const(0.2), 15, x1)

        def subgrad(x):
            return np.array([2.0, 1.0]) * np.sign(x - np.array([-1.0, 1.5]))

        ref = oracles.reference_sgd(
            x1, subgrad, lambda t: 0.2, 15,
            project=oracles.project_ball(np.array([0.5, 0.0]), 0.75),
        )
        assert len(ref) == 15
        for x, want in zip(steps.x_last, ref):
            assert x == pytest.approx(want, abs=1e-12)


class TestAveraging:
    def test_weighted_two_step(self):
        obj = _abs_objective()
        oracle = make_oracle(obj, "deterministic")
        steps = _each_step(obj, oracle, _const(0.1), 2, np.array([0.5]))
        x2, x3 = steps.x_last[:, 0]
        assert steps.avg_weighted[1, 0] == pytest.approx(
            (30.0 * x2 + 42.0 * x3) / 72.0, rel=1e-14
        )

    def test_single_step_all_aggregates_agree(self):
        obj = _abs_objective()
        oracle = make_oracle(obj, "deterministic")
        traj = run_clipped_sgd(
            obj, oracle, _const(0.1), 1, np.array([0.5]), np.random.default_rng(0)
        )
        assert traj.avg_plain[0] == traj.avg_weighted[0] == traj.x_last[0]

    def test_average_modes(self):
        obj = _abs_objective()
        oracle = make_oracle(obj, "deterministic")
        traj = run_clipped_sgd(
            obj, oracle, _const(0.1), 3, np.array([0.5]), np.random.default_rng(0)
        )
        assert np.array_equal(average(traj, "plain"), traj.avg_plain)
        assert np.array_equal(average(traj, "weighted"), traj.avg_weighted)
        assert np.array_equal(average(traj, "last"), traj.x_last)
        with pytest.raises(ValueError):
            average(traj, "median")

    def test_plain_average_running_mean(self, rng):
        d = 2
        obj = CompositeObjective(
            f=AbsSum(np.ones(d), np.zeros(d)),
            r=None,
            domain=AllSpace(d),
            lipschitz_G=math.sqrt(2.0),
        )
        oracle = make_oracle(obj, "additive-gaussian", scales=np.full(d, 0.3))
        traj = run_clipped_sgd(
            obj, oracle, _const(0.05), 30, np.full(d, 0.4), np.random.default_rng(5)
        )
        steps = _each_step(obj, oracle, _const(0.05), 30, np.full(d, 0.4), seed=5)
        assert traj.avg_plain == pytest.approx(steps.x_last.mean(axis=0), abs=1e-13)


class TestStabilized:
    def test_constant_eta_equals_clipped_bitwise(self):
        d = 2
        obj = CompositeObjective(
            f=AbsSum(np.ones(d), np.zeros(d)),
            r=None,
            domain=AllSpace(d),
            lipschitz_G=math.sqrt(2.0),
        )
        oracle = make_oracle(obj, "additive-gaussian", scales=np.full(d, 0.5))
        sched = _const(0.1, tau=1.5)
        a = run_trials(
            obj, oracle, sched, 50, np.full(d, 0.3),
            [np.random.default_rng(9)], stabilized=True,
        )
        b = run_trials(
            obj, oracle, sched, 50, np.full(d, 0.3),
            [np.random.default_rng(9)], stabilized=False,
        )
        assert np.array_equal(a.x_last, b.x_last)
        assert np.array_equal(a.avg_plain, b.avg_plain)

    def test_first_step_uses_next_eta(self):
        # from x_1 the anchor collapses and x_2 = x_1 - eta_2 g
        obj = _abs_objective()
        oracle = make_oracle(obj, "deterministic")
        sched = StubSchedule(lambda t: 1.0 / t, lambda t: math.inf)
        traj = run_stabilized_clipped_sgd(
            obj, oracle, sched, 1, np.array([2.0]), np.random.default_rng(0)
        )
        assert traj.x_last[0] == pytest.approx(2.0 - 0.5, rel=1e-14)

    def test_matches_anchored_recursion(self):
        obj = CompositeObjective(
            f=EuclidNorm(1.0, np.zeros(2)),
            r=None,
            domain=AllSpace(2),
            lipschitz_G=1.0,
        )
        oracle = make_oracle(obj, "deterministic")

        def eta(t):
            return 0.8 / math.sqrt(t)

        sched = StubSchedule(eta, lambda t: math.inf)
        x1 = np.array([3.0, -4.0])
        steps = _each_step(obj, oracle, sched, 6, x1, stabilized=True)

        x = x1.copy()
        for t in range(1, 7):
            n = np.linalg.norm(x)
            g = x / n if n > 0 else np.zeros(2)
            et, en = eta(t), min(eta(t + 1), eta(t))
            s = (et / en - 1.0) / et
            x = (x / et + s * x1 - g) / (1.0 / et + s)
            assert steps.x_last[t - 1] == pytest.approx(x, rel=1e-12)

    def test_rejects_strongly_convex(self):
        obj = CompositeObjective(
            f=AbsSum(np.zeros(1), np.zeros(1)),
            r=QuadReg(1.0, np.zeros(1)),
            domain=AllSpace(1),
            lipschitz_G=1.0,
            mu=1.0,
        )
        oracle = make_oracle(obj, "deterministic")
        with pytest.raises(ValueError, match="mu"):
            run_trials(
                obj, oracle, _const(0.1), 2, np.zeros(1),
                [np.random.default_rng(0)], stabilized=True,
            )


class TestBatching:
    def _noisy_setup(self, d=3):
        obj = CompositeObjective(
            f=EuclidNorm(1.0, np.zeros(d)),
            r=None,
            domain=AllSpace(d),
            lipschitz_G=1.0,
        )
        oracle = make_oracle(obj, "additive-gaussian", scales=np.full(d, 0.4))
        return obj, oracle

    def test_batch_matches_single_runs_bitwise(self):
        obj, oracle = self._noisy_setup()
        sched = _const(0.1, tau=1.2)
        seeds = [3, 14, 159]
        batch = run_trials(
            obj, oracle, sched, 30, np.full(3, 1.0),
            [np.random.default_rng(s) for s in seeds],
        )
        for i, s in enumerate(seeds):
            single = run_trials(
                obj, oracle, sched, 30, np.full(3, 1.0),
                [np.random.default_rng(s)],
            )
            assert np.array_equal(batch.x_last[i], single.x_last[0])
            assert np.array_equal(batch.avg_weighted[i], single.avg_weighted[0])
            assert batch.clip_events[i] == single.clip_events[0]

    def test_chunk_boundary_consistency(self):
        # T past the prefetch chunk exercises the refill path
        obj, oracle = self._noisy_setup(d=1)
        sched = _const(0.02)
        T = 1100
        batch = run_trials(
            obj, oracle, sched, T, np.array([0.5]),
            [np.random.default_rng(1), np.random.default_rng(2)],
        )
        single = run_trials(
            obj, oracle, sched, T, np.array([0.5]), [np.random.default_rng(2)]
        )
        assert np.array_equal(batch.x_last[1], single.x_last[0])

    def test_oracle_objective_identity_enforced(self):
        obj, oracle = self._noisy_setup()
        other = CompositeObjective(
            f=EuclidNorm(1.0, np.zeros(3)),
            r=None,
            domain=AllSpace(3),
            lipschitz_G=1.0,
        )
        with pytest.raises(ValueError, match="different objective"):
            run_trials(
                other, oracle, _const(0.1), 2, np.zeros(3),
                [np.random.default_rng(0)],
            )

    @pytest.mark.parametrize("T", [700, 1100])
    @pytest.mark.parametrize("tau", [math.inf, 1.0])
    def test_blow_up_inside_a_chunk_raises(self, T, tau):
        # the state drawn for step 500 is infinite; finiteness is checked at
        # chunk boundaries and at the end, so the blow-up must survive to
        # one of them (the end of the run for T=700, step 1024 for T=1100)
        obj, oracle = self._noisy_setup(d=2)

        class Overflowing:
            objective = obj
            state_dtype = oracle.state_dtype

            def draw(self, rng, n, out):
                oracle.draw(rng, n, out=out)
                out[499:500] = np.inf
                return out

            def grad_rows(self, X, states):
                return oracle.grad_rows(X, states)

        with np.errstate(invalid="ignore"):
            with pytest.raises(FloatingPointError, match="non-finite iterate"):
                run_trials(
                    obj, Overflowing(), _const(0.01, tau), T, np.ones(2),
                    [np.random.default_rng(s) for s in (1, 2, 3)],
                )

    def test_overflowing_gradient_is_clipped_not_zeroed(self):
        # every state is 1e200, so ||g||^2 overflows at each of the 3 steps;
        # clipped to tau = 1, each step still moves x by eta along -g
        obj, oracle = self._noisy_setup(d=2)

        class Huge:
            objective = obj
            state_dtype = oracle.state_dtype

            def draw(self, rng, n, out):
                out[...] = 1e200
                return out

            def grad_rows(self, X, states):
                return states

        with np.errstate(over="ignore"):
            res = run_trials(
                obj, Huge(), _const(0.1, 1.0), 3, np.zeros(2),
                [np.random.default_rng(0)],
            )
        assert res.clip_events.tolist() == [3]
        assert np.all(res.x_last != 0.0)
        assert res.x_last[0] == pytest.approx(-0.3 * math.sqrt(0.5), rel=1e-14)

    def test_start_point_outside_domain(self):
        obj = CompositeObjective(
            f=AbsSum(np.ones(2), np.zeros(2)),
            r=None,
            domain=Ball(np.zeros(2), 1.0),
            lipschitz_G=math.sqrt(2.0),
        )
        oracle = make_oracle(obj, "deterministic")
        with pytest.raises(ValueError, match="domain"):
            run_trials(
                obj, oracle, _const(0.1), 2, np.array([3.0, 0.0]),
                [np.random.default_rng(0)],
            )


class TestMixedBatch:
    """A batch whose trials differ in oracle, schedule and horizon matches
    one run per group of alike trials, bit for bit."""

    @staticmethod
    def _rngs(seeds):
        return [np.random.default_rng(s) for s in seeds]

    def _check(self, objective, groups, stabilized):
        # groups: (oracle, schedule, horizon, seeds), longest horizon first
        rows = [(o, s, T, seed) for o, s, T, seeds in groups for seed in seeds]
        batch = run_trials(
            objective, [r[0] for r in rows], [r[1] for r in rows], rows[0][2],
            np.zeros(objective.d), self._rngs(r[3] for r in rows),
            stabilized=stabilized, horizons=[r[2] for r in rows],
        )
        a = 0
        for oracle, sched, T, seeds in groups:
            ref = run_trials(
                oracle.objective, oracle, sched, T, np.zeros(objective.d),
                self._rngs(seeds), stabilized=stabilized,
            )
            b = a + len(seeds)
            assert np.array_equal(batch.x_last[a:b], ref.x_last)
            assert np.array_equal(batch.avg_plain[a:b], ref.avg_plain)
            assert np.array_equal(batch.avg_weighted[a:b], ref.avg_weighted)
            assert np.array_equal(batch.clip_events[a:b], ref.clip_events)
            a = b

    def test_hard_instances_of_several_horizons_and_codewords(self):
        groups = []
        for T, v in ((1100, [1, -1, 1]), (1100, [-1, 1, 1]), (700, [1, 1, -1]),
                     (5, [1, -1, 1])):
            params = hard_params(
                "cvx-fano", d_star=3, T=T, G=1.0, D=1.0, sigma_l=1.0, p=1.5
            )
            _, oracle = make_hard_instance("cvx", 4, 3, params, np.array(v, float))
            sched = _const(0.05 * (1.0 + T / 1000.0), tau=0.8)
            groups.append((oracle, sched, T, [len(groups) * 10 + i for i in range(3)]))
        self._check(groups[0][0].objective, groups, stabilized=False)

    def test_stabilized_rows_with_and_without_an_anchor(self):
        # at one step, rows of the constant schedule have no anchor weight
        # (eta_next == eta_t) while the others have one
        obj = CompositeObjective(
            f=EuclidNorm(1.0, np.zeros(2)), r=None, domain=Ball(np.zeros(2), 2.0),
            lipschitz_G=1.0,
        )
        oracle = make_oracle(obj, "additive-gaussian", scales=np.full(2, 0.5))
        groups = [
            (oracle, _const(0.1, tau=1.0), 1100, [1, 2]),
            (oracle, StubSchedule(lambda t: 0.5 / math.sqrt(t), lambda t: 1.2), 1030, [3]),
            (oracle, StubSchedule(lambda t: min(0.2, 1.0 / t), lambda t: 0.9), 20, [4, 5]),
        ]
        self._check(obj, groups, stabilized=True)

    def test_rejects_bad_rows(self):
        obj = _abs_objective()
        oracle = make_oracle(obj, "deterministic")
        other = make_oracle(obj, "additive-gaussian", scales=np.ones(1))
        rngs = self._rngs([1, 2])
        x1 = np.zeros(1)
        with pytest.raises(ValueError, match="one oracle per trial"):
            run_trials(obj, [oracle], _const(0.1), 3, x1, rngs)
        with pytest.raises(ValueError, match="nonincreasing"):
            run_trials(obj, oracle, _const(0.1), 3, x1, rngs, horizons=[2, 3])
        with pytest.raises(ValueError, match="hard instances"):
            run_trials(obj, [oracle, other], _const(0.1), 3, x1, rngs)


class TestStepChecks:
    """A non-positive eta is rejected from the kernel's per-chunk check
    with the prox steps' own messages."""

    @pytest.mark.parametrize("bad_from", [1, 7, 1024, 1025, 1500])
    @pytest.mark.parametrize("stabilized", [False, True])
    def test_eta_turning_non_positive_mid_run(self, bad_from, stabilized):
        obj = _abs_objective()
        oracle = make_oracle(obj, "additive-gaussian", scales=np.ones(1))
        eta = lambda t: 0.01 if t < bad_from else -0.01  # noqa: E731
        message = (
            "stabilized step requires 0 < eta_next <= eta_t" if stabilized
            else "step size eta must be positive"
        )
        with pytest.raises(ValueError, match=message):
            run_trials(
                obj, oracle, StubSchedule(eta, lambda t: 1.0), 2000,
                np.array([0.5]), [np.random.default_rng(s) for s in (1, 2)],
                stabilized=stabilized,
            )

    @pytest.mark.parametrize("stabilized", [False, True])
    def test_one_row_schedule_turning_non_positive(self, stabilized):
        # per-row schedules take the (rows, d) tile path; the bad schedule
        # is the shorter row's, whose last step reads eta up to `reads`
        obj = _abs_objective()
        oracle = make_oracle(obj, "additive-gaussian", scales=np.ones(1))
        reads = 1200 + int(stabilized)

        def rows(bad_from):
            bad = StubSchedule(
                lambda t: 0.01 if t < bad_from else math.nan, lambda t: 1.0
            )
            return run_trials(
                obj, oracle, [_const(0.01, 1.0), bad], 2000, np.array([0.5]),
                [np.random.default_rng(s) for s in (1, 2)],
                stabilized=stabilized, horizons=[2000, 1200],
            )

        with pytest.raises(ValueError, match="eta"):
            rows(reads)
        # a value no row reads is not checked
        rows(reads + 1)


class TestAggregateChoice:
    def _runs(self, aggregate, stabilized):
        rows = []
        for T, v in ((1100, [1, -1, 1]), (700, [1, 1, -1]), (5, [-1, 1, 1])):
            params = hard_params(
                "cvx-fano", d_star=3, T=T, G=1.0, D=1.0, sigma_l=1.0, p=1.5
            )
            _, oracle = make_hard_instance("cvx", 4, 3, params, np.array(v, float))
            sched = StubSchedule(lambda t, T=T: 0.3 / math.sqrt(t + T), lambda t: 0.8)
            rows += [(oracle, sched, T)] * 2
        return run_trials(
            rows[0][0].objective, [r[0] for r in rows], [r[1] for r in rows],
            rows[0][2], np.zeros(4), [np.random.default_rng(s) for s in range(6)],
            stabilized=stabilized, horizons=[r[2] for r in rows],
            aggregate=aggregate,
        )

    @pytest.mark.parametrize("stabilized", [False, True])
    @pytest.mark.parametrize("mode", ["plain", "weighted", "last"])
    def test_kept_fields_equal_the_default_call(self, mode, stabilized):
        full = self._runs(None, stabilized)
        one = self._runs(mode, stabilized)
        assert np.array_equal(one.x_last, full.x_last)
        assert np.array_equal(one.clip_events, full.clip_events)
        assert np.array_equal(average(one, mode), average(full, mode))
        for name in ("avg_plain", "avg_weighted"):
            if name != f"avg_{mode}":
                assert getattr(one, name) is None

    def test_every_step_drops_the_unkept_average(self):
        obj = _abs_objective()
        oracle = make_oracle(obj, "additive-gaussian", scales=np.ones(1))
        args = (obj, oracle, _const(0.05), 9, np.array([0.5]))
        full = _each_step(*args, seed=4)
        one = _each_step(*args, seed=4, aggregate="plain")
        assert np.array_equal(one.avg_plain, full.avg_plain)
        assert np.array_equal(one.x_last, full.x_last)
        assert one.avg_weighted is None

    def test_rejects_an_unknown_aggregate(self):
        obj = _abs_objective()
        with pytest.raises(ValueError, match="averaging mode"):
            run_trials(
                obj, make_oracle(obj, "deterministic"), _const(0.1), 3,
                np.zeros(1), [np.random.default_rng(0)], aggregate="median",
            )


class TestPrefix:
    """A row of horizon t holds the first t steps of a row of horizon T
    with the same seed, across noise chunk boundaries."""

    class _Recording:
        """The wrapped oracle, noting row 0's iterate x_t and gradient at
        each step; row 0 runs the longest horizon."""

        def __init__(self, oracle):
            self.oracle = oracle
            self.objective = oracle.objective
            self.state_dtype = oracle.state_dtype
            self.xs, self.gs = [], []

        def draw(self, rng, n, out):
            return self.oracle.draw(rng, n, out=out)

        def grad_rows(self, X, states):
            G = self.oracle.grad_rows(X, states)
            self.xs.append(X[0].copy())
            self.gs.append(G[:1].copy())
            return G

    @staticmethod
    def _oracle(kind):
        if kind == "hard-instance":
            params = hard_params(
                "cvx-fano", d_star=3, T=1100, G=1.0, D=1.0, sigma_l=1.0, p=1.5
            )
            return make_hard_instance("cvx", 4, 3, params, np.array([1.0, -1.0, 1.0]))[1]
        obj = CompositeObjective(
            f=EuclidNorm(1.0, np.zeros(3)), r=None, domain=Ball(np.zeros(3), 2.0),
            lipschitz_G=1.0,
        )
        if kind == "additive-stable":
            return make_oracle(
                obj, kind, scales=np.full(3, 0.4), stable=StableParams(1.5), p=1.2
            )
        return make_oracle(obj, kind, scales=np.full(3, 0.4))

    @pytest.mark.parametrize("stabilized", [False, True])
    @pytest.mark.parametrize(
        "kind", ["additive-gaussian", "additive-stable", "hard-instance"]
    )
    def test_a_row_of_horizon_t_holds_the_first_t_steps(self, kind, stabilized):
        T = NOISE_CHUNK + 76
        horizons = [T, T - 1, NOISE_CHUNK + 1, NOISE_CHUNK, NOISE_CHUNK - 1, 700, 2, 1]
        rec = self._Recording(self._oracle(kind))
        sched = StubSchedule(lambda t: 0.3 / math.sqrt(t), lambda t: 0.8)
        res = run_trials(
            rec.objective, rec, sched, T, np.zeros(rec.objective.d),
            [np.random.default_rng(7) for _ in horizons],
            stabilized=stabilized, horizons=horizons,
        )
        assert len(rec.xs) == T
        # replay row 0's averages and clip count after each step t
        after = {}
        mean, wavg = np.zeros_like(rec.xs[0]), np.zeros_like(rec.xs[0])
        wsum, clips = 0.0, 0
        for t, x in enumerate(rec.xs[1:] + [res.x_last[0]], start=1):
            mean += (x - mean) / t
            w = weighted_avg_weight(t)
            wsum += w
            wavg += (w / wsum) * (x - wavg)
            clips += int(clip_rows(rec.gs[t - 1], sched.tau(t))[1][0])
            after[t] = (x, mean.copy(), wavg.copy(), clips)
        assert 0 < clips < T
        for i, t in enumerate(horizons):
            x, m, w, c = after[t]
            assert np.array_equal(res.x_last[i], x)
            assert np.array_equal(res.avg_plain[i], m)
            assert np.array_equal(res.avg_weighted[i], w)
            assert res.clip_events[i] == c
