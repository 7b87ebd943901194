import math

import numpy as np
import pytest

from htclip import (
    AbsSum,
    AllSpace,
    Ball,
    CompositeObjective,
    EuclidNorm,
    Optimum,
    QuadReg,
    ScheduleParams,
    average,
    checkpoint_times,
    hard_params,
    make_hard_instance,
    make_oracle,
    make_schedule,
    run_clipped_sgd,
    run_stabilized_clipped_sgd,
    run_trials,
    suboptimality_series,
)

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


def _abs_objective(optimum=True):
    opt = Optimum(np.zeros(1), 0.0) if optimum else None
    return CompositeObjective(
        f=AbsSum(np.array([1.0]), np.array([0.0])),
        r=None,
        domain=AllSpace(1),
        lipschitz_G=1.0,
        optimum=opt,
    )


class TestCheckpointTimes:
    def test_arithmetic(self):
        assert checkpoint_times(10, 3) == [3, 6, 9, 10]
        assert checkpoint_times(9, 3) == [3, 6, 9]
        assert checkpoint_times(2, 5) == [2]

    def test_geometric(self):
        assert checkpoint_times(8, "geometric:2") == [1, 2, 4, 8]
        assert checkpoint_times(10, "geometric") == [1, 2, 4, 8, 10]
        assert checkpoint_times(1, "geometric:2") == [1]

    def test_always_ends_at_T(self):
        for T in (1, 7, 100, 1000):
            for stride in (1, 7, "geometric:2", "geometric:1.5"):
                times = checkpoint_times(T, stride)
                assert times[-1] == T
                assert all(b > a for a, b in zip(times, times[1:]))

    def test_rejects_bad_stride(self):
        with pytest.raises(ValueError):
            checkpoint_times(10, 0)
        with pytest.raises(ValueError):
            checkpoint_times(10, "geometric:0.5")
        with pytest.raises(ValueError):
            checkpoint_times(10, "arithmetic")


class TestDeterministicRuns:
    def test_hand_walk_to_minimum(self):
        # |x| from 0.5 with eta = 0.1: 0.4, 0.3, 0.2, 0.1, 0.0
        obj = _abs_objective()
        oracle = make_oracle(obj, "deterministic")
        traj = run_clipped_sgd(
            obj, oracle, _const(0.1), 5, np.array([0.5]),
            np.random.default_rng(0), record_stride=1,
        )
        xs = [cp.x_last[0] for cp in traj.checkpoints]
        assert xs == pytest.approx([0.4, 0.3, 0.2, 0.1, 0.0], abs=1e-15)
        assert traj.avg_plain[0] == pytest.approx(0.2, abs=1e-15)
        assert traj.clip_events == 0

    def test_clipping_halves_the_step(self):
        # tau = 0.5 rescales the unit subgradient, so steps shrink to 0.05
        obj = _abs_objective()
        oracle = make_oracle(obj, "deterministic")
        traj = run_clipped_sgd(
            obj, oracle, _const(0.1, tau=0.5), 5, np.array([0.5]),
            np.random.default_rng(0), record_stride=1,
        )
        assert traj.x_last[0] == pytest.approx(0.25, abs=1e-15)
        assert traj.clip_events == 5
        for cp in traj.checkpoints:
            assert cp.clip_events == cp.t

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
            obj, oracle, sched, 1, np.array([1.0]), np.random.default_rng(0),
            record_stride=1,
        )
        assert traj.x_last[0] == pytest.approx(1.0 / 7.0, rel=1e-14)
        series = suboptimality_series(traj, obj)
        assert series[0].mu_dist_sq == pytest.approx(1.0 / 49.0, rel=1e-13)

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
        traj = run_clipped_sgd(
            obj, oracle, sched, 40, x1, np.random.default_rng(0), record_stride=1
        )

        def subgrad(x):
            diff = x - np.ones(d)
            n = np.linalg.norm(diff)
            return 2.0 * diff / n if n > 0 else np.zeros(d)

        ref = oracles.reference_sgd(x1, subgrad, lambda t: 0.3 / math.sqrt(t), 40)
        for cp, want in zip(traj.checkpoints, ref):
            assert cp.x_last == pytest.approx(want, abs=1e-12)

    def test_ball_constrained_stays_inside(self):
        dom = Ball(np.zeros(2), 1.0)
        obj = CompositeObjective(
            f=AbsSum(np.array([3.0, 3.0]), np.array([2.0, 2.0])),
            r=None,
            domain=dom,
            lipschitz_G=3.0 * math.sqrt(2.0),
        )
        oracle = make_oracle(obj, "deterministic")
        traj = run_clipped_sgd(
            obj, oracle, _const(0.5), 20, np.zeros(2), np.random.default_rng(0),
            record_stride=1,
        )
        for cp in traj.checkpoints:
            assert np.linalg.norm(cp.x_last) <= 1.0 + 1e-12

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
        traj = run_clipped_sgd(
            obj, oracle, _const(0.2), 15, x1, np.random.default_rng(0),
            record_stride=1,
        )

        def subgrad(x):
            return np.array([2.0, 1.0]) * np.sign(x - np.array([-1.0, 1.5]))

        ref = oracles.reference_sgd(
            x1, subgrad, lambda t: 0.2, 15,
            project=oracles.project_ball(np.array([0.5, 0.0]), 0.75),
        )
        for cp, want in zip(traj.checkpoints, ref):
            assert cp.x_last == pytest.approx(want, abs=1e-12)


class TestAveraging:
    def test_weighted_two_step(self):
        obj = _abs_objective()
        oracle = make_oracle(obj, "deterministic")
        traj = run_clipped_sgd(
            obj, oracle, _const(0.1), 2, np.array([0.5]),
            np.random.default_rng(0), record_stride=1,
        )
        x2, x3 = traj.checkpoints[0].x_last[0], traj.checkpoints[1].x_last[0]
        assert traj.avg_weighted[0] == pytest.approx(
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
            obj, oracle, _const(0.05), 30, np.full(d, 0.4),
            np.random.default_rng(5), record_stride=1,
        )
        xs = np.stack([cp.x_last for cp in traj.checkpoints])
        assert traj.avg_plain == pytest.approx(xs.mean(axis=0), abs=1e-13)


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
        traj = run_stabilized_clipped_sgd(
            obj, oracle, sched, 6, x1, np.random.default_rng(0), record_stride=1
        )

        x = x1.copy()
        for t in range(1, 7):
            n = np.linalg.norm(x)
            g = x / n if n > 0 else np.zeros(2)
            et, en = eta(t), min(eta(t + 1), eta(t))
            s = (et / en - 1.0) / et
            x = (x / et + s * x1 - g) / (1.0 / et + s)
            assert traj.checkpoints[t - 1].x_last == pytest.approx(x, rel=1e-12)

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
        with pytest.raises(ValueError, match="checkpoints"):
            run_trials(
                obj, oracle, _const(0.1), 3, x1, rngs, horizons=[3, 2],
                record_stride=1,
            )


class TestSuboptimalitySeries:
    def test_clamps_negative_gaps(self):
        # a deliberately inflated F_star drives raw gaps negative
        obj = CompositeObjective(
            f=AbsSum(np.array([1.0]), np.array([0.0])),
            r=None,
            domain=AllSpace(1),
            lipschitz_G=1.0,
            optimum=Optimum(np.zeros(1), 10.0),
        )
        oracle = make_oracle(obj, "deterministic")
        traj = run_clipped_sgd(
            obj, oracle, _const(0.1), 3, np.array([0.5]), np.random.default_rng(0),
            record_stride=1,
        )
        series = suboptimality_series(traj, obj)
        for pt in series:
            assert pt.raw_plain < 0
            assert pt.plain == 0.0
            assert pt.last == 0.0

    def test_requires_optimum(self):
        obj = _abs_objective(optimum=False)
        oracle = make_oracle(obj, "deterministic")
        traj = run_clipped_sgd(
            obj, oracle, _const(0.1), 2, np.array([0.5]), np.random.default_rng(0)
        )
        with pytest.raises(ValueError, match="optimum"):
            suboptimality_series(traj, obj)

    def test_values_match_direct_evaluation(self):
        obj = _abs_objective()
        oracle = make_oracle(obj, "deterministic")
        traj = run_clipped_sgd(
            obj, oracle, _const(0.1), 4, np.array([0.5]), np.random.default_rng(0),
            record_stride=2,
        )
        series = suboptimality_series(traj, obj)
        assert [pt.t for pt in series] == [2, 4]
        for pt, cp in zip(series, traj.checkpoints):
            assert pt.raw_plain == pytest.approx(abs(cp.avg_plain[0]), rel=1e-14)
            assert pt.raw_last == pytest.approx(abs(cp.x_last[0]), rel=1e-14)
