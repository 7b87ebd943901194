"""Hard-instance rows of a steady sub-chunk (plain steps, mu = 0, each row's
eta and tau constant) run event to event: _Events.plan computes their
iterates a round at a time and the step loop writes only the rows that
move.  These tests hold plans and whole runs to dense step-by-step
references, bit for bit."""

import math
from dataclasses import replace

import numpy as np
import pytest

from htclip import AllSpace, Ball, HardParams, make_hard_instance, project, run_trials
from htclip import algorithms
from htclip._util import clip_rows

from test_algorithms import StubSchedule
from test_events import X_1, _reference

# eta and x with which the no-event step moves x one ulp a step for 90
# steps before it settles
SLOW_ETA, SLOW_X = 509.1677901849563, -3.334678285288366e-06


def _oracle(d: int, M: float, y: float, v, q: float):
    """A cvx hard instance of dimension d with the first 3 coordinates active."""
    params = HardParams(
        regime="cvx-fano", d_star=3, T=1, G=M * math.sqrt(3), D=1.0, mu=0.0,
        sigma_l=0.0, sigma_s=0.0, p=1.5, delta=None, q=q, theta=0.3, M=M, y=y,
    )
    return make_hard_instance("cvx", d, 3, params, np.asarray(v, float))[1]


def _const(eta, tau):
    return StubSchedule(lambda t: eta, lambda t: tau)


@pytest.fixture
def plans(monkeypatch):
    """The plans the kernel makes, None where a sub-chunk's pass declined."""
    made = []
    plan = algorithms._Events.plan

    def noted(self, *args):
        made.append(plan(self, *args))
        return made[-1]

    monkeypatch.setattr(algorithms._Events, "plan", noted)
    return made


def _events(states: np.ndarray, sub: int) -> dict:
    """Which corners the states (steps, d) of one row hit."""
    at = np.flatnonzero(np.any(states != 0, axis=1))
    return {
        "consecutive": bool(np.any(np.diff(at) == 1)),
        "first": bool(np.any(at % sub == 0)),
        "last": bool(np.any(at % sub == sub - 1)),
    }


def _check_rows(batch, rows, x_1):
    """Each row of batch equals its dense step-by-step reference; returns
    the corners their states hit."""
    hit = {"consecutive": False, "first": False, "last": False}
    for i, (oracle, schedule, T, seed) in enumerate(rows):
        x, mean, wavg, clips = _reference(oracle, schedule, T, x_1, seed, False)
        assert batch.x_last[i].tobytes() == x.tobytes(), i
        assert batch.avg_plain[i].tobytes() == mean.tobytes(), i
        assert batch.avg_weighted[i].tobytes() == wavg.tobytes(), i
        assert batch.clip_events[i] == clips, i
        inst = oracle.instance
        states = inst.sample_xi(np.random.default_rng(seed), T)
        for name, value in _events(states, algorithms._sub_chunk(inst.d)).items():
            hit[name] |= value
    return hit


def _run(rows, x_1):
    a = rows[0][0]
    return run_trials(
        a.objective, [r[0] for r in rows], [r[1] for r in rows], rows[0][2], x_1,
        [np.random.default_rng(r[3]) for r in rows], horizons=[r[2] for r in rows],
    )


@pytest.mark.parametrize("tau", [math.inf, 0.3])
@pytest.mark.parametrize("etas", ["one", "tiles"])
def test_steady_rows_equal_a_dense_step_by_step_reference(plans, tau, etas):
    # X_1's -5e-324 / eta underflows to -0.0 for eta >= 2, where the
    # dense step takes -0.0 - (-0.0) = +0.0; tau 0.3 clips every event
    # row, inf skips the clip; horizons end inside sub-chunks
    a = _oracle(4, 0.6, 0.4, [1, -1, 1], q=0.02)
    b = _oracle(4, 0.9, 0.7, [-1, 1, 1], q=0.03)
    one = _const(2.5, tau)
    schedules = [one] * 3 if etas == "one" else [one, _const(0.7, tau), _const(3.1, tau)]
    rows = [  # (oracle, schedule, horizon, seed), longest horizon first
        (a, schedules[0], 2100, 1),
        (b, schedules[1], 2100, 2),
        (a, schedules[2], 2100, 3),
        (b, schedules[0], 1500, 4),
        (a, schedules[1], 1030, 5),
        (b, schedules[2], 1024, 6),
        (a, schedules[0], 700, 7),
        (b, schedules[1], 5, 8),
    ]
    batch = _run(rows, X_1)
    hit = _check_rows(batch, rows, X_1)
    assert hit == {"consecutive": True, "first": True, "last": True}
    # every sub-chunk ran planned to its end
    assert len(plans) == 3 and all(p is not None and p.stop == len(p.at) - 1 for p in plans)
    assert (batch.clip_events.sum() > 0) == (tau == 0.3)
    # the -0.0 of -5e-324 / eta became +0.0 in the rows whose eta >= 2
    flipped = ~np.signbit(batch.x_last[:, 3])
    assert flipped.tolist() == [r[1].eta(1) >= 2 for r in rows]


def test_sub_chunks_that_change_eta_run_dense_steps(plans):
    # d = 12 draws sub-chunks of 256 steps; the stepped schedule changes
    # its eta inside the third, which runs dense steps, while the rest
    # run planned
    sub = algorithms._sub_chunk(12)
    assert sub == 256
    a = _oracle(12, 0.6, 0.4, [1, -1, 1], q=0.02)
    b = _oracle(12, 0.9, 0.7, [-1, 1, 1], q=0.02)
    stepped = StubSchedule(lambda t: 3.0 if t <= 600 else 0.5, lambda t: 0.3)
    rows = [
        (a, stepped, 1100, 11),
        (b, _const(2.5, 0.3), 1100, 12),
        (a, stepped, 900, 13),
        (b, _const(2.5, 0.3), 300, 14),
    ]
    x_1 = np.resize(X_1, 12)
    batch = _run(rows, x_1)
    _check_rows(batch, rows, x_1)
    # sub-chunks start at 1, 257, 513 (stepped at 600), 769, 1025
    assert [p is not None for p in plans] == [True, True, True, True]
    assert len(plans) == 4


@pytest.mark.parametrize("share", [None, 32])
def test_a_slowly_settling_row_equals_the_reference(plans, monkeypatch, share):
    # SLOW_X moves for 90 steps under SLOW_ETA with no event: the pass
    # runs 90 rounds or, when it may run only 1024 / 32 rounds, hands
    # the rest of the sub-chunk to the dense steps
    if share is not None:
        monkeypatch.setattr(algorithms, "_ROUND_SHARE", share)
    a = _oracle(4, 0.6, 0.4, [1, -1, 1], q=0.002)
    rows = [(a, _const(SLOW_ETA, math.inf), 1100, 21), (a, _const(SLOW_ETA, math.inf), 600, 22)]
    x_1 = np.full(4, SLOW_X)
    batch = _run(rows, x_1)
    _check_rows(batch, rows, x_1)
    first = plans[0]
    if share is None:
        assert first.stop == 1024 and first.rounds > 90
    else:
        assert first.stop < 90 and first.rounds == 1024 // share


def _plan_rows(variant):
    """Eight rows of two instances (alternating) of d = 4 and low q, x rows
    with zeros, subnormals, infinities and nan, and nonincreasing counts."""
    a = _oracle(4, 0.6, 0.4, [1, -1, 1], q=0.01)
    b = _oracle(4, 0.9, 0.7, [-1, 1, 1], q=0.01)
    if variant == "inf y":
        # an infinite y on the inactive coordinate makes its zero
        # states' gradient entries nan (0 * inf), in every row
        a = replace(a, instance=replace(a.instance, y=np.array([0.4, 0.4, 0.4, np.inf])))
    if variant == "zero M":
        # every gradient entry is +-0.0
        b = replace(b, instance=replace(b.instance, M=np.zeros(4)))
    values = [-5e-324, -0.0, 0.0, 5e-324, -1e-310, np.nan, np.inf, -np.inf, 0.7, -2.3]
    x = np.resize(values, (8, 4))
    x[1::2] = x[1::2, ::-1]
    used = [512, 512, 512, 500, 300, 256, 3, 1]
    return [a, b] * 4, list(range(30, 38)), x, used


@pytest.mark.parametrize("variant", [None, "inf y", "zero M"])
@pytest.mark.parametrize("tau", [None, 0.3, "rows"])
@pytest.mark.parametrize("eta", ["one", "rows"])
@pytest.mark.parametrize("domain", ["all", "ball"])
def test_a_plan_replays_the_dense_steps(variant, tau, eta, domain):
    # every step of the sub-chunk: the plan's changes written into x give
    # the dense step's iterates of the rows still running
    oracles, seeds, x, used = _plan_rows(variant)
    n, k = used[0], len(used)
    dom = AllSpace(4) if domain == "all" else Ball(np.array([0.1, -0.3, 0.2, 0.0]), 2.0)
    if tau == "rows":
        tau = np.linspace(0.2, 1.2, k)
    eta = 2.5 if eta == "one" else np.linspace(0.5, 3.0, k)[:, None]
    den = 1.0 / eta
    states = [o.instance.sample_xi(np.random.default_rng(s), m)
              for o, s, m in zip(oracles, seeds, used)]
    clips = np.zeros(k, np.int64)
    with np.errstate(invalid="ignore", over="ignore", under="ignore"):
        events = algorithms._Events(oracles, [np.random.default_rng(s) for s in seeds])
        events.draw(used)
        plan = events.plan(x, used, eta, den, tau, clips, None, dom)
        assert plan is not None and plan.stop == n
        got, want = x.copy(), x.copy()
        want_clips = np.zeros(k, np.int64)
        for s in range(n):
            for p in range(plan.at[s], plan.at[s + 1]):
                got[plan.rows[p]] = plan.vals[p]
            live = sum(m > s for m in used)
            g = np.concatenate([
                o.instance.grad_rows(want[i : i + 1], states[i][s : s + 1])
                for i, o in enumerate(oracles[:live])
            ])
            if tau is not None:
                g, over = clip_rows(g, tau if np.isscalar(tau) else tau[:live])
                want_clips[:live] += over
            step = eta if np.isscalar(eta) else eta[:live]
            u = want[:live] / step - g
            want[:live] = project(dom, u / (den if np.isscalar(den) else den[:live]))
            assert got.tobytes() == want.tobytes(), s
    assert np.array_equal(clips, want_clips)
    assert clips.sum() > 0 or tau is None or variant == "inf y"


def test_a_row_with_many_events_declines_the_pass():
    # q = 0.3 gives most steps an event: the pass would take about as
    # many rounds as the dense steps take steps
    a = _oracle(4, 0.6, 0.4, [1, -1, 1], q=0.3)
    used = [1024, 1024]
    events = algorithms._Events([a, a], [np.random.default_rng(s) for s in (1, 2)])
    events.draw(used)
    x = np.zeros((2, 4))
    assert events.plan(x, used, 2.5, 0.4, None, np.zeros(2, np.int64), None, AllSpace(4)) is None


def test_a_dense_sub_chunk_after_a_planned_one_reads_its_own_steps(plans):
    # per-row tiles: the stepped rows change eta inside the first sub-chunk
    # of 256 steps, again at the start of the second, which runs planned,
    # and inside the third; the third's dense steps must take the eta the
    # second started with, not the one the first's dense steps ended with
    a = _oracle(12, 0.6, 0.4, [1, -1, 1], q=0.02)
    b = _oracle(12, 0.9, 0.7, [-1, 1, 1], q=0.02)
    stepped = StubSchedule(
        lambda t: 3.0 if t < 100 else 2.5 if t <= 256 else 2.0 if t < 600 else 0.5,
        lambda t: 0.3,
    )
    rows = [(a, stepped, 1000, 31), (b, _const(2.5, 0.3), 1000, 32), (a, stepped, 1000, 33)]
    x_1 = np.resize(X_1, 12)
    batch = _run(rows, x_1)
    _check_rows(batch, rows, x_1)
    # only the second and fourth sub-chunks are steady
    assert len(plans) == 2 and all(p is not None for p in plans)
