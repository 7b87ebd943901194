"""Rows with a state buffer (Gaussian and alpha-stable noise) take the
kernel's one step body: u = x/eta (or the stabilized numerator), u -= g,
then the prox steps' shared tail.  These tests hold the kernel to a
reference built from the public steps, one row and one step at a time,
bit for bit."""

import math

import numpy as np
import pytest

from htclip import (
    NOISE_CHUNK,
    AllSpace,
    Ball,
    CompositeObjective,
    EuclidNorm,
    QuadReg,
    StableParams,
    make_oracle,
    prox_step,
    run_trials,
    stabilized_prox_step,
    weighted_avg_weight,
)
from htclip._util import clip_rows

from test_algorithms import StubSchedule

CENTER = np.array([0.1, 0.3, -0.7])


def _objective(kind: str) -> CompositeObjective:
    """d = 3: the whole space, an offset ball, or that ball with a
    quadratic regularizer (mu > 0)."""
    f = EuclidNorm(1.0, CENTER + 0.2)
    if kind == "space":
        return CompositeObjective(f=f, r=None, domain=AllSpace(3), lipschitz_G=1.0)
    ball = Ball(CENTER, 0.5)
    if kind == "ball":
        return CompositeObjective(f=f, r=None, domain=ball, lipschitz_G=1.0)
    reg = QuadReg(0.5, np.array([0.2, -0.1, 0.3]))
    return CompositeObjective(f=f, r=reg, domain=ball, lipschitz_G=1.0, mu=0.5)


def _oracle(noise: str, obj: CompositeObjective):
    scales = np.array([0.4, 1.0, 2.5])
    if noise == "gaussian":
        return make_oracle(obj, "additive-gaussian", scales=scales)
    return make_oracle(obj, "additive-stable", scales=scales, stable=StableParams(1.8), p=1.5)


def _reference(oracle, schedule, T: int, x_1, seed: int, stabilized: bool) -> tuple:
    """One row run a step at a time: its states from whole NOISE_CHUNK
    draws of its generator, the oracle's gradient row, clip_rows at every
    step, and the checked public prox steps.  Returns x, the plain and
    weighted averages and the clip count after step T, and the steps
    whose iterate lies on the boundary of a ball domain."""
    obj = oracle.objective
    rng = np.random.default_rng(seed)
    states = np.concatenate([oracle.draw(rng, NOISE_CHUNK) for _ in range(-(-T // NOISE_CHUNK))])
    x = np.array(x_1, dtype=float)
    mean, wavg, wsum, clips = np.zeros_like(x), np.zeros_like(x), 0.0, 0
    dom, bound = obj.domain, 0
    for t in range(1, T + 1):
        g = oracle.grad_rows(x[None, :], states[t - 1][None, :])
        g, over = clip_rows(g, schedule.tau(t))
        clips += int(over[0])
        eta = schedule.eta(t)
        if stabilized:
            eta_next = min(schedule.eta(t + 1), eta)
            x = stabilized_prox_step(obj.r, obj.domain, x, x_1, g[0], eta, eta_next)
        else:
            x = prox_step(obj.r, obj.domain, x, g[0], eta)
        if isinstance(dom, Ball):
            bound += bool(np.isclose(np.linalg.norm(x - dom.center), dom.radius))
        mean += (x - mean) / t
        w = weighted_avg_weight(t)
        wsum += w
        wavg += (w / wsum) * (x - wavg)
    return x, mean, wavg, clips, bound


FALLING = StubSchedule(lambda t: 0.8 / math.sqrt(t), lambda t: 0.9)
SCHEDULES = {
    "one": [FALLING] * 5,
    # per-row steps that change mid-chunk, and a tau that clips only
    # from the second chunk on
    "rows": [
        FALLING,
        StubSchedule(lambda t: 0.6 if t <= 600 else 0.1, lambda t: 0.9),
        FALLING,
        StubSchedule(lambda t: 0.05, lambda t: math.inf if t <= NOISE_CHUNK else 0.4),
        StubSchedule(lambda t: 0.3, lambda t: 0.2),
    ],
}
# longest first; three end inside a noise chunk
HORIZONS = [1030, 1030, 700, 300, 5]


@pytest.mark.parametrize("noise", ["gaussian", "stable"])
@pytest.mark.parametrize("problem, stabilized", [
    ("space", False), ("space", True), ("ball", False), ("ball", True), ("quad-ball", False),
])
@pytest.mark.parametrize("schedules", sorted(SCHEDULES))
def test_rows_equal_a_step_by_step_reference(noise, problem, stabilized, schedules):
    oracle = _oracle(noise, _objective(problem))
    rows = SCHEDULES[schedules]
    schedule = rows[0] if schedules == "one" else rows
    x_1 = CENTER + np.array([0.2, -0.1, 0.25])
    seeds = [11, 12, 13, 14, 15]
    batch = run_trials(
        oracle.objective, oracle, schedule, HORIZONS[0], x_1,
        [np.random.default_rng(s) for s in seeds], stabilized=stabilized, horizons=HORIZONS,
    )
    bound = 0
    for i, (sched, T, seed) in enumerate(zip(rows, HORIZONS, seeds)):
        x, mean, wavg, clips, on = _reference(oracle, sched, T, x_1, seed, stabilized)
        assert batch.x_last[i].tobytes() == x.tobytes(), i
        assert batch.avg_plain[i].tobytes() == mean.tobytes(), i
        assert batch.avg_weighted[i].tobytes() == wavg.tobytes(), i
        assert batch.clip_events[i] == clips, i
        bound += on
    assert batch.clip_events.sum() > 0
    # a ball's projection moves some iterates onto its boundary
    assert (bound > 0) == (problem != "space")
