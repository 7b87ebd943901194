"""Hard-instance rows take their gradients from events: the nonzero states
of a sub-chunk, with the gradient subtracted only at rows that have one.
These tests hold the kernel to a dense reference, step by step and bit
for bit."""

import math
from dataclasses import replace

import numpy as np
import pytest

from htclip import (
    NOISE_CHUNK,
    ChunkStream,
    HardParams,
    make_hard_instance,
    prox_step,
    run_trials,
    stabilized_prox_step,
    weighted_avg_weight,
)
from htclip import algorithms
from htclip._util import clip_rows

from test_algorithms import StubSchedule
from test_hardness import _codes_reference

# x_1 entries: -5e-324 / eta underflows to -0.0 for eta >= 2, where the
# dense step subtracts a zero gradient entry of -0.0 and gets +0.0;
# coordinate 3 is inactive, so its gradient entries are always zero
X_1 = np.array([-5e-324, -0.0, 0.0, -5e-324])


def _oracle(kind: str, M: float, y: float, v, q: float = 0.2):
    """A hard instance of d = 4 with the first 3 coordinates active."""
    params = HardParams(
        regime=f"{kind}-fano", d_star=3, T=1, G=M * math.sqrt(3), D=1.0,
        mu=0.5 if kind == "str" else 0.0, sigma_l=0.0, sigma_s=0.0, p=1.5,
        delta=None, q=q, theta=0.3, M=M, y=y if kind == "cvx" else 0.0,
    )
    return make_hard_instance(kind, 4, 3, params, np.asarray(v, float))[1]


def _reference(oracle, schedule, T: int, x_1, seed: int, stabilized: bool) -> tuple:
    """One row run a step at a time: the dense gradient row of the row's
    state (HardInstance.grad_rows), clip_rows at every step, and the
    checked prox steps' closed forms.  Returns x, the plain and weighted
    averages and the clip count after step T."""
    inst, obj = oracle.instance, oracle.objective
    states = _codes_reference(inst, np.random.default_rng(seed).random((T, inst.d)))
    x = np.array(x_1, dtype=float)
    mean, wavg, wsum, clips = np.zeros_like(x), np.zeros_like(x), 0.0, 0
    for t in range(1, T + 1):
        g = inst.grad_rows(x[None, :], states[t - 1][None, :])
        g, over = clip_rows(g, schedule.tau(t))
        clips += int(over[0])
        eta = schedule.eta(t)
        if stabilized:
            eta_next = min(schedule.eta(t + 1), eta)
            x = stabilized_prox_step(obj.r, obj.domain, x, x_1, g[0], eta, eta_next)
        else:
            x = prox_step(obj.r, obj.domain, x, g[0], eta)
        mean += (x - mean) / t
        w = weighted_avg_weight(t)
        wsum += w
        wavg += (w / wsum) * (x - wavg)
    return x, mean, wavg, clips


# each row's tau_t: "skip" never clips a chunk, "clip" clips every
# chunk, "mixed" skips the first chunk and clips the second
TAUS = {
    "skip": lambda t: math.inf,
    "clip": lambda t: 0.3,
    "mixed": lambda t: math.inf if t <= NOISE_CHUNK else 0.3,
}


@pytest.mark.parametrize("kind, stabilized", [("cvx", False), ("cvx", True), ("str", False)])
@pytest.mark.parametrize("taus", sorted(TAUS))
def test_rows_equal_a_dense_step_by_step_reference(monkeypatch, kind, stabilized, taus):
    tau = TAUS[taus]
    a = _oracle(kind, 0.6, 0.4, [1, -1, 1])
    b = _oracle(kind, 0.9, 0.7, [-1, 1, 1])
    falling = StubSchedule(lambda t: 2.5 / math.sqrt(t), tau)
    stepped = StubSchedule(lambda t: 3.0 if t <= 600 else 0.5, tau)
    small = StubSchedule(lambda t: 0.05, tau)
    rows = [  # (oracle, schedule, horizon, seed), longest horizon first
        (a, falling, 1100, 1),
        (b, stepped, 1100, 2),
        (a, falling, 1030, 3),
        (a, falling, 1030, 4),
        (b, small, 700, 5),
        (a, stepped, 5, 6),
    ]
    clipped = []
    clip = algorithms.clip_rows

    def counted(g, bound):
        clipped.append(len(g))
        return clip(g, bound)

    monkeypatch.setattr(algorithms, "clip_rows", counted)
    batch = run_trials(
        a.objective, [r[0] for r in rows], [r[1] for r in rows], 1100, X_1,
        [np.random.default_rng(r[3]) for r in rows], stabilized=stabilized,
        horizons=[r[2] for r in rows],
    )
    # a clipping chunk clips the rows with a nonzero state, a few at a step
    assert (clipped == []) == (taus == "skip")
    assert all(n > 0 for n in clipped) and np.mean(clipped or [0]) < 2.5
    flipped = 0
    for i, (oracle, schedule, T, seed) in enumerate(rows):
        x, mean, wavg, clips = _reference(oracle, schedule, T, X_1, seed, stabilized)
        assert batch.x_last[i].tobytes() == x.tobytes(), i
        assert batch.avg_plain[i].tobytes() == mean.tobytes(), i
        assert batch.avg_weighted[i].tobytes() == wavg.tobytes(), i
        assert batch.clip_events[i] == clips, i
        if taus == "skip" or T <= NOISE_CHUNK and taus == "mixed":
            assert clips == 0, i
        flipped += not np.signbit(x[3])
    assert batch.clip_events.sum() > 0 or taus == "skip"
    if not stabilized:
        # the -0.0 of -5e-324 / eta became +0.0 in the rows whose first eta >= 2
        assert flipped == 5


def _steps(kind: str, variant=None):
    """Eight rows of two instances (alternating, so every run of rows is
    one row), their generators' seeds, and x rows with zeros, subnormals,
    infinities and nan."""
    a = _oracle(kind, 0.6, 0.4, [1, -1, 1], q=0.3)
    b = _oracle(kind, 0.9, 0.7, [-1, 1, 1], q=0.3)
    if variant == "inf y":
        # an infinite y on the inactive coordinate makes its zero
        # states' cvx gradient entries nan (0 * inf), in every row
        inf = replace(a.instance, y=np.array([0.4, 0.4, 0.4, np.inf]))
        a = replace(a, instance=inf)
    if variant == "zero M":
        # every gradient entry is +-0.0, -0.0 - (+0.0) at a -1 state of
        # an x < 0 whose x / eta is -0.0
        b = replace(b, instance=replace(b.instance, M=np.zeros(4)))
    values = [-5e-324, -0.0, 0.0, 5e-324, -1e-310, np.nan, np.inf, -np.inf, 0.7, -2.3]
    x = np.resize(values, (8, 4))
    x[1::2] = x[1::2, ::-1]
    return [a, b] * 4, list(range(10, 18)), x


@pytest.mark.parametrize(
    "kind, variant", [("cvx", None), ("cvx", "inf y"), ("cvx", "zero M"), ("str", None)]
)
@pytest.mark.parametrize("tau", [None, 0.3, "rows"])
def test_each_step_subtracts_the_dense_gradient_rows(kind, variant, tau):
    # at every step, u - g for the dense gradient rows g of all rows, with
    # u = x / eta underflowing to -0.0 at -5e-324 / 2.5
    oracles, seeds, x = _steps(kind, variant)
    if tau == "rows":
        tau = np.linspace(0.2, 1.2, len(seeds))
    n, eta = 64, 2.5
    states = [o.instance.sample_xi(np.random.default_rng(s), n) for o, s in zip(oracles, seeds)]
    want_clips = np.zeros(len(seeds), np.int64)
    clips = np.zeros(len(seeds), np.int64)
    # as run_trials does, for the nan and infinite entries and the
    # underflows
    with np.errstate(invalid="ignore", over="ignore"):
        events = algorithms._Events(oracles, [np.random.default_rng(s) for s in seeds])
        events.draw([n] * len(seeds))
    with np.errstate(invalid="ignore", over="ignore", under="call", call=events.underflowed):
        for pos in range(n):
            g = np.concatenate([
                o.instance.grad_rows(x[i : i + 1], states[i][pos : pos + 1])
                for i, o in enumerate(oracles)
            ])
            if tau is not None:
                g, over = clip_rows(g, tau)
                want_clips += over
            want = x / eta - g
            got = x / eta
            events.subtract(pos, x, got, tau, clips)
            assert got.tobytes() == want.tobytes(), pos
    assert np.array_equal(clips, want_clips)
    if tau is not None and variant != "zero M":
        assert clips.sum() > 0


def test_events_are_the_nonzero_states_of_a_dense_draw():
    # every run of rows, of one oracle and count, draws its events in one
    # call; the events are the dense draw's nonzero entries, and each
    # generator ends where the dense draw leaves it
    oracles, seeds, _ = _steps("cvx")
    oracles = oracles[:1] * 5 + oracles[1:2] * 3
    used = [100, 100, 100, 37, 37, 37, 1, 0]
    rngs = [np.random.default_rng(s) for s in seeds]
    events = algorithms._Events(oracles, rngs)
    calls = []
    for o in {id(o): o for o in oracles}.values():
        sample = o.instance.sample_events

        def noted(rngs, n, sample=sample):
            calls.append((len(rngs), n))
            return sample(rngs, n)

        object.__setattr__(o.instance, "sample_events", noted)
    events.draw(used)
    assert calls == [(3, 100), (2, 37), (1, 37), (1, 1), (1, 0)]
    want = np.zeros((100, len(seeds), 4), np.int8)
    for i, (o, s) in enumerate(zip(oracles, seeds)):
        ref = np.random.default_rng(s)
        want[: used[i], i] = o.instance.sample_xi(ref, used[i])
        assert rngs[i].bit_generator.state == ref.bit_generator.state
    got = np.zeros_like(want)
    at, grouped, parts = events._grouped()
    for pos in range(100):
        p, q = at[pos], at[pos + 1]
        rows = grouped[p:q]
        assert np.all(np.diff(rows) > 0)
        # the parts of a cvx row: code * y (y > 0 where a code may be
        # nonzero) and |code| * M
        got[pos, rows] = np.sign(parts[0][p:q])
        assert np.all(np.any(want[pos, rows] != 0, axis=1))
    assert np.array_equal(got, want)


@pytest.mark.parametrize("d", [1, 4, 12, 64])
@pytest.mark.parametrize("kind", ["cvx", "str"])
def test_sample_events_are_the_nonzero_entries_of_one_row_draws(kind, d):
    # one threshold rule, in row blocks of the event scratch, past a
    # NOISE_CHUNK of states, over generators and ChunkStreams alike
    from test_hardness import _instance

    inst = _instance(kind, d).instance
    for rows in (1, 7, 40):
        for n in (0, 1, 255, NOISE_CHUNK, NOISE_CHUNK + 300):
            seeds = [100 * rows + n + r for r in range(rows)]
            dense = [np.random.default_rng(s) for s in seeds]
            out = np.empty((n, rows, d), np.int8)
            for r, gen in enumerate(dense):
                out[:, r] = inst.sample_xi(gen, n)
            gens = [np.random.default_rng(s) for s in seeds]
            streams = [ChunkStream(g, 3) if r % 2 else g for r, g in enumerate(gens)]
            step, row, col, code = inst.sample_events(streams, n)
            # in the order they are drawn: by row, then step, then coordinate
            by_row = out.transpose(1, 0, 2)
            at = np.nonzero(by_row)
            assert np.array_equal(row, at[0]) and np.array_equal(step, at[1])
            assert np.array_equal(col, at[2]) and np.array_equal(code, by_row[at])
            assert code.dtype == np.int8
            for a, b in zip(dense, gens):
                assert a.bit_generator.state == b.bit_generator.state
