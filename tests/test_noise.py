import contextlib
import itertools
import math
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from htclip import noise
from htclip import (
    AbsSum,
    AllSpace,
    ChunkStream,
    CompositeObjective,
    GradOracle,
    NoiseSpec,
    ScheduleParams,
    StableParams,
    d_eff_lower_bound,
    directional_bound_independent,
    estimate_moments,
    make_oracle,
    make_schedule,
    run_trials,
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


def _cms_reference(params, rng, size):
    """The CMS transform as one numpy expression per branch: the bits the
    in-place, prefix-only, split transform must reproduce."""
    alpha, beta, gamma = params.alpha, params.beta, params.gamma
    phi = rng.uniform(-math.pi / 2.0, math.pi / 2.0, size)
    w = rng.standard_exponential(size)
    if alpha == 2.0:
        return gamma * (2.0 * np.sqrt(w) * np.sin(phi))
    if beta == 0.0:
        # sines and cosines from half-angle tangents: sin x = 2 k / (1 + k^2)
        # for k = tan(x / 2), and cos theta = sin(pi/2 - |theta|)
        def sin_of_tan(k):
            return 2.0 * k / (1.0 + k * k)

        def cos_of_half(h):
            return sin_of_tan(np.tan((noise._PIO4_HI - np.abs(h)) + noise._PIO4_LO))

        x = (
            sin_of_tan(np.tan(phi * (0.5 * alpha)))
            / cos_of_half(phi * 0.5) ** (1.0 / alpha)
            * (cos_of_half(phi * (0.5 * (1.0 - alpha))) / w) ** ((1.0 - alpha) / alpha)
        )
        return gamma * x
    if alpha == 1.0:
        half_pi = math.pi / 2.0
        x = (
            (half_pi + beta * phi) * np.tan(phi)
            - beta * np.log((half_pi * w * np.cos(phi)) / (half_pi + beta * phi))
        ) / half_pi
        shift = 0.0 if gamma == 0.0 else beta * (2.0 / math.pi) * gamma * math.log(gamma)
        return gamma * x + shift
    t = math.tan(math.pi * alpha / 2.0)
    b0 = math.atan(beta * t) / alpha
    s0 = (1.0 + (beta * t) ** 2) ** (1.0 / (2.0 * alpha))
    x = (
        s0
        * np.sin(alpha * (phi + b0))
        / np.cos(phi) ** (1.0 / alpha)
        * (np.cos(phi - alpha * (phi + b0)) / w) ** ((1.0 - alpha) / alpha)
    )
    return gamma * x


# one StableParams per branch of the transform: alpha = 2, beta = 0,
# alpha = 1 and the general case
_BRANCHES = [
    StableParams(2.0, 0.3, 1.7),
    StableParams(1.5, 0.0, 0.8),
    StableParams(1.0, -0.6, 1.3),
    StableParams(1.3, 0.5, 2.0),
]


@pytest.mark.skipif(
    np.finfo(np.longdouble).nmant <= np.finfo(np.float64).nmant,
    reason="long double is no wider than float64 here",
)
@pytest.mark.parametrize("alpha, tol", [(0.5, 4e-15), (1.1, 4e-15), (1.5, 4e-15),
                                        (1.8, 4e-15), (1.99, 2e-14)])
def test_the_symmetric_transform_is_as_accurate_as_its_textbook_form(alpha, tol):
    # against the textbook expression in long double at the same (phi, w):
    # 200,000 draws, phi = -fl(pi/2) and the fill's grid points next to
    # +-pi/2, where cos(phi) is tiny and the heavy tail comes from
    rng = np.random.default_rng(29)
    n, k = 200_000, 64
    phi = rng.uniform(-math.pi / 2.0, math.pi / 2.0, n)
    edge = np.concatenate([np.arange(k), 2.0**53 - np.arange(1, k + 1)]) * 2.0**-53
    phi[: 2 * k] = edge * math.pi + -math.pi / 2.0  # as _stable_fill maps a uniform
    assert phi[0] == -np.float64(math.pi / 2.0)
    w = rng.standard_exponential(n)
    got = np.empty(n)
    noise._cms(StableParams(alpha), phi.copy(), w.copy(), got)
    p, ww, a = phi.astype(np.longdouble), w.astype(np.longdouble), np.longdouble(alpha)
    want = np.sin(a * p) / np.cos(p) ** (1 / a) * (np.cos((1 - a) * p) / ww) ** ((1 - a) / a)
    assert np.all(np.isfinite(got))
    assert np.max(np.abs(got - want) / np.abs(want)) <= tol


class TestStableSplit:
    """The transform gives the same bits for any block cut and core count."""

    # rows of 3 elements just below and above the split threshold of
    # _BLOCK elements, and a large chunk
    ROWS = [
        noise._BLOCK // 3 - 1,
        noise._BLOCK // 3 + 1,
        4 * noise._BLOCK // 3 + 7,
    ]

    @pytest.mark.parametrize("params", _BRANCHES)
    @pytest.mark.parametrize("rows", ROWS)
    @pytest.mark.parametrize("cores", [1, 2, 3, 4])
    def test_bits_match_the_reference_for_any_core_count(
        self, monkeypatch, params, rows, cores
    ):
        monkeypatch.setattr(noise, "_cores", lambda: cores)
        rng_full = np.random.default_rng(rows)
        want = _cms_reference(params, rng_full, (rows, 3))
        got = sample_alpha_stable(params, np.random.default_rng(rows), (rows, 3))
        assert np.array_equal(got, want)
        # an oracle draw of several rows, each from its own generator, is
        # cut into blocks of whole rows and goes into the strided columns
        # of an (n, rows, d) buffer with the bits of one draw per row
        n = rows // 2
        oracle = GradOracle(
            "additive-stable", NoiseSpec(1.5, 1.0, 2.0), _flat_objective(3),
            scales=np.ones(3), stable=params,
        )
        buf = np.zeros((n, 5, 3))
        oracle.draw([np.random.default_rng(s) for s in range(4)], n, out=buf[:, 1:])
        for s in range(4):
            want = _cms_reference(params, np.random.default_rng(s), (n, 3))
            assert np.array_equal(buf[:, 1 + s], want)
        assert not np.any(buf[:, 0])

    @pytest.mark.parametrize("params", _BRANCHES)
    def test_a_scalar_draw_is_the_first_entry_of_an_array_draw(self, params):
        for seed in range(200):
            one = sample_alpha_stable(params, np.random.default_rng(seed))
            assert isinstance(one, np.float64)
            assert one == sample_alpha_stable(params, np.random.default_rng(seed), 1)[0]

    def test_blocks_are_cut_at_multiples_of_8_elements(self, monkeypatch):
        monkeypatch.setattr(noise, "_cores", lambda: 4)
        cuts = []
        rows = 4 * noise._BLOCK // 3 - 7
        noise._split(lambda a, b: cuts.append((a, b)), rows, 3)
        assert len(cuts) == 4
        assert sorted(cuts)[0][0] == 0 and sorted(cuts)[-1][1] == rows
        assert all(a * 3 % 8 == 0 for a, _ in cuts)
        assert sum(b - a for a, b in cuts) == rows

    @pytest.mark.parametrize("cores", [1, 2])
    def test_a_large_transform_is_cut_into_bounded_blocks(self, monkeypatch, cores):
        # a block's temporaries stay bounded however many rows a draw has,
        # also on a caller with no idle core beside it
        monkeypatch.setattr(noise, "_cores", lambda: cores)
        cuts = []
        rows = 10 * noise._BLOCK // 64 + 3
        noise._split(lambda a, b: cuts.append((a, b)), rows, 64)
        assert sorted(cuts)[0][0] == 0 and sorted(cuts)[-1][1] == rows
        assert sum(b - a for a, b in cuts) == rows
        assert len(cuts) == 11 and all((b - a) * 64 <= noise._BLOCK for a, b in cuts)

    def test_cores_kept_busy_by_other_threads_get_no_block(self, monkeypatch):
        monkeypatch.setattr(noise, "_cores", lambda: 3)

        def blocks():
            # the claimers: _split makes one scratch for each
            claimers = []
            noise._split(lambda a, b: None, 3 * noise._BLOCK, 1, lambda most: claimers.append(most) or ())
            return len(claimers)

        assert blocks() == 3
        with noise._busy_core():  # the caller's own kernel
            assert blocks() == 3
            with noise._busy_core(), noise._busy_core():  # two more kernels
                assert blocks() == 1
        assert noise._busy == 0

    def test_a_run_trials_kernel_counts_as_busy(self):
        obj = _flat_objective(2)
        oracle = make_oracle(obj, "additive-gaussian", scales=np.ones(2))
        seen = []

        class Watched:
            objective = obj
            state_dtype = oracle.state_dtype

            def draw(self, rng, n, out):
                seen.append(noise._busy)
                return oracle.draw(rng, n, out=out)

            def grad_rows(self, X, states):
                return oracle.grad_rows(X, states)

        run_trials(
            obj, Watched(), make_schedule("cvx-ex-T", ScheduleParams(
                p=2.0, sigma_s=1.0, sigma_l=1.5, G=1.0, D=1.0, T_known=4,
            )), 4, np.zeros(2), [np.random.default_rng(0)],
        )
        assert seen == [1] and noise._busy == 0

    def test_concurrent_callers_get_their_own_bits(self, monkeypatch):
        # more callers than cores, each splitting into more blocks than
        # there are module threads, with thread switches as often as the
        # interpreter allows: a block lost or run twice changes the bits
        monkeypatch.setattr(noise, "_cores", lambda: 4)
        params = _BRANCHES[3]
        size = (4 * noise._BLOCK // 3 + 5, 3)
        want = [_cms_reference(params, np.random.default_rng(s), size) for s in range(6)]
        got = [None] * 6

        def caller(s):
            # three callers count as busy, so every caller still splits
            # into 4 - (3 - 1) = 2 blocks or more
            with noise._busy_core() if s % 2 else contextlib.nullcontext():
                got[s] = sample_alpha_stable(params, np.random.default_rng(s), size)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=caller, args=(s,)) for s in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert all(np.array_equal(g, w) for g, w in zip(got, want))
        assert noise._busy == 0

    @pytest.mark.parametrize("params", _BRANCHES)
    def test_any_element_offset_gives_the_same_bits(self, params):
        # cuts at element offsets that are not multiples of 8 still give
        # the bits of one pass on this machine's numpy
        n = 301
        want = _cms_reference(params, np.random.default_rng(5), n)
        rng = np.random.default_rng(5)
        phi = rng.uniform(-math.pi / 2.0, math.pi / 2.0, n)
        w = rng.standard_exponential(n)
        got = np.empty(n)
        cuts = [0, 1, 6, 13, 37, 64, 201, n]
        for a, b in zip(cuts, cuts[1:]):
            noise._cms(params, phi[a:b], w[a:b], got[a:b])
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("invalid", ["raise", "ignore"])
    def test_every_block_runs_under_the_caller_error_state(self, monkeypatch, invalid):
        # two blocks meet at a barrier, so one runs on a module thread; it
        # alone takes square roots of negatives, which under the default
        # error state would warn (an error in this test suite)
        monkeypatch.setattr(noise, "_cores", lambda: 2)
        x = np.random.default_rng(0).uniform(0.0, 1.0, 2 * noise._BLOCK)
        out = np.empty_like(x)
        caller = threading.get_ident()
        barrier = threading.Barrier(2, timeout=10)

        def root(a, b):
            barrier.wait()
            np.sqrt(x[a:b] - (threading.get_ident() != caller), out=out[a:b])

        with np.errstate(invalid=invalid):
            if invalid == "raise":
                with pytest.raises(FloatingPointError):
                    noise._split(root, len(x), 1)
            else:
                noise._split(root, len(x), 1)
                assert np.isnan(out).sum() == len(x) // 2

    def test_a_caller_runs_blocks_the_busy_threads_have_not_claimed(self, monkeypatch):
        # with every module thread held, a split still completes on the
        # caller alone
        monkeypatch.setattr(noise, "_cores", lambda: 4)
        release = threading.Event()
        pool = noise._executor()
        held = [pool.submit(release.wait, 10) for _ in range(pool._max_workers)]
        try:
            done = []
            rows = 4 * noise._BLOCK
            noise._split(
                lambda a, b: done.append((b - a, threading.get_ident())), rows, 1
            )
            assert len(done) == 4 and sum(n for n, _ in done) == rows
            assert {who for _, who in done} == {threading.get_ident()}
            # the split returned while every module thread is still held
            assert not release.is_set()
            assert not any(f.done() for f in held)
        finally:
            release.set()
            for f in held:
                f.result(timeout=10)


def _oracles(d):
    obj = _flat_objective(d)
    _, hard = _dv_instance(d, q=0.4, theta=0.3, M=1.2, y=0.9)
    return {
        "deterministic": make_oracle(obj, "deterministic"),
        "additive-gaussian": make_oracle(
            obj, "additive-gaussian", scales=np.linspace(0.5, 1.0, d)
        ),
        "additive-stable": make_oracle(
            obj, "additive-stable", scales=np.linspace(0.5, 1.0, d),
            stable=StableParams(1.5), p=1.2,
        ),
        "hard-instance": hard,
    }


def _draw_rows(oracle, rngs, n, out):
    """oracle.draw(rngs, n, out=out), or for hard-instance rows, whose
    many-row draw is their events, each row's codes by sample_xi."""
    if oracle.kind != "hard-instance":
        return oracle.draw(rngs, n, out=out)
    for r, rng in enumerate(rngs):
        out[:, r] = oracle.instance.sample_xi(rng, n)
    return out


@pytest.mark.parametrize(
    "kind", ["deterministic", "additive-gaussian", "additive-stable", "hard-instance"]
)
@pytest.mark.parametrize("n, m", [(1024, 1024), (1024, 257), (4096, 4095), (9, 0)])
def test_draw_into_a_prefix_matches_the_first_rows_of_a_full_draw(kind, n, m):
    # the first m states of a chunk of n, drawn through a ChunkStream in
    # two parts into strided views like the kernel's step-major buffer,
    # are the first m rows of one draw of the chunk
    oracle = _oracles(3)[kind]
    full_rng, rng = np.random.default_rng(9), np.random.default_rng(9)
    full = oracle.draw(full_rng, n)
    buf = np.full((m, 3, 3), 7, dtype=oracle.state_dtype)
    stream = ChunkStream(rng, n * 3)
    half = m // 2
    out = buf[:half, 1:2]
    assert _draw_rows(oracle, [stream], half, out) is out
    out = buf[half:, 1:2]
    assert _draw_rows(oracle, [stream], m - half, out) is out
    assert full.dtype == oracle.state_dtype
    assert np.array_equal(buf[:, 1], full[:m])
    assert np.all(buf[:, 0] == 7) and np.all(buf[:, 2] == 7)
    if m == n:
        # the whole chunk leaves rng where one draw of it does
        assert np.array_equal(rng.random(4), full_rng.random(4))


@pytest.mark.parametrize("kind", ["Philox", "SFC64", "MT19937"])
def test_a_skip_over_several_blocks_ends_where_one_draw_does(kind):
    # generators with no advance of a double's word drop the skipped
    # doubles a _BLOCK at a time; a skip over two blocks and a part leaves
    # the generator where one rng.random(k) does
    bits = getattr(np.random, kind)
    rng, ref = np.random.Generator(bits(11)), np.random.Generator(bits(11))
    rng.random(3), ref.random(3)
    k = 2 * noise._BLOCK + 5
    noise._skip_doubles(rng, k)
    ref.random(k)
    assert rng.random(6).tobytes() == ref.random(6).tobytes()
    assert rng.integers(1 << 62, size=3).tobytes() == ref.integers(1 << 62, size=3).tobytes()


@pytest.mark.parametrize("kind", ["PCG64", "PCG64DXSM"])
def test_a_skip_keeps_a_buffered_32_bit_half(kind):
    # a uint32 draw leaves half of a 64-bit word buffered, which advance
    # drops and doubles never read; a ChunkStream's skip past a chunk's
    # uniforms leaves rng where rng.random(k) does, the half still there
    bits = getattr(np.random, kind)
    rng, ref = np.random.Generator(bits(13)), np.random.Generator(bits(13))
    rng.integers(1 << 31, dtype=np.uint32), ref.integers(1 << 31, dtype=np.uint32)
    assert rng.bit_generator.state["has_uint32"] == 1
    stream = ChunkStream(rng, 40)
    assert stream.uniforms(40).random(40).tobytes() == ref.random(40).tobytes()
    assert rng.bit_generator.state == ref.bit_generator.state


@pytest.mark.parametrize(
    "kind", ["PCG64", "PCG64DXSM", "Philox", "SFC64", "MT19937"]
)
def test_a_chunk_streams_copy_draws_the_uniforms_of_its_generator(kind):
    # the copy is built with no seed hashed and then takes rng's state, so
    # each chunk's uniforms are rng.random's, and rng moves past them
    bits = getattr(np.random, kind)
    rng, ref = np.random.Generator(bits(3)), np.random.Generator(bits(3))
    rng.random(5), ref.random(5)
    stream = ChunkStream(rng, 12)
    for count in (7, 5, 12):
        got = stream.uniforms(count).random(count)
        assert got.tobytes() == ref.random(count).tobytes()
    # two chunks drawn whole leave rng where ref's draws left it
    assert rng.random(4).tobytes() == ref.random(4).tobytes()
    copy = stream.uniforms(0).bit_generator
    assert type(copy) is bits
    assert not isinstance(copy.seed_seq, np.random.SeedSequence)


# each draw holds 2 * _BLOCK elements or more (72,000 and 81,920), so on
# two idle cores it is split in two blocks or more
@pytest.mark.parametrize("d, n, rows", [(3, 24, 1000), (64, 64, 20)])
@pytest.mark.parametrize("split", [True, False])
def test_a_many_row_stable_draw_is_one_stream_draws_per_row(monkeypatch, d, n, rows, split):
    # the rows of a stable draw are filled and transformed a row block at
    # a time, by the caller and an idle module thread (split) or all by
    # the caller (two kernels keep both cores busy); either way row r
    # holds the bits of its own one-stream draws through a ChunkStream,
    # and every generator ends where those draws leave it
    monkeypatch.setattr(noise, "_cores", lambda: 2)
    cms = noise._cms
    ran = []

    def watched(params, phi, w, out):
        ran.append(threading.get_ident())
        cms(params, phi, w, out)

    oracle = _oracles(d)["additive-stable"]
    want_rngs = [np.random.default_rng(s) for s in range(rows)]
    want = []
    for rng in want_rngs:
        stream = ChunkStream(rng, 2 * n * d)
        want.append(np.concatenate([oracle.draw(stream, n), oracle.draw(stream, n)]))
    rngs = [np.random.default_rng(s) for s in range(rows)]
    streams = [ChunkStream(rng, 2 * n * d) for rng in rngs]
    out = np.empty((2 * n, rows, d))
    monkeypatch.setattr(noise, "_cms", watched)
    with contextlib.ExitStack() as busy:
        if not split:
            busy.enter_context(noise._busy_core())
            busy.enter_context(noise._busy_core())
        oracle.draw(streams, n, out=out[:n])
        oracle.draw(streams, n, out=out[n:])
    if split:
        assert len(ran) >= 4
    else:
        assert set(ran) == {threading.get_ident()}
    for r in range(rows):
        assert np.array_equal(out[:, r], want[r])
        assert rngs[r].bit_generator.state == want_rngs[r].bit_generator.state


def _stable_draw_peak(rows, d=64, n=64):
    """Traced peak of a stable draw of n states for rows rows into an
    out allocated beforehand, so not counted."""
    oracle = _oracles(d)["additive-stable"]
    rngs = [np.random.default_rng(s) for s in range(rows)]
    out = np.empty((n, rows, d))
    tracemalloc.start()
    try:
        oracle.draw(rngs, n, out=out)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("cores", [1, 2])
def test_a_stable_draws_scratch_does_not_grow_with_its_rows(monkeypatch, cores):
    # beside out, a draw holds a row block of uniforms and exponentials
    # per claiming thread, whatever its rows; holding them for every row
    # would take 16 bytes for each of the 192 x 64 x 64 more entries
    # (12 MB).  The slack is one block's float64 temporaries, by which
    # the claimers' timing can move the peak
    monkeypatch.setattr(noise, "_cores", lambda: cores)
    small, large = _stable_draw_peak(64), _stable_draw_peak(256)
    assert abs(large - small) <= 8 * noise._BLOCK


@pytest.mark.parametrize(
    "kind", ["deterministic", "additive-gaussian", "additive-stable", "hard-instance"]
)
@pytest.mark.parametrize("cores", [1, 2])
def test_draws_of_no_states_run_nothing(monkeypatch, kind, cores):
    # every draw of zero states or rows is empty, moves no generator, and
    # a zero-size chunk drawn ahead is yielded in its turn
    monkeypatch.setattr(noise, "_cores", lambda: cores)
    oracle = _oracles(3)[kind]

    def rng():
        return np.random.default_rng(4)

    fresh = rng().bit_generator.state
    moved = rng()
    states = oracle.draw(moved, 0)
    assert states.shape == (0, 3) and states.dtype == oracle.state_dtype
    for n, rows in ((0, 2), (4, 0)):
        out = np.empty((n, rows, 3), dtype=oracle.state_dtype)
        assert _draw_rows(oracle, [moved] * rows, n, out) is out
    for size in (0, (0, 3)):
        x = sample_alpha_stable(StableParams(1.5), moved, size)
        assert x.shape == np.empty(size).shape
    assert moved.bit_generator.state == fresh
    want_rng = rng()
    want = [oracle.draw(want_rng, m) for m in (5, 0, 4)]
    got = [states.copy() for states in noise._draw_ahead(oracle, moved, [5, 0, 4])]
    assert [g.shape for g in got] == [(5, 3), (0, 3), (4, 3)]
    assert all(np.array_equal(g, w) for g, w in zip(got, want))
    assert moved.bit_generator.state == want_rng.bit_generator.state


@pytest.mark.parametrize("kind", ["additive-gaussian", "additive-stable"])
@pytest.mark.parametrize("cores", [1, 2])
def test_a_one_generator_draw_has_the_bits_of_a_one_row_draw(monkeypatch, kind, cores):
    # filled straight into the result and transformed there in row
    # blocks, on every core: the states and the generator's next state
    # are a one-row draw's
    monkeypatch.setattr(noise, "_cores", lambda: cores)
    oracle = _oracles(3)[kind]
    for n in (1, 7, 3 * noise._BLOCK // 3 + 5):
        alone, row = np.random.default_rng(n), np.random.default_rng(n)
        got = oracle.draw(alone, n)
        out = np.empty((n, 1, 3))
        oracle.draw([row], n, out=out)
        assert got.shape == (n, 3)
        assert np.array_equal(got, out[:, 0])
        assert alone.bit_generator.state == row.bit_generator.state


@pytest.mark.parametrize("kind, held", [("additive-gaussian", 1), ("additive-stable", 2)])
def test_a_one_generator_draw_holds_its_result_and_exponentials(kind, held):
    # 250,000 x 4 states: the result (7.6 MiB) and, for stable noise, its
    # exponentials, beside a row block's temporaries per claimer; drawn
    # as a one-row draw, the peak was 15.3 MiB (Gaussian) and 30.5 MiB
    # (stable)
    d, n = 4, 250_000
    oracle = _oracles(d)[kind]
    oracle.draw(np.random.default_rng(0), 10)
    tracemalloc.start()
    try:
        states = oracle.draw(np.random.default_rng(1), n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= held * states.nbytes + 4 * 8 * noise._BLOCK


class TestDrawAhead:
    """noise._draw_ahead yields oracle.draw's bits, chunk by chunk, with
    the next chunk drawn on the module threads."""

    # chunks of 3 coordinates: several blocks, a one-row chunk and a
    # chunk larger than the first, which sizes the buffers
    SIZES = [4 * noise._BLOCK // 3 + 5, 1, 2 * noise._BLOCK // 3, 17_000]

    def test_buffer_fills_match_sized_draws(self):
        # the buffer fills a chunk drawn ahead makes against the sized
        # draws of the same streams
        n = (1000, 7)
        for seed in range(5):
            want, rng = np.random.default_rng(seed), np.random.default_rng(seed)
            phi = np.empty(n)
            rng.random(out=phi)
            np.multiply(phi, math.pi, out=phi)
            np.add(phi, -math.pi / 2.0, out=phi)
            assert np.array_equal(phi, want.uniform(-math.pi / 2.0, math.pi / 2.0, n))
            w = np.empty(n)
            rng.standard_exponential(out=w)
            assert np.array_equal(w, want.standard_exponential(n))
            z = np.empty(n)
            rng.standard_normal(out=z)
            assert np.array_equal(z, want.standard_normal(n))
            assert np.array_equal(rng.random(5), want.random(5))

    @pytest.mark.parametrize(
        "kind", ["deterministic", "additive-gaussian", "additive-stable", "hard-instance"]
    )
    @pytest.mark.parametrize("cores", [1, 2, 3, 4])
    def test_chunks_match_inline_draws(self, monkeypatch, kind, cores):
        monkeypatch.setattr(noise, "_cores", lambda: cores)
        oracle = _oracles(3)[kind]
        want_rng, rng = np.random.default_rng(2), np.random.default_rng(2)
        want = [oracle.draw(want_rng, m) for m in self.SIZES]
        # a chunk's buffer is reused for the chunk after next: copy it
        got = [states.copy() for states in noise._draw_ahead(oracle, rng, self.SIZES)]
        assert len(got) == len(want)
        assert all(np.array_equal(g, w) for g, w in zip(got, want))
        assert all(g.dtype == oracle.state_dtype for g in got)
        assert np.array_equal(rng.random(4), want_rng.random(4))

    @pytest.mark.parametrize("invalid", ["raise", "ignore"])
    def test_module_threads_run_under_the_caller_error_state(self, monkeypatch, invalid):
        # the caller sleeps on each chunk, so a module thread transforms
        # the next one; only there a square root of -1 is taken, which
        # under the default error state would warn (an error here)
        monkeypatch.setattr(noise, "_cores", lambda: 2)
        caller = threading.get_ident()
        on_threads = []
        cms = noise._cms

        def cms_off_caller(params, phi, w, out):
            cms(params, phi, w, out)
            if threading.get_ident() != caller:
                on_threads.append(np.sqrt(np.array([-1.0])))

        monkeypatch.setattr(noise, "_cms", cms_off_caller)
        oracle = _oracles(3)["additive-stable"]

        def read_all():
            draws = noise._draw_ahead(oracle, np.random.default_rng(0), self.SIZES)
            with contextlib.closing(draws):
                for _ in draws:
                    time.sleep(0.05)

        with np.errstate(invalid=invalid):
            if invalid == "raise":
                with pytest.raises(FloatingPointError):
                    read_all()
            else:
                read_all()
                assert on_threads and np.all(np.isnan(on_threads))

    def _watch_blocks(self, monkeypatch, fail_at=None):
        """Count the transform blocks running, and the time each ends;
        the block numbered fail_at raises instead."""
        cms = noise._cms
        calls = itertools.count()
        lock = threading.Lock()
        seen = {"running": 0, "started": 0, "ends": []}

        def watched(params, phi, w, out):
            with lock:
                seen["running"] += 1
                seen["started"] += 1
            try:
                if next(calls) == fail_at:
                    raise ValueError("a failing block")
                time.sleep(0.01)
                cms(params, phi, w, out)
            finally:
                with lock:
                    seen["running"] -= 1
                    seen["ends"].append(time.perf_counter())

        monkeypatch.setattr(noise, "_cms", watched)
        return seen

    def _check_stopped(self, seen, caught):
        # no block was running when the error reached the caller, and
        # none ran after
        time.sleep(0.1)
        assert seen["running"] == 0
        assert max(seen["ends"]) <= caught

    def _check_next_call(self, monkeypatch, oracle):
        monkeypatch.undo()
        monkeypatch.setattr(noise, "_cores", lambda: 2)
        want_rng = np.random.default_rng(3)
        want = [oracle.draw(want_rng, m) for m in self.SIZES]
        draws = noise._draw_ahead(oracle, np.random.default_rng(3), self.SIZES)
        got = [states.copy() for states in draws]
        assert all(np.array_equal(g, w) for g, w in zip(got, want))

    def test_an_error_in_a_transform_block_stops_the_draws(self, monkeypatch):
        monkeypatch.setattr(noise, "_cores", lambda: 2)
        oracle = _oracles(3)["additive-stable"]
        seen = self._watch_blocks(monkeypatch, fail_at=6)
        draws = noise._draw_ahead(oracle, np.random.default_rng(3), self.SIZES)
        with pytest.raises(ValueError, match="a failing block"):
            with contextlib.closing(draws):
                for _ in draws:
                    pass
        self._check_stopped(seen, time.perf_counter())
        self._check_next_call(monkeypatch, oracle)

    def test_an_error_in_a_fill_stops_the_draws(self, monkeypatch):
        monkeypatch.setattr(noise, "_cores", lambda: 2)
        oracle = _oracles(3)["additive-stable"]
        seen = self._watch_blocks(monkeypatch)

        class FailingRng:
            # the third chunk's exponentials fail
            def __init__(self):
                self.rng = np.random.default_rng(3)
                self.calls = 0

            def random(self, out):
                return self.rng.random(out=out)

            def standard_exponential(self, out):
                self.calls += 1
                if self.calls == 3:
                    raise ValueError("a failing fill")
                return self.rng.standard_exponential(out=out)

        draws = noise._draw_ahead(oracle, FailingRng(), self.SIZES)
        got = []
        with pytest.raises(ValueError, match="a failing fill"):
            with contextlib.closing(draws):
                for states in draws:
                    got.append(len(states))
        self._check_stopped(seen, time.perf_counter())
        assert got == self.SIZES[:2]
        self._check_next_call(monkeypatch, oracle)

    def test_an_error_in_the_caller_waits_for_the_draw_in_flight(self, monkeypatch):
        monkeypatch.setattr(noise, "_cores", lambda: 2)
        oracle = _oracles(3)["additive-stable"]
        seen = self._watch_blocks(monkeypatch)
        draws = noise._draw_ahead(oracle, np.random.default_rng(3), self.SIZES)
        with pytest.raises(KeyError):
            with contextlib.closing(draws):
                next(draws)
                # raise while a module thread transforms the second chunk
                started = seen["started"]
                while seen["started"] == started:
                    time.sleep(0.001)
                raise KeyError("the caller's loop")
        self._check_stopped(seen, time.perf_counter())
        self._check_next_call(monkeypatch, oracle)


def test_draw_rejects_a_prefix_longer_than_the_draw():
    oracle = _oracles(2)["additive-stable"]
    with pytest.raises(ValueError, match="out must be"):
        oracle.draw([np.random.default_rng(0)], 4, out=np.empty((5, 1, 2)))


# sample sizes of the property tests below; with N draws an empirical CDF
# value has standard error at most 0.5 / sqrt(N) = 0.0035, and a
# difference of two of them 0.005, so 0.025 is five standard errors
_N = 20_000
_CDF_TOL = 0.025


@settings(max_examples=25, deadline=None, derandomize=True)
@given(alpha=st.floats(0.6, 2.0), seed=st.integers(0, 2**32 - 1))
def test_stable_draws_are_symmetric_at_beta_zero(alpha, seed):
    x = sample_alpha_stable(StableParams(alpha, 0.0, 1.0), np.random.default_rng(seed), _N)
    for level in (0.25, 0.5, 0.75, 0.9):
        t = np.quantile(np.abs(x), level)
        # P(X > t) = P(X < -t)
        assert abs(np.mean(x > t) - np.mean(x < -t)) <= _CDF_TOL


@settings(max_examples=25, deadline=None, derandomize=True)
@given(
    alpha=st.floats(0.6, 2.0),
    n=st.sampled_from([2, 3, 5, 8]),
    seed=st.integers(0, 2**32 - 1),
)
def test_stable_sums_scale_as_n_to_the_one_over_alpha(alpha, n, seed):
    # X_1 + ... + X_n has the law of n^(1/alpha) X for strictly stable X
    params = StableParams(alpha, 0.0, 1.0)
    rng = np.random.default_rng(seed)
    sums = sample_alpha_stable(params, rng, (_N, n)).sum(axis=1) / n ** (1.0 / alpha)
    single = sample_alpha_stable(params, rng, _N)
    for level in (0.1, 0.25, 0.5, 0.75, 0.9):
        q = np.quantile(single, level)
        assert abs(np.mean(sums <= q) - level) <= _CDF_TOL


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
    def test_support_of_deterministic_and_gaussian_noise(self):
        obj = _flat_objective(3)
        states, probs = make_oracle(obj, "deterministic").support()
        assert np.array_equal(states, np.zeros((1, 3))) and np.array_equal(probs, np.ones(1))
        assert make_oracle(obj, "additive-gaussian", scales=np.ones(3)).support() is None

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

    @pytest.mark.parametrize("p", [1.5, 1.7])
    def test_a_declared_stable_order_not_below_alpha_is_refused(self, p):
        with pytest.raises(ValueError, match="not finite for this stability index"):
            make_oracle(
                _flat_objective(2), "additive-stable", scales=np.ones(2),
                stable=StableParams(1.5), declared_noise=NoiseSpec(p, 1.0, 1.2),
            )
        # at alpha = 2 the noise is Gaussian, so every declared p <= 2 holds
        make_oracle(
            _flat_objective(2), "additive-stable", scales=np.ones(2),
            stable=StableParams(2.0), declared_noise=NoiseSpec(2.0, 1.0, 1.2),
        )

    @pytest.mark.parametrize("kind", ["additive-gaussian", "additive-stable", "deterministic"])
    def test_grad_is_the_row_of_a_one_row_draw(self, kind):
        obj = CompositeObjective(
            f=AbsSum(np.array([2.0, 1.0, 0.5]), np.array([0.0, 1.0, -1.0])),
            r=None,
            domain=AllSpace(3),
            lipschitz_G=2.0,
        )
        oracle = make_oracle(
            obj, kind, scales=np.array([0.5, 1.0, 2.0]), stable=StableParams(1.8), p=1.5,
        )
        x = np.array([0.3, -1.0, 2.0])
        for seed in range(20):
            rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
            got = oracle.grad(x, rng)
            want = oracle.grad_rows(x[None], oracle.draw(ref, 1))[0]
            assert got.shape == (3,) and np.array_equal(got, want)
            assert rng.bit_generator.state == ref.bit_generator.state

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

    def test_independent_zero_scales(self):
        assert d_eff_lower_bound("independent", sigmas=[0.0, 0.0], p=1.5) == 0.0

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
