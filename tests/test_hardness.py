import itertools
import math
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest

from htclip import (
    HARD_REGIMES,
    ChunkStream,
    eval_F,
    eval_F_batch,
    gv_codebook,
    hard_params,
    make_hard_instance,
    pad_codewords,
    sample_dv,
    two_point_codebook,
)
from htclip.algorithms import NOISE_CHUNK
from htclip.hardness import GV_MAX_D_STAR

import oracles


def _fano_cvx(d_star=1, T=100, G=1.0, D=1.0, sigma_l=1.0, p=1.5):
    return hard_params(
        "cvx-fano", d_star=d_star, T=T, G=G, D=D, sigma_l=sigma_l, p=p
    )


class TestHardParams:
    def test_cvx_fano_resolution(self):
        params = _fano_cvx(d_star=4, T=100, G=2.0, D=3.0, sigma_l=1.0)
        assert params.q == pytest.approx(0.01)
        assert params.theta == pytest.approx(0.1)
        assert params.y == pytest.approx(1.5)
        assert params.M == pytest.approx(
            min(2.0 / (0.01 * 2.0), 1.0 / (4.0 * 0.01 * 4.0) ** (1.0 / 1.5))
        )
        assert params.sigma_s == pytest.approx(0.5)

    def test_twopoint_q_worked_example(self):
        params = hard_params(
            "cvx-twopoint", d_star=1, T=2, G=10.0, D=1.0, sigma_l=10.0,
            p=1.5, delta=1.0 / (8.0 * math.e),
        )
        assert params.theta == pytest.approx(0.5)
        assert params.q == pytest.approx(1.0 / math.log(3.0), rel=1e-12)
        assert params.q == pytest.approx(0.9102392266268373, rel=1e-12)

    def test_twopoint_q_caps_at_one(self):
        params = hard_params(
            "cvx-twopoint", d_star=1, T=1, G=10.0, D=1.0, sigma_l=10.0,
            p=1.5, delta=1e-12,
        )
        assert params.q == 1.0

    def test_twopoint_requires_small_delta(self):
        with pytest.raises(ValueError, match="1/8"):
            hard_params(
                "cvx-twopoint", d_star=1, T=2, G=1.0, D=1.0, sigma_l=1.0,
                p=1.5, delta=0.2,
            )

    def test_str_fano_min_branches(self):
        # tiny D, G, or sigma_l each pin the corresponding branch
        base = dict(d_star=4, T=50, sigma_l=10.0, p=1.5, mu=2.0)
        q, th, rd = 1.0 / 50.0, 0.1, 2.0
        pd = hard_params("str-fano", G=100.0, D=0.001, **base)
        assert pd.M == pytest.approx(0.001 / (th * q * rd))
        pg = hard_params("str-fano", G=0.001, D=100.0, **base)
        assert pg.M == pytest.approx(0.001 / (2.0 * th * q * rd))
        ps = hard_params(
            "str-fano", G=100.0, D=100.0, d_star=4, T=50, sigma_l=0.001,
            p=1.5, mu=2.0,
        )
        assert ps.M == pytest.approx(
            0.001 / (2.0 * (4.0 * q * 4.0) ** (1.0 / 1.5))
        )

    def test_regime_mu_consistency(self):
        with pytest.raises(ValueError):
            hard_params("str-fano", d_star=1, T=2, G=1.0, D=1.0, sigma_l=1.0, p=1.5)
        with pytest.raises(ValueError):
            hard_params(
                "cvx-fano", d_star=1, T=2, G=1.0, D=1.0, sigma_l=1.0,
                p=1.5, mu=1.0,
            )
        with pytest.raises(ValueError):
            hard_params("cvx-mid", d_star=1, T=2, G=1.0, D=1.0, sigma_l=1.0, p=1.5)

    def test_regime_tuple(self):
        assert HARD_REGIMES == (
            "cvx-fano", "cvx-twopoint", "str-fano", "str-twopoint"
        )


class TestSampleDv:
    def test_inactive_coordinates_pinned(self):
        params = _fano_cvx(d_star=2, T=10)
        obj, oracle = make_hard_instance("cvx", 5, 2, params, np.array([1.0, -1.0]))
        draws = sample_dv(oracle.instance, np.random.default_rng(0), 200)
        assert np.all(draws[:, 2:] == 0.0)
        assert set(np.unique(draws)) <= {-1.0, 0.0, 1.0}

    def test_frequencies(self):
        from test_problems import _dv_instance

        obj, oracle = _dv_instance(1, q=0.5, theta=0.1, M=1.0, y=1.0)
        draws = sample_dv(oracle.instance, np.random.default_rng(0), 100_000)[:, 0]
        assert np.mean(draws == 0.0) == pytest.approx(0.5, abs=0.005)
        assert np.mean(draws == 1.0) == pytest.approx(0.275, abs=0.005)
        assert np.mean(draws == -1.0) == pytest.approx(0.225, abs=0.005)

    def test_sign_flip_with_v(self):
        from test_problems import _dv_instance

        obj, oracle = _dv_instance(1, q=0.5, theta=0.4, M=1.0, y=1.0)
        inst = oracle.instance
        flipped = make_hard_instance(
            "cvx", 1, 1,
            _fano_params_like(inst), np.array([-1.0]),
        )[1].instance
        a = sample_dv(inst, np.random.default_rng(1), 50_000)
        b = sample_dv(flipped, np.random.default_rng(2), 50_000)
        assert np.mean(a) == pytest.approx(0.2, abs=0.02)
        assert np.mean(b) == pytest.approx(-0.2, abs=0.02)

    def test_single_draw_shape(self):
        params = _fano_cvx(d_star=2, T=10)
        obj, oracle = make_hard_instance("cvx", 2, 2, params, np.ones(2))
        one = sample_dv(oracle.instance, np.random.default_rng(0))
        assert one.shape == (2,)


def _codes_reference(inst, u):
    """The codes of uniforms u as the three-comparison expression makes them."""
    lo, hi = inst._thresholds
    xi = (u < hi).view(np.int8) * np.int8(2) - np.int8(1)
    xi *= (u >= lo).view(np.int8)
    return xi


def _cvx_instance(d, d_star=4, T=300, v=None):
    params = _fano_cvx(d_star=d_star, T=T)
    v = np.ones(d_star) if v is None else np.asarray(v, float)
    return make_hard_instance("cvx", d, d_star, params, v)[1].instance


class _OnThresholds:
    """An rng whose uniforms sit on, and one ulp beside, each threshold."""

    def __init__(self, inst):
        lo, hi = inst._thresholds
        self.cols = np.stack(
            [lo, hi, np.nextafter(lo, 0.0), np.nextafter(hi, 0.0),
             np.nextafter(lo, 1.0), np.nextafter(hi, 1.0), np.zeros_like(lo)]
        )

    def random(self, shape):
        n, d = shape
        return np.resize(self.cols, (n, d))


class TestSampleXiCodes:
    @pytest.mark.parametrize("d", [4, 12])
    @pytest.mark.parametrize("m", [None, 1024, 700, 1])
    def test_codes_match_reference_expression(self, d, m):
        inst = _cvx_instance(d, v=[1, -1, 1, -1])
        n = 1024 if m is None else m
        for seed in range(40):
            got = inst.sample_xi(np.random.default_rng(seed), n)
            u = np.random.default_rng(seed).random((n, d))
            assert got.dtype == np.int8
            assert np.array_equal(got, _codes_reference(inst, u))

    @pytest.mark.parametrize("d", [4, 12])
    def test_uniforms_on_the_thresholds(self, d):
        inst = _cvx_instance(d, v=[1, -1, -1, 1])
        stub = _OnThresholds(inst)
        # draws longer and shorter than the one before: a draw keeps
        # nothing from the last
        for n in (7, 13, 1024, 13):
            got = inst.sample_xi(stub, n)
            want = _codes_reference(inst, stub.random((n, d)))
            assert np.array_equal(got, want)
        # a uniform equal to lo is the +1 mass, one equal to hi the -1 mass
        lo, hi = inst._thresholds
        codes = inst.sample_xi(stub, 7)
        assert np.all(codes[0, :4] == np.where(hi[:4] > lo[:4], 1, -1))
        assert np.all(codes[1, :4] == -1)

    @pytest.mark.parametrize("d", [4, 64])
    def test_draws_past_a_noise_chunk_match_the_reference(self, d):
        inst = _cvx_instance(d, v=[1, -1, 1, -1])
        stub = _OnThresholds(inst)
        for n in (5, 3 * NOISE_CHUNK + 5, NOISE_CHUNK, 2 * NOISE_CHUNK):
            got = inst.sample_xi(stub, n)
            assert np.array_equal(got, _codes_reference(inst, stub.random((n, d))))
            got = inst.sample_xi(np.random.default_rng(n), n)
            u = np.random.default_rng(n).random((n, d))
            assert np.array_equal(got, _codes_reference(inst, u))

    def test_rng_stream_continues_as_after_a_full_draw(self):
        inst = _cvx_instance(4)
        for n in (1, 10, 1024):
            a = np.random.default_rng(3)
            inst.sample_xi(a, n)
            b = np.random.default_rng(3)
            b.random((n, 4))
            assert np.array_equal(a.random(16), b.random(16))


class _Shifted(_OnThresholds):
    """_OnThresholds with its rows shifted by r, so that rows differ."""

    def __init__(self, inst, r):
        super().__init__(inst)
        self.cols = np.roll(self.cols, r, axis=0)


def _edge_instance():
    """A cvx instance with theta = 1: coordinates 1 and 3 have v theta = -1,
    so hi == lo there, and coordinates 4 and 5 are padding with q = 0."""
    from htclip import HardParams

    params = HardParams(
        regime="cvx-fano", d_star=4, T=1, G=1.0, D=1.0, mu=0.0, sigma_l=0.0,
        sigma_s=0.0, p=1.5, delta=None, q=0.3, theta=1.0, M=1.0, y=0.5,
    )
    return make_hard_instance("cvx", 6, 4, params, np.array([1.0, -1.0, 1.0, -1.0]))[1].instance


class TestEventRuleCorners:
    """sample_events, which compares the uniforms with hi only where they
    reach lo, against per-row sample_xi draws and the three-comparison
    expression, at the rule's corners."""

    @staticmethod
    def _check(inst, make_rng, rows, n):
        d = inst.d
        step, row, col, code = inst.sample_events([make_rng(r) for r in range(rows)], n)
        key = (row * n + step) * d + col
        assert np.all(np.diff(key) > 0) and np.all(code != 0)
        got = np.zeros((n, rows, d), np.int8)
        got[step, row, col] = code
        for r in range(rows):
            want = inst.sample_xi(make_rng(r), n)
            assert np.array_equal(got[:, r], want), (rows, n, r)
            assert np.array_equal(want, _codes_reference(inst, make_rng(r).random((n, d))))

    @pytest.mark.parametrize("n", [1, 7, NOISE_CHUNK, NOISE_CHUNK + 5, 3 * NOISE_CHUNK])
    @pytest.mark.parametrize("rows", [1, 3])
    def test_uniforms_on_and_below_the_thresholds(self, rows, n):
        for inst in (_cvx_instance(4, v=[1, -1, -1, 1]), _edge_instance()):
            self._check(inst, lambda r: _Shifted(inst, r), rows, n)

    def test_equal_thresholds_and_padding(self):
        inst = _edge_instance()
        lo, hi = inst._thresholds
        assert np.array_equal(hi[[1, 3]], lo[[1, 3]]) and np.all(lo[4:] == 1.0)
        # a uniform at lo = hi is the -1 mass, one ulp below it 0
        codes = inst.sample_xi(_Shifted(inst, 0), 7)
        assert np.all(codes[0, [1, 3]] == -1) and np.all(codes[2, [1, 3]] == 0)
        # where v theta = 1, hi is 1: only a uniform of 1, which no
        # generator draws, is -1
        assert np.all(codes[[0, 3], :][:, [0, 2]] == 1) and np.all(codes[1, [0, 2]] == -1)

    @pytest.mark.parametrize("n", [NOISE_CHUNK + 5, 2 * NOISE_CHUNK])
    def test_generators_past_a_noise_chunk(self, n):
        for inst in (_cvx_instance(12, v=[1, -1, 1, -1]), _edge_instance()):
            self._check(inst, lambda r: np.random.default_rng(100 + r), 9, n)
            gen = np.random.default_rng(7)
            inst.sample_events([gen], n)
            ref = np.random.default_rng(7)
            ref.random((n, inst.d))
            assert gen.bit_generator.state == ref.bit_generator.state


def _instance(kind, d):
    """A hard instance of d coordinates, the first min(d, 4) active."""
    d_star = min(d, 4)
    params = hard_params(
        f"{kind}-fano", d_star=d_star, T=3, G=1.0, D=1.0, sigma_l=2.0, p=1.5,
        mu=0.5 if kind == "str" else 0.0,
    )
    v = np.resize([1.0, -1.0, -1.0, 1.0], d_star)
    return make_hard_instance(kind, d, d_star, params, v)[1]


class TestManyRows:
    """Many rows are drawn as their events (sample_events, see
    test_events): a dense draw of many rows is refused, and a row drawn
    alone, from a generator or a ChunkStream over one, gives the
    reference codes and leaves the generator where its uniforms do."""

    @pytest.mark.parametrize("d", [1, 4, 12])
    @pytest.mark.parametrize("kind", ["cvx", "str"])
    def test_rows_equal_one_row_draws(self, kind, d):
        oracle = _instance(kind, d)
        inst = oracle.instance
        for rows in (1, 3, 8, 9, 200):
            for n in (0, 1, 255, 1024, 4095):
                seeds = [1000 * rows + n + r for r in range(rows)]
                gens = [np.random.default_rng(s) for s in seeds]
                out = np.full((n, rows, d), 7, dtype=np.int8)
                for r, gen in enumerate(gens):
                    out[:, r] = inst.sample_xi(gen, n)
                # the kernel's streams: ChunkStreams
                streams = [ChunkStream(np.random.default_rng(s), 3) for s in seeds]
                drawn = np.empty_like(out)
                for r, stream in enumerate(streams):
                    drawn[:, r] = inst.sample_xi(stream, n)
                for r, seed in enumerate(seeds):
                    one = np.random.default_rng(seed)
                    want = inst.sample_xi(one, n)
                    u = np.random.default_rng(seed).random((n, d))
                    assert np.array_equal(want, _codes_reference(inst, u))
                    assert np.array_equal(out[:, r], want), (rows, n, r)
                    assert np.array_equal(drawn[:, r], want), (rows, n, r)
                    state = one.bit_generator.state
                    assert gens[r].bit_generator.state == state
                    assert streams[r].rng.bit_generator.state == state

    def test_a_dense_many_row_draw_is_refused(self):
        oracle = _instance("cvx", 4)
        gens = [np.random.default_rng(s) for s in range(3)]
        with pytest.raises(ValueError, match="sample_events"):
            oracle.draw(gens, 8, out=np.empty((8, 3, 4), np.int8))


class TestOneThresholdRule:
    """Every draw compares its uniforms with the least lo over the
    coordinates, then takes the per-column rule where they reach it."""

    @staticmethod
    def _uneven_instance():
        """Active coordinates with four different q, and two padding
        coordinates (q = 0, so lo = hi = 1)."""
        inst = _cvx_instance(6, v=[1, -1, 1, -1])
        return replace(inst, q=np.array([0.3, 0.05, 0.6, 0.01, 0.0, 0.0]))

    @pytest.mark.parametrize("n", [7, NOISE_CHUNK + 5])
    def test_per_coordinate_thresholds(self, n):
        inst = self._uneven_instance()
        lo, _ = inst._thresholds
        assert len(set(lo[:4])) == 4 and np.all(lo[4:] == 1.0)
        # every threshold and its neighbours, in every column
        cross = _OnThresholds(inst)
        cross.cols = np.repeat(np.unique(cross.cols)[:, None], inst.d, axis=1)
        makers = (
            lambda r: _Shifted(inst, r),
            lambda r: cross,
            lambda r: np.random.default_rng(500 + r),
        )
        for make_rng in makers:
            u = make_rng(0).random((n, inst.d))
            want = _codes_reference(inst, u)
            assert np.array_equal(inst.sample_xi(make_rng(0), n), want)
            for r in range(3):
                got = inst.sample_xi(make_rng(r), n)
                assert np.array_equal(got, _codes_reference(inst, make_rng(r).random((n, 6))))
            TestEventRuleCorners._check(inst, make_rng, 3, n)
            # some uniforms reach the least lo but not their own column's
            assert np.any((u >= inst._least_lo) & (want == 0))

    def test_a_draw_writes_nothing_to_its_instance(self):
        # threads share an instance: a draw may not store on it
        inst = _cvx_instance(4, v=[1, -1, 1, -1])
        before = dict(vars(inst))
        n = NOISE_CHUNK + 5

        def draws(seed):
            def gens():
                return [np.random.default_rng(seed + r) for r in range(3)]

            xi = inst.sample_xi(np.random.default_rng(seed), n)
            out = np.stack([inst.sample_xi(g, n) for g in gens()], axis=1)
            return (xi, out, *inst.sample_events(gens(), n))

        seeds = [10, 20, 30, 40, 50, 60]
        # more threads than cores, switched often, so that the draws interleave
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=3) as pool:
                got = list(pool.map(draws, seeds, timeout=120))
        finally:
            sys.setswitchinterval(interval)
        assert vars(inst).keys() == before.keys()
        assert all(vars(inst)[k] is v for k, v in before.items())
        for seed, arrays in zip(seeds, got):
            for a, b in zip(arrays, draws(seed)):
                assert np.array_equal(a, b)


def _fano_params_like(inst):
    from htclip import HardParams

    return HardParams(
        regime="cvx-fano", d_star=inst.d_star, T=1,
        G=float(inst.M[0]) * math.sqrt(inst.d_star),
        D=max(abs(float(inst.y[0])) * math.sqrt(inst.d_star), 1.0),
        mu=0.0, sigma_l=0.0, sigma_s=0.0, p=inst.p, delta=None,
        q=float(inst.q[0]), theta=float(inst.theta[0]),
        M=float(inst.M[0]), y=float(inst.y[0]),
    )


class TestMakeHardInstance:
    def test_cvx_optimum_certified_by_grid(self):
        params = _fano_cvx(d_star=1, T=2, G=1.0, D=1.0, sigma_l=1.0)
        obj, _ = make_hard_instance("cvx", 1, 1, params, np.array([1.0]))
        inst = obj.f.inst
        assert obj.optimum.x_star == pytest.approx(inst.v * inst.y)

        def fun(X):
            return eval_F_batch(obj, X)

        xg = oracles.grid_minimize(fun, np.zeros(1), 4.0)
        assert eval_F(obj, xg) == pytest.approx(obj.optimum.F_star, abs=1e-7)
        assert eval_F(obj, obj.optimum.x_star) == pytest.approx(
            obj.optimum.F_star, rel=1e-14
        )

    def test_str_optimum_certified_by_grid(self):
        from test_problems import _dv_instance

        obj, _ = _dv_instance(1, q=0.5, theta=0.1, M=1.0, y=0.0, mu=2.0)
        assert obj.optimum.x_star == pytest.approx(np.array([0.05]))
        assert obj.optimum.F_star == pytest.approx(-0.0025)

        def fun(X):
            return eval_F_batch(obj, X)

        xg = oracles.grid_minimize(fun, np.zeros(1), 2.0)
        assert xg == pytest.approx(np.array([0.05]), abs=1e-6)
        assert eval_F(obj, xg) == pytest.approx(-0.0025, abs=1e-9)

    def test_unbiased_gradient_at_origin(self):
        params = _fano_cvx(d_star=3, T=20)
        v = np.array([1.0, -1.0, 1.0])
        obj, oracle = make_hard_instance("cvx", 3, 3, params, v)
        inst = oracle.instance
        want = -inst.M * inst.q * inst.theta * inst.v
        assert oracle.mean_grad(np.zeros(3)) == pytest.approx(want, rel=1e-14)
        states, probs = oracle.support()
        rows = oracle.grad_rows(np.zeros((states.shape[0], 3)), states)
        assert probs @ rows == pytest.approx(want, abs=1e-15)

    def test_support_matches_reference_order(self):
        params = _fano_cvx(d_star=2, T=10)
        obj, oracle = make_hard_instance("cvx", 2, 2, params, np.array([1.0, -1.0]))
        inst = oracle.instance
        states, probs = oracle.support()
        ref_states, ref_probs = oracles.dv_enum(inst.q, inst.theta, inst.v)
        assert np.array_equal(states, ref_states)
        assert probs == pytest.approx(ref_probs, abs=1e-15)
        assert probs.sum() == pytest.approx(1.0, abs=1e-12)

    def test_support_matches_itertools_product(self):
        # d > d_star: the inactive coordinates contribute one outcome each
        params = _fano_cvx(d_star=3, T=5)
        obj, oracle = make_hard_instance(
            "cvx", 5, 3, params, np.array([1.0, -1.0, 1.0])
        )
        inst = oracle.instance
        vals = []
        for q, vt in zip(inst.q, inst.v * inst.theta):
            if q > 0.0:
                vals.append(
                    ((0.0, 1.0 - q), (1.0, (1.0 + vt) * q / 2.0),
                     (-1.0, (1.0 - vt) * q / 2.0))
                )
            else:
                vals.append(((0.0, 1.0),))
        rows = list(itertools.product(*vals))
        ref_states = np.array([[v for v, _ in row] for row in rows])
        ref_probs = np.array([math.prod(w for _, w in row) for row in rows])
        states, probs = oracle.support()
        assert states.shape == (27, 5)
        assert np.array_equal(states, ref_states)
        assert probs == pytest.approx(ref_probs, rel=1e-15, abs=0.0)

    def test_codeword_padding(self):
        params = _fano_cvx(d_star=2, T=10)
        obj, oracle = make_hard_instance("cvx", 6, 2, params, np.array([-1.0, 1.0]))
        inst = oracle.instance
        assert inst.v == pytest.approx(np.array([-1.0, 1.0, 1.0, 1.0, 1.0, 1.0]))
        assert np.all(inst.M[2:] == 0.0)
        assert np.all(inst.q[2:] == 0.0)

    def test_validation(self):
        params = _fano_cvx(d_star=2, T=10)
        with pytest.raises(ValueError):
            make_hard_instance("str", 2, 2, params, np.ones(2))
        with pytest.raises(ValueError):
            make_hard_instance("cvx", 1, 2, params, np.ones(2))
        with pytest.raises(ValueError):
            make_hard_instance("cvx", 2, 2, params, np.array([1.0, 0.0]))
        with pytest.raises(ValueError):
            make_hard_instance("mid", 2, 2, params, np.ones(2))


def _unit_directions(d, rng, n_random=32):
    extra = rng.standard_normal((n_random, d))
    extra /= np.linalg.norm(extra, axis=1, keepdims=True)
    return np.concatenate([np.eye(d), extra], axis=0)


class TestInstanceInvariants:
    @pytest.mark.parametrize("d_star", [1, 2, 4, 8])
    def test_cvx_separation_and_budgets(self, d_star, rng):
        params = hard_params(
            "cvx-fano", d_star=d_star, T=64, G=1.0, D=1.0, sigma_l=1.0, p=1.5
        )
        book = gv_codebook(d_star, np.random.default_rng(0))
        built = [
            make_hard_instance("cvx", d_star, d_star, params, w)
            for w in book.words[:2]
        ]
        if len(built) < 2:
            pytest.skip("codebook produced a single word")
        (obj_u, orc_u), (obj_v, orc_v) = built
        iu, iv = orc_u.instance, orc_v.instance

        # item 2: joint suboptimality dominates the per-coordinate gap sum
        gap = np.add.reduce(
            2.0 * iu.theta * iu.q * iu.M * np.abs(iu.y) * (iu.v != iv.v)
        )
        for _ in range(200):
            x = rng.normal(size=d_star, scale=2.0)
            lhs = (eval_F(obj_u, x) - obj_u.optimum.F_star) + (
                eval_F(obj_v, x) - obj_v.optimum.F_star
            )
            assert lhs >= gap - 1e-9

        # item 3: mean-gradient norms stay within the Lipschitz budget
        bound = math.sqrt(float(np.add.reduce((iu.M * iu.q) ** 2)))
        assert bound <= params.G + 1e-12
        for _ in range(200):
            x = rng.normal(size=d_star, scale=2.0)
            assert np.linalg.norm(orc_u.mean_grad(x)) <= bound + 1e-12

        # items 4 and 5: enumerated noise moments respect sigma_l, sigma_s
        x = rng.normal(size=d_star)
        states, probs = iu.support()
        rows = iu.grad_rows(np.broadcast_to(x, states.shape), states)
        noise = rows - iu.mean_grad(x)
        p = params.p
        full = float(probs @ np.linalg.norm(noise, axis=1) ** p)
        moment_bound = 4.0 * float(np.add.reduce(iu.M**p * iu.q))
        assert full <= moment_bound + 1e-12
        assert moment_bound <= params.sigma_l**p + 1e-12
        dirs = _unit_directions(d_star, rng)
        directional = float(np.max(probs @ np.abs(noise @ dirs.T) ** p))
        assert directional <= params.sigma_s**p + 1e-12

        # fano geometry: the optimum sits at distance exactly D
        assert np.linalg.norm(obj_u.optimum.x_star) == pytest.approx(params.D)

    @pytest.mark.parametrize("d_star", [1, 2, 4, 8])
    def test_str_budgets(self, d_star, rng):
        params = hard_params(
            "str-fano", d_star=d_star, T=64, G=1.0, D=1.0, sigma_l=1.0,
            p=1.5, mu=1.0,
        )
        v = np.where(np.arange(d_star) % 2 == 0, 1.0, -1.0)
        obj, oracle = make_hard_instance("str", d_star, d_star, params, v)
        inst = oracle.instance

        # item 3: the linear part has constant gradient of exact norm
        want = params.mu * math.sqrt(
            float(np.add.reduce((inst.M * inst.q * inst.theta) ** 2))
        )
        for _ in range(50):
            x = rng.normal(size=d_star)
            g = obj.f.subgrad(x)
            assert np.linalg.norm(g) == pytest.approx(want, rel=1e-12)
        assert want <= params.G + 1e-12

        # items 4 and 5 via enumeration
        states, probs = inst.support()
        rows = inst.grad_rows(np.zeros((states.shape[0], d_star)), states)
        noise = rows - inst.mean_grad(np.zeros(d_star))
        p = params.p
        full = float(probs @ np.linalg.norm(noise, axis=1) ** p)
        assert full <= params.sigma_l**p + 1e-12
        dirs = _unit_directions(d_star, rng)
        directional = float(np.max(probs @ np.abs(noise @ dirs.T) ** p))
        assert directional <= params.sigma_s**p + 1e-12

        # geometry: optimum within distance D of the origin
        assert np.linalg.norm(obj.optimum.x_star) <= params.D + 1e-12


class TestCodebooks:
    @pytest.mark.parametrize("d_star", [1, 4, 8, 12])
    def test_gv_properties(self, d_star):
        book = gv_codebook(d_star, np.random.default_rng(0))
        assert book.d_star == d_star
        assert book.target_size == int(math.ceil(math.exp(d_star / 8.0)))
        assert set(np.unique(book.words)) <= {-1.0, 1.0}
        if not book.shortfall:
            assert book.size == book.target_size
        for i in range(book.size - 1):
            for j in range(i + 1, book.size):
                dist = np.count_nonzero(book.words[i] != book.words[j])
                assert dist >= d_star / 4.0
        assert book.min_distance >= d_star / 4.0

    def test_gv_small_dimension_finds_both_words(self):
        book = gv_codebook(1, np.random.default_rng(0))
        assert book.size == 2
        assert not book.shortfall
        assert sorted(book.words[:, 0]) == [-1.0, 1.0]

    def test_gv_shortfall_flagged(self):
        # an impossible target cannot be met; the builder must stop and say so
        book = gv_codebook(
            2, np.random.default_rng(0), target_size=100,
            max_consecutive_rejects=200,
        )
        assert book.shortfall
        assert book.size < 100

    def test_gv_default_target_stops_at_its_d_star_cap(self):
        with pytest.raises(ValueError, match=f"d_star = {GV_MAX_D_STAR + 1} is above"):
            gv_codebook(GV_MAX_D_STAR + 1, np.random.default_rng(0))
        # an explicit target is the caller's own bound
        book = gv_codebook(GV_MAX_D_STAR + 1, np.random.default_rng(0), target_size=3)
        assert book.size == 3

    def test_two_point(self):
        book = two_point_codebook(3)
        assert book.size == 2
        assert book.min_distance == 3.0
        assert np.array_equal(book.words[0], np.ones(3))
        assert np.array_equal(book.words[1], -np.ones(3))
        assert not book.shortfall

    def test_pad_codewords(self):
        words = np.array([[1.0, -1.0], [-1.0, -1.0]])
        out = pad_codewords(words, 4)
        assert out.shape == (2, 4)
        assert np.all(out[:, 2:] == 1.0)
        with pytest.raises(ValueError):
            pad_codewords(words, 1)
