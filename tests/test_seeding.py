"""A shard's generators, built in one pass, against np.random.default_rng."""

import os
import subprocess
import sys

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import htclip
from htclip import derive_seed, harness, parse_config, run_experiment
from htclip._seeding import default_rngs, state_words
from htclip.harness import _derive_seeds

import oracles

# one and two 32-bit entropy words, and the ends of the 64-bit range
EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1]


def _assert_default_rng(got, seed):
    want = np.random.default_rng(seed)
    assert got.bit_generator.state == want.bit_generator.state
    assert np.array_equal(got.random(5), want.random(5))
    assert np.array_equal(got.integers(0, 2**62, 3), want.integers(0, 2**62, 3))


def test_generators_at_edge_seeds_are_default_rng():
    want = [np.random.SeedSequence(s).generate_state(4, np.uint64) for s in EDGE_SEEDS]
    assert np.array_equal(state_words(EDGE_SEEDS), np.stack(want))
    for got, seed in zip(default_rngs(np.array(EDGE_SEEDS, np.uint64)), EDGE_SEEDS):
        _assert_default_rng(got, seed)
    assert default_rngs([]) == []


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    master=st.integers(0, 2**64 - 1),
    trials=st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=4),
    tag=st.integers(0, 2**32 - 1),
)
def test_derived_seeds_and_their_generators(master, trials, tag):
    tags = [tag ^ i for i in range(len(trials))]
    got = _derive_seeds(master, trials, tags)
    assert got.dtype == np.uint64
    want = oracles.derive_seed_np(np.uint64(master), np.array(trials, np.uint64),
                                  np.array(tags, np.uint64))
    assert np.array_equal(got, want)
    seeds = [derive_seed(master, j, ti) for j, ti in zip(trials, tags)]
    assert [int(s) for s in got] == seeds
    for rng, seed in zip(default_rngs(got), seeds):
        _assert_default_rng(rng, seed)


def test_shard_rows_run_on_default_rng_streams(monkeypatch):
    """Each row (ti, j) of every shard runs the generator
    default_rng(derive_seed(master, j, ti)), in its state before any draw."""
    raw = {
        "problem": {"kind": "hard", "d": 2, "G": 1.0, "D": 1.0},
        "noise": {"kind": "hard-instance", "p": 1.5, "sigma_s": 0.7072, "sigma_l": 1.0},
        "schedule": {"regime": "cvx-ex-T"},
        "hardness": {"regime": "cvx-fano", "d_star": 2, "codebook": "twopoint"},
        "run": {"T_grid": [4, 8, 16], "trials": 70, "master_seed": 2**64 - 3},
    }
    shards, states = [], []
    run_shard, run_trials = harness._run_shard, harness.run_trials

    def noted_shard(rows, master, *args):
        shards.append((rows, master))
        return run_shard(rows, master, *args)

    def noted_trials(*args, **kwargs):
        states.append([g.bit_generator.state for g in args[5]])
        return run_trials(*args, **kwargs)

    monkeypatch.setattr(harness, "_run_shard", noted_shard)
    monkeypatch.setattr(harness, "run_trials", noted_trials)
    monkeypatch.setattr(harness, "NOISE_BUDGET", 0)  # one BLOCK_TRIALS shard at a time
    run_experiment(parse_config(raw), threads=1)
    assert len(shards) == len(states) > 1
    rows_seen = 0
    for (rows, master), got in zip(shards, states):
        assert master == 2**64 - 3
        for (ti, j, _), state in zip(rows, got, strict=True):
            want = np.random.default_rng(derive_seed(master, j, ti))
            assert state == want.bit_generator.state
        rows_seen += len(rows)
    assert rows_seen == 3 * 70


def test_importing_htclip_leaves_numpy_random_unloaded():
    # loading numpy.random costs a process about 3 MB and 20 ms; htclip
    # loads it where it first builds a generator
    src = os.path.dirname(os.path.dirname(os.path.abspath(htclip.__file__)))
    code = (
        "import sys, htclip, htclip.cli\n"
        "print(sorted(m for m in sys.modules if m.startswith('numpy.random')))\n"
    )
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip() == "[]"
