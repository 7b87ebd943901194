"""np.random.default_rng(seed) for many seeds at once, with its bits.

default_rng(seed) is Generator(PCG64(SeedSequence(seed))), and PCG64
reads only SeedSequence(seed).generate_state(4, np.uint64): four words
made from the seed by SeedSequence's pool hash.  default_rngs computes
those words for every seed in one pass of uint32 numpy arithmetic, by
numpy's own algorithm and constants, and hands each generator its words
through a seed sequence that only returns them.  The generators'
seed_seq is then that sequence, so they cannot spawn.  blank builds a
generator whose state its caller sets at once, with no seed hashed.

numpy loads numpy.random lazily, and this module imports it, so htclip
imports this module only where it first builds generators.
"""

from __future__ import annotations

import numpy as np
from numpy.random import PCG64, Generator
from numpy.random.bit_generator import ISeedSequence

# SeedSequence's hash constants (numpy/random/bit_generator.pyx)
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_MASK32 = (1 << 32) - 1
_POOL = 4


class _Words(ISeedSequence):
    """A seed sequence that gives PCG64 the state words it holds."""

    __slots__ = ("words",)

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 4 or dtype is not np.uint64:
            raise NotImplementedError("only PCG64's four uint64 state words are held")
        return self.words


class _Zeros(ISeedSequence):
    """A seed sequence that gives a bit generator words of zeros."""

    __slots__ = ()

    def generate_state(self, n_words, dtype=np.uint32):
        return np.zeros(n_words, dtype)


def blank(kind: type) -> Generator:
    """A Generator over a bit generator of type kind seeded with zeros,
    for a caller that sets its state: kind() would hash entropy from the
    OS first."""
    return Generator(kind(_Zeros()))


def _hasher(init: int, mult: int):
    """SeedSequence's hashmix on uint32 words, whose hash constant, from
    init, moves on at every call."""
    const = init

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal const
        value = value ^ np.uint32(const)
        const = const * mult & _MASK32
        value *= np.uint32(const)
        value ^= value >> 16
        return value

    return hashmix


def state_words(seeds) -> np.ndarray:
    """SeedSequence(s).generate_state(4, np.uint64) for each s in seeds,
    integers in [0, 2^64), as the rows of a (len(seeds), 4) uint64 array."""
    seeds = np.asarray(seeds, dtype=np.uint64)
    # an entropy of one 32-bit word hashes as its zero-padded pool does
    entropy = [(seeds & _MASK32).astype(np.uint32), (seeds >> 32).astype(np.uint32)]
    entropy += [np.zeros(len(seeds), np.uint32)] * (_POOL - len(entropy))
    hashmix = _hasher(_INIT_A, _MULT_A)
    pool = [hashmix(word) for word in entropy]
    # mix every pool word into every other, in SeedSequence's order
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                mixed = pool[dst] * np.uint32(_MIX_L)
                mixed -= hashmix(pool[src]) * np.uint32(_MIX_R)
                mixed ^= mixed >> 16
                pool[dst] = mixed
    hashmix = _hasher(_INIT_B, _MULT_B)
    out = np.stack([hashmix(pool[i % _POOL]) for i in range(2 * 4)], axis=1)
    # pairs of 32-bit words, low word first, as SeedSequence joins them
    return out.astype("<u4").view("<u8").astype(np.uint64)


def default_rngs(seeds) -> list:
    """np.random.default_rng(int(s)) for each s in seeds, integers in
    [0, 2^64), bit for bit."""
    return [Generator(PCG64(_Words(words))) for words in state_words(seeds)]
