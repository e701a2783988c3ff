"""Deterministic RNG derivation.

All randomness in the package flows through derived streams. A stream is
addressed by the master seed, a stream domain and an index (such as the
realization counter or a block number), all nonnegative integers. Its
generator is numpy's PCG64 seeded with the four uint64 words that
`numpy.random.SeedSequence` generates from the entropy (master_seed,
domain, index), so any stream can be reconstructed independently of
execution order or thread count. This is what makes Monte Carlo results
bit-stable under parallel scheduling: workers never share or advance a
common generator state.

There is one route from an address to its generator. The seed words come
from a memo of blocks of STREAM_BLOCK (1024) consecutive indices: a block
is derived once, by SeedSequence's hash run vectorized over its indices,
and kept as one read-only (1024, 4) uint64 array of 32 kB, so realization
i is hashed once however many torus sides draw it while its block stays
in the memo. The memo is a bounded functools.lru_cache of at most
BLOCK_CACHE_SIZE (16) blocks (0.5 MB in all), keyed by (master seed,
domain, block). It is process-local and thread-safe: two threads that
miss the same block both build it, with identical results. numpy's PCG64
then seeds itself from a block's row, so every generator handed out is
its own. The tests hold every stream to numpy's SeedSequence, the oracle.

Stream domains used in the package:

==== =============================================
 0    field realizations (one per realization index)
 1    renewal interval blocks
 2    lattice-image point sets
==== =============================================
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterator

import numpy as np

__all__ = ["derive_rng", "derive_rngs", "derive_seed"]

DOMAIN_FIELD = 0
DOMAIN_INTERVALS = 1
DOMAIN_POINTSET = 2

# the memo holds the seed words of blocks of STREAM_BLOCK consecutive indices,
# BLOCK_CACHE_SIZE blocks at most
STREAM_BLOCK = 1024
BLOCK_CACHE_SIZE = 16

_MASK32 = 0xFFFFFFFF
# SeedSequence's hash constants and pool size (numpy/random/bit_generator.pyx)
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4


def derive_rng(master_seed: int, domain: int, index: int) -> np.random.Generator:
    """Return the generator for stream (master_seed, domain, index).

    The same arguments always produce a bit-identical stream; distinct
    addresses produce statistically independent streams.
    """
    return next(derive_rngs(master_seed, domain, range(index, index + 1)))


def derive_rngs(master_seed: int, domain: int, indices: range) -> Iterator[np.random.Generator]:
    """The generator of stream (master_seed, domain, i) for each i of indices, in order.

    Each generator is a new one, seeded from the memo of seed words.
    """
    generator, pcg64, seed_words = np.random.Generator, np.random.PCG64, _seed_words_type()
    return (generator(pcg64(seed_words(w))) for w in _stream_words(master_seed, domain, indices))


def derive_seed(master_seed: int, domain: int, index: int) -> int:
    """Collapse a stream address to a single u64 sub-seed.

    Used where a downstream API wants one integer seed (e.g. one point-set
    realization per study seed index) rather than a Generator. It is the
    first of the stream's seed words.
    """
    return int(next(_stream_words(master_seed, domain, range(index, index + 1)))[0])


def _stream_words(master_seed: int, domain: int, indices: range) -> Iterator[np.ndarray]:
    """The seed words of stream (master_seed, domain, i) for each i of indices, in order.

    The arguments are checked now, not when the first row is taken.
    """
    if master_seed < 0 or domain < 0 or (indices and min(indices[0], indices[-1]) < 0):
        raise ValueError("master_seed, domain and indices must be nonnegative integers")
    master_seed, domain = int(master_seed), int(domain)
    return (_block_words(master_seed, domain, i // STREAM_BLOCK)[i % STREAM_BLOCK] for i in indices)


@lru_cache(maxsize=None)
def _seed_words_type() -> type:
    """The numpy ISeedSequence that hands PCG64 one row of the memo.

    Built on first use, so that importing the package does not import
    numpy.random.
    """

    class SeedWords(np.random.bit_generator.ISeedSequence):
        def __init__(self, words: np.ndarray) -> None:
            self.words = words

        def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
            if n_words != 4 or np.dtype(dtype) != np.uint64:
                raise ValueError("a derived stream holds exactly 4 uint64 seed words")
            return self.words

    return SeedWords


def _words(n: int) -> list[int]:
    """n as SeedSequence reads an entropy integer: 32-bit words, least significant first."""
    words = [n & _MASK32]
    while n := n >> 32:
        words.append(n & _MASK32)
    return words


def _hashmix(init: int, mult: int):
    """SeedSequence's hashmix, each call taking the next hash constant of (init, mult)."""
    const = init

    def hashmix(value):
        nonlocal const
        value = value ^ const
        const = const * mult & _MASK32
        value = value * const & _MASK32
        return value ^ value >> 16

    return hashmix


def _mix(x, y):
    """SeedSequence's mix of two pool words."""
    result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
    return result ^ result >> 16


def _state_words(entropy: list) -> list:
    """The generate_state(4, np.uint64) of numpy's SeedSequence of entropy, as four words.

    An entropy word is a Python int or a uint64 array of values below
    2**32, and arrays run the steps of ints lane by lane: uint64 holds every
    product of two 32-bit words, and the masks reduce modulo 2**32.
    """
    hashmix = _hashmix(_INIT_A, _MULT_A)
    pool = [hashmix(w) for w in (entropy + [0] * _POOL_SIZE)[:_POOL_SIZE]]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], hashmix(word))
    hashmix = _hashmix(_INIT_B, _MULT_B)
    state = [hashmix(pool[j % _POOL_SIZE]) for j in range(8)]
    return [lo | hi << 32 for lo, hi in zip(state[::2], state[1::2])]


@lru_cache(maxsize=BLOCK_CACHE_SIZE)
def _block_words(master_seed: int, domain: int, block: int) -> np.ndarray:
    """The seed words of stream (master_seed, domain, i) for each i in block.

    Row j, read-only, holds the generate_state(4, np.uint64) of numpy's
    SeedSequence of entropy (master_seed, domain, i), for i = block *
    STREAM_BLOCK + j. An index of 2**32 or more adds its higher 32-bit
    words to the entropy; they are the same for every index of an aligned
    block.
    """
    start = block * STREAM_BLOCK
    low = start & _MASK32
    lanes = np.arange(low, low + STREAM_BLOCK, dtype=np.uint64)
    words = _state_words(_words(master_seed) + _words(domain) + [lanes] + _words(start)[1:])
    block_words = np.stack(words, axis=1)
    block_words.flags.writeable = False
    return block_words


def zigzag(i: int) -> int:
    """Map a signed index to a nonnegative one (0, -1, 1, -2, ... -> 0, 1, 2, 3, ...)."""
    return 2 * i if i >= 0 else -2 * i - 1
