"""Deterministic RNG derivation.

All randomness in the package flows through derived streams. A stream is
addressed by the master seed plus an integer path (stream domain, then
indices such as the realization counter or a block number). The path is
fed to `numpy.random.SeedSequence` as an entropy tuple, so any stream can
be reconstructed independently of execution order or thread count. This
is what makes Monte Carlo results bit-stable under parallel scheduling:
workers never share or advance a common generator state.

`derive_rng` builds the generator of one stream. A Monte Carlo chunk
takes the streams of its whole range of indices from `derive_rngs`, which
sets each in turn on one reused generator. Their PCG64 states come from a
memo of blocks of STREAM_BLOCK (1024) consecutive indices below 2**32:
a block's states are derived once, by SeedSequence's hash run vectorized
over its indices, and kept for later chunks, so realization i is hashed
once however many torus sides draw it while its block stays in the memo.
The memo is a bounded functools.lru_cache of at most BLOCK_CACHE_SIZE
(16) blocks, about 107 kB each (1.7 MB in all), keyed by (master seed,
domain, block). It is process-local and thread-safe: two threads that
miss the same block both build it, with identical results.

Stream domains used in the package:

==== =============================================
 0    field realizations (one per realization index)
 1    renewal interval blocks
 2    lattice-image point sets
==== =============================================
"""

from __future__ import annotations

from functools import lru_cache
from itertools import chain
from typing import Iterator

import numpy as np

__all__ = ["derive_rng", "derive_rngs", "derive_seed"]

DOMAIN_FIELD = 0
DOMAIN_INTERVALS = 1
DOMAIN_POINTSET = 2

# derive_rngs derives ranges shorter than this with derive_rng, one stream at
# a time, and builds no block of the memo for them: a chunk of a few rows on a
# large torus then costs what derive_rng costs
BATCH_MIN_STREAMS = 16
# derive_rngs memoizes stream states in blocks of STREAM_BLOCK consecutive
# indices, BLOCK_CACHE_SIZE blocks at most
STREAM_BLOCK = 1024
BLOCK_CACHE_SIZE = 16

_MASK32 = 0xFFFFFFFF
_MASK128 = (1 << 128) - 1
# SeedSequence's hash constants and pool size (numpy/random/bit_generator.pyx)
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645  # PCG64's 128-bit LCG multiplier


def _seed_sequence(master_seed: int, path: tuple[int, ...]) -> np.random.SeedSequence:
    """The SeedSequence of stream (master_seed, *path); the seed must be nonnegative."""
    if master_seed < 0:
        raise ValueError("master_seed must be a nonnegative integer")
    return np.random.SeedSequence((int(master_seed),) + tuple(int(p) for p in path))


def derive_rng(master_seed: int, *path: int) -> np.random.Generator:
    """Return the generator for stream (master_seed, *path).

    The same arguments always produce a bit-identical stream; distinct
    paths produce statistically independent streams. The generator is
    built from its bit generator directly: the stream default_rng gives,
    without its argument dispatch.
    """
    return np.random.Generator(np.random.PCG64(_seed_sequence(master_seed, path)))


def derive_rngs(master_seed: int, domain: int, indices: range) -> Iterator[np.random.Generator]:
    """The generator of stream (master_seed, domain, i) for each i of indices, in order.

    Every stream is bit-identical to derive_rng's. A range of at least
    BATCH_MIN_STREAMS indices below 2**32 takes its states from the memo of
    blocks, and its streams are set in turn on one reused generator: a
    yielded generator is valid only until the next one is requested.
    Shorter ranges, and indices that need more than one 32-bit word, take
    derive_rng.
    """
    if master_seed < 0 or domain < 0:
        raise ValueError("master_seed and domain must be nonnegative integers")
    batched = indices[:0]
    if indices.step > 0 and indices.start >= 0:
        batched = range(indices.start, min(indices.stop, 1 << 32), indices.step)
    if len(batched) < BATCH_MIN_STREAMS:
        return (derive_rng(master_seed, domain, i) for i in indices)
    rest = (derive_rng(master_seed, domain, i) for i in indices[len(batched):])
    return chain(_pcg64_streams(master_seed, domain, batched), rest)


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
    """SeedSequence(entropy).generate_state(4, np.uint64), as four words.

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
def _block_states(master_seed: int, domain: int, block: int) -> tuple[tuple[int, ...], ...]:
    """The PCG64 states and the incs of streams (master_seed, domain, i), i in block.

    Entry j of each tuple is what PCG64(SeedSequence((master_seed, domain,
    i))) starts from, for i = block * STREAM_BLOCK + j; the block's indices
    must lie below 2**32.
    """
    start = block * STREAM_BLOCK
    lanes = np.arange(start, start + STREAM_BLOCK, dtype=np.uint64)
    words = _state_words(_words(master_seed) + _words(domain) + [lanes])
    states, incs = [], []
    for a, b, c, e in zip(*(w.tolist() for w in words)):
        inc = ((c << 64 | e) << 1 | 1) & _MASK128
        # pcg64_set_seed: state 0, one step, add the seed, one more step
        states.append((((a << 64 | b) + inc) * _PCG64_MULT + inc) & _MASK128)
        incs.append(inc)
    return tuple(states), tuple(incs)


def _pcg64_streams(master_seed: int, domain: int, indices: range) -> Iterator[np.random.Generator]:
    """One generator, set in turn to stream (master_seed, domain, i) for each i of indices.

    indices are nonnegative, increasing and below 2**32.
    """
    bit_generator = np.random.PCG64(0)  # its first state is never used
    rng = np.random.Generator(bit_generator)
    state = {"bit_generator": "PCG64", "state": None, "has_uint32": 0, "uinteger": 0}
    loaded = None
    for i in indices:
        block, j = divmod(i, STREAM_BLOCK)
        if block != loaded:
            states, incs = _block_states(master_seed, domain, block)
            loaded = block
        state["state"] = {"state": states[j], "inc": incs[j]}
        bit_generator.state = state
        yield rng


def derive_seed(master_seed: int, *path: int) -> int:
    """Collapse a stream address to a single u64 sub-seed.

    Used where a downstream API wants one integer seed (e.g. one point-set
    realization per study seed index) rather than a Generator.
    """
    return int(_seed_sequence(master_seed, path).generate_state(1, np.uint64)[0])


def zigzag(i: int) -> int:
    """Map a signed index to a nonnegative one (0, -1, 1, -2, ... -> 0, 1, 2, 3, ...)."""
    return 2 * i if i >= 0 else -2 * i - 1
