"""Deterministic RNG derivation.

All randomness in the package flows through `derive_rng`. A stream is
addressed by the master seed plus an integer path (stream domain, then
indices such as the realization counter or a block number). The path is
fed to `numpy.random.SeedSequence` as an entropy tuple, so any stream can
be reconstructed independently of execution order or thread count. This
is what makes Monte Carlo results bit-stable under parallel scheduling:
workers never share or advance a common generator state.

Stream domains used in the package:

==== =============================================
 0    field realizations (one per realization index)
 1    renewal interval blocks
 2    lattice-image point sets
==== =============================================
"""

from __future__ import annotations

import numpy as np

__all__ = ["derive_rng", "derive_seed"]

DOMAIN_FIELD = 0
DOMAIN_INTERVALS = 1
DOMAIN_POINTSET = 2


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


def derive_seed(master_seed: int, *path: int) -> int:
    """Collapse a stream address to a single u64 sub-seed.

    Used where a downstream API wants one integer seed (e.g. one point-set
    realization per study seed index) rather than a Generator.
    """
    return int(_seed_sequence(master_seed, path).generate_state(1, np.uint64)[0])


def zigzag(i: int) -> int:
    """Map a signed index to a nonnegative one (0, -1, 1, -2, ... -> 0, 1, 2, 3, ...)."""
    return 2 * i if i >= 0 else -2 * i - 1
