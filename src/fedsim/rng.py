"""Deterministic random-stream derivation.

Every source of randomness in a run is a stream addressed by a tuple of
non-negative integers (master seed, purpose tag, round, party, ...). Streams
with different addresses are statistically independent, and the same address
always yields the same stream, which is what makes runs reproducible: each
party's result depends only on its (seed, round, party) stream, not on which
parties or cells ran before it.
"""

from __future__ import annotations

import numpy as np

# Purpose tags keeping unrelated streams apart under one master seed.
TAG_SAMPLING = 1
TAG_LOCAL = 2
TAG_INIT = 3
TAG_PARTITION = 4
TAG_TRIAL = 5


def stream(*keys: int) -> np.random.Generator:
    """RNG stream addressed by a tuple of non-negative integers."""
    return np.random.default_rng(np.random.SeedSequence(list(keys)))


def derive_seed(*keys: int) -> int:
    """Collapse an address tuple into a single reproducible 64-bit seed."""
    return int(np.random.SeedSequence(list(keys)).generate_state(1, np.uint64)[0])
