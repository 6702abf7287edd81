"""Deterministic random streams derived from a single master seed.

Every source of randomness in the pipeline draws from its own stream,
identified by (seed, stream id, optional counter).  Streams with the same
identifiers produce identical draw sequences, which is what makes training
runs, shuffled batch order and augmentation reproducible, and lets a resumed
run rebuild the exact state of an uninterrupted one from the iteration
counter alone.
"""

import numpy as np

from .errors import InvalidInputError

# stream ids; never reorder, they are part of the reproducibility contract
STREAM_INIT = 0      # weight initialization
STREAM_SHUFFLE = 1   # shuffle-buffer sampling
STREAM_AUGMENT = 2   # per-iteration train-time augmentation
STREAM_DROPOUT = 3   # per-iteration dropout masks
STREAM_SYNTH = 100   # synthetic corpus images, per split and class

RngStream = np.random.Generator


def make_rng(seed: int, *stream: int) -> RngStream:
    """Generator fully determined by (seed, *stream): same ids, same draws."""
    if seed < 0:
        raise InvalidInputError(f"seed must be non-negative, got {seed}")
    entropy = (int(seed),) + tuple(int(s) for s in stream)
    return np.random.default_rng(np.random.SeedSequence(entropy))
