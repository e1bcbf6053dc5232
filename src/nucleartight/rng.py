"""Counter-based random streams for reproducible parallel Monte Carlo.

Every stochastic routine in this package draws from a Philox generator whose
key is a pure function of ``(seed, purpose-tag, indices)``.  Work units (one
Monte Carlo repetition, one initial condition, ...) therefore regenerate
bit-for-bit no matter how they are scheduled across threads, and streams with
different tags or indices never overlap.
"""

from __future__ import annotations

import zlib

import numpy as np
from numpy.random import Generator, Philox, SeedSequence

__all__ = ["stream"]


def stream(seed: int, tag: str, *index: int) -> Generator:
    """Return an independent generator keyed by ``(seed, tag, index...)``.

    Parameters
    ----------
    seed : int
        Global experiment seed (any nonnegative integer, u64 range; a float
        or a bool raises ``TypeError``).
    tag : str
        Purpose tag, e.g. ``"particles"`` or ``"initial"``.  Streams with
        different tags are independent even for equal indices.
    index : int
        Zero or more nonnegative stream indices (repetition number, ...);
        like the seed, a float or a bool raises ``TypeError``.
    """
    for name, value in (("seed", seed), *(("stream index", i) for i in index)):
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
            raise TypeError(f"{name} must be an integer, not {type(value).__name__}")
    if seed < 0:
        raise ValueError("seed must be nonnegative")
    if any(i < 0 for i in index):
        raise ValueError("stream indices must be nonnegative")
    tag_code = zlib.crc32(tag.encode("utf-8"))
    seq = SeedSequence(entropy=int(seed), spawn_key=(tag_code, *index))
    return Generator(Philox(seq))
