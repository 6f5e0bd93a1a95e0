"""Counter-based random stream derivation.

Every random draw in the package flows from a 64-bit master seed through a
named stream, so distinct tasks (field generation, Wiener sampling, bridge
refinement levels, ensemble members) never share generator state and results
are independent of execution order and thread count.
"""

from __future__ import annotations

import zlib

import numpy as np

__all__ = ["rng_for"]


def _stream_key(parts: tuple) -> tuple[int, ...]:
    out = []
    for p in parts:
        if isinstance(p, str):
            out.append(zlib.crc32(p.encode()))
        else:
            out.append(int(p) & 0xFFFFFFFF)
    return tuple(out)


def rng_for(seed: int, *stream) -> np.random.Generator:
    """Generator for the (seed, stream) pair; bit-reproducible across runs.

    stream components may be ints or short strings (e.g. rng_for(7, "wiener", 0)).
    """
    ss = np.random.SeedSequence(entropy=int(seed) & (2**64 - 1), spawn_key=_stream_key(stream))
    return np.random.Generator(np.random.Philox(ss))
