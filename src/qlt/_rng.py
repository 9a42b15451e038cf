"""Deterministic substream derivation for reproducible sampling."""

import zlib

import numpy as np


def _tag_value(tag) -> int:
    if isinstance(tag, (int, np.integer)):
        return int(tag) & 0xFFFFFFFFFFFFFFFF
    return zlib.crc32(str(tag).encode())


def substream(seed: int, *tags) -> np.random.Generator:
    """Generator keyed by (master seed, purpose tags).

    Identical (seed, tags) always yields an identical stream, independent of
    any other stream drawn elsewhere.
    """
    return np.random.default_rng([_tag_value(seed)] + [_tag_value(t) for t in tags])


def complex_normal(rng: np.random.Generator, power, shape) -> np.ndarray:
    """CN(0, power) draws of ``shape``, all real parts first; ``power`` may be an array."""
    return np.sqrt(power / 2.0) * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
