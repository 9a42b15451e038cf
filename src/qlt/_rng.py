"""Deterministic substream derivation for reproducible sampling."""

import zlib

import numpy as np


def _tag_value(tag) -> int:
    if isinstance(tag, (int, np.integer)):
        return int(tag) & 0xFFFFFFFFFFFFFFFF
    return zlib.crc32(str(tag).encode())


def check_seed(seed, error=ValueError) -> None:
    """Raise ``error`` naming ``seed`` unless it is an ``int`` or numpy
    integer other than a ``bool``.  A float is refused, as ``3.0`` would
    draw another stream than ``3``."""
    if not isinstance(seed, (int, np.integer)) or isinstance(seed, bool):
        raise error(f"seed must be an integer, not {seed!r} of type {type(seed).__name__}")


def substream(seed: int, *tags) -> np.random.Generator:
    """Generator keyed by (master seed, purpose tags).

    Identical (seed, tags) always yields an identical stream, independent of
    any other stream drawn elsewhere.  A ``seed`` that is not an integer
    raises ``TypeError``.
    """
    check_seed(seed, TypeError)
    return np.random.default_rng([_tag_value(seed)] + [_tag_value(t) for t in tags])


def complex_normal(rng: np.random.Generator, power, shape) -> np.ndarray:
    """CN(0, power) draws of ``shape``, all real parts first; ``power`` may be an array.

    One ``standard_normal((2, *shape))`` draw, the same stream as two draws
    of ``shape``, fills the real and imaginary parts of one complex array,
    which is then scaled in place by the complex multiply that
    ``sqrt(power / 2) * (re + 1j * im)`` makes, so the bits (signed zeros
    of a zero power included) are those of that expression.
    """
    shape = (shape,) if np.ndim(shape) == 0 else tuple(shape)
    draws = rng.standard_normal((2, *shape))
    out = np.empty(shape, dtype=complex)
    out.real = draws[0]
    out.imag = draws[1]
    out *= np.sqrt(power / 2.0)
    return out
