"""Deterministic substream derivation for reproducible sampling, and the
rules of the seeds and sizes that the library's configs take.

A seed is a non-negative integer, of any size: ``check_seed`` is its one
rule, and the library's configs, the CLI's ``--seed`` and ``substream``
apply it.  ``substream`` keys numpy's ``SeedSequence`` with the seed itself,
not reduced modulo 2**64, so distinct seeds draw distinct streams.  A size
that sets an array's length passes ``check_size``, the one rule that the
configs apply to the arrays they allocate (the draws fill them).
"""

import zlib

import numpy as np


def _tag_value(tag) -> int:
    return int(tag) if isinstance(tag, (int, np.integer)) else zlib.crc32(str(tag).encode())


def check_seed(seed, error=ValueError) -> None:
    """Raise ``error`` naming ``seed`` unless it is an ``int`` or numpy
    integer other than a ``bool``, and ``ValueError`` where it is negative.
    A float is refused, as ``3.0`` would draw another stream than ``3``."""
    if not isinstance(seed, (int, np.integer)) or isinstance(seed, bool):
        raise error(f"seed must be an integer, not {seed!r} of type {type(seed).__name__}")
    if seed < 0:
        raise ValueError(f"seed must be non-negative, not {seed}")


def check_size(count, itemsize: int, what: str) -> None:
    """Raise ``ValueError`` naming ``what``, the fields that size an array,
    where its ``count`` points of ``itemsize`` bytes pass what numpy can
    index (an infinite or NaN count too): numpy would refuse the array with
    a message that names no field, or wrap its size negative."""
    if not count * itemsize < np.iinfo(np.intp).max:
        raise ValueError(f"{what} has more points than an array can index")


def substream(seed: int, *tags) -> np.random.Generator:
    """Generator keyed by (master seed, purpose tags).

    Identical (seed, tags) always yields an identical stream, independent of
    any other stream drawn elsewhere.  A ``seed`` that is not an integer
    raises ``TypeError``, a negative one ``ValueError``; an integer tag must
    be non-negative too, and any other tag is keyed by the CRC-32 of its
    ``str``.
    """
    check_seed(seed, TypeError)
    return np.random.default_rng([_tag_value(seed)] + [_tag_value(t) for t in tags])


def complex_normal(rng: np.random.Generator, power, shape, out=None) -> np.ndarray:
    """CN(0, power) draws of ``shape``, all real parts first; ``power`` may be an array.

    The draws are the stream of one ``standard_normal((2, *shape))`` call,
    the same as two draws of ``shape``: the real parts ``re``, then the
    imaginary parts ``im``.  They fill one complex array, which is then
    scaled in place by ``sqrt(power / 2)``, a complex multiply (signed
    zeros of a zero power included); unless a draw is exactly zero, those
    are the bits of ``sqrt(power / 2) * (re + 1j * im)``.  ``out``, a
    complex array of ``shape`` (a strided view too), receives them and is
    returned; by default a new array does.
    """
    shape = (shape,) if np.ndim(shape) == 0 else tuple(shape)
    if out is None:
        out = np.empty(shape, dtype=complex)
    elif out.shape != shape or out.dtype != complex:
        raise ValueError(f"out must be a complex array of shape {shape}")
    out.real = rng.standard_normal(shape)
    out.imag = rng.standard_normal(shape)
    out *= np.sqrt(power / 2.0)
    return out
