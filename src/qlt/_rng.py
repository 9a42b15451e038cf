"""Deterministic substream derivation for reproducible sampling, and the
rules of the seeds, sizes and fields that the library's configs take.

A seed is a non-negative integer, of any size: ``check_seed`` is its one
rule, and the library's configs, the CLI's ``--seed`` and ``substream``
apply it.  ``substream`` keys numpy's ``SeedSequence`` with the seed itself,
not reduced modulo 2**64, so distinct seeds draw distinct streams.  A size
that sets an array's length passes ``check_size``, the one rule that the
configs apply to the arrays they allocate (the draws fill them).  Each
config declares the type and bounds of its fields in JSON-Schema words,
and a function the rule of an argument that a config file gives too (a
mean power, a loading factor, a noise power).  ``check_value`` is the one
reader of those words: ``check_fields`` applies a config's declarations
through it, the library's functions their arguments' rules, and the CLI's
config walk every fragment of its tables.
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


#: The classes each JSON-Schema ``type`` admits: an ``integer`` is an
#: ``int``, and a bool is only a ``boolean``.
_TYPES = {"integer": int, "number": (int, float, np.integer, np.floating), "boolean": bool,
          "null": type(None), "string": str, "array": (list, tuple), "object": dict}


def check_value(name: str, rule: dict, v) -> None:
    """Raise ``ValueError`` naming ``name`` where the value ``v`` breaks
    ``rule``, a fragment of the JSON-Schema words ``type`` (a name or a
    list), ``enum`` (by JSON equality: ``1 == 1.0``, but ``True != 1``),
    ``minimum``, ``exclusiveMinimum`` and ``maximum`` (on a number; NaN is
    past every bound), and ``minItems`` and ``maxItems`` (on an array).
    Every rule of a config, the CLI's and the library's, is read here."""
    types = rule.get("type", ())
    types = (types,) if isinstance(types, str) else types
    for t in types:
        if isinstance(v, _TYPES[t]) and isinstance(v, bool) is (t == "boolean"):
            break
    else:
        if types:
            raise ValueError(f"{name} must be of type {' or '.join(types)}, not {v!r}")
    if "enum" in rule and not any(v == m and isinstance(v, bool) is isinstance(m, bool)
                                  for m in rule["enum"]):
        raise ValueError(f"{name} must be one of {rule['enum']}, not {v!r}")
    if isinstance(v, _TYPES["number"]) and not isinstance(v, bool):
        if ("minimum" in rule and not v >= rule["minimum"]
                or "exclusiveMinimum" in rule and not v > rule["exclusiveMinimum"]
                or "maximum" in rule and not v <= rule["maximum"]):
            raise ValueError(f"{name} must be {_bound_words(rule)}, not {v}")
    elif isinstance(v, _TYPES["array"]):
        if not rule.get("minItems", 0) <= len(v) <= rule.get("maxItems", len(v)):
            raise ValueError(f"{name} must have a length "
                             f"{_bound_words(rule, 'minItems', 'maxItems')}, not {len(v)}")


def check_fields(config, bounds: dict) -> None:
    """Raise ``ValueError`` naming the first field of ``config`` that breaks
    its rule in ``bounds`` (field name -> a fragment that ``check_value``
    reads)."""
    for name, rule in bounds.items():
        check_value(name, rule, getattr(config, name))


def _bound_words(rule: dict, lo: str = "minimum", hi: str = "maximum") -> str:
    """A rule's bounds in words: ``in [0, 1]`` for a minimum and a maximum,
    else each as ``>= 1``, ``> 0`` or ``<= 16``; ``lo`` and ``hi`` name the
    inclusive bounds (``minItems`` and ``maxItems`` for a length)."""
    if lo in rule and hi in rule:
        return f"in [{rule[lo]}, {rule[hi]}]"
    return " and ".join(f"{op} {rule[k]}" for k, op in
                        ((lo, ">="), ("exclusiveMinimum", ">"), (hi, "<=")) if k in rule)


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
