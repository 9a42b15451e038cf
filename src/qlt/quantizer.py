"""Componentwise scalar quantizers (DAC/ADC models), each its own constellation.

A quantizer acts independently on the real and imaginary part of each complex
sample with the same per-dimension level set.  Three kinds are supported:

* ``identity`` - pass-through (infinite resolution),
* ``uniform_midrise`` - ``2**bits`` uniformly spaced levels per dimension with
  the outermost levels at ``+/-clip`` (1 to :data:`MAX_BITS` bits),
* ``custom_levels`` - an arbitrary strictly increasing level list.

Midrise level placement: levels sit at ``clip * (2k + 1 - 2**b) / (2**b - 1)``
for ``k = 0 .. 2**b - 1`` (for ``b = 1`` this is ``+/-clip``).  Decision
boundaries are the midpoints between adjacent levels.  A custom-levels
sample exactly on a boundary rounds toward +inf; a midrise one may round
either way (next paragraph).

The per-dimension level grid and its maps live here only: ``levels_per_dim``
and ``thresholds_per_dim`` describe it, and ``_map_dim`` finds each sample's
level index and reads that level from ``levels_per_dim``.  The midrise map
finds the index by rounding ``(x + clip) / step`` rather than by comparing
the sample with the thresholds, so a sample exactly on a boundary may round
down.

``quantize`` runs the map over the input's interleaved float view in blocks
of ``_MAP_BLOCK`` floats and writes each block's levels into one output
array.  A block's intermediates are numpy's own block-sized temporaries, so
only the output is input-sized; it is none when the output is the input
itself (``out=u``).  Every float maps on its own, so the bits do not depend
on the blocking.

A midrise DAC loaded for a mean complex power sets its clip at ``kappa``
per-dimension sigmas of that power (``clip_for_power``).  The rules of the
power and of the loading factor are declared here (``POWER_RULE`` and
``KAPPA_RULE``) and applied through ``_rng.check_value``: ``moments``
applies the power's rule to its ``pbar``, ``WaveformConfig`` the loading
factor's to its ``dac_kappa``, and the config schema reads both for every
``pbar`` and ``kappa``.
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._rng import check_fields, check_value
from .errors import NumericalFailureError, UnboundedConstellationError

#: Default loading factor: clip = DEFAULT_KAPPA * sqrt(input_power / 2).
DEFAULT_KAPPA = 3.0

#: Most bits a midrise quantizer takes: its 2**bits levels are tabulated.
MAX_BITS = 16


#: The rules of a mean complex power and of a loading factor, in the
#: JSON-Schema words that ``_rng.check_value`` reads: each is positive (NaN
#: is not).
POWER_RULE = {"type": "number", "exclusiveMinimum": 0}
KAPPA_RULE = {"type": "number", "exclusiveMinimum": 0}


def clip_for_power(power: float, kappa: float = DEFAULT_KAPPA) -> float:
    """Clip level for a given mean complex input power: kappa per-dimension sigmas."""
    check_value("power", POWER_RULE, power)
    check_value("kappa", KAPPA_RULE, kappa)
    return kappa * np.sqrt(power / 2.0)


@dataclass(frozen=True)
class QuantizerSpec:
    """Description of a componentwise scalar quantizer, and its constellation.

    Use the factory classmethods rather than the constructor directly.

    A spec with a finite level set L is its own constellation: the product
    L x L, a point ``a + 1j * b`` for each pair of levels, as the quantizer
    outputs.  A point's energy is the sum ``a**2 + b**2`` of its two rails'
    energies, so ``size`` and the energy data come from L's own values; no
    array of all ``size`` points is built.  For the identity quantizer each
    raises :class:`UnboundedConstellationError`.  Specs compare and hash by
    value: by their fields, not by the tables each builds once.  A spec
    holds only the fields its kind takes, so one level set makes one spec.
    """

    kind: str
    bits: int | None = None
    clip: float | None = None
    levels: tuple[float, ...] | None = None

    #: The fields each kind takes, with their rules in the JSON-Schema words
    #: that ``_rng.check_fields`` applies and the config schema reads; a kind
    #: takes no other field.  A level list is checked as numpy reads it.
    BOUNDS = {
        "identity": {},
        "uniform_midrise": {"bits": {"type": "integer", "minimum": 1, "maximum": MAX_BITS},
                            "clip": {"type": "number", "exclusiveMinimum": 0}},
        "custom_levels": {"levels": {"type": "array", "items": {"type": "number"}, "minItems": 1}},
    }

    def __post_init__(self):
        if self.kind not in self.BOUNDS:
            raise ValueError(f"unknown quantizer kind {self.kind!r}")
        for name in ("bits", "clip", "levels"):
            if name not in self.BOUNDS[self.kind] and getattr(self, name) is not None:
                raise ValueError(f"{self.kind} quantizer takes no {name}")
        if self.kind == "uniform_midrise":
            check_fields(self, self.BOUNDS[self.kind])
            # a float clip, once it is a number: the constructor and the
            # factory store the same value, and equal clips hash equal
            clip = float(self.clip)
            object.__setattr__(self, "clip", clip)
            # the step 2 * clip / (2**bits - 1) and the outer levels'
            # numerator clip * (2**bits - 1) must both be finite (Python
            # floats overflow to inf without a warning)
            if not np.isfinite(2.0 * clip) or not np.isfinite(clip * (2**self.bits - 1)):
                raise ValueError(f"uniform_midrise clip {self.clip} puts its step or levels past the float range")
            # a step below float resolution (a subnormal clip) rounds levels together
            if not np.all(np.diff(self.levels_per_dim()) > 0):
                raise ValueError(f"uniform_midrise clip {self.clip} puts its step below float "
                                 "resolution: its levels are not strictly increasing")
        elif self.kind == "custom_levels":
            try:  # numpy refuses a ragged list with a message that names no field
                lv = np.asarray(self.levels, dtype=float)
            except ValueError:
                raise ValueError(f"custom_levels requires a non-empty 1-D level list of numbers, "
                                 f"not {self.levels!r}") from None
            if lv.ndim != 1 or lv.size == 0:
                raise ValueError(f"custom_levels requires a non-empty 1-D level list, got shape {lv.shape}")
            if not np.all(np.isfinite(lv)):
                raise ValueError("levels must be finite")
            if not np.all(lv[1:] > lv[:-1]):
                raise ValueError("levels must be strictly increasing")
            # a tuple of floats, so that equal level sets compare and hash equal
            object.__setattr__(self, "levels", tuple(lv.tolist()))

    @classmethod
    def identity(cls) -> "QuantizerSpec":
        return cls(kind="identity")

    @classmethod
    def uniform_midrise(cls, bits: int, clip: float) -> "QuantizerSpec":
        return cls(kind="uniform_midrise", bits=bits, clip=clip)

    @classmethod
    def custom_levels(cls, levels) -> "QuantizerSpec":
        return cls(kind="custom_levels", levels=levels)

    @classmethod
    def midrise_for_power(cls, bits: int | None, power: float, kappa: float) -> "QuantizerSpec":
        """The ideal DAC for ``bits=None``; otherwise a ``bits``-bit midrise
        quantizer loaded at ``kappa`` per-dimension sigmas of ``power``."""
        if bits is None:
            return cls.identity()
        return cls.uniform_midrise(bits, clip_for_power(power, kappa))

    @property
    def is_identity(self) -> bool:
        return self.kind == "identity"

    def levels_per_dim(self) -> np.ndarray:
        """The sorted per-dimension output level set (read-only, built once
        per spec)."""
        return self._tables[0]

    def thresholds_per_dim(self) -> np.ndarray:
        """Decision boundaries (midpoints between adjacent levels; read-only,
        built once per spec)."""
        return self._tables[1]

    @cached_property
    def _tables(self) -> tuple[np.ndarray, np.ndarray]:
        if self.kind == "identity":
            raise UnboundedConstellationError("identity quantizer has no finite level set")
        if self.kind == "uniform_midrise":
            n = 2 ** self.bits
            k = np.arange(n, dtype=float)
            lv = self.clip * (2.0 * k + 1.0 - n) / (n - 1)
        else:
            lv = np.array(self.levels, dtype=float)
        # halving each level first keeps the midpoint of two levels near
        # the float range finite; above the subnormals halving is exact
        thr = lv[:-1] / 2.0 + lv[1:] / 2.0
        lv.flags.writeable = thr.flags.writeable = False
        return lv, thr

    @property
    def size(self) -> int:
        """Number of constellation points, ``len(L)**2``."""
        return self.levels_per_dim().size ** 2

    @cached_property
    def energy_classes(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Sorted distinct energies ``l**2`` of one rail's levels, their
        multiplicities in L (as floats) and multiplicity times energy, as every
        tilt-solver step reads them (read-only, built once per spec).  A
        point's energy class is a pair of these, one per rail."""
        energies, counts = np.unique(self.levels_per_dim() ** 2, return_counts=True)
        counts = counts.astype(float)
        weighted = counts * energies
        for a in (energies, counts, weighted):
            a.flags.writeable = False
        return energies, counts, weighted

    @property
    def min_energy(self) -> float:
        return 2.0 * float(self.energy_classes[0][0])

    @property
    def max_energy(self) -> float:
        return 2.0 * float(self.energy_classes[0][-1])

    @property
    def mean_energy(self) -> float:
        """Mean point energy under uniform weighting."""
        return 2.0 * float(np.mean(self.levels_per_dim() ** 2))


#: Floats one block of ``quantize`` maps: each temporary of a block stays
#: L2-sized (256 KB), whatever the input size.
_MAP_BLOCK = 2**15


def _map_dim(spec: QuantizerSpec, x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The level of each float of the 1-D ``x``, written to ``out`` and
    returned."""
    if spec.kind == "uniform_midrise":
        clip, top = float(spec.clip), 2 ** spec.bits - 1
        step = 2.0 * clip / top
        # a sample far beyond a tiny step overflows to an infinite index,
        # which the clip sends to an extreme level, as it does a +-inf sample
        with np.errstate(over="ignore"):
            work = x + clip
            work /= step
        work += 0.5
        # the cast truncates, which on [0, top] is the floor
        idx = np.clip(work, 0.0, top, out=work).astype(np.intp)
    else:
        # thresholds are the midpoints between consecutive levels; a sample
        # exactly on a threshold maps to the upper level
        idx = np.searchsorted(spec.thresholds_per_dim(), x, side="right")
    # every index is in range, so "clip" only spares take a buffered copy
    return spec.levels_per_dim().take(idx, out=out, mode="clip")


def quantize(spec: QuantizerSpec, u, out=None):
    """Apply the quantizer to a complex scalar or array (real and imaginary
    parts independently).

    Every non-NaN part maps to a nearest ``levels_per_dim()`` entry, +/-inf
    to an extreme one.  A NaN real or imaginary part raises
    :class:`NumericalFailureError`, since it has no nearest level; an array
    ``out`` may then hold the levels of the blocks before it.  The identity
    quantizer passes any input through unchecked.

    ``out``, a C-contiguous complex array of an array input's shape,
    receives the levels and is returned.  It may be ``u`` itself, which
    quantizes ``u`` in place: each block's indices are computed before its
    levels are written.  It must not overlap ``u`` otherwise."""
    if spec.is_identity:
        if out is None:
            return u
        if out is not u:
            np.copyto(out, u)
        return out
    arr = np.asarray(u, dtype=complex)
    if out is None:
        out = np.empty(arr.shape, dtype=complex)
    elif out.shape != arr.shape or out.dtype != complex or not out.flags.c_contiguous:
        raise ValueError("out must be a C-contiguous complex array of the input's shape")
    # both rails in one pass over the interleaved (re, im) float view
    flat = arr.ravel().view(float)
    levels = out.reshape(-1).view(float)
    for i in range(0, flat.size, _MAP_BLOCK):
        block = flat[i : i + _MAP_BLOCK]
        # a block's minimum is NaN exactly when the block holds a NaN
        if math.isnan(np.minimum.reduce(block)):
            raise NumericalFailureError("NaN input to the quantizer")
        _map_dim(spec, block, levels[i : i + block.size])
    if arr.ndim == 0:
        return complex(out[()])
    return out


def constellation_of(spec: QuantizerSpec) -> QuantizerSpec:
    """``spec`` itself, once it is known to have a finite level set: a spec
    is its own constellation.  The identity quantizer has no level set and
    raises :class:`UnboundedConstellationError`."""
    spec.levels_per_dim()
    return spec
