"""Componentwise scalar quantizers (DAC/ADC models) and their constellations.

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
and ``thresholds_per_dim`` describe it, and ``_map_dim`` applies it.  The
midrise map finds a sample's level index by rounding ``(x + clip) / step``
rather than by comparing it with the thresholds, so a sample exactly on a
boundary may round down.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import NumericalFailureError, UnboundedConstellationError

#: Default loading factor: clip = DEFAULT_KAPPA * sqrt(input_power / 2).
DEFAULT_KAPPA = 3.0

#: Most bits a midrise quantizer takes: its 2**bits levels are tabulated.
MAX_BITS = 16


def clip_for_power(power: float, kappa: float = DEFAULT_KAPPA) -> float:
    """Clip level for a given mean complex input power: kappa per-dimension sigmas."""
    if not power > 0:
        raise ValueError("power must be positive")
    return kappa * np.sqrt(power / 2.0)


def _check_levels(lv: np.ndarray) -> None:
    if not np.all(np.isfinite(lv)):
        raise ValueError("levels must be finite")
    if not np.all(np.diff(lv) > 0):
        raise ValueError("levels must be strictly increasing")


@dataclass(frozen=True)
class QuantizerSpec:
    """Description of a componentwise scalar quantizer.

    Use the factory classmethods rather than the constructor directly.
    """

    kind: str
    bits: int | None = None
    clip: float | None = None
    levels: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.kind == "identity":
            if self.bits is not None or self.clip is not None or self.levels is not None:
                raise ValueError("identity quantizer takes no parameters")
        elif self.kind == "uniform_midrise":
            if not isinstance(self.bits, int) or not 1 <= self.bits <= MAX_BITS:
                raise ValueError(f"uniform_midrise requires integer bits in 1..{MAX_BITS}")
            if self.clip is None or not self.clip > 0:
                raise ValueError("uniform_midrise requires clip > 0")
        elif self.kind == "custom_levels":
            if not self.levels:
                raise ValueError("custom_levels requires a non-empty level list")
            _check_levels(np.asarray(self.levels, dtype=float))
        else:
            raise ValueError(f"unknown quantizer kind {self.kind!r}")

    @classmethod
    def identity(cls) -> "QuantizerSpec":
        return cls(kind="identity")

    @classmethod
    def uniform_midrise(cls, bits: int, clip: float) -> "QuantizerSpec":
        return cls(kind="uniform_midrise", bits=bits, clip=float(clip))

    @classmethod
    def custom_levels(cls, levels) -> "QuantizerSpec":
        return cls(kind="custom_levels", levels=tuple(float(v) for v in levels))

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
        """The sorted per-dimension output level set."""
        if self.kind == "identity":
            raise UnboundedConstellationError("identity quantizer has no finite level set")
        if self.kind == "uniform_midrise":
            n = 2 ** self.bits
            k = np.arange(n, dtype=float)
            return self.clip * (2.0 * k + 1.0 - n) / (n - 1)
        return np.asarray(self.levels, dtype=float)

    def thresholds_per_dim(self) -> np.ndarray:
        """Decision boundaries (midpoints between adjacent levels)."""
        lv = self.levels_per_dim()
        return (lv[:-1] + lv[1:]) / 2.0


@dataclass(frozen=True)
class Constellation:
    """The product L x L of a per-dimension level set L: a point
    ``a + 1j * b`` for each pair of levels, as every componentwise quantizer
    outputs.

    ``levels`` is a read-only copy of the array passed in, non-empty and
    strictly increasing, so no two points coincide.  A point's energy is the
    sum ``a**2 + b**2`` of its two rails' energies, so the size and energy
    data below come from L's own values; ``points`` and ``energies`` enumerate
    all ``size`` points and are built only when read.
    """

    levels: np.ndarray

    def __post_init__(self):
        lv = np.array(self.levels, dtype=float)
        if lv.ndim != 1 or lv.size == 0:
            raise ValueError("constellation level set must be non-empty and 1-D")
        _check_levels(lv)
        lv.flags.writeable = False
        object.__setattr__(self, "levels", lv)

    @property
    def size(self) -> int:
        return self.levels.size ** 2

    @cached_property
    def energy_classes(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Sorted distinct energies ``l**2`` of one rail's levels, their
        multiplicities in L (as floats) and multiplicity times energy, as every
        tilt-solver step reads them.  A point's energy class is a pair of
        these, one per rail."""
        energies, counts = np.unique(self.levels**2, return_counts=True)
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
        return 2.0 * float(np.mean(self.levels**2))

    @cached_property
    def points(self) -> np.ndarray:
        """Every point, real rail major: ``size`` of them, 4**bits for a
        midrise quantizer."""
        re, im = np.meshgrid(self.levels, self.levels, indexing="ij")
        pts = (re + 1j * im).ravel()
        pts.flags.writeable = False
        return pts

    @cached_property
    def energies(self) -> np.ndarray:
        """``a**2 + b**2`` of each point, in ``points`` order."""
        sq = self.levels**2
        e = (sq[:, None] + sq[None, :]).ravel()
        e.flags.writeable = False
        return e


def _map_dim(spec: QuantizerSpec, x: np.ndarray) -> np.ndarray:
    if spec.kind == "uniform_midrise":
        clip, nlevels = float(spec.clip), 2 ** spec.bits
        step = 2.0 * clip / (nlevels - 1)
        idx = np.floor((x + clip) / step + 0.5)
        np.clip(idx, 0.0, nlevels - 1, out=idx)
        # levels_per_dim()'s formula, in place on the level index
        idx *= 2.0
        idx += 1.0 - nlevels
        idx *= clip
        idx /= nlevels - 1
        return idx
    # thresholds are the midpoints between consecutive levels; a sample
    # exactly on a threshold maps to the upper level
    idx = np.searchsorted(spec.thresholds_per_dim(), x, side="right")
    return spec.levels_per_dim()[idx]


def quantize(spec: QuantizerSpec, u):
    """Apply the quantizer to a complex scalar or array (real and imaginary
    parts independently).

    Every non-NaN part maps to a nearest ``levels_per_dim()`` entry, +/-inf
    to an extreme one.  A NaN real or imaginary part raises
    :class:`NumericalFailureError`, since it has no nearest level.  The
    identity quantizer passes any input through unchecked."""
    if spec.is_identity:
        return u
    arr = np.asarray(u, dtype=complex)
    if np.isnan(arr).any():
        raise NumericalFailureError("NaN input to the quantizer")
    scalar = arr.ndim == 0
    # both rails in one pass over the contiguous array's interleaved
    # (re, im) float view
    out = _map_dim(spec, arr.ravel().view(float)).view(complex)
    if scalar:
        return complex(out[0])
    return out.reshape(arr.shape)


def constellation_of(spec: QuantizerSpec) -> Constellation:
    """The product of the per-dimension level set with itself, built from
    that set's ``2**bits`` values.  Raises for the identity quantizer."""
    if spec.is_identity:
        raise UnboundedConstellationError("identity quantizer has an unbounded constellation")
    return Constellation(levels=spec.levels_per_dim())
