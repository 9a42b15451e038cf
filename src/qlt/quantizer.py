"""Componentwise scalar quantizers (DAC/ADC models) and their constellations.

A quantizer acts independently on the real and imaginary part of each complex
sample with the same per-dimension level set.  Three kinds are supported:

* ``identity`` - pass-through (infinite resolution),
* ``uniform_midrise`` - ``2**bits`` uniformly spaced levels per dimension with
  the outermost levels at ``+/-clip``,
* ``custom_levels`` - an arbitrary strictly increasing level list.

Midrise level placement: levels sit at ``clip * (2k + 1 - 2**b) / (2**b - 1)``
for ``k = 0 .. 2**b - 1`` (for ``b = 1`` this is ``+/-clip``).  Decision
boundaries are the midpoints between adjacent levels; a sample exactly on a
boundary rounds toward +inf.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import _kernels
from .errors import NumericalFailureError, UnboundedConstellationError

#: Default loading factor: clip = DEFAULT_KAPPA * sqrt(input_power / 2).
DEFAULT_KAPPA = 3.0


def clip_for_power(power: float, kappa: float = DEFAULT_KAPPA) -> float:
    """Clip level for a given mean complex input power: kappa per-dimension sigmas."""
    if not power > 0:
        raise ValueError("power must be positive")
    return kappa * np.sqrt(power / 2.0)


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
            if not isinstance(self.bits, int) or self.bits < 1:
                raise ValueError("uniform_midrise requires integer bits >= 1")
            if self.clip is None or not self.clip > 0:
                raise ValueError("uniform_midrise requires clip > 0")
        elif self.kind == "custom_levels":
            if not self.levels:
                raise ValueError("custom_levels requires a non-empty level list")
            lv = np.asarray(self.levels, dtype=float)
            if not np.all(np.isfinite(lv)):
                raise ValueError("levels must be finite")
            if lv.size > 1 and not np.all(np.diff(lv) > 0):
                raise ValueError("levels must be strictly increasing")
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
    """Finite set of complex output points of a quantizer.

    ``points`` is a read-only copy of the array passed in, so the energy data
    derived from it below stay valid for the object's life.
    """

    points: np.ndarray

    def __post_init__(self):
        pts = np.array(self.points, dtype=complex)
        if pts.size == 0:
            raise ValueError("constellation must be non-empty")
        if np.unique(pts).size != pts.size:
            raise ValueError("duplicate constellation points are forbidden")
        pts.flags.writeable = False
        object.__setattr__(self, "points", pts)

    @property
    def size(self) -> int:
        return self.points.size

    @cached_property
    def energies(self) -> np.ndarray:
        # re^2 + im^2 rather than abs()**2: exact for grid constellations, so
        # equal-energy points deduplicate into exact classes downstream
        e = self.points.real**2 + self.points.imag**2
        e.flags.writeable = False
        return e

    @cached_property
    def energy_classes(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Sorted distinct point energies, their multiplicities (as floats)
        and multiplicity times energy, as every tilt-solver step reads them."""
        energies, counts = np.unique(self.energies, return_counts=True)
        counts = counts.astype(float)
        weighted = counts * energies
        for a in (energies, counts, weighted):
            a.flags.writeable = False
        return energies, counts, weighted

    @property
    def min_energy(self) -> float:
        return float(self.energies.min())

    @property
    def max_energy(self) -> float:
        return float(self.energies.max())

    @property
    def mean_energy(self) -> float:
        """Mean point energy under uniform weighting."""
        return float(self.energies.mean())


def _map_dim(spec: QuantizerSpec, x: np.ndarray) -> np.ndarray:
    if spec.kind == "uniform_midrise":
        return _kernels.midrise_map(x, float(spec.clip), 2 ** spec.bits)
    return _kernels.nearest_map(x, spec.levels_per_dim(), spec.thresholds_per_dim())


def quantize(spec: QuantizerSpec, u):
    """Apply the quantizer to a complex scalar or array (real and imaginary
    parts independently).

    Every non-NaN input maps into the constellation; +/-inf parts map to the
    extreme levels.  A NaN real or imaginary part raises
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
    """Cartesian product of the per-dimension level set with itself, as
    complex points.  Raises for the identity quantizer."""
    if spec.is_identity:
        raise UnboundedConstellationError("identity quantizer has an unbounded constellation")
    lv = spec.levels_per_dim()
    re, im = np.meshgrid(lv, lv, indexing="ij")
    return Constellation(points=(re + 1j * im).ravel())
