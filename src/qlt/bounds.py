"""Constellation-constrained capacity upper bound.

The bound is built from the cumulant generating function of the energy of a
uniformly drawn constellation point, its Legendre transform, and the maximum
entropy achievable at a target mean energy (an exponentially tilted law).
Cumulant and rate-function values are in nats; entropies and rates in bits.
A batch of bound rows solves the maximum entropy once per distinct total.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .analysis import _check_fractions, _check_shares, _kl_bits
from .errors import (
    BoundaryEnergyError,
    InfeasibleEnergyError,
    NumericalFailureError,
)
from .moments import AgnMoments
from .quantizer import Constellation

#: Bisection tolerance on the tilt parameter.
TILT_TOL = 1e-12

_LN2 = math.log(2.0)


@dataclass(frozen=True)
class UpperBoundReport:
    """Capacity upper bound at a target spectrum, in bits/symbol."""

    max_entropy_bits: float
    shaping_loss_bits: float
    bits_per_symbol: float
    tilt: float
    gap_bits: float | None = None
    mask_infeasible: bool = False


def _clamp_to_range(s: float, e_lo: float, e_hi: float) -> float:
    """Absorb float round-off: targets within ~1 ulp of the achievable range
    snap onto it rather than failing as infeasible."""
    tol = 1e-12 * max(1.0, abs(e_lo), abs(e_hi))
    if e_lo - tol <= s < e_lo:
        return e_lo
    if e_hi < s <= e_hi + tol:
        return e_hi
    return s


def _log_mgf_terms(energies, counts, theta, size):
    """log of (1/|A|) sum_i counts_i exp(theta e_i), max-shift stabilized."""
    shift = theta * (energies[-1] if theta > 0 else energies[0])
    expo = np.exp(theta * energies - shift)
    total = float(np.dot(counts, expo))
    return shift + math.log(total / size), expo, total


def cumulant(cset: Constellation, theta: float) -> float:
    """Cumulant generating function of the point energy at tilt theta (nats)."""
    energies, counts, _ = cset.energy_classes
    val, _, _ = _log_mgf_terms(energies, counts, float(theta), cset.size)
    return val


def tilted_mean_energy(cset: Constellation, theta: float) -> float:
    """Mean energy under the exponentially tilted law (the cumulant derivative)."""
    energies, counts, weighted = cset.energy_classes
    _, expo, total = _log_mgf_terms(energies, counts, float(theta), cset.size)
    return float(np.dot(weighted, expo) / total)


def tilted_distribution(cset: Constellation, theta: float) -> np.ndarray:
    """Per-point probabilities proportional to exp(theta |x|^2)."""
    shift = theta * (cset.max_energy if theta > 0 else cset.min_energy)
    w = np.exp(theta * cset.energies - shift)
    return w / w.sum()


def rate_function(cset: Constellation, s: float) -> tuple[float, float]:
    """Legendre transform of the cumulant at target energy s.

    Returns (value in nats, maximizing tilt).  The tilt solves
    tilted_mean_energy(theta) = s by bisection on an expanding bracket
    (monotone by convexity of the cumulant).  A non-finite s is a ValueError.
    """
    if not math.isfinite(s):
        raise ValueError(f"target energy must be finite, got {s}")
    energies, _, _ = cset.energy_classes
    e_lo, e_hi = float(energies[0]), float(energies[-1])
    e_mean = cset.mean_energy
    s = _clamp_to_range(s, e_lo, e_hi)
    if s < e_lo or s > e_hi:
        raise InfeasibleEnergyError(
            f"target energy {s} outside achievable range [{e_lo}, {e_hi}]"
        )
    if energies.size == 1 or s == e_mean:
        return 0.0, 0.0
    if s == e_lo or s == e_hi:
        raise BoundaryEnergyError(
            f"target energy {s} on the achievable boundary: rate function diverges"
        )
    lo, hi = -1.0, 1.0
    for _ in range(200):
        if tilted_mean_energy(cset, lo) <= s:
            break
        lo *= 2.0
    else:  # pragma: no cover - s is interior, bracket always closes
        raise NumericalFailureError("tilt bracket expansion failed (low side)")
    for _ in range(200):
        if tilted_mean_energy(cset, hi) >= s:
            break
        hi *= 2.0
    else:  # pragma: no cover
        raise NumericalFailureError("tilt bracket expansion failed (high side)")
    while hi - lo > TILT_TOL:
        mid = 0.5 * (lo + hi)
        if tilted_mean_energy(cset, mid) < s:
            lo = mid
        else:
            hi = mid
    tilt = 0.5 * (lo + hi)
    value = tilt * s - cumulant(cset, tilt)
    return float(max(value, 0.0)), float(tilt)


def _entropy_and_tilt(cset: Constellation, s: float) -> tuple[float, float]:
    """Max entropy (bits) and tilt at target energy s."""
    energies, counts, _ = cset.energy_classes
    s = _clamp_to_range(float(s), float(energies[0]), float(energies[-1]))
    if energies.size > 1 and s == float(energies[0]):
        return math.log2(counts[0]), math.nan
    if energies.size > 1 and s == float(energies[-1]):
        return math.log2(counts[-1]), math.nan
    value, tilt = rate_function(cset, s)
    h_bits = math.log2(cset.size) - value / _LN2
    # cross-check against the entropy of the tilted law achieving energy s
    p = tilted_distribution(cset, tilt)
    h_direct = float(-np.sum(p * np.log2(p)))
    if abs(h_direct - h_bits) > 1e-6 * max(1.0, abs(h_bits)):
        raise NumericalFailureError(
            f"max-entropy cross-check failed: {h_bits} vs tilted-law {h_direct}"
        )
    return h_bits, tilt


def max_entropy(cset: Constellation, s: float) -> float:
    """Largest entropy (bits) of a distribution on the constellation with
    mean energy s; boundary energies degenerate to the energy class itself."""
    return _entropy_and_tilt(cset, s)[0]


def _bound_rows(cset: Constellation, band_energy: np.ndarray, fractions) -> list[tuple]:
    """(max entropy, tilt, shaping loss) per row of target band energies; the
    loss is None where a band has a zero share.  Rows are
    checked in order (an unmasked row's shares before its solve, so a NaN row
    is a ValueError) and each distinct total is solved once, so a failing row
    raises what it would alone."""
    fr = _check_fractions(fractions)
    if band_energy.shape[1:] != (len(fr),):
        raise ValueError("band_energy and fractions must have equal length")
    s_tot = band_energy.sum(axis=-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        shares = band_energy / s_tot[:, None]
    negative = np.any(band_energy < 0, axis=-1).tolist()
    masked = np.any(shares == 0, axis=-1).tolist()
    out, solve = [], functools.cache(functools.partial(_entropy_and_tilt, cset))
    for row, total, neg, mask in zip(shares.tolist(), s_tot.tolist(), negative, masked):
        if neg:
            raise ValueError("band energies must be non-negative")
        if total <= 0:
            raise ValueError("total target energy must be positive")
        if not mask:
            _check_shares(row)
        h, tilt = solve(total)
        out.append((h, tilt, None if mask else _kl_bits(fr, row)))
    return out


def rate_upper_bound(
    cset: Constellation, band_energy, fractions, m_tx: AgnMoments | None = None
) -> UpperBoundReport:
    """Capacity upper bound for target per-band energies, any modulator.

    The bound is the maximum entropy at the total energy minus the shaping
    penalty D(fractions || shares).  It is negative where that penalty exceeds
    the entropy: no modulator on ``cset`` meets those band shares.  With
    transmit moments supplied, also reports the gap to the flat-allocation
    linear rate.
    """
    [(h, tilt, kl)] = _bound_rows(cset, np.asarray(band_energy, dtype=float)[None], fractions)
    if kl is None:
        return UpperBoundReport(
            max_entropy_bits=h,
            shaping_loss_bits=math.inf,
            bits_per_symbol=-math.inf,
            tilt=tilt,
            mask_infeasible=True,
        )
    gap = None
    if m_tx is not None:
        if m_tx.noise == 0.0:
            gap = -math.inf
        else:
            gap = h - math.log2(1.0 + m_tx.gain**2 / m_tx.noise)
    return UpperBoundReport(
        max_entropy_bits=h,
        shaping_loss_bits=kl,
        bits_per_symbol=h - kl,
        tilt=tilt,
        gap_bits=gap,
    )


def upper_bound_rates(cset: Constellation, band_energy, fractions) -> list[float]:
    """``rate_upper_bound(cset, row, fractions).bits_per_symbol`` for each row
    of a 2-D array of band energies, in one pass."""
    rows = _bound_rows(cset, np.asarray(band_energy, dtype=float), fractions)
    return [-math.inf if kl is None else h - kl for h, _, kl in rows]
