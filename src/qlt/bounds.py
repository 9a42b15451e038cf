"""Constellation-constrained capacity upper bound.

The bound is built from the cumulant generating function of the energy of a
uniformly drawn constellation point, its Legendre transform, and the maximum
entropy achievable at a target mean energy (an exponentially tilted law).
Cumulant and rate-function values are in nats; entropies and rates in bits.

A constellation is a ``QuantizerSpec``: a spec with a finite level set L is
its own constellation, the product L x L, and compares and hashes by value.
A uniform point is two independent uniform levels and its energy is the sum
of their squares.  The tilted law exp(theta |x|^2) is then the product of one
law exp(theta l^2) per rail (Cover & Thomas 2006, Thm 12.1.1): the cumulant
and the tilted mean are twice one rail's, and the maximum entropy at total
energy s is twice one rail's at s/2.  Every quantity below is computed over L's
energy classes, 2**bits values at most, and doubled.

The tilt that attains a target energy is found by ITP (Oliveira & Takahashi,
"An enhancement of the bisection method average performance preserving minmax
optimality", ACM TOMS 47(1), 2020): at most one evaluation more than bisection
to TILT_TOL, or to two adjacent floats where their spacing exceeds TILT_TOL,
superlinear on the smooth tilted mean.  A batch of bound rows shares one total
energy and so one solve.
"""

import math
from dataclasses import dataclass

import numpy as np

from .analysis import _check_fractions, _check_shares, _flat_rate, _kl_bits
from .errors import (
    BoundaryEnergyError,
    InfeasibleEnergyError,
    InfiniteRateError,
    NumericalFailureError,
)
from .moments import AgnMoments
from .quantizer import QuantizerSpec

#: Width of the final bracket on the tilt parameter.
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


def _log_mgf_terms(cset: QuantizerSpec, theta: float):
    """One rail's cumulant log((1/|L|) sum_i counts_i exp(theta e_i)) over
    its energy classes, max-shift stabilized, with the shifted exponentials
    exp(theta e_i - shift) and their count-weighted sum."""
    energies, counts, _ = cset.energy_classes
    shift = theta * (energies[-1] if theta > 0 else energies[0])
    expo = np.exp(theta * energies - shift)
    total = float(np.dot(counts, expo))
    return shift + math.log(total / cset.levels_per_dim().size), expo, total


def cumulant(cset: QuantizerSpec, theta: float) -> float:
    """Cumulant generating function of the point energy at tilt theta (nats):
    twice one rail's."""
    return 2.0 * _log_mgf_terms(cset, float(theta))[0]


def tilted_mean_energy(cset: QuantizerSpec, theta: float) -> float:
    """Mean energy under the exponentially tilted law (the cumulant
    derivative): twice one rail's."""
    _, expo, total = _log_mgf_terms(cset, float(theta))
    return 2.0 * float(np.dot(cset.energy_classes[2], expo) / total)


def _bracket_end(cset: QuantizerSpec, s: float, tilt: float) -> tuple[float, float]:
    """The first of tilt, 2 tilt, 4 tilt, ... at which the tilted mean energy
    less s is zero or has tilt's sign, and that difference."""
    for _ in range(200):
        f = tilted_mean_energy(cset, tilt) - s
        if f * tilt >= 0:
            return tilt, f
        tilt *= 2.0
    # s is interior, so the bracket always closes
    raise NumericalFailureError("tilt bracket expansion failed")  # pragma: no cover


def rate_function(cset: QuantizerSpec, s: float) -> tuple[float, float]:
    """Legendre transform of the cumulant at target energy s.

    Returns (value in nats, maximizing tilt).  The tilt solves
    tilted_mean_energy(theta) = s (increasing by convexity of the cumulant) by
    ITP on an expanding bracket [lo, hi], and is the midpoint of a final
    bracket no wider than TILT_TOL, or of two adjacent floats where a large
    tilt spaces its floats wider than that.  Past
    ceil(log2((hi - lo) / TILT_TOL)) + 1 evaluations, one more than
    bisection, the solve is a NumericalFailureError (a NaN tilted mean).  A
    non-finite s is a ValueError.
    """
    if not math.isfinite(s):
        raise ValueError(f"target energy must be finite, got {s}")
    energies, _, _ = cset.energy_classes
    e_lo, e_hi = cset.min_energy, cset.max_energy
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
    lo, f_lo = _bracket_end(cset, s, -1.0)
    hi, f_hi = _bracket_end(cset, s, 1.0)
    # ITP (kappa1 = 0.2 / width, kappa2 = 2, n0 = 1): the regula falsi point,
    # moved kappa1 * width^2 toward the midpoint, then projected into the radius
    # around it that leaves a bracket of at most reach * 2^(steps left).  reach
    # is TILT_TOL less the ulps that rounding may add, so n_max steps suffice;
    # for tilts in the thousands it is <= 0 and the steps are bisection's.
    width = hi - lo
    kappa1 = 0.2 / width
    n_max = math.ceil(math.log2(width / TILT_TOL)) + 1
    reach = TILT_TOL - 4.0 * math.ulp(max(-lo, hi))
    for j in range(n_max + 1):
        # adjacent floats are the narrowest bracket there is, even where
        # their spacing exceeds TILT_TOL (tilts past about 8192)
        if hi - lo <= TILT_TOL or math.nextafter(lo, hi) == hi:
            break
        if j == n_max:
            raise NumericalFailureError(f"tilt solve at s={s} did not converge")
        mid = 0.5 * (lo + hi)
        denom = f_hi - f_lo
        x_f = (lo * f_hi - hi * f_lo) / denom if denom > 0 else mid
        delta = kappa1 * (hi - lo) ** 2
        x_t = mid if delta > abs(mid - x_f) else x_f + math.copysign(delta, mid - x_f)
        radius = max(reach * 2.0 ** (n_max - j - 1) - 0.5 * (hi - lo), 0.0)
        x = x_t if abs(x_t - mid) <= radius else mid + math.copysign(radius, x_t - mid)
        f_x = tilted_mean_energy(cset, x) - s
        if f_x < 0:
            lo, f_lo = x, f_x
        elif f_x > 0:
            hi, f_hi = x, f_x
        elif f_x == 0:
            lo = hi = x
        # a NaN moves neither end and runs into the cap
    tilt = 0.5 * (lo + hi)
    value = tilt * s - cumulant(cset, tilt)
    return float(max(value, 0.0)), float(tilt)


def _entropy_and_tilt(cset: QuantizerSpec, s: float) -> tuple[float, float]:
    """Max entropy (bits) and tilt at target energy s."""
    energies, counts, _ = cset.energy_classes
    s = _clamp_to_range(float(s), cset.min_energy, cset.max_energy)
    # a boundary energy class is one rail's extreme class on both rails
    if energies.size > 1 and s == cset.min_energy:
        return 2.0 * math.log2(counts[0]), math.nan
    if energies.size > 1 and s == cset.max_energy:
        return 2.0 * math.log2(counts[-1]), math.nan
    value, tilt = rate_function(cset, s)
    h_bits = math.log2(cset.size) - value / _LN2
    # cross-check against the entropy of the tilted law achieving energy s,
    # twice that of one rail's law, whose levels in class i each have
    # probability expo_i / total (0 log 0 = 0: a probability that underflows
    # to 0 adds nothing, and a NaN entropy fails the check)
    _, expo, total = _log_mgf_terms(cset, tilt)
    kept = expo > 0.0
    p = expo[kept] / total
    h_direct = float(-2.0 * np.dot(counts[kept], p * np.log2(p)))
    if not abs(h_direct - h_bits) <= 1e-6 * max(1.0, abs(h_bits)):
        raise NumericalFailureError(
            f"max-entropy cross-check failed: {h_bits} vs tilted-law {h_direct}"
        )
    return h_bits, tilt


def max_entropy(cset: QuantizerSpec, s: float) -> float:
    """Largest entropy (bits) of a distribution on the constellation with
    mean energy s; boundary energies degenerate to the energy class itself."""
    return _entropy_and_tilt(cset, s)[0]


def _bound_rows(cset: QuantizerSpec, total, shares, fractions) -> tuple[float, float, list]:
    """Max entropy and tilt at the total energy, and the shaping loss
    D(fractions || row) of each row of band shares (inf where a band has a
    zero share).  Every row is checked before the one solve, so an invalid
    row is a ValueError whatever the solve would do."""
    fr = _check_fractions(fractions)
    rows = np.asarray(shares, dtype=float)
    if rows.ndim != 2 or rows.shape[1] != len(fr):
        raise ValueError("share rows and fractions must have equal length")
    if total <= 0:
        raise ValueError("total target energy must be positive")
    losses = []
    for row in rows.tolist():
        _check_shares(row)
        losses.append(_kl_bits(fr, row))
    h, tilt = _entropy_and_tilt(cset, total)
    return h, tilt, losses


def rate_upper_bound(
    cset: QuantizerSpec, band_energy, fractions, m_tx: AgnMoments | None = None
) -> UpperBoundReport:
    """Capacity upper bound for target per-band energies, any modulator.

    The bound is the maximum entropy at the total energy minus the shaping
    penalty D(fractions || shares).  It is negative where that penalty exceeds
    the entropy: no modulator on ``cset`` meets those band shares.  With
    transmit moments supplied, also reports the gap to the flat-allocation
    linear rate.
    """
    energy = np.asarray(band_energy, dtype=float)
    if np.any(energy < 0):
        raise ValueError("band energies must be non-negative")
    total = float(energy.sum())
    with np.errstate(divide="ignore", invalid="ignore"):
        shares = energy / total
    h, tilt, [kl] = _bound_rows(cset, total, shares[None], fractions)
    masked = kl == math.inf
    gap = None
    if m_tx is not None and not masked:
        try:
            gap = h - _flat_rate(m_tx)
        except InfiniteRateError:  # a noiseless identity chain
            gap = -math.inf
    return UpperBoundReport(
        max_entropy_bits=h,
        shaping_loss_bits=kl,
        bits_per_symbol=h - kl,
        tilt=tilt,
        gap_bits=gap,
        mask_infeasible=masked,
    )


def upper_bound_rates(cset: QuantizerSpec, total: float, shares, fractions) -> list[float]:
    """The capacity upper bound at one total energy for each row of a 2-D
    array of band shares: ``rate_upper_bound(cset, total * row,
    fractions).bits_per_symbol`` up to the rounding of the row's total, with
    one maximum-entropy solve for all rows."""
    h, _, losses = _bound_rows(cset, float(total), shares, fractions)
    return [h - kl for kl in losses]
