"""Closed-form spectrum and achievable-rate predictions.

All rates are reported in bits per symbol (log base 2); the out-of-band
feasibility floor, power-allocation inversion, and the Kullback-Leibler
shaping penalty follow the conventions documented on each operation.

Every function taking bandwidth fractions requires a non-empty 1-D
sequence of positive values (so a NaN fails) summing to 1 within 1e-12.
Every share vector must be a non-empty 1-D sequence, no share below
-FEASIBILITY_SLACK, summing to 1 within 1e-9 (so NaN or inf fails).
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._rng import check_value
from .errors import ContractError, FeasibilityError, InfiniteRateError, NumericalFailureError
from .moments import NOISE_POWER_RULE, AgnMoments
from .quantizer import POWER_RULE

#: Absolute slack used in feasibility boundary comparisons, absorbing
#: float round-off of share -> power -> share round trips.
FEASIBILITY_SLACK = 1e-12

_SIMPLEX_TOL = 1e-9


def _float_list(values, what: str) -> list:
    """A non-empty 1-D sequence as a list of floats, else a ValueError naming it."""
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError(f"{what} must be a non-empty 1-D sequence")
    return arr.tolist()


def _check_fractions(fractions) -> list:
    """The bandwidth fractions as floats; ValueError unless they follow the fraction rule."""
    fr = _float_list(fractions, "bandwidth fractions")
    total = sum(fr)  # NaN if any fraction is
    if not (min(fr) > 0 and not math.isnan(total)):
        raise ValueError("all bandwidth fractions must be positive")
    if not abs(total - 1.0) <= 1e-12:
        raise ValueError("bandwidth fractions must sum to 1")
    return fr


@dataclass(frozen=True)
class SubbandPlan:
    """Bandwidth fractions and per-sub-band symbol energies.

    fractions follow the module's fraction rule; powers are finite and non-negative
    with a positive weighted mean ``mean_power = sum(fractions * powers)``.
    Every element of both is a number (a numpy one too), not a bool, a
    string or a nested sequence.
    """

    fractions: tuple[float, ...]
    powers: tuple[float, ...]

    def __post_init__(self):
        for name, values in (("fractions", self.fractions), ("powers", self.powers)):
            for v in values if isinstance(values, (list, tuple)) else np.ravel(values):
                check_value(name, {"type": "number"}, v)
        fr = _check_fractions(self.fractions)
        pw = np.asarray(self.powers, dtype=float)
        if pw.shape != (len(fr),):
            raise ValueError("fractions and powers must be equal-length 1-D sequences")
        if not np.all((pw >= 0) & (pw < math.inf)):
            raise ValueError("powers must be finite and non-negative")
        if float(np.dot(fr, pw)) <= 0:
            raise ValueError("all-zero power allocation is rejected")
        object.__setattr__(self, "fractions", tuple(fr))
        object.__setattr__(self, "powers", tuple(pw.tolist()))

    @cached_property
    def mean_power(self) -> float:
        return float(np.dot(self.fractions, self.powers))

    @property
    def num_bands(self) -> int:
        return len(self.fractions)


@dataclass(frozen=True)
class SpectrumReport:
    """Predicted transmit spectrum: per-band energy per sample, total energy,
    power shares and the per-band feasibility floors."""

    band_energy: tuple[float, ...]
    total_energy: float
    band_share: tuple[float, ...]
    min_share: tuple[float, ...]


@dataclass(frozen=True)
class RateReport:
    """Achievable-rate lower bound in bits/symbol with its per-band split."""

    bits_per_symbol: float
    band_bits: tuple[float, ...]
    shaping_loss_bits: float
    regime: str  # "awgn" | "noise_free" | "general_chain"


def _floats(values) -> tuple[float, ...]:
    return tuple(float(v) for v in values)


def _check_power_match(m: AgnMoments, pbar: float):
    if not math.isclose(m.input_power, pbar, rel_tol=1e-9, abs_tol=0.0):
        raise ContractError(
            f"moments computed at input power {m.input_power}, plan has {pbar}"
        )


def share_floor(fractions, m: AgnMoments) -> np.ndarray:
    """Per-band minimum achievable power share, fractions * noise / (|gain|^2 + noise).

    The quantization noise is white across the band, so no sub-band's output
    share can be pushed below this floor by any power allocation.
    """
    return np.array(_floors(_check_fractions(fractions), m))


def _floors(fractions: list, m: AgnMoments) -> list:
    """The share floor of each of a list of fractions, as floats; NaN (0/0)
    for a zero-output chain."""
    total = m.gain**2 + m.noise
    return [f * m.noise / total if total else math.nan for f in fractions]


def predict_spectrum(plan: SubbandPlan, m_tx: AgnMoments) -> SpectrumReport:
    """Asymptotic per-band transmitted energy for a given plan and DAC."""
    _check_power_match(m_tx, plan.mean_power)
    fr = np.asarray(plan.fractions)
    pw = np.asarray(plan.powers)
    g2 = m_tx.gain**2
    pbar = plan.mean_power
    s = fr * (g2 * pw + m_tx.noise * pbar)
    s_tot = (g2 + m_tx.noise) * pbar
    if s_tot == 0:
        raise NumericalFailureError("zero-output chain: no band has a power share")
    return SpectrumReport(
        band_energy=_floats(s),
        total_energy=float(s_tot),
        band_share=_floats(s / s_tot),
        min_share=tuple(_floors(list(plan.fractions), m_tx)),
    )


def _share_list(nu) -> list:
    """A share vector as a list of floats, checked by :func:`_check_shares`."""
    shares = _float_list(nu, "share vector")
    _check_shares(shares)
    return shares


def _check_shares(shares: list) -> None:
    """ValueError unless a list of float shares is a probability vector.

    Checked as Python floats, far faster than numpy reductions over a few
    shares; a NaN or infinite share makes the total non-finite (inf + -inf
    without a RuntimeWarning), which fails the first test."""
    total = sum(shares)
    if not abs(total - 1.0) <= _SIMPLEX_TOL:
        raise ValueError(f"shares must be finite and sum to 1 (got sum {total})")
    if min(shares) < -FEASIBILITY_SLACK:
        raise ValueError("shares must be non-negative")


def feasible_fractions(fractions, m_tx: AgnMoments, nu) -> bool:
    """True iff the share vector is achievable by some power allocation."""
    try:
        _above_floor(fractions, m_tx, nu)
    except FeasibilityError:
        return False
    return True


def _above_floor(fractions, m_tx: AgnMoments, nu) -> tuple[list, list]:
    """The checked fraction and share lists; FeasibilityError at a share short of its (NaN) floor."""
    fr, shares = _check_fractions(fractions), _share_list(nu)
    if len(fr) != len(shares):
        raise ValueError("distributions must have equal length")
    for b, (fl, s) in enumerate(zip(_floors(fr, m_tx), shares)):
        if not s >= fl - FEASIBILITY_SLACK:
            # raised where it is made: an error held in a local would form a
            # frame-traceback cycle that only the garbage collector frees
            raise FeasibilityError(band=b, floor=fl, value=s)
    return fr, shares


def powers_from_fractions(fractions, m_tx: AgnMoments, pbar: float, nu) -> np.ndarray:
    """Invert a feasible share vector into per-band symbol energies of mean
    ``pbar``, a power (``quantizer.POWER_RULE``) that ``m_tx`` was computed
    at."""
    check_value("pbar", POWER_RULE, pbar)
    _check_power_match(m_tx, pbar)
    fr, shares = _above_floor(fractions, m_tx, nu)
    g2 = m_tx.gain**2
    if g2 == 0:
        raise NumericalFailureError("zero-gain chain cannot be inverted")
    powers = (np.array(shares) / np.array(fr) * (g2 + m_tx.noise) - m_tx.noise) * pbar / g2
    powers[(powers < 0) & (powers > -1e-9 * pbar)] = 0.0
    return powers


def kl_divergence(delta, nu) -> float:
    """D(delta || nu) in bits of two share vectors, with 0 log 0 = 0 and a
    zero share under a positive one yielding +inf."""
    d, n = _share_list(delta), _share_list(nu)
    if len(d) != len(n):
        raise ValueError("distributions must have equal length")
    return _kl_bits(d, n)


def _kl_bits(delta: list, nu: list) -> float:
    """D(delta || nu) in bits of two checked, equal-length lists of floats."""
    total = 0.0
    for dm, nm in zip(delta, nu):
        if dm == 0.0:
            continue
        if nm <= 0.0:
            return math.inf
        total += dm * math.log2(dm / nm)
    return total


def _raise_noiseless(gain: float):
    """Raise the error of a chain without noise: with no gain it outputs
    nothing and has no rate; with a gain its rate is unbounded."""
    if gain == 0.0:
        raise NumericalFailureError("zero-output chain: the rate is undefined")
    raise InfiniteRateError("noiseless identity chain: rate is unbounded")


def _rate_terms(plan: SubbandPlan, gain: float, noise) -> np.ndarray:
    """The per-band fractions * log2(1 + gain^2 powers / (noise mean_power)),
    one row per noise value."""
    noise = np.asarray(noise, dtype=float)
    if np.any(noise == 0.0):
        _raise_noiseless(gain)
    fr = np.asarray(plan.fractions)
    pw = np.asarray(plan.powers)
    noise = noise[..., None]
    with np.errstate(over="ignore"):
        ratio = gain**2 * pw / (noise * plan.mean_power)
    bits = np.log2(1.0 + ratio)
    over = np.isinf(ratio)
    if over.any():
        # the ratio, or a product on the way to it, is past the float range;
        # log2 of the ratio as a sum of logs is not, and logaddexp2 adds the 1
        pw, noise = np.broadcast_arrays(pw, noise)
        log_ratio = (2.0 * np.log2(abs(gain)) + np.log2(pw[over])
                     - np.log2(noise[over]) - np.log2(plan.mean_power))
        bits[over] = np.logaddexp2(0.0, log_ratio)
    return fr * bits


def _rate(plan: SubbandPlan, gain: float, noise: float, regime: str) -> RateReport:
    terms = _rate_terms(plan, gain, noise)
    return RateReport(
        bits_per_symbol=float(terms.sum()),
        band_bits=_floats(terms),
        shaping_loss_bits=0.0,
        regime=regime,
    )


def linear_rate(plan: SubbandPlan, m_rx: AgnMoments) -> RateReport:
    """Rate lower bound of the linear transceiver given full-chain moments."""
    _check_power_match(m_rx, plan.mean_power)
    return _rate(plan, m_rx.gain, m_rx.noise, "general_chain")


def _awgn_noise(plan: SubbandPlan, m_tx: AgnMoments, noise_power):
    """Normalized chain noise: the transmit noise plus noise_power / mean_power."""
    _check_power_match(m_tx, plan.mean_power)
    noise = m_tx.noise + noise_power / plan.mean_power
    if not np.all(np.isfinite(noise)):
        raise NumericalFailureError("non-finite decomposition moments")
    return noise


def awgn_linear_rate(plan: SubbandPlan, m_tx: AgnMoments, noise_power: float) -> RateReport:
    """Rate lower bound over an AWGN channel with an unquantized receiver.

    Uses the shortcut that the chain moments equal the transmit moments with
    noise_power / mean_power added to the normalized noise variance.
    """
    check_value("noise_power", NOISE_POWER_RULE, noise_power)
    return _rate(plan, m_tx.gain, _awgn_noise(plan, m_tx, noise_power), "awgn")


def _noise_at_snr(plan: SubbandPlan, m_tx: AgnMoments, snr):
    snr = np.asarray(snr, dtype=float)
    if not np.all(snr > 0):
        raise ValueError("snr must be positive")
    s_tot = (m_tx.gain**2 + m_tx.noise) * plan.mean_power
    # s_tot >= 0 and snr > 0, so no noise power is negative; a NaN one (an
    # infinite s_tot over an infinite snr) is non-finite noise below
    return _awgn_noise(plan, m_tx, s_tot / snr)


def awgn_rate_at_transmit_snr(plan: SubbandPlan, m_tx: AgnMoments, snr: float) -> RateReport:
    """AWGN rate with the noise power referenced to the realized transmit
    power ``(|gain|^2 + noise) * mean_power``.

    Different resolutions radiate different powers at a fixed loading factor;
    pinning the transmit-side SNR makes their rate curves comparable (and
    reduces to ``noise_power = mean_power / snr`` for an ideal DAC).
    """
    return _rate(plan, m_tx.gain, _noise_at_snr(plan, m_tx, snr), "awgn")


def awgn_rates_at_transmit_snr(plan: SubbandPlan, m_tx: AgnMoments, snr) -> np.ndarray:
    """``awgn_rate_at_transmit_snr(...).bits_per_symbol`` at each SNR of a
    1-D grid, in one pass.  A grid with a point the scalar call rejects is
    rejected whole; on an ascending grid, with its first such point's error."""
    return _rate_terms(plan, m_tx.gain, _noise_at_snr(plan, m_tx, snr)).sum(axis=-1)


def _flat_rate(m_tx: AgnMoments) -> float:
    """log2(1 + |gain|^2/noise), the noise-free rate of a flat allocation."""
    if m_tx.noise == 0.0:  # a plain float test: noise_free_rates calls this per row
        _raise_noiseless(m_tx.gain)
    return math.log2(1.0 + m_tx.gain**2 / m_tx.noise)


def noise_free_rate(fractions, m_tx: AgnMoments, nu) -> RateReport:
    """Noise-free rate at a target share vector: the flat-allocation rate
    log2(1 + |gain|^2/noise) minus the shaping penalty D(fractions || nu)."""
    flat = _flat_rate(m_tx)
    frs, shares = _above_floor(fractions, m_tx, nu)
    kl = _kl_bits(frs, shares)
    g2, noise = m_tx.gain**2, m_tx.noise
    # per-band split via the identity with the equivalent power allocation,
    # on floats (a few bands) with numpy's log2
    ratios = [max(s * (g2 + noise) / (f * noise), 1.0) for f, s in zip(frs, shares)]
    return RateReport(
        bits_per_symbol=flat - kl,
        band_bits=tuple(f * b for f, b in zip(frs, np.log2(ratios).tolist())),
        shaping_loss_bits=kl,
        regime="noise_free",
    )


def noise_free_rates(fractions, m_tx: AgnMoments, rows) -> list[float | None]:
    """``noise_free_rate(fractions, m_tx, row).bits_per_symbol`` for each row
    of a 2-D array of target shares, None where that call raises
    FeasibilityError; any other error of a row is raised as it is."""
    rows = np.asarray(rows, dtype=float)
    if rows.ndim != 2 or rows.shape[1] != len(_check_fractions(fractions)):
        raise ValueError("share rows must be a 2-D array as wide as the fractions")
    rates = []
    for row in rows.tolist():
        try:
            rates.append(noise_free_rate(fractions, m_tx, row).bits_per_symbol)
        except FeasibilityError:
            rates.append(None)
    return rates
