"""Linear-plus-Gaussian (AGN) decomposition moments of quantizer chains.

For a componentwise map applied to ``U ~ CN(0, input_power)`` the decomposition
is ``output = gain * U + noise_term`` with ``gain = E[conj(S) U] / input_power``
and ``noise = E|S - gain U|^2 / input_power`` (noise variance normalized by the
input power).  ``S`` is the transmit quantizer output for :func:`tx_moments`
and the full DAC -> AWGN -> ADC output for :func:`chain_moments`.  Circular
AWGN and a quantizer acting alike on I and Q make the chain I/Q-symmetric, so
the gain is real.

Two evaluation paths are provided.  The deterministic path resolves the
piecewise-constant maps over Gaussian inputs exactly, via per-level-cell
Gaussian CDF/PDF sums.  The sampling path is a seeded Monte-Carlo estimate
carrying standard errors.
"""

from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr  # Gaussian CDF, vectorized and exact in the tails

from ._rng import complex_normal, substream
from .errors import NumericalFailureError
from .quantizer import QuantizerSpec, quantize

#: Monte-Carlo defaults for the sampling path.
DEFAULT_MC_SAMPLES = 1_000_000


@dataclass(frozen=True)
class Quadrature:
    """Deterministic evaluation: exact Gaussian cell sums."""


@dataclass(frozen=True)
class MonteCarlo:
    """Seeded sampling evaluation with standard errors."""

    samples: int = DEFAULT_MC_SAMPLES
    seed: int = 0


@dataclass(frozen=True)
class AgnMoments:
    """Decomposition moments of a nonlinear chain at a given input power.

    noise is the noise variance divided by input_power.  Standard errors are
    populated only by the Monte-Carlo path.
    """

    gain: float
    noise: float
    input_power: float
    gain_stderr: float | None = None
    noise_stderr: float | None = None

    def __post_init__(self):
        if not (np.isfinite(self.noise) and np.isfinite(self.gain)):
            raise NumericalFailureError("non-finite decomposition moments")
        if self.noise < 0:
            # tiny negatives can arise from float cancellation in exact paths
            if self.noise < -1e-12 * max(1.0, self.gain**2):
                raise NumericalFailureError(f"negative noise variance {self.noise}")
            object.__setattr__(self, "noise", 0.0)


# ---------------------------------------------------------------------------
# exact per-dimension Gaussian cell machinery
# ---------------------------------------------------------------------------

def _norm_pdf(z):
    return np.exp(-0.5 * z * z) / np.sqrt(2.0 * np.pi)


def _cell_probs(spec: QuantizerSpec, means: np.ndarray, sigma: float) -> np.ndarray:
    """``P(m + N in cell)`` for each level cell (columns) and each mean m
    (rows), N ~ N(0, sigma^2)."""
    thr = spec.thresholds_per_dim()
    cdf = np.zeros((means.size, thr.size + 2))
    cdf[:, -1] = 1.0
    cdf[:, 1:-1] = ndtr((thr[None, :] - means[:, None]) / sigma)
    return np.diff(cdf, axis=1)


def _dim_cells(spec: QuantizerSpec, sigma: float):
    """Per-dimension cell statistics of a quantizer driven by N(0, sigma^2).

    Returns (levels, prob, m1) where for each output level cell
    ``prob = P(X in cell)`` and ``m1 = E[X; cell]``.
    """
    z = spec.thresholds_per_dim() / sigma
    pdf = np.concatenate(([0.0], _norm_pdf(z), [0.0]))
    m1 = sigma * (pdf[:-1] - pdf[1:])
    return spec.levels_per_dim(), _cell_probs(spec, np.zeros(1), sigma)[0], m1


def _dim_qx_q2(spec: QuantizerSpec, sigma: float):
    """(E[q(X) X], E[q(X)^2]) for X ~ N(0, sigma^2).

    Kept as numpy scalars so pathological level sets overflow to inf (caught
    by the moment validator) instead of raising mid-computation.
    """
    lv, prob, m1 = _dim_cells(spec, sigma)
    with np.errstate(over="ignore"):
        return lv @ m1, lv**2 @ prob


def _dim_noisy_response(spec: QuantizerSpec, values: np.ndarray, sigma_n: float):
    """(E[q(v + N)], E[q(v + N)^2]) for each v in values, N ~ N(0, sigma_n^2)."""
    if sigma_n == 0.0:
        # a value exactly on a threshold would make the cell sum 0/0
        out = np.asarray(quantize(spec, values + 0j)).real
        return out, out**2
    lv = spec.levels_per_dim()
    cellp = _cell_probs(spec, values, sigma_n)
    return cellp @ lv, cellp @ lv**2


# ---------------------------------------------------------------------------
# deterministic path
# ---------------------------------------------------------------------------

def _tx_exact(q: QuantizerSpec, pbar: float) -> AgnMoments:
    if q.is_identity:
        return AgnMoments(gain=1.0, noise=0.0, input_power=pbar)
    sigma = np.sqrt(pbar / 2.0)
    exu, eq2 = _dim_qx_q2(q, sigma)
    with np.errstate(over="ignore", invalid="ignore"):
        gain = 2.0 * exu / pbar
        noise = 2.0 * eq2 / pbar - gain**2
    return AgnMoments(gain=float(gain), noise=float(noise), input_power=pbar)


def _chain_exact(qtx, noise_power, qrx, pbar) -> AgnMoments:
    sigma = np.sqrt(pbar / 2.0)
    sigma_n = np.sqrt(noise_power / 2.0)
    if qrx.is_identity:
        base = _tx_exact(qtx, pbar)
        return AgnMoments(
            gain=base.gain, noise=base.noise + noise_power / pbar, input_power=pbar
        )
    with np.errstate(over="ignore", invalid="ignore"):
        if qtx.is_identity:
            # S = q(X + N) per dimension; X + N is Gaussian, and the projection
            # of X onto it carries a sigma^2/(sigma^2 + sigma_n^2) factor
            sig_z = np.sqrt(sigma**2 + sigma_n**2)
            eqz, eq2 = _dim_qx_q2(qrx, sig_z)
            esx = (sigma**2 / sig_z**2) * eqz
            gain = 2.0 * esx / pbar
            noise = 2.0 * eq2 / pbar - gain**2
        else:
            # both sides quantized: condition on the transmit cell, the receive
            # response to (level + noise) is again a Gaussian cell sum
            lt, prob, m1 = _dim_cells(qtx, sigma)
            g1, g2 = _dim_noisy_response(qrx, lt, sigma_n)
            gain = 2.0 * (g1 @ m1) / pbar
            noise = 2.0 * (g2 @ prob) / pbar - gain**2
    return AgnMoments(gain=float(gain), noise=float(noise), input_power=pbar)


# ---------------------------------------------------------------------------
# Monte-Carlo path
# ---------------------------------------------------------------------------

def add_awgn(x: np.ndarray, noise_power: float, rng) -> np.ndarray:
    """``x + xi`` with ``xi ~ CN(0, noise_power)``; a zero noise power draws
    nothing from ``rng``."""
    if noise_power == 0.0:
        return x
    return x + complex_normal(rng, noise_power, x.shape)


def _check_noise_power(noise_power) -> None:
    if not np.all(noise_power >= 0):  # also rejects NaN
        raise ValueError("noise_power must be >= 0")


def _mc_moments(qtx, noise_power, qrx, pbar, method: MonteCarlo, stream) -> AgnMoments:
    rng = substream(method.seed, "moments", stream)
    n = method.samples
    u = complex_normal(rng, pbar, n)
    s = quantize(qrx, add_awgn(quantize(qtx, u), noise_power, rng))
    cross = np.conj(s) * u
    # the chain is I/Q-symmetric, so the imaginary part is sampling noise
    gain = float((np.mean(cross) / pbar).real)
    resid = np.abs(s - gain * u) ** 2
    noise = float(np.mean(resid)) / pbar
    if not np.isfinite(noise) or not np.isfinite(gain):
        raise NumericalFailureError("Monte-Carlo expectation did not converge to a finite value")
    gain_se = float(np.std(cross.real) / np.sqrt(n)) / pbar
    noise_se = float(np.std(resid) / np.sqrt(n)) / pbar
    return AgnMoments(
        gain=gain, noise=noise, input_power=pbar, gain_stderr=gain_se, noise_stderr=noise_se
    )


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------

def _moments(qtx, noise_power, qrx, pbar, method, stream) -> AgnMoments:
    """Moments of the DAC -> AWGN -> ADC chain; ``stream`` names the
    Monte-Carlo substream."""
    if not pbar > 0:
        raise ValueError("pbar must be positive")
    _check_noise_power(noise_power)
    if isinstance(method, Quadrature):
        return _chain_exact(qtx, noise_power, qrx, pbar)
    if isinstance(method, MonteCarlo):
        return _mc_moments(qtx, noise_power, qrx, pbar, method, stream)
    raise TypeError("method must be Quadrature or MonteCarlo")


def tx_moments(q: QuantizerSpec, pbar: float, method=Quadrature()) -> AgnMoments:
    """Decomposition moments of the transmit quantizer alone at input power
    pbar: the chain with a noiseless channel and an ideal ADC."""
    return _moments(q, 0.0, QuantizerSpec.identity(), pbar, method, "tx")


def chain_moments(
    qtx: QuantizerSpec, noise_power: float, qrx: QuantizerSpec, pbar: float, method=Quadrature()
) -> AgnMoments:
    """Decomposition moments of the full DAC -> AWGN -> ADC chain, with
    ``noise_power`` the channel's complex noise variance."""
    return _moments(qtx, noise_power, qrx, pbar, method, "chain")
