"""Linear-plus-Gaussian (AGN) decomposition moments of quantizer chains.

For a componentwise map applied to ``U ~ CN(0, input_power)`` the decomposition
is ``output = gain * U + noise_term`` with ``gain = E[conj(S) U] / input_power``
and ``noise = E|S - gain U|^2 / input_power`` (noise variance normalized by the
input power).  ``S`` is the transmit quantizer output for :func:`tx_moments`
and the full DAC -> AWGN -> ADC output for :func:`chain_moments`.  Circular
AWGN and a quantizer acting alike on I and Q make the chain I/Q-symmetric, so
the gain is real.

Two evaluation paths are provided, and on both :func:`tx_moments` is, bit for
bit, the chain with a noiseless channel and an ideal ADC.  The deterministic
path (``method=None``) resolves the piecewise-constant maps over Gaussian
inputs exactly, as sums over their thresholds: by summation by parts each
expectation is the value on one cell plus each step times the Gaussian tail
beyond its threshold, and the correlation with the input is Stein's sum of
the steps times the Gaussian density at the thresholds.  The sums are numpy's own (pairwise
``np.add.reduce`` and ``np.einsum``), never a BLAS dot, so their bits do not
depend on the BLAS thread count.  A quantized DAC, a noisy channel and a
quantized ADC need one (DAC levels) x (ADC thresholds) table of tails.  The
sampling path is a seeded Monte-Carlo estimate carrying standard errors,
drawn from the substream ``"chain"`` whatever the chain; its
:class:`MonteCarlo` method refuses a sample count whose draws no array can
index.  Each standard error scales its terms by a power of two near their
largest magnitude before it squares them, so no square overflows and the
bits are those of the unscaled ``np.std`` wherever its squares stay finite.
The power ``pbar`` follows ``quantizer.POWER_RULE`` (positive), and so
must its per-dimension variance ``pbar / 2``, which the exact path divides
by; the channel's noise power follows ``NOISE_POWER_RULE``, declared here
(>= 0).  Both are applied through ``_rng.check_value``, as a config's
``pbar`` and ``noise_power`` are.
"""

from dataclasses import dataclass

import numpy as np
from scipy.special import erfc  # accurate in the tails, where 1 - erf is not

from ._rng import check_fields, check_seed, check_size, check_value, complex_normal, substream
from .errors import NumericalFailureError
from .quantizer import POWER_RULE, QuantizerSpec, quantize

#: Monte-Carlo defaults for the sampling path.
DEFAULT_MC_SAMPLES = 1_000_000

#: The rule of a channel's complex noise power, in the JSON-Schema words
#: that ``_rng.check_value`` reads: a number >= 0 (NaN is not).
NOISE_POWER_RULE = {"type": "number", "minimum": 0}


@dataclass(frozen=True)
class MonteCarlo:
    """Seeded sampling evaluation with standard errors."""

    samples: int = DEFAULT_MC_SAMPLES
    seed: int = 0

    #: The rule of each field, as ``_rng.check_fields`` applies it.
    BOUNDS = {"samples": {"type": "integer", "minimum": 1}}

    def __post_init__(self):
        check_fields(self, self.BOUNDS)
        # the draws, and each stage's output, are samples complex values
        check_size(self.samples, 16, f"samples {self.samples}")
        check_seed(self.seed)


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
# deterministic path: sums over the thresholds of a step function
# ---------------------------------------------------------------------------

def _threshold_sums(values: np.ndarray, thr: np.ndarray, means: np.ndarray, sigma: float):
    """``(E[f(m + N)], E[f(m + N)^2])`` for each mean m, N ~ N(0, sigma^2),
    and the step function f that takes ``values`` on the cells between the
    sorted thresholds ``thr``.

    By summation by parts ``E[f(m + N)] = f(cell of m) + sum_{t_j >= m} d_j
    P(N > t_j - m) - sum_{t_j < m} d_j P(N < t_j - m)`` over f's steps d_j,
    and f^2 steps by d_j (f_j + f_{j+1}).  Each probability is the tail
    ``erfc(|t_j - m| / sqrt(2 sigma^2)) / 2`` beyond t_j as seen from m,
    never the complement of a number near 1.  Each row of the one
    (means x (1 + thresholds)) table holds f(cell of m) and the signed
    tails.  ``np.einsum`` reads E[f] from it; then the tails are weighted in
    place, and ``np.add.reduce`` sums each row with f(cell of m)^2 first,
    pairwise, into E[f^2].  So there is no second table and no BLAS dot,
    whose rounding follows its thread count.  The caller keeps ``sigma``
    positive; at 0 a mean on a threshold is 0/0."""
    table = np.empty((means.size, thr.size + 1))
    tails = np.subtract(thr, means[:, None], out=table[:, 1:])
    below = tails < 0
    erfc(np.divide(np.abs(tails, out=tails), np.sqrt(2.0 * sigma**2), out=tails), out=tails)
    np.negative(tails, out=tails, where=below)
    half_steps = 0.5 * (values[1:] - values[:-1])  # carries the tails' 1/2
    table[:, 0] = anchor = values[np.searchsorted(thr, means)]
    mean = np.einsum("ij,j->i", table, np.concatenate(([1.0], half_steps)))
    tails *= half_steps * (values[1:] + values[:-1])
    table[:, 0] = anchor**2
    return mean, np.add.reduce(table, axis=1)


def _stein_sum(values: np.ndarray, thr: np.ndarray, sigma: float):
    """``E[X f(X)]`` for X ~ N(0, sigma^2) and f as in :func:`_threshold_sums`:
    by Stein's lemma ``sigma^2 E[f'(X)] = sum_j d_j sigma phi(t_j / sigma)``."""
    phi = np.exp(-0.5 * (thr / sigma) ** 2) / np.sqrt(2.0 * np.pi)
    return np.einsum("j,j->", values[1:] - values[:-1], sigma * phi)


def _dim_noisy_response(spec: QuantizerSpec, values: np.ndarray, var_n: float):
    """(E[q(v + N)], Var[q(v + N)]) for each v in values, N ~ N(0, var_n);
    the variance is a scalar where it is the same for every v."""
    if spec.is_identity:
        return values, var_n
    if var_n == 0.0:
        # the tails would be 0/0 at a value on a threshold; quantize maps it up
        return np.asarray(quantize(spec, values + 0j)).real, 0.0
    lv = spec.levels_per_dim()
    try:
        mean, second = _threshold_sums(lv, spec.thresholds_per_dim(), values, np.sqrt(var_n))
    except MemoryError:
        raise NumericalFailureError(
            f"the exact moments of a {values.size}-level DAC and a {lv.size}-level ADC (levels per rail) "
            f"need a {values.size} x {lv.size - 1} table of threshold tails "
            f"({8 * values.size * (lv.size - 1) / 2**30:.1f} GiB), more than the process may allocate"
        ) from None
    return mean, second - mean**2


def _chain_exact(qtx, noise_power, qrx, pbar) -> AgnMoments:
    if qtx.is_identity and qrx.is_identity:
        return AgnMoments(gain=1.0, noise=noise_power / pbar, input_power=pbar)
    var, var_n = pbar / 2.0, noise_power / 2.0
    with np.errstate(over="ignore", invalid="ignore"):
        # per dimension S = f(Y) + W: a step function f of a Gaussian Y, and
        # W of conditional mean 0 and variance w(Y)
        if qtx.is_identity:  # Y = X + N
            var_y, thr, f, w = var + var_n, qrx.thresholds_per_dim(), qrx.levels_per_dim(), 0.0
        else:
            # Y = X, and f and w are the ADC's response to (DAC level + noise)
            var_y, thr = var, qtx.thresholds_per_dim()
            f, w = _dim_noisy_response(qrx, qtx.levels_per_dim(), var_n)
        sig_y = np.sqrt(var_y)
        if not np.isscalar(w):  # its mean over Y
            w = _threshold_sums(w, thr, np.zeros(1), sig_y)[0][0]
        # X's projection onto Y carries var / var_y
        esx = (var / var_y) * _stein_sum(f, thr, sig_y)
        eq2 = _threshold_sums(f, thr, np.zeros(1), sig_y)[1][0] + w
        gain = 2.0 * esx / pbar
        noise = 2.0 * eq2 / pbar - gain**2
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


def _mc_moments(qtx, noise_power, qrx, pbar, method: MonteCarlo) -> AgnMoments:
    rng = substream(method.seed, "moments", "chain")
    n = method.samples
    u = complex_normal(rng, pbar, n)
    s = quantize(qrx, add_awgn(quantize(qtx, u), noise_power, rng))
    # an overflow is reported below as a NumericalFailureError, as the exact
    # path reports its own
    with np.errstate(over="ignore", invalid="ignore"):
        cross = np.conj(s) * u
        # the chain is I/Q-symmetric, so the imaginary part is sampling noise
        gain = float((np.mean(cross) / pbar).real)
        resid = np.abs(s - gain * u) ** 2
        noise = float(np.mean(resid)) / pbar
    if not np.isfinite(noise) or not np.isfinite(gain):
        raise NumericalFailureError("Monte-Carlo expectation did not converge to a finite value")
    gain_se = _stderr(cross.real / pbar)
    noise_se = _stderr(resid / pbar)
    return AgnMoments(
        gain=gain, noise=noise, input_power=pbar, gain_stderr=gain_se, noise_stderr=noise_se
    )


def _stderr(x: np.ndarray) -> float:
    """The standard error of the mean of the finite samples ``x``:
    ``np.std(x) / sqrt(x.size)``, taken of ``x`` over a power of two at most
    its largest magnitude and scaled back.  No square of the scaled terms
    passes the float range, and a power of two scales every step exactly, so
    wherever the unscaled squares stay in range the bits are the same."""
    scale = np.ldexp(1.0, np.frexp(np.max(np.abs(x)))[1] - 1)
    return float(scale * np.std(x / scale) / np.sqrt(x.size))


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------

def _moments(qtx, noise_power, qrx, pbar, method) -> AgnMoments:
    """Moments of the DAC -> AWGN -> ADC chain: exact for ``method=None``,
    sampled for a :class:`MonteCarlo` method."""
    check_value("pbar", POWER_RULE, pbar)
    if not pbar / 2.0 > 0:
        raise ValueError(f"pbar {pbar} underflows its per-dimension variance pbar / 2 to 0")
    check_value("noise_power", NOISE_POWER_RULE, noise_power)
    if method is None:
        return _chain_exact(qtx, noise_power, qrx, pbar)
    if isinstance(method, MonteCarlo):
        return _mc_moments(qtx, noise_power, qrx, pbar, method)
    raise TypeError("method must be None (exact) or a MonteCarlo")


def tx_moments(q: QuantizerSpec, pbar: float, method=None) -> AgnMoments:
    """Decomposition moments of the transmit quantizer alone at input power
    pbar: the chain with a noiseless channel and an ideal ADC."""
    return _moments(q, 0.0, QuantizerSpec.identity(), pbar, method)


def chain_moments(
    qtx: QuantizerSpec, noise_power: float, qrx: QuantizerSpec, pbar: float, method=None
) -> AgnMoments:
    """Decomposition moments of the full DAC -> AWGN -> ADC chain, with
    ``noise_power`` the channel's complex noise variance."""
    return _moments(qtx, noise_power, qrx, pbar, method)
