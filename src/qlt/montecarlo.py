"""Finite-size Monte-Carlo validation of the decomposition predictions.

Each trial draws a fresh unitary transform (a :data:`TRANSFORMS` entry), runs
modulate -> DAC -> AWGN -> ADC -> demodulate (a transmit-only trial has no
noise and an ideal ADC), and accumulates per-band energies, noise Gaussianity
diagnostics and per-band input/output correlations against their limits.

Haar transforms are drawn as a product of random Householder reflections
(exact Haar law) that applies in O(n^2) time without forming the matrix,
which keeps large-N runs fast.  A trial holds one 16*(n(n+1)/2 - 1)-byte
reflector buffer (33.6 MB at n=2048) and 8*(n - 1) bytes of reflector scales,
and only one trial's chain is alive at a time.
"""

from dataclasses import dataclass, field, replace
from functools import partial
from typing import Optional

import numpy as np

from . import _kernels
from ._rng import complex_normal, substream
from .analysis import SubbandPlan, _check_fractions, _floats, predict_spectrum
from .moments import _check_noise_power, add_awgn, chain_moments, tx_moments
from .quantizer import QuantizerSpec, quantize

# Gaussians (float64 values) drawn per generator call while filling a chain's
# reflector buffer; the reflectors a chunk completes are built before the next
# chunk is drawn, while that chunk is still in cache.
_DRAW_CHUNK = 1 << 16


class HouseholderChain:
    """Haar unitary represented as a chain of Householder reflections.

    The first column of each successive trailing block is a uniformly drawn
    unit vector, which by the subgroup structure of the unitary group yields
    an exactly Haar-distributed product; applying it to a vector costs O(n^2).

    The reflectors live in one complex buffer ``w`` of n(n+1)/2 - 1 entries
    (16 bytes each), unnormalized, with one real scale each in ``taus``
    (reflector i is I - taus[i] w_i w_i^H).  ``phases`` holds the n - 1
    reflector phases, then the last coordinate's uniform phase.  The buffer
    is drawn and built in place: the random stream is consumed exactly as by
    one ``standard_normal(2 * len(w)).view(complex128)`` draw (real and
    imaginary parts interleaved), then one uniform for the last phase.  After
    each chunk of the draw, the run of segments it completed is built in one
    kernel call.
    """

    def __init__(self, n: int, rng: np.random.Generator):
        if n < 1:
            raise ValueError("n must be >= 1")
        self.n = n
        sizes = np.arange(n, 1, -1, dtype=np.int64)
        offs = self.offsets = np.concatenate(([0], np.cumsum(sizes)))
        total = int(offs[-1])
        self.w = np.empty(total, np.complex128)
        self.taus = np.empty(n - 1)
        self.phases = np.empty(n, np.complex128)
        floats = self.w.view(np.float64)
        built = 0  # segments drawn in full, and built
        for a in range(0, 2 * total, _DRAW_CHUNK):
            b = a + rng.standard_normal(out=floats[a:a + _DRAW_CHUNK]).size
            done = int(np.searchsorted(offs, b // 2, side="right")) - 1
            if done > built:
                run = self.w[offs[built]:offs[done]]
                _kernels.chain_build(
                    run, offs[built:done + 1] - offs[built],
                    self.phases[built:done], self.taus[built:done],
                )
                built = done
        self.phases[n - 1] = np.exp(2j * np.pi * rng.random())

    def apply(self, v: np.ndarray) -> np.ndarray:
        """V @ v."""
        out = np.array(v, dtype=np.complex128, copy=True)
        _kernels.chain_apply(self.w, self.offsets, self.taus, self.phases, out, True)
        return out

    def apply_adjoint(self, v: np.ndarray) -> np.ndarray:
        """V^H @ v."""
        out = np.array(v, dtype=np.complex128, copy=True)
        _kernels.chain_apply(self.w, self.offsets, self.taus, self.phases, out, False)
        return out


def _contiguous(fr: np.ndarray, n: int) -> np.ndarray:
    counts = np.diff(np.concatenate(([0], np.rint(np.cumsum(fr) * n).astype(int))))
    return np.repeat(np.arange(fr.size), counts)


def _interleaved(fr: np.ndarray, n: int) -> np.ndarray:
    # the k-th bin (k from 1) goes to the first band of largest deficit
    # f_j * k - count_j
    f = fr.tolist()
    counts = [0.0] * len(f)
    out = []
    for k in range(1, n + 1):
        m, best = 0, f[0] * k - counts[0]
        for j in range(1, len(f)):
            d = f[j] * k - counts[j]
            if d > best:
                m, best = j, d
        out.append(m)
        counts[m] += 1.0
    return np.array(out, dtype=int)


#: Bin-to-band layouts: "contiguous" fills bands in blocks (mimicking spectral
#: masks); "interleaved" spreads bands by a largest-deficit round-robin.
LAYOUTS = {"contiguous": _contiguous, "interleaved": _interleaved}


def subband_assignment(fractions, n: int, layout: str = "contiguous") -> np.ndarray:
    """Assign each of n transform bins to a sub-band by a :data:`LAYOUTS`
    entry; each band's bin count is within one bin of ``fraction * n``.
    The fractions must be positive and sum to 1, as a plan's do."""
    if layout not in LAYOUTS:
        raise ValueError(f"unknown assignment layout {layout!r}")
    return LAYOUTS[layout](np.array(_check_fractions(fractions)), n)


def _haar(n: int, rng):
    chain = HouseholderChain(n, rng)
    return chain.apply_adjoint, chain.apply


#: Trial transforms: each entry draws one trial's (modulate, demodulate) pair
#: from that trial's stream -- a fresh Haar chain's V^H and V, or the unitary
#: inverse FFT and FFT, which draw nothing.
TRANSFORMS = {
    "haar": _haar,
    "fft": lambda n, rng: (partial(np.fft.ifft, norm="ortho"), partial(np.fft.fft, norm="ortho")),
}


@dataclass(frozen=True)
class SimConfig:
    """One validation experiment: transform ensemble, signal plan and chain."""

    size: int
    plan: SubbandPlan
    dac: QuantizerSpec
    transform: str = "haar"  # a TRANSFORMS key
    trials: int = 20
    seed: int = 0
    noise_power: float = 0.0  # AWGN between the DAC and the ADC
    adc: QuantizerSpec = field(default_factory=QuantizerSpec.identity)
    assignment: str = "contiguous"  # a LAYOUTS key

    def __post_init__(self):
        if self.size < 1:
            raise ValueError("size must be >= 1")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.transform not in TRANSFORMS:
            raise ValueError(f"transform must be one of {list(TRANSFORMS)}")
        if self.assignment not in LAYOUTS:
            raise ValueError(f"unknown assignment layout {self.assignment!r}")
        _check_noise_power(self.noise_power)


@dataclass(frozen=True)
class SimReport:
    """Empirical estimates with uncertainty, next to their predicted limits."""

    band_energy: tuple
    band_energy_se: tuple
    band_share: tuple
    total_energy: float
    predicted_band_energy: tuple
    predicted_band_share: tuple
    predicted_total_energy: float
    band_energy_rel_err: tuple
    noise_diagnostics: dict
    trial_band_energy: tuple
    band_correlation: Optional[tuple] = None
    band_correlation_se: Optional[tuple] = None
    predicted_band_correlation: Optional[tuple] = None


def _band_energy(values, assign, nbands, n):
    return np.bincount(assign, weights=np.abs(values) ** 2, minlength=nbands) / n


def _kurtosis(v: np.ndarray) -> float:
    c = v - v.mean()
    m2 = np.mean(c**2)
    if m2 < 1e-300:
        return 0.0
    return float(np.mean(c**4) / m2**2 - 3.0)


def _corr_mag(a: np.ndarray, b: np.ndarray) -> float:
    den = np.linalg.norm(a) * np.linalg.norm(b)
    if den == 0.0:
        return 0.0
    return float(abs(np.vdot(a, b)) / den)


def _noise_diagnostics(w: np.ndarray, z: np.ndarray) -> dict:
    re, im = w.real, w.imag
    scale = np.max(np.abs(z)) if z.size else 0.0
    if np.max(np.abs(w)) <= 1e-9 * scale:
        # identity chains leave only transform round-off in the noise vector
        return {
            "excess_kurtosis_re": 0.0,
            "excess_kurtosis_im": 0.0,
            "z_w_correlation": 0.0,
            "iq_correlation": 0.0,
        }
    iq = np.corrcoef(re, im)[0, 1]
    return {
        "excess_kurtosis_re": _kurtosis(re),
        "excess_kurtosis_im": _kurtosis(im),
        "z_w_correlation": _corr_mag(z, w),
        "iq_correlation": float(iq),
    }


def _run(cfg: SimConfig, with_correlation: bool) -> SimReport:
    plan = cfg.plan
    n = cfg.size
    nb = plan.num_bands
    assign = subband_assignment(plan.fractions, n, cfg.assignment)
    bands = [assign == m for m in range(nb)]
    pbar = plan.mean_power
    powers = np.asarray(plan.powers)
    symbol_power = powers[assign]

    pred = predict_spectrum(plan, tx_moments(cfg.dac, pbar))
    m = chain_moments(cfg.dac, cfg.noise_power, cfg.adc, pbar)
    # with nothing after the DAC the received stream is the transmitted one
    ideal_rx = cfg.noise_power == 0.0 and cfg.adc.is_identity

    trial_s = np.empty((cfg.trials, nb))
    rho_trials = np.empty((cfg.trials, nb))
    w_parts, z_parts = [], []

    for t in range(cfg.trials):
        rng = substream(cfg.seed, "trial", t)
        # the pair's bound methods hold the trial's chain: free the last
        # trial's reflectors before drawing the next
        modulate = demodulate = None
        modulate, demodulate = TRANSFORMS[cfg.transform](n, rng)
        z = complex_normal(rng, symbol_power, n)
        x = quantize(cfg.dac, modulate(z))
        r = demodulate(x)
        trial_s[t] = _band_energy(r, assign, nb, n)

        y = add_awgn(x, cfg.noise_power, rng)  # draws nothing at noise power 0
        z_hat = r if ideal_rx else demodulate(quantize(cfg.adc, y))
        for b, sel in enumerate(bands):
            rho_trials[t, b] = _corr_mag(z[sel], z_hat[sel]) ** 2
        w_parts.append(z_hat - m.gain * z)
        z_parts.append(z)

    def trial_se(x):
        return x.std(axis=0, ddof=1) / np.sqrt(cfg.trials) if cfg.trials > 1 else np.zeros(nb)

    mean_s = trial_s.mean(axis=0)
    total = float(mean_s.sum())
    pred_s = np.asarray(pred.band_energy)
    rel_err = np.abs(mean_s - pred_s) / np.where(pred_s > 0, pred_s, 1.0)

    diag = _noise_diagnostics(np.concatenate(w_parts), np.concatenate(z_parts))

    corr = {}
    if with_correlation:
        g2p = m.gain**2 * powers
        # a zero-power band predicts 0, the noise -> 0 limit of its 0/0 in a noiseless chain
        rho = np.divide(g2p, g2p + m.noise * pbar, out=np.zeros(nb), where=powers > 0)
        corr = dict(
            band_correlation=_floats(rho_trials.mean(axis=0)),
            band_correlation_se=_floats(trial_se(rho_trials)),
            predicted_band_correlation=_floats(rho),
        )
    return SimReport(
        band_energy=_floats(mean_s),
        band_energy_se=_floats(trial_se(trial_s)),
        band_share=_floats(mean_s / total),
        total_energy=total,
        predicted_band_energy=_floats(pred_s),
        predicted_band_share=pred.band_share,
        predicted_total_energy=pred.total_energy,
        band_energy_rel_err=_floats(rel_err),
        noise_diagnostics=diag,
        trial_band_energy=tuple(_floats(row) for row in trial_s),
        **corr,
    )


def run_tx_trials(cfg: SimConfig) -> SimReport:
    """Transmit-side experiment: spectrum concentration and quantization-noise
    Gaussianity/independence diagnostics.  It is the chain experiment with a
    noiseless channel and an ideal ADC, whatever ``cfg`` sets for those."""
    tx = replace(cfg, noise_power=0.0, adc=QuantizerSpec.identity())
    return _run(tx, with_correlation=False)


def run_chain_trials(cfg: SimConfig) -> SimReport:
    """Full-chain experiment: adds the per-band input/output correlation and
    its predicted limit."""
    return _run(cfg, with_correlation=True)
