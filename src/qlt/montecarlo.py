"""Finite-size Monte-Carlo validation of the decomposition predictions.

Each trial draws a fresh unitary transform (a :data:`TRANSFORMS` entry), runs
modulate -> DAC -> AWGN -> ADC -> demodulate (a transmit-only trial has no
noise and an ideal ADC), and accumulates per-band energies, noise Gaussianity
diagnostics and per-band input/output correlations against their limits.

The diagnostics pool every trial's noise w = z_hat - gain * z and center each
rail (Re w, Im w) once.  A rail's excess kurtosis is m4 / m2^2 - 3 of its
central sample moments; the I/Q correlation is Pearson's r of the two
centered rails; the z-w correlation is |<z, w>| / (|z| |w|).  A band's
correlation is |sum conj(z) z_hat|^2 / (sum |z|^2 * sum |z_hat|^2) over its
bins, averaged over trials.  Each is 0 where what it divides by is 0 (a rail
of zero variance, as in a one-sample run, or a zero-power band), and the
noise diagnostics are all 0 when max |w|^2 <= 1e-18 max |z|^2, the round-off
an identity chain leaves.  The two correlations take their inner product
and norms as ``np.einsum`` sums, which do not call BLAS (whose dot splits a
long vector across threads), so no thread count changes their bits.

Haar transforms are drawn lazily (:class:`HaarFrames`): a trial draws only
the directions its own queries reach, exact in Haar law, at O(n) time and
memory per query.  A Haar trial's stream gives, in order: the symbols
(``complex_normal``, 2n floats); one ``standard_normal(2n)`` when modulate
adds its direction; one more when demodulate meets the DAC output, unless
that output is already in the span (an identity DAC); then, in a chain trial,
the AWGN and one more ``standard_normal(2n)`` for the ADC output.  A trial's
transform holds at most 3 directions, 2 frame vectors each: at most 96*n
bytes (384 KiB at n=4096).  The ``fft`` transform draws nothing.
"""

import math
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Optional

import numpy as np

from ._rng import check_fields, check_seed, check_size, complex_normal, substream
from .analysis import SubbandPlan, _check_fractions, _floats, predict_spectrum
from .errors import NumericalFailureError
from .moments import add_awgn, chain_moments, tx_moments
from .quantizer import QuantizerSpec, quantize

# A query's remainder outside the span of the earlier queries counts as zero,
# and draws nothing, when its norm is at most SPAN_RTOL * n * |v|.  Projection
# round-off leaves a remainder of a few eps * |v| on a vector already queried
# (an identity DAC hands the demodulator x = V^H z exactly); a new direction
# with a remainder that small changes the output by no more than round-off.
SPAN_RTOL = 8.0 * np.finfo(np.float64).eps


def _project_off(frame, r):
    """Subtract from r, in place, its components along the orthonormal vectors
    of ``frame``, in two passes (Giraud et al. 2005: "twice is enough");
    return the components."""
    c = [0.0] * len(frame)
    for _ in range(2):
        for j, p in enumerate(frame):
            a = np.vdot(p, r)
            r -= a * p
            c[j] += a
    return c


class HaarFrames:
    """Haar unitary V on C^n, drawn lazily as two orthonormal frames.

    After k new directions, ``ins`` holds the queried inputs p_0..p_{k-1}
    and ``outs`` their images q_j = V p_j, each an orthonormal frame.  A
    query of V (``apply``) projects v off the p's and gives
    V v = sum_j <p_j, v> q_j + |r| q, where r is the remainder.  When r is
    not zero (see :data:`SPAN_RTOL`), r/|r| joins the p's, and its image q,
    a Gaussian vector projected off the q's and normalized, joins the q's.
    ``apply_adjoint`` is the same with the frames swapped.  By the invariance
    of Haar measure (Mezzadri 2007), V given its images of the queried
    vectors is Haar on their orthogonal complements, and q is uniform on the
    unit sphere of the q's complement, so the frames are exact in law.

    A query that adds a direction draws ``standard_normal(2 * n)`` from
    ``rng`` (real and imaginary parts interleaved); any other query draws
    nothing.  After k new directions the frames hold 2k vectors of n complex
    entries: 32*n*k bytes, and O(n*k) work per query.
    """

    def __init__(self, n: int, rng: np.random.Generator):
        if n < 1:
            raise ValueError("n must be >= 1")
        self.n = n
        self.rng = rng
        self.ins = []  # p_j
        self.outs = []  # q_j = V p_j

    def apply(self, v: np.ndarray) -> np.ndarray:
        """V @ v."""
        return self._query(v, self.ins, self.outs)

    def apply_adjoint(self, v: np.ndarray) -> np.ndarray:
        """V^H @ v."""
        return self._query(v, self.outs, self.ins)

    def _query(self, v, src, dst):
        if np.shape(v) != (self.n,):
            raise ValueError(f"query shape {np.shape(v)} is not (n,) with n = {self.n}")
        r = np.array(v, dtype=np.complex128)
        bound = SPAN_RTOL * self.n * np.linalg.norm(r)
        y = np.zeros(self.n, dtype=np.complex128)
        for a, q in zip(_project_off(src, r), dst):
            y += a * q
        norm = np.linalg.norm(r)
        if norm > bound:
            q = self.rng.standard_normal(2 * self.n).view(np.complex128)
            _project_off(dst, q)
            q /= np.linalg.norm(q)
            src.append(r / norm)
            dst.append(q)
            y += norm * q
        return y


# perfbench/tracing.py patches the class by this name (ROADMAP item 14 drops it)
HouseholderChain = HaarFrames


def _contiguous(fr: np.ndarray, n: int) -> np.ndarray:
    counts = np.diff(np.concatenate(([0], np.rint(np.cumsum(fr) * n).astype(int))))
    return np.repeat(np.arange(fr.size), counts)


def _interleaved(fr: np.ndarray, n: int) -> np.ndarray:
    # the k-th bin (k from 1) goes to the first band of largest deficit
    # f_j * k - count_j.  Each float f_j is a dyadic rational; with D the lcm
    # of their denominators, every f_j * k is exact, and if each band holds
    # exactly f_j * D bins after D bins, every deficit is back at 0 and the
    # layout repeats with period D.
    f = fr.tolist()
    period = math.lcm(*(x.as_integer_ratio()[1] for x in f))
    counts = [0.0] * len(f)
    out = []
    for k in range(1, n + 1):
        if k == period + 1 and counts == [x * period for x in f]:
            return np.resize(np.array(out, dtype=int), n)
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
    chain = HaarFrames(n, rng)
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
    """One validation experiment: transform ensemble, signal plan and chain.

    A run keeps every trial's symbols and noise, ``trials x size`` complex
    values each, so a ``size`` and ``trials`` whose product no array can
    index are refused here, by name."""

    size: int
    plan: SubbandPlan
    dac: QuantizerSpec
    transform: str = "haar"  # a TRANSFORMS key
    trials: int = 20
    seed: int = 0
    noise_power: float = 0.0  # AWGN between the DAC and the ADC
    adc: QuantizerSpec = field(default_factory=QuantizerSpec.identity)
    assignment: str = "contiguous"  # a LAYOUTS key

    #: The rule of each field, as ``_rng.check_fields`` applies it.
    BOUNDS = {
        "size": {"type": "integer", "minimum": 1},
        "transform": {"enum": list(TRANSFORMS)},
        "trials": {"type": "integer", "minimum": 1},
        "noise_power": {"type": "number", "minimum": 0},
        "assignment": {"enum": list(LAYOUTS)},
    }

    def __post_init__(self):
        check_fields(self, self.BOUNDS)
        check_size(self.trials * self.size, 16, f"size {self.size} x trials {self.trials}")
        check_seed(self.seed)


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

    def __post_init__(self):
        for name, v in vars(self).items():
            v = list(v.values()) if isinstance(v, dict) else v
            if v is not None and not np.isfinite(np.asarray(v, dtype=float)).all():
                raise NumericalFailureError(f"non-finite Monte-Carlo statistic {name}")


def _band_energy(values, assign, nbands, n):
    return np.bincount(assign, weights=np.abs(values) ** 2, minlength=nbands) / n


def _kurtosis(c: np.ndarray) -> float:
    """Excess kurtosis m4/m2^2 - 3 of a centered rail c; 0 at zero variance."""
    c2 = c * c
    m2 = c2.mean()
    if m2 < 1e-300:
        return 0.0
    return float(np.mean(c2 * c2) / m2**2 - 3.0)


def _corr(a: np.ndarray, b: np.ndarray):
    """<a, b> / (|a| |b|); 0 when either vector is 0."""
    ab, aa, bb = (np.einsum("i,i->", np.conj(u), v) for u, v in ((a, b), (a, a), (b, b)))
    den = math.sqrt(aa.real) * math.sqrt(bb.real)
    return ab / den if den > 0.0 else 0.0


def _noise_diagnostics(w: np.ndarray, z: np.ndarray) -> dict:
    if np.max(w.real**2 + w.imag**2) <= 1e-18 * np.max(z.real**2 + z.imag**2):
        # identity chains leave only transform round-off in the noise vector
        return {
            "excess_kurtosis_re": 0.0,
            "excess_kurtosis_im": 0.0,
            "z_w_correlation": 0.0,
            "iq_correlation": 0.0,
        }
    c = w - w.mean()  # both rails centered at once
    return {
        "excess_kurtosis_re": _kurtosis(c.real),
        "excess_kurtosis_im": _kurtosis(c.imag),
        "z_w_correlation": float(abs(_corr(z, w))),
        "iq_correlation": float(_corr(c.real, c.imag)),
    }


def _band_correlation(z, z_hat, assign, nb):
    """Per band, |sum conj(z) z_hat|^2 / (sum |z|^2 * sum |z_hat|^2); 0 where
    either sum is 0."""
    def band_sum(x):
        return np.bincount(assign, weights=x, minlength=nb)

    cross = z.conj() * z_hat
    num = band_sum(cross.real) ** 2 + band_sum(cross.imag) ** 2
    den = band_sum(z.real**2 + z.imag**2) * band_sum(z_hat.real**2 + z_hat.imag**2)
    return np.divide(num, den, out=np.zeros(nb), where=den > 0.0)


# an overflow (a noise power near the float range) fails SimReport's check
@np.errstate(over="ignore", invalid="ignore")
def _run(cfg: SimConfig, with_correlation: bool) -> SimReport:
    plan = cfg.plan
    n = cfg.size
    nb = plan.num_bands
    assign = subband_assignment(plan.fractions, n, cfg.assignment)
    pbar = plan.mean_power
    powers = np.asarray(plan.powers)
    symbol_power = powers[assign]

    m_tx = tx_moments(cfg.dac, pbar)
    pred = predict_spectrum(plan, m_tx)
    # with nothing after the DAC the received stream is the transmitted one
    ideal_rx = cfg.noise_power == 0.0 and cfg.adc.is_identity
    m = m_tx if ideal_rx else chain_moments(cfg.dac, cfg.noise_power, cfg.adc, pbar)

    trial_s = np.empty((cfg.trials, nb))
    rho_trials = np.empty((cfg.trials, nb))
    w_all = np.empty((cfg.trials, n), dtype=np.complex128)
    z_all = np.empty((cfg.trials, n), dtype=np.complex128)

    for t in range(cfg.trials):
        rng = substream(cfg.seed, "trial", t)
        modulate, demodulate = TRANSFORMS[cfg.transform](n, rng)
        z = z_all[t] = complex_normal(rng, symbol_power, n)
        x = quantize(cfg.dac, modulate(z))
        r = demodulate(x)
        trial_s[t] = _band_energy(r, assign, nb, n)

        y = add_awgn(x, cfg.noise_power, rng)  # draws nothing at noise power 0
        z_hat = r if ideal_rx else demodulate(quantize(cfg.adc, y))
        if with_correlation:
            rho_trials[t] = _band_correlation(z, z_hat, assign, nb)
        w_all[t] = z_hat - m.gain * z

    def trial_se(x):
        return x.std(axis=0, ddof=1) / np.sqrt(cfg.trials) if cfg.trials > 1 else np.zeros(nb)

    mean_s = trial_s.mean(axis=0)
    total = float(mean_s.sum())
    pred_s = np.asarray(pred.band_energy)
    rel_err = np.abs(mean_s - pred_s) / np.where(pred_s > 0, pred_s, 1.0)

    diag = _noise_diagnostics(w_all.ravel(), z_all.ravel())

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
