"""Oversampled OFDM transmitter simulation and leakage measurement.

A multicarrier baseband signal is synthesized on an FFT grid, overlap-added
with root-raised-cosine symbol windows (sidelobe control), zero-stuff
interpolated to the DAC rate through a windowed-sinc low-pass filter,
quantized, and measured with a Welch spectral estimate.  The adjacent-channel
leakage ratio is compared against the white-quantization-noise prediction
from the decomposition moments.

Synthesis draws the active subcarriers in one ``complex_normal`` call,
which writes them into a strided view of the symbol grid (the active set
is two runs of bins).  The grid is transformed, scaled and windowed in
place, and overlap-added by a copy of the symbol heads and one reshaped
slice add of the tails; the grid is freed before the filter.

The interpolation filter is ``_signal.upfirdn``, a polyphase overlap-save
FFT filter: the taps split into one branch per output phase, each frame of
the complex stream takes one FFT and one inverse FFT per branch, and frames
go in batches of a fixed sample budget through two reused buffers.
It matches scipy's direct-form ``upfirdn`` to about 1e-15 of the peak sample.

The Welch estimate (Welch 1967) is two-sided, undetrended and density-scaled,
with the segment count, window and frequency grid of ``scipy.signal.welch``.
Its frames are strided views of the quantized stream.  They are windowed
and transformed in sub-batches of at most ``_WELCH_FFT_SAMPLES`` samples:
a sub-batch's windowed frames are a numpy temporary of its own, which its
FFT overwrites with their spectra, and their power rows land in one buffer
below a running-sum row.  Each sub-batch's rows are added to the running sum
one by one, so every frame is added in frame order, whatever the sub-batch
size; that order fixes the bits.  The estimate needs well under a MB beyond
the stream and agrees with scipy's to about 1e-13 relative.

The measurement first checks the band geometry on the estimate's frequency
grid, so a rejected geometry leaves the stream as it was.  It then takes
the mean power as one ``np.einsum`` sum of squares over the stream's
interleaved float view, counts saturated samples in blocks of
``_MEASURE_BLOCK`` samples on that view, and quantizes the stream in
place: it overwrites the stream it is given, and nothing it holds beside it
grows with the stream.

Band geometry: the signal occupies ``occupied_bandwidth`` around DC; the
adjacent measurement band has the same width and starts one ``guard_band``
beyond the occupied edge (mirrored on both sides, averaged).
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import i0

# the module alias is the name perfbench's tracer patches to time the filter
# (``qlt.waveform.sig.upfirdn``); it goes with that tracer (ROADMAP items 1, 14)
from . import _signal as sig
from ._rng import check_seed, check_size, complex_normal, substream
from .errors import NumericalFailureError
from .moments import tx_moments
from .quantizer import DEFAULT_KAPPA, MAX_BITS, QuantizerSpec, quantize


@dataclass(frozen=True)
class WaveformConfig:
    """Transmitter and measurement parameters.

    ``num_subcarriers`` is the per-symbol FFT grid size; the number of active
    subcarriers is derived from ``occupied_bandwidth`` and the baseband rate.
    ``dac_bits=None`` models an ideal (identity) DAC, which takes no
    ``dac_clip``; otherwise the clip level is ``dac_clip`` if given, else
    loaded as ``dac_kappa`` per-dimension sigmas of the interpolated stream.

    The config refuses, naming the fields, a size whose array numpy cannot
    index: the symbol grid and the stream at the DAC rate hold at most
    ``num_symbols x num_subcarriers x interp_factor`` complex samples, and
    the interpolation filter (none at a factor of 1) adds its
    ``filter_taps`` transients to the stream.  It refuses a
    ``filter_attenuation_db`` whose Kaiser window divides by an ``I0(beta)``
    past the float range (from about 6,450 dB), which would make NaN taps,
    a ``dac_kappa`` that is not positive and finite, and a ``psd_window``
    that ``_signal.get_window`` cannot build, before anything is synthesized.
    """

    occupied_bandwidth: float = 200e6
    sample_rate: float = 983.04e6
    guard_band: float = 10e6
    num_subcarriers: int = 1024
    num_symbols: int = 256
    dac_bits: int | None = None
    dac_kappa: float = DEFAULT_KAPPA
    dac_clip: float | None = None
    # per-symbol raised-cosine taper fraction (Tukey window alpha)
    symbol_taper: float = 0.1
    # interpolation filter: windowed-sinc length and Kaiser design attenuation
    filter_taps: int = 255
    filter_attenuation_db: float = 100.0
    zoh: bool = True
    psd_segment_length: int = 4096
    psd_overlap: float = 0.5
    psd_window: str = "hann"
    seed: int = 0

    def __post_init__(self):
        if self.occupied_bandwidth + 2 * self.guard_band > self.sample_rate:
            raise ValueError("occupied_bandwidth + 2*guard_band must fit in sample_rate")
        if self.psd_segment_length < 1 or self.psd_segment_length & (self.psd_segment_length - 1):
            raise ValueError("psd_segment_length must be a power of two")
        if self.num_symbols < 1:
            raise ValueError("num_symbols must be >= 1")
        if self.num_subcarriers < 8:
            raise ValueError("num_subcarriers must be >= 8")
        if not 0.0 <= self.symbol_taper <= 1.0:
            raise ValueError("symbol_taper must be in [0, 1]")
        ov = _overlap(self.num_subcarriers, self.symbol_taper)
        if 2 * ov > self.num_subcarriers:
            raise ValueError(
                f"symbol_taper {self.symbol_taper} overlaps adjacent symbols by {ov} samples, "
                f"more than half of num_subcarriers {self.num_subcarriers}"
            )
        if self.dac_bits is not None and not 1 <= self.dac_bits <= MAX_BITS:
            raise ValueError(f"dac_bits must be in 1..{MAX_BITS} or None")
        if not 0.0 < self.dac_kappa < math.inf:
            raise ValueError(f"dac_kappa must be positive and finite, not {self.dac_kappa}")
        if self.dac_bits is None and self.dac_clip is not None:
            raise ValueError(f"dac_clip {self.dac_clip} needs dac_bits: the ideal DAC has no clip")
        if not math.isfinite(i0(sig.kaiser_beta(self.filter_attenuation_db))):
            raise ValueError(f"filter_attenuation_db {self.filter_attenuation_db} puts the "
                             "Kaiser window's I0(beta) past the float range")
        stream = self.num_symbols * self.num_subcarriers * self.interp_factor
        check_size(stream, 16, f"num_symbols {self.num_symbols} x num_subcarriers {self.num_subcarriers}")
        taps = self.filter_taps if self.interp_factor > 1 else 0
        check_size(stream + taps, 16, f"filter_taps {self.filter_taps}")
        try:  # at most the length the Welch estimate builds it at
            sig.get_window(self.psd_window, min(self.psd_segment_length, stream))
        except (ValueError, TypeError) as e:
            raise ValueError(f"psd_window {self.psd_window!r} is not a window: {e}") from None
        check_seed(self.seed)

    @property
    def interp_factor(self) -> int:
        return max(1, int(self.sample_rate // (self.occupied_bandwidth + 2 * self.guard_band)))

    @property
    def baseband_rate(self) -> float:
        return self.sample_rate / self.interp_factor

    @property
    def active_subcarriers(self) -> int:
        n = int(round(self.occupied_bandwidth / self.baseband_rate * self.num_subcarriers))
        n -= n % 2
        return min(max(n, 2), self.num_subcarriers - 2)

    @property
    def filter_cutoff(self) -> float:
        return self.occupied_bandwidth / 2.0 + self.guard_band / 2.0


@dataclass(frozen=True)
class AclrReport:
    """Leakage measurement next to its white-noise model prediction.

    ``predicted_aclr_db`` is None for an ideal DAC (no quantization noise).
    ``psd`` is the final (ZOH-shaped if enabled) density; the Parseval ratio
    and the out-of-band flatness are computed on the raw estimate before
    shaping.
    """

    inband_power: float
    adjacent_power: float
    aclr_db: float
    predicted_aclr_db: float | None
    psd_freq: tuple
    psd: tuple
    parseval_ratio: float
    oob_flatness_db: float
    stream_power: float
    dac_clip_used: float | None
    saturated_fraction: float
    clip_warning: bool


def design_interp_filter(cfg: WaveformConfig) -> np.ndarray:
    """Windowed-sinc low-pass for the zero-stuff interpolator (unit DC gain)."""
    beta = sig.kaiser_beta(cfg.filter_attenuation_db)
    return sig.firwin(
        cfg.filter_taps, cfg.filter_cutoff, window=("kaiser", beta), fs=cfg.sample_rate
    )


def _overlap(nfft: int, taper: float) -> int:
    """The samples adjacent symbols share: ``taper`` of half a symbol, rounded."""
    return int(round(taper * nfft / 2.0))


def _edge_window(nfft: int, taper: float) -> tuple[np.ndarray, int]:
    """Root-raised-cosine symbol window and its overlap span.

    The half-sample-offset cosine ramp makes overlapped edge powers sum to
    exactly one, so overlap-added symbols have a flat power envelope.
    """
    ov = _overlap(nfft, taper)
    ramp = 0.5 * (1.0 - np.cos(np.pi * (np.arange(ov) + 0.5) / ov))
    power = np.concatenate((ramp, np.ones(nfft - 2 * ov), ramp[::-1]))
    return np.sqrt(power), ov


def _overlap_add(symbols: np.ndarray, hop: int) -> np.ndarray:
    """Symbol ``k`` (a row of ``symbols``) added at sample ``k * hop``.

    Each sample holds at most two symbols (``hop`` is at least half a row),
    so the heads are copied into rows of ``hop`` samples and the tails that
    overlap the next symbol's head are added onto them in one reshaped slice
    add.  Every sum has at most two terms, so the bits are those of adding
    the symbols one by one, in order, onto zeros; only a head sample of
    -0.0 would differ (a copy keeps its sign), and the transform of a silent
    grid gives +0.0.
    """
    nsym, nfft = symbols.shape
    ov = nfft - hop
    rows = np.empty((nsym + 1, hop), dtype=symbols.dtype)
    rows[:-1] = symbols[:, :hop]
    rows[-1] = 0.0
    rows[1:, :ov] += symbols[:, hop:]
    return rows.reshape(-1)[: nsym * hop + ov]


def synthesize_baseband(cfg: WaveformConfig) -> np.ndarray:
    """Generate the interpolated pre-DAC sample stream at the DAC rate.

    Each multicarrier symbol carries i.i.d. complex-Gaussian subcarriers on
    the active bins (unit mean power after normalization).  Symbols are
    overlap-added with root-raised-cosine edge windows (sidelobe control with
    a flat power envelope), then the stream is zero-stuff upsampled through
    the interpolation filter.  Filter edge transients are trimmed.
    """
    nsym = cfg.num_symbols
    rng = substream(cfg.seed, "waveform-baseband")
    nfft = cfg.num_subcarriers
    half = cfg.active_subcarriers // 2
    symbols = np.zeros((nsym, nfft), dtype=complex)
    # the active set is two runs of bins, [0, half) and [nfft - half, nfft):
    # a (nsym, 2, half) view of the grid holds them in draw order
    runs = np.lib.stride_tricks.sliding_window_view(symbols, half, axis=1, writeable=True)
    runs = runs[:, :: nfft - half]
    complex_normal(rng, 1.0, runs.shape, out=runs)
    # a view left bound would keep the grid alive through the filter
    del runs
    # the grid becomes the symbols in place
    np.fft.ifft(symbols, axis=1, norm="ortho", out=symbols)
    symbols *= np.sqrt(nfft / (2 * half))
    win, ov = _edge_window(nfft, cfg.symbol_taper)
    symbols *= win
    stream = _overlap_add(symbols, nfft - ov)
    del symbols

    up = cfg.interp_factor
    if up == 1:
        return stream
    h = design_interp_filter(cfg)
    delay = (cfg.filter_taps - 1) // 2
    return sig.upfirdn(h * up, stream, up)[delay : delay + stream.size * up]


def _resolve_dac(cfg: WaveformConfig, stream_power: float) -> QuantizerSpec:
    # a clip comes with bits (the config refuses one without)
    if cfg.dac_clip is not None:
        return QuantizerSpec.uniform_midrise(cfg.dac_bits, cfg.dac_clip)
    try:
        return QuantizerSpec.midrise_for_power(cfg.dac_bits, stream_power, cfg.dac_kappa)
    except ValueError as e:
        raise ValueError(f"dac_kappa {cfg.dac_kappa} sets the DAC clip from the stream power: "
                         f"{e}") from e


#: Most samples one FFT call of the Welch estimate transforms: its windowed
#: frames, spectra and power rows stay L2-sized, whatever the stream length.
_WELCH_FFT_SAMPLES = 2**15


def _welch_freq(cfg: WaveformConfig, n: int) -> np.ndarray:
    """The fftshifted frequency grid of the Welch estimate of ``n`` samples."""
    return np.fft.fftshift(np.fft.fftfreq(min(cfg.psd_segment_length, n), 1.0 / cfg.sample_rate))


def _welch(cfg: WaveformConfig, x: np.ndarray) -> np.ndarray:
    """Two-sided Welch density of ``x`` on the grid of ``_welch_freq``; the
    batching is described in the module docstring."""
    seg = min(cfg.psd_segment_length, x.size)
    hop = seg - int(seg * cfg.psd_overlap)
    win = sig.get_window(cfg.psd_window, seg)
    frames = np.lib.stride_tricks.sliding_window_view(x, seg)[::hop]
    sub = max(1, _WELCH_FFT_SAMPLES // seg)
    # row 0 holds the running sum of the frames so far, rows 1.. a
    # sub-batch's power rows
    rows = np.empty((sub + 1, seg))
    for i in range(0, len(frames), sub):
        n = min(sub, len(frames) - i)
        spec = frames[i : i + n] * win
        np.fft.fft(spec, axis=-1, out=spec)
        power = np.square(spec.real, out=rows[1 : n + 1])
        power += np.square(spec.imag)
        # a reduction over the outer axis adds rows of more than one sample
        # one by one (the band check keeps seg far above one); the first
        # sub-batch starts the sum
        rows[0] = np.add.reduce(rows[1 if i == 0 else 0 : n + 1], axis=0)
        # so the next sub-batch's frames are not windowed while these are held
        del spec
    return np.fft.fftshift(rows[0] / (len(frames) * cfg.sample_rate * np.sum(win**2)))


#: Samples one block of the stream's saturation count holds: the block's
#: temporaries stay L2-sized, whatever the stream length.
_MEASURE_BLOCK = 2**14


def _mean_power(x: np.ndarray) -> float:
    """Mean ``|x|**2`` of the contiguous complex ``x``: one ``np.einsum``
    sum of squares over its interleaved (re, im) float view.

    einsum makes no temporary, does not thread and does not call BLAS, so
    no thread count changes its bits.
    """
    iq = x.reshape(-1).view(float)
    return float(np.einsum("i,i->", iq, iq)) / x.size


def _saturated_count(x: np.ndarray, clip: float) -> int:
    """Samples of the contiguous complex ``x`` with a rail beyond ``+/-clip``.

    The rails' magnitudes are compared with the clip on the interleaved
    (re, im) float view, a block of ``_MEASURE_BLOCK`` samples at a time;
    each sample's two flags are adjacent bytes, read as one uint16 that is
    nonzero when either rail is beyond the clip.
    """
    iq = x.reshape(-1).view(float)
    size = 2 * _MEASURE_BLOCK
    return sum(np.count_nonzero((np.abs(iq[i : i + size]) > clip).view(np.uint16))
               for i in range(0, iq.size, size))


def apply_dac_and_measure(cfg: WaveformConfig, stream: np.ndarray) -> AclrReport:
    """Quantize the stream, estimate the Welch PSD and integrate the ACLR.

    A writeable C-contiguous complex ``stream`` is overwritten with the DAC
    output (the ideal DAC leaves it as it is); any other array is copied
    first.  The stream's power and saturation are measured before it is
    quantized.  An empty stream, or one whose Welch grid puts fewer than
    ``2 * _FLATNESS_SMOOTH_BINS`` bins in an adjacent band, raises
    ``ValueError`` before the stream is touched.

    The in-band window is ``[-W/2, W/2]``; each adjacent band is W wide and
    offset by the guard band; the two sides are averaged.  The model-predicted
    ACLR allocates the quantization noise uniformly over the sampled
    bandwidth: ``1 + gain^2 / (delta * noise)`` with
    ``delta = occupied_bandwidth / sample_rate``.
    """
    stream = np.require(np.atleast_1d(stream), complex, ("C", "W"))
    if stream.size == 0:
        raise ValueError("stream must be non-empty")
    # the band geometry is checked before the stream is measured or overwritten
    freq = _welch_freq(cfg, stream.size)
    w = cfg.occupied_bandwidth
    g = cfg.guard_band
    inband = np.abs(freq) <= w / 2.0
    upper = (freq > w / 2.0 + g) & (freq <= 3.0 * w / 2.0 + g)
    lower = (freq < -(w / 2.0 + g)) & (freq >= -(3.0 * w / 2.0 + g))
    for side, sel in (("upper", upper), ("lower", lower)):
        bins = np.count_nonzero(sel)
        if bins < 2 * _FLATNESS_SMOOTH_BINS:
            raise ValueError(f"the {side} adjacent band holds {bins} PSD bins, fewer than the "
                             f"{2 * _FLATNESS_SMOOTH_BINS} its flatness is measured over")

    power = _mean_power(stream)
    dac = _resolve_dac(cfg, power)
    clip_used = dac.clip  # None for the ideal DAC, which never saturates
    saturated = 0.0 if clip_used is None else _saturated_count(stream, clip_used) / stream.size
    # from here on the stream holds the DAC output
    quantize(dac, stream, out=stream)
    # the ideal DAC adds no noise, so it has no predicted ACLR
    m = tx_moments(dac, power)
    delta = cfg.occupied_bandwidth / cfg.sample_rate
    predicted_db = (
        10.0 * math.log10(1.0 + m.gain**2 / (delta * m.noise)) if m.noise > 0 else None
    )

    density = _welch(cfg, stream)
    df = float(freq[1] - freq[0])
    pxx = density * np.sinc(freq / cfg.sample_rate) ** 2 if cfg.zoh else density
    p_in = float(np.sum(pxx[inband]) * df)
    p_adj = float(0.5 * (np.sum(pxx[upper]) + np.sum(pxx[lower])) * df)
    p_dac = _mean_power(stream)
    if not (p_dac > 0.0 and p_in > 0.0 and p_adj > 0.0):
        raise NumericalFailureError(f"no ACLR: DAC power {p_dac}, in-band {p_in}, adjacent {p_adj}")
    parseval = float(np.sum(density) * df / p_dac)

    flatness = _oob_flatness(density, upper, lower)

    return AclrReport(
        inband_power=p_in,
        adjacent_power=p_adj,
        aclr_db=10.0 * math.log10(p_in / p_adj),
        predicted_aclr_db=predicted_db,
        psd_freq=tuple(freq.tolist()),
        psd=tuple(pxx.tolist()),
        parseval_ratio=parseval,
        oob_flatness_db=flatness,
        stream_power=power,
        dac_clip_used=clip_used,
        saturated_fraction=saturated,
        clip_warning=saturated > 0.5,
    )


#: Boxcar width (PSD bins) used to average out Welch estimator variance
#: before measuring the out-of-band floor flatness.
_FLATNESS_SMOOTH_BINS = 32


def _oob_flatness(density, upper, lower) -> float:
    """Max-minus-min (dB) of the smoothed adjacent-band density, taken before
    the ZOH shaping; each band holds at least ``2 * _FLATNESS_SMOOTH_BINS``
    bins."""
    worst = -math.inf
    for sel in (upper, lower):
        k = np.ones(_FLATNESS_SMOOTH_BINS) / _FLATNESS_SMOOTH_BINS
        sm = np.convolve(density[sel], k, mode="valid")
        if sm.min() <= 0:
            return math.inf
        worst = max(worst, 10.0 * math.log10(sm.max() / sm.min()))
    return worst


def measure_aclr(cfg: WaveformConfig) -> AclrReport:
    """Synthesize with the config's seed and measure in one step."""
    return apply_dac_and_measure(cfg, synthesize_baseband(cfg))
