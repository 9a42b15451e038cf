import math
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from scipy import signal as sig

from qlt import (
    QuantizerSpec,
    WaveformConfig,
    apply_dac_and_measure,
    design_interp_filter,
    measure_aclr,
    quantize,
    synthesize_baseband,
)
from qlt import _signal, waveform
from qlt._rng import substream
from qlt.cli import json_text
from qlt.waveform import (
    _edge_window,
    _mean_power,
    _oob_flatness,
    _overlap_add,
    _saturated_count,
    _welch,
    _welch_freq,
)

BASE = WaveformConfig(num_symbols=128, seed=7)


def test_config_validation():
    with pytest.raises(ValueError):
        WaveformConfig(occupied_bandwidth=500e6, sample_rate=520e6, guard_band=20e6)
    with pytest.raises(ValueError):
        WaveformConfig(psd_segment_length=1000)
    # 0, which passes the power-of-two test (0 & -1 is 0), once ran on to a
    # division by zero in the Welch estimate; it is below the minimum
    with pytest.raises(ValueError, match="psd_segment_length must be >= 64, not 0"):
        WaveformConfig(psd_segment_length=0)
    with pytest.raises(ValueError):
        WaveformConfig(dac_bits=0)
    with pytest.raises(ValueError, match="dac_clip 0.5 needs dac_bits"):
        WaveformConfig(dac_clip=0.5)
    with pytest.raises(ValueError, match="num_symbols"):
        WaveformConfig(num_symbols=0)
    # the Kaiser window's I0(beta) overflows from about 6,450 dB: NaN taps
    with pytest.raises(ValueError, match="filter_attenuation_db 6500.0 puts the Kaiser window"):
        WaveformConfig(filter_attenuation_db=6500.0)
    assert np.isfinite(design_interp_filter(WaveformConfig(filter_attenuation_db=6000.0))).all()
    # 11 subcarriers at a full taper round to a 6-sample overlap, past half a symbol
    with pytest.raises(ValueError, match="symbol_taper 1.0 .* num_subcarriers 11"):
        WaveformConfig(num_subcarriers=11, symbol_taper=1.0)


@pytest.mark.parametrize("kappa", [-1.0, 0.0, math.nan, math.inf])
def test_a_dac_kappa_that_is_not_positive_and_finite_is_refused_before_synthesis(kappa):
    # it once failed only after synthesis, as "uniform_midrise requires clip > 0"
    rule = "finite" if kappa == math.inf else "> 0"
    with pytest.raises(ValueError, match=f"dac_kappa must be {rule}, not {kappa}"):
        WaveformConfig(dac_bits=4, dac_kappa=kappa)


@pytest.mark.parametrize("window", ["nope", ("kaiser",), ("nope", 1.0), ["hann"]])
def test_a_psd_window_that_cannot_be_built_is_refused_before_synthesis(window):
    # it once failed in the Welch estimate, after the stream was synthesized
    # and quantized, with scipy's message that names no field
    with pytest.raises(ValueError, match=f"psd_window {re.escape(repr(window))} is not a window"):
        WaveformConfig(psd_window=window)


def test_a_tuple_psd_window_is_still_a_window():
    assert WaveformConfig(psd_window=("tukey", 0.25)).psd_window == ("tukey", 0.25)


def test_a_loaded_clip_the_dac_refuses_names_dac_kappa():
    # a subnormal kappa loads a subnormal clip, whose levels round together
    cfg = WaveformConfig(num_symbols=2, dac_bits=3, dac_kappa=5e-324)
    with pytest.raises(ValueError, match="dac_kappa 5e-324 sets the DAC clip from the stream "
                                         "power: uniform_midrise clip 5e-324 puts its step below"):
        measure_aclr(cfg)


def test_default_geometry():
    cfg = WaveformConfig()
    assert cfg.interp_factor == 4
    assert cfg.baseband_rate == pytest.approx(245.76e6)
    assert cfg.active_subcarriers == 832
    assert cfg.filter_cutoff == pytest.approx(105e6)


def _interpolate(cfg, upfirdn):
    """The interpolated stream by ``upfirdn(h * up, stream, up)``, trimmed."""
    # the same symbols at the baseband rate: the stream before interpolation
    flat = replace(cfg, sample_rate=cfg.baseband_rate)
    assert flat.interp_factor == 1 and flat.active_subcarriers == cfg.active_subcarriers
    stream = synthesize_baseband(flat)
    up = cfg.interp_factor
    delay = (cfg.filter_taps - 1) // 2
    h = design_interp_filter(cfg)
    return upfirdn(h * up, stream, up)[delay : delay + stream.size * up]


def _complex_interpolation(cfg):
    """The interpolated stream by scipy's direct-form complex filter."""
    return _interpolate(cfg, lambda h, x, up: sig.upfirdn(h, x, up=up))


def _peak_error(got, want):
    return np.max(np.abs(got - want)) / np.max(np.abs(want))


@pytest.mark.parametrize("num_subcarriers", [512, 1024, 2048])
@pytest.mark.parametrize("taps", [127, 255, 511])
@pytest.mark.parametrize("up, sample_rate", [(2, 491.52e6), (3, 737.28e6), (4, 983.04e6)])
def test_rail_interpolation_is_bit_identical(up, sample_rate, taps, num_subcarriers):
    # both rails of the stream are exactly qlt's filter applied to the
    # baseband-rate symbols with the public taps, scaled by up and trimmed
    # by the filter delay: nothing else touches the samples
    cfg = replace(
        BASE, sample_rate=sample_rate, filter_taps=taps, num_subcarriers=num_subcarriers, num_symbols=4
    )
    assert cfg.interp_factor == up
    assert synthesize_baseband(cfg).tobytes() == _interpolate(cfg, _signal.upfirdn).tobytes()


@pytest.mark.parametrize("num_subcarriers", [512, 1024, 2048])
@pytest.mark.parametrize("taps", [127, 255, 511])
@pytest.mark.parametrize("up, sample_rate", [(2, 491.52e6), (3, 737.28e6), (4, 983.04e6)])
def test_interpolation_matches_the_direct_form_filter(up, sample_rate, taps, num_subcarriers):
    # overlap-save sums the products in another order; worst measured over
    # these 27 cases: 1.7e-15 of the peak sample
    cfg = replace(
        BASE, sample_rate=sample_rate, filter_taps=taps, num_subcarriers=num_subcarriers, num_symbols=4
    )
    assert cfg.interp_factor == up
    got = synthesize_baseband(cfg)
    want = _complex_interpolation(cfg)
    assert got.shape == want.shape
    assert _peak_error(got, want) <= 3e-15


@pytest.mark.parametrize("up, taps, n, tol", [
    (4, 255, 1, 3e-15),  # one input sample: a single frame
    (4, 255, 2, 3e-15),
    (3, 128, 5000, 3e-15),  # even taps, not a multiple of up
    (2, 127, 50000, 3e-15),  # several batches, the last one partial
    (4, 255, 50000, 3e-15),
    (1, 64, 10000, 3e-15),
    # 2*M > 4096: the block grows to 8192 (M = 2049) and 16384 (M = 4097,
    # longer than the fixed block), and the rounding with it (worst measured
    # 4.5e-15 and 5.5e-15 over five streams)
    (2, 4097, 20000, 1e-14),
    (2, 8193, 20000, 1e-14),
])
def test_upfirdn_matches_scipy_at_edge_shapes(up, taps, n, tol):
    h = sig.firwin(taps, 0.9 / up) * up
    rng = np.random.default_rng(n)
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    want = sig.upfirdn(h, x, up=up)
    got = _signal.upfirdn(h, x, up)
    assert got.shape == want.shape == ((n - 1) * up + taps,)
    assert _peak_error(got, want) <= tol


@pytest.mark.parametrize("overrides", [
    {},
    {"num_subcarriers": 2048, "num_symbols": 96, "filter_taps": 511},
    # the benchmark's median-rank op: x3, where the stream is a third of the output
    {"num_subcarriers": 1024, "num_symbols": 160, "sample_rate": 737.28e6},
])
def test_synthesis_memory_stays_near_the_output(overrides):
    # the output, the baseband stream and one batch of filter buffers; the
    # symbol grid and symbols are freed before the filter: 1.49x, 1.60x and
    # 1.81x the output measured (2.26x, 2.36x and 2.84x when the grid and
    # symbols lived through the filter beside a padded copy of the stream)
    cfg = WaveformConfig(seed=7, **overrides)
    tracemalloc.start()
    try:
        out = synthesize_baseband(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.0 * out.nbytes


def _loop_baseband(cfg):
    """The baseband-rate stream built by an index scatter into the symbol
    grid and a per-symbol overlap-add loop."""
    rng = substream(cfg.seed, "waveform-baseband")
    nfft = cfg.num_subcarriers
    half = cfg.active_subcarriers // 2
    bins = np.r_[0:half, nfft - half : nfft]
    grid = np.zeros((cfg.num_symbols, nfft), dtype=complex)
    grid[:, bins] = np.sqrt(0.5) * (
        rng.standard_normal((cfg.num_symbols, bins.size))
        + 1j * rng.standard_normal((cfg.num_symbols, bins.size))
    )
    win, ov = _edge_window(nfft, cfg.symbol_taper)
    symbols = np.fft.ifft(grid, axis=1, norm="ortho") * np.sqrt(nfft / bins.size) * win
    hop = nfft - ov
    stream = np.zeros(cfg.num_symbols * hop + ov, dtype=complex)
    for k in range(cfg.num_symbols):
        stream[k * hop : k * hop + nfft] += symbols[k]
    return stream


@pytest.mark.parametrize("taper", [0.0, 0.1, 1.0])
@pytest.mark.parametrize("num_subcarriers", [8, 1024])
def test_baseband_matches_the_scatter_and_loop_bytewise(num_subcarriers, taper):
    # the draw into a view of the grid, the in-place transform, scaling and
    # windowing and the reshaped overlap-add give the bytes of the scatter
    # and the loop
    cfg = replace(BASE, sample_rate=BASE.baseband_rate, num_subcarriers=num_subcarriers,
                  num_symbols=9, symbol_taper=taper)
    assert cfg.interp_factor == 1
    got = synthesize_baseband(cfg)
    assert got.tobytes() == _loop_baseband(cfg).tobytes()


@pytest.mark.parametrize("nsym, nfft, ov", [(1, 8, 0), (1, 8, 4), (5, 16, 3), (7, 64, 32), (3, 9, 4)])
def test_overlap_add_matches_the_per_symbol_loop(nsym, nfft, ov):
    rng = np.random.default_rng(nsym * nfft + ov)
    symbols = rng.standard_normal((nsym, nfft)) + 1j * rng.standard_normal((nsym, nfft))
    hop = nfft - ov
    want = np.zeros(nsym * hop + ov, dtype=complex)
    for k in range(nsym):
        want[k * hop : k * hop + nfft] += symbols[k]
    got = _overlap_add(symbols, hop)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("num_subcarriers, sample_rate", [
    (1024, 983.04e6), (2048, 491.52e6), (512, 737.28e6),
])
def test_band_edges_sit_on_the_outer_active_subcarriers(num_subcarriers, sample_rate):
    # the active bins are -half .. half - 1 of the grid, spaced by the
    # baseband rate over the grid size.  An ideal DAC's PSD stays above 4 dB
    # below its in-band level (0.40 of it) out to the outermost two and is
    # below that from one spacing past them (measured: at least 0.54 inside,
    # at most 0.25 past them), so one subcarrier more or less on a side fails
    cfg = replace(BASE, num_subcarriers=num_subcarriers, sample_rate=sample_rate,
                  num_symbols=64, dac_bits=None)
    freq, pxx = sig.welch(
        synthesize_baseband(cfg), fs=cfg.sample_rate, nperseg=4096, noverlap=2048,
        return_onesided=False, detrend=False,
    )
    half = cfg.active_subcarriers // 2
    spacing = cfg.baseband_rate / cfg.num_subcarriers
    level = np.median(pxx[np.abs(freq) <= half * spacing / 2])
    inside = (freq >= -half * spacing) & (freq <= (half - 1) * spacing)
    beyond = (freq <= -(half + 1) * spacing) | (freq >= half * spacing)
    assert np.all(pxx[inside] > level * 10**-0.4)
    assert np.all(pxx[beyond] < level * 10**-0.4)


def test_stream_power_is_normalized():
    stream = synthesize_baseband(BASE)
    assert np.mean(np.abs(stream) ** 2) == pytest.approx(1.0, rel=0.02)


def test_interp_filter_rejects_spectral_images():
    # design oracle: zero-stuffing replicates the baseband at multiples of
    # the baseband rate; the tap set must hold those images in deep stopband
    cfg = WaveformConfig()
    h = design_interp_filter(cfg)
    assert h.size == cfg.filter_taps
    w, resp = sig.freqz(h, worN=8192, fs=cfg.sample_rate)
    gain_db = 20 * np.log10(np.abs(resp) + 1e-300)
    first_image = cfg.baseband_rate - cfg.occupied_bandwidth / 2  # 145.76 MHz
    assert gain_db[w >= first_image].max() < -80.0
    assert abs(gain_db[w <= 80e6]).max() < 0.1  # flat passband


def test_pre_dac_aclr_is_filter_limited():
    rep = apply_dac_and_measure(BASE, synthesize_baseband(BASE))
    assert rep.aclr_db > 60.0
    assert rep.predicted_aclr_db is None


def test_identity_dac_equals_pre_dac_measurement():
    stream = synthesize_baseband(BASE)
    a = apply_dac_and_measure(BASE, stream)
    b = apply_dac_and_measure(replace(BASE, dac_bits=None), stream)
    assert a.aclr_db == b.aclr_db


def test_parseval():
    for bits in (None, 3, 6):
        cfg = replace(BASE, dac_bits=bits)
        rep = apply_dac_and_measure(cfg, synthesize_baseband(cfg))
        assert abs(rep.parseval_ratio - 1.0) < 0.01


def test_measured_aclr_tracks_prediction():
    cfg = replace(BASE, dac_bits=4, num_symbols=256)
    rep = apply_dac_and_measure(cfg, synthesize_baseband(cfg))
    assert abs(rep.aclr_db - rep.predicted_aclr_db) < 2.0
    assert rep.dac_clip_used == pytest.approx(3.0 * math.sqrt(rep.stream_power / 2), rel=1e-6)


def test_aclr_gains_about_six_db_per_bit_midrange():
    cfg = replace(BASE, num_symbols=256)
    results = {}
    for bits in (3, 4, 5, 6):
        c = replace(cfg, dac_bits=bits)
        results[bits] = apply_dac_and_measure(c, synthesize_baseband(c))
    for b in (3, 4, 5):
        pred_step = results[b + 1].predicted_aclr_db - results[b].predicted_aclr_db
        meas_step = results[b + 1].aclr_db - results[b].aclr_db
        assert 4.5 < pred_step < 7.5
        assert abs(meas_step - pred_step) < 2.0


def test_aclr_monotone_in_resolution():
    cfg = replace(BASE, num_symbols=192)
    vals = []
    for bits in (2, 3, 4, 6, 8):
        c = replace(cfg, dac_bits=bits)
        vals.append(apply_dac_and_measure(c, synthesize_baseband(c)).aclr_db)
    assert all(a < b for a, b in zip(vals, vals[1:]))


def test_oob_floor_whiteness_granular_regime():
    # in the resolution range where granular noise dominates the clip
    # distortion, the out-of-band floor is flat
    for bits in (3, 4, 5, 6):
        cfg = replace(BASE, dac_bits=bits, num_symbols=256)
        rep = apply_dac_and_measure(cfg, synthesize_baseband(cfg))
        assert rep.oob_flatness_db < 3.0, f"bits={bits}"


def test_oob_floor_shaped_at_one_bit():
    # hard limiting correlates the distortion with the signal: the floor
    # picks up shoulders and is measurably non-flat
    cfg = replace(BASE, dac_bits=1, num_symbols=256)
    rep = apply_dac_and_measure(cfg, synthesize_baseband(cfg))
    assert rep.oob_flatness_db > 3.0


def test_saturation_warning():
    cfg = replace(BASE, dac_bits=4, dac_clip=1e-3, num_symbols=16)
    rep = apply_dac_and_measure(cfg, synthesize_baseband(cfg))
    assert rep.saturated_fraction > 0.9
    assert rep.clip_warning
    healthy = apply_dac_and_measure(replace(BASE, dac_bits=4), synthesize_baseband(BASE))
    assert not healthy.clip_warning


def test_zoh_shaping_reduces_adjacent_power():
    stream = synthesize_baseband(replace(BASE, dac_bits=4))
    # the measurement overwrites the stream it is given
    with_zoh = apply_dac_and_measure(replace(BASE, dac_bits=4, zoh=True), stream.copy())
    without = apply_dac_and_measure(replace(BASE, dac_bits=4, zoh=False), stream)
    # both calls measured the synthesized stream, not a quantized one
    assert with_zoh.stream_power == without.stream_power
    assert with_zoh.dac_clip_used == without.dac_clip_used
    assert with_zoh.aclr_db > without.aclr_db
    assert with_zoh.aclr_db - without.aclr_db < 1.5


def test_determinism():
    cfg = replace(BASE, dac_bits=3, num_symbols=32)
    a = apply_dac_and_measure(cfg, synthesize_baseband(cfg))
    b = apply_dac_and_measure(cfg, synthesize_baseband(cfg))
    assert json_text(a) == json_text(b)
    c = measure_aclr(replace(cfg, seed=8))
    assert json_text(a) != json_text(c)


@pytest.mark.parametrize("bits", [None, 1, 4])
def test_the_measurement_leaves_the_dac_output_in_the_stream(bits):
    cfg = replace(BASE, dac_bits=bits, num_symbols=32)
    stream = synthesize_baseband(cfg)
    original = stream.copy()
    rep = apply_dac_and_measure(cfg, stream)
    dac = QuantizerSpec.midrise_for_power(bits, rep.stream_power, cfg.dac_kappa)
    assert dac.clip == rep.dac_clip_used
    assert stream.tobytes() == quantize(dac, original).tobytes()
    # a copy measures the same, and a stream the call had to copy is kept
    assert json_text(apply_dac_and_measure(cfg, original.copy())) == json_text(rep)
    frozen = original.copy()
    frozen.flags.writeable = False
    assert json_text(apply_dac_and_measure(cfg, frozen)) == json_text(rep)
    assert frozen.tobytes() == original.tobytes()


def test_empty_stream_rejected():
    with pytest.raises(ValueError):
        apply_dac_and_measure(BASE, np.array([]))


@pytest.mark.parametrize("stream", [np.complex128(1 + 1j), np.ones(1, dtype=complex)],
                         ids=["scalar", "size-1"])
def test_a_one_sample_stream_is_rejected(stream):
    with pytest.raises(ValueError, match="adjacent band holds 0 PSD bins"):
        apply_dac_and_measure(replace(BASE, dac_bits=4), stream)


def test_a_rejected_geometry_leaves_the_stream_as_it_was():
    # 256-bin segments put 52 bins in each adjacent band, fewer than the 64 needed
    cfg = replace(BASE, dac_bits=4, num_symbols=8, psd_segment_length=256)
    stream = synthesize_baseband(cfg)
    original = stream.tobytes()
    with pytest.raises(ValueError, match="upper adjacent band holds 52 PSD bins"):
        apply_dac_and_measure(cfg, stream)
    assert stream.tobytes() == original


@pytest.mark.parametrize("window", ["hann", "hamming", "boxcar"])
@pytest.mark.parametrize("overlap", [0.0, 0.5, 0.9])
@pytest.mark.parametrize("seg", [64, 4096, 8192])
def test_welch_matches_scipy(seg, overlap, window):
    cfg = WaveformConfig(psd_segment_length=seg, psd_overlap=overlap, psd_window=window)
    rng = np.random.default_rng(seg)
    for n in (64, 5000, 99991, seg):
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        nperseg = min(seg, n)
        want_f, want_p = sig.welch(
            x,
            fs=cfg.sample_rate,
            window=window,
            nperseg=nperseg,
            noverlap=int(nperseg * overlap),
            return_onesided=False,
            detrend=False,
            scaling="density",
        )
        freq, pxx = _welch_freq(cfg, n), _welch(cfg, x)
        np.testing.assert_array_equal(freq, np.fft.fftshift(want_f))
        np.testing.assert_allclose(pxx, np.fft.fftshift(want_p), rtol=1e-12, atol=0)


_MEMORY_GEOMETRIES = [
    pytest.param(1024, 256, 4096, 983.04e6, id="1024-256-4096"),
    pytest.param(2048, 96, 8192, 983.04e6, id="2048-96-8192"),
    # the benchmark's median-rank op
    pytest.param(1024, 160, 4096, 737.28e6, id="1024-160-4096-x3"),
]


@pytest.mark.parametrize("num_subcarriers, num_symbols, seg, sample_rate", _MEMORY_GEOMETRIES)
def test_measurement_memory_stays_near_the_stream(num_subcarriers, num_symbols, seg, sample_rate):
    # the stream is quantized in place, and its power, its saturation, the
    # quantizer and the Welch sub-batches use L2-sized block temporaries:
    # 0.07x, 0.11x and 0.16x the stream measured (0.08x, 0.12x and 0.17x
    # with reused scratch buffers; 0.51x to 0.52x with one float |x|^2
    # array, 1.51x with a quantized copy; 2.00x, 2.24x and 2.97x with
    # whole-stream abs temporaries and 2**18-sample batches)
    cfg = _memory_config(num_subcarriers, num_symbols, seg, sample_rate)
    stream = synthesize_baseband(cfg)
    tracemalloc.start()
    try:
        apply_dac_and_measure(cfg, stream)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.25 * stream.nbytes


@pytest.mark.parametrize("num_subcarriers, num_symbols, seg, sample_rate", _MEMORY_GEOMETRIES)
def test_synthesis_and_measurement_stay_near_the_stream(num_subcarriers, num_symbols, seg, sample_rate):
    # synthesis holds the stream, the baseband stream and filter batches,
    # and sets the peak; the measurement adds L2-sized blocks once the
    # baseband stream is freed: 1.37x, 1.42x and 1.59x the stream measured
    # (1.51x, 1.53x and 1.61x with a float |x|^2 array; 2.51x to 2.54x with
    # a quantized copy)
    cfg = _memory_config(num_subcarriers, num_symbols, seg, sample_rate)
    tracemalloc.start()
    try:
        measure_aclr(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.75 * synthesize_baseband(cfg).nbytes


def _memory_config(num_subcarriers, num_symbols, seg, sample_rate):
    return WaveformConfig(
        num_subcarriers=num_subcarriers,
        num_symbols=num_symbols,
        psd_segment_length=seg,
        sample_rate=sample_rate,
        dac_bits=4,
        seed=7,
    )


def _frame_order_welch(cfg, x):
    """The Welch density with each frame's power row added to the sum, one
    frame after another."""
    seg = min(cfg.psd_segment_length, x.size)
    hop = seg - int(seg * cfg.psd_overlap)
    win = sig.get_window(cfg.psd_window, seg)
    frames = np.lib.stride_tricks.sliding_window_view(x, seg)[::hop]
    acc = np.zeros(seg)
    for frame in frames:
        spec = np.fft.fft(frame * win)
        power = spec.real**2
        power += spec.imag**2
        acc += power
    return np.fft.fftshift(acc / (len(frames) * cfg.sample_rate * np.sum(win**2)))


@pytest.mark.parametrize("overlap", [0.0, 0.5, 0.75])
@pytest.mark.parametrize("seg", [64, 256, 1024, 4096, 8192])
def test_welch_sub_batches_keep_the_group_summation_order(monkeypatch, seg, overlap):
    # the frames are summed as one group, in frame order, at any sub-batch
    # size: one frame, the default 2**15 samples and more; lengths that are
    # not a multiple of the hop, up to 4,687 frames of 64 at overlap 0
    cfg = WaveformConfig(psd_segment_length=seg, psd_overlap=overlap)
    rng = np.random.default_rng(seg + int(100 * overlap))
    for n in (seg + 1, 5 * seg + 7, 300_001):
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        want = _frame_order_welch(cfg, x).tobytes()
        for fft_samples in (1, 2**13, 2**15, 2**18):
            monkeypatch.setattr(waveform, "_WELCH_FFT_SAMPLES", fft_samples)
            assert _welch(cfg, x).tobytes() == want, fft_samples


@pytest.mark.parametrize("field, value, message", [
    ("num_subcarriers", 4, "num_subcarriers must be >= 8"),
    ("symbol_taper", 1.5, "symbol_taper must be in"),
])
def test_config_rejects_too_few_subcarriers_or_a_taper_above_one(field, value, message):
    with pytest.raises(ValueError, match=message):
        WaveformConfig(**{field: value})


def test_oob_flatness_of_a_zero_density_is_infinite():
    assert _oob_flatness(np.zeros(256), slice(0, 128), slice(128, 256)) == math.inf


def test_measurement_kernels_match_the_whole_array_expressions():
    # rails exactly on, just past and far past the clip, on either side, in
    # one block and across the edges of several
    rng = np.random.default_rng(5)
    clip = 1.25
    edges = [clip, -clip, np.nextafter(clip, 2) * 1j, -np.nextafter(clip, 2), complex(np.inf, 0), complex(0, -np.inf)]
    for n, at in ((4099, [0]), (3 * waveform._MEASURE_BLOCK + 5, [0, waveform._MEASURE_BLOCK - 3])):
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        for i in at:
            x[i : i + 6] = edges
        want = np.mean((np.abs(x.real) > clip) | (np.abs(x.imag) > clip))
        assert _saturated_count(x, clip) / x.size == want
        finite = x[np.isfinite(x)]
        assert _mean_power(finite) == pytest.approx(float(np.mean(np.abs(finite) ** 2)), rel=1e-14)


def test_the_saturation_count_holds_no_stream_sized_temporary():
    # a block's |x| floats (256 KB) and flags (32 KB) are numpy's own
    # temporaries: 289 KB measured on a 2**20-sample (16 MB) stream
    rng = np.random.default_rng(9)
    x = rng.standard_normal(2**20) + 1j * rng.standard_normal(2**20)
    tracemalloc.start()
    try:
        _saturated_count(x, 1.25)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * 2**18


_BLOCK = waveform._MEASURE_BLOCK


@pytest.mark.parametrize("n", [1, 7, 8, 9, 127, 128, 129, _BLOCK - 1, _BLOCK, _BLOCK + 1,
                               2 * _BLOCK + 8, 999_983, 2**21 + 3])
def test_mean_power_matches_an_exact_sum(n):
    # math.fsum rounds the sum of the squared rails once; the einsum sum
    # came within 6.7e-16 of it at these sizes
    rng = np.random.default_rng(n)
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    iq = x.view(float)
    assert _mean_power(x) == pytest.approx(math.fsum((iq * iq).tolist()) / n, rel=1e-14)
