import hashlib
import math
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
import scipy.stats
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qlt import (
    HaarFrames,
    QuantizerSpec,
    SimConfig,
    SubbandPlan,
    run_chain_trials,
    run_tx_trials,
    subband_assignment,
)
from qlt._rng import complex_normal, substream
from qlt.cli import json_text
from qlt.moments import add_awgn, chain_moments
from qlt.montecarlo import TRANSFORMS, _corr, _interleaved, _kurtosis
from qlt.quantizer import quantize

ONE_BIT = QuantizerSpec.uniform_midrise(1, 1.0)
SHAPED_PLAN = SubbandPlan((0.5, 0.5), (2.0, 0.0))


def sample_haar_unitary(n: int, seed) -> np.ndarray:
    """Draw an n x n Haar-distributed unitary matrix.

    QR of an i.i.d. complex-Gaussian matrix, with the Q columns rotated by the
    phases of R's diagonal so that the factor is exactly Haar.  ``seed`` may
    be an integer or a numpy Generator.
    """
    rng = seed if isinstance(seed, np.random.Generator) else substream(seed, "haar-qr")
    g = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2.0)
    q, r = np.linalg.qr(g)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def test_haar_unitary_scalar_case():
    vals = [complex(sample_haar_unitary(1, seed)[0, 0]) for seed in range(200)]
    mags = np.abs(vals)
    np.testing.assert_allclose(mags, 1.0, atol=1e-12)
    # uniform phase: mean should vanish at the 3-sigma level
    assert abs(np.mean(vals)) < 3.0 / math.sqrt(200)


def test_haar_unitary_is_unitary():
    v = sample_haar_unitary(64, 0)
    err = np.abs(v @ v.conj().T - np.eye(64)).max()
    assert err < 1e-10


def test_haar_marginal_second_moment():
    # E|v_ij|^2 = 1/n for Haar; average the first column over many draws
    n, draws = 64, 2000
    rng = substream(17, "haar-stats")
    acc = np.zeros(n)
    for _ in range(draws):
        v = sample_haar_unitary(n, rng)
        acc += np.abs(v[:, 0]) ** 2
    acc /= draws
    stderr = 1.0 / (n * math.sqrt(draws))  # var of |v|^2 is ~1/n^2
    assert np.all(np.abs(acc - 1.0 / n) < 4 * stderr)


def test_haar_left_invariance_statistic():
    # |trace|^2 statistics are unchanged by a fixed left rotation
    n, draws = 8, 4000
    rng = substream(11, "haar-invariance")
    fixed = sample_haar_unitary(n, substream(5, "fixed-rotation"))
    t_plain, t_rot = [], []
    for _ in range(draws):
        v = sample_haar_unitary(n, rng)
        t_plain.append(abs(np.trace(v)) ** 2)
        t_rot.append(abs(np.trace(fixed @ v)) ** 2)
    # E|tr V|^2 = 1 for the Haar ensemble
    for vals in (t_plain, t_rot):
        mean = np.mean(vals)
        se = np.std(vals) / math.sqrt(draws)
        assert abs(mean - 1.0) < 4 * se


def test_householder_chain_matches_haar_law():
    # materialized chain transforms are exactly unitary and carry the same
    # first-column law as the QR construction
    n = 48
    rng = substream(3, "chain-check")
    chain = HaarFrames(n, rng)
    eye = np.eye(n, dtype=complex)
    v = np.column_stack([chain.apply(eye[:, k]) for k in range(n)])
    assert np.abs(v @ v.conj().T - np.eye(n)).max() < 1e-12
    z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    np.testing.assert_allclose(chain.apply_adjoint(z), v.conj().T @ z, atol=1e-11)
    # statistics: E|v_ij|^2 * n = 1 and E|tr V|^2 = 1 (Haar-sensitive moment)
    draws = 3000
    rng2 = substream(4, "chain-stats")
    col = np.zeros(8)
    tr2 = 0.0
    for _ in range(draws):
        c = HaarFrames(8, rng2)
        m = np.column_stack([c.apply(np.eye(8, dtype=complex)[:, k]) for k in range(8)])
        col += np.abs(m[:, 0]) ** 2
        tr2 += abs(np.trace(m)) ** 2
    np.testing.assert_allclose(col / draws, 1.0 / 8, atol=4.0 / (8 * math.sqrt(draws)))
    assert abs(tr2 / draws - 1.0) < 4.0 / math.sqrt(draws)


def test_norm_preservation_through_pipeline():
    rng = substream(9, "norm")
    chain = HaarFrames(512, rng)
    z = rng.standard_normal(512) + 1j * rng.standard_normal(512)
    for y in (chain.apply(z), chain.apply_adjoint(z)):
        assert abs(np.linalg.norm(y) - np.linalg.norm(z)) < 1e-10 * np.linalg.norm(z)


@pytest.mark.parametrize("n", [1, 2, 3, 17, 677, 1024])
def test_householder_chain_stream_identity(n):
    # a query that adds a direction draws standard_normal(2n), real and
    # imaginary parts interleaved, and the new image is that draw projected
    # off the earlier images and normalized; a query inside the span draws
    # nothing
    rng = substream(21, "trial", 4)
    ref = substream(21, "trial", 4)
    chain = HaarFrames(n, rng)
    assert rng.bit_generator.state == ref.bit_generator.state
    vectors = substream(22, "queries", n)
    queries = [(chain.apply_adjoint, chain.ins), (chain.apply, chain.outs),
               (chain.apply_adjoint, chain.ins)]
    asked = []
    for k, (query, images) in enumerate(queries[:n]):
        earlier = np.array(images).reshape(k, n).T
        v = vectors.standard_normal(n) + 1j * vectors.standard_normal(n)
        asked.append((query, v, query(v)))
        g = ref.standard_normal(2 * n).view(np.complex128)
        want = g - earlier @ (earlier.conj().T @ g)
        np.testing.assert_allclose(images[k], want / np.linalg.norm(want), rtol=0.0, atol=1e-14)
        assert len(chain.ins) == len(chain.outs) == k + 1
    for query, v, image in asked:
        np.testing.assert_allclose(query(v), image, rtol=0.0, atol=1e-13 * np.linalg.norm(v))
    chain.apply(asked[0][2])
    assert rng.bit_generator.state == ref.bit_generator.state
    assert len(chain.ins) == len(chain.outs) == min(n, 3)


def _traced_peak(fn):
    """Peak bytes that fn holds at once, as numpy reports them to tracemalloc."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_tx_trials_hold_memory_linear_in_n():
    # a whole 2-trial run at n=4096 peaked at 1.2 MB, about 18 complex
    # n-vectors; a chain that drew all n(n+1)/2 reflector entries would hold
    # 134 MB for the chain alone
    def cfg(n):
        return SimConfig(size=n, plan=SHAPED_PLAN, dac=ONE_BIT, trials=2, seed=5)

    run_tx_trials(cfg(8))  # first-call caches stay out of the measured peak
    n = 4096
    peak = _traced_peak(lambda: run_tx_trials(cfg(n)))
    assert peak <= 24 * 16 * n


@pytest.mark.parametrize("runner", [run_tx_trials, run_chain_trials], ids=lambda f: f.__name__)
def test_trials_hold_one_chain_at_a_time(runner):
    # a 3-trial run at n=4096, whose chain trials reach three directions,
    # peaked at 20.1 (tx) and 24.1 (chain) complex n-vectors; each further
    # chain held at once would add 4 (tx) or 6 (chain), and a chain that drew
    # all n(n+1)/2 entries at once would hold 134 MB
    def cfg(n):
        return SimConfig(size=n, plan=SHAPED_PLAN, dac=ONE_BIT, trials=3, seed=5,
                         noise_power=0.1, adc=QuantizerSpec.uniform_midrise(3, 2.6))

    runner(cfg(8))  # first-call caches stay out of the measured peak
    n = 4096
    peak = _traced_peak(lambda: runner(cfg(n)))
    assert peak <= 26 * 16 * n


def _interleaved_argmax(fr, n):
    # the layout as one np.argmax per bin, the oracle for _interleaved
    counts = np.zeros(fr.size)
    out = np.empty(n, dtype=int)
    for k in range(n):
        m = int(np.argmax(fr * (k + 1) - counts))
        out[k] = m
        counts[m] += 1.0
    return out


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(
    weights=st.lists(st.floats(1e-3, 1.0), min_size=1, max_size=4),
    n=st.integers(0, 3000),
    normalize=st.booleans(),
)
@example(weights=[0.5, 0.5], n=64, normalize=False)
@example(weights=[1.0, 1.0, 1.0], n=1000, normalize=True)
@example(weights=[0.25] * 4, n=4096, normalize=False)
@example(weights=[0.1, 0.7, 0.2], n=2048, normalize=False)
# sixteenths repeat every 16 bins, so the layout is tiled from the first 16
@example(weights=[1 / 16, 3 / 16, 5 / 16, 7 / 16], n=4096, normalize=False)
# dyadic fractions that sum to 3/4 never repeat: the loop runs to n
@example(weights=[0.5, 0.25], n=100, normalize=False)
def test_interleaved_layout_matches_the_argmax_loop(weights, n, normalize):
    fr = np.asarray(weights)
    if normalize:
        fr = fr / fr.sum()
    np.testing.assert_array_equal(_interleaved(fr, n), _interleaved_argmax(fr, n))


def test_subband_assignment_fractions():
    fr = (0.37, 0.41, 0.22)
    for layout in ("contiguous", "interleaved"):
        a = subband_assignment(fr, 1000, layout)
        counts = np.bincount(a, minlength=3)
        assert np.all(np.abs(counts / 1000 - np.asarray(fr)) <= 1.0 / 1000)
    # interleaved spreads bands instead of blocking them
    a = subband_assignment((0.5, 0.5), 16, "interleaved")
    assert a[:4].tolist() != [0, 0, 0, 0]


@pytest.mark.parametrize("layout", ["contiguous", "interleaved"])
@pytest.mark.parametrize("fractions", [(), (math.nan, 0.5), (0.5, math.nan), (0.5, 0.4), (1.5, -0.5)])
def test_subband_assignment_rejects_fractions_a_plan_rejects(layout, fractions):
    with pytest.raises(ValueError, match="bandwidth fractions"):
        subband_assignment(fractions, 16, layout)


def test_sim_config_validation():
    with pytest.raises(ValueError):
        SimConfig(size=0, plan=SHAPED_PLAN, dac=ONE_BIT)
    with pytest.raises(ValueError):
        SimConfig(size=16, plan=SHAPED_PLAN, dac=ONE_BIT, transform="dct")
    with pytest.raises(ValueError, match=r"assignment must be one of \['contiguous', 'interleaved'\], not 'striped'"):
        SimConfig(size=16, plan=SHAPED_PLAN, dac=ONE_BIT, assignment="striped")


def test_identity_quantizer_trials_have_no_noise():
    cfg = SimConfig(
        size=256, plan=SHAPED_PLAN, dac=QuantizerSpec.identity(), trials=64, seed=2
    )
    rep = run_tx_trials(cfg)
    d = rep.noise_diagnostics
    assert d["z_w_correlation"] == 0.0 and d["excess_kurtosis_re"] == 0.0
    # r equals z exactly, so band energies are plain sample averages
    assert max(rep.band_energy_rel_err) < 0.2
    assert rep.total_energy == pytest.approx(1.0, rel=0.05)


def test_energy_bookkeeping_per_trial():
    # one-bit output has |x|^2 = 2 per sample, so every trial's band energies
    # must sum to exactly 2 after the unitary transform
    cfg = SimConfig(size=512, plan=SHAPED_PLAN, dac=ONE_BIT, trials=6, seed=3)
    rep = run_tx_trials(cfg)
    for row in rep.trial_band_energy:
        assert sum(row) == pytest.approx(2.0, abs=1e-10)


def test_tx_trials_match_prediction():
    cfg = SimConfig(size=2048, plan=SHAPED_PLAN, dac=ONE_BIT, trials=30, seed=12345)
    rep = run_tx_trials(cfg)
    assert max(rep.band_energy_rel_err) < 0.03
    assert rep.total_energy == pytest.approx(2.0, rel=1e-6)
    d = rep.noise_diagnostics
    assert abs(d["excess_kurtosis_re"]) < 0.15
    assert abs(d["excess_kurtosis_im"]) < 0.15
    assert d["z_w_correlation"] < 3.0 / math.sqrt(2048)
    assert abs(d["iq_correlation"]) < 0.05


def test_tx_trials_three_bit_shaped_plan():
    plan = SubbandPlan((0.25, 0.75), (3.0, 1.0 / 3.0))
    q = QuantizerSpec.uniform_midrise(3, 2.6)
    cfg = SimConfig(size=2048, plan=plan, dac=q, trials=256, seed=30)
    rep = run_tx_trials(cfg)
    assert max(rep.band_energy_rel_err) < 0.03
    assert rep.total_energy == pytest.approx(rep.predicted_total_energy, rel=0.01)


def test_tx_trials_layout_independent():
    # the concentration limit does not depend on how bins map to bands
    reps = {}
    for layout in ("contiguous", "interleaved"):
        cfg = SimConfig(size=1024, plan=SHAPED_PLAN, dac=ONE_BIT, trials=16,
                        seed=44, assignment=layout)
        reps[layout] = run_tx_trials(cfg)
    for layout, rep in reps.items():
        assert max(rep.band_energy_rel_err) < 0.05, layout


def _hex(values):
    return [v.hex() for v in values]


@pytest.mark.parametrize("transform", ["haar", "fft"])
@pytest.mark.parametrize("layout", ["contiguous", "interleaved"])
def test_tx_trials_are_noiseless_ideal_adc_chain_trials(transform, layout):
    # a transmit-only trial is the chain trial with nothing after the DAC
    plan = SubbandPlan((0.3, 0.45, 0.25), (0.5, 1.5, 1.0))
    cfg = SimConfig(size=96, plan=plan, dac=QuantizerSpec.uniform_midrise(3, 2.2),
                    transform=transform, trials=4, seed=9, assignment=layout)
    tx, chain = run_tx_trials(cfg), run_chain_trials(cfg)
    for name in ("band_energy", "band_energy_se", "band_share"):
        assert _hex(getattr(tx, name)) == _hex(getattr(chain, name)), name
    assert _hex(tx.noise_diagnostics.values()) == _hex(chain.noise_diagnostics.values())
    assert tx.band_correlation is tx.band_correlation_se is tx.predicted_band_correlation is None
    assert chain.band_correlation is not None
    # the transmit experiment ignores the channel and the ADC
    noisy = SimConfig(size=96, plan=plan, dac=QuantizerSpec.uniform_midrise(3, 2.2),
                      transform=transform, trials=4, seed=9, assignment=layout,
                      noise_power=0.4, adc=QuantizerSpec.uniform_midrise(2, 1.9))
    assert json_text(run_tx_trials(noisy)) == json_text(tx)


def test_chain_full_noisy_quantized_chain():
    # two-sided quantization over a noisy channel: the empirical per-band
    # correlation lands on the closed-form chain-moment prediction
    plan = SubbandPlan((0.5, 0.5), (1.5, 0.5))
    cfg = SimConfig(
        size=1024, plan=plan,
        dac=QuantizerSpec.uniform_midrise(2, 1.8),
        noise_power=0.5,
        adc=QuantizerSpec.uniform_midrise(3, 2.6),
        trials=48, seed=55,
    )
    rep = run_chain_trials(cfg)
    for got, want in zip(rep.band_correlation, rep.predicted_band_correlation):
        assert got == pytest.approx(want, rel=0.05)
    # diagnostics of the chain noise stay Gaussian-like
    d = rep.noise_diagnostics
    assert abs(d["excess_kurtosis_re"]) < 0.2
    assert d["z_w_correlation"] < 3.0 / math.sqrt(1024)


def test_spread_decreases_with_size():
    stds, ses = [], []
    for n in (256, 1024, 4096):
        cfg = SimConfig(size=n, plan=SHAPED_PLAN, dac=ONE_BIT, trials=64, seed=21)
        rep = run_tx_trials(cfg)
        stds.append(float(np.std(np.asarray(rep.trial_band_energy)[:, 0], ddof=1)))
        for got, want, se in zip(rep.band_energy, rep.predicted_band_energy, rep.band_energy_se):
            assert abs(got - want) <= 4.0 * se, n
        ses.append(rep.band_energy_se)
    assert stds[0] > stds[1] > stds[2]
    for band in zip(*ses):
        assert band[0] > band[1] > band[2]


def test_haar_tx_trials_reach_the_flat_noise_limit_at_n_2_18():
    # the paper's claim is about large n; the lazily drawn chain costs O(n)
    # per query, so an exact Haar ensemble reaches n = 2^18 in about a second
    cfg = SimConfig(size=2**18, plan=SHAPED_PLAN, dac=ONE_BIT, trials=4, seed=18)
    rep = run_tx_trials(cfg)
    for got, want, se in zip(rep.band_energy, rep.predicted_band_energy, rep.band_energy_se):
        assert abs(got - want) <= 4.0 * se


def test_fft_transform_three_bit_matches_limit():
    # at moderate resolution the deterministic transform tracks the
    # random-ensemble limit closely
    plan = SHAPED_PLAN
    cfg = SimConfig(
        size=2048, plan=plan, dac=QuantizerSpec.uniform_midrise(3, 2.6),
        transform="fft", trials=40, seed=5,
    )
    rep = run_tx_trials(cfg)
    assert max(rep.band_energy_rel_err) < 0.01


def test_fft_transform_one_bit_matches_arcsine_oracle(arcsine_band_energies):
    # hard limiting of a non-white input makes the error spectrum shaped, so
    # the one-bit deterministic-transform case deviates from the flat-noise
    # limit; the exact arcsine-law oracle predicts where it lands
    n = 2048
    cfg = SimConfig(size=n, plan=SHAPED_PLAN, dac=ONE_BIT, transform="fft",
                    trials=300, seed=5)
    rep = run_tx_trials(cfg)
    s1, s2 = arcsine_band_energies(n, (2.0, 0.0), 1.0)
    assert rep.band_energy[0] == pytest.approx(s1, rel=0.002)
    assert rep.band_energy[1] == pytest.approx(s2, rel=0.01)
    # the structural gap to the random-ensemble limit is ~12% in the low band
    assert rep.band_energy_rel_err[1] == pytest.approx(abs(s2 / 0.36338 - 1.0), abs=0.01)


def test_chain_identity_noiseless_correlation_is_one():
    plan = SubbandPlan((0.5, 0.5), (1.0, 1.0))
    cfg = SimConfig(
        size=512, plan=plan, dac=QuantizerSpec.identity(), trials=4, seed=6,
        noise_power=0.0,
    )
    rep = run_chain_trials(cfg)
    np.testing.assert_allclose(rep.band_correlation, 1.0, atol=1e-12)
    np.testing.assert_allclose(rep.predicted_band_correlation, 1.0)


def test_chain_identity_awgn_half_correlation():
    plan = SubbandPlan((0.5, 0.5), (1.0, 1.0))
    cfg = SimConfig(
        size=1024, plan=plan, dac=QuantizerSpec.identity(), trials=10, seed=14,
        noise_power=1.0,
    )
    rep = run_chain_trials(cfg)
    np.testing.assert_allclose(rep.predicted_band_correlation, 0.5)
    np.testing.assert_allclose(rep.band_correlation, 0.5, atol=0.03)


def test_chain_one_bit_noiseless_correlation_limit():
    plan = SubbandPlan((0.5, 0.5), (1.0, 1.0))
    cfg = SimConfig(size=2048, plan=plan, dac=ONE_BIT, trials=24, seed=99,
                    noise_power=0.0)
    rep = run_chain_trials(cfg)
    np.testing.assert_allclose(rep.predicted_band_correlation, 2.0 / math.pi, rtol=1e-12)
    for got in rep.band_correlation:
        assert got == pytest.approx(2.0 / math.pi, rel=0.02)


def test_determinism_bit_identical_reports():
    cfg = SimConfig(size=256, plan=SHAPED_PLAN, dac=ONE_BIT, trials=5, seed=77)
    a = json_text(run_tx_trials(cfg))
    b = json_text(run_tx_trials(cfg))
    assert a == b
    c = run_tx_trials(SimConfig(size=256, plan=SHAPED_PLAN, dac=ONE_BIT, trials=5, seed=78))
    assert a != json_text(c)


def test_chain_trials_digest_pins_the_awgn_draws():
    # the channel noise is drawn from each trial's stream after the transform
    # and the symbols; the report's bytes pin that order, and the tx and fft
    # runs pin the symbol draws alone and without a transform draw
    cfg = SimConfig(
        size=64, plan=SubbandPlan((0.5, 0.5), (1.5, 0.5)),
        dac=QuantizerSpec.uniform_midrise(2, 1.8), noise_power=0.3,
        adc=QuantizerSpec.uniform_midrise(3, 2.6), trials=3, seed=21,
    )
    fft = replace(cfg, transform="fft", assignment="interleaved", dac=QuantizerSpec.identity())
    digests = [
        hashlib.sha256(json_text(rep).encode()).hexdigest()
        for rep in (run_chain_trials(cfg), run_tx_trials(cfg), run_chain_trials(fft))
    ]
    assert digests == [
        "f9e3f2019cde0960e75e191e4d7d9ea2184559045d7a6aae9512fbba4523bdf8",
        "85cb37582d3a547348a8fe3539d7266ebadcead0d9452b96d5c87dddfd95d5f1",
        "ddb5c5273f3e0c40c16f29c5adf2f680854718bb2895122b944685ed7ddfa06a",
    ]


def test_a_zero_power_band_of_a_noiseless_chain_predicts_zero_correlation():
    # the predicted correlation is 0/0 there; its limit as the noise -> 0 is 0,
    # which is also what the measured correlation reports
    cfg = SimConfig(size=64, plan=SubbandPlan((0.5, 0.5), (2.0, 0.0)),
                    dac=QuantizerSpec.identity(), trials=2, seed=4)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = run_chain_trials(cfg)
    assert rep.predicted_band_correlation == (1.0, 0.0)
    assert rep.band_correlation[1] == 0.0


@pytest.mark.parametrize("noise_power", [-0.1, math.nan])
def test_sim_config_rejects_a_negative_or_nan_noise_power(noise_power):
    with pytest.raises(ValueError, match="noise_power"):
        SimConfig(size=64, plan=SHAPED_PLAN, dac=ONE_BIT, noise_power=noise_power)


@pytest.mark.parametrize("call, message", [
    (lambda: HaarFrames(0, substream(0, "trial", 0)), "n must be >= 1"),
    (lambda: subband_assignment((0.5, 0.5), 16, "random"), "unknown assignment layout"),
    (lambda: SimConfig(size=64, plan=SHAPED_PLAN, dac=ONE_BIT, trials=0), "trials must be >= 1"),
], ids=["empty_chain", "unknown_layout", "no_trials"])
def test_an_invalid_size_layout_or_trial_count_is_a_value_error(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_kurtosis_of_a_constant_vector_is_zero():
    v = np.full(16, 2.5)
    assert _kurtosis(v - v.mean()) == 0.0


def _exact_corr(a, b):
    """<a, b> / (|a| |b|) with each sum taken by ``math.fsum``."""
    a, b = np.asarray(a, complex), np.asarray(b, complex)

    def fsum(*terms):
        return math.fsum(np.concatenate(terms).tolist())

    ab = complex(fsum(a.real * b.real, a.imag * b.imag), fsum(a.real * b.imag, -a.imag * b.real))
    return ab / (math.sqrt(fsum(a.real**2, a.imag**2)) * math.sqrt(fsum(b.real**2, b.imag**2)))


@pytest.mark.parametrize("rails", [False, True], ids=["complex", "strided_rails"])
def test_corr_matches_an_exact_sum(rails):
    # a correlation is at most 1 in modulus; einsum's sums came within
    # 7.3e-16 of the fsum oracle up to 65,537 entries
    rng = substream(9, "corr")
    z = complex_normal(rng, 1.0, 16384)
    w = 0.3 * z + complex_normal(rng, 1.0, 16384)
    c = w - w.mean()
    a, b = (c.real, c.imag) if rails else (z, w)
    assert abs(complex(_corr(a, b)) - _exact_corr(a, b)) <= 1e-14


def test_corr_with_a_zero_vector_is_zero():
    z = complex_normal(substream(9, "corr"), 1.0, 64)
    for a, b in ((np.zeros(64, complex), z), (z, np.zeros(64, complex)), (z.real, np.zeros(64))):
        assert _corr(a, b) == 0.0


def test_a_one_sample_run_reports_zero_rail_statistics():
    # one noise sample: both rails have zero variance, so the kurtosis and
    # the I/Q correlation are 0 by the zero-variance rule, with no warning
    cfg = SimConfig(size=1, plan=SubbandPlan((1.0,), (1.0,)), dac=ONE_BIT, trials=1, seed=3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        d = run_tx_trials(cfg).noise_diagnostics
    assert (d["excess_kurtosis_re"], d["excess_kurtosis_im"], d["iq_correlation"]) == (0.0, 0.0, 0.0)


def _replayed_trials(cfg):
    """Each trial's symbols z, receiver output z_hat and demodulated DAC output,
    drawn again from its stream in a run's order."""
    n = cfg.size
    assign = subband_assignment(cfg.plan.fractions, n, cfg.assignment)
    ideal_rx = cfg.noise_power == 0.0 and cfg.adc.is_identity
    out = []
    for t in range(cfg.trials):
        rng = substream(cfg.seed, "trial", t)
        modulate, demodulate = TRANSFORMS[cfg.transform](n, rng)
        z = complex_normal(rng, np.asarray(cfg.plan.powers)[assign], n)
        x = quantize(cfg.dac, modulate(z))
        r = demodulate(x)
        y = add_awgn(x, cfg.noise_power, rng)
        out.append((z, r if ideal_rx else demodulate(quantize(cfg.adc, y)), r))
    return assign, out


ORACLE_CASES = {
    # a zero-power band, a 2-bit DAC, AWGN and a 3-bit ADC
    "quantized": dict(plan=SubbandPlan((0.3, 0.45, 0.25), (0.5, 1.8, 0.0)),
                      dac=QuantizerSpec.uniform_midrise(2, 1.8), noise_power=0.3,
                      adc=QuantizerSpec.uniform_midrise(3, 2.6)),
    # a noiseless identity chain, also with a zero-power band
    "identity": dict(plan=SubbandPlan((0.5, 0.25, 0.25), (1.5, 1.0, 0.0)),
                     dac=QuantizerSpec.identity()),
}


@pytest.mark.parametrize("case", sorted(ORACLE_CASES))
@pytest.mark.parametrize("layout", ["contiguous", "interleaved"])
@pytest.mark.parametrize("runner", [run_tx_trials, run_chain_trials], ids=lambda f: f.__name__)
def test_diagnostics_and_band_correlations_match_their_textbook_estimators(runner, layout, case):
    cfg = SimConfig(size=96, trials=3, seed=8, assignment=layout, **ORACLE_CASES[case])
    if runner is run_tx_trials:
        cfg = replace(cfg, noise_power=0.0, adc=QuantizerSpec.identity())
    rep = runner(cfg)
    assign, trials = _replayed_trials(cfg)
    # the replay draws what the run drew: its band energies are the run's bits
    for row, (_, _, r) in zip(rep.trial_band_energy, trials):
        assert _hex(row) == _hex(np.bincount(assign, weights=np.abs(r) ** 2, minlength=3) / cfg.size)

    gain = chain_moments(cfg.dac, cfg.noise_power, cfg.adc, cfg.plan.mean_power).gain
    z = np.concatenate([zt for zt, _, _ in trials])
    w = np.concatenate([zh - gain * zt for zt, zh, _ in trials])
    d = rep.noise_diagnostics
    if case == "identity":
        assert np.max(np.abs(w)) <= 1e-9 * np.max(np.abs(z))
        assert set(d.values()) == {0.0}
    else:
        want = {
            "excess_kurtosis_re": scipy.stats.kurtosis(w.real, fisher=True, bias=True),
            "excess_kurtosis_im": scipy.stats.kurtosis(w.imag, fisher=True, bias=True),
            "iq_correlation": np.corrcoef(w.real, w.imag)[0, 1],
            "z_w_correlation": abs(np.vdot(z, w)) / (np.linalg.norm(z) * np.linalg.norm(w)),
        }
        for name, value in want.items():
            assert d[name] == pytest.approx(value, abs=1e-12), name

    if runner is run_tx_trials:
        assert rep.band_correlation is None
        return
    rho = np.zeros((cfg.trials, 3))
    for t, (zt, zh, _) in enumerate(trials):
        for b in range(3):
            sel = assign == b
            den = np.vdot(zt[sel], zt[sel]).real * np.vdot(zh[sel], zh[sel]).real
            if den > 0.0:
                rho[t, b] = abs(np.vdot(zt[sel], zh[sel])) ** 2 / den
    np.testing.assert_allclose(rep.band_correlation, rho.mean(axis=0), rtol=0, atol=1e-12)
    assert rep.band_correlation[2] == 0.0  # the zero-power band
    if case == "identity":
        np.testing.assert_allclose(rep.band_correlation[:2], 1.0, rtol=0, atol=1e-12)
