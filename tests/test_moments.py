import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.stats import norm

from qlt import (
    AgnMoments,
    MonteCarlo,
    NumericalFailureError,
    QuantizerSpec,
    chain_moments,
    clip_for_power,
    quantize,
    tx_moments,
)
from qlt.moments import _stderr, _stein_sum, _threshold_sums

ONE_BIT_GAIN = 2.0 / math.sqrt(math.pi)
ONE_BIT_NOISE = 2.0 - 4.0 / math.pi


def mc_oracle_tx(bits, clip, pbar, n, seed):
    """Independent sampling oracle: quantization reimplemented from scratch."""
    rng = np.random.default_rng(seed)
    sigma = math.sqrt(pbar / 2.0)
    u = sigma * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
    nlev = 2**bits
    step = 2.0 * clip / (nlev - 1)

    def q(v):
        return -clip + np.clip(np.round((v + clip) / step), 0, nlev - 1) * step

    x = q(u.real) + 1j * q(u.imag)
    gain = float(np.mean((np.conj(x) * u).real)) / pbar
    noise = float(np.mean(np.abs(x - gain * u) ** 2)) / pbar
    return gain, noise


def test_identity_moments():
    m = tx_moments(QuantizerSpec.identity(), 1.0)
    assert m.gain == 1.0 and m.noise == 0.0


def test_one_bit_closed_form():
    m = tx_moments(QuantizerSpec.uniform_midrise(1, 1.0), 1.0)
    assert m.gain == pytest.approx(ONE_BIT_GAIN, abs=1e-12)
    assert m.noise == pytest.approx(ONE_BIT_NOISE, abs=1e-12)
    assert isinstance(m.gain, float)


def test_three_bit_against_sampling_oracle():
    m = tx_moments(QuantizerSpec.uniform_midrise(3, 2.6), 1.0)
    g, t = mc_oracle_tx(3, 2.6, 1.0, 10**7, seed=11)
    # three significant digits against the independent oracle
    assert m.gain == pytest.approx(g, rel=2e-3)
    assert m.noise == pytest.approx(t, rel=2e-3)


def test_deterministic_path_against_adaptive_quadrature():
    # cell sums cross-checked by generic adaptive integration per level cell
    q = QuantizerSpec.uniform_midrise(3, 2.6)
    sigma = math.sqrt(0.5)
    levels = q.levels_per_dim()
    thr = np.concatenate(([-12 * sigma], q.thresholds_per_dim(), [12 * sigma]))
    exu = sum(
        quad(lambda x, l=l: l * x * norm.pdf(x, scale=sigma), a, b, limit=200)[0]
        for l, a, b in zip(levels, thr[:-1], thr[1:])
    )
    eq2 = sum(
        quad(lambda x, l=l: l * l * norm.pdf(x, scale=sigma), a, b, limit=200)[0]
        for l, a, b in zip(levels, thr[:-1], thr[1:])
    )
    m = tx_moments(q, 1.0)
    assert m.gain == pytest.approx(2 * exu, abs=1e-9)
    assert m.noise == pytest.approx(2 * eq2 - (2 * exu) ** 2, abs=1e-9)


@pytest.mark.parametrize("bits,clip", [(1, 1.0), (2, 1.8), (3, 2.6)])
def test_quadrature_vs_montecarlo_within_3_sigma(bits, clip):
    q = QuantizerSpec.uniform_midrise(bits, clip)
    exact = tx_moments(q, 1.0)
    mc = tx_moments(q, 1.0, MonteCarlo(samples=400_000, seed=5))
    assert abs(mc.gain - exact.gain) < 3 * mc.gain_stderr
    assert abs(mc.noise - exact.noise) < 3 * mc.noise_stderr


def _cell_oracle(levels, thresholds, mean, sigma):
    """(E[q(Y)], E[q(Y)^2], E[(Y - mean) q(Y)]) for Y ~ N(mean, sigma^2) and
    the quantizer with ``levels`` on the cells between ``thresholds``, summed
    over the cells with math.fsum.  A cell's probability is a difference of
    norm.cdf values below the mean and of norm.sf values above it, so it is
    never the difference of two numbers near 1."""
    levels = np.asarray(levels, dtype=float)
    z = (np.concatenate(([-np.inf], thresholds, [np.inf])) - mean) / sigma
    lo, hi = z[:-1], z[1:]
    prob = np.where(lo >= 0, norm.sf(lo) - norm.sf(hi), norm.cdf(hi) - norm.cdf(lo))
    first = sigma * (norm.pdf(lo) - norm.pdf(hi))
    return math.fsum(levels * prob), math.fsum(levels**2 * prob), math.fsum(levels * first)


def test_energy_identity():
    # E|Q(U)|^2 = (gain^2 + noise) * pbar, checked against direct cell sums
    for bits, clip, pbar in [(1, 1.0, 1.0), (3, 2.6, 1.0), (4, 3.0, 2.5)]:
        q = QuantizerSpec.uniform_midrise(bits, clip)
        m = tx_moments(q, pbar)
        _, eq2, _ = _cell_oracle(q.levels_per_dim(), q.thresholds_per_dim(), 0.0, math.sqrt(pbar / 2.0))
        assert (abs(m.gain) ** 2 + m.noise) * pbar == pytest.approx(2.0 * eq2, rel=1e-8)


def _cell_energy(levels, pbar):
    """E|S|^2 of a quantizer with the given per-dimension levels at CN(0, pbar)
    input: decision thresholds at the level midpoints, Gaussian cell sums."""
    levels = np.asarray(levels, dtype=float)
    thr = (levels[:-1] + levels[1:]) / 2.0
    return 2.0 * _cell_oracle(levels, thr, 0.0, math.sqrt(pbar / 2.0))[1]


def _midrise_levels(bits, clip):
    m = 2**bits
    return [clip * (2 * k + 1 - m) / (m - 1) for k in range(m)]


_quantizers = st.one_of(
    st.builds(
        lambda bits, clip: (QuantizerSpec.uniform_midrise(bits, clip), _midrise_levels(bits, clip)),
        st.integers(1, 8),
        st.floats(0.05, 20.0),
    ),
    st.lists(st.floats(-5.0, 5.0), min_size=1, max_size=12, unique=True).map(
        lambda lv: (QuantizerSpec.custom_levels(sorted(lv)), sorted(lv))
    ),
)


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(quantizer=_quantizers, pbar=st.floats(1e-3, 1e3), noise_power=st.floats(0.0, 1e3))
def test_energy_identity_holds_for_generated_quantizers_and_powers(quantizer, pbar, noise_power):
    # the fixed cases of test_energy_identity, over midrise (1-8 bits) and
    # custom-level quantizers at any power; behind an ideal ADC the channel
    # noise adds its power to E|S|^2
    q, levels = quantizer
    energy = _cell_energy(levels, pbar)
    m = tx_moments(q, pbar)
    assert (m.gain**2 + m.noise) * pbar == pytest.approx(energy, rel=1e-8)
    c = chain_moments(q, noise_power, QuantizerSpec.identity(), pbar)
    assert (c.gain**2 + c.noise) * pbar == pytest.approx(energy + noise_power, rel=1e-8)


def test_orthogonality_residual():
    # E[(Q - gain U)* U] = E[Q* U] - gain * pbar must vanish; evaluate the
    # cross term with the cell-sum oracle and, independently, by sampling
    q = QuantizerSpec.uniform_midrise(2, 1.8)
    for pbar in (1.0, 3.7):
        m = tx_moments(q, pbar)
        _, _, exu = _cell_oracle(q.levels_per_dim(), q.thresholds_per_dim(), 0.0, math.sqrt(pbar / 2.0))
        assert abs(2.0 * exu - m.gain * pbar) < 1e-8 * pbar

    exact = tx_moments(q, 1.0)
    rng = np.random.default_rng(3)
    n = 10**6
    sigma = math.sqrt(0.5)
    u = sigma * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
    x = np.asarray(quantize(q, u))
    resid = np.mean(np.conj(x - exact.gain * u) * u)
    assert abs(resid) < 5e-3  # ~3 sigma of the sampling noise


def _kernel_quantizer(bits, kappa, warp):
    """A ``bits``-bit midrise quantizer loaded at ``kappa`` for unit power, or,
    with ``warp = (w, shift)``, the custom level set ``l + w l^3 / clip^2 +
    shift * clip`` over its levels l: spacings that widen outwards, off
    centre."""
    q = QuantizerSpec.midrise_for_power(bits, 1.0, kappa)
    if warp is None:
        return q
    (w, shift), lv, clip = warp, q.levels_per_dim(), q.clip
    return QuantizerSpec.custom_levels(lv + w * lv**3 / clip**2 + shift * clip)


@settings(derandomize=True, database=None, max_examples=80, deadline=None)
@given(
    q=st.builds(
        _kernel_quantizer,
        st.integers(1, 12),
        st.floats(0.5, 6.0),
        st.one_of(st.none(), st.tuples(st.floats(0.0, 2.0), st.floats(-0.5, 0.5))),
    ),
    sigma_n=st.floats(1e-4, 2.0),
    at=st.integers(0, 2**12),
)
@example(q=_kernel_quantizer(12, 6.0, None), sigma_n=1e-4, at=2047)
@example(q=_kernel_quantizer(12, 0.5, None), sigma_n=2.0, at=4000)
@example(q=_kernel_quantizer(11, 3.0, (2.0, 0.5)), sigma_n=1e-3, at=5)
def test_threshold_sums_match_the_cell_oracle(q, sigma_n, at):
    # the tx moments' E[X q(X)] and E[q(X)^2] at X ~ N(0, 1/2), and the noisy
    # response E[q(m + N)], E[q(m + N)^2] at means on a threshold, one ulp
    # either side of it and off it
    lv, thr = q.levels_per_dim(), q.thresholds_per_dim()
    sigma = math.sqrt(0.5)
    _, eq2, exq = _cell_oracle(lv, thr, 0.0, sigma)
    assert _stein_sum(lv, thr, sigma) == pytest.approx(exq, rel=1e-13)
    assert _threshold_sums(lv, thr, np.zeros(1), sigma)[1][0] == pytest.approx(eq2, rel=1e-13)
    t = thr[at % thr.size]
    means = np.array([t, np.nextafter(t, -np.inf), np.nextafter(t, np.inf), t + 0.3 * sigma_n, t - 2.1 * sigma_n])
    first, second = _threshold_sums(lv, thr, means, sigma_n)
    for m, e1, e2 in zip(means, first, second):
        o1, o2, _ = _cell_oracle(lv, thr, m, sigma_n)
        assert e2 == pytest.approx(o2, rel=1e-13)
        # E[q] may be near 0 by symmetry; it is held to the rms level
        assert e1 == pytest.approx(o1, rel=1e-13, abs=1e-13 * math.sqrt(o2))


def test_an_11_bit_chain_holds_one_threshold_table():
    # the ADC's response to each DAC level plus noise is one float table of
    # (DAC levels) x (ADC thresholds) tails, weighted and summed in place
    q = QuantizerSpec.uniform_midrise(11, 2.1)
    table_bytes = 8 * 2**11 * (2**11 - 1)
    tracemalloc.start()
    try:
        chain_moments(q, 0.01, q, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * table_bytes


def test_scale_covariance():
    m1 = tx_moments(QuantizerSpec.uniform_midrise(3, 2.6), 1.0)
    m2 = tx_moments(QuantizerSpec.uniform_midrise(3, 5.2), 4.0)
    assert m1.gain == pytest.approx(m2.gain, abs=1e-12)
    assert m1.noise == pytest.approx(m2.noise, abs=1e-12)


def test_chain_identity_awgn_identity():
    m = chain_moments(QuantizerSpec.identity(), 0.7, QuantizerSpec.identity(), 2.0)
    assert m.gain == pytest.approx(1.0)
    assert m.noise == pytest.approx(0.35)


def test_chain_awgn_shortcut_matches_tx_moments():
    # quantized DAC + AWGN + ideal ADC reduces to the tx moments with the
    # channel noise folded in
    for bits in range(1, 7):
        q = QuantizerSpec.uniform_midrise(bits, 0.8 * bits)
        base = tx_moments(q, 1.0)
        for s2 in (0.1, 1.0, 10.0):
            m = chain_moments(q, s2, QuantizerSpec.identity(), 1.0)
            assert abs(m.gain - base.gain) < 1e-6
            assert abs(m.noise - (base.noise + s2)) < 1e-6


def test_chain_one_bit_requantization_is_idempotent():
    q = QuantizerSpec.uniform_midrise(1, 1.0)
    m = chain_moments(q, 0.0, q, 1.0)
    assert m.gain == pytest.approx(ONE_BIT_GAIN, abs=1e-12)
    assert m.noise == pytest.approx(ONE_BIT_NOISE, abs=1e-12)


@pytest.mark.parametrize(
    "qtx,qrx,s2",
    [
        (QuantizerSpec.uniform_midrise(2, 1.8), QuantizerSpec.uniform_midrise(3, 2.6), 0.5),
        (QuantizerSpec.identity(), QuantizerSpec.uniform_midrise(2, 1.8), 0.8),
        (QuantizerSpec.uniform_midrise(3, 2.6), QuantizerSpec.identity(), 0.3),
        (QuantizerSpec.custom_levels([-2.0, -0.5, 0.7, 2.2]), QuantizerSpec.uniform_midrise(2, 2.0), 0.4),
    ],
)
def test_chain_exact_vs_montecarlo(qtx, qrx, s2):
    exact = chain_moments(qtx, s2, qrx, 1.0)
    mc = chain_moments(qtx, s2, qrx, 1.0, MonteCarlo(samples=400_000, seed=9))
    assert abs(mc.gain - exact.gain) < 4 * mc.gain_stderr
    assert abs(mc.noise - exact.noise) < 4 * mc.noise_stderr


def test_monte_carlo_chain_gain_is_real():
    # the imaginary part of the sampled cross moment is sampling noise of an
    # I/Q-symmetric chain; here it sits beyond 3 standard errors of zero, and
    # reporting it as a complex gain was a false positive
    q = QuantizerSpec.uniform_midrise(2, 2.044042)
    exact = chain_moments(q, 0.0539, QuantizerSpec.identity(), 1.581)
    mc = chain_moments(
        q, 0.0539, QuantizerSpec.identity(), 1.581, MonteCarlo(samples=20000, seed=726327979)
    )
    assert isinstance(exact.gain, float) and isinstance(mc.gain, float)
    assert abs(mc.gain - exact.gain) < 4 * mc.gain_stderr


_GRID_QUANTIZERS = [
    QuantizerSpec.identity(),
    QuantizerSpec.custom_levels([0.7]),
    QuantizerSpec.custom_levels([-1.3, -0.2, 0.4, 1.1]),
    *(QuantizerSpec.uniform_midrise(b, c) for b in range(1, 9) for c in (0.5, 1.0, 2.0, 4.0)),
]


@pytest.mark.parametrize("pbar", [0.1, 1.0, 1.581, 7.0])
def test_tx_moments_are_the_noiseless_ideal_adc_chain_moments(pbar):
    # one chain on both paths: the exact sums, and the sampled draws at two seeds
    sampled = ("gain", "noise", "gain_stderr", "noise_stderr")
    for method, fields in [(None, ("gain", "noise")),
                           (MonteCarlo(samples=1000, seed=11), sampled),
                           (MonteCarlo(samples=1000, seed=12), sampled)]:
        for q in _GRID_QUANTIZERS:
            tx = tx_moments(q, pbar, method)
            chain = chain_moments(q, 0.0, QuantizerSpec.identity(), pbar, method)
            assert ([getattr(tx, f).hex() for f in fields]
                    == [getattr(chain, f).hex() for f in fields]), (method, q)


_MC_CUSTOM = QuantizerSpec.custom_levels([-1.3, -0.2, 0.4, 1.1])


@pytest.mark.parametrize("moments, expected", [
    (lambda: tx_moments(QuantizerSpec.uniform_midrise(2, 1.0), 1.0,
                        MonteCarlo(samples=4000, seed=7)),
     ("0x1.b0b3bc4fd684cp-1", "0x1.94a5fd7ded881p-4",
      "0x1.602a675d93c94p-7", "0x1.bdc84d4d2b846p-10")),
    (lambda: tx_moments(_MC_CUSTOM, 2.5, MonteCarlo(samples=1000, seed=11)),
     ("0x1.8518fc3468b68p-1", "0x1.917cf10dc30fep-4",
      "0x1.189111b46d31cp-6", "0x1.13bad0799ba5bp-8")),
    (lambda: chain_moments(QuantizerSpec.uniform_midrise(2, 1.0), 0.3,
                           QuantizerSpec.uniform_midrise(3, 1.5), 1.0,
                           MonteCarlo(samples=4000, seed=7)),
     ("0x1.a9542620a6854p-1", "0x1.a987e98fe68d9p-2",
      "0x1.8b4399c879e95p-7", "0x1.a1fdf00784e49p-8")),
    (lambda: chain_moments(QuantizerSpec.identity(), 0.05, QuantizerSpec.uniform_midrise(1, 1.0),
                           2.5, MonteCarlo(samples=1000, seed=11)),
     ("0x1.77a48cbab9b63p-1", "0x1.2cbc67ddf7b9ep-2",
      "0x1.9d84457dac87ep-7", "0x1.b86d3136681abp-8")),
], ids=["tx-midrise", "tx-custom", "chain-midrise", "chain-identity-dac"])
def test_monte_carlo_moments_pin_their_streams(moments, expected):
    # every sampled chain, tx_moments' noiseless ideal-ADC one too, draws from
    # the substream "chain", the inputs before the channel noise; these bits
    # pin it
    m = moments()
    assert (m.gain.hex(), m.noise.hex(), m.gain_stderr.hex(), m.noise_stderr.hex()) == expected


@pytest.mark.parametrize("noise_power", [-0.1, -1e-300, math.nan])
def test_chain_rejects_a_negative_or_nan_noise_power(noise_power):
    q = QuantizerSpec.uniform_midrise(2, 1.8)
    for method in (None, MonteCarlo(samples=1000)):
        with pytest.raises(ValueError, match="noise_power"):
            chain_moments(q, noise_power, q, 1.0, method)


_QUANTIZERS = st.one_of(
    st.just(QuantizerSpec.identity()),
    st.builds(
        QuantizerSpec.uniform_midrise,
        st.integers(1, 4),
        st.floats(0.5, 3.0),
    ),
    st.lists(st.floats(-3.0, 3.0), min_size=2, max_size=6, unique=True)
    .map(sorted)
    .map(QuantizerSpec.custom_levels),
)


@settings(derandomize=True, database=None, max_examples=15, deadline=None)
@given(qtx=_QUANTIZERS, qrx=_QUANTIZERS, noise_power=st.floats(0.0, 2.0))
def test_chain_exact_gain_is_real_and_matches_sampling(qtx, qrx, noise_power):
    exact = chain_moments(qtx, noise_power, qrx, 1.0)
    assert isinstance(exact.gain, float)
    mc = chain_moments(qtx, noise_power, qrx, 1.0, MonteCarlo(samples=100_000, seed=3))
    assert abs(mc.gain - exact.gain) <= 4 * mc.gain_stderr
    if exact.noise > 0:  # a noiseless identity chain leaves only the O(1/n) gain bias
        assert abs(mc.noise - exact.noise) <= 4 * mc.noise_stderr


def test_pathological_levels_fail_loudly():
    q = QuantizerSpec.custom_levels([-1e300, 1e300])
    with pytest.raises(NumericalFailureError):
        tx_moments(q, 1.0)


def test_invalid_power_rejected():
    with pytest.raises(ValueError):
        tx_moments(QuantizerSpec.identity(), 0.0)
    # the exact path divides by the per-dimension variance pbar / 2
    with pytest.raises(ValueError, match="pbar 5e-324 underflows its per-dimension variance"):
        tx_moments(QuantizerSpec.uniform_midrise(3, 1.5), 5e-324)
    with pytest.raises(NumericalFailureError):
        AgnMoments(gain=1.0, noise=-1.0, input_power=1.0)


def test_a_nan_power_is_rejected_like_a_zero_one():
    # NaN fails "<= 0" too, so the checks are written "not > 0"
    with pytest.raises(ValueError, match="^pbar must be > 0, not nan$"):
        tx_moments(QuantizerSpec.uniform_midrise(2, 1.8), math.nan)
    with pytest.raises(ValueError, match="^power must be > 0, not nan$"):
        clip_for_power(math.nan)


@pytest.mark.parametrize("kappa", [-1.0, 0.0, math.nan])
def test_a_loading_factor_that_is_not_positive_is_refused_by_name(kappa):
    # it once reached the spec as a clip of kappa sigmas, refused as a clip
    # the caller never gave
    with pytest.raises(ValueError, match=f"^kappa must be > 0, not {kappa}$"):
        QuantizerSpec.midrise_for_power(3, 1.0, kappa)


@pytest.mark.parametrize("noise_power", [-1.0, math.nan])
def test_a_negative_or_nan_noise_power_is_refused_with_its_value(noise_power):
    with pytest.raises(ValueError, match=f"^noise_power must be >= 0, not {noise_power}$"):
        chain_moments(QuantizerSpec.uniform_midrise(2, 1.8), noise_power,
                      QuantizerSpec.identity(), 1.0)


def test_the_standard_error_is_np_std_where_its_squares_stay_finite():
    rng = np.random.default_rng(2)
    for x in (rng.standard_normal(1000), 7.5 * rng.random(999), np.zeros(10), np.full(3, -2.0)):
        assert _stderr(x) == float(np.std(x) / np.sqrt(x.size))
    # past about 1e154 the unscaled squares overflow; the scaled ones do not
    big = 1e300 * rng.random(1000)
    assert _stderr(big) == pytest.approx(1e300 * _stderr(big / 1e300), rel=1e-14)


@pytest.mark.parametrize("samples", [0, -5])
def test_a_monte_carlo_method_without_samples_is_refused_by_name(samples):
    # no sample at all once gave a mean of an empty slice (a RuntimeWarning,
    # then NaN moments); a negative count, numpy's bare "negative dimensions"
    with pytest.raises(ValueError, match=f"samples must be >= 1, not {samples}"):
        MonteCarlo(samples=samples)


def test_monte_carlo_moments_overflow_is_a_numerical_failure():
    # the squared residual overflows; that is reported as the failure it is,
    # with no RuntimeWarning (an error under the suite's filter)
    q = QuantizerSpec.custom_levels([-1e200, 1e200])
    with pytest.raises(NumericalFailureError):
        tx_moments(q, 1.0, MonteCarlo(samples=1000))


def test_monte_carlo_standard_errors_stay_finite_at_a_large_pbar():
    # the draws scale with sqrt(pbar), so each moment and standard error is
    # the unit-power run's up to rounding; the squares of the unscaled terms
    # would overflow at this pbar
    big, unit = (tx_moments(QuantizerSpec.identity(), p, MonteCarlo(samples=1000, seed=3))
                 for p in (1e300, 1.0))
    for name in ("gain", "noise", "gain_stderr", "noise_stderr"):
        assert getattr(big, name) == pytest.approx(getattr(unit, name), rel=1e-9)


def test_a_method_that_is_neither_quadrature_nor_monte_carlo_is_a_type_error():
    with pytest.raises(TypeError, match=r"method must be None \(exact\) or a MonteCarlo"):
        tx_moments(QuantizerSpec.uniform_midrise(2, 1.8), 1.0, "exact")


def test_a_round_off_negative_noise_reads_zero():
    assert AgnMoments(1.0, -1e-15, 1.0).noise == 0.0
