import gc
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qlt import (
    AgnMoments,
    ContractError,
    FeasibilityError,
    InfiniteRateError,
    NumericalFailureError,
    QuantizerSpec,
    SubbandPlan,
    awgn_linear_rate,
    awgn_rate_at_transmit_snr,
    constellation_of,
    feasible_fractions,
    kl_divergence,
    linear_rate,
    noise_free_rate,
    noise_free_rates,
    powers_from_fractions,
    predict_spectrum,
    rate_upper_bound,
    share_floor,
    subband_assignment,
    tx_moments,
    upper_bound_rates,
)
from qlt.analysis import FEASIBILITY_SLACK

ONE_BIT = QuantizerSpec.uniform_midrise(1, 1.0)
FLAT_ONE_BIT_BITS = math.log2(1.0 + 2.0 / (math.pi - 2.0))  # ~1.46045


def one_bit_moments(pbar=1.0):
    return tx_moments(ONE_BIT, pbar)


def random_feasible_share(rng, m, nbands):
    fr = rng.dirichlet(np.ones(nbands) * 3.0)
    floor = share_floor(fr, m)
    slack = 1.0 - floor.sum()
    extra = rng.dirichlet(np.ones(nbands))
    return fr, floor + slack * extra


def test_plan_validation():
    plan = SubbandPlan((0.5, 0.5), (2.0, 0.0))
    assert plan.mean_power == 1.0
    with pytest.raises(ValueError):
        SubbandPlan((0.5, 0.4), (1.0, 1.0))
    with pytest.raises(ValueError):
        SubbandPlan((0.5, 0.5), (0.0, 0.0))
    with pytest.raises(ValueError):
        SubbandPlan((1.0,), (-1.0,))


@pytest.mark.parametrize("fractions", [(math.nan, 0.5), (0.5, math.nan), (math.nan, math.nan)])
def test_plan_rejects_a_nan_fraction(fractions):
    # NaN fails every comparison, so the checks must be written to fail on it
    with pytest.raises(ValueError):
        SubbandPlan(fractions, (1.0, 1.0))


@pytest.mark.parametrize("power", [math.nan, math.inf])
def test_plan_rejects_a_non_finite_power(power):
    # NaN passes a "< 0" test and an infinite power makes an infinite mean
    with pytest.raises(ValueError, match="powers must be finite and non-negative"):
        SubbandPlan((0.5, 0.5), (power, 1.0))


# every public function that takes bandwidth fractions, called with valid
# other arguments as wide as the fractions (band energies: the shares times
# the one-bit set's energy, 2)
_M1, _CSET1 = one_bit_moments(), constellation_of(ONE_BIT)
_FRACTION_TAKERS = {
    "SubbandPlan": lambda fr, ok: SubbandPlan(fr, ok),
    "subband_assignment": lambda fr, ok: subband_assignment(fr, 16),
    "share_floor": lambda fr, ok: share_floor(fr, _M1),
    "feasible_fractions": lambda fr, ok: feasible_fractions(fr, _M1, ok),
    "powers_from_fractions": lambda fr, ok: powers_from_fractions(fr, _M1, 1.0, ok),
    "noise_free_rate": lambda fr, ok: noise_free_rate(fr, _M1, ok),
    "noise_free_rates": lambda fr, ok: noise_free_rates(fr, _M1, [ok]),
    "rate_upper_bound": lambda fr, ok: rate_upper_bound(_CSET1, np.multiply(ok, 2.0), fr),
    "upper_bound_rates": lambda fr, ok: upper_bound_rates(_CSET1, 2.0, [ok], fr),
}


@pytest.mark.parametrize("name", _FRACTION_TAKERS)
@pytest.mark.parametrize(
    "fractions",
    [(), (math.nan, 0.5), (0.5, math.nan), (0.5, 0.4), (1.5, -0.5), (1.0, 0.0), (0.5, 0.5 + 1e-10)],
)
def test_every_fraction_taker_holds_the_plan_rule(name, fractions):
    call = _FRACTION_TAKERS[name]
    call((0.5, 0.5), (0.5, 0.5))  # the same call with valid fractions goes through
    with pytest.raises(ValueError, match="bandwidth fractions"):
        call(fractions, (0.5,) * len(fractions))


def test_spectrum_identity():
    plan = SubbandPlan((0.25, 0.75), (4.0, 2.0))
    m = tx_moments(QuantizerSpec.identity(), plan.mean_power)
    rep = predict_spectrum(plan, m)
    np.testing.assert_allclose(rep.band_energy, [0.25 * 4.0, 0.75 * 2.0])
    assert rep.total_energy == pytest.approx(plan.mean_power)
    np.testing.assert_allclose(rep.min_share, [0.0, 0.0])


def test_spectrum_one_bit_shaped():
    plan = SubbandPlan((0.5, 0.5), (2.0, 0.0))
    rep = predict_spectrum(plan, one_bit_moments())
    g2 = 4.0 / math.pi
    tau = 2.0 - g2
    np.testing.assert_allclose(
        rep.band_energy, [0.5 * (2 * g2 + tau), 0.5 * tau], rtol=1e-12
    )
    assert rep.total_energy == pytest.approx(2.0, abs=1e-12)  # = E|Q|^2 = 2 c^2
    np.testing.assert_allclose(rep.band_share, [0.5 + 1 / math.pi, 0.5 - 1 / math.pi])
    # printed reference values
    np.testing.assert_allclose(rep.band_energy, [1.6366, 0.3634], atol=5e-5)


def test_spectrum_flat_allocation_shares_equal_fractions():
    plan = SubbandPlan((0.5, 0.5), (1.0, 1.0))
    rep = predict_spectrum(plan, one_bit_moments())
    np.testing.assert_allclose(rep.band_share, plan.fractions, rtol=1e-12)


def test_spectrum_conservation_random_plans():
    rng = np.random.default_rng(42)
    for _ in range(50):
        nb = rng.integers(2, 6)
        fr = rng.dirichlet(np.ones(nb))
        pw = rng.uniform(0, 3, nb)
        if fr @ pw <= 0:
            continue
        plan = SubbandPlan(tuple(fr), tuple(pw))
        m = tx_moments(QuantizerSpec.uniform_midrise(3, 2.6), plan.mean_power)
        rep = predict_spectrum(plan, m)
        assert sum(rep.band_energy) == pytest.approx(rep.total_energy, rel=1e-10)
        assert sum(rep.band_share) == pytest.approx(1.0, rel=1e-10)
        expected_total = (abs(m.gain) ** 2 + m.noise) * plan.mean_power
        assert rep.total_energy == pytest.approx(expected_total, rel=1e-12)


def test_power_mismatch_is_contract_error():
    plan = SubbandPlan((0.5, 0.5), (2.0, 0.0))
    with pytest.raises(ContractError):
        predict_spectrum(plan, one_bit_moments(pbar=2.0))


def test_feasibility_examples():
    m = one_bit_moments()
    assert feasible_fractions((0.5, 0.5), tx_moments(QuantizerSpec.identity(), 1.0), (0.9, 0.1))
    assert not feasible_fractions((0.5, 0.5), m, (0.9, 0.1))
    floor2 = 0.5 - 1.0 / math.pi  # one-bit per-band floor at fractions 1/2
    assert share_floor((0.5, 0.5), m)[1] == pytest.approx(floor2, abs=1e-12)
    assert feasible_fractions((0.5, 0.5), m, (0.5 + 1 / math.pi, 0.5 - 1 / math.pi))
    with pytest.raises(ValueError):
        feasible_fractions((0.5, 0.5), m, (0.7, 0.7))
    # a zero-output quantizer's share floor is 0/0: no share meets it
    m0 = tx_moments(QuantizerSpec.custom_levels([0.0]), 1.0)
    with np.errstate(invalid="ignore"):
        assert not feasible_fractions((0.5, 0.5), m0, (0.5, 0.5))


def test_a_share_exactly_the_slack_below_its_floor_is_feasible_and_one_ulp_less_is_not():
    m = tx_moments(QuantizerSpec.uniform_midrise(2, 1.0), 1.0)
    edge = share_floor((0.5, 0.5), m)[0] - FEASIBILITY_SLACK
    assert feasible_fractions((0.5, 0.5), m, (edge, 1.0 - edge))
    below = math.nextafter(edge, -math.inf)
    assert not feasible_fractions((0.5, 0.5), m, (below, 1.0 - below))


def test_powers_from_fractions_examples():
    m_id = tx_moments(QuantizerSpec.identity(), 1.0)
    np.testing.assert_allclose(
        powers_from_fractions((0.5, 0.5), m_id, 1.0, (0.5, 0.5)), [1.0, 1.0]
    )
    m = one_bit_moments()
    boundary = (0.5 + 1 / math.pi, 0.5 - 1 / math.pi)
    np.testing.assert_allclose(
        powers_from_fractions((0.5, 0.5), m, 1.0, boundary), [2.0, 0.0], atol=1e-12
    )
    np.testing.assert_allclose(
        powers_from_fractions((0.5, 0.5), m, 1.0, (0.5, 0.5)), [1.0, 1.0], atol=1e-12
    )
    with pytest.raises(FeasibilityError) as err:
        powers_from_fractions((0.5, 0.5), m, 1.0, (0.9, 0.1))
    assert err.value.floor == pytest.approx(0.5 - 1 / math.pi)


@pytest.mark.parametrize("pbar, error, message", [
    (-1.0, ValueError, r"^pbar must be > 0, not -1\.0$"),
    (math.nan, ValueError, r"^pbar must be > 0, not nan$"),
    (2.0, ContractError, r"^moments computed at input power 1\.0, plan has 2\.0$"),
])
def test_powers_from_fractions_checks_its_pbar(pbar, error, message):
    # these returned [-1, -1], [nan, nan] and [2, 2]: the powers of moments
    # computed at 1.0, scaled by a pbar they were not computed at
    with pytest.raises(error, match=message):
        powers_from_fractions((0.5, 0.5), one_bit_moments(), pbar, (0.5, 0.5))


@pytest.mark.parametrize("nu", [(math.nan, math.nan), (0.5, math.nan), (math.inf, -math.inf)])
def test_non_finite_shares_are_rejected(nu):
    m = one_bit_moments()
    for call in (
        lambda: noise_free_rate((0.5, 0.5), m, nu),
        lambda: powers_from_fractions((0.5, 0.5), m, 1.0, nu),
        lambda: feasible_fractions((0.5, 0.5), m, nu),
    ):
        with pytest.raises(ValueError, match="finite"):
            call()


def test_zero_output_quantizer_is_a_numerical_failure():
    # a single level at 0 gives gain 0 and noise 0: no power to share
    m0 = tx_moments(QuantizerSpec.custom_levels([0.0]), 1.0)
    assert (m0.gain, m0.noise) == (0.0, 0.0)
    with pytest.raises(NumericalFailureError, match="zero-output chain"):
        predict_spectrum(SubbandPlan((0.5, 0.5), (1.5, 0.5)), m0)
    with pytest.raises(NumericalFailureError, match="zero-output chain"):
        noise_free_rate((0.5, 0.5), m0, (0.5, 0.5))
    # the rates decide a chain without noise by the same rule
    plan = SubbandPlan((0.5, 0.5), (1.0, 1.0))
    with pytest.raises(NumericalFailureError, match="zero-output chain"):
        linear_rate(plan, m0)
    with pytest.raises(NumericalFailureError, match="zero-output chain"):
        awgn_linear_rate(plan, m0, 0.0)
    with pytest.raises(InfiniteRateError, match="noiseless identity chain"):
        noise_free_rate((0.5, 0.5), tx_moments(QuantizerSpec.identity(), 1.0), (0.5, 0.5))


def test_zero_gain_inversion_is_a_numerical_failure():
    m = AgnMoments(gain=0.0, noise=1.0, input_power=1.0)
    # with no signal gain every share sits on its floor, the fractions
    with pytest.raises(NumericalFailureError, match="zero-gain"):
        powers_from_fractions((0.25, 0.75), m, 1.0, (0.25, 0.75))


def test_share_round_trip():
    rng = np.random.default_rng(1)
    m = tx_moments(QuantizerSpec.uniform_midrise(2, 1.9), 1.0)
    for _ in range(100):
        fr, nu = random_feasible_share(rng, m, int(rng.integers(2, 5)))
        pw = powers_from_fractions(fr, m, 1.0, nu)
        plan = SubbandPlan(tuple(fr), tuple(pw))
        # powers were built so that mean_power is exactly the requested one
        assert plan.mean_power == pytest.approx(1.0, rel=1e-9)
        rep = predict_spectrum(plan, tx_moments(QuantizerSpec.uniform_midrise(2, 1.9), plan.mean_power))
        np.testing.assert_allclose(rep.band_share, nu, atol=1e-10)


@st.composite
def _feasible_target(draw):
    """A midrise DAC at a drawn power, its moments, fractions and a share
    vector on or above the share floor (integer weights, zeros included)."""
    pbar = draw(st.floats(0.01, 100.0))
    q = QuantizerSpec.midrise_for_power(draw(st.integers(1, 6)), pbar, draw(st.floats(0.5, 5.0)))
    m = tx_moments(q, pbar)
    parts = draw(st.lists(st.integers(1, 9), min_size=1, max_size=5))
    fr = tuple(p / sum(parts) for p in parts)
    split = st.lists(st.integers(0, 9), min_size=len(fr), max_size=len(fr)).filter(any)
    weights = np.array(draw(split))
    floor = share_floor(fr, m)
    return q, m, fr, tuple(floor + (1.0 - floor.sum()) * weights / weights.sum())


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(target=_feasible_target())
def test_share_round_trip_over_midrise_quantizers(target):
    _, m, fr, nu = target
    plan = SubbandPlan(fr, tuple(powers_from_fractions(fr, m, m.input_power, nu)))
    assert plan.mean_power == pytest.approx(m.input_power, rel=1e-9)
    np.testing.assert_allclose(predict_spectrum(plan, m).band_share, nu, atol=1e-10)


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(target=_feasible_target())
def test_upper_bound_dominates_the_noise_free_rate(target):
    q, m, fr, nu = target
    s_tot = (m.gain**2 + m.noise) * m.input_power
    upper = rate_upper_bound(constellation_of(q), [s * s_tot for s in nu], fr)
    assert upper.bits_per_symbol >= noise_free_rate(fr, m, nu).bits_per_symbol


def test_kl_divergence_values():
    assert kl_divergence((0.5, 0.5), (0.5, 0.5)) == 0.0
    expected = 0.5 * math.log2(0.5 / 0.9) + 0.5 * math.log2(0.5 / 0.1)
    assert kl_divergence((0.5, 0.5), (0.9, 0.1)) == pytest.approx(expected)
    assert expected == pytest.approx(0.73697, abs=5e-6)
    assert kl_divergence((1.0, 0.0), (0.5, 0.5)) == pytest.approx(1.0)
    assert kl_divergence((0.5, 0.5), (1.0, 0.0)) == math.inf
    with pytest.raises(ValueError):
        kl_divergence((0.5, 0.5), (0.6, 0.5))


def test_linear_rate_shannon():
    plan = SubbandPlan((1.0,), (1.0,))
    m = AgnMoments(gain=1.0, noise=0.25, input_power=1.0)  # sigma^2/pbar = 0.25
    rep = linear_rate(plan, m)
    assert rep.bits_per_symbol == pytest.approx(math.log2(1 + 4.0))
    assert rep.regime == "general_chain"


def test_linear_rate_infinite_for_noiseless_identity():
    plan = SubbandPlan((1.0,), (1.0,))
    with pytest.raises(InfiniteRateError):
        linear_rate(plan, AgnMoments(gain=1.0, noise=0.0, input_power=1.0))


def test_linear_rate_zero_band_contributes_nothing():
    plan = SubbandPlan((0.5, 0.5), (2.0, 0.0))
    m = AgnMoments(gain=1.0, noise=0.5, input_power=1.0)
    rep = linear_rate(plan, m)
    assert rep.band_bits[1] == 0.0
    assert rep.bits_per_symbol == pytest.approx(sum(rep.band_bits))


def test_awgn_rate_identity_unit_snr():
    plan = SubbandPlan((1.0,), (1.0,))
    m = tx_moments(QuantizerSpec.identity(), 1.0)
    assert awgn_linear_rate(plan, m, 1.0).bits_per_symbol == pytest.approx(1.0)


def test_awgn_rate_monotone_in_noise_and_power():
    plan = SubbandPlan((0.5, 0.5), (1.0, 1.0))
    m = one_bit_moments()
    rates = [
        awgn_linear_rate(plan, m, s2).bits_per_symbol
        for s2 in np.logspace(-2, 3, 30)
    ]
    assert all(a >= b - 1e-12 for a, b in zip(rates, rates[1:]))
    assert rates[-1] < 0.01  # vanishes as the channel noise blows up
    # growing any band power raises the rate when the clip tracks the input
    # power (fixed loading factor keeps the moments scale-covariant)
    def loaded_rate(powers, s2=0.5):
        plan_p = SubbandPlan((0.5, 0.5), powers)
        q = QuantizerSpec.uniform_midrise(1, 3.0 * math.sqrt(plan_p.mean_power / 2))
        return awgn_linear_rate(plan_p, tx_moments(q, plan_p.mean_power), s2).bits_per_symbol

    base = loaded_rate((1.0, 1.0))
    assert loaded_rate((1.5, 1.0)) > base
    assert loaded_rate((1.0, 1.5)) > base


def test_awgn_rate_overflowing_noise_is_a_numerical_failure():
    # noise_power / mean_power = 1e308 / 1e-10 overflows to inf
    plan = SubbandPlan((0.5, 0.5), (2e-10, 0.0))
    m = tx_moments(QuantizerSpec.identity(), plan.mean_power)
    with pytest.raises(NumericalFailureError):
        awgn_linear_rate(plan, m, 1e308)


@pytest.mark.parametrize("noise_power", [-1.0, math.nan])
def test_a_negative_or_nan_noise_power_is_refused_with_its_value(noise_power):
    plan = SubbandPlan((0.5, 0.5), (1.5, 0.5))
    with pytest.raises(ValueError, match=f"^noise_power must be >= 0, not {noise_power}$"):
        awgn_linear_rate(plan, tx_moments(ONE_BIT, plan.mean_power), noise_power)


@pytest.mark.parametrize("rate, message", [
    (awgn_linear_rate, "noise_power must be >= 0"),
    (awgn_rate_at_transmit_snr, "snr must be positive"),
], ids=["noise_power", "snr"])
def test_nan_noise_is_rejected_like_a_negative_one(rate, message):
    # as chain_moments and SimConfig reject a NaN noise power
    plan = SubbandPlan((0.5, 0.5), (1.5, 0.5))
    with pytest.raises(ValueError, match=message):
        rate(plan, one_bit_moments(), math.nan)


def test_one_bit_noise_free_flat_rate():
    plan = SubbandPlan((0.5, 0.5), (1.0, 1.0))
    m = one_bit_moments()
    rep = awgn_linear_rate(plan, m, 0.0)
    assert rep.bits_per_symbol == pytest.approx(FLAT_ONE_BIT_BITS, abs=1e-12)
    rep2 = noise_free_rate((0.5, 0.5), m, (0.5, 0.5))
    assert rep2.bits_per_symbol == pytest.approx(FLAT_ONE_BIT_BITS, abs=1e-12)
    assert rep2.shaping_loss_bits == 0.0


def test_noise_free_rate_shaped_reference_value():
    m = one_bit_moments()
    rep = noise_free_rate((0.5, 0.5), m, (0.8183, 0.1817))
    kl = kl_divergence((0.5, 0.5), (0.8183, 0.1817))
    assert rep.bits_per_symbol == pytest.approx(FLAT_ONE_BIT_BITS - kl, abs=1e-12)
    assert rep.bits_per_symbol == pytest.approx(1.08575, abs=1e-3)
    assert rep.bits_per_symbol == pytest.approx(sum(rep.band_bits), abs=1e-9)


def test_noise_free_rate_infeasible_share():
    m = one_bit_moments()
    with pytest.raises(FeasibilityError):
        noise_free_rate((0.5, 0.5), m, (0.9, 0.1))
    with pytest.raises(FeasibilityError):
        noise_free_rate((0.5, 0.5), m, (1.0, 0.0))  # zero share under positive fraction


def test_noise_free_matches_awgn_zero_noise_identity():
    # the two formulas are algebraically identical on feasible allocations
    rng = np.random.default_rng(123)
    m = tx_moments(QuantizerSpec.uniform_midrise(2, 2.1), 1.0)
    for _ in range(100):
        fr, nu = random_feasible_share(rng, m, int(rng.integers(2, 6)))
        pw = powers_from_fractions(fr, m, 1.0, nu)
        plan = SubbandPlan(tuple(fr), tuple(pw))
        m_at = tx_moments(QuantizerSpec.uniform_midrise(2, 2.1), plan.mean_power)
        direct = awgn_linear_rate(plan, m_at, 0.0).bits_per_symbol
        via_shares = noise_free_rate(fr, m, nu).bits_per_symbol
        assert via_shares == pytest.approx(direct, abs=1e-9)


def test_floor_sharpness():
    # feasibility flips exactly where the inverted power crosses zero
    m = one_bit_moments()
    fr = (0.5, 0.5)
    floor2 = share_floor(fr, m)[1]
    for eps, expect in ((1e-9, True), (-1e-9, False)):
        nu = (1.0 - floor2 - eps, floor2 + eps)
        assert feasible_fractions(fr, m, nu) is expect
    pw = powers_from_fractions(fr, m, 1.0, (1.0 - floor2, floor2))
    assert pw[1] == pytest.approx(0.0, abs=1e-12)


def _scalar_rate_hex(fr, m, nu):
    try:
        return noise_free_rate(fr, m, nu).bits_per_symbol.hex()
    except FeasibilityError:
        return None


@st.composite
def _share_rows(draw):
    """Fractions and rows of shares, both integer splits (zero shares included)."""
    parts = draw(st.lists(st.integers(1, 9), min_size=2, max_size=4))
    fr = [p / sum(parts) for p in parts]
    n = len(fr)
    split = st.lists(st.integers(0, 9), min_size=n, max_size=n).filter(any)
    rows = [[v / sum(r) for v in r] for r in draw(st.lists(split, min_size=1, max_size=12))]
    return fr, rows


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(case=_share_rows(), bits=st.integers(1, 6), kappa=st.floats(1.0, 5.0),
       near_floor=st.lists(st.floats(-1e-11, 0.3), max_size=4))
@example(case=((0.5, 0.5), [[0.5, 0.5], [0.9, 0.1], [1.0, 0.0]]), bits=1, kappa=1.0,
         near_floor=[-1e-11, 0.0, 1e-13])
def test_noise_free_rates_match_per_row_rates(case, bits, kappa, near_floor):
    fr, rows = case
    m = tx_moments(QuantizerSpec.uniform_midrise(bits, kappa), 1.0)
    floor = share_floor(fr, m)
    for extra in near_floor:
        # band 0 at its floor plus ``extra``, the rest spread in proportion to their floors
        rest = (1.0 - floor[0] - extra) / floor[1:].sum()
        rows.append([floor[0] + extra, *(floor[1:] * rest)])
    got = [None if r is None else r.hex() for r in noise_free_rates(fr, m, rows)]
    assert got == [_scalar_rate_hex(fr, m, nu) for nu in rows]


def _first_error(rows, call):
    """(type, message) of the first row ``call`` raises for, skipping FeasibilityError."""
    for nu in rows:
        try:
            call(nu)
        except FeasibilityError:
            continue
        except Exception as e:  # the error the batch must repeat
            return type(e), str(e)
    raise AssertionError("no row raises")


@pytest.mark.parametrize(
    "quantizer, rows",
    [
        (ONE_BIT, [(0.5, 0.5), (0.9, 0.1), (math.nan, 0.5), (0.6, 0.4)]),
        (ONE_BIT, [(0.5, 0.5), (0.7, 0.7)]),
        (ONE_BIT, [(0.9, 0.1), (1.2, -0.2)]),
        (QuantizerSpec.custom_levels([0.0]), [(0.5, 0.5)]),
        (QuantizerSpec.identity(), [(0.5, 0.5)]),
    ],
    ids=["nan-row", "sum-above-one", "negative-share", "zero-output-chain", "identity-dac"],
)
def test_noise_free_rates_raise_what_the_row_raises(quantizer, rows):
    m = tx_moments(quantizer, 1.0)
    expected = _first_error(rows, lambda nu: noise_free_rate((0.5, 0.5), m, nu))
    assert _first_error([rows], lambda r: noise_free_rates((0.5, 0.5), m, r)) == expected


@pytest.mark.parametrize("nu", [(), 0.5, [(0.5, 0.5)]], ids=["empty", "scalar", "2-d"])
def test_noise_free_rate_names_a_malformed_share_vector(nu):
    with pytest.raises(ValueError, match="share vector must be a non-empty 1-D sequence"):
        noise_free_rate((0.5, 0.5), one_bit_moments(), nu)


def test_an_infeasible_share_leaves_no_reference_cycle():
    # sweep-aclr meets FeasibilityError at many grid points; each error must
    # be freed by reference counting, not left for the garbage collector
    m = one_bit_moments()
    gc.collect()
    gc.disable()
    try:
        for call in (
            lambda: noise_free_rate((0.5, 0.5), m, (0.9, 0.1)),
            lambda: powers_from_fractions((0.5, 0.5), m, 1.0, (0.9, 0.1)),
            lambda: noise_free_rates((0.5, 0.5), m, [(0.9, 0.1)]),
        ):
            try:
                call()
            except FeasibilityError:
                pass
        assert not feasible_fractions((0.5, 0.5), m, (0.9, 0.1))
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize("call, message", [
    (lambda: SubbandPlan((0.5, 0.5), (1.0, 1.0, 1.0)), "fractions and powers must be equal-length"),
    (lambda: feasible_fractions((0.5, 0.5), one_bit_moments(), (0.2, 0.3, 0.5)), "distributions must have equal length"),
    (lambda: kl_divergence((0.5, 0.5), (0.2, 0.3, 0.5)), "distributions must have equal length"),
    (lambda: noise_free_rates((0.5, 0.5), one_bit_moments(), [(0.2, 0.3, 0.5)]), "as wide as the fractions"),
], ids=["plan_powers", "feasible_fractions", "kl_divergence", "noise_free_rates"])
def test_a_vector_of_another_length_is_a_value_error(call, message):
    with pytest.raises(ValueError, match=message):
        call()
