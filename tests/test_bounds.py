import dataclasses
import json
import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qlt.bounds
import qlt.quantizer
from qlt import (
    BoundaryEnergyError,
    InfeasibleEnergyError,
    NumericalFailureError,
    QuantizerSpec,
    constellation_of,
    cumulant,
    kl_divergence,
    max_entropy,
    noise_free_rate,
    rate_function,
    rate_upper_bound,
    share_floor,
    tilted_mean_energy,
    tx_moments,
    upper_bound_rates,
)
from qlt.cli import main

QPSK = QuantizerSpec.custom_levels([-1.0, 1.0])
GRID16 = constellation_of(QuantizerSpec.uniform_midrise(2, 3.0))


def closed_form_tilt(s):
    """Hand-solved tilts for the {+-1,+-3}^2 set: tilted mean s gives a
    quadratic in t = exp(8 theta)."""
    roots = {4.0: 1.0 / 7.0, 6.0: 1.0 / 3.0, 8.0: 0.6, 12.0: 5.0 / 3.0, 16.0: 7.0}
    return math.log(roots[s]) / 8.0


def test_cumulant_at_zero():
    for cset in (QPSK, GRID16):
        assert cumulant(cset, 0.0) == pytest.approx(0.0, abs=1e-15)


def test_cumulant_equal_energy_is_linear():
    # constant energy e makes the generating function theta * e exactly
    assert cumulant(QPSK, 2.0) == pytest.approx(4.0, abs=1e-12)
    assert cumulant(QPSK, -3.7) == pytest.approx(-7.4, abs=1e-12)


def test_cumulant_direct_sum_oracle(product_constellation):
    theta = 0.1
    direct = math.log(np.mean(np.exp(theta * product_constellation(GRID16.levels_per_dim())[1])))
    assert cumulant(GRID16, theta) == pytest.approx(direct, abs=1e-12)
    # stability at large tilt where the naive sum overflows
    assert np.isfinite(cumulant(GRID16, 500.0))
    assert cumulant(GRID16, 500.0) == pytest.approx(
        500.0 * 18.0 + math.log(4.0 / 16.0), abs=1e-9
    )


def test_rate_function_trivial_points():
    val, tilt = rate_function(GRID16, GRID16.mean_energy)
    assert val == 0.0 and tilt == 0.0
    val, tilt = rate_function(QPSK, 2.0)
    assert val == 0.0 and tilt == 0.0


@pytest.mark.parametrize("s", [4.0, 6.0, 8.0, 12.0, 16.0])
def test_rate_function_closed_form_tilts(s):
    val, tilt = rate_function(GRID16, s)
    expected_tilt = closed_form_tilt(s)
    expected_val = s * expected_tilt - cumulant(GRID16, expected_tilt)
    assert tilt == pytest.approx(expected_tilt, abs=1e-10)
    assert val == pytest.approx(expected_val, abs=1e-12)
    assert val >= 0.0


def test_rate_function_bounds_errors():
    with pytest.raises(InfeasibleEnergyError):
        rate_function(GRID16, 1.0)
    with pytest.raises(InfeasibleEnergyError):
        rate_function(GRID16, 19.0)
    with pytest.raises(BoundaryEnergyError):
        rate_function(GRID16, 2.0)
    with pytest.raises(BoundaryEnergyError):
        rate_function(GRID16, 18.0)


@pytest.mark.parametrize("cset", [GRID16, QPSK], ids=["grid16", "qpsk"])
@pytest.mark.parametrize("s", [math.nan, math.inf, -math.inf])
def test_a_non_finite_target_energy_is_a_value_error(cset, s):
    # a NaN target compares false against both ends of the achievable range,
    # so it must be caught before the range check
    with pytest.raises(ValueError, match="target energy must be finite"):
        rate_function(cset, s)
    with pytest.raises(ValueError, match="target energy must be finite"):
        max_entropy(cset, s)


def test_convexity_of_cumulant_and_rate_function():
    grid = np.linspace(-2.0, 2.0, 81)
    vals = np.array([cumulant(GRID16, t) for t in grid])
    second = np.diff(vals, 2)
    assert np.all(second >= -1e-9)
    s_grid = np.linspace(2.5, 17.5, 61)
    ivals = np.array([rate_function(GRID16, s)[0] for s in s_grid])
    assert np.all(np.diff(ivals, 2) >= -1e-8)
    assert ivals.min() == pytest.approx(0.0, abs=1e-10)


def test_tilted_law_matches_target_energy(product_constellation):
    e = product_constellation(GRID16.levels_per_dim())[1]
    for s in (4.0, 6.0, 13.5):
        _, tilt = rate_function(GRID16, s)
        p = _tilted_law(e, tilt)
        assert float(p @ e) == pytest.approx(s, rel=1e-8)
        assert tilted_mean_energy(GRID16, tilt) == pytest.approx(s, rel=1e-10)


def test_max_entropy_trivial_and_interior():
    assert max_entropy(QPSK, 2.0) == pytest.approx(2.0, abs=1e-12)
    assert max_entropy(GRID16, 10.0) == pytest.approx(4.0, abs=1e-12)
    expected_tilt = closed_form_tilt(6.0)
    expected_val = 6.0 * expected_tilt - cumulant(GRID16, expected_tilt)
    h = max_entropy(GRID16, 6.0)
    assert h == pytest.approx(4.0 - expected_val / math.log(2), abs=1e-9)
    assert 0.0 < h < 4.0


def test_max_entropy_boundary_degenerates_to_class_size():
    # four points at each extreme energy class
    assert max_entropy(GRID16, 2.0) == pytest.approx(2.0)
    assert max_entropy(GRID16, 18.0) == pytest.approx(2.0)


def test_an_energy_the_tolerance_below_the_minimum_is_the_boundary_and_one_ulp_less_is_not():
    cset = QuantizerSpec.uniform_midrise(2, 1.0)
    e_lo, e_hi = cset.min_energy, cset.max_energy
    edge = e_lo - 1e-12 * max(1.0, abs(e_lo), abs(e_hi))
    assert max_entropy(cset, edge) == 2.0  # the four points of the lowest class
    with pytest.raises(InfeasibleEnergyError):
        max_entropy(cset, math.nextafter(edge, -math.inf))


def test_rate_upper_bound_flat_qpsk():
    rep = rate_upper_bound(QPSK, (1.0, 1.0), (0.5, 0.5))
    assert rep.bits_per_symbol == pytest.approx(2.0, abs=1e-12)
    assert rep.shaping_loss_bits == 0.0
    assert rep.tilt == 0.0


def test_rate_upper_bound_shaped_qpsk():
    rep = rate_upper_bound(QPSK, (1.8, 0.2), (0.5, 0.5))
    kl = kl_divergence((0.5, 0.5), (0.9, 0.1))
    assert rep.bits_per_symbol == pytest.approx(2.0 - kl, abs=1e-12)
    assert rep.bits_per_symbol == pytest.approx(1.26303, abs=5e-6)


def test_rate_upper_bound_kl_shift_identity():
    # moving the share vector changes the bound by exactly the divergence
    flat = rate_upper_bound(GRID16, (5.0, 5.0), (0.5, 0.5))
    shaped = rate_upper_bound(GRID16, (7.0, 3.0), (0.5, 0.5))
    kl = kl_divergence((0.5, 0.5), (0.7, 0.3))
    assert flat.bits_per_symbol - shaped.bits_per_symbol == pytest.approx(kl, abs=1e-12)


def test_rate_upper_bound_infeasible_mask():
    rep = rate_upper_bound(QPSK, (2.0, 0.0), (0.5, 0.5))
    assert rep.mask_infeasible
    assert rep.bits_per_symbol == -math.inf


def test_one_bit_gap_is_constant_over_shares():
    # both bounds subtract the same shaping loss, so the gap to the linear
    # noise-free rate never depends on the share vector
    q = QuantizerSpec.uniform_midrise(1, 1.0)
    cset = constellation_of(q)
    m = tx_moments(q, 1.0)
    s_tot = (abs(m.gain) ** 2 + m.noise) * 1.0
    gap_expected = 2.0 - math.log2(1.0 + 2.0 / (math.pi - 2.0))
    rng = np.random.default_rng(8)
    floor = share_floor((0.5, 0.5), m)
    for _ in range(50):
        extra = rng.dirichlet((1.0, 1.0))
        nu = floor + (1.0 - floor.sum()) * extra
        ub = rate_upper_bound(cset, tuple(nu * s_tot), (0.5, 0.5), m_tx=m)
        lin = noise_free_rate((0.5, 0.5), m, tuple(nu)).bits_per_symbol
        assert ub.bits_per_symbol - lin == pytest.approx(gap_expected, abs=1e-10)
        assert ub.bits_per_symbol >= lin  # dominance
        assert ub.gap_bits == pytest.approx(gap_expected, abs=1e-12)
    assert gap_expected < 1.0  # the gap stays under one bit


def test_upper_bound_input_validation():
    with pytest.raises(ValueError):
        rate_upper_bound(QPSK, (1.0, -0.5), (0.5, 0.5))
    with pytest.raises(ValueError):
        rate_upper_bound(QPSK, (1.0,), (0.5, 0.5))
    with pytest.raises(InfeasibleEnergyError):
        rate_upper_bound(QPSK, (9.0, 9.0), (0.5, 0.5))


def _interior_targets(cset, fracs):
    lo, hi = cset.min_energy, cset.max_energy
    return [lo + f * (hi - lo) for f in fracs] if hi > lo else [lo]


def _solve_hex(cset, s):
    ub = rate_upper_bound(cset, (0.7 * s, 0.3 * s), (0.5, 0.5))
    return [x.hex() for x in (max_entropy(cset, s), ub.max_entropy_bits, ub.tilt,
                              ub.bits_per_symbol)]


@pytest.mark.parametrize("bits", [1, 2, 3, 4, 5, 6, "grid16"])
def test_solve_memo_is_bit_identical_to_a_fresh_constellation(bits):
    # repeated solves on one constellation match a fresh constellation's bit
    # for bit, whatever was solved on it before
    def fresh():
        if bits == "grid16":
            return QuantizerSpec.custom_levels(GRID16.levels_per_dim())
        return constellation_of(QuantizerSpec.uniform_midrise(bits, 1.7))

    warm = fresh()
    targets = _interior_targets(warm, (0.05, 0.31, 0.5, 0.77, 0.93))
    for s in _interior_targets(warm, (0.2, 0.6, 0.9)) + targets:
        max_entropy(warm, s)
    for s in targets:
        assert _solve_hex(warm, s) == _solve_hex(fresh(), s), s


_OWN_CONSTELLATIONS = [QuantizerSpec.uniform_midrise(b, 1.7) for b in range(1, 9)] + [
    QuantizerSpec.custom_levels([0.4]),
    QPSK,
    QuantizerSpec.custom_levels([-2.0, -0.3, 0.1, 1.7]),
]


def _bound_hexes(cset, m_tx):
    def hexes(report):
        return [x.hex() if isinstance(x, float) else x for x in dataclasses.astuple(report)]

    out = []
    for theta in (-0.7, 0.0, 0.3):
        out += [cumulant(cset, theta).hex(), tilted_mean_energy(cset, theta).hex()]
    for s in _interior_targets(cset, (0.2, 0.5, 0.8)):
        band = (0.7 * s, 0.3 * s)
        out += [max_entropy(cset, s).hex(), hexes(rate_upper_bound(cset, band, (0.5, 0.5))),
                hexes(rate_upper_bound(cset, band, (0.5, 0.5), m_tx=m_tx)),
                [r.hex() for r in upper_bound_rates(cset, s, [[0.7, 0.3], [0.4, 0.6]], (0.5, 0.5))]]
    return out


@pytest.mark.parametrize("q", _OWN_CONSTELLATIONS,
                         ids=[f"midrise-{b}" for b in range(1, 9)] + ["one-level", "qpsk", "asymmetric"])
def test_a_spec_is_its_own_constellation(q):
    # constellation_of checks the level set and hands the spec back; the
    # bounds read the same bits from a second owner of the same level table
    assert constellation_of(q) is q
    m_tx = tx_moments(q, 1.0)
    twin = QuantizerSpec.custom_levels(q.levels_per_dim())
    assert _bound_hexes(q, m_tx) == _bound_hexes(twin, m_tx)


def test_failed_solves_raise_on_every_call(monkeypatch):
    cset = constellation_of(QuantizerSpec.uniform_midrise(3, 1.5))
    solves = []
    original = qlt.bounds.rate_function

    def counting(c, s):
        solves.append(s)
        return original(c, s)

    monkeypatch.setattr(qlt.bounds, "rate_function", counting)
    too_high = 2.0 * cset.max_energy
    for i in range(3):
        with pytest.raises(InfeasibleEnergyError):
            max_entropy(cset, too_high)
        with pytest.raises(InfeasibleEnergyError):
            rate_upper_bound(cset, (too_high, 0.0), (0.5, 0.5))
        assert len(solves) == 2 * (i + 1)
        # the tilt diverges on the boundary; max_entropy maps it onto the
        # energy class instead, and both answers hold on repeat calls
        with pytest.raises(BoundaryEnergyError):
            rate_function(cset, cset.max_energy)
        assert max_entropy(cset, cset.max_energy) == 2.0


def _aclr_cfg(tmp_path, out):
    cfg = {
        "schema_version": 1,
        "experiment": "sweep-aclr",
        "output": {"format": "csv", "path": str(tmp_path / out)},
        "params": {
            "bits": [1, 2, 3],
            "fractions": [0.5, 0.5],
            "aclr_db": {"start": 0.0, "stop": 20.0, "step": 0.25},
        },
    }
    path = tmp_path / f"{out}.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def test_sweep_aclr_solves_each_total_energy_once(tmp_path, monkeypatch):
    solves = []
    rate_fn = qlt.bounds.rate_function

    def counting(cset, s):
        solves.append(s)
        return rate_fn(cset, s)

    monkeypatch.setattr(qlt.bounds, "rate_function", counting)
    assert main(["sweep-aclr", "--config", _aclr_cfg(tmp_path, "o")]) == 0
    rows = (tmp_path / "o" / "sweep-aclr.csv").read_text().splitlines()[1:]
    assert len(rows) == 243  # 81 points x 3 resolutions, one bound each
    # one solve per resolution: every row shares its resolution's total energy
    assert len(solves) == 3


def test_solves_do_not_carry_across_ops(tmp_path, monkeypatch):
    counts = []
    original = qlt.bounds.tilted_mean_energy

    def counting(cset, theta):
        counts[-1] += 1
        return original(cset, theta)

    monkeypatch.setattr(qlt.bounds, "tilted_mean_energy", counting)
    for out in ("a", "b"):
        counts.append(0)
        assert main(["sweep-aclr", "--config", _aclr_cfg(tmp_path, out)]) == 0
    assert counts[0] == counts[1] > 0
    assert (tmp_path / "a" / "sweep-aclr.csv").read_bytes() == (
        tmp_path / "b" / "sweep-aclr.csv"
    ).read_bytes()


@pytest.mark.parametrize("bad", [(math.nan, 1.0), (math.nan, math.nan), (math.inf, math.inf)])
def test_upper_bound_rates_reject_a_non_finite_row_at_that_row(bad):
    # the rows share one solve; a bad row is an invalid input, not a failed solve
    rows = [(0.5, 0.5), (0.75, 0.25), bad, (0.25, 0.75)]
    with pytest.raises(ValueError, match="finite"):
        upper_bound_rates(GRID16, 8.0, rows, (0.5, 0.5))
    assert upper_bound_rates(GRID16, 8.0, rows[:2], (0.5, 0.5)) == [
        rate_upper_bound(GRID16, np.multiply(row, 8.0), (0.5, 0.5)).bits_per_symbol
        for row in rows[:2]
    ]


def test_upper_bound_rates_check_the_total_and_the_row_width():
    with pytest.raises(ValueError, match="total target energy must be positive"):
        upper_bound_rates(GRID16, 0.0, [(0.5, 0.5)], (0.5, 0.5))
    with pytest.raises(ValueError, match="target energy must be finite"):
        upper_bound_rates(GRID16, math.inf, [(0.5, 0.5)], (0.5, 0.5))
    with pytest.raises(ValueError, match="as wide as the fractions"):
        upper_bound_rates(GRID16, 8.0, [(0.5, 0.25, 0.25)], (0.5, 0.5))
    with pytest.raises(ValueError, match="a 2-D array"):
        upper_bound_rates(GRID16, 8.0, (0.5, 0.5), (0.5, 0.5))
    assert upper_bound_rates(GRID16, 8.0, [(1.0, 0.0)], (0.5, 0.5)) == [-math.inf]


_MAX_BITS_RUNS = {
    "upper-bound": ("json", {"fractions": [0.5, 0.5], "band_energy": [1.0, 0.5], "include_gap": True}),
    "sweep-aclr": ("csv", {"fractions": [0.5, 0.5], "aclr_db": {"start": 0.0, "stop": 20.0, "step": 0.25}}),
}


@pytest.mark.parametrize("experiment", list(_MAX_BITS_RUNS))
def test_a_max_bits_bound_runs_in_a_second_and_a_few_megabytes(tmp_path, experiment):
    # 16 bits is 4**16 points, 64 GiB as complex128: the bound reads only
    # one rail's 2**16 levels (about 10-25 ms and a 4.0 MiB tracemalloc peak
    # measured, mostly the 16-bit transmit moments)
    fmt, params = _MAX_BITS_RUNS[experiment]

    def run(bits, out):
        quantizer = {"quantizer": {"kind": "uniform_midrise", "bits": bits, "clip": 2.1}}
        cfg = {
            "schema_version": 1,
            "experiment": experiment,
            "output": {"format": fmt, "path": str(tmp_path / out)},
            "params": {**params, **({"bits": [bits]} if experiment == "sweep-aclr" else quantizer)},
        }
        path = tmp_path / f"{out}.json"
        path.write_text(json.dumps(cfg))
        return main([experiment, "--config", str(path)])

    assert run(2, "warm") == 0  # first-call caches stay out of the measure
    tracemalloc.start()
    start = time.perf_counter()
    try:
        assert run(qlt.quantizer.MAX_BITS, "max") == 0
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert elapsed < 1.0
    assert peak < 8 * 2**20
    if experiment == "upper-bound":
        rec = json.loads((tmp_path / "max" / "upper-bound.json").read_text())
        assert 31.0 < rec["max_entropy_bits"] < 32.0
    else:
        rows = (tmp_path / "max" / "sweep-aclr.csv").read_text().splitlines()[1:]
        r_upper = [float(row.split(",")[3]) for row in rows]
        assert len(r_upper) == 81 and all(math.isfinite(r) for r in r_upper)


def _bracket(cset, s):
    """Evaluations and width of the solver's expanding bracket: the low end
    doubles from -1 until its tilted mean is at most s, then the high end
    from 1 until it is at least s."""
    lo, hi, evals = -1.0, 1.0, 2
    while tilted_mean_energy(cset, lo) > s:
        lo, evals = 2.0 * lo, evals + 1
    while tilted_mean_energy(cset, hi) < s:
        hi, evals = 2.0 * hi, evals + 1
    return evals, hi - lo


def _counted_solve(cset, s, thetas, fail_after=None):
    """rate_function(cset, s), appending each tilt it evaluates to thetas;
    past fail_after evaluations every tilted mean is NaN."""
    original = qlt.bounds.tilted_mean_energy

    def counting(c, theta):
        thetas.append(theta)
        if fail_after is not None and len(thetas) > fail_after:
            return math.nan
        return original(c, theta)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(qlt.bounds, "tilted_mean_energy", counting)
        return rate_function(cset, s)


@settings(derandomize=True, database=None, max_examples=80, deadline=None)
@given(
    bits=st.integers(1, 6),
    clip=st.floats(0.5, 6.0),
    frac=st.floats(0.02, 0.98),
)
def test_tilt_solve_brackets_the_root_within_one_step_of_bisection(bits, clip, frac):
    cset = constellation_of(QuantizerSpec.uniform_midrise(bits, clip))
    s = cset.min_energy + frac * (cset.max_energy - cset.min_energy)
    thetas = []
    _, tilt = _counted_solve(cset, s, thetas)
    tol = qlt.bounds.TILT_TOL
    assert tilted_mean_energy(cset, tilt - tol) <= s <= tilted_mean_energy(cset, tilt + tol)
    bracket_evals, width = _bracket(cset, s)
    assert len(thetas) <= bracket_evals + math.ceil(math.log2(width / tol)) + 1


def test_a_nan_tilted_mean_after_the_bracket_fails_the_solve():
    s, thetas = 6.0, []
    bracket_evals, width = _bracket(GRID16, s)
    with pytest.raises(NumericalFailureError, match="did not converge"):
        _counted_solve(GRID16, s, thetas, fail_after=bracket_evals)
    # it stops at the evaluation cap instead of looping
    assert len(thetas) == bracket_evals + math.ceil(math.log2(width / qlt.bounds.TILT_TOL)) + 1


def test_a_tilt_whose_float_spacing_exceeds_tilt_tol_is_solved():
    # past |tilt| ~ 8192 adjacent floats are further apart than TILT_TOL, so
    # the solve stops at the adjacent-float bracket
    cset = constellation_of(QuantizerSpec.uniform_midrise(7, 1.0))
    s = cset.min_energy + 8e-6 * (cset.max_energy - cset.min_energy)
    assert max_entropy(cset, s) == pytest.approx(2.238232298541959, rel=1e-12)
    _, tilt = rate_function(cset, s)
    assert math.ulp(tilt) > qlt.bounds.TILT_TOL
    below, above = math.nextafter(tilt, -math.inf), math.nextafter(tilt, math.inf)
    assert tilted_mean_energy(cset, below) <= s <= tilted_mean_energy(cset, above)


_UNDERFLOW_CSET = constellation_of(QuantizerSpec.uniform_midrise(8, 1.0))
_UNDERFLOW_S = _UNDERFLOW_CSET.min_energy + 5e-4 * (_UNDERFLOW_CSET.max_energy - _UNDERFLOW_CSET.min_energy)


def test_max_entropy_cross_check_skips_underflowed_probabilities(product_constellation):
    # some of one rail's tilted probabilities, which the cross-check sums,
    # underflow to 0 here; 0 log 0 = 0, with no RuntimeWarning (an error
    # under the suite's filter)
    _, tilt = rate_function(_UNDERFLOW_CSET, _UNDERFLOW_S)
    _, rail_weights, _ = qlt.bounds._log_mgf_terms(_UNDERFLOW_CSET, tilt)
    assert rail_weights.min() == 0.0
    assert _tilted_law(product_constellation(_UNDERFLOW_CSET.levels_per_dim())[1], tilt).min() == 0.0
    assert max_entropy(_UNDERFLOW_CSET, _UNDERFLOW_S) == pytest.approx(7.160797054565718, rel=1e-12)


def test_max_entropy_cross_check_catches_a_wrong_rate_where_probabilities_underflow(monkeypatch):
    solve = qlt.bounds.rate_function

    def off_by_a_tenth_nat(cset, s):
        value, tilt = solve(cset, s)
        return value + 0.1, tilt

    monkeypatch.setattr(qlt.bounds, "rate_function", off_by_a_tenth_nat)
    with pytest.raises(NumericalFailureError, match="cross-check"):
        max_entropy(_UNDERFLOW_CSET, _UNDERFLOW_S)


def test_gap_to_a_noiseless_linear_rate_is_minus_infinity():
    m = tx_moments(QuantizerSpec.identity(), 1.0)
    assert rate_upper_bound(GRID16, (5.0, 5.0), (0.5, 0.5), m_tx=m).gap_bits == -math.inf


def test_gap_to_a_zero_output_chain_is_a_numerical_failure():
    # gain 0 and noise 0: the flat linear rate the gap reads is undefined
    m0 = tx_moments(QuantizerSpec.custom_levels([0.0]), 1.0)
    with pytest.raises(NumericalFailureError, match="zero-output chain"):
        rate_upper_bound(GRID16, (5.0, 5.0), (0.5, 0.5), m_tx=m0)


def _tilted_weights(e, theta):
    """exp(theta * e - shift) for each point energy e, max-shift stabilized,
    and the shift."""
    shift = theta * (e.max() if theta > 0 else e.min())
    return np.exp(theta * e - shift), shift


def _tilted_law(e, theta):
    """The probability of each point, proportional to exp(theta * e)."""
    w, _ = _tilted_weights(e, theta)
    return w / w.sum()


def _direct_cumulant_and_mean(e, theta):
    """The cumulant and tilted mean of the point energy as direct sums over
    every point's energy e (4**bits of them for a midrise quantizer)."""
    w, shift = _tilted_weights(e, theta)
    return shift + math.log(w.sum() / e.size), float(np.dot(w, e) / w.sum())


_BOUND_QUANTIZERS = st.one_of(
    st.builds(QuantizerSpec.uniform_midrise, st.integers(1, 8), st.floats(0.5, 6.0)),
    st.lists(st.integers(-40, 40), min_size=1, max_size=12, unique=True)
    .filter(any)  # a positive energy to target
    .map(lambda ks: QuantizerSpec.custom_levels(sorted(k / 10 for k in ks))),
)


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(
    q=_BOUND_QUANTIZERS,
    frac=st.floats(0.02, 0.98),
    weights=st.lists(st.floats(0.05, 1.0), min_size=2, max_size=4),
    row=st.lists(st.floats(0.0, 1.0), min_size=4, max_size=4),
    theta=st.floats(-3.0, 3.0),
)
def test_factored_bound_equals_the_direct_sum_over_every_point(
    q, frac, weights, row, theta, product_constellation
):
    # the solver works on one rail's levels and doubles; the oracle sums over
    # every point of the product constellation
    cset = constellation_of(q)
    e = product_constellation(cset.levels_per_dim())[1]
    fr = [w / sum(weights) for w in weights]
    row = row[: len(fr)]
    shares = [1.0 / len(fr)] * len(fr) if sum(row) == 0 else [r / sum(row) for r in row]
    lo, hi = float(e.min()), float(e.max())
    assert (cset.min_energy, cset.max_energy) == (lo, hi)
    assert cumulant(cset, theta) == pytest.approx(_direct_cumulant_and_mean(e, theta)[0], rel=1e-12, abs=1e-15)
    for s, cls in ((lo, e == lo), (hi, e == hi)):
        if hi > lo:
            assert max_entropy(cset, s) == math.log2(np.count_nonzero(cls))
    band = np.multiply(shares, lo + frac * (hi - lo))
    s = float(band.sum())  # the total rate_upper_bound solves at
    h = max_entropy(cset, s)
    ub = rate_upper_bound(cset, band, fr)
    _, tilt = rate_function(cset, s)
    assert ub.tilt == tilt
    if hi == lo:
        assert h == ub.max_entropy_bits == math.log2(cset.size)
        return
    # the tilt brackets the oracle's root within TILT_TOL (or within the
    # adjacent floats, where those are further apart)
    tol = max(qlt.bounds.TILT_TOL, math.ulp(tilt))
    assert _direct_cumulant_and_mean(e, tilt - tol)[1] <= s <= _direct_cumulant_and_mean(e, tilt + tol)[1]
    # the oracle's Legendre transform at that tilt: a tilt error moves it only
    # at second order
    kappa = _direct_cumulant_and_mean(e, tilt)[0]
    h_direct = math.log2(cset.size) - (tilt * s - kappa) / math.log(2.0)
    assert h == pytest.approx(h_direct, rel=1e-12)
    assert cumulant(cset, tilt) == pytest.approx(kappa, rel=1e-12, abs=1e-15)
    assert ub.max_entropy_bits == pytest.approx(h_direct, rel=1e-12)
    expected = h_direct - kl_divergence(fr, shares)
    assert ub.bits_per_symbol == pytest.approx(expected, rel=1e-12, abs=1e-12 * h_direct)
