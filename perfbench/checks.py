"""Per-op output checks: independent oracles, not byte hashes.

Each check reads the files one ``qlt`` op wrote and returns a list of
failure messages (empty when the op passes).  The oracles are written here in
plain Python and never call qlt, so a defect in the program cannot also hide
in its own check, and the traced run sees no extra calls.  They follow the
acceptance gates in tests/test_acceptance.py:

* closed-form: row counts, exact moment/rate/spectrum oracles, the
  upper bound dominating the linear rate, r_lin defined exactly up to the
  feasibility ceiling (C8) and rate non-decreasing in DAC bits (C9);
* montecarlo: band energies and chain correlations within 5 standard errors
  of their predictions (the C3 and C6 statistic; see SIGMAS);
* waveform: measured ACLR within 2 dB of the white-noise prediction for
  bits >= 3 at the C10 geometry, and the Parseval ratio within 1%;
* every run: one op repeated with the same seed writes identical bytes (C11).
"""

import csv
import json
import math
from pathlib import Path

# C10 geometry: the waveform preset's band plan and sample rate.
C10_OCCUPIED = 200e6
C10_GUARD = 10e6
C10_SAMPLE_RATE = 983.04e6
C10_TOL_DB = 2.0
PARSEVAL_TOL = 0.01  # tests/test_waveform.py::test_parseval

EXACT = 1e-9  # oracle agreement for closed-form values
# C3/C6 use 4 standard errors for one run; a benchmark run makes ~100 such
# band tests and a full evaluation thousands, so 4 would fail a correct
# program by chance in a few percent of evaluations
SIGMAS = 5.0
# allowance on the large-sample coherence standard error for quantized,
# not exactly Gaussian, outputs
COHERENCE_SE_ALLOWANCE = 1.25


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------

def _cdf(z):
    return 0.5 * math.erfc(-z / math.sqrt(2.0))


def _pdf(z):
    return math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi) if math.isfinite(z) else 0.0


def midrise_moments(bits, clip, pbar):
    """(gain, noise) of a b-bit midrise quantizer on CN(0, pbar) input.

    Exact per-level Gaussian cell sums; ``bits=None`` is the ideal DAC.
    """
    if bits is None:
        return 1.0, 0.0
    n = 2**bits
    sigma = math.sqrt(pbar / 2.0)
    levels = [clip * (2 * k + 1 - n) / (n - 1) for k in range(n)]
    edges = [-math.inf] + [(a + b) / 2 for a, b in zip(levels, levels[1:])] + [math.inf]
    exq = eq2 = 0.0
    for lv, lo, hi in zip(levels, edges, edges[1:]):
        exq += lv * sigma * (_pdf(lo / sigma) - _pdf(hi / sigma))
        eq2 += lv * lv * (_cdf(hi / sigma) - _cdf(lo / sigma))
    gain = 2.0 * exq / pbar
    return gain, 2.0 * eq2 / pbar - gain * gain


def _kl_bits(p, q):
    return sum(a * math.log2(a / b) for a, b in zip(p, q) if a > 0)


def _close(a, b, tol=EXACT):
    return a is not None and b is not None and abs(a - b) <= tol * max(1.0, abs(b))


# ---------------------------------------------------------------------------
# reading results
# ---------------------------------------------------------------------------

def _num(v):
    if v is None or v == "":
        return None
    return float(v)


def _records(out: Path, experiment, fmt):
    """Result records of a closed-form op, from CSV rows or the JSON file."""
    path = out / f"{experiment}.{fmt}"
    if fmt == "csv":
        with path.open(newline="") as f:
            return list(csv.DictReader(f))
    obj = json.loads(path.read_text())
    return obj["rows"] if "rows" in obj else obj


def _grid(spec):
    n = int(round((spec["stop"] - spec["start"]) / spec["step"])) + 1
    return [spec["start"] + spec["step"] * i for i in range(n)]


def _quantizer_moments(q, pbar):
    if q["kind"] == "identity":
        return 1.0, 0.0
    return midrise_moments(q["bits"], q["clip"], pbar)


# ---------------------------------------------------------------------------
# closed-form experiments
# ---------------------------------------------------------------------------

def _check_sweep_aclr(p, rows):
    fails = []
    grid = _grid(p["aclr_db"])
    if len(rows) != len(grid) * len(p["bits"]):
        return [f"sweep-aclr: {len(rows)} rows, expected {len(grid) * len(p['bits'])}"]
    fr = p["fractions"]
    pbar = p.get("pbar", 1.0)
    i = 0
    for bits in p["bits"]:
        g, nz = midrise_moments(bits, p.get("kappa", 3.0) * math.sqrt(pbar / 2), pbar)
        floor = [f * nz / (g * g + nz) for f in fr]
        for aclr in grid:
            row = rows[i]
            i += 1
            r_lin, r_up = _num(row["r_lin"]), _num(row["r_upper"])
            if not _close(_num(row["aclr_db"]), aclr) or int(row["bits"]) != bits:
                fails.append(f"sweep-aclr row {i}: grid point or bits out of order")
                continue
            ratio = 10.0 ** (aclr / 10.0)
            nu = (ratio / (1 + ratio), 1 / (1 + ratio))
            margin = min(a - b for a, b in zip(nu, floor))
            if abs(margin) > 1e-9 and (r_lin is not None) != (margin > 0):  # C8
                fails.append(f"sweep-aclr b={bits} {aclr} dB: r_lin defined={r_lin is not None}, feasible={margin > 0}")
            if r_lin is not None and margin > 1e-9:
                want = math.log2(1 + g * g / nz) - _kl_bits(fr, nu)
                if not _close(r_lin, want):
                    fails.append(f"sweep-aclr b={bits} {aclr} dB: r_lin {r_lin} != {want}")
            if r_up is None or not math.isfinite(r_up):
                fails.append(f"sweep-aclr b={bits} {aclr} dB: r_upper {r_up} not finite")
            elif r_lin is not None and r_up < r_lin - 1e-12:
                fails.append(f"sweep-aclr b={bits} {aclr} dB: r_upper {r_up} < r_lin {r_lin}")
    return fails


def _snr_rate(p, bits, snr_db):
    fr, pw = p["fractions"], p["powers"]
    pbar = sum(f * w for f, w in zip(fr, pw))
    g, nz = midrise_moments(bits, p.get("kappa", 3.0) * math.sqrt(pbar / 2), pbar)
    eff = nz + (g * g + nz) / 10.0 ** (snr_db / 10.0)
    return sum(f * math.log2(1 + g * g * w / (eff * pbar)) for f, w in zip(fr, pw))


def _check_sweep_snr(p, rows):
    grid = _grid(p["snr_db"])
    if len(rows) != len(grid) * len(p["bits"]):
        return [f"sweep-snr: {len(rows)} rows, expected {len(grid) * len(p['bits'])}"]
    fails = []
    by_snr = {}
    i = 0
    for bits in p["bits"]:
        for snr in grid:
            row = rows[i]
            i += 1
            rate = _num(row["rate_bps"])
            want = _snr_rate(p, bits, snr)
            if not _close(rate, want):
                fails.append(f"sweep-snr b={bits} {snr} dB: rate {rate} != {want}")
            by_snr.setdefault(snr, []).append((math.inf if bits is None else bits, rate))
    for snr, pts in by_snr.items():  # C9
        rates = [r for _, r in sorted(pts)]
        if any(a > b + 1e-12 for a, b in zip(rates, rates[1:])):
            fails.append(f"sweep-snr {snr} dB: rate decreases with DAC bits")
    return fails


def _check_upper_bound(p, rec):
    fails = []
    h = _num(rec["max_entropy_bits"])
    kl = _num(rec["shaping_loss_bits"])
    total = _num(rec["bits_per_symbol"])
    q = p["quantizer"]
    s = p["band_energy"]
    shares = [x / sum(s) for x in s]
    if not _close(kl, _kl_bits(p["fractions"], shares)):
        fails.append(f"upper-bound: shaping loss {kl} != D(fractions||shares)")
    if h is None or not 0.0 <= h <= 2 * q["bits"] + EXACT:
        fails.append(f"upper-bound: max entropy {h} outside [0, log2|A|]")
    if total is None or kl is None or h is None or abs(total - (h - kl)) > 1e-12:
        fails.append("upper-bound: bits_per_symbol != max entropy - shaping loss")
    gap = _num(rec["gap_bits"])
    if p.get("include_gap"):
        g, nz = _quantizer_moments(q, p.get("pbar", 1.0))
        want = h - math.log2(1 + g * g / nz) if h is not None else None
        if not _close(gap, want):
            fails.append(f"upper-bound: gap {gap} != {want}")
        elif gap < -1e-12:  # the bound dominates the linear rate
            fails.append(f"upper-bound: negative gap {gap}")
    elif gap is not None:
        fails.append("upper-bound: gap reported without include_gap")
    return fails


def _check_rate(p, fmt, recs):
    if fmt == "csv":
        band = [_num(r["bits"]) for r in recs]
        total = _num(recs[0]["total_bits"]) if recs else None
    else:
        band, total = recs["band_bits"], recs["bits_per_symbol"]
    fr, pw = p["fractions"], p["powers"]
    if len(band) != len(fr):
        return [f"rate: {len(band)} bands, expected {len(fr)}"]
    fails = []
    if total is None or abs(total - sum(band)) > 1e-12 * max(1.0, abs(total)):
        fails.append("rate: total != sum of band rates")
    if "adc" in p:
        if any(b is None or not (b >= 0 and math.isfinite(b)) for b in band):
            fails.append(f"rate: band rates {band} not finite and non-negative")
        return fails
    pbar = sum(f * w for f, w in zip(fr, pw))
    g, nz = _quantizer_moments(p["quantizer"], pbar)
    eff = nz + p["noise_power"] / pbar
    for f, w, b in zip(fr, pw, band):
        want = f * math.log2(1 + g * g * w / (eff * pbar))
        if not _close(b, want):
            fails.append(f"rate: band rate {b} != {want}")
    return fails


def _check_spectrum(p, fmt, recs):
    if fmt == "csv":
        energy = [_num(r["energy"]) for r in recs]
        total = _num(recs[0]["total_energy"]) if recs else None
    else:
        energy, total = recs["band_energy"], recs["total_energy"]
    fr, pw = p["fractions"], p["powers"]
    if len(energy) != len(fr):
        return [f"spectrum: {len(energy)} bands, expected {len(fr)}"]
    pbar = sum(f * w for f, w in zip(fr, pw))
    g, nz = _quantizer_moments(p["quantizer"], pbar)
    fails = []
    for f, w, e in zip(fr, pw, energy):
        if not _close(e, f * (g * g * w + nz * pbar)):
            fails.append(f"spectrum: band energy {e} != {f * (g * g * w + nz * pbar)}")
    if not _close(total, (g * g + nz) * pbar):
        fails.append(f"spectrum: total {total} != {(g * g + nz) * pbar}")
    return fails


def _check_moments(p, rec):
    pbar = p["pbar"]
    gain, noise = _num(rec["gain_re"]), _num(rec["noise"])
    if gain is None or noise is None or not (math.isfinite(gain) and noise >= 0):
        return [f"moments: gain {gain}, noise {noise} not finite"]
    g, nz = _quantizer_moments(p["quantizer"], pbar)
    if "channel" in p:
        if p["adc"]["kind"] != "identity":
            return []  # both sides quantized: no closed form here
        nz += p["channel"]["noise_power"] / pbar  # C2 AWGN shortcut
    if p.get("method", {}).get("kind") == "montecarlo":  # C1 with sampling
        fails = []
        for name, got, want, se in (("gain", gain, g, rec["gain_stderr"]), ("noise", noise, nz, rec["noise_stderr"])):
            if abs(got - want) > SIGMAS * _num(se) + 1e-12:
                fails.append(f"moments: sampled {name} {got} is {abs(got - want) / _num(se):.1f} se from {want}")
        return fails
    if not (_close(gain, g) and _close(noise, nz)):
        return [f"moments: ({gain}, {noise}) != oracle ({g}, {nz})"]
    return []


def _check_closed_form(op, out):
    exp, p, fmt = op["experiment"], op["params"], op["format"]
    recs = _records(out, exp, fmt)
    if exp == "sweep-aclr":
        return _check_sweep_aclr(p, recs)
    if exp == "sweep-snr":
        for r in recs:  # the ideal DAC is written as "inf"
            r["bits"] = None if r["bits"] == "inf" else int(r["bits"])
        return _check_sweep_snr(p, recs)
    if exp == "rate":
        return _check_rate(p, fmt, recs)
    if exp == "spectrum":
        return _check_spectrum(p, fmt, recs)
    rec = recs[0] if fmt == "csv" else recs
    return _check_upper_bound(p, rec) if exp == "upper-bound" else _check_moments(p, rec)


# ---------------------------------------------------------------------------
# montecarlo
# ---------------------------------------------------------------------------

def _check_montecarlo(op, out):
    p = op["params"]
    rep = json.loads((out / "montecarlo.json").read_text())
    fr, pw, n, trials = p["fractions"], p["powers"], p["size"], p["trials"]
    pbar = sum(f * w for f, w in zip(fr, pw))
    g, nz = _quantizer_moments(p["quantizer"], pbar)
    fails = []
    if len(rep["trial_band_energy"]) != trials:
        fails.append(f"montecarlo: {len(rep['trial_band_energy'])} trials, expected {trials}")
    for m, f in enumerate(fr):
        pred = f * (g * g * pw[m] + nz * pbar)
        if not _close(rep["predicted_band_energy"][m], pred):
            fails.append(f"montecarlo band {m}: prediction {rep['predicted_band_energy'][m]} != {pred}")
        # C3: the report's own standard error, floored by the large-sample
        # one (each bin energy ~ exponential), which 2-4 trials estimate poorly
        se = max(rep["band_energy_se"][m], pred / math.sqrt(f * n * trials))
        dev = abs(rep["band_energy"][m] - pred)
        if dev > SIGMAS * se:
            fails.append(f"montecarlo band {m}: energy {rep['band_energy'][m]} is {dev / se:.1f} se from {pred}")
    if p.get("mode") == "chain":  # C6
        for m, f in enumerate(fr):
            rho, want = rep["band_correlation"][m], rep["predicted_band_correlation"][m]
            if not 0.0 < want < 1.0:
                fails.append(f"montecarlo band {m}: predicted correlation {want} outside (0, 1)")
                continue
            model = COHERENCE_SE_ALLOWANCE * math.sqrt(2 * want) * (1 - want) / math.sqrt(f * n * trials)
            se = max(rep["band_correlation_se"][m], model)
            if abs(rho - want) > SIGMAS * se:
                fails.append(f"montecarlo band {m}: correlation {rho} is {abs(rho - want) / se:.1f} se from {want}")
    if p.get("per_trial_csv"):
        with (out / "montecarlo_trials.csv").open(newline="") as fh:
            nrows = sum(1 for _ in csv.DictReader(fh))
        if nrows != trials * len(fr):
            fails.append(f"montecarlo_trials.csv: {nrows} rows, expected {trials * len(fr)}")
    return fails


# ---------------------------------------------------------------------------
# waveform
# ---------------------------------------------------------------------------

def _check_waveform(op, out):
    p = op["params"]
    rep = json.loads((out / "waveform.json").read_text())
    fails = []
    if abs(rep["parseval_ratio"] - 1.0) >= PARSEVAL_TOL:
        fails.append(f"waveform: Parseval ratio {rep['parseval_ratio']}")
    bits = p["dac"]["bits"]
    pred = rep["predicted_aclr_db"]
    if bits is None:
        if pred is not None:
            fails.append("waveform: ideal DAC with a predicted ACLR")
    else:
        g, nz = midrise_moments(bits, rep["dac_clip_used"], rep["stream_power"])
        want = 10.0 * math.log10(1 + g * g / (p["occupied_bandwidth"] / p["sample_rate"] * nz))
        if not _close(pred, want, 1e-7):
            fails.append(f"waveform: predicted ACLR {pred} != {want}")
        c10 = (p["sample_rate"], p["occupied_bandwidth"], p["guard_band"], p.get("zoh", True)) == (
            C10_SAMPLE_RATE, C10_OCCUPIED, C10_GUARD, True)
        if c10 and bits >= 3 and not abs(rep["aclr_db"] - pred) < C10_TOL_DB:
            fails.append(f"waveform b={bits}: ACLR {rep['aclr_db']:.2f} dB vs predicted {pred:.2f} dB")
    with (out / "waveform_psd.csv").open(newline="") as fh:
        nrows = sum(1 for _ in csv.DictReader(fh))
    if nrows != p.get("psd_segment_length", 4096):
        fails.append(f"waveform_psd.csv: {nrows} rows, expected {p.get('psd_segment_length', 4096)}")
    return fails


def check_op(op, out: Path):
    """Failure messages for the files ``op`` wrote into ``out``."""
    try:
        if op["experiment"] == "montecarlo":
            return _check_montecarlo(op, out)
        if op["experiment"] == "waveform":
            return _check_waveform(op, out)
        return _check_closed_form(op, out)
    except (OSError, ValueError, KeyError, IndexError, TypeError) as e:
        return [f"{op['experiment']}: unreadable result ({type(e).__name__}: {e})"]


def same_bytes(a: Path, b: Path):
    """Failure messages unless directories a and b hold identical files (C11)."""
    names_a = sorted(f.name for f in a.iterdir())
    names_b = sorted(f.name for f in b.iterdir())
    if names_a != names_b:
        return [f"determinism: files {names_a} vs {names_b}"]
    return [f"determinism: {n} differs" for n in names_a if (a / n).read_bytes() != (b / n).read_bytes()]
