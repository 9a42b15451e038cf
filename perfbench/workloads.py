"""Seeded op lists for the three benchmark workloads.

An op is one ``qlt <experiment> --config <file> --seed <s>`` call.  Each
workload is a block of op templates repeated ``blocks`` times.  A template
fixes what sets an op's cost (experiment, sizes, bit widths, output format),
and the seed draws everything else (plans, kappa, grid offsets, bit values
that do not change the cost, per-op seeds) and the order inside each block.
So every seed runs the same mix of work, and the timing medians stay steady
across seeds, while the program still sees fresh inputs on every seed.
"""

import math
import random

from checks import C10_GUARD, C10_OCCUPIED, C10_SAMPLE_RATE, midrise_moments

# Waveform ops keep the preset's band geometry and vary the sample rate
# over 2x, 3x and 4x this (4x is the preset's rate).
NR_RATE_UNIT = C10_SAMPLE_RATE / 4
SYMBOL_TAPER = 0.1  # waveform default, needed to count DAC-rate samples

# Preset run fresh by ``cold_run_s`` for each workload.
PRESETS = {
    "closed-form": ("sweep-aclr", "configs/fig3_sweep_aclr.json"),
    "mc-haar": ("montecarlo", "configs/montecarlo_tx_1bit.json"),
    "waveform-aclr": ("waveform", "configs/waveform_nr200_b4.json"),
}

# Nominal seconds one block takes on a 2-core Xeon; sets how many blocks
# fit into the ``--seconds`` measuring window.
BLOCK_SECONDS = {"closed-form": 0.65, "mc-haar": 4.4, "waveform-aclr": 2.2}


def _fractions(rng, nbands):
    """Random bandwidth split in sixteenths, at least 1/8 per band; binary
    fractions, so the split sums to exactly 1."""
    parts = [2] * nbands
    for _ in range(16 - 2 * nbands):
        parts[rng.randrange(nbands)] += 1
    return [p / 16 for p in parts]


def _powers(rng, nbands, allow_zero=False):
    pw = [round(rng.uniform(0.25, 2.0), 3) for _ in range(nbands)]
    if allow_zero and rng.random() < 0.5:
        pw[rng.randrange(nbands)] = 0.0
    return pw


def _midrise(bits, clip):
    return {"kind": "uniform_midrise", "bits": bits, "clip": clip}


def _kappa(rng):
    return round(rng.uniform(2.0, 4.0), 3)


def _grid(rng, lo, hi, points, step):
    start = rng.randrange(int(lo / 0.25), int(hi / 0.25) + 1) * 0.25
    return {"start": start, "stop": start + step * (points - 1), "step": step}


# ---------------------------------------------------------------------------
# closed-form: moments, analysis, bounds and the cli's per-op overhead
# ---------------------------------------------------------------------------

def _sweep_aclr(rng, fmt, bits, points):
    split = rng.randrange(8, 25) / 32
    return "sweep-aclr", fmt, {
        "bits": list(bits),
        "kappa": _kappa(rng),
        "fractions": [split, 1.0 - split],
        "aclr_db": _grid(rng, 0.0, 5.0, points, 0.125 if points > 100 else 0.25),
        "pbar": round(rng.uniform(0.5, 2.0), 3),
    }


def _sweep_snr(rng, fmt, nbits, points):
    nb = rng.randint(2, 4)
    bits = sorted(rng.sample(range(1, 7), nbits - 1)) + [None]
    return "sweep-snr", fmt, {
        "bits": bits,
        "kappa": _kappa(rng),
        "fractions": _fractions(rng, nb),
        "powers": _powers(rng, nb),
        "snr_db": _grid(rng, -10.0, 0.0, points, 0.25),
    }


def _upper_bound(rng, fmt, bits):
    nb = rng.randint(2, 4)
    fr = _fractions(rng, nb)
    pbar = round(rng.uniform(0.5, 2.0), 3)
    # shares above the feasibility floor keep the target energy inside the
    # constellation's range; the total is the quantizer's own output energy
    w = [rng.uniform(0.5, 1.5) * f for f in fr]
    shares = [x / sum(w) for x in w]
    return "upper-bound", fmt, {
        "quantizer": _midrise(bits, round(_kappa(rng) * math.sqrt(pbar / 2), 6)),
        "fractions": fr,
        "band_energy": shares,  # scaled to the output energy in ``_finish``
        "include_gap": rng.random() < 0.5,
        "pbar": pbar,
    }


def _rate(rng, fmt, bits, adc_bits=None):
    nb = rng.randint(2, 4)
    fr = _fractions(rng, nb)
    pw = _powers(rng, nb)
    pbar = sum(f * p for f, p in zip(fr, pw))
    params = {
        "quantizer": _midrise(bits, round(_kappa(rng) * math.sqrt(pbar / 2), 6)),
        "fractions": fr,
        "powers": pw,
        "noise_power": round(rng.uniform(0.01, 0.5), 4),
    }
    if adc_bits:
        rx = pbar + params["noise_power"]
        params["adc"] = _midrise(adc_bits, round(_kappa(rng) * math.sqrt(rx / 2), 6))
    return "rate", fmt, params


def _spectrum(rng, fmt, bits):
    nb = rng.randint(2, 4)
    fr = _fractions(rng, nb)
    pw = _powers(rng, nb, allow_zero=True)
    pbar = sum(f * p for f, p in zip(fr, pw))
    return "spectrum", fmt, {
        "quantizer": _midrise(bits, round(_kappa(rng) * math.sqrt(pbar / 2), 6)),
        "fractions": fr,
        "powers": pw,
    }


def _moments(rng, fmt, method, bits, adc_bits):
    pbar = round(rng.uniform(0.5, 2.0), 3)
    params = {
        "quantizer": _midrise(bits, round(_kappa(rng) * math.sqrt(pbar / 2), 6)),
        "pbar": pbar,
        "method": {"kind": "quadrature", "nodes": 129}
        if method == "quadrature"
        else {"kind": "montecarlo", "samples": 20_000},
    }
    if adc_bits is not None:
        noise = round(rng.uniform(0.01, 0.5), 4)
        params["channel"] = {"kind": "awgn", "noise_power": noise}
        params["adc"] = (
            {"kind": "identity"}
            if adc_bits == 0
            else _midrise(adc_bits, round(_kappa(rng) * math.sqrt((pbar + noise) / 2), 6))
        )
    return "moments", fmt, params


def _closed_form_block(rng):
    return [
        _sweep_aclr(rng, "csv", (1, 2, 3), 81),  # the fig3 preset's size
        _sweep_aclr(rng, "json", (4,), 120),
        _sweep_aclr(rng, "csv", (2, 6), 48),
        _sweep_snr(rng, "csv", 7, 160),
        _sweep_snr(rng, "json", 3, 40),
        _sweep_snr(rng, "csv", 2, 40),
        _upper_bound(rng, "json", 3),
        _upper_bound(rng, "csv", 6),
        _rate(rng, "json", 5),
        _rate(rng, "csv", 2, adc_bits=4),
        _spectrum(rng, "json", 1),
        _moments(rng, "json", "quadrature", 6, adc_bits=3),  # both sides quantized
        _moments(rng, "json", "montecarlo", 2, adc_bits=0),  # identity ADC
    ]


# ---------------------------------------------------------------------------
# mc-haar: the O(n^2) Householder-chain Haar transform
# ---------------------------------------------------------------------------

def _montecarlo(rng, size, trials, mode):
    nb = rng.randint(2, 4)
    fr = _fractions(rng, nb)
    pw = _powers(rng, nb, allow_zero=mode == "tx")
    pbar = sum(f * p for f, p in zip(fr, pw))
    params = {
        "size": size,
        "transform": "haar",
        "trials": trials,
        "fractions": fr,
        "powers": pw,
        "quantizer": _midrise(rng.randint(1, 3), round(_kappa(rng) * math.sqrt(pbar / 2), 6)),
        "assignment": rng.choice(["contiguous", "interleaved"]),
        "mode": mode,
        "per_trial_csv": rng.random() < 0.5,
    }
    if mode == "chain":
        noise = round(rng.uniform(0.01, 0.3), 4)
        params["channel"] = {"kind": "awgn", "noise_power": noise}
        params["adc"] = _midrise(rng.randint(1, 3), round(_kappa(rng) * math.sqrt((pbar + noise) / 2), 6))
    return "montecarlo", "json", params


# (size, trials, mode).  Sorted by cost, the 1024 x 4 ops hold the middle
# ranks and the 2048 x 2 ops the ranks around 1 - 10/N, so the median and
# the tail each fall inside a cluster of like ops for 3 or 4 blocks.
_MC_SHAPES = [
    (1024, 2, "tx"), (1024, 3, "chain"),
    (1024, 4, "tx"), (1024, 4, "chain"), (1024, 4, "tx"), (1024, 4, "chain"), (1024, 4, "tx"),
    (2048, 2, "tx"), (2048, 2, "chain"), (2048, 2, "tx"), (2048, 2, "chain"),
    (4096, 2, "tx"),
]


def _mc_block(rng):
    return [_montecarlo(rng, n, t, mode) for n, t, mode in _MC_SHAPES]


# ---------------------------------------------------------------------------
# waveform-aclr: OFDM synthesis, polyphase interpolation, DAC and Welch
# ---------------------------------------------------------------------------

# (subcarriers, symbols, interpolation factor, filter taps, PSD segment,
# ideal DAC).  Listed by cost; the two pairs of like ops hold the median and
# the tail ranks for 5 or 6 blocks.
_WAVE_SHAPES = [
    (512, 128, 4, 127, 2048, False),
    (1024, 64, 2, 255, 4096, True),
    (2048, 64, 2, 127, 2048, False),
    (1024, 160, 3, 255, 4096, False),
    (1024, 160, 3, 255, 4096, False),
    (1024, 256, 4, 255, 4096, False),  # the waveform preset's size
    (1024, 256, 4, 255, 4096, False),
    (2048, 96, 4, 511, 8192, False),
]


def _waveform(rng, nsc, nsym, interp, taps, seg, ideal):
    return "waveform", "json", {
        "occupied_bandwidth": C10_OCCUPIED,
        "sample_rate": interp * NR_RATE_UNIT,
        "guard_band": C10_GUARD,
        "num_subcarriers": nsc,
        "num_symbols": nsym,
        "dac": {"bits": None} if ideal else {"bits": rng.randint(1, 8), "kappa": round(rng.uniform(2.5, 4.0), 3)},
        "filter_taps": taps,
        "psd_segment_length": seg,
        "zoh": True,
    }


def _wave_block(rng):
    return [_waveform(rng, *shape) for shape in _WAVE_SHAPES]


BLOCKS = {"closed-form": _closed_form_block, "mc-haar": _mc_block, "waveform-aclr": _wave_block}


# ---------------------------------------------------------------------------
# op list
# ---------------------------------------------------------------------------

def _finish(rng, slot, experiment, fmt, params):
    if experiment == "upper-bound":
        # band_energy holds shares until here: scale them to the quantizer's
        # own output energy, which is achievable and makes the gap to the
        # linear rate non-negative (checked)
        q = params["quantizer"]
        g, nz = midrise_moments(q["bits"], q["clip"], params["pbar"])
        total = (g * g + nz) * params["pbar"]
        params["band_energy"] = [s * total for s in params["band_energy"]]
    return {
        "slot": slot,  # the op's template in its block
        "experiment": experiment,
        "format": fmt,
        "seed": rng.randrange(2**31),
        "params": params,
    }


MIN_WARM_OPS = 20  # so the tail percentile 1 - 10/N is at least the median


def block_size(workload):
    return len(BLOCKS[workload](random.Random(0)))


def warm_op_count(workload, seconds):
    """Fixed number of timed ops for a measuring window of ``seconds``."""
    size = block_size(workload)
    blocks = max(round(seconds / BLOCK_SECONDS[workload]), math.ceil(MIN_WARM_OPS / size))
    return blocks * size


def make_ops(workload, seed, seconds):
    """[first op] + the timed ops, all drawn from ``seed``.

    The first op runs untimed in the process and takes the one-off costs
    (lazy imports, first FFT plans) out of the warm-op figures.
    """
    rng = random.Random(f"{workload}/{seed}")
    make_block = BLOCKS[workload]
    ops = [(0, make_block(rng)[0])]
    for _ in range(warm_op_count(workload, seconds) // block_size(workload)):
        block = list(enumerate(make_block(rng)))
        rng.shuffle(block)
        ops.extend(block)
    return [_finish(rng, slot, *op) for slot, op in ops]


def config_of(op):
    """The JSON config the program reads for ``op``."""
    return {
        "schema_version": 1,
        "experiment": op["experiment"],
        "output": {"format": op["format"]},
        "params": op["params"],
    }


def grid_points(spec):
    return int(round((spec["stop"] - spec["start"]) / spec["step"])) + 1


def interp_factor(params):
    return max(1, int(params["sample_rate"] // (params["occupied_bandwidth"] + 2 * params["guard_band"])))


def waveform_samples(params):
    """DAC-rate samples one waveform op synthesizes."""
    nfft = params["num_subcarriers"]
    nsym = params["num_symbols"]
    ov = int(round(SYMBOL_TAPER * nfft / 2.0))
    stream = nsym * nfft if ov == 0 else nsym * (nfft - ov) + ov
    return stream * interp_factor(params)


def items(op):
    """Work units of one op: output rows, trial samples or DAC samples."""
    exp, p = op["experiment"], op["params"]
    if exp == "sweep-aclr":
        return grid_points(p["aclr_db"]) * len(p["bits"])
    if exp == "sweep-snr":
        return grid_points(p["snr_db"]) * len(p["bits"])
    if exp in ("spectrum", "rate"):
        return len(p["fractions"])
    if exp == "montecarlo":
        return p["trials"] * p["size"]
    if exp == "waveform":
        return waveform_samples(p)
    return 1  # moments, upper-bound: one result row
