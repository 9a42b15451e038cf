"""Experiment runner: config ingestion, orchestration, result emission.

Subcommands: moments, spectrum, rate, upper-bound, sweep-snr, sweep-aclr,
montecarlo, waveform, defaults.  Every experiment is driven by a versioned
JSON config (see configs/ for presets); results and the fully resolved config
are written to the output directory.  Exit codes: 0 success, 2 config error,
3 numerical failure.
"""

import argparse
import csv
import io
import json
import math
import sys
from pathlib import Path

import jsonschema
import numpy as np

from . import __version__
from .analysis import (
    FEASIBILITY_SLACK,
    SubbandPlan,
    awgn_linear_rate,
    awgn_rate_at_transmit_snr,
    linear_rate,
    noise_free_rate,
    predict_spectrum,
)
from .bounds import TILT_TOL, rate_upper_bound
from .errors import ConfigError, FeasibilityError, QltError
from .moments import (
    DEFAULT_MC_SAMPLES,
    DEFAULT_QUADRATURE_NODES,
    ChannelSpec,
    MonteCarlo,
    Quadrature,
    chain_moments,
    tx_moments,
)
from .montecarlo import SimConfig, run_chain_trials, run_tx_trials
from .quantizer import (
    DEFAULT_KAPPA,
    QuantizerSpec,
    clip_for_power,
    constellation_of,
    quantizer_from_json,
)
from .waveform import (
    DEFAULT_FILTER_ATTEN_DB,
    DEFAULT_FILTER_TAPS,
    DEFAULT_SYMBOL_TAPER,
    WaveformConfig,
    apply_dac_and_measure,
    synthesize_baseband,
)

SCHEMA_VERSION = 1

_QUANTIZER = {
    "type": "object",
    "properties": {
        "kind": {"enum": ["identity", "uniform_midrise", "custom_levels"]},
        "bits": {"type": "integer", "minimum": 1},
        "clip": {"type": "number", "exclusiveMinimum": 0},
        "levels": {"type": "array", "items": {"type": "number"}, "minItems": 1},
    },
    "required": ["kind"],
    "additionalProperties": False,
}

_CHANNEL = {
    "type": "object",
    "properties": {
        "kind": {"enum": ["awgn"]},
        "noise_power": {"type": "number", "minimum": 0},
    },
    "required": ["kind", "noise_power"],
    "additionalProperties": False,
}

_METHOD = {
    "type": "object",
    "properties": {
        "kind": {"enum": ["quadrature", "montecarlo"]},
        "nodes": {"type": "integer", "minimum": 3},
        "samples": {"type": "integer", "minimum": 100},
    },
    "required": ["kind"],
    "additionalProperties": False,
}

_NUMLIST = {"type": "array", "items": {"type": "number"}, "minItems": 1}

_GRID = {
    "type": "object",
    "properties": {
        "start": {"type": "number"},
        "stop": {"type": "number"},
        "step": {"type": "number", "exclusiveMinimum": 0},
    },
    "required": ["start", "stop", "step"],
    "additionalProperties": False,
}

_BITS_LIST = {
    "type": "array",
    "items": {"oneOf": [{"type": "integer", "minimum": 1}, {"type": "null"}]},
    "minItems": 1,
}

_DAC = {
    "type": "object",
    "properties": {
        "bits": {"oneOf": [{"type": "integer", "minimum": 1}, {"type": "null"}]},
        "kappa": {"type": "number", "exclusiveMinimum": 0},
        "clip": {"type": "number", "exclusiveMinimum": 0},
    },
    "required": ["bits"],
    "additionalProperties": False,
}

_PARAM_SCHEMAS = {
    "moments": {
        "type": "object",
        "properties": {
            "quantizer": _QUANTIZER,
            "pbar": {"type": "number", "exclusiveMinimum": 0},
            "method": _METHOD,
            "channel": _CHANNEL,
            "adc": _QUANTIZER,
        },
        "required": ["quantizer", "pbar"],
        "additionalProperties": False,
    },
    "spectrum": {
        "type": "object",
        "properties": {
            "quantizer": _QUANTIZER,
            "fractions": _NUMLIST,
            "powers": _NUMLIST,
        },
        "required": ["quantizer", "fractions", "powers"],
        "additionalProperties": False,
    },
    "rate": {
        "type": "object",
        "properties": {
            "quantizer": _QUANTIZER,
            "fractions": _NUMLIST,
            "powers": _NUMLIST,
            "noise_power": {"type": "number", "minimum": 0},
            "adc": _QUANTIZER,
        },
        "required": ["quantizer", "fractions", "powers", "noise_power"],
        "additionalProperties": False,
    },
    "upper-bound": {
        "type": "object",
        "properties": {
            "quantizer": _QUANTIZER,
            "fractions": _NUMLIST,
            "band_energy": _NUMLIST,
            "include_gap": {"type": "boolean"},
            "pbar": {"type": "number", "exclusiveMinimum": 0},
        },
        "required": ["quantizer", "fractions", "band_energy"],
        "additionalProperties": False,
    },
    "sweep-snr": {
        "type": "object",
        "properties": {
            "bits": _BITS_LIST,
            "kappa": {"type": "number", "exclusiveMinimum": 0},
            "fractions": _NUMLIST,
            "powers": _NUMLIST,
            "snr_db": _GRID,
        },
        "required": ["bits", "fractions", "powers", "snr_db"],
        "additionalProperties": False,
    },
    "sweep-aclr": {
        "type": "object",
        "properties": {
            "bits": _BITS_LIST,
            "kappa": {"type": "number", "exclusiveMinimum": 0},
            "fractions": _NUMLIST,
            "aclr_db": _GRID,
            "pbar": {"type": "number", "exclusiveMinimum": 0},
        },
        "required": ["bits", "fractions", "aclr_db"],
        "additionalProperties": False,
    },
    "montecarlo": {
        "type": "object",
        "properties": {
            "size": {"type": "integer", "minimum": 1},
            "transform": {"enum": ["haar", "fft"]},
            "trials": {"type": "integer", "minimum": 1},
            "fractions": _NUMLIST,
            "powers": _NUMLIST,
            "quantizer": _QUANTIZER,
            "channel": _CHANNEL,
            "adc": _QUANTIZER,
            "assignment": {"enum": ["contiguous", "interleaved"]},
            "mode": {"enum": ["tx", "chain"]},
            "per_trial_csv": {"type": "boolean"},
        },
        "required": ["size", "fractions", "powers", "quantizer"],
        "additionalProperties": False,
    },
    "waveform": {
        "type": "object",
        "properties": {
            "occupied_bandwidth": {"type": "number", "exclusiveMinimum": 0},
            "sample_rate": {"type": "number", "exclusiveMinimum": 0},
            "guard_band": {"type": "number", "minimum": 0},
            "num_subcarriers": {"type": "integer", "minimum": 8},
            "num_symbols": {"type": "integer", "minimum": 1},
            "dac": _DAC,
            "symbol_taper": {"type": "number", "minimum": 0, "maximum": 1},
            "filter_taps": {"type": "integer", "minimum": 11},
            "filter_attenuation_db": {"type": "number", "exclusiveMinimum": 0},
            "zoh": {"type": "boolean"},
            "psd_segment_length": {"type": "integer", "minimum": 64},
            "psd_overlap": {"type": "number", "minimum": 0, "maximum": 0.9},
            "psd_window": {"type": "string"},
        },
        "required": ["dac"],
        "additionalProperties": False,
    },
}

# parameter defaults merged into resolved configs so a logged config fully
# reproduces its run even if package defaults change later
_PARAM_DEFAULTS = {
    "moments": {"method": {"kind": "quadrature", "nodes": DEFAULT_QUADRATURE_NODES}},
    "spectrum": {},
    "rate": {},
    "upper-bound": {"include_gap": False, "pbar": 1.0},
    "sweep-snr": {"kappa": DEFAULT_KAPPA},
    "sweep-aclr": {"kappa": DEFAULT_KAPPA, "pbar": 1.0},
    "montecarlo": {
        "transform": "haar",
        "trials": 20,
        "assignment": "contiguous",
        "mode": "tx",
        "per_trial_csv": False,
    },
    "waveform": {
        "occupied_bandwidth": 200e6,
        "sample_rate": 983.04e6,
        "guard_band": 10e6,
        "num_subcarriers": 1024,
        "num_symbols": 256,
        "symbol_taper": DEFAULT_SYMBOL_TAPER,
        "filter_taps": DEFAULT_FILTER_TAPS,
        "filter_attenuation_db": DEFAULT_FILTER_ATTEN_DB,
        "zoh": True,
        "psd_segment_length": 4096,
        "psd_overlap": 0.5,
        "psd_window": "hann",
    },
}

_TOP_SCHEMA = {
    "type": "object",
    "properties": {
        "schema_version": {"const": SCHEMA_VERSION},
        "experiment": {"enum": sorted(_PARAM_SCHEMAS)},
        "seed": {"type": "integer", "minimum": 0},
        "output": {
            "type": "object",
            "properties": {
                "format": {"enum": ["csv", "json"]},
                "path": {"type": "string"},
            },
            "additionalProperties": False,
        },
        "params": {"type": "object"},
    },
    "required": ["schema_version", "experiment", "params"],
    "additionalProperties": False,
}


def package_defaults() -> dict:
    """Every documented default decision, as one dump."""
    return {
        "schema_version": SCHEMA_VERSION,
        "clip_kappa": DEFAULT_KAPPA,
        "quadrature_nodes": DEFAULT_QUADRATURE_NODES,
        "montecarlo_samples": DEFAULT_MC_SAMPLES,
        "feasibility_slack": FEASIBILITY_SLACK,
        "tilt_tolerance": TILT_TOL,
        "sim": {
            "size": 2048,
            "trials": 20,
            "transform": "haar",
            "assignment": "contiguous",
        },
        "waveform": {
            "occupied_bandwidth": 200e6,
            "sample_rate": 983.04e6,
            "guard_band": 10e6,
            "num_subcarriers": 1024,
            "num_symbols": 256,
            "symbol_taper": DEFAULT_SYMBOL_TAPER,
            "filter_taps": DEFAULT_FILTER_TAPS,
            "filter_attenuation_db": DEFAULT_FILTER_ATTEN_DB,
            "zoh": True,
            "psd": {"segment_length": 4096, "overlap": 0.5, "window": "hann"},
        },
    }


# ---------------------------------------------------------------------------
# config handling
# ---------------------------------------------------------------------------

def _finite(convert):
    def parse(text: str):
        if not math.isfinite(float(text)):
            _non_finite(text)
        return convert(text)

    return parse


def _non_finite(text: str):
    # JSON number literals past the float range (1e400, or a 400-digit
    # integer) and the NaN / Infinity extensions would reach the numerics as
    # inf or nan, or overflow there
    raise ConfigError(f"config number {text} is not finite")


def _load_config(path: str, experiment: str) -> dict:
    try:
        text = Path(path).read_text()
    except OSError as e:
        raise ConfigError(f"cannot read config: {e}") from e
    try:
        cfg = json.loads(
            text, parse_float=_finite(float), parse_int=_finite(int),
            parse_constant=_non_finite,
        )
    except json.JSONDecodeError as e:
        raise ConfigError(f"config is not valid JSON: {e}") from e
    try:
        jsonschema.validate(cfg, _TOP_SCHEMA)
        jsonschema.validate(cfg["params"], _PARAM_SCHEMAS[cfg["experiment"]])
    except jsonschema.ValidationError as e:
        raise ConfigError(f"config schema violation: {e.message}") from e
    if cfg["experiment"] != experiment:
        raise ConfigError(
            f"config is for experiment {cfg['experiment']!r}, not {experiment!r}"
        )
    return cfg


def _resolve_config(cfg: dict, args) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "experiment": cfg["experiment"],
        "seed": args.seed if args.seed is not None else cfg.get("seed", 0),
        "output": {
            "format": args.format or cfg.get("output", {}).get("format", "json"),
            "path": args.out or cfg.get("output", {}).get("path", "."),
        },
        "params": {**_PARAM_DEFAULTS[cfg["experiment"]], **cfg["params"]},
    }


def _method_from(params: dict, seed: int):
    m = params.get("method", {"kind": "quadrature"})
    if m["kind"] == "quadrature":
        return Quadrature(nodes=m.get("nodes", DEFAULT_QUADRATURE_NODES))
    return MonteCarlo(samples=m.get("samples", DEFAULT_MC_SAMPLES), seed=seed)


def _grid(spec: dict) -> np.ndarray:
    if spec["start"] > spec["stop"]:
        raise ConfigError(f"grid start {spec['start']} is above its stop {spec['stop']}")
    n = int(round((spec["stop"] - spec["start"]) / spec["step"])) + 1
    return spec["start"] + spec["step"] * np.arange(n)


def _quantizer_for_bits(bits, kappa, pbar) -> QuantizerSpec:
    if bits is None:
        return QuantizerSpec.identity()
    return QuantizerSpec.uniform_midrise(bits, clip_for_power(pbar, kappa))


# ---------------------------------------------------------------------------
# result serialization (deterministic bytes)
# ---------------------------------------------------------------------------

def _fmt(v):
    if v is None:
        return ""
    if isinstance(v, (np.floating, np.integer)):
        v = v.item()
    if isinstance(v, float):
        if math.isinf(v):
            return "inf" if v > 0 else "-inf"
        return repr(v)
    return str(v)


def _csv_bytes(header, rows) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    for row in rows:
        w.writerow([_fmt(v) for v in row])
    return buf.getvalue()


def _json_bytes(obj) -> str:
    def conv(v):
        if isinstance(v, dict):
            return {k: conv(x) for k, x in v.items()}
        if isinstance(v, (list, tuple)):
            return [conv(x) for x in v]
        if isinstance(v, (np.floating, np.integer)):
            return v.item()
        if isinstance(v, float) and math.isinf(v):
            return "inf" if v > 0 else "-inf"
        return v

    return json.dumps(conv(obj), indent=2, sort_keys=True) + "\n"


def _rows_or_json(resolved, header, rows, obj):
    if resolved["output"]["format"] == "csv":
        return {f"{resolved['experiment']}.csv": _csv_bytes(header, rows)}
    return {f"{resolved['experiment']}.json": _json_bytes(obj)}


# ---------------------------------------------------------------------------
# experiment implementations: each returns {filename: text}
# ---------------------------------------------------------------------------

def _run_moments(resolved: dict) -> dict:
    p = resolved["params"]
    q = quantizer_from_json(p["quantizer"])
    method = _method_from(p, resolved["seed"])
    if "channel" in p:
        ch = ChannelSpec.awgn(p["channel"]["noise_power"])
        adc = quantizer_from_json(p.get("adc", {"kind": "identity"}))
        m = chain_moments(q, ch, adc, p["pbar"], method)
        scope = "chain"
    else:
        m = tx_moments(q, p["pbar"], method)
        scope = "tx"
    rec = {
        "scope": scope,
        "gain_re": float(np.real(m.gain)),
        "gain_im": float(np.imag(m.gain)),
        "noise": m.noise,
        "input_power": m.input_power,
        "gain_stderr": m.gain_stderr,
        "noise_stderr": m.noise_stderr,
        "seed": resolved["seed"],
        "version": __version__,
    }
    return _rows_or_json(resolved, list(rec), [list(rec.values())], rec)


def _run_spectrum(resolved: dict) -> dict:
    p = resolved["params"]
    plan = SubbandPlan(fractions=tuple(p["fractions"]), powers=tuple(p["powers"]))
    m = tx_moments(quantizer_from_json(p["quantizer"]), plan.mean_power)
    rep = predict_spectrum(plan, m)
    header = ["band", "fraction", "power", "energy", "share", "min_share", "total_energy"]
    rows = [
        [i, plan.fractions[i], plan.powers[i], rep.band_energy[i], rep.band_share[i],
         rep.min_share[i], rep.total_energy]
        for i in range(plan.num_bands)
    ]
    obj = {
        "band_energy": rep.band_energy,
        "band_share": rep.band_share,
        "min_share": rep.min_share,
        "total_energy": rep.total_energy,
        "seed": resolved["seed"],
        "version": __version__,
    }
    return _rows_or_json(resolved, header, rows, obj)


def _run_rate(resolved: dict) -> dict:
    p = resolved["params"]
    plan = SubbandPlan(fractions=tuple(p["fractions"]), powers=tuple(p["powers"]))
    q = quantizer_from_json(p["quantizer"])
    if "adc" in p:
        m = chain_moments(
            q, ChannelSpec.awgn(p["noise_power"]), quantizer_from_json(p["adc"]),
            plan.mean_power,
        )
        rep = linear_rate(plan, m)
    else:
        rep = awgn_linear_rate(plan, tx_moments(q, plan.mean_power), p["noise_power"])
    obj = {
        "bits_per_symbol": rep.bits_per_symbol,
        "band_bits": rep.band_bits,
        "shaping_loss_bits": rep.shaping_loss_bits,
        "regime": rep.regime,
        "seed": resolved["seed"],
        "version": __version__,
    }
    header = ["band", "fraction", "power", "bits", "total_bits", "regime"]
    rows = [
        [i, plan.fractions[i], plan.powers[i], rep.band_bits[i], rep.bits_per_symbol,
         rep.regime]
        for i in range(plan.num_bands)
    ]
    return _rows_or_json(resolved, header, rows, obj)


def _run_upper_bound(resolved: dict) -> dict:
    p = resolved["params"]
    q = quantizer_from_json(p["quantizer"])
    cset = constellation_of(q)
    m = tx_moments(q, p.get("pbar", 1.0)) if p.get("include_gap") else None
    rep = rate_upper_bound(cset, p["band_energy"], p["fractions"], m_tx=m)
    obj = {
        "max_entropy_bits": rep.max_entropy_bits,
        "shaping_loss_bits": rep.shaping_loss_bits,
        "bits_per_symbol": rep.bits_per_symbol,
        "tilt": None if math.isnan(rep.tilt) else rep.tilt,
        "gap_bits": rep.gap_bits,
        "mask_infeasible": rep.mask_infeasible,
        "seed": resolved["seed"],
        "version": __version__,
    }
    header = list(obj)
    return _rows_or_json(resolved, header, [list(obj.values())], obj)


def _run_sweep_snr(resolved: dict) -> dict:
    p = resolved["params"]
    plan = SubbandPlan(fractions=tuple(p["fractions"]), powers=tuple(p["powers"]))
    kappa = p.get("kappa", DEFAULT_KAPPA)
    rows = []
    for bits in p["bits"]:
        q = _quantizer_for_bits(bits, kappa, plan.mean_power)
        m = tx_moments(q, plan.mean_power)
        for snr_db in _grid(p["snr_db"]):
            rep = awgn_rate_at_transmit_snr(plan, m, 10.0 ** (snr_db / 10.0))
            rows.append(
                [float(snr_db), "inf" if bits is None else bits, rep.bits_per_symbol,
                 resolved["seed"], __version__]
            )
    header = ["snr_db", "bits", "rate_bps", "seed", "version"]
    obj = {"rows": [dict(zip(header, r)) for r in rows]}
    return _rows_or_json(resolved, header, rows, obj)


def _run_sweep_aclr(resolved: dict) -> dict:
    p = resolved["params"]
    fr = tuple(p["fractions"])
    if len(fr) != 2:
        raise ConfigError("sweep-aclr is defined for exactly two sub-bands")
    pbar = p.get("pbar", 1.0)
    kappa = p.get("kappa", DEFAULT_KAPPA)
    rows = []
    for bits in p["bits"]:
        if bits is None:
            raise ConfigError("sweep-aclr requires finite DAC resolutions")
        q = _quantizer_for_bits(bits, kappa, pbar)
        m = tx_moments(q, pbar)
        cset = constellation_of(q)
        s_tot = (abs(m.gain) ** 2 + m.noise) * pbar
        for aclr_db in _grid(p["aclr_db"]):
            ratio = 10.0 ** (aclr_db / 10.0)
            nu = (ratio / (1.0 + ratio), 1.0 / (1.0 + ratio))
            try:
                r_lin = noise_free_rate(fr, m, nu).bits_per_symbol
            except FeasibilityError:
                r_lin = None
            ub = rate_upper_bound(cset, (nu[0] * s_tot, nu[1] * s_tot), fr)
            rows.append(
                [float(aclr_db), bits, r_lin, ub.bits_per_symbol,
                 resolved["seed"], __version__]
            )
    header = ["aclr_db", "bits", "r_lin", "r_upper", "seed", "version"]
    obj = {"rows": [dict(zip(header, r)) for r in rows]}
    return _rows_or_json(resolved, header, rows, obj)


def _run_montecarlo(resolved: dict) -> dict:
    p = resolved["params"]
    plan = SubbandPlan(fractions=tuple(p["fractions"]), powers=tuple(p["powers"]))
    cfg = SimConfig(
        size=p["size"],
        plan=plan,
        dac=quantizer_from_json(p["quantizer"]),
        transform=p.get("transform", "haar"),
        trials=p.get("trials", 20),
        seed=resolved["seed"],
        channel=ChannelSpec.awgn(p.get("channel", {"noise_power": 0.0})["noise_power"])
        if "channel" in p
        else ChannelSpec.awgn(0.0),
        adc=quantizer_from_json(p.get("adc", {"kind": "identity"})),
        assignment=p.get("assignment", "contiguous"),
    )
    mode = p.get("mode", "tx")
    rep = run_chain_trials(cfg) if mode == "chain" else run_tx_trials(cfg)
    files = {"montecarlo.json": rep.to_json() + "\n"}
    if p.get("per_trial_csv", False):
        rows = []
        for t, band_vals in enumerate(rep.trial_band_energy):
            for b, val in enumerate(band_vals):
                rows.append([t, b, val, rep.predicted_band_energy[b]])
        files["montecarlo_trials.csv"] = _csv_bytes(
            ["trial", "band", "empirical_s", "predicted_s"], rows
        )
    return files


def _run_waveform(resolved: dict) -> dict:
    p = dict(resolved["params"])
    dac = p.pop("dac")
    cfg = WaveformConfig(
        dac_bits=dac["bits"],
        dac_kappa=dac.get("kappa", DEFAULT_KAPPA),
        dac_clip=dac.get("clip"),
        seed=resolved["seed"],
        **p,
    )
    stream = synthesize_baseband(cfg)
    rep = apply_dac_and_measure(cfg, stream)
    d = rep.to_dict()
    freq = d.pop("psd_freq")
    psd = d.pop("psd")
    d["seed"] = resolved["seed"]
    d["version"] = __version__
    psd_db = [10.0 * math.log10(v) if v > 0 else -math.inf for v in psd]
    files = {
        "waveform.json": _json_bytes(d),
        "waveform_psd.csv": _csv_bytes(
            ["freq_hz", "psd_db"], list(zip(freq, psd_db))
        ),
    }
    return files


_RUNNERS = {
    "moments": _run_moments,
    "spectrum": _run_spectrum,
    "rate": _run_rate,
    "upper-bound": _run_upper_bound,
    "sweep-snr": _run_sweep_snr,
    "sweep-aclr": _run_sweep_aclr,
    "montecarlo": _run_montecarlo,
    "waveform": _run_waveform,
}


def _cmd_defaults(args) -> int:
    d = package_defaults()
    if args.format == "csv":
        flat = []

        def walk(prefix, obj):
            for k, v in obj.items():
                key = f"{prefix}.{k}" if prefix else k
                if isinstance(v, dict):
                    walk(key, v)
                else:
                    flat.append([key, v])

        walk("", d)
        sys.stdout.write(_csv_bytes(["key", "value"], flat))
    else:
        sys.stdout.write(_json_bytes(d))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="qlt", description="quantized linear transceiver analysis"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _RUNNERS:
        sp = sub.add_parser(name, help=f"run the {name} experiment")
        sp.add_argument("--config", required=True, help="experiment config JSON")
        sp.add_argument("--out", default=None, help="output directory")
        sp.add_argument("--seed", type=int, default=None, help="master seed override")
        sp.add_argument("--format", choices=["csv", "json"], default=None)
    spd = sub.add_parser("defaults", help="dump all default decisions")
    spd.add_argument("--format", choices=["csv", "json"], default="json")
    args = parser.parse_args(argv)

    if args.command == "defaults":
        return _cmd_defaults(args)

    try:
        cfg = _load_config(args.config, args.command)
        resolved = _resolve_config(cfg, args)
        files = _RUNNERS[args.command](resolved)
    except (ConfigError, ValueError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except QltError as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return 3

    out_dir = Path(resolved["output"]["path"])
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "resolved_config.json").write_text(_json_bytes(resolved))
    for name, text in files.items():
        (out_dir / name).write_text(text)
        print(f"wrote {out_dir / name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
