"""Experiment runner: config ingestion, orchestration, result emission.

Subcommands: moments, spectrum, rate, upper-bound, sweep-snr, sweep-aclr,
montecarlo, waveform, defaults.  Every experiment is driven by a versioned
JSON config (see configs/ for presets); results and the fully resolved config
are written to the output directory.  Exit codes: 0 success, 2 config error,
3 numerical failure.
"""

import argparse
import csv
import functools
import io
import json
import math
import sys
from dataclasses import fields, is_dataclass
from itertools import repeat
from json.encoder import encode_basestring_ascii as _quote
from pathlib import Path
from typing import NamedTuple

import jsonschema
import numpy as np

from . import __version__
from .analysis import (
    FEASIBILITY_SLACK,
    SubbandPlan,
    awgn_linear_rate,
    awgn_rates_at_transmit_snr,
    linear_rate,
    noise_free_rate,
    predict_spectrum,
)
from .bounds import TILT_TOL, rate_upper_bound, upper_bound_rates
from .errors import ConfigError, FeasibilityError, QltError
from .moments import DEFAULT_MC_SAMPLES, MonteCarlo, Quadrature, chain_moments, tx_moments
from .montecarlo import LAYOUTS, TRANSFORMS, SimConfig, run_chain_trials, run_tx_trials
from .quantizer import DEFAULT_KAPPA, QuantizerSpec, constellation_of
from .waveform import WaveformConfig, measure_aclr

SCHEMA_VERSION = 1

#: Schema-only default of the moments method's ``nodes``: the key is accepted
#: and recorded but has no effect, since the quadrature is exact cell sums.  It
#: goes when the benchmark stops sending it (ROADMAP items 1-2).
DEFAULT_QUADRATURE_NODES = 129

# --- the experiment table: every schema, default and defaults dump derives from it

#: Markers for a key with no default: it must be given, or it may be left out.
REQUIRED = object()
OPTIONAL = object()


class _Table(dict):
    """The keys of a JSON object: name -> (spec, default).

    A spec is a JSON schema fragment or a nested ``_Table``; a default is a
    value, ``REQUIRED``, ``OPTIONAL`` or a ``_ForKind``.  The object's schema
    requires the ``REQUIRED`` keys, and those of its ``kind``, and rejects
    unknown ones; a key one kind requires is rejected under another kind.
    """


class _ForKind(NamedTuple):
    """A default, or ``REQUIRED``, that applies only where the object's
    ``kind`` is ``kind``."""

    kind: str
    value: object


_WAVEFORM = {f.name: f.default for f in fields(WaveformConfig)}
_SIM = {f.name: f.default for f in fields(SimConfig)}

_NUMBER = {"type": "number"}
_POSITIVE = {"type": "number", "exclusiveMinimum": 0}
_NON_NEGATIVE = {"type": "number", "minimum": 0}
_BOOL = {"type": "boolean"}
_NUMLIST = {"type": "array", "items": _NUMBER, "minItems": 1}


def _int(minimum: int) -> dict:
    return {"type": "integer", "minimum": minimum}


_BITS = {"oneOf": [_int(1), {"type": "null"}]}
_BITS_LIST = {"type": "array", "items": _BITS, "minItems": 1}

_QUANTIZER = _Table(
    kind=({"enum": ["identity", "uniform_midrise", "custom_levels"]}, REQUIRED),
    bits=(_int(1), _ForKind("uniform_midrise", REQUIRED)),
    clip=(_POSITIVE, _ForKind("uniform_midrise", REQUIRED)),
    levels=(_NUMLIST, _ForKind("custom_levels", REQUIRED)),
)
_CHANNEL = _Table(kind=({"enum": ["awgn"]}, REQUIRED), noise_power=(_NON_NEGATIVE, REQUIRED))
_METHOD = _Table(
    kind=({"enum": ["quadrature", "montecarlo"]}, REQUIRED),
    nodes=(_int(3), _ForKind("quadrature", DEFAULT_QUADRATURE_NODES)),
    samples=(_int(100), _ForKind("montecarlo", DEFAULT_MC_SAMPLES)),
)
_GRID = _Table(start=(_NUMBER, REQUIRED), stop=(_NUMBER, REQUIRED), step=(_POSITIVE, REQUIRED))
_DAC = _Table(
    bits=(_BITS, REQUIRED), kappa=(_POSITIVE, _WAVEFORM["dac_kappa"]), clip=(_POSITIVE, OPTIONAL)
)
_PLAN = {"fractions": (_NUMLIST, REQUIRED), "powers": (_NUMLIST, REQUIRED)}

# experiment -> its params; the defaults are merged into resolved configs so a
# logged config fully reproduces its run even if package defaults change later
EXPERIMENTS = {
    "moments": _Table(
        quantizer=(_QUANTIZER, REQUIRED),
        pbar=(_POSITIVE, REQUIRED),
        method=(_METHOD, {"kind": "quadrature"}),
        channel=(_CHANNEL, OPTIONAL),
        adc=(_QUANTIZER, OPTIONAL),
    ),
    "spectrum": _Table(quantizer=(_QUANTIZER, REQUIRED), **_PLAN),
    "rate": _Table(
        quantizer=(_QUANTIZER, REQUIRED),
        **_PLAN,
        noise_power=(_NON_NEGATIVE, REQUIRED),
        adc=(_QUANTIZER, OPTIONAL),
    ),
    "upper-bound": _Table(
        quantizer=(_QUANTIZER, REQUIRED),
        fractions=(_NUMLIST, REQUIRED),
        band_energy=(_NUMLIST, REQUIRED),
        include_gap=(_BOOL, False),
        pbar=(_POSITIVE, 1.0),
    ),
    "sweep-snr": _Table(
        bits=(_BITS_LIST, REQUIRED),
        kappa=(_POSITIVE, DEFAULT_KAPPA),
        **_PLAN,
        snr_db=(_GRID, REQUIRED),
    ),
    "sweep-aclr": _Table(
        bits=({**_BITS_LIST, "items": _int(1)}, REQUIRED),
        kappa=(_POSITIVE, DEFAULT_KAPPA),
        fractions=({**_NUMLIST, "minItems": 2, "maxItems": 2}, REQUIRED),
        aclr_db=(_GRID, REQUIRED),
        pbar=(_POSITIVE, 1.0),
    ),
    "montecarlo": _Table(
        size=(_int(1), REQUIRED),
        transform=({"enum": list(TRANSFORMS)}, _SIM["transform"]),
        trials=(_int(1), _SIM["trials"]),
        **_PLAN,
        quantizer=(_QUANTIZER, REQUIRED),
        channel=(_CHANNEL, OPTIONAL),
        adc=(_QUANTIZER, OPTIONAL),
        assignment=({"enum": list(LAYOUTS)}, _SIM["assignment"]),
        mode=({"enum": ["tx", "chain"]}, "tx"),
        per_trial_csv=(_BOOL, False),
    ),
    "waveform": _Table(
        occupied_bandwidth=(_POSITIVE, _WAVEFORM["occupied_bandwidth"]),
        sample_rate=(_POSITIVE, _WAVEFORM["sample_rate"]),
        guard_band=(_NON_NEGATIVE, _WAVEFORM["guard_band"]),
        num_subcarriers=(_int(8), _WAVEFORM["num_subcarriers"]),
        num_symbols=(_int(1), _WAVEFORM["num_symbols"]),
        dac=(_DAC, REQUIRED),
        symbol_taper=({"type": "number", "minimum": 0, "maximum": 1}, _WAVEFORM["symbol_taper"]),
        filter_taps=(_int(11), _WAVEFORM["filter_taps"]),
        filter_attenuation_db=(_POSITIVE, _WAVEFORM["filter_attenuation_db"]),
        zoh=(_BOOL, _WAVEFORM["zoh"]),
        psd_segment_length=(_int(64), _WAVEFORM["psd_segment_length"]),
        psd_overlap=({"type": "number", "minimum": 0, "maximum": 0.9}, _WAVEFORM["psd_overlap"]),
        psd_window=({"type": "string"}, _WAVEFORM["psd_window"]),
    ),
}

_OUTPUT = _Table(format=({"enum": ["csv", "json"]}, "json"), path=({"type": "string"}, "."))
_CONFIG = _Table(
    schema_version=({"const": SCHEMA_VERSION}, REQUIRED),
    experiment=({"enum": sorted(EXPERIMENTS)}, REQUIRED),
    seed=(_int(0), 0),
    output=(_OUTPUT, {}),
    params=({"type": "object"}, REQUIRED),
)


def schema_of(spec) -> dict:
    """The JSON schema of a table (or of a plain schema fragment)."""
    if not isinstance(spec, _Table):
        return spec
    schema = {
        "type": "object",
        "properties": {name: schema_of(s) for name, (s, _) in spec.items()},
        "required": [name for name, (_, d) in spec.items() if d is REQUIRED],
        "additionalProperties": False,
    }
    by_kind, owner = {}, {}
    for name, (_, d) in spec.items():
        if isinstance(d, _ForKind) and d.value is REQUIRED:
            by_kind.setdefault(d.kind, []).append(name)
            owner[name] = {"properties": {"kind": {"const": d.kind}}}
    if by_kind:
        schema["allOf"] = [
            {"if": {"properties": {"kind": {"const": kind}}, "required": ["kind"]},
             "then": {"required": names}}
            for kind, names in by_kind.items()
        ]
        schema["dependentSchemas"] = owner
    return schema


def _fill(table: _Table, doc: dict) -> dict:
    """``doc`` with every default of ``table`` filled in, nested objects too.

    A missing required object gets its defaults, if any, so ``_fill(table, {})``
    is what ``_fill`` adds to an object that holds only its required keys."""
    out = dict(doc)
    for name, (spec, default) in table.items():
        if isinstance(default, _ForKind):
            default = default.value if doc.get("kind") == default.kind else OPTIONAL
        if name not in out and default not in (REQUIRED, OPTIONAL):
            out[name] = default
        if isinstance(spec, _Table) and (name in out or default is REQUIRED):
            filled = _fill(spec, out.get(name, {}))
            if filled or name in out:
                out[name] = filled
    return out


# built once: constructing a validator skips the metaschema check that
# jsonschema.validate repeats on every call
_VALIDATORS = {
    name: jsonschema.Draft202012Validator(schema_of(table))
    for name, table in {"config": _CONFIG, **EXPERIMENTS}.items()
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
        "params": {name: _fill(table, {}) for name, table in EXPERIMENTS.items()},
    }


# --- config handling

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


def _validate(doc, name: str):
    error = jsonschema.exceptions.best_match(_VALIDATORS[name].iter_errors(doc))
    if error is not None:
        raise ConfigError(f"config schema violation: {error.message}")


def _load_config(path: str, experiment: str) -> dict:
    try:
        text = Path(path).read_text()
    except OSError as e:
        raise ConfigError(f"cannot read config: {e}") from e
    try:
        cfg = json.loads(text, parse_float=_finite(float), parse_int=_finite(int),
                         parse_constant=_non_finite)
    except json.JSONDecodeError as e:
        raise ConfigError(f"config is not valid JSON: {e}") from e
    _validate(cfg, "config")
    _validate(cfg["params"], cfg["experiment"])
    if cfg["experiment"] != experiment:
        raise ConfigError(f"config is for experiment {cfg['experiment']!r}, not {experiment!r}")
    return cfg


def _resolve_config(cfg: dict, args) -> dict:
    resolved = _fill(_CONFIG, cfg)
    resolved["params"] = _fill(EXPERIMENTS[cfg["experiment"]], cfg["params"])
    if args.seed is not None:
        resolved["seed"] = args.seed
    if args.format:
        resolved["output"]["format"] = args.format
    if args.out:
        resolved["output"]["path"] = args.out
    if resolved["output"]["format"] == "csv" and cfg["experiment"] in ("montecarlo", "waveform"):
        raise ConfigError(f"{cfg['experiment']}: output.format 'csv' is ignored")
    return resolved


def _grid(spec: dict) -> np.ndarray:
    if spec["start"] > spec["stop"]:
        raise ConfigError(f"grid start {spec['start']} is above its stop {spec['stop']}")
    # every point lies at or below stop; the slack absorbs the rounding of
    # (stop - start) / step when stop is a whole number of steps past start
    n = math.floor((spec["stop"] - spec["start"]) / spec["step"] + 1e-9) + 1
    return spec["start"] + spec["step"] * np.arange(n)


def _quantizer(obj: dict) -> QuantizerSpec:
    """The spec of a quantizer object that has passed the schema."""
    if obj["kind"] == "uniform_midrise":
        # the schema's integer admits 3.0
        return QuantizerSpec.uniform_midrise(int(obj["bits"]), obj["clip"])
    if obj["kind"] == "custom_levels":
        return QuantizerSpec.custom_levels(obj["levels"])
    return QuantizerSpec.identity()


def _power_ratios(grid, name: str) -> list:
    """The power ratio of each dB grid point, one scalar power per point
    (numpy's array power differs in the last bit at some points)."""
    with np.errstate(over="ignore"):
        ratios = [10.0 ** (db / 10.0) for db in grid]
    for db, ratio in zip(grid, ratios):
        if not math.isfinite(ratio):
            raise ValueError(f"{name} grid point {db} dB overflows its power ratio")
    return ratios


# --- result serialization (deterministic bytes)

def _csv_bytes(header, rows) -> str:
    """CSV text; a cell is ``str`` of its value (floats give inf, -inf and
    nan), and None is an empty cell."""
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    w.writerows(rows)
    return buf.getvalue()


def json_text(obj) -> str:
    """The JSON text every result and resolved config is written as.

    Objects have sorted (str) keys and arrays a two-space indent; dataclasses
    become objects, tuples arrays and numpy scalars Python values; floats are
    written by ``float.__repr__``, +/-inf as the strings "inf" and "-inf" and
    NaN as null, so the text is strict JSON.  The bytes are those of
    ``json.dumps(..., indent=2, sort_keys=True)`` on the converted values, in
    one walk.
    """
    out = []
    _emit(obj, "\n", out)
    out.append("\n")
    return "".join(out)


def _emit(v, newline: str, out: list) -> None:
    """Append the JSON text of ``v``, nested at the indent after ``newline``."""
    if isinstance(v, str):
        out.append(_quote(v))
    elif v is None:
        out.append("null")
    elif isinstance(v, bool):
        out.append("true" if v else "false")
    elif isinstance(v, float):
        if v != v:
            out.append("null")
        elif math.isinf(v):
            out.append('"inf"' if v > 0 else '"-inf"')
        else:
            out.append(float.__repr__(v))
    elif isinstance(v, int):
        out.append(int.__repr__(v))
    elif isinstance(v, (list, tuple)):
        if not v:
            out.append("[]")
            return
        inner = newline + "  "
        sep = "[" + inner
        for x in v:
            out.append(sep)
            _emit(x, inner, out)
            sep = "," + inner
        out.append(newline + "]")
    elif isinstance(v, dict):
        if not v:
            out.append("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for k in sorted(v):
            out.append(sep + _quote(k) + ": ")  # TypeError for a key that is not a str
            _emit(v[k], inner, out)
            sep = "," + inner
        out.append(newline + "}")
    elif isinstance(v, np.generic):
        _emit(v.item(), newline, out)
    elif is_dataclass(v):
        _emit(vars(v), newline, out)
    else:
        raise TypeError(f"Object of type {type(v).__name__} is not JSON serializable")


def _stamped(resolved: dict, record: dict) -> dict:
    """``record``, then the run's seed and the package version."""
    return {**record, "seed": resolved["seed"], "version": __version__}


def _rows_or_json(resolved, header, rows, obj=None):
    """The result file: ``rows`` as CSV, or ``obj`` (by default the rows) as JSON."""
    if resolved["output"]["format"] == "csv":
        return {f"{resolved['experiment']}.csv": _csv_bytes(header, rows)}
    if obj is None:
        obj = {"rows": [dict(zip(header, r)) for r in rows]}
    return {f"{resolved['experiment']}.json": json_text(obj)}


def _record(resolved, rec: dict) -> dict:
    """A one-row result: ``rec``, stamped, as one CSV row or one JSON object."""
    rec = _stamped(resolved, rec)
    return _rows_or_json(resolved, list(rec), [list(rec.values())], rec)


def _per_band(resolved, plan: SubbandPlan, rep, header, *columns) -> dict:
    """A per-band table: band, fraction and power, then ``columns``, one value
    per band each; JSON gets ``rep``, stamped."""
    rows = [list(row) for row in zip(range(plan.num_bands), plan.fractions, plan.powers, *columns)]
    return _rows_or_json(resolved, ["band", "fraction", "power", *header], rows,
                         _stamped(resolved, vars(rep)))


# --- experiment implementations: each returns {filename: text}

def _run_moments(resolved: dict) -> dict:
    p = resolved["params"]
    q = _quantizer(p["quantizer"])
    how = p["method"]
    if how["kind"] == "quadrature":
        method = Quadrature()
    else:
        method = MonteCarlo(samples=how["samples"], seed=resolved["seed"])
    if "channel" in p:
        adc = _quantizer(p.get("adc", {"kind": "identity"}))
        m = chain_moments(q, p["channel"]["noise_power"], adc, p["pbar"], method)
        scope = "chain"
    elif "adc" in p:
        raise ConfigError("moments: an adc needs a channel; without one the run is tx-only")
    else:
        m = tx_moments(q, p["pbar"], method)
        scope = "tx"
    return _record(resolved, {
        "scope": scope,
        "gain_re": m.gain,
        "gain_im": 0.0,
        "noise": m.noise,
        "input_power": m.input_power,
        "gain_stderr": m.gain_stderr,
        "noise_stderr": m.noise_stderr,
    })


def _run_spectrum(resolved: dict) -> dict:
    p = resolved["params"]
    plan = SubbandPlan(p["fractions"], p["powers"])
    rep = predict_spectrum(plan, tx_moments(_quantizer(p["quantizer"]), plan.mean_power))
    return _per_band(resolved, plan, rep, ["energy", "share", "min_share", "total_energy"],
                     rep.band_energy, rep.band_share, rep.min_share, repeat(rep.total_energy))


def _run_rate(resolved: dict) -> dict:
    p = resolved["params"]
    plan = SubbandPlan(p["fractions"], p["powers"])
    q = _quantizer(p["quantizer"])
    if "adc" in p:
        m = chain_moments(q, p["noise_power"], _quantizer(p["adc"]), plan.mean_power)
        rep = linear_rate(plan, m)
    else:
        rep = awgn_linear_rate(plan, tx_moments(q, plan.mean_power), p["noise_power"])
    return _per_band(resolved, plan, rep, ["bits", "total_bits", "regime"],
                     rep.band_bits, repeat(rep.bits_per_symbol), repeat(rep.regime))


def _run_upper_bound(resolved: dict) -> dict:
    p = resolved["params"]
    q = _quantizer(p["quantizer"])
    cset = constellation_of(q)
    m = tx_moments(q, p["pbar"]) if p["include_gap"] else None
    rep = rate_upper_bound(cset, p["band_energy"], p["fractions"], m_tx=m)
    return _record(resolved, {**vars(rep), "tilt": None if math.isnan(rep.tilt) else rep.tilt})


def _run_sweep_snr(resolved: dict) -> dict:
    p = resolved["params"]
    plan = SubbandPlan(p["fractions"], p["powers"])
    grid = _grid(p["snr_db"])
    snr = _power_ratios(grid, "snr_db")
    rows = []
    for bits in p["bits"]:
        q = QuantizerSpec.midrise_for_power(bits, plan.mean_power, p["kappa"])
        rates = awgn_rates_at_transmit_snr(plan, tx_moments(q, plan.mean_power), snr)
        label = "inf" if bits is None else bits
        rows.extend([snr_db, label, r, resolved["seed"], __version__]
                    for snr_db, r in zip(map(float, grid), rates.tolist()))
    return _rows_or_json(resolved, ["snr_db", "bits", "rate_bps", "seed", "version"], rows)


def _run_sweep_aclr(resolved: dict) -> dict:
    p = resolved["params"]
    fr = tuple(p["fractions"])
    pbar = p["pbar"]
    grid = _grid(p["aclr_db"])
    ratios = np.array(_power_ratios(grid, "aclr_db"))
    nu = np.stack([ratios / (1.0 + ratios), 1.0 / (1.0 + ratios)], axis=-1)
    rows = []
    for bits in p["bits"]:
        q = QuantizerSpec.midrise_for_power(bits, pbar, p["kappa"])
        m = tx_moments(q, pbar)
        r_upper = upper_bound_rates(constellation_of(q), nu * ((m.gain**2 + m.noise) * pbar), fr)
        for aclr_db, shares, ub in zip(map(float, grid), nu.tolist(), r_upper):
            try:
                r_lin = noise_free_rate(fr, m, shares).bits_per_symbol
            except FeasibilityError:
                r_lin = None
            rows.append([aclr_db, bits, r_lin, ub, resolved["seed"], __version__])
    return _rows_or_json(resolved, ["aclr_db", "bits", "r_lin", "r_upper", "seed", "version"], rows)


def _run_montecarlo(resolved: dict) -> dict:
    p = resolved["params"]
    chain = p["mode"] == "chain"
    if not chain and ("channel" in p or "adc" in p):
        raise ConfigError("montecarlo: channel and adc apply only in mode 'chain'")
    cfg = SimConfig(
        size=p["size"],
        plan=SubbandPlan(p["fractions"], p["powers"]),
        dac=_quantizer(p["quantizer"]),
        transform=p["transform"],
        trials=p["trials"],
        seed=resolved["seed"],
        noise_power=p["channel"]["noise_power"] if "channel" in p else 0.0,
        adc=_quantizer(p.get("adc", {"kind": "identity"})),
        assignment=p["assignment"],
    )
    rep = run_chain_trials(cfg) if chain else run_tx_trials(cfg)
    files = {"montecarlo.json": json_text(rep)}
    if p["per_trial_csv"]:
        rows = [
            [t, b, val, rep.predicted_band_energy[b]]
            for t, band_vals in enumerate(rep.trial_band_energy)
            for b, val in enumerate(band_vals)
        ]
        files["montecarlo_trials.csv"] = _csv_bytes(
            ["trial", "band", "empirical_s", "predicted_s"], rows
        )
    return files


def _run_waveform(resolved: dict) -> dict:
    p = dict(resolved["params"])
    dac = p.pop("dac")
    cfg = WaveformConfig(
        dac_bits=dac["bits"], dac_kappa=dac["kappa"], dac_clip=dac.get("clip"),
        seed=resolved["seed"], **p,
    )
    rec = _stamped(resolved, vars(measure_aclr(cfg)))
    freq = rec.pop("psd_freq")
    psd_db = [10.0 * math.log10(v) if v > 0 else -math.inf for v in rec.pop("psd")]
    return {
        "waveform.json": json_text(rec),
        "waveform_psd.csv": _csv_bytes(["freq_hz", "psd_db"], list(zip(freq, psd_db))),
    }


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


def _flat(d: dict, prefix: str = ""):
    for k, v in d.items():
        if isinstance(v, dict):
            yield from _flat(v, f"{prefix}{k}.")
        else:
            yield [prefix + k, v]


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and reused for the process."""
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
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)

    if args.command == "defaults":
        d = package_defaults()
        text = json_text(d) if args.format == "json" else _csv_bytes(["key", "value"], _flat(d))
        sys.stdout.write(text)
        return 0

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
    (out_dir / "resolved_config.json").write_text(json_text(resolved))
    for name, text in files.items():
        (out_dir / name).write_text(text)
        print(f"wrote {out_dir / name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
