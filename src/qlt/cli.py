"""Experiment runner: config ingestion, orchestration, result emission.

Subcommands: moments, spectrum, rate, upper-bound, sweep-snr, sweep-aclr,
montecarlo, waveform, defaults.  Every experiment is driven by a versioned
JSON config (see configs/ for presets).  One step, ``_resolve_config``,
walks the file against the experiment table and fills in every default,
then applies the command line's ``--seed``, ``--format`` and ``--out``, the
seed under the library's one seed rule (``_rng.SEED_RULE``: a non-negative
integer).  Results and the fully resolved config are written to the
output directory, and a rerun of that config writes the same bytes.  Exit
codes: 0 success, 2 config error (an unwritable output directory, or a size
whose array numpy cannot index, included), 3 numerical failure (an
allocation that fails included).  Each rule of a config has one owner.  The
library's configs (``SimConfig``, ``WaveformConfig``, ``MonteCarlo``,
``QuantizerSpec``) declare the type and bounds of their fields
(``BOUNDS``), which their ``__post_init__`` applies and the tables read;
``quantizer`` declares the rules of a mean power and a loading factor
(``pbar``, ``kappa``), and ``moments`` that of a noise power, which the
functions taking them apply; ``_rng`` declares the seed's.  Only the inert
quadrature ``nodes`` and the grids' ``step`` are ruled here.  The walk is
the one validator of a config: it reads each fragment through
``_rng.check_value``, the checker the library applies its rules with, and
a rejection is worded by that checker, naming the nearest config key, and
ends with the path of the value it names.  A missing key and an unknown
key, which break no rule of a fragment, are worded by the walk.  The
configs refuse, by name, the other values they cannot run, the sizes they
allocate included.
"""

import argparse
import functools
import json
import math
import sys
from dataclasses import fields, is_dataclass
from itertools import repeat
from json.encoder import encode_basestring_ascii as _quote
from pathlib import Path

# no config is checked or worded by jsonschema: perfbench's import profile
# is this import's only reader (ROADMAP item 1), and it goes with that read
import jsonschema  # noqa: F401
import numpy as np

from . import __version__
from ._rng import SEED_RULE, check_seed, check_size, check_value
from .analysis import (
    FEASIBILITY_SLACK,
    SubbandPlan,
    awgn_linear_rate,
    awgn_rates_at_transmit_snr,
    linear_rate,
    noise_free_rates,
    predict_spectrum,
)
from .bounds import TILT_TOL, rate_upper_bound, upper_bound_rates
from .errors import ConfigError, QltError
from .moments import DEFAULT_MC_SAMPLES, MonteCarlo, chain_moments, tx_moments
from .montecarlo import SimConfig, run_chain_trials, run_tx_trials
from .quantizer import DEFAULT_KAPPA, KAPPA_RULE, POWER_RULE, QuantizerSpec, constellation_of
from .waveform import WaveformConfig, measure_aclr

SCHEMA_VERSION = 1

#: Schema-only default of the moments method's ``nodes``: the key is accepted
#: and recorded but has no effect, since the quadrature is exact sums over the
#: quantizers' thresholds.  It goes when the benchmark stops sending it
#: (ROADMAP items 1-2).
DEFAULT_QUADRATURE_NODES = 129

# --- the experiment table: every schema, default and defaults dump derives from it

#: Markers for a key with no default: it must be given, or it may be left out.
REQUIRED = object()
OPTIONAL = object()


class _Table(dict):
    """The keys of a JSON object: name -> (spec, default).

    A spec is a JSON schema fragment, a nested ``_Table`` or a ``_Kinds``; a
    default is a value, ``REQUIRED`` or ``OPTIONAL``.  The object's schema
    requires the ``REQUIRED`` keys and rejects unknown ones.
    """


class _Kinds(dict):
    """A JSON object whose required ``kind`` selects its other keys: kind ->
    the ``_Table`` of that kind's own keys.  A key of another kind is an
    unknown key of the kind's table."""


_NUMBER = {"type": "number"}
_BOOL = {"type": "boolean"}
_NUMLIST = {"type": "array", "items": _NUMBER, "minItems": 1}


# every rule on a field of the library's configs is the config's own
# declaration (``BOUNDS``), the rule its ``__post_init__`` applies, and every
# rule on a library function's argument (``pbar``, ``kappa``, a noise power)
# is the one that function applies
_BITS = WaveformConfig.BOUNDS["dac_bits"]  # a DAC's bits, None for the ideal one
_BITS_LIST = {"type": "array", "items": _BITS, "minItems": 1}

_QUANTIZER = _Kinds({kind: _Table({name: (rule, REQUIRED) for name, rule in bounds.items()})
                     for kind, bounds in QuantizerSpec.BOUNDS.items()})
_CHANNEL = _Kinds(awgn=_Table(noise_power=(SimConfig.BOUNDS["noise_power"], REQUIRED)))
_METHOD = _Kinds(
    quadrature=_Table(nodes=({"type": "integer", "minimum": 3}, DEFAULT_QUADRATURE_NODES)),
    montecarlo=_Table(samples=(MonteCarlo.BOUNDS["samples"], DEFAULT_MC_SAMPLES)),
)
_GRID = _Table(start=(_NUMBER, REQUIRED), stop=(_NUMBER, REQUIRED),
               step=({"type": "number", "exclusiveMinimum": 0}, REQUIRED))
# an ideal DAC takes no clip, so a config leaves the clip out rather than null
_DAC = _Table(bits=(_BITS, REQUIRED),
              kappa=(WaveformConfig.BOUNDS["dac_kappa"], WaveformConfig.dac_kappa),
              clip=(QuantizerSpec.BOUNDS["uniform_midrise"]["clip"], OPTIONAL))
_PLAN = {"fractions": (_NUMLIST, REQUIRED), "powers": (_NUMLIST, REQUIRED)}


def _waveform_params() -> _Table:
    """``WaveformConfig``'s fields in their order, each with its rule and
    default; the ``dac_`` ones are the ``dac`` object, at the first one's
    place, and a config names its window by a string."""
    table = _Table()
    for f in fields(WaveformConfig):
        if f.name.startswith("dac_"):
            table["dac"] = (_DAC, REQUIRED)
        elif f.name != "seed":
            table[f.name] = (WaveformConfig.BOUNDS.get(f.name, {"type": "string"}), f.default)
    return table


# experiment -> its params; the defaults are merged into resolved configs so a
# logged config fully reproduces its run even if package defaults change later
EXPERIMENTS = {
    "moments": _Table(
        quantizer=(_QUANTIZER, REQUIRED),
        pbar=(POWER_RULE, REQUIRED),
        method=(_METHOD, {"kind": "quadrature"}),
        channel=(_CHANNEL, OPTIONAL),
        adc=(_QUANTIZER, OPTIONAL),
    ),
    "spectrum": _Table(quantizer=(_QUANTIZER, REQUIRED), **_PLAN),
    "rate": _Table(
        quantizer=(_QUANTIZER, REQUIRED),
        **_PLAN,
        noise_power=(SimConfig.BOUNDS["noise_power"], REQUIRED),
        adc=(_QUANTIZER, OPTIONAL),
    ),
    "upper-bound": _Table(
        quantizer=(_QUANTIZER, REQUIRED),
        fractions=(_NUMLIST, REQUIRED),
        band_energy=(_NUMLIST, REQUIRED),
        include_gap=(_BOOL, False),
        pbar=(POWER_RULE, 1.0),
    ),
    "sweep-snr": _Table(
        bits=(_BITS_LIST, REQUIRED),
        kappa=(KAPPA_RULE, DEFAULT_KAPPA),
        **_PLAN,
        snr_db=(_GRID, REQUIRED),
    ),
    "sweep-aclr": _Table(
        bits=({**_BITS_LIST, "items": QuantizerSpec.BOUNDS["uniform_midrise"]["bits"]}, REQUIRED),
        kappa=(KAPPA_RULE, DEFAULT_KAPPA),
        fractions=({**_NUMLIST, "minItems": 2, "maxItems": 2}, REQUIRED),
        aclr_db=(_GRID, REQUIRED),
        pbar=(POWER_RULE, 1.0),
    ),
    "montecarlo": _Table(
        size=(SimConfig.BOUNDS["size"], REQUIRED),
        transform=(SimConfig.BOUNDS["transform"], SimConfig.transform),
        trials=(SimConfig.BOUNDS["trials"], SimConfig.trials),
        **_PLAN,
        quantizer=(_QUANTIZER, REQUIRED),
        channel=(_CHANNEL, OPTIONAL),
        adc=(_QUANTIZER, OPTIONAL),
        assignment=(SimConfig.BOUNDS["assignment"], SimConfig.assignment),
        mode=({"enum": ["tx", "chain"]}, "tx"),
        per_trial_csv=(_BOOL, False),
    ),
    "waveform": _waveform_params(),
}

#: The experiments whose result files have a fixed format; every other one writes a table.
_FIXED_FORMAT = ("montecarlo", "waveform")

_OUTPUT = _Table(format=({"enum": ["csv", "json"]}, "json"), path=({"type": "string"}, "."))
_CONFIG = _Table(
    schema_version=({"enum": [SCHEMA_VERSION]}, REQUIRED),
    experiment=({"enum": sorted(EXPERIMENTS)}, REQUIRED),
    seed=(SEED_RULE, 0),
    output=(_OUTPUT, {}),
    params=({"type": "object"}, REQUIRED),
)


def _fill(table, doc: dict) -> dict:
    """``doc`` with every default of ``table`` (a ``_Table``, or a ``_Kinds``
    that fills in ``doc``'s kind) filled in, nested objects too.

    A missing required object gets its defaults, if any, so ``_fill(table, {})``
    is what ``_fill`` adds to an object that holds only its required keys."""
    if isinstance(table, _Kinds):
        table = table.get(doc.get("kind"), {})
    out = dict(doc)
    for name, (spec, default) in table.items():
        if name not in out and default not in (REQUIRED, OPTIONAL):
            out[name] = default
        if isinstance(spec, (_Table, _Kinds)) and (name in out or default is REQUIRED):
            filled = _fill(spec, out.get(name, {}))
            if filled or name in out:
                out[name] = filled
    return out


#: The tables a config is checked against: the config itself, then its params.
_TABLES = {"config": _CONFIG, **EXPERIMENTS}

# --- the config walk: the one validator of a config, and its words


class _Rejected(Exception):
    """The walk's rejection of a value of the config: the reason, and in
    ``keys`` the path from that value up, each level of the walk adding
    its key or index as the rejection unwinds."""

    def __init__(self, reason: str):
        super().__init__(reason)
        self.keys = []


def _walk(spec, v, name: str):
    """``v``, the value of config key ``name``, as checked against ``spec`` (a
    table, a ``_Kinds`` or a schema fragment), with every value of an
    ``integer`` an int; raises ``_Rejected`` where ``v`` breaks ``spec``.  A
    fragment's words are read by ``_rng.check_value``, after an
    integer-valued float of an ``integer`` becomes its int, as JSON Schema
    reads it, and its message, named by the nearest key, is the reason."""
    if isinstance(spec, _Kinds):
        # the kind picks the table of the object's other keys; an object
        # without one of the kinds is rejected by a table of the kind alone
        kind = v.get("kind") if isinstance(v, dict) else None
        if not (isinstance(kind, str) and kind in spec):
            _walk_table(_Table(kind=({"enum": list(spec)}, REQUIRED)),
                        {k: x for k, x in v.items() if k == "kind"} if isinstance(v, dict) else v, name)
        return {"kind": kind,
                **_walk_table(spec[kind], {k: x for k, x in v.items() if k != "kind"}, name)}
    if isinstance(spec, _Table):
        return _walk_table(spec, v, name)
    types = spec.get("type", ())
    if isinstance(v, float) and v.is_integer() and "integer" in (
            [types] if isinstance(types, str) else types):
        v = int(v)
    try:
        check_value(name, spec, v)
    except ValueError as e:
        raise _Rejected(str(e)) from None
    if "items" in spec and isinstance(v, list):
        items, v = v, []
        for i, x in enumerate(items):
            try:
                v.append(_walk(spec["items"], x, name))
            except _Rejected as e:
                e.keys.append(i)
                raise
    return v


def _walk_table(table: _Table, doc, name: str) -> dict:
    """An object, the value of key ``name``: its keys are the table's,
    every ``REQUIRED`` one present.  An unknown key and a missing one break
    no fragment's rule, so the walk words them, as JSON Schema does."""
    if not isinstance(doc, dict):
        _walk({"type": "object"}, doc, name)  # rejects doc by its type
    out = {}
    for key, v in doc.items():
        if key not in table:
            raise _Rejected(f"Additional properties are not allowed ({key!r} was unexpected)")
        try:
            out[key] = _walk(table[key][0], v, key)
        except _Rejected as e:
            e.keys.append(key)
            raise
    for key, (_, default) in table.items():
        if default is REQUIRED and key not in doc:
            raise _Rejected(f"{key!r} is a required property")
    return out


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

def _number(convert, text: str):
    """The JSON number literal ``text`` as ``convert`` reads it.  Literals
    past the float range (1e400, or a 400-digit integer) and the NaN /
    Infinity extensions are refused: they would reach the numerics as inf or
    nan, or overflow there."""
    if not math.isfinite(float(text)):
        raise ConfigError(f"config number {text} is not finite")
    return convert(text)


def _validate(doc, name: str):
    """``doc`` (the config, or the params of experiment ``name``) as the walk
    over ``_TABLES[name]`` accepts it.  A rejection gives the walk's reason
    and the path of the value it names in the config (the params are an
    object by then, so only the config itself is named by ``name``)."""
    try:
        return _walk(_TABLES[name], doc, name)
    except _Rejected as e:
        path = ".".join(map(str, [*(["params"] if name in EXPERIMENTS else []), *reversed(e.keys)]))
        raise ConfigError(f"config schema violation: {e}" + (f" (at {path})" if path else "")) from None


def _resolve_config(args) -> dict:
    """The config of the run ``args`` asks for, resolved: the file at
    ``args.config`` walked and filled in (the experiment checked against
    ``args.command`` before its params are walked), then the overrides
    ``args.seed``, ``args.format`` and ``args.out`` applied.  An invalid file
    value is an error whatever the overrides say; an empty ``--out`` is no
    override."""
    try:
        text = Path(args.config).read_text()
    except OSError as e:
        raise ConfigError(f"cannot read config: {e}") from e
    try:
        number = functools.partial(_number, float)
        cfg = json.loads(text, parse_float=number, parse_int=functools.partial(_number, int),
                         parse_constant=number)
    except json.JSONDecodeError as e:
        raise ConfigError(f"config is not valid JSON: {e}") from e
    cfg = _fill(_CONFIG, _validate(cfg, "config"))
    if cfg["experiment"] != args.command:
        raise ConfigError(f"config is for experiment {cfg['experiment']!r}, not {args.command!r}")
    cfg["params"] = _fill(EXPERIMENTS[args.command], _validate(cfg["params"], args.command))
    if args.seed is not None:
        check_seed(args.seed)
        cfg["seed"] = args.seed
    output = cfg["output"]
    output["format"] = args.format or output["format"]
    output["path"] = args.out or output["path"]
    if output["format"] == "csv" and args.command in _FIXED_FORMAT:
        raise ConfigError(f"{args.command}: output.format 'csv' is ignored")
    return cfg


def _grid(spec: dict, name: str) -> np.ndarray:
    """The points of the grid object ``spec``, the value of key ``name``."""
    if spec["start"] > spec["stop"]:
        raise ConfigError(f"{name} grid start {spec['start']} is above its stop {spec['stop']}")
    # every point lies at or below stop; the slack absorbs the rounding of
    # (stop - start) / step when stop is a whole number of steps past start
    steps = (spec["stop"] - spec["start"]) / spec["step"] + 1e-9
    check_size(steps, 8, f"{name} grid from {spec['start']} to {spec['stop']} "
                         f"in steps of {spec['step']}")
    return spec["start"] + spec["step"] * np.arange(math.floor(steps) + 1)


def _quantizer(obj: dict) -> QuantizerSpec:
    """The spec of a quantizer object that has passed the walk: its kind
    names the ``QuantizerSpec`` factory, and its other keys are the factory's
    arguments."""
    return getattr(QuantizerSpec, obj["kind"])(**{k: v for k, v in obj.items() if k != "kind"})


def _adc(p: dict) -> QuantizerSpec:
    """The params' ADC; the identity where they give none."""
    return _quantizer(p.get("adc", {"kind": "identity"}))


def _plan(p: dict) -> SubbandPlan:
    return SubbandPlan(p["fractions"], p["powers"])


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

def _csv_bytes(header, columns) -> str:
    """CSV text, the bytes ``csv.writer(buf, lineterminator="\\n")`` writes
    for the row ``header``, then one row per index of ``columns``, a sequence
    of values per header cell: a cell is ``str`` of its value (floats give inf,
    -inf and nan), and None is an empty cell.  Columns of unequal length, or
    not one per header cell, raise ``ValueError``, and so does a cell that
    csv would quote (one holding a comma, a quote or a line break): no result
    cell comes from user text, so none holds one.

    The cells are formatted a column at a time, ``str`` of every value.  Each
    column's cells go into one list, in row order with a comma or a line break
    after each, and one ``str.join`` builds the text.  A row's only cell, when
    empty, is written ``""``, as csv writes it.
    """
    if len(columns) != len(header):
        raise ValueError(f"{len(header)} header cells, but {len(columns)} columns")
    if not columns:
        return "\n"
    width, rows = 2 * len(columns), len(columns[0]) + 1
    parts = [","] * (width * rows)
    parts[width - 1::width] = repeat("\n", rows)
    for k, (name, values) in enumerate(zip(header, columns)):
        values = [name, *values]
        if len(values) != rows:
            raise ValueError("the columns are of unequal length")
        cells = list(map(str, values))
        if "None" in cells:
            cells = ["" if v is None else c for v, c in zip(values, cells)]
        text = "".join(cells)
        if any(ch in text for ch in ',"\r\n'):
            raise ValueError(f"column {name!r} holds a cell that csv would quote")
        parts[2 * k::width] = [c or '""' for c in cells] if width == 2 else cells
    return "".join(parts)


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


def _result_files(experiment: str, fmt: str, result) -> dict:
    """A runner's result as ``{file name: text}``.

    A table is ``(header, columns)``, one sequence of values per header cell,
    and every table travels in that form.  A fixed-format result is ``{file
    name: value}``, a ``.csv`` value being a table.  Any other result is
    ``(header, columns, obj)``, written as CSV or as ``obj`` in JSON; an
    ``obj`` of None stands for the rows, as objects."""
    if experiment in _FIXED_FORMAT:
        return {name: json_text(value) if name.endswith(".json") else _csv_bytes(*value)
                for name, value in result.items()}
    header, columns, obj = result
    if fmt == "csv":
        return {f"{experiment}.csv": _csv_bytes(header, columns)}
    if obj is None:
        obj = {"rows": [dict(zip(header, r)) for r in zip(*columns)]}
    return {f"{experiment}.json": json_text(obj)}


def _stamped(seed: int, record: dict) -> dict:
    """``record``, then the run's seed and the package version."""
    return {**record, "seed": seed, "version": __version__}


def _stamped_table(seed: int, header: list, columns: list, obj=None) -> tuple:
    """The table ``header, columns``, then the run's seed and the package
    version as two more columns, and ``obj``: what ``_result_files`` writes."""
    n = len(columns[0])
    return [*header, "seed", "version"], [*columns, [seed] * n, [__version__] * n], obj


def _record(seed: int, rec: dict) -> tuple:
    """A one-row table: ``rec``, stamped; its JSON is that one object."""
    return _stamped_table(seed, list(rec), [[v] for v in rec.values()], _stamped(seed, rec))


def _per_band(seed: int, plan: SubbandPlan, rep, header, *columns) -> tuple:
    """A per-band table: band, fraction and power, then ``columns``, stamped.
    A column is a tuple of a value per band; any other value stands for
    itself in every band.  The table's JSON is ``rep`` with the plan's
    fractions and powers, stamped."""
    n = plan.num_bands
    columns = [range(n), plan.fractions, plan.powers,
               *(c if isinstance(c, tuple) else [c] * n for c in columns)]
    rec = _stamped(seed, {**vars(rep), "fractions": plan.fractions, "powers": plan.powers})
    return _stamped_table(seed, ["band", "fraction", "power", *header], columns, rec)


# --- experiment implementations: (params, seed) -> what _result_files writes

def _run_moments(p: dict, seed: int) -> tuple:
    q = _quantizer(p["quantizer"])
    how = p["method"]
    method = None if how["kind"] == "quadrature" else MonteCarlo(how["samples"], seed)
    # no channel is a noise power of 0; no adc, an ideal one: tx_moments' chain
    noise_power = p["channel"]["noise_power"] if "channel" in p else 0.0
    m = chain_moments(q, noise_power, _adc(p), p["pbar"], method)
    return _record(seed, {
        "scope": "chain" if "channel" in p or "adc" in p else "tx",
        "gain_re": m.gain,
        "gain_im": 0.0,
        "noise": m.noise,
        "input_power": m.input_power,
        "gain_stderr": m.gain_stderr,
        "noise_stderr": m.noise_stderr,
    })


def _run_spectrum(p: dict, seed: int) -> tuple:
    plan = _plan(p)
    rep = predict_spectrum(plan, tx_moments(_quantizer(p["quantizer"]), plan.mean_power))
    return _per_band(seed, plan, rep, ["energy", "share", "min_share", "total_energy"],
                     rep.band_energy, rep.band_share, rep.min_share, rep.total_energy)


def _run_rate(p: dict, seed: int) -> tuple:
    plan = _plan(p)
    q = _quantizer(p["quantizer"])
    if "adc" in p:
        rep = linear_rate(plan, chain_moments(q, p["noise_power"], _adc(p), plan.mean_power))
    else:
        rep = awgn_linear_rate(plan, tx_moments(q, plan.mean_power), p["noise_power"])
    return _per_band(seed, plan, rep, ["bits", "total_bits", "regime", "shaping_loss_bits"],
                     rep.band_bits, rep.bits_per_symbol, rep.regime, rep.shaping_loss_bits)


def _run_upper_bound(p: dict, seed: int) -> tuple:
    q = _quantizer(p["quantizer"])
    if q.is_identity:
        raise ConfigError("upper-bound: an identity quantizer has no finite constellation to bound")
    m = tx_moments(q, p["pbar"]) if p["include_gap"] else None
    rep = rate_upper_bound(constellation_of(q), p["band_energy"], p["fractions"], m_tx=m)
    return _record(seed, {**vars(rep), "tilt": None if math.isnan(rep.tilt) else rep.tilt})


def _run_sweep_snr(p: dict, seed: int) -> tuple:
    plan = _plan(p)
    grid = _grid(p["snr_db"], "snr_db")
    snr = _power_ratios(grid, "snr_db")
    snr_db, labels, rate = [], [], []
    for bits in p["bits"]:
        q = QuantizerSpec.midrise_for_power(bits, plan.mean_power, p["kappa"])
        rate += awgn_rates_at_transmit_snr(plan, tx_moments(q, plan.mean_power), snr).tolist()
        snr_db += map(float, grid)
        labels += ["inf" if bits is None else bits] * grid.size
    return _stamped_table(seed, ["snr_db", "bits", "rate_bps"], [snr_db, labels, rate])


def _run_sweep_aclr(p: dict, seed: int) -> tuple:
    fr = tuple(p["fractions"])
    pbar = p["pbar"]
    grid = _grid(p["aclr_db"], "aclr_db")
    ratios = np.array(_power_ratios(grid, "aclr_db"))
    nu = np.stack([ratios / (1.0 + ratios), 1.0 / (1.0 + ratios)], axis=-1)
    aclr_db, labels, r_lin, r_upper = [], [], [], []
    for bits in p["bits"]:
        q = QuantizerSpec.midrise_for_power(bits, pbar, p["kappa"])
        m = tx_moments(q, pbar)
        r_upper += upper_bound_rates(constellation_of(q), (m.gain**2 + m.noise) * pbar, nu, fr)
        r_lin += noise_free_rates(fr, m, nu)
        aclr_db += map(float, grid)
        labels += [bits] * grid.size
    return _stamped_table(seed, ["aclr_db", "bits", "r_lin", "r_upper"],
                          [aclr_db, labels, r_lin, r_upper])


def _run_montecarlo(p: dict, seed: int) -> dict:
    chain = p["mode"] == "chain"
    if not chain and ("channel" in p or "adc" in p):
        raise ConfigError("montecarlo: channel and adc apply only in mode 'chain'")
    cfg = SimConfig(
        size=p["size"], plan=_plan(p), dac=_quantizer(p["quantizer"]), transform=p["transform"],
        trials=p["trials"], seed=seed, adc=_adc(p), assignment=p["assignment"],
        noise_power=p["channel"]["noise_power"] if "channel" in p else 0.0,
    )
    rep = run_chain_trials(cfg) if chain else run_tx_trials(cfg)
    files = {"montecarlo.json": rep}
    if p["per_trial_csv"]:
        t, b = len(rep.trial_band_energy), len(rep.predicted_band_energy)
        files["montecarlo_trials.csv"] = (["trial", "band", "empirical_s", "predicted_s"], [
            [i // b for i in range(t * b)], [*range(b)] * t,
            [s for trial in rep.trial_band_energy for s in trial], [*rep.predicted_band_energy] * t])
    return files


def _run_waveform(p: dict, seed: int) -> dict:
    cfg = WaveformConfig(**{k: v for k, v in p.items() if k != "dac"}, seed=seed,
                         **{f"dac_{k}": v for k, v in p["dac"].items()})
    rec = _stamped(seed, vars(measure_aclr(cfg)))
    freq = rec.pop("psd_freq")
    psd_db = [10.0 * math.log10(v) if v > 0 else -math.inf for v in rec.pop("psd")]
    return {"waveform.json": rec, "waveform_psd.csv": (["freq_hz", "psd_db"], [freq, psd_db])}


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


def _flat(d: dict, prefix: str = "") -> dict:
    """``d`` with its nested objects' keys joined by dots."""
    out = {}
    for k, v in d.items():
        out.update(_flat(v, f"{prefix}{k}.") if isinstance(v, dict) else {prefix + k: v})
    return out


def _write(out_dir: Path, resolved: dict, files: dict) -> None:
    """Write the resolved config and the result files into ``out_dir``; a
    ConfigError where the file system refuses."""
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "resolved_config.json").write_text(json_text(resolved))
        for name, text in files.items():
            (out_dir / name).write_text(text)
            print(f"wrote {out_dir / name}")
    except OSError as e:
        raise ConfigError(f"cannot write results: {e}") from e


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
        text = json_text(d) if args.format == "json" else _csv_bytes(
            ["key", "value"], [list(flat := _flat(d)), list(flat.values())])
        sys.stdout.write(text)
        return 0

    try:
        resolved = _resolve_config(args)
        result = _RUNNERS[args.command](resolved["params"], resolved["seed"])
        files = _result_files(args.command, resolved["output"]["format"], result)
        _write(Path(resolved["output"]["path"]), resolved, files)
    except (ConfigError, ValueError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except (QltError, MemoryError) as e:
        # a MemoryError is an allocation the address space refused; a bare
        # one has no message
        print(f"numerical failure: {str(e) or 'out of memory'}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
