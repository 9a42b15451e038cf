import argparse
import copy
import csv
import functools
import gc
import inspect
import io
import json
import math
import operator
import os
import pathlib
import subprocess
import sys
import tracemalloc
import warnings
from dataclasses import dataclass, fields, is_dataclass, replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from jsonschema import Draft202012Validator
from jsonschema.exceptions import best_match

from qlt import (
    FeasibilityError,
    MonteCarlo,
    QuantizerSpec,
    SimConfig,
    SubbandPlan,
    WaveformConfig,
    awgn_rate_at_transmit_snr,
    chain_moments,
    cli,
    clip_for_power,
    constellation_of,
    kl_divergence,
    max_entropy,
    noise_free_rate,
    tx_moments,
)
from qlt.cli import main, package_defaults


def write_cfg(tmp_path, obj, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(obj))
    return str(p)


def moments_cfg(out, **params):
    base = {
        "schema_version": 1,
        "experiment": "moments",
        "seed": 0,
        "output": {"format": "json", "path": out},
        "params": {
            "quantizer": {"kind": "uniform_midrise", "bits": 1, "clip": 1.0},
            "pbar": 1.0,
        },
    }
    base["params"].update(params)
    return base


def test_moments_subcommand(tmp_path, capsys):
    cfg = write_cfg(tmp_path, moments_cfg(str(tmp_path / "out")))
    assert main(["moments", "--config", cfg]) == 0
    rec = json.loads((tmp_path / "out" / "moments.json").read_text())
    assert rec["gain_re"] == pytest.approx(2 / math.sqrt(math.pi))
    assert rec["noise"] == pytest.approx(2 - 4 / math.pi)
    assert (tmp_path / "out" / "resolved_config.json").exists()


def test_defaults_dump(capsys):
    assert main(["defaults"]) == 0
    out = capsys.readouterr().out
    doc = json.loads(out)
    assert doc["quadrature_nodes"] == 129
    assert main(["defaults", "--format", "csv"]) == 0
    out = capsys.readouterr().out
    assert "quadrature_nodes,129" in out
    assert package_defaults()["clip_kappa"] == 3.0


def test_malformed_config_exits_2_without_output(tmp_path, capsys):
    bad = moments_cfg(str(tmp_path / "out"))
    bad["params"]["bogus_key"] = 1
    cfg = write_cfg(tmp_path, bad)
    assert main(["moments", "--config", cfg]) == 2
    assert not (tmp_path / "out").exists()
    # invalid JSON text
    p = tmp_path / "broken.json"
    p.write_text("{not json")
    assert main(["moments", "--config", str(p)]) == 2
    # missing file
    assert main(["moments", "--config", str(tmp_path / "nope.json")]) == 2
    # wrong experiment for the subcommand
    cfg2 = write_cfg(tmp_path, moments_cfg(str(tmp_path / "out")), name="c2.json")
    assert main(["spectrum", "--config", cfg2]) == 2
    assert not (tmp_path / "out").exists()


def test_an_unwritable_output_directory_exits_2_and_leaves_nothing(tmp_path, capsys):
    # --out names a path below a regular file: no directory can be made there
    blocker = tmp_path / "results"
    blocker.write_text("a file")
    cfg = write_cfg(tmp_path, moments_cfg(str(tmp_path / "unused")))
    assert main(["moments", "--config", cfg, "--out", str(blocker / "out")]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("config error: cannot write results: ")
    assert captured.out == ""
    assert blocker.read_text() == "a file"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json", "results"]


@pytest.mark.parametrize(
    "literal", ["1e400", "-1e400", "1" + "0" * 400, "NaN", "Infinity", "-Infinity"]
)
def test_non_finite_config_number_exits_2_without_output(tmp_path, capsys, literal):
    cfg = {
        "schema_version": 1,
        "experiment": "spectrum",
        "output": {"format": "json", "path": str(tmp_path / "out")},
        "params": {
            "quantizer": {"kind": "uniform_midrise", "bits": 1, "clip": 1.0},
            "fractions": [0.5, 0.5],
            "powers": ["POWER", 0.0],
        },
    }
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg).replace('"POWER"', literal))
    assert main(["spectrum", "--config", str(p)]) == 2
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_numerical_failure_exits_3(tmp_path, capsys):
    cfg = {
        "schema_version": 1,
        "experiment": "upper-bound",
        "output": {"format": "json", "path": str(tmp_path / "out")},
        "params": {
            "quantizer": {"kind": "uniform_midrise", "bits": 1, "clip": 1.0},
            "fractions": [0.5, 0.5],
            "band_energy": [100.0, 100.0],
        },
    }
    assert main(["upper-bound", "--config", write_cfg(tmp_path, cfg)]) == 3
    assert not (tmp_path / "out").exists()


def test_upper_bound_of_an_ideal_dac_is_a_config_error(tmp_path, capsys):
    cfg = {
        "schema_version": 1,
        "experiment": "upper-bound",
        "output": {"format": "json", "path": str(tmp_path / "out")},
        "params": {
            "quantizer": {"kind": "identity"},
            "fractions": [0.5, 0.5],
            "band_energy": [1.0, 1.0],
        },
    }
    assert main(["upper-bound", "--config", write_cfg(tmp_path, cfg)]) == 2
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("experiment, params", [
    ("spectrum", {}),
    ("montecarlo", {"size": 16, "trials": 2}),
    # a zero-output chain has no rate, whether its [0] quantizer is the adc
    # behind a noisy channel or the dac of a noiseless one
    ("rate", {"quantizer": {"kind": "uniform_midrise", "bits": 2, "clip": 1.0},
              "adc": {"kind": "custom_levels", "levels": [0]}, "noise_power": 0.1}),
    ("rate", {"noise_power": 0.0}),
])
def test_zero_output_quantizer_exits_3_without_output(tmp_path, capsys, experiment, params):
    cfg = {
        "schema_version": 1,
        "experiment": experiment,
        "output": {"format": "json", "path": str(tmp_path / "out")},
        "params": {
            "quantizer": {"kind": "custom_levels", "levels": [0]},
            "fractions": [0.5, 0.5],
            "powers": [1.5, 0.5],
            **params,
        },
    }
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([experiment, "--config", write_cfg(tmp_path, cfg)]) == 3
    assert "zero-output chain" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("experiment, params", [
    ("waveform", {"dac": {"bits": 3, "clip": 1e-300}, "num_symbols": 2}),
    ("montecarlo", {"mode": "chain", "quantizer": {"kind": "identity"},
                    "channel": {"kind": "awgn", "noise_power": 1e300},
                    "fractions": [0.5, 0.5], "powers": [1.5, 0.5], "size": 8, "trials": 2}),
    ("montecarlo", {"mode": "chain", "quantizer": {"kind": "identity"},
                    "channel": {"kind": "awgn", "noise_power": 1e308},
                    "fractions": [0.5, 0.5], "powers": [1.5, 0.5], "size": 8, "trials": 2}),
    # a subnormal clip whose levels stay distinct is a DAC, of zero output power
    ("waveform", {"dac": {"bits": 3, "clip": 1e-320}, "num_symbols": 2}),
], ids=["waveform-zero-dac-power", "montecarlo-noise-1e300", "montecarlo-noise-1e308",
        "waveform-subnormal-dac-clip"])
def test_a_non_finite_result_exits_3_without_output(tmp_path, capsys, experiment, params):
    # a DAC output that underflows to zero power has no ACLR, and a noise
    # power near the float range overflows the Monte-Carlo statistics
    cfg = {
        "schema_version": 1,
        "experiment": experiment,
        "output": {"format": "json", "path": str(tmp_path / "out")},
        "params": params,
    }
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([experiment, "--config", write_cfg(tmp_path, cfg)]) == 3
    assert "numerical failure" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


_MIDRISE_16 = {"kind": "uniform_midrise", "bits": 16, "clip": 2.1}
_CHANNEL = {"kind": "awgn", "noise_power": 0.1}


@pytest.mark.parametrize("experiment, params", [
    ("moments", {"quantizer": _MIDRISE_16, "pbar": 1.0, "channel": _CHANNEL, "adc": _MIDRISE_16}),
    ("montecarlo", {"mode": "chain", "size": 16, "trials": 2, "fractions": [0.5, 0.5],
                    "powers": [1.5, 0.5], "quantizer": _MIDRISE_16, "channel": _CHANNEL,
                    "adc": _MIDRISE_16}),
], ids=["moments", "montecarlo-chain"])
def test_a_cell_table_past_the_address_space_exits_3(tmp_path, experiment, params):
    # a 16-bit DAC and a 16-bit ADC ask the exact chain moments for a
    # 65,536 x 65,535 table of threshold tails, 32 GiB; the child may map
    # 3 GiB, so numpy's allocation fails at once instead of paging
    proc, out = _run_in_3_gib(tmp_path, experiment, params)
    assert proc.returncode == 3, proc.stderr
    assert proc.stderr.startswith("numerical failure: ")
    assert "65536-level DAC and a 65536-level ADC" in proc.stderr
    assert "65536 x 65535 table" in proc.stderr
    assert not out.exists()


def _run_in_3_gib(tmp_path, experiment, params):
    """The finished ``python -m qlt.cli`` child that ran ``params`` with an
    address space of 3 GiB, and its output directory."""
    resource = pytest.importorskip("resource")
    limit = 3 << 30

    def cap_address_space():
        hard = resource.getrlimit(resource.RLIMIT_AS)[1]
        resource.setrlimit(resource.RLIMIT_AS, (limit, hard))

    cfg = write_cfg(tmp_path, {"schema_version": 1, "experiment": experiment, "params": params})
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, "-m", "qlt.cli", experiment, "--config", cfg, "--out", str(out)],
        capture_output=True, text=True, env=_cli_env(), preexec_fn=cap_address_space,
    )
    return proc, out


_MIDRISE_3 = {"kind": "uniform_midrise", "bits": 3, "clip": 2.1}


@pytest.mark.parametrize("experiment, params", [
    ("montecarlo", {"size": 2**40, "trials": 1, "fractions": [0.5, 0.5], "powers": [1.5, 0.5],
                    "quantizer": _MIDRISE_3}),
    ("waveform", {"dac": {"bits": 3}, "num_symbols": 10**11}),
    ("waveform", {"dac": {"bits": 3}, "num_subcarriers": 2**40}),
    ("waveform", {"dac": {"bits": 3}, "num_symbols": 2, "filter_taps": 10**12}),
    ("moments", {"quantizer": _MIDRISE_3, "pbar": 1.0,
                 "method": {"kind": "montecarlo", "samples": 10**13}}),
    ("sweep-snr", {"bits": [2], "fractions": [0.5, 0.5], "powers": [1.5, 0.5],
                   "snr_db": {"start": 0, "stop": 1e12, "step": 1}}),
], ids=["montecarlo-size", "waveform-symbols", "waveform-subcarriers", "waveform-taps",
        "moments-samples", "sweep-snr-points"])
def test_an_allocation_past_the_address_space_exits_3(tmp_path, experiment, params):
    # each config asks numpy for terabytes at one allocation; with 3 GiB to
    # map, it fails at once and the run is a numerical failure, not a traceback
    proc, out = _run_in_3_gib(tmp_path, experiment, params)
    assert proc.returncode == 3, proc.stderr
    assert proc.stderr.startswith("numerical failure: Unable to allocate ")
    assert proc.stderr.count("\n") == 1
    assert not out.exists()


_UNINDEXABLE = 2**63 - 2


@pytest.mark.parametrize("experiment, params, message", [
    ("montecarlo", {"size": _UNINDEXABLE, "trials": 1, "fractions": [0.5, 0.5],
                    "powers": [1.5, 0.5], "quantizer": _MIDRISE_3},
     f"size {_UNINDEXABLE} x trials 1"),
    ("waveform", {"dac": {"bits": 3}, "num_symbols": _UNINDEXABLE},
     f"num_symbols {_UNINDEXABLE} x num_subcarriers 1024"),
    ("waveform", {"dac": {"bits": 3}, "num_symbols": 2, "filter_taps": 4611686018427387905},
     "filter_taps 4611686018427387905"),
    ("moments", {"quantizer": _MIDRISE_3, "pbar": 1.0,
                 "method": {"kind": "montecarlo", "samples": _UNINDEXABLE}},
     f"samples {_UNINDEXABLE}"),
], ids=["montecarlo-size", "waveform-symbols", "waveform-taps", "moments-samples"])
def test_a_size_whose_array_numpy_cannot_index_names_its_key(tmp_path, capsys, experiment,
                                                             params, message):
    # numpy refuses such an array before it allocates, with a message that
    # names no key (or a size wrapped negative); the run refuses it first
    cfg = write_cfg(tmp_path, {"schema_version": 1, "experiment": experiment, "params": params})
    out = tmp_path / "out"
    assert main([experiment, "--config", cfg, "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"config error: {message} has more points than an array can index\n")
    assert not out.exists()


_PLAN_5E_324 = {"fractions": [0.5, 0.5], "powers": [1e-323, 0.0]}  # mean power 5e-324
_PBAR_UNDERFLOWS = "pbar 5e-324 underflows its per-dimension variance pbar / 2 to 0"
_STEP_UNDERFLOWS = ("uniform_midrise clip 5e-324 puts its step below float resolution: "
                    "its levels are not strictly increasing")


@pytest.mark.parametrize("experiment, params, message", [
    ("moments", {"quantizer": _MIDRISE_3, "pbar": 5e-324}, _PBAR_UNDERFLOWS),
    ("spectrum", {"quantizer": _MIDRISE_3, **_PLAN_5E_324}, _PBAR_UNDERFLOWS),
    ("rate", {"quantizer": _MIDRISE_3, **_PLAN_5E_324, "noise_power": 0.1}, _PBAR_UNDERFLOWS),
    ("montecarlo", {"quantizer": _MIDRISE_3, **_PLAN_5E_324, "size": 16, "trials": 2},
     _PBAR_UNDERFLOWS),
    ("upper-bound", {"quantizer": _MIDRISE_3, "fractions": [0.5, 0.5], "band_energy": [1.0, 0.5],
                     "include_gap": True, "pbar": 5e-324}, _PBAR_UNDERFLOWS),
    ("moments", {"quantizer": {**_MIDRISE_3, "clip": 5e-324}, "pbar": 1.0}, _STEP_UNDERFLOWS),
    ("moments", {"quantizer": {**_MIDRISE_3, "clip": 5e-324}, "pbar": 1.0,
                 "method": {"kind": "montecarlo", "samples": 1000}}, _STEP_UNDERFLOWS),
    ("waveform", {"dac": {"bits": 3, "kappa": 5e-324}, "num_symbols": 2},
     f"dac_kappa 5e-324 sets the DAC clip from the stream power: {_STEP_UNDERFLOWS}"),
    ("waveform", {"dac": {"bits": 3}, "num_symbols": 2, "filter_attenuation_db": 6500.0},
     "filter_attenuation_db 6500.0 puts the Kaiser window's I0(beta) past the float range"),
], ids=["moments-pbar", "spectrum-mean-power", "rate-mean-power", "montecarlo-mean-power",
        "upper-bound-gap-pbar", "moments-subnormal-clip", "moments-subnormal-clip-sampled",
        "waveform-subnormal-kappa", "waveform-attenuation-6500-db"])
def test_a_value_past_float_resolution_is_a_config_error(tmp_path, capsys, experiment, params,
                                                          message):
    # each once ran on to a division by an underflowed 0 or by an
    # overflowed inf: a traceback, a RuntimeWarning, or gain and noise 0
    cfg = write_cfg(tmp_path, {"schema_version": 1, "experiment": experiment, "params": params})
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([experiment, "--config", cfg, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("experiment, params, field, expected", [
    # the band's SINR 1.7e309 is past the float range; its log2 is not
    ("rate", {"quantizer": {"kind": "identity"}, "noise_power": 0.1,
              "fractions": [1 / 3, 2 / 3], "powers": [1.7e308, 0]},
     "bits_per_symbol", 342.413772022186),
    ("moments", {"quantizer": {"kind": "identity"}, "pbar": 1e300,
                 "method": {"kind": "montecarlo", "samples": 1000}},
     "gain_stderr", 0.03326205163453231),
    ("moments", {"quantizer": {"kind": "uniform_midrise", "bits": 1, "clip": 1e-300},
                 "pbar": 1e20, "method": {"kind": "montecarlo", "samples": 1000}},
     "gain_stderr", float.fromhex("0x0.00059f2e2db4ep-1022")),  # 1.908709199534e-312
    # a finite noise past about 1e154 squares past the float range in its
    # standard error, from a huge clip or from a tiny pbar
    ("moments", {"quantizer": {"kind": "uniform_midrise", "bits": 3, "clip": 1e150},
                 "pbar": 1.0, "method": {"kind": "montecarlo", "samples": 1000}},
     "noise_stderr", 7.306130159630067e+295),
    ("moments", {"quantizer": {"kind": "uniform_midrise", "bits": 3, "clip": 1.5},
                 "pbar": 1e-300, "method": {"kind": "montecarlo", "samples": 1000}},
     "noise_stderr", 1.6438792859167653e+296),
    # the Kaiser window's I0(beta) is still finite at 6,000 dB
    ("waveform", {"dac": {"bits": 3}, "num_symbols": 2, "filter_attenuation_db": 6000.0},
     "aclr_db", 19.364367095199338),
], ids=["rate-sinr-overflow", "moments-stderr-overflow", "moments-map-index-overflow",
        "moments-noise-stderr-huge-clip", "moments-noise-stderr-tiny-pbar",
        "waveform-attenuation-6000-db"])
def test_an_extreme_finite_config_exits_0_with_finite_results(tmp_path, capsys, experiment, params,
                                                                 field, expected):
    # an intermediate past the float range would once warn and write "inf"
    cfg = {
        "schema_version": 1,
        "experiment": experiment,
        "output": {"format": "json", "path": str(tmp_path / "out")},
        "params": params,
    }
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([experiment, "--config", write_cfg(tmp_path, cfg)]) == 0
    rec = json.loads((tmp_path / "out" / f"{experiment}.json").read_text())
    assert "inf" not in json.dumps(rec)
    # a subnormal pin takes abs=0: rel=1e-12 is then narrower than its float
    # spacing (2.6e-12 relative here), so it must match exactly, where the
    # default abs=1e-12 would pass any value below 1e-12, 0.0 among them
    tol = {"abs": 0.0} if abs(expected) < sys.float_info.min else {}
    assert rec[field] == pytest.approx(expected, rel=1e-12, **tol)


def test_sweep_snr_rates_past_the_float_range_match_the_scaled_down_plan(tmp_path_factory):
    # the 1-bit DAC's moments and the SNR grid do not depend on the plan's
    # scale; at a band power of 1.7e308, gain**2 * powers overflows on the
    # way to a ratio of about 47, and must not leave that band inf bits
    rows = {}
    for power in (1.7e308, 1.7):
        params = {"bits": [1], "fractions": [0.01, 0.99], "powers": [power, 0.0],
                  "snr_db": {"start": 0.0, "stop": 20.0, "step": 10.0}}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rows[power] = [float(row[2]) for row in _sweep_rows(tmp_path_factory, "sweep-snr", params)]
    assert len(rows[1.7]) == 3 and all(0.05 < r < 0.08 for r in rows[1.7])
    assert rows[1.7e308] == pytest.approx(rows[1.7], rel=1e-12)


@pytest.mark.parametrize("bits", [17, 40])
def test_a_midrise_quantizer_past_16_bits_is_a_config_error(tmp_path, capsys, bits):
    cfg = moments_cfg(str(tmp_path / "out"),
                      quantizer={"kind": "uniform_midrise", "bits": bits, "clip": 1.0})
    assert main(["moments", "--config", write_cfg(tmp_path, cfg)]) == 2
    assert f"{bits} is greater than the maximum of 16 (at params.quantizer.bits)" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("bits", [1, 2])
def test_a_midrise_clip_past_the_float_range_is_a_config_error(tmp_path, capsys, bits):
    # 1-bit: the step 2 * clip overflows; 2-bit: the levels' clip * 3 does
    cfg = moments_cfg(str(tmp_path / "out"),
                      quantizer={"kind": "uniform_midrise", "bits": bits, "clip": 1e308},
                      method={"kind": "montecarlo", "samples": 1000})
    assert main(["moments", "--config", write_cfg(tmp_path, cfg)]) == 2
    assert "past the float range" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("experiment, params, message", [
    ("sweep-aclr", {"bits": [1], "fractions": [1.0, 0.0],
                    "aclr_db": {"start": 0.0, "stop": 1.0, "step": 1.0}}, "must be positive"),
    ("sweep-aclr", {"bits": [1], "fractions": [0.5, 0.5000000005],
                    "aclr_db": {"start": 0.0, "stop": 1.0, "step": 1.0}}, "must sum to 1"),
    ("upper-bound", {"quantizer": {"kind": "uniform_midrise", "bits": 1, "clip": 1.0},
                     "fractions": [1.0, 0.0], "band_energy": [1.0, 1.0]}, "must be positive"),
], ids=["sweep-aclr-zero", "sweep-aclr-sum", "upper-bound-zero"])
def test_every_experiment_rejects_the_fractions_a_plan_rejects(
    tmp_path, capsys, experiment, params, message
):
    cfg = {
        "schema_version": 1,
        "experiment": experiment,
        "output": {"format": "json", "path": str(tmp_path / "out")},
        "params": params,
    }
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([experiment, "--config", write_cfg(tmp_path, cfg)]) == 2
    assert f"bandwidth fractions {message}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_spectrum_and_rate_csv(tmp_path):
    cfg = {
        "schema_version": 1,
        "experiment": "spectrum",
        "output": {"format": "csv", "path": str(tmp_path / "o1")},
        "params": {
            "quantizer": {"kind": "uniform_midrise", "bits": 1, "clip": 1.0},
            "fractions": [0.5, 0.5],
            "powers": [2.0, 0.0],
        },
    }
    assert main(["spectrum", "--config", write_cfg(tmp_path, cfg, "s.json")]) == 0
    rows = (tmp_path / "o1" / "spectrum.csv").read_text().splitlines()
    assert rows[0].startswith("band,fraction,power,energy")
    assert len(rows) == 3
    cfg2 = {
        "schema_version": 1,
        "experiment": "rate",
        "output": {"format": "json", "path": str(tmp_path / "o2")},
        "params": {
            "quantizer": {"kind": "identity"},
            "fractions": [1.0],
            "powers": [1.0],
            "noise_power": 1.0,
        },
    }
    assert main(["rate", "--config", write_cfg(tmp_path, cfg2, "r.json")]) == 0
    rec = json.loads((tmp_path / "o2" / "rate.json").read_text())
    assert rec["bits_per_symbol"] == pytest.approx(1.0)
    # quantized receiver goes through the full-chain moments
    cfg3 = dict(cfg2, output={"format": "json", "path": str(tmp_path / "o3")})
    cfg3["params"] = dict(
        cfg2["params"], adc={"kind": "uniform_midrise", "bits": 2, "clip": 2.0}
    )
    assert main(["rate", "--config", write_cfg(tmp_path, cfg3, "r2.json")]) == 0
    rec3 = json.loads((tmp_path / "o3" / "rate.json").read_text())
    assert rec3["regime"] == "general_chain"
    assert 0 < rec3["bits_per_symbol"] < rec["bits_per_symbol"]


def test_moments_chain_and_upper_bound(tmp_path):
    cfg = moments_cfg(
        str(tmp_path / "chain"),
        channel={"kind": "awgn", "noise_power": 0.5},
        adc={"kind": "identity"},
    )
    assert main(["moments", "--config", write_cfg(tmp_path, cfg, "mc.json")]) == 0
    rec = json.loads((tmp_path / "chain" / "moments.json").read_text())
    assert rec["scope"] == "chain"
    assert rec["noise"] == pytest.approx(2 - 4 / math.pi + 0.5)

    ub = {
        "schema_version": 1,
        "experiment": "upper-bound",
        "output": {"format": "json", "path": str(tmp_path / "ub")},
        "params": {
            "quantizer": {"kind": "uniform_midrise", "bits": 1, "clip": 1.0},
            "fractions": [0.5, 0.5],
            "band_energy": [1.0, 1.0],
            "include_gap": True,
        },
    }
    assert main(["upper-bound", "--config", write_cfg(tmp_path, ub, "ub.json")]) == 0
    rec = json.loads((tmp_path / "ub" / "upper-bound.json").read_text())
    assert rec["bits_per_symbol"] == pytest.approx(2.0)
    assert rec["gap_bits"] == pytest.approx(2.0 - math.log2(1 + 2 / (math.pi - 2)))


def test_a_16_bit_upper_bound_runs_on_one_rail_of_levels(tmp_path):
    # the 16-bit constellation has 4**16 points; the bound reads one rail's
    # 2**16 levels and gives the library's finite maximum entropy
    params = {"quantizer": _MIDRISE_16, "fractions": [0.5, 0.5], "band_energy": [1.0, 0.5]}
    cfg = {"schema_version": 1, "experiment": "upper-bound", "params": params}
    out = tmp_path / "out"
    assert main(["upper-bound", "--config", write_cfg(tmp_path, cfg), "--out", str(out)]) == 0
    rec = json.loads((out / "upper-bound.json").read_text())
    want = max_entropy(constellation_of(QuantizerSpec.uniform_midrise(16, 2.1)), 1.5)
    assert rec["max_entropy_bits"] == want
    assert math.isfinite(want) and 0.0 < want < 32.0


@pytest.mark.parametrize("params, oracle", [
    ({"channel": {"kind": "awgn", "noise_power": 0.5}, "adc": {"kind": "identity"}},
     lambda: chain_moments(QuantizerSpec.uniform_midrise(1, 1.0), 0.5,
                           QuantizerSpec.identity(), 1.0)),
    ({"quantizer": {"kind": "uniform_midrise", "bits": 3.0, "clip": 2}},
     lambda: tx_moments(QuantizerSpec.uniform_midrise(3, 2.0), 1.0)),
    ({"quantizer": {"kind": "custom_levels", "levels": [-1.5, -0.25, 0.5, 2]}},
     lambda: tx_moments(QuantizerSpec.custom_levels([-1.5, -0.25, 0.5, 2.0]), 1.0)),
], ids=["identity-adc", "uniform_midrise-float-bits", "custom_levels"])
def test_moments_quantizer_objects_are_their_specs(tmp_path, params, oracle):
    cfg = write_cfg(tmp_path, moments_cfg(str(tmp_path / "out"), **params))
    assert main(["moments", "--config", cfg]) == 0
    rec = json.loads((tmp_path / "out" / "moments.json").read_text())
    m = oracle()
    assert float.hex(rec["gain_re"]) == float.hex(m.gain)
    assert float.hex(rec["noise"]) == float.hex(m.noise)


@pytest.mark.parametrize("method", [{"kind": "quadrature"}, {"kind": "montecarlo", "samples": 2000}],
                         ids=["exact", "sampled"])
def test_moments_with_an_adc_and_no_channel_is_the_noiseless_chain(tmp_path, method):
    # no channel is a noise power of 0, and the adc still acts on the DAC's output
    cfg = moments_cfg(str(tmp_path / "out"), quantizer=_MIDRISE_3, pbar=1.3, method=method,
                      adc={"kind": "uniform_midrise", "bits": 2, "clip": 1.5})
    cfg["seed"] = 5
    assert main(["moments", "--config", write_cfg(tmp_path, cfg)]) == 0
    rec = json.loads((tmp_path / "out" / "moments.json").read_text())
    m = chain_moments(QuantizerSpec.uniform_midrise(3, 2.1), 0.0, QuantizerSpec.uniform_midrise(2, 1.5),
                      1.3, None if method["kind"] == "quadrature" else MonteCarlo(2000, 5))
    assert rec["scope"] == "chain"
    assert [float.hex(rec[k]) for k in ("gain_re", "noise")] == [m.gain.hex(), m.noise.hex()]
    assert (rec["gain_stderr"], rec["noise_stderr"]) == (m.gain_stderr, m.noise_stderr)


def test_moments_chain_record_has_a_real_gain(tmp_path):
    # this Monte-Carlo run's sampled cross moment has an imaginary part beyond
    # 3 standard errors of zero; the chain is I/Q-symmetric, so it is noise
    cfg = moments_cfg(
        str(tmp_path / "out"),
        quantizer={"kind": "uniform_midrise", "bits": 2, "clip": 2.044042},
        pbar=1.581,
        method={"kind": "montecarlo", "samples": 20000},
        channel={"kind": "awgn", "noise_power": 0.0539},
        adc={"kind": "identity"},
    )
    cfg["seed"] = 726327979
    assert main(["moments", "--config", write_cfg(tmp_path, cfg)]) == 0
    rec = json.loads((tmp_path / "out" / "moments.json").read_text())
    assert rec["gain_im"] == 0.0
    assert rec["gain_re"] == 0.991011879806628  # the real part, as before


def test_sweep_snr_shape(tmp_path):
    cfg = {
        "schema_version": 1,
        "experiment": "sweep-snr",
        "seed": 3,
        "output": {"format": "csv", "path": str(tmp_path / "fig2")},
        "params": {
            "bits": [1, 3, None],
            "fractions": [0.5, 0.5],
            "powers": [2.0, 0.0],
            "snr_db": {"start": -10, "stop": 30, "step": 5},
        },
    }
    assert main(["sweep-snr", "--config", write_cfg(tmp_path, cfg)]) == 0
    # the logged config carries every default decision that applied
    resolved = json.loads((tmp_path / "fig2" / "resolved_config.json").read_text())
    assert resolved["params"]["kappa"] == 3.0
    lines = (tmp_path / "fig2" / "sweep-snr.csv").read_text().splitlines()
    assert lines[0] == "snr_db,bits,rate_bps,seed,version"
    assert len(lines) == 1 + 3 * 9
    # higher resolution never loses rate, and the ideal DAC tops the list
    by_bits = {}
    for ln in lines[1:]:
        snr, bits, rate = ln.split(",")[:3]
        by_bits.setdefault(bits, {})[float(snr)] = float(rate)
    for snr in by_bits["1"]:
        assert by_bits["1"][snr] <= by_bits["3"][snr] + 1e-12
        assert by_bits["3"][snr] <= by_bits["inf"][snr] + 1e-12
    # ideal-DAC row carries the Shannon rate of the in-band half
    assert by_bits["inf"][0.0] == pytest.approx(0.5 * math.log2(1.0 + 2.0))


def test_sweep_aclr_boundary(tmp_path):
    cfg = {
        "schema_version": 1,
        "experiment": "sweep-aclr",
        "output": {"format": "csv", "path": str(tmp_path / "fig3")},
        "params": {
            "bits": [1],
            "fractions": [0.5, 0.5],
            "aclr_db": {"start": 0.0, "stop": 12.0, "step": 0.5},
        },
    }
    assert main(["sweep-aclr", "--config", write_cfg(tmp_path, cfg)]) == 0
    lines = (tmp_path / "fig3" / "sweep-aclr.csv").read_text().splitlines()
    boundary = 10 * math.log10((0.5 + 1 / math.pi) / (0.5 - 1 / math.pi))
    for ln in lines[1:]:
        aclr, _, r_lin, r_upper = ln.split(",")[:4]
        assert r_upper != ""
        if float(aclr) <= boundary:
            assert r_lin != ""
        else:
            assert r_lin == ""


def test_sweep_aclr_negative_upper_bound_is_a_result(tmp_path):
    # at 18 dB the 1-bit shaping loss exceeds the 2 bits of entropy: no
    # modulator meets these band shares, which a negative bound reports
    cfg = {
        "schema_version": 1,
        "experiment": "sweep-aclr",
        "output": {"format": "json", "path": str(tmp_path / "out")},
        "params": {
            "bits": [1],
            "fractions": [0.5, 0.5],
            "aclr_db": {"start": 18.0, "stop": 18.0, "step": 1.0},
        },
    }
    assert main(["sweep-aclr", "--config", write_cfg(tmp_path, cfg)]) == 0
    (row,) = json.loads((tmp_path / "out" / "sweep-aclr.json").read_text())["rows"]
    assert row["aclr_db"] == 18.0
    assert row["r_upper"] < 0
    assert row["r_lin"] is None


def test_sweep_aclr_overflowing_grid_exits_2_without_output(tmp_path, capsys):
    cfg = {
        "schema_version": 1,
        "experiment": "sweep-aclr",
        "output": {"format": "csv", "path": str(tmp_path / "out")},
        "params": {
            "bits": [2],
            "fractions": [0.5, 0.5],
            "aclr_db": {"start": 3090, "stop": 3100, "step": 10},
        },
    }
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["sweep-aclr", "--config", write_cfg(tmp_path, cfg)]) == 2
    assert caught == []
    assert "grid point 3090" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_sweep_snr_overflowing_grid_exits_2_without_output(tmp_path, capsys):
    # 10 ** 310 overflows a float, like sweep-aclr's power ratio above
    cfg = {
        "schema_version": 1,
        "experiment": "sweep-snr",
        "output": {"format": "csv", "path": str(tmp_path / "out")},
        "params": {
            "bits": [2, None],
            "fractions": [0.5, 0.5],
            "powers": [1.5, 0.5],
            "snr_db": {"start": 3000, "stop": 3100, "step": 100},
        },
    }
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["sweep-snr", "--config", write_cfg(tmp_path, cfg)]) == 2
    assert caught == []
    assert "snr_db grid point 3100 dB overflows" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_sweep_snr_underflowing_grid_exits_2_without_output(tmp_path, capsys):
    # 10 ** (-400) underflows to an SNR of 0, which the rate rejects
    cfg = {
        "schema_version": 1,
        "experiment": "sweep-snr",
        "output": {"format": "csv", "path": str(tmp_path / "out")},
        "params": {
            "bits": [2, None],
            "fractions": [0.5, 0.5],
            "powers": [1.5, 0.5],
            "snr_db": {"start": -4000, "stop": -3990, "step": 1},
        },
    }
    assert main(["sweep-snr", "--config", write_cfg(tmp_path, cfg)]) == 2
    assert "config error: snr must be positive" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_sweep_aclr_underflowing_ratio_is_mask_infeasible(tmp_path):
    # a power ratio of 0 leaves the first band no share: no linear rate, and
    # an upper bound of -inf
    cfg = {
        "schema_version": 1,
        "experiment": "sweep-aclr",
        "output": {"format": "csv", "path": str(tmp_path / "out")},
        "params": {
            "bits": [1, 3],
            "fractions": [0.5, 0.5],
            "aclr_db": {"start": -4000, "stop": -3998, "step": 1},
        },
    }
    assert main(["sweep-aclr", "--config", write_cfg(tmp_path, cfg)]) == 0
    lines = (tmp_path / "out" / "sweep-aclr.csv").read_text().splitlines()
    assert lines[1:] == [
        f"{db},{bits},,-inf,0,{cli.__version__}" for bits in (1, 3) for db in (-4000.0, -3999.0, -3998.0)
    ]


def _grid_spec(start, points, step):
    return {"start": start, "stop": start + (points - 1) * step, "step": step}


@st.composite
def _plans(draw):
    parts = draw(st.lists(st.integers(1, 8), min_size=2, max_size=4))
    powers = draw(st.lists(st.just(0.0) | st.floats(0.01, 3.0), min_size=len(parts),
                           max_size=len(parts)).filter(any))
    return [p / sum(parts) for p in parts], powers


def _sweep_rows(out_root, experiment, params):
    out = out_root.mktemp(experiment)
    cfg = {"schema_version": 1, "experiment": experiment, "seed": 4,
           "output": {"format": "csv", "path": str(out)}, "params": params}
    assert main([experiment, "--config", write_cfg(out, cfg)]) == 0
    header, *rows = csv.reader(io.StringIO((out / f"{experiment}.csv").read_text()))
    return rows


def _hex(cell):
    return None if cell == "" else float(cell).hex()


_SNR_PLAN = ([0.25, 0.75], [0.0, 4 / 3])


@settings(derandomize=True, database=None, max_examples=20, deadline=None)
@given(
    plan=_plans(),
    bits=st.lists(st.none() | st.integers(1, 8), min_size=1, max_size=3),
    kappa=st.floats(1.0, 5.0),
    grid=st.builds(_grid_spec, st.integers(-20, 40), st.integers(1, 12), st.integers(1, 5))
    | st.builds(_grid_spec, st.floats(-20.0, 40.0), st.integers(1, 12),
                st.sampled_from([0.1, 0.25, 1.5])),
)
@example(plan=_SNR_PLAN, bits=[None, 3], kappa=3.0, grid=_grid_spec(-10, 5, 5))
@example(plan=_SNR_PLAN, bits=[2, 5, None], kappa=2.5, grid=_grid_spec(-10.0, 160, 0.25))
def test_sweep_snr_rows_match_per_point_rates(tmp_path_factory, plan, bits, kappa, grid):
    rows = _sweep_rows(tmp_path_factory, "sweep-snr", {
        "bits": bits, "kappa": kappa, "fractions": plan[0], "powers": plan[1], "snr_db": grid,
    })
    p = SubbandPlan(fractions=tuple(plan[0]), powers=tuple(plan[1]))
    expected = []
    for b in bits:
        q = QuantizerSpec.identity() if b is None else QuantizerSpec.uniform_midrise(
            b, clip_for_power(p.mean_power, kappa))
        m = tx_moments(q, p.mean_power)
        for db in cli._grid(grid, "snr_db"):
            rate = awgn_rate_at_transmit_snr(p, m, 10.0 ** (db / 10.0)).bits_per_symbol
            expected.append([str(float(db)), "inf" if b is None else str(b), rate.hex()])
    assert [[r[0], r[1], _hex(r[2])] for r in rows] == expected


@settings(derandomize=True, database=None, max_examples=20, deadline=None)
@given(
    split=st.integers(4, 28),
    bits=st.lists(st.integers(1, 6), min_size=1, max_size=3),
    kappa=st.floats(1.5, 5.0),
    pbar=st.floats(0.25, 4.0),
    grid=st.builds(_grid_spec, st.integers(-5, 25), st.integers(1, 12), st.integers(1, 3))
    | st.builds(_grid_spec, st.floats(-5.0, 25.0), st.integers(1, 12),
                st.sampled_from([0.125, 0.5, 1.5]))
    # the first point's power ratio underflows to 0
    | st.builds(lambda x: _grid_spec(-4000.0, 2, 4000.0 + x), st.floats(0.0, 20.0)),
)
@example(split=8, bits=[1, 4], kappa=3.0, pbar=1.0, grid=_grid_spec(-4000.0, 2, 4010.0))
def test_sweep_aclr_rows_match_per_point_bounds(tmp_path_factory, split, bits, kappa, pbar, grid):
    fr = [split / 32, 1.0 - split / 32]
    rows = _sweep_rows(tmp_path_factory, "sweep-aclr", {
        "bits": bits, "kappa": kappa, "fractions": fr, "aclr_db": grid, "pbar": pbar,
    })
    expected = []
    for b in bits:
        q = QuantizerSpec.uniform_midrise(b, clip_for_power(pbar, kappa))
        m = tx_moments(q, pbar)
        s_tot = (m.gain**2 + m.noise) * pbar
        for db in cli._grid(grid, "aclr_db"):
            ratio = 10.0 ** (db / 10.0)
            nu = (ratio / (1.0 + ratio), 1.0 / (1.0 + ratio))
            try:
                r_lin = noise_free_rate(fr, m, nu).bits_per_symbol.hex()
            except FeasibilityError:
                r_lin = None
            ub = max_entropy(constellation_of(q), s_tot) - kl_divergence(fr, nu)
            expected.append([str(float(db)), str(b), r_lin, ub.hex()])
    assert [[r[0], r[1], _hex(r[2]), _hex(r[3])] for r in rows] == expected
    if grid["start"] == -4000.0:
        assert [r[2:4] for r in rows[::2]] == [["", "-inf"]] * len(bits)


@pytest.mark.parametrize(
    "experiment, grid_key, params",
    [
        ("sweep-snr", "snr_db", {"bits": [1], "fractions": [0.5, 0.5], "powers": [2.0, 0.0]}),
        ("sweep-aclr", "aclr_db", {"bits": [1], "fractions": [0.5, 0.5]}),
    ],
    ids=["sweep-snr", "sweep-aclr"],
)
def test_sweep_grid_direction(tmp_path, capsys, experiment, grid_key, params):
    def cfg(name, start, stop, step=1.0):
        return {
            "schema_version": 1,
            "experiment": experiment,
            "output": {"format": "json", "path": str(tmp_path / name)},
            "params": dict(params, **{grid_key: {"start": start, "stop": stop, "step": step}}),
        }

    # a reversed grid is a config error and writes nothing
    bad = write_cfg(tmp_path, cfg("reversed", 5.0, 0.0), "reversed.json")
    assert main([experiment, "--config", bad]) == 2
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "reversed").exists()
    # so is a grid whose point count is past the float range, or past what
    # an array can index; the message names the key
    for name, start, stop, step in [("huge", -1e308, 1e308, 1e-300), ("fine", 0, 1, 1e-300)]:
        path = write_cfg(tmp_path, cfg(name, start, stop, step), f"{name}.json")
        assert main([experiment, "--config", path]) == 2
        assert (f"config error: {grid_key} grid from {start} to {stop} in steps of {step} "
                "has more points than an array can index") in capsys.readouterr().err
        assert not (tmp_path / name).exists()
    # start == stop is a one-point grid
    one = write_cfg(tmp_path, cfg("one", 3.0, 3.0), "one.json")
    assert main([experiment, "--config", one]) == 0
    rows = json.loads((tmp_path / "one" / f"{experiment}.json").read_text())["rows"]
    assert [r[grid_key] for r in rows] == [3.0]
    # a step that does not divide the range ends at the last point below stop
    short = write_cfg(tmp_path, cfg("short", 0.0, 1.0, 0.6), "short.json")
    assert main([experiment, "--config", short]) == 0
    rows = json.loads((tmp_path / "short" / f"{experiment}.json").read_text())["rows"]
    assert [r[grid_key] for r in rows] == [0.0, 0.6]


def test_montecarlo_subcommand_and_per_trial_csv(tmp_path):
    cfg = {
        "schema_version": 1,
        "experiment": "montecarlo",
        "seed": 5,
        "output": {"format": "json", "path": str(tmp_path / "mc")},
        "params": {
            "size": 128,
            "trials": 3,
            "fractions": [0.5, 0.5],
            "powers": [2.0, 0.0],
            "quantizer": {"kind": "uniform_midrise", "bits": 1, "clip": 1.0},
            "per_trial_csv": True,
        },
    }
    assert main(["montecarlo", "--config", write_cfg(tmp_path, cfg)]) == 0
    rep = json.loads((tmp_path / "mc" / "montecarlo.json").read_text())
    assert len(rep["band_energy"]) == 2
    lines = (tmp_path / "mc" / "montecarlo_trials.csv").read_text().splitlines()
    assert lines[0] == "trial,band,empirical_s,predicted_s"
    assert len(lines) == 1 + 3 * 2


@pytest.mark.parametrize("mode", ["tx", "chain"])
def test_a_one_sample_montecarlo_run_writes_no_null(tmp_path, capsys, mode):
    cfg = {
        "schema_version": 1,
        "experiment": "montecarlo",
        "output": {"format": "json", "path": str(tmp_path / "mc")},
        "params": {
            "size": 1,
            "trials": 1,
            "fractions": [1.0],
            "powers": [1.0],
            "quantizer": {"kind": "uniform_midrise", "bits": 1, "clip": 1.0},
            "mode": mode,
        },
    }
    if mode == "chain":
        cfg["params"]["channel"] = {"kind": "awgn", "noise_power": 0.1}
    assert main(["montecarlo", "--config", write_cfg(tmp_path, cfg)]) == 0
    assert "Warning" not in capsys.readouterr().err
    rep = json.loads((tmp_path / "mc" / "montecarlo.json").read_text())
    assert rep["noise_diagnostics"]["iq_correlation"] == 0.0
    if mode == "tx":  # a transmit-only run reports no correlations
        for key in ("band_correlation", "band_correlation_se", "predicted_band_correlation"):
            assert rep.pop(key) is None
    assert "null" not in json.dumps(rep)


def test_waveform_subcommand(tmp_path):
    cfg = {
        "schema_version": 1,
        "experiment": "waveform",
        "seed": 7,
        "output": {"format": "json", "path": str(tmp_path / "wf")},
        "params": {
            "num_symbols": 32,
            "dac": {"bits": 4, "kappa": 3.0},
        },
    }
    assert main(["waveform", "--config", write_cfg(tmp_path, cfg)]) == 0
    rep = json.loads((tmp_path / "wf" / "waveform.json").read_text())
    assert "aclr_db" in rep and "predicted_aclr_db" in rep
    psd = (tmp_path / "wf" / "waveform_psd.csv").read_text().splitlines()
    assert psd[0] == "freq_hz,psd_db"
    assert len(psd) > 1000


@pytest.mark.parametrize("params, bins", [
    # the adjacent bands start at the Nyquist edge, so no PSD bin falls in them
    ({"dac": {"bits": 4}, "num_symbols": 8, "sample_rate": 220e6}, 0),
    ({"dac": {"bits": 4}, "num_symbols": 8, "sample_rate": 221e6}, 9),
    ({"dac": {"bits": 3}, "num_symbols": 2, "psd_segment_length": 256}, 52),
], ids=["220MSps", "221MSps", "segment-256"])
def test_waveform_empty_adjacent_band_exits_2_without_output(tmp_path, capsys, params, bins):
    # the out-of-band flatness smooths each adjacent band over 32 bins and
    # needs twice that many; fewer would leave it unmeasured
    cfg = {"schema_version": 1, "experiment": "waveform", "params": params}
    out = tmp_path / "out"
    assert main(["waveform", "--config", write_cfg(tmp_path, cfg), "--out", str(out)]) == 2
    assert f"adjacent band holds {bins} PSD bins, fewer than the 64" in capsys.readouterr().err
    assert not out.exists()


def test_waveform_psd_window_that_cannot_be_built_exits_2_naming_the_key(tmp_path, capsys):
    # the schema takes any string; the config refuses one that is no window,
    # before synthesis, where scipy's message once came from the Welch estimate
    cfg = {"schema_version": 1, "experiment": "waveform",
           "params": {"num_symbols": 2, "dac": {"bits": 3}, "psd_window": "nope"}}
    out = tmp_path / "out"
    assert main(["waveform", "--config", write_cfg(tmp_path, cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("config error: psd_window 'nope' is not a window: ")
    assert not out.exists()


def test_waveform_ideal_dac_with_a_clip_exits_2_without_output(tmp_path, capsys):
    # the ideal DAC has no clip: one given is refused, not recorded unused
    cfg = {"schema_version": 1, "experiment": "waveform",
           "params": {"num_symbols": 2, "dac": {"bits": None, "clip": 1e-300}}}
    out = tmp_path / "out"
    assert main(["waveform", "--config", write_cfg(tmp_path, cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "config error: dac_clip 1e-300 needs dac_bits: the ideal DAC has no clip\n")
    assert not out.exists()


def test_rerun_with_resolved_config_is_byte_identical(tmp_path):
    out1 = str(tmp_path / "a")
    cfg = write_cfg(tmp_path, moments_cfg(out1, method={"kind": "montecarlo", "samples": 10000}))
    assert main(["moments", "--config", cfg]) == 0
    resolved = tmp_path / "a" / "resolved_config.json"
    assert main(["moments", "--config", str(resolved), "--out", str(tmp_path / "b")]) == 0
    a = (tmp_path / "a" / "moments.json").read_bytes()
    b = (tmp_path / "b" / "moments.json").read_bytes()
    assert a == b


def test_seed_override_changes_results(tmp_path):
    cfg_obj = {
        "schema_version": 1,
        "experiment": "montecarlo",
        "seed": 5,
        "output": {"format": "json", "path": str(tmp_path / "m1")},
        "params": {
            "size": 64,
            "trials": 2,
            "fractions": [0.5, 0.5],
            "powers": [2.0, 0.0],
            "quantizer": {"kind": "uniform_midrise", "bits": 1, "clip": 1.0},
        },
    }
    cfg = write_cfg(tmp_path, cfg_obj)
    assert main(["montecarlo", "--config", cfg]) == 0
    assert main(["montecarlo", "--config", cfg, "--out", str(tmp_path / "m2"), "--seed", "6"]) == 0
    a = json.loads((tmp_path / "m1" / "montecarlo.json").read_text())
    b = json.loads((tmp_path / "m2" / "montecarlo.json").read_text())
    assert a["band_energy"] != b["band_energy"]


def test_a_negative_seed_override_is_refused(tmp_path, capsys):
    # the seed rule of the library, the one the config's own seed obeys:
    # -1 would be written into a resolved config that its rerun refuses
    preset = pathlib.Path(__file__).resolve().parents[1] / "configs" / "moments_3bit.json"
    out = tmp_path / "out"
    assert main(["moments", "--config", str(preset), "--out", str(out), "--seed", "-1"]) == 2
    assert capsys.readouterr().err == "config error: seed must be non-negative, not -1\n"
    assert not out.exists()


def test_an_invalid_file_value_is_refused_whatever_the_overrides(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {"schema_version": 1, "experiment": "moments", "seed": -1,
                               "output": {"format": "xml"}, "params": MINIMAL["moments"]})
    out = tmp_path / "out"
    argv = ["moments", "--config", cfg, "--out", str(out), "--seed", "3", "--format", "json"]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("config error: config schema violation")
    assert not out.exists()


def test_the_experiment_is_checked_before_its_params(tmp_path, capsys):
    # moments params are no valid rate params, but the mismatch is the error
    cfg = write_cfg(tmp_path, {"schema_version": 1, "experiment": "rate",
                               "params": MINIMAL["moments"]})
    assert main(["moments", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == (
        "config error: config is for experiment 'rate', not 'moments'\n")
    assert not (tmp_path / "out").exists()


def test_shipped_presets_validate(tmp_path):
    configs = pathlib.Path(__file__).resolve().parents[1] / "configs"
    presets = sorted(configs.glob("*.json"))
    assert len(presets) == 5
    for preset in presets:
        doc = json.loads(preset.read_text())
        # every preset loads and resolves; the presets spell out every key they
        # rely on, so resolving adds defaults but changes none of their values
        resolved = cli._resolve_config(argparse.Namespace(
            command=doc["experiment"], config=str(preset), seed=None, format=None, out=None))
        assert {k: resolved["params"][k] for k in doc["params"]} == doc["params"]
        if doc["experiment"] in ("montecarlo", "waveform"):
            continue  # exercised separately; these run longer
        out = str(tmp_path / preset.stem)
        assert main([doc["experiment"], "--config", str(preset), "--out", out]) == 0


Q1 = {"kind": "uniform_midrise", "bits": 1, "clip": 1.0}

# the required params of each experiment, and nothing else
MINIMAL = {
    "moments": {"quantizer": Q1, "pbar": 1.0},
    "spectrum": {"quantizer": Q1, "fractions": [0.5, 0.5], "powers": [2.0, 0.0]},
    "rate": {"quantizer": Q1, "fractions": [0.5, 0.5], "powers": [2.0, 0.0], "noise_power": 0.1},
    "upper-bound": {"quantizer": Q1, "fractions": [0.5, 0.5], "band_energy": [1.0, 1.0]},
    "sweep-snr": {
        "bits": [1], "fractions": [0.5, 0.5], "powers": [2.0, 0.0],
        "snr_db": {"start": 0.0, "stop": 1.0, "step": 1.0},
    },
    "sweep-aclr": {
        "bits": [1], "fractions": [0.5, 0.5], "aclr_db": {"start": 0.0, "stop": 1.0, "step": 1.0},
    },
    "montecarlo": {"size": 16, "fractions": [0.5, 0.5], "powers": [2.0, 0.0], "quantizer": Q1},
    "waveform": {"dac": {"bits": 4}},
}


def _merged(base, extra):
    out = dict(base)
    for k, v in extra.items():
        out[k] = _merged(base[k], v) if isinstance(v, dict) and k in base else v
    return out


@pytest.mark.parametrize("experiment", sorted(MINIMAL))
def test_defaults_dump_is_what_a_minimal_config_resolves_to(tmp_path, capsys, experiment):
    assert main(["defaults"]) == 0
    dumped = json.loads(capsys.readouterr().out)["params"][experiment]
    cfg = {"schema_version": 1, "experiment": experiment, "params": MINIMAL[experiment]}
    out = tmp_path / "out"
    assert main([experiment, "--config", write_cfg(tmp_path, cfg), "--out", str(out)]) == 0
    resolved = json.loads((out / "resolved_config.json").read_text())
    assert resolved["params"] == _merged(MINIMAL[experiment], dumped)


def test_defaults_dump_layout(capsys):
    assert main(["defaults", "--format", "csv"]) == 0
    rows = capsys.readouterr().out.splitlines()
    assert "params.waveform.psd_window,hann" in rows
    assert "params.waveform.dac.kappa,3.0" in rows
    assert "params.moments.method.nodes,129" in rows
    assert "params.montecarlo.trials,20" in rows
    assert not [r for r in rows if r.startswith(("sim.", "waveform."))]


@pytest.mark.parametrize(
    "experiment, given, recorded",
    [
        ("waveform", {"dac": {"bits": 4}}, {"dac": {"bits": 4, "kappa": 3.0}}),
        ("waveform", {"dac": {"bits": None}}, {"dac": {"bits": None, "kappa": 3.0}}),
        (
            "moments",
            {"method": {"kind": "montecarlo"}},
            {"method": {"kind": "montecarlo", "samples": 1_000_000}},
        ),
        (
            "moments",
            {"method": {"kind": "quadrature"}},
            {"method": {"kind": "quadrature", "nodes": 129}},
        ),
        (
            "moments",
            {"method": {"kind": "montecarlo", "samples": 500}},
            {"method": {"kind": "montecarlo", "samples": 500}},
        ),
    ],
    ids=[
        "dac-kappa", "ideal-dac-kappa", "montecarlo-samples", "quadrature-nodes",
        "given-samples-kept",
    ],
)
def test_resolved_config_fills_nested_defaults(tmp_path, experiment, given, recorded):
    params = dict(MINIMAL[experiment], **given)
    if experiment == "waveform":
        params["num_symbols"] = 8
    cfg = {"schema_version": 1, "experiment": experiment, "params": params}
    out = tmp_path / "out"
    assert main([experiment, "--config", write_cfg(tmp_path, cfg), "--out", str(out)]) == 0
    resolved = json.loads((out / "resolved_config.json").read_text())
    for key, value in recorded.items():
        assert resolved["params"][key] == value


@pytest.mark.parametrize(
    "experiment, extra",
    [
        ("montecarlo", {"channel": {"kind": "awgn", "noise_power": 0.1}}),
        ("montecarlo", {"adc": Q1}),
        ("montecarlo", {"mode": "tx", "channel": {"kind": "awgn", "noise_power": 0.1}, "adc": Q1}),
    ],
    ids=["tx-channel", "tx-adc", "tx-explicit-channel-and-adc"],
)
def test_ignored_params_are_config_errors(tmp_path, capsys, experiment, extra):
    params = dict(MINIMAL[experiment], **extra)
    cfg = {"schema_version": 1, "experiment": experiment, "params": params}
    out = tmp_path / "out"
    assert main([experiment, "--config", write_cfg(tmp_path, cfg), "--out", str(out)]) == 2
    assert "config error" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("experiment", ["montecarlo", "waveform"])
@pytest.mark.parametrize("flag", [False, True], ids=["config", "flag"])
def test_csv_format_of_fixed_format_runs_is_a_config_error(tmp_path, capsys, experiment, flag):
    cfg = {"schema_version": 1, "experiment": experiment, "params": MINIMAL[experiment]}
    if not flag:
        cfg["output"] = {"format": "csv"}
    out = tmp_path / "out"
    argv = [experiment, "--config", write_cfg(tmp_path, cfg), "--out", str(out)]
    assert main(argv + (["--format", "csv"] if flag else [])) == 2
    assert "output.format 'csv' is ignored" in capsys.readouterr().err
    assert not out.exists()


# the JSON field of each per-band CSV column past the band index: a list
# holds one value per band, a scalar repeats down the column
PER_BAND_FIELDS = {
    "spectrum": {"fraction": "fractions", "power": "powers", "energy": "band_energy",
                 "share": "band_share", "min_share": "min_share", "total_energy": "total_energy",
                 "seed": "seed", "version": "version"},
    "rate": {"fraction": "fractions", "power": "powers", "bits": "band_bits",
             "total_bits": "bits_per_symbol", "regime": "regime",
             "shaping_loss_bits": "shaping_loss_bits", "seed": "seed", "version": "version"},
}


@pytest.mark.parametrize("experiment, fmt", [
    (experiment, fmt) for experiment in sorted(MINIMAL)
    for fmt in (("json",) if experiment in cli._FIXED_FORMAT else ("json", "csv"))])
def test_a_resolved_config_reruns_to_the_same_bytes(tmp_path, experiment, fmt):
    # the overrides are in the resolved config, so its rerun needs none
    cfg = write_cfg(tmp_path, {"schema_version": 1, "experiment": experiment,
                               "params": MINIMAL[experiment]})
    out = tmp_path / "out"
    assert main([experiment, "--config", cfg, "--seed", "7", "--out", str(out),
                 "--format", fmt]) == 0
    first = {p.name: p.read_bytes() for p in out.iterdir()}
    resolved = json.loads(first["resolved_config.json"])
    assert (resolved["seed"], resolved["output"]) == (7, {"format": fmt, "path": str(out)})
    assert main([experiment, "--config", str(out / "resolved_config.json")]) == 0
    assert {p.name: p.read_bytes() for p in out.iterdir()} == first


@pytest.mark.parametrize("experiment", sorted(set(MINIMAL) - set(cli._FIXED_FORMAT)))
def test_csv_and_json_carry_the_same_table(tmp_path, experiment):
    cfg = write_cfg(tmp_path, {"schema_version": 1, "experiment": experiment,
                               "params": MINIMAL[experiment]})
    text = {}
    for fmt in ("csv", "json"):
        out = tmp_path / fmt
        assert main([experiment, "--config", cfg, "--out", str(out), "--format", fmt]) == 0
        assert {p.name for p in out.iterdir()} == {f"{experiment}.{fmt}", "resolved_config.json"}
        text[fmt] = (out / f"{experiment}.{fmt}").read_text()
    header, *rows = csv.reader(io.StringIO(text["csv"]))
    doc = json.loads(text["json"])
    if experiment in PER_BAND_FIELDS:
        names = PER_BAND_FIELDS[experiment]
        assert header == ["band", *names]
        # every JSON field is a column
        assert sorted(doc) == sorted(names.values())
        table = [
            [b, *(doc[f][b] if isinstance(doc[f], list) else doc[f] for f in names.values())]
            for b in range(len(MINIMAL[experiment]["fractions"]))
        ]
    else:
        records = doc["rows"] if experiment.startswith("sweep") else [doc]
        assert records and all(sorted(r) == sorted(header) for r in records)
        table = [[r[h] for h in header] for r in records]
    assert rows == [["" if v is None else str(v) for v in row] for row in table]


DELETE = object()
LEVELS = {"kind": "custom_levels", "levels": [-1.0, 1.0]}
AWGN = {"kind": "awgn", "noise_power": 0.1}
GRID = {"start": 0.0, "stop": 1.0, "step": 1.0}

# one case per constraint of the config schemas: (experiment, path, value);
# DELETE removes the key
INVALID = {
    # top level
    "schema-version": ("moments", ("schema_version",), 2),
    "no-schema-version": ("moments", ("schema_version",), DELETE),
    "unknown-experiment": ("moments", ("experiment",), "nope"),
    "no-experiment": ("moments", ("experiment",), DELETE),
    "seed-negative": ("moments", ("seed",), -1),
    "seed-float": ("moments", ("seed",), 1.5),
    "output-unknown-key": ("moments", ("output",), {"dir": "x"}),
    "output-format": ("moments", ("output",), {"format": "xml"}),
    "output-path-type": ("moments", ("output",), {"path": 3}),
    "params-type": ("moments", ("params",), [1]),
    "no-params": ("moments", ("params",), DELETE),
    "top-unknown-key": ("moments", ("extra",), 1),
    # a missing required key in each experiment
    **{
        f"missing-{exp}-{key}": (exp, ("params", key), DELETE)
        for exp, key in [
            ("moments", "quantizer"), ("moments", "pbar"), ("spectrum", "quantizer"),
            ("spectrum", "fractions"), ("spectrum", "powers"), ("rate", "noise_power"),
            ("upper-bound", "band_energy"), ("sweep-snr", "bits"), ("sweep-snr", "snr_db"),
            ("sweep-aclr", "fractions"), ("sweep-aclr", "aclr_db"), ("montecarlo", "size"),
            ("montecarlo", "quantizer"), ("waveform", "dac"),
        ]
    },
    # an unknown key in each experiment's params
    **{f"{exp}-unknown-param": (exp, ("params", "bogus"), 1) for exp in MINIMAL},
    # quantizer
    "quantizer-kind": ("spectrum", ("params", "quantizer"), {"kind": "round"}),
    "quantizer-no-kind": ("spectrum", ("params", "quantizer"), {"bits": 1, "clip": 1.0}),
    "quantizer-bits": ("spectrum", ("params", "quantizer"), dict(Q1, bits=0)),
    "quantizer-clip": ("spectrum", ("params", "quantizer"), dict(Q1, clip=0.0)),
    "quantizer-levels-empty": ("spectrum", ("params", "quantizer"), dict(LEVELS, levels=[])),
    "quantizer-levels-type": ("spectrum", ("params", "quantizer"), dict(LEVELS, levels=["a"])),
    "quantizer-unknown-key": ("spectrum", ("params", "quantizer"), dict(Q1, gain=1.0)),
    # another kind's keys
    "quantizer-identity-with-bits": ("spectrum", ("params", "quantizer"),
                                     {"kind": "identity", "bits": 3}),
    "quantizer-midrise-with-levels": ("spectrum", ("params", "quantizer"), dict(Q1, levels=[1.0])),
    "quantizer-levels-with-clip": ("spectrum", ("params", "quantizer"), dict(LEVELS, clip=1.0)),
    "adc-identity-with-levels": ("rate", ("params", "adc"), {"kind": "identity", "levels": [1.0]}),
    "adc-kind": ("rate", ("params", "adc"), {"kind": "round"}),
    # channel
    "channel-kind": ("moments", ("params", "channel"), dict(AWGN, kind="rayleigh")),
    "channel-noise-negative": ("moments", ("params", "channel"), dict(AWGN, noise_power=-0.1)),
    "channel-no-noise": ("moments", ("params", "channel"), {"kind": "awgn"}),
    "channel-unknown-key": ("moments", ("params", "channel"), dict(AWGN, fade=1)),
    # method
    "method-kind": ("moments", ("params", "method"), {"kind": "exact"}),
    "method-no-kind": ("moments", ("params", "method"), {"nodes": 9}),
    "method-nodes": ("moments", ("params", "method"), {"kind": "quadrature", "nodes": 2}),
    "method-samples": ("moments", ("params", "method"), {"kind": "montecarlo", "samples": 0}),
    "method-unknown-key": ("moments", ("params", "method"), {"kind": "quadrature", "seed": 1}),
    # a key of the other kind, though neither kind requires it
    "method-montecarlo-with-nodes": ("moments", ("params", "method"),
                                     {"kind": "montecarlo", "samples": 1000, "nodes": 7}),
    "method-quadrature-with-samples": ("moments", ("params", "method"),
                                       {"kind": "quadrature", "samples": 1000}),
    # scalar params
    "pbar-zero": ("moments", ("params", "pbar"), 0.0),
    "fractions-empty": ("spectrum", ("params", "fractions"), []),
    "powers-type": ("spectrum", ("params", "powers"), [2.0, "x"]),
    "noise-power-negative": ("rate", ("params", "noise_power"), -0.1),
    "include-gap-type": ("upper-bound", ("params", "include_gap"), "yes"),
    "upper-bound-pbar": ("upper-bound", ("params", "pbar"), 0.0),
    # sweeps
    "bits-empty": ("sweep-snr", ("params", "bits"), []),
    "bits-zero": ("sweep-snr", ("params", "bits"), [0]),
    "kappa-zero": ("sweep-snr", ("params", "kappa"), 0.0),
    "step-zero": ("sweep-snr", ("params", "snr_db"), dict(GRID, step=0.0)),
    "step-negative": ("sweep-aclr", ("params", "aclr_db"), dict(GRID, step=-1.0)),
    "grid-no-start": ("sweep-snr", ("params", "snr_db"), {"stop": 1.0, "step": 1.0}),
    "grid-unknown-key": ("sweep-snr", ("params", "snr_db"), dict(GRID, n=2)),
    "sweep-aclr-pbar": ("sweep-aclr", ("params", "pbar"), -1.0),
    "sweep-aclr-three-bands": ("sweep-aclr", ("params", "fractions"), [0.25, 0.25, 0.5]),
    "sweep-aclr-ideal-dac": ("sweep-aclr", ("params", "bits"), [1, None]),
    # montecarlo
    "size-zero": ("montecarlo", ("params", "size"), 0),
    "trials-zero": ("montecarlo", ("params", "trials"), 0),
    "transform": ("montecarlo", ("params", "transform"), "dct"),
    "assignment": ("montecarlo", ("params", "assignment"), "random"),
    "mode": ("montecarlo", ("params", "mode"), "rx"),
    "per-trial-csv-type": ("montecarlo", ("params", "per_trial_csv"), 1),
    # waveform
    "occupied-bandwidth": ("waveform", ("params", "occupied_bandwidth"), 0.0),
    "sample-rate": ("waveform", ("params", "sample_rate"), 0.0),
    "guard-band": ("waveform", ("params", "guard_band"), -1.0),
    "num-subcarriers": ("waveform", ("params", "num_subcarriers"), 4),
    "num-symbols": ("waveform", ("params", "num_symbols"), 0),
    "symbol-taper-high": ("waveform", ("params", "symbol_taper"), 1.5),
    "symbol-taper-low": ("waveform", ("params", "symbol_taper"), -0.1),
    "filter-taps": ("waveform", ("params", "filter_taps"), 7),
    "filter-attenuation": ("waveform", ("params", "filter_attenuation_db"), 0.0),
    "zoh-type": ("waveform", ("params", "zoh"), "no"),
    "psd-segment-length": ("waveform", ("params", "psd_segment_length"), 32),
    "psd-overlap-high": ("waveform", ("params", "psd_overlap"), 0.95),
    "psd-overlap-low": ("waveform", ("params", "psd_overlap"), -0.1),
    "psd-window-type": ("waveform", ("params", "psd_window"), 3),
    "dac-no-bits": ("waveform", ("params", "dac"), {"kappa": 3.0}),
    "dac-bits": ("waveform", ("params", "dac"), {"bits": 0}),
    "dac-kappa": ("waveform", ("params", "dac"), {"bits": 4, "kappa": 0.0}),
    "dac-clip": ("waveform", ("params", "dac"), {"bits": 4, "clip": 0.0}),
    "dac-unknown-key": ("waveform", ("params", "dac"), {"bits": 4, "gain": 1.0}),
}


@pytest.mark.parametrize("case", sorted(INVALID))
def test_invalid_params_exit_2_without_output(tmp_path, capsys, case):
    experiment, path, value = INVALID[case]
    params = copy.deepcopy(MINIMAL[experiment])
    doc = {"schema_version": 1, "experiment": experiment, "params": params}
    *parents, last = path
    target = doc
    for key in parents:
        target = target[key]
    if value is DELETE:
        del target[last]
    else:
        target[last] = value
    out = tmp_path / "out"
    assert main([experiment, "--config", write_cfg(tmp_path, doc), "--out", str(out)]) == 2
    # the walk alone rejects the config or, past it, the params; the message
    # is jsonschema's best match on that part, as it was before the walk
    name, part = ("config", doc) if not _walk_accepts("config", doc) else (experiment, params)
    assert not _walk_accepts(name, part)
    error = best_match(ORACLES[name].iter_errors(part))
    path = [*(["params"] if name != "config" else []), *error.path]
    where = f" (at {'.'.join(map(str, path))})" if path else ""
    assert capsys.readouterr().err == (
        f"config error: config schema violation: {error.message}{where}\n")
    assert not out.exists()


def test_config_schemas_pass_the_metaschema():
    assert set(cli._VALIDATORS) == {"config", *cli.EXPERIMENTS}
    for validator in cli._VALIDATORS.values():
        Draft202012Validator.check_schema(validator.schema)


# --- the config walk against jsonschema, its oracle

#: jsonschema's validator of each table's schema, built here apart from cli's
ORACLES = {name: Draft202012Validator(cli.schema_of(t)) for name, t in cli._TABLES.items()}


def _walk_accepts(name, doc) -> bool:
    try:
        cli._walk(cli._TABLES[name], doc)
    except cli._Rejected:
        return False
    return True


def _fragments(spec):
    """Every schema fragment of a table, nested ones included."""
    if isinstance(spec, cli._Kinds):
        for table in spec.values():
            yield from _fragments(table)
    elif isinstance(spec, cli._Table):
        for sub, _ in spec.values():
            yield from _fragments(sub)
    else:
        yield spec
        if "items" in spec:
            yield from _fragments(spec["items"])


def _types(fragment) -> list:
    """The types a fragment names: its ``type``, a name or a list of names."""
    t = fragment.get("type", [])
    return t if isinstance(t, list) else [t]


# (keyword, a fragment, a value that only the keyword rejects)
VIOLATIONS = [
    ("type", {"type": "integer"}, 1.5),
    ("type", {"type": ["integer", "null"]}, "a"),
    ("minimum", {"type": "number", "minimum": 0}, -0.1),
    ("minimum", {"type": ["integer", "null"], "minimum": 1}, 0),
    ("exclusiveMinimum", {"type": "number", "exclusiveMinimum": 0}, 0),
    ("maximum", {"type": "number", "maximum": 0.9}, 0.95),
    ("enum", {"enum": ["tx", "chain"]}, "rx"),
    ("enum", {"enum": [1]}, True),
    ("items", {"type": "array", "items": {"type": "number"}}, [1.0, None]),
    ("minItems", {"type": "array", "minItems": 1}, []),
    ("maxItems", {"type": "array", "maxItems": 2}, [0.25, 0.25, 0.5]),
]


def test_the_walk_interprets_every_keyword_of_the_tables():
    fragments = [f for t in cli._TABLES.values() for f in _fragments(t)]
    assert {k for f in fragments for k in f} == {k for k, _, _ in VIOLATIONS}
    assert {t for f in fragments for t in _types(f)} <= set(cli._IS_TYPE)
    # enum compares JSON scalars, the only members the walk's equality takes
    members = [m for f in fragments for m in f.get("enum", [])]
    assert all(isinstance(m, (str, int)) and not isinstance(m, bool) for m in members)
    for keyword, fragment, value in VIOLATIONS:
        assert not Draft202012Validator(fragment).is_valid(value), keyword
        with pytest.raises(cli._Rejected):
            cli._walk(fragment, value)
        cli._walk({k: v for k, v in fragment.items() if k != keyword}, value)
    # a type list takes each of its types; an integer-valued float becomes an int
    assert cli._walk(cli._BITS, None) is None
    assert type(cli._walk(cli._BITS, 3.0)) is int


@pytest.mark.parametrize("experiment, params, message", [
    ("waveform", {"dac": {"bits": "a"}}, "'a' is not of type 'integer', 'null' (at params.dac.bits)"),
    ("sweep-snr", {"bits": [1.5]}, "1.5 is not of type 'integer', 'null' (at params.bits.0)"),
], ids=["dac-bits", "sweep-snr-bits"])
def test_a_nullable_integer_is_rejected_by_its_type_list(tmp_path, capsys, experiment, params,
                                                         message):
    doc = {"schema_version": 1, "experiment": experiment,
           "params": {**MINIMAL[experiment], **params}}
    out = tmp_path / "out"
    assert main([experiment, "--config", write_cfg(tmp_path, doc), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"config error: config schema violation: {message}\n"
    assert not out.exists()


# --- one owner for every rule on a field of the library's configs

_MIDRISE = QuantizerSpec.BOUNDS["uniform_midrise"]

#: The path (keys, kind names and "items") of each fragment of the tables that
#: rules a field of a library config, or a value that the library rules as
#: one, and the declaration it must be.  A quantizer object's keys, wherever
#: it sits, are its kind's fields.
OWNERS = {
    ("moments", "method", "montecarlo", "samples"): MonteCarlo.BOUNDS["samples"],
    **{(exp, *path, "noise_power"): SimConfig.BOUNDS["noise_power"]
       for exp, path in [("moments", ("channel", "awgn")), ("montecarlo", ("channel", "awgn")),
                         ("rate", ())]},
    **{("montecarlo", name): SimConfig.BOUNDS[name]
       for name in ("size", "transform", "trials", "assignment")},
    **{("waveform", name): rule for name, rule in WaveformConfig.BOUNDS.items()
       if not name.startswith("dac_")},
    ("waveform", "dac", "bits"): WaveformConfig.BOUNDS["dac_bits"],
    ("waveform", "dac", "kappa"): WaveformConfig.BOUNDS["dac_kappa"],
    # a config leaves an ideal DAC's clip out, rather than null
    ("waveform", "dac", "clip"): _MIDRISE["clip"],
    ("sweep-snr", "bits", "items"): WaveformConfig.BOUNDS["dac_bits"],
    ("sweep-aclr", "bits", "items"): _MIDRISE["bits"],
}

#: The fragments with a bound that rule no field of a library config: the
#: config's seed (``check_seed`` is its library rule), the inert quadrature
#: nodes, and the arguments of the library's functions.
CLI_ONLY = {
    ("config", "seed"), ("moments", "method", "quadrature", "nodes"), ("moments", "pbar"),
    ("upper-bound", "pbar"), ("sweep-aclr", "pbar"), ("sweep-snr", "kappa"), ("sweep-aclr", "kappa"),
    ("sweep-snr", "snr_db", "step"), ("sweep-aclr", "aclr_db", "step"),
}


def _paths(spec, path):
    """(path, fragment) of every schema fragment of a table, nested ones and
    array items included."""
    if isinstance(spec, cli._Kinds):
        for kind, table in spec.items():
            yield from _paths(table, (*path, kind))
    elif isinstance(spec, cli._Table):
        for name, (sub, _) in spec.items():
            yield from _paths(sub, (*path, name))
    else:
        yield path, spec
        if "items" in spec:
            yield from _paths(spec["items"], (*path, "items"))


def _owner(path):
    if len(path) >= 4 and path[-3] in ("quantizer", "adc"):
        return QuantizerSpec.BOUNDS[path[-2]][path[-1]]
    return OWNERS.get(path)


def test_every_rule_on_a_library_config_field_is_the_config_s_declaration():
    found = [(path, f) for name, table in cli._TABLES.items() for path, f in _paths(table, (name,))]
    owned = {path: f for path, f in found if _owner(path) is not None}
    for path, fragment in owned.items():
        assert fragment is _owner(path), path
    assert set(OWNERS) <= set(owned)
    # every declaration reaches the schema, the DAC's clip as the midrise clip
    declared = [*MonteCarlo.BOUNDS.values(), *SimConfig.BOUNDS.values(),
                *(r for n, r in WaveformConfig.BOUNDS.items() if n != "dac_clip"),
                *(r for bounds in QuantizerSpec.BOUNDS.values() for r in bounds.values())]
    assert {id(r) for r in declared} <= {id(f) for f in owned.values()}
    # any other bound rules no field of a library config
    bounded = {path for path, f in found if {"minimum", "exclusiveMinimum", "maximum"} & set(f)}
    assert bounded - set(owned) == CLI_ONLY
    # the waveform's params are its config's fields in order, the dac_ ones
    # one object; the window, whatever scipy builds, is named by a string
    names = [f.name for f in fields(WaveformConfig) if f.name != "seed"]
    assert [n for n in names if n not in WaveformConfig.BOUNDS] == ["psd_window"]
    assert list(cli.EXPERIMENTS["waveform"]) == list(dict.fromkeys(
        "dac" if n.startswith("dac_") else n for n in names))


#: A valid instance of each library config.
_VALID = {
    MonteCarlo: MonteCarlo(samples=1000),
    SimConfig: SimConfig(size=16, plan=SubbandPlan([0.5, 0.5], [2.0, 0.0]),
                         dac=QuantizerSpec.uniform_midrise(1, 1.0)),
    WaveformConfig: WaveformConfig(num_symbols=2, dac_bits=4),
    QuantizerSpec: QuantizerSpec.uniform_midrise(3, 1.0),
}


def _past(rule, word):
    """A value just past the bound ``word`` of ``rule``."""
    if word == "enum":
        return "nope"
    bound = rule[word]
    if word == "exclusiveMinimum":
        return float(bound)
    step = -1 if word == "minimum" else 1
    return bound + step if "integer" in _types(rule) else math.nextafter(float(bound), step * math.inf)


def _where(config, field, value):
    """The experiment, params and key path (below params) of a config file
    that gives ``field`` of ``config`` the value ``value``."""
    if config is QuantizerSpec:
        return "moments", {**MINIMAL["moments"], "quantizer": {**Q1, field: value}}, f"quantizer.{field}"
    if config is MonteCarlo:
        return "moments", {**MINIMAL["moments"], "method": {"kind": "montecarlo", field: value}}, \
            f"method.{field}"
    if config is SimConfig and field == "noise_power":
        return "montecarlo", {**MINIMAL["montecarlo"], "mode": "chain",
                              "channel": {"kind": "awgn", field: value}}, f"channel.{field}"
    if config is SimConfig:
        return "montecarlo", {**MINIMAL["montecarlo"], field: value}, field
    if field.startswith("dac_"):
        return "waveform", {"num_symbols": 2, "dac": {"bits": 4, field[4:]: value}}, f"dac.{field[4:]}"
    return "waveform", {"num_symbols": 2, "dac": {"bits": 4}, field: value}, field


BOUND_CASES = [
    (config, field, word, _past(rule, word))
    for config in _VALID
    for field, rule in (config.BOUNDS["uniform_midrise"] if config is QuantizerSpec
                        else config.BOUNDS).items()
    for word in ("minimum", "exclusiveMinimum", "maximum", "enum") if word in rule
]


@pytest.mark.parametrize("config, field, word, value", BOUND_CASES,
                         ids=[f"{c.__name__}.{f}-{w}" for c, f, w, _ in BOUND_CASES])
def test_a_value_just_past_a_declared_bound_is_refused_by_the_library_and_the_cli(
        tmp_path, capsys, config, field, word, value):
    with pytest.raises(ValueError, match=f"^{field} must be "):
        replace(_VALID[config], **{field: value})
    experiment, params, path = _where(config, field, value)
    doc = {"schema_version": 1, "experiment": experiment, "params": params}
    out = tmp_path / "out"
    assert main([experiment, "--config", write_cfg(tmp_path, doc), "--out", str(out)]) == 2
    assert capsys.readouterr().err.endswith(f" (at params.{path})\n")
    assert not out.exists()


Q3 = {"kind": "uniform_midrise", "bits": 3, "clip": 1.5}

# runnable params that give every optional key a value; together they hold
# every integer-typed key of the tables
FULL = [
    ("moments", {"quantizer": Q3, "pbar": 1.0, "method": {"kind": "quadrature", "nodes": 129},
                 "channel": AWGN, "adc": Q3}),
    ("moments", {"quantizer": LEVELS, "pbar": 2.0,
                 "method": {"kind": "montecarlo", "samples": 1000}}),
    ("spectrum", dict(MINIMAL["spectrum"], quantizer=Q3)),
    ("rate", dict(MINIMAL["rate"], quantizer=Q3, adc=Q3)),
    ("upper-bound", dict(MINIMAL["upper-bound"], quantizer=Q3, include_gap=True, pbar=2.0)),
    ("sweep-snr", dict(MINIMAL["sweep-snr"], bits=[2, None], kappa=2.5)),
    ("sweep-aclr", dict(MINIMAL["sweep-aclr"], bits=[2], kappa=2.5, pbar=2.0)),
    ("montecarlo", dict(MINIMAL["montecarlo"], size=64, trials=2, quantizer=Q3, channel=AWGN,
                        adc=Q3, transform="fft", assignment="interleaved", mode="chain",
                        per_trial_csv=True)),
    ("waveform", {"dac": {"bits": 3, "kappa": 2.5, "clip": 1.0}, "num_subcarriers": 1024,
                  "num_symbols": 2, "filter_taps": 31, "psd_segment_length": 4096,
                  "symbol_taper": 0.2, "psd_overlap": 0.25, "psd_window": "hann", "zoh": False,
                  "guard_band": 5e6, "occupied_bandwidth": 190e6, "sample_rate": 983.04e6,
                  "filter_attenuation_db": 80.0}),
]


def _config(experiment, params):
    return {"schema_version": 1, "experiment": experiment, "seed": 3,
            "output": {"format": "json", "path": "."}, "params": params}


def _containers(v):
    """Every object and array in ``v``, ``v`` first."""
    if isinstance(v, (dict, list)):
        yield v
        for x in v.values() if isinstance(v, dict) else v:
            yield from _containers(x)


# values a mutation puts in: every JSON type, the tables' enum members and
# values at and past their bounds, and objects of each kind
_MUTANTS = [
    None, True, False, 0, 1, -1, 2, 3.0, 2.5, 0.0, -0.1, 1e20, 7, 8, 11, 64, 64.0, 99, 100, 0.9,
    0.95, 1.5, "", "x", "identity", "uniform_midrise", "custom_levels", "awgn", "quadrature",
    "montecarlo", "tx", "chain", "fft", "json", "csv", [], [1], [2.0], [1.0, None], [0.5, 0.5],
    [0.25, 0.25, 0.5], ["a"], [True], [None], {}, {"kind": "identity"}, Q1, LEVELS, AWGN, GRID,
    {"bits": 4}, {"kind": "montecarlo"}, {"kind": "quadrature", "samples": 100},
]
_KEY_NAMES = sorted(
    {k for t in cli._TABLES.values() for k in t}
    | {k for t in (cli._GRID, cli._DAC, cli._OUTPUT) for k in t}
    | {k for kinds in (cli._QUANTIZER, cli._METHOD) for t in kinds.values() for k in ("kind", *t)}
    | {"bogus"}
)


@st.composite
def _mutated_configs(draw):
    """A valid config, with up to three keys or items deleted, added or replaced."""
    experiment, params = draw(st.sampled_from([*FULL, *MINIMAL.items()]))
    doc = copy.deepcopy(_config(experiment, params))
    for _ in range(draw(st.integers(0, 3))):
        node = draw(st.sampled_from(list(_containers(doc))))
        keys = list(node) if isinstance(node, dict) else list(range(len(node)))
        op = draw(st.sampled_from(["delete", "add", "replace"] if keys else ["add"]))
        value = copy.deepcopy(draw(st.sampled_from(_MUTANTS)))
        if op == "delete":
            del node[draw(st.sampled_from(keys))]
        elif op == "replace":
            node[draw(st.sampled_from(keys))] = value
        elif isinstance(node, dict):
            node[draw(st.sampled_from(_KEY_NAMES))] = value
        else:
            node.append(value)
    return experiment, doc


@settings(derandomize=True, database=None, max_examples=600, deadline=None)
@given(case=_mutated_configs())
def test_the_walk_accepts_exactly_what_jsonschema_accepts(case):
    experiment, doc = case
    for name, part in (("config", doc), (experiment, doc.get("params"))):
        accepted = _walk_accepts(name, part)
        assert accepted == ORACLES[name].is_valid(part), (name, part)
        if accepted:
            assert cli._walk(cli._TABLES[name], part) == part


def _integer_paths(spec, path=()):
    """The path of every integer-typed value of a table; an array's first
    item stands for all of its items."""
    if isinstance(spec, cli._Kinds):
        for table in spec.values():
            yield from _integer_paths(table, path)
    elif isinstance(spec, cli._Table):
        for name, (sub, _) in spec.items():
            yield from _integer_paths(sub, (*path, name))
    elif "integer" in _types(spec):
        yield path
    elif "items" in spec:
        yield from _integer_paths(spec["items"], (*path, 0))


def _config_integer_paths(experiment):
    """The integer-typed paths of a config of ``experiment``: its own, then its params'."""
    return [*_integer_paths(cli._CONFIG), *_integer_paths(cli.EXPERIMENTS[experiment], ("params",))]


def _holds(doc, path) -> bool:
    try:
        functools.reduce(operator.getitem, path, doc)
    except (KeyError, IndexError):
        return False
    return True


INTEGER_CASES = {
    f"{experiment}{i}-{'.'.join(map(str, path))}": (experiment, params, path)
    for i, (experiment, params) in enumerate(FULL)
    for path in _config_integer_paths(experiment)
    if _holds(_config(experiment, params), path)
}


def test_integer_cases_hold_every_integer_key_of_the_tables():
    listed = {(e, path) for e, _, path in INTEGER_CASES.values()}
    for experiment in cli.EXPERIMENTS:
        for path in _config_integer_paths(experiment):
            assert (experiment, path) in listed


@pytest.mark.parametrize("case", sorted(INTEGER_CASES))
def test_an_integer_valued_float_runs_as_its_integer(tmp_path, monkeypatch, capsys, case):
    experiment, params, path = INTEGER_CASES[case]
    runs = []
    for as_float in (False, True):
        doc = copy.deepcopy(_config(experiment, params))
        if as_float:
            *parents, last = path
            target = functools.reduce(operator.getitem, parents, doc)
            target[last] = float(target[last])
        here = tmp_path / str(as_float)
        here.mkdir()
        monkeypatch.chdir(here)
        code = main([experiment, "--config", write_cfg(here, doc), "--out", "out"])
        files = {p.name: p.read_bytes() for p in (here / "out").iterdir()} if code == 0 else {}
        runs.append((code, capsys.readouterr().err, files))
    assert runs[0][0] == 0
    assert runs[1] == runs[0]


@pytest.mark.parametrize(
    "quantizer, missing",
    [
        ({"kind": "uniform_midrise", "clip": 1.0}, "bits"),
        ({"kind": "uniform_midrise", "bits": 1}, "clip"),
        ({"kind": "custom_levels"}, "levels"),
    ],
    ids=["midrise-no-bits", "midrise-no-clip", "custom-levels-no-levels"],
)
def test_quantizer_missing_key_exits_2_without_output(tmp_path, capsys, quantizer, missing):
    out = tmp_path / "out"
    cfg = write_cfg(tmp_path, moments_cfg(str(out), quantizer=quantizer))
    assert main(["moments", "--config", cfg]) == 2
    assert f"config error: config schema violation: {missing!r} is a required property" in (
        capsys.readouterr().err
    )
    assert not out.exists()


# one object of each quantizer kind, as a config gives it
_QUANTIZER_OBJECTS = [{"kind": "identity"}, Q3, LEVELS]


def test_each_quantizer_kind_takes_the_keys_its_factory_takes():
    assert [q["kind"] for q in _QUANTIZER_OBJECTS] == list(cli._QUANTIZER)
    for kind, table in cli._QUANTIZER.items():
        assert list(inspect.signature(getattr(QuantizerSpec, kind)).parameters) == list(table)


@pytest.mark.parametrize("obj", _QUANTIZER_OBJECTS, ids=lambda q: q["kind"])
def test_a_quantizer_object_is_the_spec_its_factory_makes(obj):
    args = {k: v for k, v in obj.items() if k != "kind"}
    assert cli._quantizer(obj) == getattr(QuantizerSpec, obj["kind"])(**args)


# (experiment, params, the rejection): a key of another kind of a kind-tagged
# object is named, as is a kind that is none of the object's kinds
_STRAY = "Additional properties are not allowed ({!r} was unexpected) (at params.{})"


@pytest.mark.parametrize("experiment, params, message", [
    ("moments", {"quantizer": {"kind": "identity", "bits": 3}, "pbar": 1.0},
     _STRAY.format("bits", "quantizer")),
    ("moments", {"quantizer": {**LEVELS, "clip": 1.5}, "pbar": 1.0},
     _STRAY.format("clip", "quantizer")),
    ("rate", {**MINIMAL["rate"], "adc": {**Q3, "levels": [-1.0, 1.0]}},
     _STRAY.format("levels", "adc")),
    ("moments", {"quantizer": Q3, "pbar": 1.0, "method": {"kind": "quadrature", "samples": 1000}},
     _STRAY.format("samples", "method")),
    ("moments", {"quantizer": Q3, "pbar": 1.0, "method": {"kind": "montecarlo", "nodes": 129}},
     _STRAY.format("nodes", "method")),
    ("moments", {"quantizer": Q3, "pbar": 1.0, "channel": {**AWGN, "bits": 3}},
     _STRAY.format("bits", "channel")),
    ("moments", {"quantizer": {"kind": "uniform_midrse", "bits": 3, "clip": 1.5, "gain": 1.0},
                 "pbar": 1.0},
     "'uniform_midrse' is not one of ['identity', 'uniform_midrise', 'custom_levels'] "
     "(at params.quantizer.kind)"),
    ("moments", {"quantizer": Q3, "pbar": 1.0, "channel": {"kind": "quadrature"}},
     "'quadrature' is not one of ['awgn'] (at params.channel.kind)"),
], ids=["quantizer-identity-bits", "quantizer-levels-clip", "adc-midrise-levels",
        "method-quadrature-samples", "method-montecarlo-nodes", "channel-awgn-bits",
        "quantizer-unknown-kind", "channel-unknown-kind"])
def test_a_kind_tagged_object_names_its_stray_key_or_its_kind(tmp_path, capsys, experiment,
                                                               params, message):
    # a key of another kind once read "'uniform_midrise' was expected" (the
    # kind its key belongs to); an unknown kind beside another fault could
    # be reported by that fault
    doc = {"schema_version": 1, "experiment": experiment, "params": params}
    out = tmp_path / "out"
    assert main([experiment, "--config", write_cfg(tmp_path, doc), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"config error: config schema violation: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "value, cell",
    [
        (0.1, "0.1"),
        (-2.5e-300, "-2.5e-300"),
        (np.float64(1 / 3), "0.3333333333333333"),
        (math.inf, "inf"),
        (-math.inf, "-inf"),
        (np.float64(-math.inf), "-inf"),
        (math.nan, "nan"),
        (np.float64(math.nan), "nan"),
        (None, ""),
        (7, "7"),
        (np.int64(-7), "-7"),
        (1e16, "1e+16"),
        (1e-5, "1e-05"),
        (True, "True"),
    ],
)
def test_csv_cell_text(value, cell):
    # one column, x, of one value
    header, row = csv.reader(io.StringIO(cli._csv_bytes(["x"], [[value]])))
    assert row == [cell]


def test_csv_bytes_quote_and_format_cells():
    columns = [(0.1, np.int64(3)), [np.float64(-math.inf), "a b"], (None, math.nan)]
    assert cli._csv_bytes(["x", "y", "z"], columns) == 'x,y,z\n0.1,-inf,\n3,a b,nan\n'
    # a row's only cell, when empty, is the one cell quoted
    assert cli._csv_bytes(["x"], [[None, 1]]) == 'x\n""\n1\n'


@pytest.mark.parametrize("ch", [",", '"', "\r", "\n"])
def test_csv_bytes_refuse_a_cell_csv_would_quote(ch):
    # no result cell comes from user text, so one that csv would quote is
    # a fault of the caller, named by its column
    with pytest.raises(ValueError, match="column 'y' holds a cell that csv would quote"):
        cli._csv_bytes(["x", "y"], [[1.0, 2.0], [None, f"a{ch}b"]])
    with pytest.raises(ValueError, match="csv would quote"):
        cli._csv_bytes(["x", f"y{ch}"], [[1.0], [2.0]])


@pytest.mark.parametrize("header", [["x"], ["x", "y z"], [""], ["", ""], [None, 1.5], []])
def test_a_header_only_table_takes_its_width_from_the_header(header):
    text = cli._csv_bytes(header, [[] for _ in header])
    assert text == _csv_writer_text(header, [])


@pytest.mark.parametrize("header, columns", [
    (["x", "y"], [[1.0, 2.0], [3.0]]),
    (["x", "y"], [[1.0], [2.0, 3.0]]),
    (["x", "y", "z"], [[], [], [1.0]]),
    (["x", "y"], [[1.0]]),
    (["x"], [[1.0], [2.0]]),
    (["x"], []),
], ids=["short-last", "long-last", "header-only-but-one", "fewer-columns", "more-columns",
        "no-columns"])
def test_csv_bytes_reject_columns_that_do_not_make_a_table(header, columns):
    with pytest.raises(ValueError):
        cli._csv_bytes(header, columns)


def _psd_table(rows=8_193):
    """A waveform PSD table, as its runner passes it: frequencies and dB
    levels, one column each."""
    freq = np.linspace(-491.52e6, 491.52e6, rows).tolist()
    psd_db = (-80.0 + 10.0 * np.log10(np.random.default_rng(7).random(rows))).tolist()
    return {"waveform_psd.csv": (["freq_hz", "psd_db"], [freq, psd_db])}


def test_a_psd_write_runs_no_garbage_collection():
    # the writer allocates a handful of container objects per table, not one
    # per row, so the cyclic collector has nothing to count toward a pass
    table = _psd_table()
    runs = []

    def count(phase, info):
        if phase == "start":
            runs.append(info["generation"])

    gc.collect()
    gc.callbacks.append(count)
    try:
        files = cli._result_files("waveform", "json", table)
    finally:
        gc.callbacks.remove(count)
    assert runs == []
    assert files["waveform_psd.csv"].count("\n") == 8_194


def test_a_psd_write_peaks_near_its_cells():
    # the 8,193-row table is 0.26 MB of text.  The writer peaked at 1.84 MB:
    # every cell's string, the list that orders them and the text.  One that
    # took a tuple per row, made a tuple iterator per row to transpose them
    # and built its text twice peaked at 2.43 MB
    table = _psd_table()
    gc.collect()
    tracemalloc.start()
    try:
        files = cli._result_files("waveform", "json", table)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(files["waveform_psd.csv"]) == 255_018
    assert peak < 2.1e6


def _csv_writer_text(header, rows):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _unquoted(v) -> bool:
    """Whether csv writes ``str(v)`` unquoted: it holds none of the four
    characters that make csv quote a cell."""
    return not any(ch in str(v) for ch in ',"\r\n')


_CSV_CELLS = st.one_of(
    st.sampled_from([math.inf, -math.inf, math.nan, -0.0, 5e-324, np.float64(-0.0), np.float64(math.nan)]),
    st.floats(),
    st.floats().map(np.float64),
    st.integers(),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.booleans(),
    st.booleans().map(np.bool_),
    st.none(),
    st.lists(st.one_of(st.integers(), st.floats(), st.text(max_size=2)), max_size=1),
    # empty strings, spaces and the text of None
    st.text(st.sampled_from([" ", "a"]), max_size=5),
    st.just("None"),
    st.text(max_size=5),
).filter(_unquoted)


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(table=st.integers(1, 4).flatmap(lambda width: st.tuples(
    st.lists(st.text(max_size=4).filter(_unquoted), min_size=width, max_size=width),
    st.lists(st.lists(_CSV_CELLS, min_size=width, max_size=width), max_size=6),
)))
@example(table=(["x"], [[""], [None], ["a"], [None]]))  # a lone empty cell is written ""
@example(table=(["", "y"], [["", None], [" ", "None"]]))
def test_csv_bytes_are_the_csv_writers(table):
    header, rows = table
    columns = [list(column) for column in zip(*rows)] or [[] for _ in header]
    assert cli._csv_bytes(header, columns) == _csv_writer_text(header, rows)


def _conv(v):
    """The result values json.dumps was given before json_text wrote its own text."""
    if is_dataclass(v):
        v = vars(v)
    if isinstance(v, dict):
        return {k: _conv(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_conv(x) for x in v]
    if isinstance(v, np.generic):
        v = v.item()
    if isinstance(v, float) and math.isinf(v):
        return "inf" if v > 0 else "-inf"
    return None if isinstance(v, float) and math.isnan(v) else v


def _json_oracle(obj) -> str:
    return json.dumps(_conv(obj), indent=2, sort_keys=True) + "\n"


@dataclass(frozen=True)
class _Pair:
    left: object
    right: object


_KEYS = st.text(max_size=6) | st.sampled_from(
    ['"', "\\", "\x00", "\n\t", "\x7f", "é", "雪", "😀", "a\"b"]
)
_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers(-(2**200), 2**200)
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.sampled_from([-0.0, math.inf, -math.inf, math.nan, 1e308, 5e-324])
    | _KEYS
    | st.floats(allow_nan=True, allow_infinity=True).map(np.float64)
    | st.floats(width=32).map(np.float32)
    | st.integers(-(2**63), 2**63 - 1).map(np.int64)
    | st.booleans().map(np.bool_)
)
_VALUES = st.recursive(
    _SCALARS,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(_KEYS, inner, max_size=4)
    | st.builds(_Pair, inner, inner),
    max_leaves=25,
)


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(obj=_VALUES)
@example(obj={"rows": [], "b": {}, "a": [[], {}, ()]})
@example(obj=_Pair(np.float64(-math.inf), {"k": (np.int64(2**62), np.bool_(False), -0.0)}))
def test_json_text_writes_the_bytes_of_json_dumps(obj):
    assert cli.json_text(obj) == _json_oracle(obj)


@pytest.mark.parametrize("obj", [np.zeros(2), {"a": [np.array([1.0])]}, _Pair, 1j])
def test_json_text_rejects_what_json_dumps_cannot_write(obj):
    with pytest.raises(TypeError):
        _json_oracle(obj)
    with pytest.raises(TypeError):
        cli.json_text(obj)


def test_json_text_keys_are_strings():
    # json.dumps would write the key 1 as "1"; no result or config has one
    with pytest.raises(TypeError):
        cli.json_text({1: "int key"})


def _cli_env():
    """The environment of a child ``python -m qlt.cli`` that imports this qlt."""
    src = str(pathlib.Path(cli.__file__).resolve().parents[1])
    path = [src, *filter(None, [os.environ.get("PYTHONPATH")])]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(path))


def test_parser_reuse_matches_fresh_processes(tmp_path, capsys):
    rate_cfg = write_cfg(tmp_path, {
        "schema_version": 1,
        "experiment": "rate",
        "output": {"format": "json", "path": str(tmp_path / "out")},
        "params": {
            "quantizer": {"kind": "uniform_midrise", "bits": 2, "clip": 1.5},
            "fractions": [0.5, 0.5],
            "powers": [1.5, 0.5],
            "noise_power": 0.1,
        },
    })
    commands = [
        ["rate", "--config", rate_cfg],
        ["defaults", "--format", "csv"],
        ["no-such-command"],
    ]
    fresh = []
    for argv in commands:
        proc = subprocess.run(
            [sys.executable, "-m", "qlt.cli", *argv], capture_output=True, text=True, env=_cli_env()
        )
        result = (tmp_path / "out" / "rate.json").read_bytes() if argv[0] == "rate" else None
        fresh.append((proc.returncode, proc.stdout, proc.stderr, result))
    (tmp_path / "out" / "rate.json").unlink()
    capsys.readouterr()
    for argv, want in zip(commands, fresh):
        try:
            code = main(argv)
        except SystemExit as e:
            code = e.code
        out, err = capsys.readouterr()
        result = (tmp_path / "out" / "rate.json").read_bytes() if argv[0] == "rate" else None
        assert (code, out, err, result) == want, argv
    assert [w[0] for w in fresh] == [0, 0, 2]
