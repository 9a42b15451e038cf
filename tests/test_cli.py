import json
import math

import pytest

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


@pytest.mark.parametrize(
    "experiment, grid_key, params",
    [
        ("sweep-snr", "snr_db", {"bits": [1], "fractions": [0.5, 0.5], "powers": [2.0, 0.0]}),
        ("sweep-aclr", "aclr_db", {"bits": [1], "fractions": [0.5, 0.5]}),
    ],
    ids=["sweep-snr", "sweep-aclr"],
)
def test_sweep_grid_direction(tmp_path, capsys, experiment, grid_key, params):
    def cfg(name, start, stop):
        return {
            "schema_version": 1,
            "experiment": experiment,
            "output": {"format": "json", "path": str(tmp_path / name)},
            "params": dict(params, **{grid_key: {"start": start, "stop": stop, "step": 1.0}}),
        }

    # a reversed grid is a config error and writes nothing
    bad = write_cfg(tmp_path, cfg("reversed", 5.0, 0.0), "reversed.json")
    assert main([experiment, "--config", bad]) == 2
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "reversed").exists()
    # start == stop is a one-point grid
    one = write_cfg(tmp_path, cfg("one", 3.0, 3.0), "one.json")
    assert main([experiment, "--config", one]) == 0
    rows = json.loads((tmp_path / "one" / f"{experiment}.json").read_text())["rows"]
    assert [r[grid_key] for r in rows] == [3.0]


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


def test_shipped_presets_validate(tmp_path):
    import pathlib

    configs = pathlib.Path(__file__).resolve().parents[1] / "configs"
    for preset in sorted(configs.glob("*.json")):
        doc = json.loads(preset.read_text())
        if doc["experiment"] in ("montecarlo", "waveform"):
            continue  # exercised separately; these run longer
        out = str(tmp_path / preset.stem)
        assert main([doc["experiment"], "--config", str(preset), "--out", out]) == 0
