"""The benchmark's own tests: toy-size workloads, output checks that can
fail, the traced run's per-layer names, and BENCHMARK.json's agreement with
the code.

    python3 -m pytest -q perfbench
"""

import csv
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import run
import speed
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def cli():
    return run.import_qlt()


def _toy_ops(workload, seed=7):
    """One block's worth of the workload's cheapest op shapes."""
    ops = workloads.make_ops(workload, seed, 1)
    if workload == "mc-haar":
        return [op for op in ops if op["params"]["size"] == 1024][:3]
    if workload == "waveform-aclr":
        return [op for op in ops if op["slot"] in (0, 1, 2)][:3]
    return ops[1:1 + workloads.block_size(workload)]


def _run(cli, op, tmp_path, name="op"):
    _, _, failures, out = run.run_op(cli, op, tmp_path, name)
    return failures, out


@pytest.mark.parametrize("workload", list(workloads.BLOCKS))
def test_workload_at_toy_size_passes_its_checks(cli, tmp_path, workload):
    for i, op in enumerate(_toy_ops(workload)):
        failures, _ = _run(cli, op, tmp_path, f"op-{i}")
        assert failures == [], op


def test_ops_come_from_the_seed():
    a = workloads.make_ops("closed-form", 3, 5)
    assert a == workloads.make_ops("closed-form", 3, 5)
    assert a != workloads.make_ops("closed-form", 4, 5)
    # every seed runs the same mix of op templates
    slots = sorted(op["slot"] for op in a[1:])
    assert slots == sorted(op["slot"] for op in workloads.make_ops("closed-form", 4, 5)[1:])
    assert all(workloads.items(op) > 0 for op in a)


def test_waveform_items_count_the_dac_rate_samples(cli, tmp_path):
    op = _toy_ops("waveform-aclr")[0]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        _run(cli, op, tmp_path)
    finally:
        tracer.uninstall()
    assert tracer.counts["waveform.samples"] == workloads.items(op)


# ---------------------------------------------------------------------------
# every gate can fail
# ---------------------------------------------------------------------------

def _first(workload, want, seed=7):
    return next(op for op in workloads.make_ops(workload, seed, 15) if want(op))


def _rewrite_csv(path, edit):
    with path.open(newline="") as f:
        rows = list(csv.DictReader(f))
    fields = list(rows[0])
    rows = edit(rows)
    with path.open("w", newline="") as f:
        w = csv.DictWriter(f, fields, lineterminator="\n")
        w.writeheader()
        w.writerows(rows)


def _rewrite_json(path, edit):
    obj = json.loads(path.read_text())
    edit(obj)
    path.write_text(json.dumps(obj))


def _aclr_csv(op):
    return op["experiment"] == "sweep-aclr" and op["format"] == "csv"


def _drop_row(rows):
    return rows[:5] + rows[6:]


def _blank_defined_r_lin(rows):
    row = next(r for r in rows if r["r_lin"])
    row["r_lin"] = ""
    return rows


def _lower_r_upper(rows):
    row = next(r for r in rows if r["r_lin"])
    row["r_upper"] = repr(float(row["r_lin"]) - 0.01)
    return rows


def _swap_rates(rows):
    # the ideal DAC's row set comes last: give it the 1-bit rates (C9)
    n = len(rows) // len({r["bits"] for r in rows})
    for lo, hi in zip(rows[:n], rows[-n:]):
        hi["rate_bps"] = repr(float(lo["rate_bps"]) * 0.5)
    return rows


def _scale_band_energy(obj):
    obj["band_energy"] = [1.2 * v for v in obj["band_energy"]]


def _scale_correlation(obj):
    obj["band_correlation"] = [0.8 * v for v in obj["band_correlation"]]


def _offset_aclr(obj):
    obj["aclr_db"] += 5.0


def _break_parseval(obj):
    obj["parseval_ratio"] = 1.02


def _c10(op):
    p = op["params"]
    return p["sample_rate"] == checks.C10_SAMPLE_RATE and (p["dac"]["bits"] or 0) >= 3


CORRUPTIONS = {
    "dropped sweep row": ("closed-form", _aclr_csv, "sweep-aclr.csv", _rewrite_csv, _drop_row),
    "r_lin missing below the ceiling (C8)": ("closed-form", _aclr_csv, "sweep-aclr.csv", _rewrite_csv, _blank_defined_r_lin),
    "upper bound below the linear rate": ("closed-form", _aclr_csv, "sweep-aclr.csv", _rewrite_csv, _lower_r_upper),
    "rate falls with DAC bits (C9)": (
        "closed-form", lambda op: op["experiment"] == "sweep-snr" and op["format"] == "csv",
        "sweep-snr.csv", _rewrite_csv, _swap_rates),
    "band energy x1.2 (C3)": (
        "mc-haar", lambda op: op["params"]["size"] == 2048,
        "montecarlo.json", _rewrite_json, _scale_band_energy),
    "chain correlation x0.8 (C6)": (
        "mc-haar", lambda op: op["params"]["size"] == 1024 and op["params"]["mode"] == "chain",
        "montecarlo.json", _rewrite_json, _scale_correlation),
    "ACLR +5 dB (C10)": ("waveform-aclr", _c10, "waveform.json", _rewrite_json, _offset_aclr),
    "Parseval ratio 1.02": ("waveform-aclr", _c10, "waveform.json", _rewrite_json, _break_parseval),
}


@pytest.mark.parametrize("case", list(CORRUPTIONS))
def test_corrupted_result_fails_its_check(cli, tmp_path, case):
    workload, want, name, rewrite, edit = CORRUPTIONS[case]
    op = _first(workload, want)
    failures, out = _run(cli, op, tmp_path)
    assert failures == []
    rewrite(out / name, edit)
    assert checks.check_op(op, out), case


def test_changed_byte_fails_the_determinism_check(cli, tmp_path):
    op = _toy_ops("closed-form")[0]
    _, a = _run(cli, op, tmp_path, "a")
    _, b = _run(cli, op, tmp_path, "b")
    for f in a.iterdir():  # resolved_config.json names the output directory
        if f.name != "resolved_config.json":
            assert (b / f.name).read_bytes() == f.read_bytes()
    shutil.copy(a / "resolved_config.json", b / "resolved_config.json")
    assert checks.same_bytes(a, b) == []
    target = next(f for f in b.iterdir() if f.name != "resolved_config.json")
    data = bytearray(target.read_bytes())
    data[-2] ^= 1
    target.write_bytes(bytes(data))
    assert checks.same_bytes(a, b)


# ---------------------------------------------------------------------------
# tracing
# ---------------------------------------------------------------------------

def _traced_counts(cli, tmp_path, ops):
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for i, op in enumerate(ops):
            tracer.op_id = i
            failures, _ = _run(cli, op, tmp_path, f"traced-{i}")
            assert failures == []
    finally:
        tracer.uninstall()
    return tracer


def test_traced_run_reports_every_layer_metric(cli, tmp_path):
    ops = [
        _first("closed-form", _aclr_csv),
        _first("closed-form", lambda op: op["experiment"] == "moments" and "montecarlo" in json.dumps(op)),
        _toy_ops("mc-haar")[0],
        _toy_ops("waveform-aclr")[0],
    ]
    tracer = _traced_counts(cli, tmp_path, ops)
    imports = {k: 0.1 for k in tracing.LAYER_METRICS if k.startswith("import.")}
    metrics = tracer.layer_metrics(1234, 0.01, imports)
    assert list(metrics) == list(tracing.LAYER_METRICS)
    assert metrics["cli.main.calls"] == len(ops)
    for name in ("bounds.tilt_evals", "analysis.infeasible", "montecarlo.chain_build.calls",
                 "montecarlo.chain_bytes_computed", "waveform.interp_filter.calls",
                 "quantizer.samples", "moments.sampling_calls", "cli.self_s", "waveform.measure_self_s"):
        assert metrics[name] > 0, name
    # wrappers are gone after uninstall
    import qlt.cli
    import qlt.montecarlo

    assert not hasattr(qlt.cli.main, "__wrapped__")
    assert not hasattr(qlt.montecarlo.quantize, "__wrapped__")

    # exact counts repeat exactly
    again = _traced_counts(cli, tmp_path, ops).layer_metrics(1234, 0.01, imports)
    for name in ("bounds.tilt_evals", "quantizer.samples", "montecarlo.chain_bytes_computed",
                 *(k for k in tracing.LAYER_METRICS if k.endswith(".calls"))):
        assert again[name] == metrics[name], name

    path = tmp_path / "spans.json"
    tracer.dump(path)
    spans = json.loads(path.read_text())
    assert len(spans["spans"]) == len(tracer.starts)


def test_self_time_excludes_child_spans():
    tracer = tracing.Tracer()
    tracer.names = ["cli.main", "bounds.rate_upper_bound", "analysis.kl_divergence"]
    tracer.starts = [0.0, 1.0, 2.0]
    tracer.ends = [10.0, 4.0, 3.0]
    tracer.parents = [-1, 0, 1]
    calls, incl, own = tracer.totals()
    assert own == {"cli.main": 7.0, "bounds.rate_upper_bound": 2.0, "analysis.kl_divergence": 1.0}
    assert incl["cli.main"] == 10.0


def test_import_profile_names_the_heavy_imports():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:        10 |         10 |       scipy.signal._a",
        "import time:        20 |         50 |         scipy.linalg",
        "import time:        30 |         80 |       scipy.signal.windows",
        "import time:       100 |        190 |     qlt.waveform",
        "import time:         5 |          5 |   jsonschema",
    ])
    m = tracing.parse_importtime(text)
    assert m["import.scipy_signal_s"] == pytest.approx(90e-6)
    assert m["import.jsonschema_s"] == pytest.approx(5e-6)
    assert m["import.scipy_special_s"] == 0.0
    assert m["import.total_s"] == pytest.approx(165e-6)
    real = tracing.import_profile(run.child_env(), ROOT, 1, 120)
    assert all(real[k] > 0 for k in real)


def test_scaled_integrates_the_speed_factor():
    samples = [(0.0, 1.0), (1.0, 2.0), (2.0, 2.0)]
    assert speed.scaled(0.0, 1.0, samples) == pytest.approx(1.5)
    assert speed.scaled(-1.0, 0.0, samples) == pytest.approx(1.0)
    assert speed.scaled(0.5, 3.0, samples) == pytest.approx(0.5 * 1.75 + 1.0 * 2.0 + 1.0 * 2.0)
    assert speed.scaled(0.0, 2.0, []) == 2.0


def test_tail_has_ten_samples_beyond_it():
    times = list(range(40))
    assert run.tail(times) == 29
    assert sum(t > run.tail(times) for t in times) == 10


# ---------------------------------------------------------------------------
# BENCHMARK.json and the command
# ---------------------------------------------------------------------------

def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.BLOCKS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {k: v[0] for k, v in tracing.LAYER_METRICS.items()}
    assert {m["name"]: m["better"] for m in spec["per_layer"]} == {k: v[1] for k, v in tracing.LAYER_METRICS.items()}
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_command_fails_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "closed-form", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
