"""The shipped presets' result files, pinned byte for byte.

Each preset in configs/ runs in-process with its own seed, and the sha256 of
every file it writes is compared with the digest recorded here.
``resolved_config.json`` is hashed with ``output.path`` removed, since that
holds the output directory.  The ``qlt defaults`` dumps are pinned the same
way, and so are three waveform geometries besides the preset's.  A change
that moves these bytes on purpose records the new digests and says why.
"""

import hashlib
import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import qlt
from qlt import QuantizerSpec, chain_moments, cli, tx_moments
from qlt._rng import complex_normal, substream
from qlt.cli import json_text, main
from qlt.montecarlo import _corr
from qlt.waveform import _mean_power

CONFIGS = pathlib.Path(__file__).resolve().parents[1] / "configs"

DIGESTS = {
    "fig2_sweep_snr": {
        "resolved_config.json": "6594d50bdcbe06e3d6c451793f074be5aa73eb8735cecd355a693bb2f1a2bd87",
        "sweep-snr.csv": "f37038e1b531bc86e6b61d59748c93a57eee9b67670f14a652c8256148b57745",
    },
    "fig3_sweep_aclr": {
        "resolved_config.json": "885e674228ac91faa48d415633ee649fff1d2d22ce7521a2a0459c0fc40273dc",
        "sweep-aclr.csv": "283c2ca75e1c4723ebe2bc3866e9a18b3a8c73510c9af097f38b63914533fec6",
    },
    "moments_3bit": {
        "moments.json": "825973b269f08db6dc493439522d5864f816fbc23bc3270927759a59b0ca57d8",
        "resolved_config.json": "105d26e21005df3db30dd3acc928e5b02f46213841c39990813c60b38b81201f",
    },
    "montecarlo_tx_1bit": {
        "montecarlo.json": "08f69c030c4375423f8cc648e064ba5e1d0b2ac9e2420fce366ef79798b00bf4",
        "montecarlo_trials.csv": "9bf057c0e3209ad8753c1007c5549125cd24a0deaf2a128ccbf7298f7b512194",
        "resolved_config.json": "a1a20db1d624c80b718917a006a1a03b49bf9d36c8b01db5c9f21ac8c66001fd",
    },
    "waveform_nr200_b4": {
        "resolved_config.json": "6943bfd60167897e1ce6a9eb4801cb5d91ce80c7aeb8548c7ececfe1f9f9adc4",
        "waveform.json": "06e10c4d4bf1ec810e50ac1125a7bcceb0e387fd28b7970d38f04c74bf74e707",
        "waveform_psd.csv": "368bbe864d7afe34ac281279d2a04f00e4aa2e0172b75c5121d0f90085015233",
    },
}


DEFAULTS_DIGESTS = {
    "json": "eaacc86e1269402b8a4f0583c07d9d90d9c786bc24747edd28f6a37cb47d523a",
    "csv": "98a0d68673c1f1b6b9e25a9c6caca5a2a703c5dbcfbc463243bdf9120edafabc",
}


#: Waveform geometries beyond the preset's: (params, seed, sha256 per
#: result file).  An ``enabled_subcarriers`` subset has no config key, so
#: each runs through the waveform runner and result writer in process.
WAVEFORM_DIGESTS = {
    "ideal-x2-255-4096": (
        {"sample_rate": 491.52e6, "num_symbols": 48, "filter_taps": 255, "psd_segment_length": 4096,
         "dac": {"bits": None, "kappa": 3.0}},
        11,
        {"waveform.json": "afe1312df4e39e6fb1d0cc0043eac70f308368ed2ad5efd286d4d18ca41e2c64",
         "waveform_psd.csv": "91ac8e42e47974d252b262f0427d8d6cc30dd7e4201d212b01f56e678ad2602b"},
    ),
    "b5-x4-511-8192": (
        {"sample_rate": 983.04e6, "num_subcarriers": 2048, "num_symbols": 24, "filter_taps": 511,
         "psd_segment_length": 8192, "dac": {"bits": 5, "kappa": 3.5}},
        11,
        {"waveform.json": "babd2a026f915fc06902048960cbacb9a0d5335e2004bd5628f9b0490296b766",
         "waveform_psd.csv": "673b65abe2e5e609018a1cc3e39e5100625d7142582920a4439a1086ac675c1e"},
    ),
    "b3-every-third-subcarrier": (
        {"num_symbols": 40, "enabled_subcarriers": tuple(range(0, 832, 3)), "dac": {"bits": 3, "kappa": 3.0}},
        11,
        {"waveform.json": "8816540e2c190462dd82c2278f4ead9040fffffbf42c18092dac351f360e99e3",
         "waveform_psd.csv": "bdd08f8b3472341a7eab79466edcf6968a843fefc28e4bb902a5b7f890256a0d"},
    ),
}


def preset_digests(preset: pathlib.Path, out: pathlib.Path) -> dict:
    """Run ``preset`` into ``out``; sha256 per written file name."""
    experiment = json.loads(preset.read_text())["experiment"]
    assert main([experiment, "--config", str(preset), "--out", str(out)]) == 0
    digests = {}
    for path in sorted(out.iterdir()):
        data = path.read_bytes()
        if path.name == "resolved_config.json":
            resolved = json.loads(data)
            del resolved["output"]["path"]
            data = json_text(resolved).encode()
        digests[path.name] = hashlib.sha256(data).hexdigest()
    return digests


def test_every_preset_is_pinned():
    assert sorted(p.stem for p in CONFIGS.glob("*.json")) == sorted(DIGESTS)


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_preset_outputs_are_byte_identical(tmp_path, capsys, name):
    assert preset_digests(CONFIGS / f"{name}.json", tmp_path / name) == DIGESTS[name]


@pytest.mark.parametrize("name", sorted(WAVEFORM_DIGESTS))
def test_waveform_geometry_outputs_are_byte_identical(name):
    params, seed, want = WAVEFORM_DIGESTS[name]
    files = cli._result_files("waveform", "json", cli._run_waveform(params, seed))
    assert {k: hashlib.sha256(v.encode()).hexdigest() for k, v in files.items()} == want


@pytest.mark.parametrize("fmt", sorted(DEFAULTS_DIGESTS))
def test_defaults_dump_is_byte_identical(capsys, fmt):
    assert main(["defaults", "--format", fmt]) == 0
    data = capsys.readouterr().out.encode()
    assert hashlib.sha256(data).hexdigest() == DEFAULTS_DIGESTS[fmt]


def _child_env(**extra) -> dict:
    """The environment of a child interpreter that imports this qlt."""
    src = str(pathlib.Path(qlt.__file__).resolve().parents[1])
    path = os.pathsep.join([src, *filter(None, [os.environ.get("PYTHONPATH")])])
    return dict(os.environ, PYTHONPATH=path, **extra)


def _outputs_at_blas_threads(preset: pathlib.Path, out: pathlib.Path) -> list[dict]:
    """The result files (name -> bytes) of ``preset`` run by a child
    interpreter at 1 and at 2 OpenBLAS threads."""
    written = []
    for threads in ("1", "2"):
        subprocess.run(
            [sys.executable, "-m", "qlt.cli", json.loads(preset.read_text())["experiment"],
             "--config", str(preset), "--out", str(out / threads)],
            check=True, capture_output=True,
            env=_child_env(OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS="1"),
        )
        # resolved_config.json holds the output directory
        written.append({p.name: p.read_bytes() for p in (out / threads).iterdir()
                        if p.name != "resolved_config.json"})
    return written


@pytest.mark.parametrize("name", ["montecarlo_tx_1bit", "waveform_nr200_b4"])
def test_preset_bytes_do_not_depend_on_blas_threads(tmp_path, name):
    # OpenBLAS splits a long dot product across threads, so a BLAS reduction
    # in a result's sums gives other last bits at one thread than at two
    one, two = _outputs_at_blas_threads(CONFIGS / f"{name}.json", tmp_path)
    assert sorted(one) == sorted(set(DIGESTS[name]) - {"resolved_config.json"})
    assert one == two


_MIDRISE_16 = {"kind": "uniform_midrise", "bits": 16, "clip": 2.1}


@pytest.mark.parametrize("params", [
    {"quantizer": _MIDRISE_16, "pbar": 1.0},
    {"quantizer": {"kind": "identity"}, "pbar": 1.0, "channel": {"kind": "awgn", "noise_power": 0.01},
     "adc": _MIDRISE_16},
], ids=["dac", "adc"])
def test_16_bit_moments_bytes_do_not_depend_on_blas_threads(tmp_path, params):
    # the exact moments of a 16-bit quantizer sum over its 65,535 thresholds,
    # a length that OpenBLAS splits across threads
    preset = tmp_path / "moments_16bit.json"
    preset.write_text(json.dumps({"schema_version": 1, "experiment": "moments", "params": params}))
    one, two = _outputs_at_blas_threads(preset, tmp_path)
    assert sorted(one) == ["moments.json"]
    assert one == two


def _sums() -> str:
    """The bits of the mean power, of both correlation forms and of the exact
    moments on fixed inputs."""
    rng = substream(4, "sums")
    z = complex_normal(rng, 1.0, 40_001)
    w = 0.3 * z + complex_normal(rng, 1.0, 40_001)
    c = w - w.mean()
    zw = complex(_corr(z, w))
    moments = (
        tx_moments(QuantizerSpec.uniform_midrise(12, 2.1), 1.0),
        chain_moments(QuantizerSpec.uniform_midrise(6, 2.1), 0.01, QuantizerSpec.uniform_midrise(7, 2.2), 1.0),
    )
    return " ".join(float(v).hex() for v in (_mean_power(z), zw.real, zw.imag, _corr(c.real, c.imag),
                                              *(x for m in moments for x in (m.gain, m.noise))))


def test_sums_do_not_depend_on_simd_dispatch():
    # numpy picks a loop per CPU feature at run time; the mean power, the
    # correlations and the exact moments must keep their bits on numpy's
    # baseline loops
    found = np.show_config(mode="dicts")["SIMD Extensions"].get("found", [])
    if not found:
        pytest.skip("numpy dispatches no SIMD features beyond its baseline on this CPU")
    child = subprocess.run(
        [sys.executable, "-c", "from test_presets import _sums; print(_sums())"],
        check=True, capture_output=True, text=True, cwd=pathlib.Path(__file__).parent,
        env=_child_env(NPY_DISABLE_CPU_FEATURES=" ".join(found)),
    )
    assert child.stdout.strip() == _sums()
