"""The shipped presets' result files, pinned byte for byte.

Each preset in configs/ runs in-process with its own seed, and the sha256 of
every file it writes is compared with the digest recorded here.
``resolved_config.json`` is hashed with ``output.path`` removed, since that
holds the output directory.  The ``qlt defaults`` dumps are pinned the same
way.  A change that moves these bytes on purpose records the new digests and
says why.
"""

import hashlib
import json
import pathlib

import pytest

from qlt.cli import json_text, main

CONFIGS = pathlib.Path(__file__).resolve().parents[1] / "configs"

DIGESTS = {
    "fig2_sweep_snr": {
        "resolved_config.json": "6594d50bdcbe06e3d6c451793f074be5aa73eb8735cecd355a693bb2f1a2bd87",
        "sweep-snr.csv": "07905f3f7c4b6b02158ffe2831bf089ca1b7be515dd3f52f37fc22c777e34aae",
    },
    "fig3_sweep_aclr": {
        "resolved_config.json": "885e674228ac91faa48d415633ee649fff1d2d22ce7521a2a0459c0fc40273dc",
        "sweep-aclr.csv": "4bc72544ebdac9cc13b77fa2bf5a111dc462b9b1eb497e856ac17c3459002f0d",
    },
    "moments_3bit": {
        "moments.json": "02e40c97b9fed4fa5d2fbc4daa7aaa6cf7cd49ddfc2cc47900116a087194ee6c",
        "resolved_config.json": "105d26e21005df3db30dd3acc928e5b02f46213841c39990813c60b38b81201f",
    },
    "montecarlo_tx_1bit": {
        "montecarlo.json": "c9eb97999fa64e3c743ac7171e32744b81e21d496e1458ff2a09f0e12040286e",
        "montecarlo_trials.csv": "9bf057c0e3209ad8753c1007c5549125cd24a0deaf2a128ccbf7298f7b512194",
        "resolved_config.json": "a1a20db1d624c80b718917a006a1a03b49bf9d36c8b01db5c9f21ac8c66001fd",
    },
    "waveform_nr200_b4": {
        "resolved_config.json": "6943bfd60167897e1ce6a9eb4801cb5d91ce80c7aeb8548c7ececfe1f9f9adc4",
        "waveform.json": "caa9f978ac4e67c76981459d91f7bd21e369282a76e06f1a5c09a6eb9caa5f0f",
        "waveform_psd.csv": "1e00c1de43ab878a5b9c433c487ddfc51a3d7e567338a11060d2fb360ebd2249",
    },
}


DEFAULTS_DIGESTS = {
    "json": "eaacc86e1269402b8a4f0583c07d9d90d9c786bc24747edd28f6a37cb47d523a",
    "csv": "98a0d68673c1f1b6b9e25a9c6caca5a2a703c5dbcfbc463243bdf9120edafabc",
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


@pytest.mark.parametrize("fmt", sorted(DEFAULTS_DIGESTS))
def test_defaults_dump_is_byte_identical(capsys, fmt):
    assert main(["defaults", "--format", fmt]) == 0
    data = capsys.readouterr().out.encode()
    assert hashlib.sha256(data).hexdigest() == DEFAULTS_DIGESTS[fmt]
