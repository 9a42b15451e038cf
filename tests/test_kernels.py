import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from qlt import _kernels
from qlt._rng import substream


def test_midrise_paths_agree():
    rng = substream(1, "kern-midrise")
    x = rng.uniform(-6, 6, 50_000)
    for clip, nlev in ((1.0, 2), (2.6, 8), (0.7, 16)):
        a = _kernels.midrise_map(x, clip, nlev)
        b = _kernels._midrise_np(x, clip, nlev)
        np.testing.assert_array_equal(a, b)


def test_nearest_paths_agree():
    rng = substream(2, "kern-nearest")
    x = rng.uniform(-4, 4, 50_000)
    levels = np.array([-2.0, -0.3, 0.1, 1.7])
    thr = (levels[:-1] + levels[1:]) / 2
    a = _kernels.nearest_map(x, levels, thr)
    b = _kernels._nearest_np(x, levels, thr)
    np.testing.assert_array_equal(a, b)
    # tie exactly on a threshold resolves to the upper level on both paths
    ties = thr.copy()
    np.testing.assert_array_equal(
        _kernels.nearest_map(ties, levels, thr), levels[1:]
    )
    np.testing.assert_array_equal(
        _kernels._nearest_np(ties, levels, thr), levels[1:]
    )


def test_chain_paths_agree():
    rng = substream(3, "kern-chain")
    n = 96
    sizes = np.arange(n, 1, -1, dtype=np.int64)
    offsets = np.concatenate(([0], np.cumsum(sizes)))
    total = int(offsets[-1])
    gauss = (rng.standard_normal(total) + 1j * rng.standard_normal(total)) / np.sqrt(2)
    gamma = np.exp(2j * np.pi * rng.random())

    w_a = np.empty(total, np.complex128)
    betas_a = np.empty(n - 1, np.complex128)
    _kernels.chain_build(gauss, offsets, w_a, betas_a)
    w_b = np.empty(total, np.complex128)
    betas_b = np.empty(n - 1, np.complex128)
    _kernels._chain_build_np(gauss, offsets, w_b, betas_b)
    np.testing.assert_allclose(w_a, w_b, atol=1e-14)
    np.testing.assert_allclose(betas_a, betas_b, atol=1e-14)

    z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    for forward in (True, False):
        za = z.copy()
        zb = z.copy()
        _kernels.chain_apply(w_a, offsets, betas_a, gamma, za, forward)
        _kernels._chain_apply_np(w_a, offsets, betas_a, gamma, zb, forward)
        np.testing.assert_allclose(za, zb, atol=1e-12)


def test_env_flag_selects_numpy_fallback():
    code = (
        "from qlt import _kernels; "
        "assert not _kernels.NUMBA_ENABLED; "
        "assert _kernels.midrise_map is _kernels._midrise_np; "
        "import qlt, math; "
        "m = qlt.tx_moments(qlt.QuantizerSpec.uniform_midrise(1, 1.0), 1.0, "
        "qlt.MonteCarlo(samples=20000, seed=0)); "
        "assert abs(m.gain - 2/math.sqrt(math.pi)) < 0.05"
    )
    env = dict(os.environ, QLT_NO_NUMBA="1")
    subprocess.run([sys.executable, "-c", code], check=True, env=env)


def test_numba_is_default_path():
    pytest.importorskip("numba")
    # a fresh interpreter without QLT_NO_NUMBA, so the caller's setting cannot
    # decide which path the import selects
    code = (
        "from qlt import _kernels; "
        "assert _kernels.NUMBA_ENABLED; "
        "assert _kernels.midrise_map is _kernels._midrise_nb; "
        "assert _kernels.nearest_map is _kernels._nearest_nb; "
        "assert _kernels.chain_build is _kernels._chain_build_nb; "
        "assert _kernels.chain_apply is _kernels._chain_apply_nb"
    )
    env = {k: v for k, v in os.environ.items() if k != "QLT_NO_NUMBA"}
    subprocess.run([sys.executable, "-c", code], check=True, env=env)


def test_chain_build_in_place():
    # gauss and w may be the same array, on either path
    rng = substream(4, "kern-alias")
    n = 40
    offsets = np.concatenate(([0], np.cumsum(np.arange(n, 1, -1, dtype=np.int64))))
    total = int(offsets[-1])
    for build in (_kernels.chain_build, _kernels._chain_build_np):
        gauss = rng.standard_normal(total) + 1j * rng.standard_normal(total)
        w = np.empty(total, np.complex128)
        betas = np.empty(n - 1, np.complex128)
        build(gauss, offsets, w, betas)
        betas_in_place = np.empty(n - 1, np.complex128)
        build(gauss, offsets, gauss, betas_in_place)
        np.testing.assert_array_equal(gauss, w)
        np.testing.assert_array_equal(betas_in_place, betas)


def test_kernel_bench_labels_columns_by_reported_path():
    spec = importlib.util.spec_from_file_location(
        "kernel_bench", Path(__file__).parents[1] / "benchmarks" / "kernel_bench.py"
    )
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    times = dict.fromkeys(bench.CASES, 0.002)

    both_numpy = bench.format_table(dict(times, numba=False), dict(times, numba=False))
    assert both_numpy[0].split()[1:] == ["numpy", "numpy"]
    assert all(not line.endswith("x") for line in both_numpy)
    assert both_numpy[-1] == "no comparison: numba is not importable"

    compared = bench.format_table(dict(times, numba=True), dict(times, numba=False))
    assert compared[0].split()[1:] == ["numba", "numpy", "speedup"]
    assert all(line.endswith("1.00x") for line in compared[1:])
