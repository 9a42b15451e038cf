import numpy as np
import pytest

from qlt import _kernels
from qlt._rng import substream
from qlt.montecarlo import HouseholderChain


def _dense_chain(w, offsets, betas, gamma, n):
    # V = H_0 D_0 H_1 D_1 ... H_{n-2} D_{n-2} G, with H_i the reflector
    # I - 2 w_i w_i^H acting on coordinates i..n-1, D_i = diag(.., betas[i] at
    # i, ..) and G = diag(1, .., 1, gamma)
    v = np.eye(n, dtype=complex)
    for i in range(n - 1):
        wi = w[offsets[i]:offsets[i + 1]]
        h = np.eye(n, dtype=complex)
        h[i:, i:] -= 2.0 * np.outer(wi, wi.conj())
        d = np.eye(n, dtype=complex)
        d[i, i] = betas[i]
        v = v @ h @ d
    v[:, n - 1] *= gamma
    return v


@pytest.mark.parametrize("n", [1, 2, 3, 17, 64])
def test_chain_matches_dense_reflector_product(n):
    rng = substream(5, "kern-dense", n)
    chain = HouseholderChain(n, rng)
    eye = np.eye(n, dtype=complex)
    applied = np.column_stack([chain.apply(eye[:, k]) for k in range(n)])
    dense = _dense_chain(chain.w, chain.offsets, chain.betas, chain.gamma, n)
    np.testing.assert_allclose(applied, dense, atol=1e-13)
    np.testing.assert_allclose(dense.conj().T @ dense, eye, atol=1e-13)
    z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    np.testing.assert_allclose(chain.apply_adjoint(chain.apply(z)), z, atol=1e-13)
    np.testing.assert_allclose(chain.apply_adjoint(z), dense.conj().T @ z, atol=1e-13)


def test_chain_build_reflects_each_draw_onto_its_first_axis():
    # H_i x_i = betas[i] * |x_i| * e_1 for every Gaussian segment x_i, and a
    # segment whose first entry is exactly 0 takes the phase 1 (betas = -1)
    rng = substream(6, "kern-reflect")
    n = 24
    offsets = np.concatenate(([0], np.cumsum(np.arange(n, 1, -1, dtype=np.int64))))
    gauss = rng.standard_normal(offsets[-1]) + 1j * rng.standard_normal(offsets[-1])
    zero_first = (0, 5, n - 2)
    gauss[offsets[list(zero_first)]] = 0.0
    w = np.empty_like(gauss)
    betas = np.empty(n - 1, np.complex128)
    _kernels.chain_build(gauss, offsets, w, betas)
    for i in range(n - 1):
        x = gauss[offsets[i]:offsets[i + 1]]
        wi = w[offsets[i]:offsets[i + 1]]
        assert abs(np.linalg.norm(wi) - 1.0) < 1e-14
        assert abs(abs(betas[i]) - 1.0) < 1e-14
        e1 = np.zeros(x.size, complex)
        e1[0] = betas[i] * np.linalg.norm(x)
        np.testing.assert_allclose(x - 2.0 * wi * np.vdot(wi, x), e1, atol=1e-13)
    assert all(betas[i] == -1.0 for i in zero_first)


def test_chain_build_segments_independent_of_grouping():
    # a run of segments built in one call matches the same segments built in
    # any split into smaller runs, with offsets rebased to each run, bit for bit
    rng = substream(8, "kern-groups")
    n = 300
    offsets = np.concatenate(([0], np.cumsum(np.arange(n, 1, -1, dtype=np.int64))))
    gauss = rng.standard_normal(offsets[-1]) + 1j * rng.standard_normal(offsets[-1])
    w_all = np.empty_like(gauss)
    betas_all = np.empty(n - 1, np.complex128)
    _kernels.chain_build(gauss, offsets, w_all, betas_all)
    # single-segment runs at both ends, random runs in between
    cuts = np.unique(np.concatenate(([0, 1, n - 2, n - 1], rng.integers(1, n - 1, 12))))
    w = np.empty_like(gauss)
    betas = np.empty(n - 1, np.complex128)
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        a, b = offsets[lo], offsets[hi]
        _kernels.chain_build(gauss[a:b], offsets[lo:hi + 1] - a, w[a:b], betas[lo:hi])
    np.testing.assert_array_equal(w.view(float), w_all.view(float))
    np.testing.assert_array_equal(betas.view(float), betas_all.view(float))


def _chain_apply_loop(w, offsets, betas, gamma, z, forward):
    # the reflector update as written before the temporary-free form
    n = z.shape[0]
    nfac = offsets.shape[0] - 1
    if forward:
        z[n - 1] *= gamma
        for i in range(nfac - 1, -1, -1):
            wk = w[offsets[i]:offsets[i + 1]]
            seg = z[n - wk.shape[0]:]
            seg[0] *= betas[i]
            seg -= 2.0 * wk * np.vdot(wk, seg)
    else:
        for i in range(nfac):
            wk = w[offsets[i]:offsets[i + 1]]
            seg = z[n - wk.shape[0]:]
            seg -= 2.0 * wk * np.vdot(wk, seg)
            seg[0] *= np.conj(betas[i])
        z[n - 1] *= np.conj(gamma)


@pytest.mark.parametrize("n", [2, 257, 1024])
def test_chain_apply_np_bit_identical_to_reference_loop(n):
    rng = substream(7, "kern-apply", n)
    chain = HouseholderChain(n, rng)
    z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    for forward in (True, False):
        got, ref = z.copy(), z.copy()
        _kernels.chain_apply(chain.w, chain.offsets, chain.betas, chain.gamma, got, forward)
        _chain_apply_loop(chain.w, chain.offsets, chain.betas, chain.gamma, ref, forward)
        np.testing.assert_array_equal(got.view(float), ref.view(float))


def test_chain_build_in_place():
    # gauss and w may be the same array
    rng = substream(4, "kern-alias")
    n = 40
    offsets = np.concatenate(([0], np.cumsum(np.arange(n, 1, -1, dtype=np.int64))))
    total = int(offsets[-1])
    gauss = rng.standard_normal(total) + 1j * rng.standard_normal(total)
    w = np.empty(total, np.complex128)
    betas = np.empty(n - 1, np.complex128)
    _kernels.chain_build(gauss, offsets, w, betas)
    betas_in_place = np.empty(n - 1, np.complex128)
    _kernels.chain_build(gauss, offsets, gauss, betas_in_place)
    np.testing.assert_array_equal(gauss, w)
    np.testing.assert_array_equal(betas_in_place, betas)
