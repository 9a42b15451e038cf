import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qlt._rng import substream
from qlt.montecarlo import HouseholderChain, _build_reflectors


def _dense_chain(w, offsets, taus, phases, n):
    # V = H_0 D_0 H_1 D_1 ... H_{n-2} D_{n-2} G, with H_i the reflector
    # I - taus[i] w_i w_i^H acting on coordinates i..n-1, D_i = diag(..,
    # phases[i] at i, ..) and G = diag(1, .., 1, phases[n-1])
    v = np.eye(n, dtype=complex)
    for i in range(n - 1):
        wi = w[offsets[i]:offsets[i + 1]]
        h = np.eye(n, dtype=complex)
        h[i:, i:] -= taus[i] * np.outer(wi, wi.conj())
        d = np.eye(n, dtype=complex)
        d[i, i] = phases[i]
        v = v @ h @ d
    v[:, n - 1] *= phases[n - 1]
    return v


@pytest.mark.parametrize("n", [1, 2, 3, 17, 64])
def test_chain_matches_dense_reflector_product(n):
    rng = substream(5, "kern-dense", n)
    chain = HouseholderChain(n, rng)
    eye = np.eye(n, dtype=complex)
    applied = np.column_stack([chain.apply(eye[:, k]) for k in range(n)])
    dense = _dense_chain(chain.w, chain.offsets, chain.taus, chain.phases, n)
    np.testing.assert_allclose(applied, dense, atol=1e-13)
    np.testing.assert_allclose(dense.conj().T @ dense, eye, atol=1e-13)
    z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    np.testing.assert_allclose(chain.apply_adjoint(chain.apply(z)), z, atol=1e-13)
    np.testing.assert_allclose(chain.apply_adjoint(z), dense.conj().T @ z, atol=1e-13)


def _segments(n):
    return np.concatenate(([0], np.cumsum(np.arange(n, 1, -1, dtype=np.int64))))


def test_chain_build_reflects_each_draw_onto_its_first_axis():
    # H_i x_i = betas[i] * |x_i| * e_1 for every Gaussian segment x_i, and a
    # segment whose first entry is exactly 0 takes the phase 1 (betas = -1)
    # with a finite scale
    rng = substream(6, "kern-reflect")
    n = 24
    offsets = _segments(n)
    gauss = rng.standard_normal(offsets[-1]) + 1j * rng.standard_normal(offsets[-1])
    zero_first = (0, 5, n - 2)
    gauss[offsets[list(zero_first)]] = 0.0
    w = gauss.copy()
    betas = np.empty(n - 1, np.complex128)
    taus = np.empty(n - 1)
    _build_reflectors(w, offsets, betas, taus)
    for i in range(n - 1):
        x = gauss[offsets[i]:offsets[i + 1]]
        wi = w[offsets[i]:offsets[i + 1]]
        assert abs(abs(betas[i]) - 1.0) < 1e-14
        e1 = np.zeros(x.size, complex)
        e1[0] = betas[i] * np.linalg.norm(x)
        np.testing.assert_allclose(x - taus[i] * wi * np.vdot(wi, x), e1, atol=1e-13)
    assert all(betas[i] == -1.0 for i in zero_first)
    assert all(np.isfinite(taus[i]) and taus[i] > 0.0 for i in zero_first)


def test_chain_build_segments_independent_of_grouping():
    # a run of segments built in one call matches the same segments built in
    # any split into smaller runs, with offsets rebased to each run, bit for bit
    rng = substream(8, "kern-groups")
    n = 300
    offsets = _segments(n)
    gauss = rng.standard_normal(offsets[-1]) + 1j * rng.standard_normal(offsets[-1])
    w_all = gauss.copy()
    betas_all = np.empty(n - 1, np.complex128)
    taus_all = np.empty(n - 1)
    _build_reflectors(w_all, offsets, betas_all, taus_all)
    # single-segment runs at both ends, random runs in between
    cuts = np.unique(np.concatenate(([0, 1, n - 2, n - 1], rng.integers(1, n - 1, 12))))
    w = gauss.copy()
    betas = np.empty(n - 1, np.complex128)
    taus = np.empty(n - 1)
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        a, b = offsets[lo], offsets[hi]
        _build_reflectors(w[a:b], offsets[lo:hi + 1] - a, betas[lo:hi], taus[lo:hi])
    np.testing.assert_array_equal(w.view(float), w_all.view(float))
    np.testing.assert_array_equal(betas.view(float), betas_all.view(float))
    np.testing.assert_array_equal(taus, taus_all)


def _chain_apply_loop(w, offsets, taus, phases, z, forward):
    # one reflector at a time, bounds read from the offsets array, and the
    # phases as one vector multiply: numpy's vector complex multiply rounds
    # differently from its scalar one, so the kernel's vector form is kept
    n = z.shape[0]
    nfac = offsets.shape[0] - 1
    if forward:
        z *= phases
        for i in range(nfac - 1, -1, -1):
            wk = w[offsets[i]:offsets[i + 1]]
            seg = z[n - wk.shape[0]:]
            seg -= wk * (taus[i] * np.vdot(wk, seg))
    else:
        for i in range(nfac):
            wk = w[offsets[i]:offsets[i + 1]]
            seg = z[n - wk.shape[0]:]
            seg -= wk * (taus[i] * np.vdot(wk, seg))
        z *= np.conj(phases)


@pytest.mark.parametrize("n", [1, 2, 257, 1024])
def test_chain_apply_np_bit_identical_to_reference_loop(n):
    rng = substream(7, "kern-apply", n)
    chain = HouseholderChain(n, rng)
    z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    for apply, forward in ((chain.apply, True), (chain.apply_adjoint, False)):
        got, ref = apply(z), z.copy()
        _chain_apply_loop(chain.w, chain.offsets, chain.taus, chain.phases, ref, forward)
        np.testing.assert_array_equal(got.view(float), ref.view(float))


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(n=st.integers(1, 200), seed=st.integers(0, 2**32 - 1))
def test_chain_is_unitary_at_every_size(n, seed):
    rng = substream(seed, "kern-unitary", n)
    chain = HouseholderChain(n, rng)
    z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    y = chain.apply(z)
    np.testing.assert_allclose(chain.apply_adjoint(y), z, rtol=0.0, atol=1e-10 * np.linalg.norm(z))
    assert abs(np.linalg.norm(y) - np.linalg.norm(z)) < 1e-10 * np.linalg.norm(z)
