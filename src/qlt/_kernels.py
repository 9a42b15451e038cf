"""Hot per-sample kernels: scalar quantization and Householder-chain transforms.

Numba-jitted implementations are used by default when numba can be imported.
When it cannot, or when the environment variable ``QLT_NO_NUMBA=1`` is set
before import, the pure-numpy fallbacks run; they have identical semantics.
``NUMBA_ENABLED`` records which path was selected, and
``benchmarks/kernel_bench.py`` compares the two paths.
"""

import os

import numpy as np

NUMBA_ENABLED = os.environ.get("QLT_NO_NUMBA", "").lower() not in ("1", "true", "yes")

if NUMBA_ENABLED:
    try:
        from numba import njit
    except ImportError:  # numba not installed: the numpy kernels run
        NUMBA_ENABLED = False


# ---------------------------------------------------------------------------
# pure-numpy reference implementations
# ---------------------------------------------------------------------------

def _midrise_np(x, clip, nlevels):
    step = 2.0 * clip / (nlevels - 1)
    idx = np.floor((x + clip) / step + 0.5)
    np.clip(idx, 0.0, nlevels - 1, out=idx)
    return -clip + idx * step


def _nearest_np(x, levels, thresholds):
    # thresholds are the midpoints between consecutive levels; a sample
    # exactly on a threshold maps to the upper level
    idx = np.searchsorted(thresholds, x, side="right")
    return levels[idx]


# chain_build turns each Gaussian segment gauss[offsets[i]:offsets[i+1]] into
# a unit Householder vector in the same slice of w, and its phase into
# betas[i].  It may be called on any run of whole segments, with offsets
# rebased to 0; each segment's result does not depend on which other segments
# share the call.  gauss and w may be the same array: both kernels read a
# segment in full before writing it.  The numpy kernel works on the whole run
# at once, so its temporaries scale with the run, not with one segment.
def _chain_build_np(gauss, offsets, w, betas):
    end = offsets[-1]
    starts = offsets[:-1]
    a0 = gauss[starts]
    nrm = np.sqrt(np.add.reduceat(gauss.real[:end]**2 + gauss.imag[:end]**2, starts))
    r0 = np.hypot(a0.real, a0.imag)
    phase = np.divide(a0, r0, out=np.ones_like(a0), where=r0 > 0.0)
    betas[:] = -phase
    if w is not gauss:
        w[:end] = gauss[:end]
    v = w[:end]
    v[starts] = a0 + phase * nrm
    v /= np.repeat(np.sqrt(np.add.reduceat(v.real**2 + v.imag**2, starts)), np.diff(offsets))


def _chain_apply_np(w, offsets, betas, gamma, z, forward):
    n = z.shape[0]
    nfac = offsets.shape[0] - 1
    if forward:
        z[n - 1] *= gamma
        for i in range(nfac - 1, -1, -1):
            wk = w[offsets[i]:offsets[i + 1]]
            seg = z[n - wk.shape[0]:]
            seg[0] *= betas[i]
            seg -= wk * (2.0 * np.vdot(wk, seg))
    else:
        for i in range(nfac):
            wk = w[offsets[i]:offsets[i + 1]]
            seg = z[n - wk.shape[0]:]
            seg -= wk * (2.0 * np.vdot(wk, seg))
            seg[0] *= np.conj(betas[i])
        z[n - 1] *= np.conj(gamma)


# ---------------------------------------------------------------------------
# numba kernels
# ---------------------------------------------------------------------------

if NUMBA_ENABLED:

    @njit(cache=True)
    def _midrise_nb(x, clip, nlevels):
        step = 2.0 * clip / (nlevels - 1)
        out = np.empty_like(x)
        top = float(nlevels - 1)
        for i in range(x.shape[0]):
            idx = np.floor((x[i] + clip) / step + 0.5)
            if idx < 0.0:
                idx = 0.0
            elif idx > top:
                idx = top
            out[i] = -clip + idx * step
        return out

    @njit(cache=True)
    def _nearest_nb(x, levels, thresholds):
        out = np.empty_like(x)
        nt = thresholds.shape[0]
        for i in range(x.shape[0]):
            lo, hi = 0, nt
            v = x[i]
            while lo < hi:
                mid = (lo + hi) // 2
                if v >= thresholds[mid]:
                    lo = mid + 1
                else:
                    hi = mid
            out[i] = levels[lo]
        return out

    @njit(cache=True)
    def _chain_build_nb(gauss, offsets, w, betas):
        nfac = offsets.shape[0] - 1
        for i in range(nfac):
            a, b = offsets[i], offsets[i + 1]
            nrm2 = 0.0
            for j in range(a, b):
                g = gauss[j]
                nrm2 += g.real * g.real + g.imag * g.imag
            nrm = np.sqrt(nrm2)
            a0 = gauss[a]
            r0 = abs(a0)
            phase = a0 / r0 if r0 > 0.0 else 1.0 + 0.0j
            betas[i] = -phase
            w[a] = a0 + phase * nrm
            vn2 = w[a].real * w[a].real + w[a].imag * w[a].imag
            for j in range(a + 1, b):
                w[j] = gauss[j]
                vn2 += w[j].real * w[j].real + w[j].imag * w[j].imag
            inv = 1.0 / np.sqrt(vn2)
            for j in range(a, b):
                w[j] *= inv

    @njit(cache=True)
    def _chain_apply_nb(w, offsets, betas, gamma, z, forward):
        n = z.shape[0]
        nfac = offsets.shape[0] - 1
        if forward:
            z[n - 1] *= gamma
            for i in range(nfac - 1, -1, -1):
                a, b = offsets[i], offsets[i + 1]
                k = b - a
                z[n - k] *= betas[i]
                dot = 0.0 + 0.0j
                for j in range(k):
                    dot += np.conj(w[a + j]) * z[n - k + j]
                dot *= 2.0
                for j in range(k):
                    z[n - k + j] -= dot * w[a + j]
        else:
            for i in range(nfac):
                a, b = offsets[i], offsets[i + 1]
                k = b - a
                dot = 0.0 + 0.0j
                for j in range(k):
                    dot += np.conj(w[a + j]) * z[n - k + j]
                dot *= 2.0
                for j in range(k):
                    z[n - k + j] -= dot * w[a + j]
                z[n - k] *= np.conj(betas[i])
            z[n - 1] *= np.conj(gamma)

    midrise_map = _midrise_nb
    nearest_map = _nearest_nb
    chain_build = _chain_build_nb
    chain_apply = _chain_apply_nb
else:
    midrise_map = _midrise_np
    nearest_map = _nearest_np
    chain_build = _chain_build_np
    chain_apply = _chain_apply_np


def warmup():
    """Trigger jit compilation so timed code paths run at full speed."""
    x = np.linspace(-1, 1, 8)
    midrise_map(x, 1.0, 4)
    nearest_map(x, np.array([-1.0, 1.0]), np.array([0.0]))
    g = (np.arange(1, 6) + 1j * np.arange(5, 0, -1)).astype(np.complex128)
    offs = np.array([0, 3, 5], dtype=np.int64)
    w = np.empty(5, np.complex128)
    betas = np.empty(2, np.complex128)
    chain_build(g, offs, w, betas)
    z = np.ones(3, np.complex128)
    chain_apply(w, offs, betas, 1.0 + 0.0j, z, True)
    chain_apply(w, offs, betas, 1.0 + 0.0j, z, False)
