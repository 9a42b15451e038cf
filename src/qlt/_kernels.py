"""Hot per-sample kernels: scalar quantization and Householder-chain transforms.

Each kernel has one numpy implementation: ``midrise_map`` and ``nearest_map``
serve :func:`qlt.quantizer.quantize`, ``chain_build`` and ``chain_apply`` serve
:class:`qlt.montecarlo.HouseholderChain`.
"""

import numpy as np

# perfbench/run.py::host_block reports its kernel_path from this constant
NUMBA_ENABLED = False


def midrise_map(x, clip, nlevels):
    step = 2.0 * clip / (nlevels - 1)
    idx = np.floor((x + clip) / step + 0.5)
    np.clip(idx, 0.0, nlevels - 1, out=idx)
    return -clip + idx * step


def nearest_map(x, levels, thresholds):
    # thresholds are the midpoints between consecutive levels; a sample
    # exactly on a threshold maps to the upper level
    idx = np.searchsorted(thresholds, x, side="right")
    return levels[idx]


# chain_build turns each Gaussian segment gauss[offsets[i]:offsets[i+1]] into
# a unit Householder vector in the same slice of w, and its phase into
# betas[i].  It may be called on any run of whole segments, with offsets
# rebased to 0; each segment's result does not depend on which other segments
# share the call.  gauss and w may be the same array: a segment is read in
# full before it is written.  The kernel works on the whole run at once, so
# its temporaries scale with the run, not with one segment.
def chain_build(gauss, offsets, w, betas):
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


def chain_apply(w, offsets, betas, gamma, z, forward):
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
