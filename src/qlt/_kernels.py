"""Hot per-sample kernels: scalar quantization and Householder-chain transforms.

Each kernel has one numpy implementation: ``midrise_map`` and ``nearest_map``
serve :func:`qlt.quantizer.quantize`, ``chain_build`` and ``chain_apply`` serve
:class:`qlt.montecarlo.HouseholderChain`.  The chain kernels keep each
reflector unnormalized, with one real scale: H_i = I - tau_i v_i v_i^H.
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


# chain_build turns each Gaussian segment w[offsets[i]:offsets[i+1]], a, into
# the unnormalized Householder vector v = a + phase * |a| * e_1 in place, with
# phase = a_0 / |a_0| (1 where a_0 is 0).  It writes -phase into betas[i] and
# the reflector's scale 1 / (|a| (|a| + |a_0|)) = 2 / |v|^2 into taus[i], so
# the reflector is I - taus[i] v v^H.  It may be called on any run of whole
# segments, with offsets rebased to 0; each segment's result does not depend
# on which other segments share the call.  The kernel works on the whole run
# at once, so its temporaries scale with the run, not with one segment.
def chain_build(w, offsets, betas, taus):
    starts = offsets[:-1]
    v = w[:offsets[-1]]
    f = v.view(np.float64)
    nrm = np.sqrt(np.add.reduceat(f * f, 2 * starts))
    a0 = v[starts]
    r0 = np.abs(a0)
    phase = np.divide(a0, r0, out=np.ones_like(a0), where=r0 > 0.0)
    betas[:] = -phase
    taus[:] = 1.0 / (nrm * (nrm + r0))
    v[starts] = a0 + phase * nrm


# chain_apply computes z <- V z (forward) or z <- V^H z in place, for the Haar
# product V = H_0 D_0 H_1 D_1 ... H_{n-2} D_{n-2} G, where H_i is reflector i
# acting on z[i:], D_i multiplies coordinate i by phases[i] = betas[i] and G
# the last coordinate by phases[n-1] = gamma.  H_j leaves coordinate i < j
# alone, so D_i commutes with it and V = H_0 ... H_{n-2} diag(phases): the
# phases apply as one vector, before the reflectors or after their adjoints.
def chain_apply(w, offsets, taus, phases, z, forward):
    offs = offsets.tolist()
    tau = taus.tolist()
    if forward:
        z *= phases
        for i in range(len(tau) - 1, -1, -1):
            wk = w[offs[i]:offs[i + 1]]
            seg = z[i:]
            seg -= wk * (tau[i] * np.vdot(wk, seg))
    else:
        for i in range(len(tau)):
            wk = w[offs[i]:offs[i + 1]]
            seg = z[i:]
            seg -= wk * (tau[i] * np.vdot(wk, seg))
        z *= phases.conj()
