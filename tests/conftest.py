import math

import numpy as np
import pytest


@pytest.fixture(scope="session")
def arcsine_band_energies():
    """Exact oracle for a two-band plan through the hard-limited deterministic
    FFT transform: the output autocorrelation of a scaled complex sign device
    follows the arcsine law per dimension (Van Vleck & Middleton 1966).

    Returns ``energies(n, powers, clip) -> (first band, second band)``, the
    per-band energies of the quantized output for the band powers ``powers``.
    """

    def energies(n, powers, clip):
        spectrum = np.zeros(n)
        spectrum[: n // 2] = powers[0]
        spectrum[n // 2 :] = powers[1]
        r_in = np.fft.ifft(spectrum)
        rho = r_in / r_in[0].real
        r_out = (2.0 / math.pi) * 2.0 * clip**2 * (
            np.arcsin(np.real(rho)) + 1j * np.arcsin(np.imag(rho))
        )
        s_out = np.fft.fft(r_out).real
        return s_out[: n // 2].sum() / n, s_out[n // 2 :].sum() / n

    return energies


@pytest.fixture(scope="session")
def product_constellation():
    """The 4**bits enumeration of a constellation L x L, which the library
    never builds: ``enumerate_points(levels) -> (points, energies)``, each
    point ``a + 1j * b`` (real rail major) and its energy ``a**2 + b**2``."""

    def enumerate_points(levels):
        lv = np.asarray(levels, dtype=float)
        sq = lv**2
        return (lv[:, None] + 1j * lv[None, :]).ravel(), (sq[:, None] + sq[None, :]).ravel()

    return enumerate_points
