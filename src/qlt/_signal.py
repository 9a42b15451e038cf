"""The waveform's signal-processing kernels, in one namespace.

``upfirdn`` is the zero-stuff interpolation filter, a polyphase overlap-save
FFT filter (Oppenheim & Schafer, *Discrete-Time Signal Processing*, 3rd ed.
2010, ch. 8; Crochiere & Rabiner, *Multirate Digital Signal Processing*,
1983).  The filter design and window functions come from ``scipy.signal``.
"""

import numpy as np
from scipy.signal import firwin, get_window, kaiser_beta

__all__ = ["firwin", "get_window", "kaiser_beta", "upfirdn"]

#: Overlap-save frame length: on the waveform geometries (x2-x4, 127-511
#: taps) it timed within noise of 2048 and about 10% faster than 8192.
_BLOCK = 4096

#: Most samples (frames times branches times block) one batch of inverse
#: FFTs holds, whatever the stream length: 1 MB per scratch array, which
#: timed about a quarter faster than 2**18 on the x4/255-tap preset.
_BATCH_SAMPLES = 2**16


def upfirdn(h: np.ndarray, x: np.ndarray, up: int) -> np.ndarray:
    """Full-length output of ``scipy.signal.upfirdn(h, x, up=up)`` for real
    taps ``h`` and a 1-D stream ``x``: ``(x.size - 1) * up + h.size`` samples.

    Output sample ``n * up + p`` is branch ``p`` (taps ``h[p::up]``, ``M``
    of them) convolved with ``x`` at ``n``.  The zero-padded stream is cut
    into strided frames of ``B`` samples stepping by ``B - M + 1``; each
    frame takes one FFT, a product with every branch spectrum and ``up``
    inverse FFTs, whose first ``M - 1`` (circularly wrapped) samples are
    dropped and whose branches are interleaved.

    Only the output is stream-sized.  Each batch's frames are a strided view
    of ``x``; the zero padding is copied only for the batches at its two
    ends.  The forward FFTs of every batch go to one reused buffer, the
    branch products to another, and their inverse FFTs are written back
    into it.  The two stay reused, unlike the waveform measurement's
    per-block temporaries: synthesis sets the waveform run's memory peak,
    and per-batch arrays raised that tracemalloc peak by 0.6-1.1% on the
    waveform memory tests' geometries.
    """
    h = np.asarray(h, dtype=float)
    x = np.asarray(x, dtype=complex)
    m = -(-h.size // up)
    block = max(_BLOCK, 1 << (2 * m - 1).bit_length())
    step = block - m + 1
    n_out = x.size + m - 1  # outputs per branch: the full convolution
    frames = -(-n_out // step)

    branches = np.zeros(m * up)
    branches[: h.size] = h
    spectra = np.fft.fft(branches.reshape(m, up).T, n=block, axis=-1)

    out = np.empty((frames, step, up), dtype=complex)
    batch = max(1, _BATCH_SAMPLES // (up * block))
    forward = np.empty((batch, block), dtype=complex)
    product = np.empty((batch, up, block), dtype=complex)
    for i in range(0, frames, batch):
        nb = min(batch, frames - i)
        span = _padded_span(x, m - 1, i * step, (i + nb - 1) * step + block)
        spec = np.fft.fft(np.lib.stride_tricks.sliding_window_view(span, block)[::step], axis=-1,
                          out=forward[:nb])
        branch_out = np.multiply(spec[:, None, :], spectra, out=product[:nb])
        np.fft.ifft(branch_out, axis=-1, out=branch_out)
        out[i : i + nb] = branch_out[:, :, m - 1 :].transpose(0, 2, 1)
    return out.reshape(-1)[: (x.size - 1) * up + h.size]


def _padded_span(x: np.ndarray, lead: int, lo: int, hi: int) -> np.ndarray:
    """Samples ``lo:hi`` of ``x`` behind ``lead`` zeros and followed by
    zeros: a view of ``x`` where the span lies inside it, else a copy."""
    if lo >= lead and hi <= lead + x.size:
        return x[lo - lead : hi - lead]
    span = np.zeros(hi - lo, dtype=x.dtype)
    first, last = max(lo, lead), min(hi, lead + x.size)
    span[first - lo : last - lo] = x[first - lead : last - lead]
    return span
