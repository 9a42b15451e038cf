"""Machine-speed factors that take a shared host's drift out of wall times.

On a shared host, other tenants slow this machine by up to ~50% for seconds
at a time.  How much a piece of code slows depends on what it does, so each
kind of work is paired with a fixed reference kernel that does the same kind
of work and never touches qlt: interpreter arithmetic for imports and for
the Haar ops (whose chain kernels loop over reflectors in Python), small
numpy calls among list reads for the closed-form ops, and numpy passes over
a 2 MB array for the waveform ops.  The kernel
is timed next to every measurement, and a stretch of wall time is scaled by
the kernel's time on an uncontended core over its time then: seconds at the
speed of an uncontended core.  Unscaled times are kept beside the scaled
ones.  Because the kernels never call qlt, a change to qlt shows in full.
"""

import time

_TABLE = list(range(1 << 16))


def _loop(n):
    """Interpreter arithmetic only (safe before numpy is imported)."""
    total = 0
    for i in range(n * 100):
        total += i * i % 7
    return total


def _numpy(n):
    """Interpreter work mixed with numpy calls on small arrays."""
    import numpy as np

    total = 0
    a = np.arange(64.0)
    for i in range(n * 100):
        total += _TABLE[(i * 7919) & 0xFFFF] % 7
        if i % 8 == 0:
            a = np.sqrt(a + 1.0)
    return total


def _arrays(n):
    """Interpreter work mixed with numpy passes over a 2 MB array."""
    import numpy as np

    total = 0
    for i in range(n * 10_000):
        total += i * i % 7
    a = np.linspace(0.0, 1.0, 1 << 18)
    for _ in range(n):
        a = np.sqrt(a * a + 1.0)
    return total + float(a[0])


# kernel -> (function, seconds per unit of work on an uncontended core of a
# 2-core Xeon with Python 3.11 and numpy 2.4)
KERNELS = {
    "loop": (_loop, 6.6e-6),
    "numpy": (_numpy, 2.5e-5),
    "arrays": (_arrays, 2.0e-3),
}

# the kernel matched to each workload's warm ops and cold runs
WORKLOAD_KERNEL = {"closed-form": "numpy", "mc-haar": "loop", "waveform-aclr": "arrays"}


def probe(kernel, units):
    """Speed factor now: reference time over measured time of the kernel."""
    fn, reference = KERNELS[kernel]
    t0 = time.perf_counter()
    fn(units)
    return units * reference / (time.perf_counter() - t0)


def scaled(start, end, samples):
    """Seconds at reference speed of the wall-clock stretch [start, end].

    ``samples`` are (monotonic time, factor) pairs in time order.  The factor
    is interpolated linearly between samples and held constant before the
    first and after the last.
    """
    if not samples:
        return end - start
    total = 0.0
    t_first, f_first = samples[0]
    t_last, f_last = samples[-1]
    if start < t_first:
        total += (min(end, t_first) - start) * f_first
    if end > t_last:
        total += (end - max(start, t_last)) * f_last
    for (t1, f1), (t2, f2) in zip(samples, samples[1:]):
        lo, hi = max(start, t1), min(end, t2)
        if lo < hi:
            slope = (f2 - f1) / (t2 - t1)
            total += (hi - lo) * (f1 + slope * ((lo + hi) / 2 - t1))
    return total


class Probes:
    """Speed samples taken in this process between measurements."""

    def __init__(self, kernel, seconds=0.003):
        self.kernel = kernel
        self.units = max(1, round(seconds / KERNELS[kernel][1]))
        self.samples = []
        probe(kernel, self.units)  # the first call builds the kernel's arrays
        self.take()

    def take(self):
        """The faster of two runs, so a stray interruption does not count."""
        f = max(probe(self.kernel, self.units), probe(self.kernel, self.units))
        self.samples.append((time.monotonic(), f))
        return f

    @property
    def last(self):
        return self.samples[-1][0]
