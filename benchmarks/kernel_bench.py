#!/usr/bin/env python3
"""Benchmark the jitted kernels against the pure-numpy fallback.

The parent process runs itself twice as a child: once with numba enabled
(default) and once with QLT_NO_NUMBA=1, then prints a table whose columns
name the kernel path each child actually ran.  Where numba cannot be
imported both children run numpy, and no speedup is printed.  Kernel
selection happens at import time, so fresh interpreters are required.
"""

import json
import os
import subprocess
import sys
import time

CASES = {
    "midrise 4-bit, 4M samples": ("midrise", 4_000_000),
    "nearest-level, 4M samples": ("nearest", 4_000_000),
    "householder chain build, n=2048": ("build", 2048),
    "householder chain apply, n=4096": ("chain", 4096),
    "tx trial end-to-end, n=2048": ("trial", 2048),
}

REPEATS = 5


def run_child():
    import numpy as np

    from qlt import _kernels
    from qlt._rng import substream
    from qlt.montecarlo import HouseholderChain

    _kernels.warmup()
    results = {"numba": _kernels.NUMBA_ENABLED}
    rng = substream(0, "bench")

    for label, (kind, size) in CASES.items():
        if kind == "midrise":
            x = rng.standard_normal(size)
            args = (x, 2.6, 16)
            fn = lambda: _kernels.midrise_map(*args)
        elif kind == "nearest":
            x = rng.standard_normal(size)
            levels = np.linspace(-2.5, 2.5, 16)
            thr = (levels[:-1] + levels[1:]) / 2
            fn = lambda: _kernels.nearest_map(x, levels, thr)
        elif kind == "build":
            fn = lambda: HouseholderChain(size, substream(1, "bench-chain"))
        elif kind == "chain":
            chain = HouseholderChain(size, substream(1, "bench-chain"))
            z = rng.standard_normal(size) + 1j * rng.standard_normal(size)
            fn = lambda: chain.apply(z)
        else:
            from qlt import QuantizerSpec, SimConfig, SubbandPlan, run_tx_trials

            cfg = SimConfig(
                size=size,
                plan=SubbandPlan((0.5, 0.5), (2.0, 0.0)),
                dac=QuantizerSpec.uniform_midrise(1, 1.0),
                trials=2,
                seed=0,
            )
            fn = lambda: run_tx_trials(cfg)
        fn()  # warm path (allocations, jit)
        best = min(_time_once(fn) for _ in range(REPEATS))
        results[label] = best
    print(json.dumps(results))


def _time_once(fn):
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def main():
    rows = {}
    for mode, env_extra in (("numba", {}), ("numpy", {"QLT_NO_NUMBA": "1"})):
        env = dict(os.environ, **env_extra)
        out = subprocess.run(
            [sys.executable, __file__, "--child"],
            env=env, check=True, capture_output=True, text=True,
        ).stdout
        rows[mode] = json.loads(out.strip().splitlines()[-1])
    print("\n".join(format_table(rows["numba"], rows["numpy"])))


def format_table(default, fallback):
    """Table lines for the default-path and QLT_NO_NUMBA=1 child results.

    Each time column is headed by the kernel path its child reports; a
    speedup is printed only when the two children ran different paths.
    """
    heads = ["numba" if r["numba"] else "numpy" for r in (default, fallback)]
    compare = heads[0] != heads[1]
    width = max(len(k) for k in CASES)
    head = f"{'case':<{width}}   {heads[0]:>10}   {heads[1]:>10}"
    lines = [head + "   speedup" if compare else head]
    for label in CASES:
        a, b = default[label], fallback[label]
        line = f"{label:<{width}}   {a * 1e3:>8.2f}ms   {b * 1e3:>8.2f}ms"
        lines.append(line + (f"   {b / a:>6.2f}x" if compare else ""))
    if not compare:
        lines.append("no comparison: numba is not importable")
    return lines


if __name__ == "__main__":
    if "--child" in sys.argv:
        run_child()
    else:
        main()
