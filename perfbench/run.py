#!/usr/bin/env python3
"""qlt benchmark: seeded workloads of ``qlt`` CLI ops, end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload closed-form --seed 1 --seconds 12 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 12 --trace 1

``--trace 0`` measures the end-to-end metrics with tracing off.  Times are
wall times scaled to the speed of an uncontended core (speed.py); the
unscaled figures are printed beside them.

* setup_s      median wall time for a fresh interpreter to finish
               ``import qlt.cli`` (dedicated probes plus the cold runs);
* cold_run_s   median wall time of a fresh interpreter running the
               workload's shipped preset through the CLI with ``--seed``;
* op_p50_s     median wall time of the warm ops (after the first op);
* op_tail_s    warm-op percentile 1 - 10/N, the highest one with ten
               samples beyond it (N is printed beside it);
* items_per_s  work units per second of warm-op time;
* peak_rss_mb  peak resident memory of the workload process.

Ops run one after another in this process (a closed loop, one client), and
every op's files are checked against independent oracles (checks.py).

``--trace 1`` profiles imports with ``-X importtime``, runs the warm ops
untraced and then traced, and reports the per-layer metrics of
tracing.LAYER_METRICS.  Spans go to ``.perfbench_run/``.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.
"""

import argparse
import compileall
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import checks
import speed
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RUN_DIR = ROOT / ".perfbench_run"

SETUP_PROBES = 2  # fresh `import qlt.cli` interpreters, besides the cold runs
COLD_RUNS = 3
IMPORTTIME_RUNS = 3
CHILD_TIMEOUT_S = 120

END_TO_END = {
    "setup_s": "s",
    "cold_run_s": "s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "items_per_s": "items/s",
    "peak_rss_mb": "MB",
}

PROBE_INTERVAL_S = 0.2  # speed probes between warm ops, at most this far apart


class Tally:
    """Ops attempted and failed, with the first failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.by_experiment = {}
        self.messages = []

    def add(self, experiment, failures):
        self.attempted += 1
        ok, total = self.by_experiment.get(experiment, (0, 0))
        self.by_experiment[experiment] = (ok + (not failures), total + 1)
        if failures:
            self.failed += 1
            self.messages.extend(failures[:3])


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def _child(args):
    return subprocess.run(
        [sys.executable, *args], env=child_env(), cwd=ROOT, capture_output=True,
        text=True, timeout=CHILD_TIMEOUT_S,
    )


def fresh(kernel, args=()):
    """Run perfbench/fresh.py; returns (start, import done, end, speed
    samples, exit code, stderr)."""
    start = time.monotonic()
    proc = _child([str(Path(__file__).with_name("fresh.py")), kernel, *args])
    end = time.monotonic()
    try:
        report = json.loads(proc.stderr.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        raise RuntimeError(f"fresh interpreter failed: {proc.stderr.strip()[-500:]}") from None
    return start, report["imported"], end, report["samples"], proc.returncode, proc.stderr


def measure_fresh(workload, seed, workdir, tally):
    """(unscaled, scaled) setup_s and cold_run_s samples from fresh
    interpreters: import-only probes, then the preset's cold runs."""
    setup, cold = [], []
    kernel = speed.WORKLOAD_KERNEL[workload]
    for _ in range(SETUP_PROBES):
        start, imported, _, samples, _, _ = fresh(kernel)
        setup.append((imported - start, speed.scaled(start, imported, samples)))
    experiment, preset = workloads.PRESETS[workload]
    cfg = json.loads((ROOT / preset).read_text())
    op = {"experiment": experiment, "format": cfg.get("output", {}).get("format", "json"),
          "seed": seed, "params": cfg["params"]}
    for i in range(COLD_RUNS):
        out = workdir / f"cold-{i}"
        start, imported, end, samples, rc, err = fresh(
            kernel, [experiment, "--config", preset, "--out", str(out), "--seed", str(seed)])
        setup.append((imported - start, speed.scaled(start, imported, samples)))
        cold.append((end - start, speed.scaled(start, end, samples)))
        tally.add(experiment, checks.check_op(op, out) if rc == 0 else [f"cold run exit {rc}: {err.strip()[-300:]}"])
        shutil.rmtree(out, ignore_errors=True)
    return setup, cold


def import_qlt():
    sys.path.insert(0, str(SRC))
    import qlt.cli

    where = Path(qlt.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise RuntimeError(f"qlt imported from {where}, not from {SRC}")
    return qlt.cli


def run_op(cli, op, workdir, name):
    """Run one op; returns (start, end, failure messages, output dir)."""
    cfg = workdir / f"{name}.json"
    cfg.write_text(json.dumps(workloads.config_of(op)))
    out = workdir / name
    argv = [op["experiment"], "--config", str(cfg), "--out", str(out), "--seed", str(op["seed"])]
    sink = io.StringIO()
    start = time.monotonic()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            rc = cli.main(argv)  # looked up per call, so a traced main is seen
    except (Exception, SystemExit) as e:  # an op that raises is a failed op
        rc = f"raised {type(e).__name__}: {e}"
    end = time.monotonic()
    if rc != 0:
        return start, end, [f"{op['experiment']} exit {rc}: {sink.getvalue().strip()[-300:]}"], out
    return start, end, checks.check_op(op, out), out


def warm_pass(cli, ops, workdir, tally, probes, tracer=None, keep=()):
    """Time ops[1:] one after another, probing the core's speed between ops
    at most PROBE_INTERVAL_S apart; returns ([(unscaled, scaled) seconds] per
    op, bytes written)."""
    spans, written = [], 0
    for i, op in enumerate(ops[1:], 1):
        if tracer is not None:
            tracer.op_id = i
        start, end, failures, out = run_op(cli, op, workdir, f"op-{i}")
        if tracer is not None:
            tracer.op_id = -1
        spans.append((start, end))
        tally.add(op["experiment"], failures)
        if out.exists():
            written += sum(f.stat().st_size for f in out.iterdir())
            if i not in keep:
                shutil.rmtree(out)
        if time.monotonic() - probes.last >= PROBE_INTERVAL_S:
            probes.take()
    probes.take()
    return [(e - s, speed.scaled(s, e, probes.samples)) for s, e in spans], written


def determinism(cli, ops, workdir, tally):
    """Re-run op 1 with its seed; its files must not change (C11)."""
    first = workdir / "op-1"
    if not first.is_dir():
        tally.add("determinism", ["op 1 wrote no output"])
        return
    first.rename(workdir / "op-1-first")
    _, _, failures, out = run_op(cli, ops[1], workdir, "op-1")
    tally.add("determinism", failures or checks.same_bytes(workdir / "op-1-first", out))


def tail(times):
    """Percentile 1 - 10/N: the value with exactly ten samples above it."""
    ordered = sorted(times)
    return ordered[max(0, len(ordered) - 11)]


def host_block(workload, seed, seconds):
    import numpy
    import scipy
    from importlib.metadata import version

    from qlt import _kernels

    def getconf(name):
        try:
            return int(subprocess.run(["getconf", name], capture_output=True, text=True, timeout=10).stdout)
        except (OSError, ValueError, subprocess.SubprocessError):
            return None

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "jsonschema": version("jsonschema"),
        "nproc": os.cpu_count(),
        "pinned_to_cpu": sorted(os.sched_getaffinity(0)),
        "l2_bytes": getconf("LEVEL2_CACHE_SIZE"),
        "l3_bytes": getconf("LEVEL3_CACHE_SIZE"),
        "blas": blas,
        "blas_threads": {k: os.environ.get(k, "unset") for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        # the kernel path that ran; no numba-vs-numpy comparison is made
        "kernel_path": "numba" if _kernels.NUMBA_ENABLED else "numpy",
        "qlt_numba_enabled": _kernels.NUMBA_ENABLED,
    }


def _first_op(cli, ops, workdir, tally):
    _, _, failures, out = run_op(cli, ops[0], workdir, "op-0")
    tally.add(ops[0]["experiment"], failures)
    shutil.rmtree(out, ignore_errors=True)


def _scaled(samples):
    return [s for _, s in samples]


def _unscaled(samples):
    return [u for u, _ in samples]


def _e2e_metrics(setup, cold, warm, items):
    return {
        "setup_s": statistics.median(setup),
        "cold_run_s": statistics.median(cold),
        "op_p50_s": statistics.median(warm),
        "op_tail_s": tail(warm),
        "items_per_s": items / sum(warm),
    }


def end_to_end(workload, seed, seconds, workdir, tally):
    setup, cold = measure_fresh(workload, seed, workdir, tally)
    cli = import_qlt()
    ops = workloads.make_ops(workload, seed, seconds)
    _first_op(cli, ops, workdir, tally)
    warm, _ = warm_pass(cli, ops, workdir, tally, speed.Probes(speed.WORKLOAD_KERNEL[workload]), keep=(1,))
    determinism(cli, ops, workdir, tally)
    items = sum(workloads.items(op) for op in ops[1:])
    metrics = _e2e_metrics(_scaled(setup), _scaled(cold), _scaled(warm), items)
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    unscaled = _e2e_metrics(_unscaled(setup), _unscaled(cold), _unscaled(warm), items)
    n = len(warm)
    notes = {
        "setup_s": f"n={len(setup)}",
        "cold_run_s": f"n={len(cold)} preset={workloads.PRESETS[workload][1]}",
        "op_p50_s": f"n={n}",
        "op_tail_s": f"p{100 * (1 - 10 / n):.1f} n={n}",
        "items_per_s": f"n={n} items={items}",
        "peak_rss_mb": "n=1",
    }
    for k, v in unscaled.items():
        notes[k] += f" unscaled={v:.6g}"
    table = [(k, metrics[k], END_TO_END[k], notes[k]) for k in END_TO_END]
    table.append(("failed_frac", tally.failed / tally.attempted, "ratio", f"attempted={tally.attempted}"))
    samples = {"setup_s": setup, "cold_run_s": cold, "warm_op_s": warm}
    return metrics, table, samples


def per_layer(workload, seed, seconds, workdir, tally, trace_path):
    imports = tracing.import_profile(child_env(), ROOT, IMPORTTIME_RUNS, CHILD_TIMEOUT_S)
    cli = import_qlt()
    ops = workloads.make_ops(workload, seed, seconds)
    _first_op(cli, ops, workdir, tally)
    probes = speed.Probes(speed.WORKLOAD_KERNEL[workload])
    plain, _ = warm_pass(cli, ops, workdir, tally, probes)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced, written = warm_pass(cli, ops, workdir, tally, probes, tracer=tracer)
    finally:
        tracer.uninstall()
    tracer.dump(trace_path)
    overhead = statistics.median(_scaled(traced)) / statistics.median(_scaled(plain)) - 1.0
    metrics = tracer.layer_metrics(written, overhead, imports)
    table = [(k, v, tracing.LAYER_METRICS[k][0], tracing.LAYER_METRICS[k][3]) for k, v in metrics.items()]
    return metrics, table, {"untraced_op_s": plain, "traced_op_s": traced}


def run_one(workload, seed, seconds, trace):
    RUN_DIR.mkdir(exist_ok=True)
    # one core for all work, children included, so the speed probes
    # (speed.py) run where the measured work runs
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    # write qlt's bytecode caches now, so no fresh interpreter pays for them
    compileall.compile_dir(SRC / "qlt", quiet=1)
    tag = f"{workload}-seed{seed}-trace{trace}"
    tally = Tally()
    workdir = Path(tempfile.mkdtemp(prefix=f"{tag}-", dir=RUN_DIR))
    try:
        if trace:
            metrics, table, samples = per_layer(workload, seed, seconds, workdir, tally, RUN_DIR / f"{tag}-spans.json")
            units = {k: v[0] for k, v in tracing.LAYER_METRICS.items()}
        else:
            metrics, table, samples = end_to_end(workload, seed, seconds, workdir, tally)
            units = END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    host = host_block(workload, seed, seconds)
    verdicts = {k: f"{ok}/{total} passed" for k, (ok, total) in sorted(tally.by_experiment.items())}
    print(f"# qlt benchmark: workload={workload} seed={seed} trace={trace}")
    print("# host: " + json.dumps(host, sort_keys=True))
    width = max(len(row[0]) for row in table)
    for name, value, unit, note in table:
        print(f"{name:<{width}}  {value:>14.6g}  {unit:<8}  {note}")
    print("# checks: " + ", ".join(f"{k} {v}" for k, v in verdicts.items()))
    for msg in tally.messages[:20]:
        print(f"# FAIL {msg}")
    (RUN_DIR / f"{tag}.json").write_text(json.dumps({
        "host": host, "metrics": metrics, "table": table, "checks": verdicts,
        "attempted": tally.attempted, "failed": tally.failed, "failures": tally.messages,
        "samples": samples,  # (unscaled, scaled) seconds
    }))
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def run_all(args):
    """Every workload in turn, each in its own process; prints their tables."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads.BLOCKS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=600,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            raise SystemExit(proc.returncode or 1)
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        merged["metrics"].update({f"{workload}/{k}": v for k, v in result["metrics"].items()})
    return merged


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.BLOCKS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    missing = [p for p in ("src/qlt/cli.py", *(v[1] for v in workloads.PRESETS.values())) if not (ROOT / p).is_file()]
    if missing:
        print(f"perfbench: run from a qlt checkout; missing {', '.join(missing)}", file=sys.stderr)
        return 2
    if args.workload == "all":
        result = run_all(args)
    else:
        result = run_one(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
