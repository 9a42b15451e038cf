"""Per-layer tracing of qlt, installed from outside the program.

``Tracer.install`` replaces public qlt functions with timing wrappers in
every qlt module namespace that bound them (``qlt.montecarlo.quantize``,
``qlt.waveform.quantize``, ``qlt.moments.quantize``, ...), so calls between
modules are seen as well as calls from the cli.  Each wrapped call records a
span (name, start, end, parent span, op id) in memory; the solver's inner
tilt evaluations only bump a counter, since a span each would cost more than
the evaluation.  Self time is a span's duration minus its child spans.
"""

import json
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict

# name -> (unit, better, module it belongs to, end-to-end metric it should
# move, on which workload)
LAYER_METRICS = {
    "import.total_s": ("s", "lower", "import", "setup_s on all; cold_run_s on closed-form, mc-haar"),
    "import.scipy_signal_s": ("s", "lower", "import", "setup_s on all; not cold_run_s on waveform-aclr"),
    "import.scipy_special_s": ("s", "lower", "import", "setup_s on all; cold_run_s on closed-form, mc-haar"),
    "import.jsonschema_s": ("s", "lower", "import", "setup_s on all; cold_run_s on closed-form, mc-haar"),
    "cli.main.calls": ("count", "lower", "cli", "op_p50_s on closed-form"),
    "cli.self_s": ("s", "lower", "cli", "op_p50_s on closed-form"),
    "cli.bytes_written": ("B", "lower", "cli", "op_p50_s on closed-form"),
    "quantizer.quantize.calls": ("count", "lower", "quantizer", "items_per_s on waveform-aclr, mc-haar"),
    "quantizer.quantize.s": ("s", "lower", "quantizer", "items_per_s on waveform-aclr, mc-haar"),
    "quantizer.samples": ("count", "lower", "quantizer", "items_per_s on waveform-aclr, mc-haar"),
    "quantizer.ns_per_sample": ("ns", "lower", "quantizer", "items_per_s on waveform-aclr, mc-haar"),
    "quantizer.constellation_of.calls": ("count", "lower", "quantizer", "op_p50_s on closed-form"),
    "moments.tx_moments.calls": ("count", "lower", "moments", "op_p50_s on closed-form"),
    "moments.chain_moments.calls": ("count", "lower", "moments", "op_p50_s on closed-form"),
    "moments.self_s": ("s", "lower", "moments", "op_p50_s on closed-form"),
    "moments.sampling_calls": ("ratio", "lower", "moments", "op_p50_s on closed-form"),
    "analysis.calls": ("count", "lower", "analysis", "op_p50_s on closed-form"),
    "analysis.self_s": ("s", "lower", "analysis", "op_p50_s on closed-form"),
    "analysis.infeasible": ("count", "lower", "analysis", "op_p50_s on closed-form"),
    "analysis.feasible_ratio": ("ratio", "higher", "analysis", "op_p50_s on closed-form"),
    "bounds.rate_upper_bound.calls": ("count", "lower", "bounds", "op_p50_s, items_per_s on closed-form"),
    "bounds.self_s": ("s", "lower", "bounds", "op_p50_s, items_per_s on closed-form"),
    "bounds.tilt_evals": ("count", "lower", "bounds", "op_p50_s, items_per_s on closed-form"),
    "bounds.tilt_evals_per_bound": ("count", "lower", "bounds", "op_p50_s, items_per_s on closed-form"),
    "montecarlo.chain_build.calls": ("count", "lower", "montecarlo", "items_per_s, op_p50_s, peak_rss_mb on mc-haar"),
    "montecarlo.chain_build.s": ("s", "lower", "montecarlo", "items_per_s, op_p50_s, peak_rss_mb on mc-haar"),
    "montecarlo.chain_apply.calls": ("count", "lower", "montecarlo", "items_per_s, op_p50_s on mc-haar"),
    "montecarlo.chain_apply.s": ("s", "lower", "montecarlo", "items_per_s, op_p50_s on mc-haar"),
    # 16 B x n(n+1)/2 per build or apply, from array sizes, not measured traffic
    "montecarlo.chain_bytes_computed": ("B", "lower", "montecarlo", "items_per_s, peak_rss_mb on mc-haar"),
    "montecarlo.trials_self_s": ("s", "lower", "montecarlo", "items_per_s, op_p50_s on mc-haar"),
    "waveform.synthesize.s": ("s", "lower", "waveform", "items_per_s on waveform-aclr"),
    "waveform.interp_filter.calls": ("count", "lower", "waveform", "items_per_s on waveform-aclr"),
    "waveform.interp_filter.s": ("s", "lower", "waveform", "items_per_s on waveform-aclr"),
    "waveform.measure_self_s": ("s", "lower", "waveform", "items_per_s on waveform-aclr"),
    "waveform.samples": ("count", "lower", "waveform", "items_per_s on waveform-aclr"),
    "trace.overhead_frac": ("ratio", "lower", "trace", "none: traced op_p50_s / untraced op_p50_s - 1"),
}

# span name -> (module, function) of each wrapped public function
_FUNCTIONS = {
    "cli.main": ("qlt.cli", "main"),
    "quantizer.quantize": ("qlt.quantizer", "quantize"),
    "quantizer.constellation_of": ("qlt.quantizer", "constellation_of"),
    "moments.tx_moments": ("qlt.moments", "tx_moments"),
    "moments.chain_moments": ("qlt.moments", "chain_moments"),
    "bounds.rate_upper_bound": ("qlt.bounds", "rate_upper_bound"),
    "bounds.rate_function": ("qlt.bounds", "rate_function"),
    "bounds.max_entropy": ("qlt.bounds", "max_entropy"),
    "montecarlo.run_tx_trials": ("qlt.montecarlo", "run_tx_trials"),
    "montecarlo.run_chain_trials": ("qlt.montecarlo", "run_chain_trials"),
    "waveform.synthesize": ("qlt.waveform", "synthesize_baseband"),
    "waveform.apply_dac_and_measure": ("qlt.waveform", "apply_dac_and_measure"),
}
_ANALYSIS = (
    "predict_spectrum", "share_floor", "feasible_fractions", "powers_from_fractions",
    "kl_divergence", "linear_rate", "awgn_linear_rate", "awgn_rate_at_transmit_snr",
    "noise_free_rate",
)
_FUNCTIONS.update({f"analysis.{f}": ("qlt.analysis", f) for f in _ANALYSIS})
_FEASIBILITY_CHECKED = ("analysis.noise_free_rate", "analysis.powers_from_fractions")

# counted, not spanned: called ~43 times per upper-bound solve
_COUNTED = {"bounds.tilt_evals": ("qlt.bounds", "tilted_mean_energy")}


def _method_arg(args, kwargs, position):
    return kwargs.get("method", args[position] if len(args) > position else None)


class Tracer:
    """In-memory spans and counters for one traced run."""

    def __init__(self):
        self.names = []
        self.starts = []
        self.ends = []
        self.parents = []
        self.ops = []
        self.op_id = -1
        self.counts = Counter()
        self.raised = Counter()  # (module, exception type) leaving the module
        self._stack = []
        self._patches = []

    # -- wrapping ----------------------------------------------------------

    def _span(self, name, fn, after=None):
        module = name.split(".", 1)[0]
        perf = time.perf_counter

        def traced(*args, **kwargs):
            i = len(self.starts)
            parent = self._stack[-1] if self._stack else -1
            self.names.append(name)
            self.parents.append(parent)
            self.ops.append(self.op_id)
            self.ends.append(0.0)
            self._stack.append(i)
            self.starts.append(perf())
            try:
                result = fn(*args, **kwargs)
            except Exception as e:
                if parent < 0 or not self.names[parent].startswith(module + "."):
                    self.raised[module, type(e).__name__] += 1
                raise
            finally:
                self.ends[i] = perf()
                self._stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _counted(self, name, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def _patch(self, obj, attr, new):
        self._patches.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, new)

    def _patch_everywhere(self, original, wrapper):
        for modname, mod in list(sys.modules.items()):
            if modname == "qlt" or modname.startswith("qlt."):
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, attr, wrapper)

    def install(self):
        import qlt.cli  # noqa: F401  (loads every qlt module)
        from qlt.montecarlo import HouseholderChain
        from qlt.waveform import sig

        counts = self.counts
        after = {
            "quantizer.quantize": lambda a, k, r: counts.update({"quantizer.samples": _size(a[1])}),
            "moments.tx_moments": lambda a, k, r: _count_sampling(counts, _method_arg(a, k, 2)),
            "moments.chain_moments": lambda a, k, r: _count_sampling(counts, _method_arg(a, k, 4)),
            "waveform.synthesize": lambda a, k, r: counts.update({"waveform.samples": _size(r)}),
        }
        for name, (modname, fn) in _FUNCTIONS.items():
            original = getattr(sys.modules[modname], fn)
            self._patch_everywhere(original, self._span(name, original, after.get(name)))
        for name, (modname, fn) in _COUNTED.items():
            original = getattr(sys.modules[modname], fn)
            self._patch_everywhere(original, self._counted(name, original))

        def chain_bytes(args, kwargs, result):
            # one pass over the n(n+1)/2 complex reflector entries
            n = args[0].n
            counts["montecarlo.chain_bytes_computed"] += 16 * n * (n + 1) // 2

        self._patch(HouseholderChain, "__init__", self._span(
            "montecarlo.chain_build", HouseholderChain.__init__, chain_bytes))
        for method in ("apply", "apply_adjoint"):
            self._patch(HouseholderChain, method, self._span(
                "montecarlo.chain_apply", getattr(HouseholderChain, method), chain_bytes))
        # the polyphase interpolation runs inside scipy; qlt.waveform looks
        # it up on the module at call time
        self._patch(sig, "upfirdn", self._span("waveform.interp_filter", sig.upfirdn))

    def uninstall(self):
        while self._patches:
            obj, attr, original = self._patches.pop()
            setattr(obj, attr, original)

    # -- results -----------------------------------------------------------

    def totals(self):
        """Per span name: call count, inclusive seconds, self seconds."""
        child = [0.0] * len(self.starts)
        for i, p in enumerate(self.parents):
            if p >= 0:
                child[p] += self.ends[i] - self.starts[i]
        calls, incl, own = Counter(), defaultdict(float), defaultdict(float)
        for i, name in enumerate(self.names):
            d = self.ends[i] - self.starts[i]
            calls[name] += 1
            incl[name] += d
            own[name] += d - child[i]
        return calls, incl, own

    def layer_metrics(self, bytes_written, overhead_frac, imports):
        calls, incl, own = self.totals()
        c = self.counts

        def self_of(prefix):
            return sum(v for k, v in own.items() if k.startswith(prefix))

        def ratio(a, b):
            return a / b if b else 0.0  # 0 when the layer made no attempts

        moment_calls = calls["moments.tx_moments"] + calls["moments.chain_moments"]
        checked = sum(calls[n] for n in _FEASIBILITY_CHECKED)
        infeasible = self.raised["analysis", "FeasibilityError"]
        ub_calls = calls["bounds.rate_upper_bound"]
        m = dict(imports)
        m.update({
            "cli.main.calls": calls["cli.main"],
            "cli.self_s": own["cli.main"],
            "cli.bytes_written": bytes_written,
            "quantizer.quantize.calls": calls["quantizer.quantize"],
            "quantizer.quantize.s": incl["quantizer.quantize"],
            "quantizer.samples": c["quantizer.samples"],
            "quantizer.ns_per_sample": 1e9 * ratio(incl["quantizer.quantize"], c["quantizer.samples"]),
            "quantizer.constellation_of.calls": calls["quantizer.constellation_of"],
            "moments.tx_moments.calls": calls["moments.tx_moments"],
            "moments.chain_moments.calls": calls["moments.chain_moments"],
            "moments.self_s": self_of("moments."),
            "moments.sampling_calls": ratio(c["moments.sampling"], moment_calls),
            "analysis.calls": sum(v for k, v in calls.items() if k.startswith("analysis.")),
            "analysis.self_s": self_of("analysis."),
            "analysis.infeasible": infeasible,
            "analysis.feasible_ratio": ratio(checked - infeasible, checked),
            "bounds.rate_upper_bound.calls": ub_calls,
            "bounds.self_s": self_of("bounds."),
            "bounds.tilt_evals": c["bounds.tilt_evals"],
            "bounds.tilt_evals_per_bound": ratio(c["bounds.tilt_evals"], ub_calls),
            "montecarlo.chain_build.calls": calls["montecarlo.chain_build"],
            "montecarlo.chain_build.s": incl["montecarlo.chain_build"],
            "montecarlo.chain_apply.calls": calls["montecarlo.chain_apply"],
            "montecarlo.chain_apply.s": incl["montecarlo.chain_apply"],
            "montecarlo.chain_bytes_computed": c["montecarlo.chain_bytes_computed"],
            "montecarlo.trials_self_s": own["montecarlo.run_tx_trials"] + own["montecarlo.run_chain_trials"],
            "waveform.synthesize.s": incl["waveform.synthesize"],
            "waveform.interp_filter.calls": calls["waveform.interp_filter"],
            "waveform.interp_filter.s": incl["waveform.interp_filter"],
            "waveform.measure_self_s": own["waveform.apply_dac_and_measure"],
            "waveform.samples": c["waveform.samples"],
            "trace.overhead_frac": overhead_frac,
        })
        return {k: m[k] for k in LAYER_METRICS}

    def dump(self, path):
        """Write the spans: times in ns from the first span."""
        names = sorted(set(self.names))
        index = {n: i for i, n in enumerate(names)}
        t0 = self.starts[0] if self.starts else 0.0
        spans = [
            [index[n], round((s - t0) * 1e9), round((e - t0) * 1e9), p, o]
            for n, s, e, p, o in zip(self.names, self.starts, self.ends, self.parents, self.ops)
        ]
        path.write_text(json.dumps({
            "fields": ["name", "start_ns", "end_ns", "parent", "op"],
            "names": names,
            "spans": spans,
        }, separators=(",", ":")))


def _size(x):
    import numpy as np

    return int(np.size(x))


def _count_sampling(counts, method):
    if type(method).__name__ == "MonteCarlo":
        counts["moments.sampling"] += 1


# ---------------------------------------------------------------------------
# import time, from ``python -X importtime`` in fresh interpreters
# ---------------------------------------------------------------------------

_IMPORTS = {
    "import.scipy_signal_s": "scipy.signal",
    "import.scipy_special_s": "scipy.special",
    "import.jsonschema_s": "jsonschema",
}


def parse_importtime(text):
    """import.* metrics from one ``-X importtime`` report (stderr text).

    A package's time is the cumulative time of its outermost lines: the
    package's own line, or, when it was loaded through ``importlib`` (scipy
    loads ``scipy.signal`` lazily that way, and that path logs no line of its
    own), the outermost lines of its submodules.  The report lists children
    before their parent, one indentation level deeper.
    """
    total = 0
    stack = []  # (depth, name, cumulative us, children)
    for line in text.splitlines():
        if not line.startswith("import time:") or "[us]" in line:
            continue
        own_us, cum_us, name = line[len("import time:"):].split("|")
        total += int(own_us)
        depth = len(name) - len(name.lstrip())
        children = []
        while stack and stack[-1][0] > depth:
            children.insert(0, stack.pop())
        stack.append((depth, name.strip(), int(cum_us), children))

    def outermost(nodes, module):
        us = 0
        for _, name, cum, children in nodes:
            if name == module or name.startswith(module + "."):
                us += cum
            else:
                us += outermost(children, module)
        return us

    out = {"import.total_s": total / 1e6}
    for metric, module in _IMPORTS.items():
        out[metric] = outermost(stack, module) / 1e6  # 0 once it is no longer imported
    return out


def import_profile(env, cwd, samples, timeout):
    """Median import.* metrics over ``samples`` fresh interpreters."""
    runs = []
    for _ in range(samples):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import qlt.cli"],
            env=env, cwd=cwd, capture_output=True, text=True, timeout=timeout,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"import qlt.cli failed: {proc.stderr.strip()[-500:]}")
        runs.append(parse_importtime(proc.stderr))
    return {k: statistics.median(r[k] for r in runs) for k in runs[0]}
