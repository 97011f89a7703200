"""In-memory span tracer for the numradlab package, installed from outside it.

``Tracer.install()`` replaces every public function of the package modules
(and the numpy eigensolvers they call) with a timing wrapper, at every name
that binds it: modules such as ``catalog`` and ``cli`` import their helpers
with ``from .x import y``, so patching only the defining module would miss
those calls. ``uninstall()`` puts the originals back.

Each wrapped call is a span. A layer's self time is the summed duration of
its spans minus the time their child spans cover, so the nested layers
(catalog > radius > linalg > kernel) partition the traced time. Spans that
cross a layer boundary are kept, with their parent and request id, and are
written out by ``write_spans``; calls inside one layer only feed the
counters.
"""

from __future__ import annotations

import gzip
import importlib
import inspect
import json
import sys
import time
from collections import defaultdict

LAYERS = ("cli", "report", "suite", "ensembles", "catalog", "radius", "linalg", "means", "functions", "matio")

# RNG stream set-up counts toward the instance-drawing layer wherever it is
# called from, so ensembles.busy_s and ensembles.rng_streams cover it.
LAYER_OVERRIDES = {"radius.stream_rng": "ensembles"}

# The report module exposes its API as methods of these classes.
REPORT_METHODS = {
    "SuiteReport": ("build", "to_json", "to_csv", "from_json", "summary_lines"),
    "IneqRecord": ("to_dict", "from_dict"),
}

# Private, but the unit of per-member work the suite layer reports on.
EXTRA_FUNCTIONS = ("suite._run_member",)

KERNEL_FUNCTIONS = ("eigh", "eigvalsh")


def eig_flops(shape, vectors, complex_input):
    """Flops computed from sizes (Golub & Van Loan, symmetric QR): 4n^3/3 for
    eigenvalues only, 9n^3 with eigenvectors, times 4 for complex arithmetic."""
    n = shape[-1]
    count = 1
    for d in shape[:-2]:
        count *= d
    per = (9.0 if vectors else 4.0 / 3.0) * n**3 * (4.0 if complex_input else 1.0)
    return count, count * per


class Tracer:
    """Counters and spans of one traced pass; see the module docstring."""

    def __init__(self):
        self.calls = defaultdict(int)  # function key -> calls
        self.self_s = defaultdict(float)  # function key -> self seconds
        self.layer_of = {}  # function key -> layer
        self.counts = defaultdict(float)  # named counters fed by hooks
        self.member_s = defaultdict(float)  # member id -> seconds in _run_member
        self.spans = []  # (request, span, parent, key, start, end)
        self.request = 0
        self._stack = []
        self._next_span = 1
        self._patches = []  # (owner, name, original attribute value)
        self._originals = {}  # id(original function) -> (original, wrapper)

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, key, layer, fn, prepare=None, after=None):
        self.layer_of[key] = layer
        stack = self._stack
        clock = time.perf_counter
        calls = self.calls
        self_s = self.self_s
        spans = self.spans

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            if parent is None or parent[1] != layer:
                span = self._next_span
                self._next_span += 1
                owner = parent[2] if parent is not None else 0
            else:
                span = 0
                owner = parent[2]
            frame = [0.0, layer, span or owner]
            if prepare is not None:
                args, kwargs = prepare(args, kwargs)
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                self_s[key] += dur - frame[0]
                calls[key] += 1
                if parent is not None:
                    parent[0] += dur
                if span:
                    spans.append((self.request, span, owner, key, t0, t1))
            if after is not None:
                after(args, kwargs, result, dur)
            return result

        wrapper.__name__ = getattr(fn, "__name__", key)
        wrapper.__qualname__ = getattr(fn, "__qualname__", key)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        wrapper.__wrapped__ = fn
        return wrapper

    def _hooks(self, key):
        """(prepare, after) callbacks that feed the counters of one target."""
        counts = self.counts

        def add_len(counter, of_result):
            def after(args, kwargs, result, dur):
                counts[counter] += len(result if of_result else args[0])

            return after

        if key == "radius.sphere_sup":

            def prepare(args, kwargs):
                objective = args[0]

                def counted(X):
                    counts["sphere_rows"] += X.shape[0]
                    return objective(X)

                return (counted,) + tuple(args[1:]), kwargs

            return prepare, None
        if key == "matio.loads_matrix":
            return None, add_len("matio_bytes", of_result=False)
        if key == "matio.dumps_matrix":
            return None, add_len("matio_bytes", of_result=True)
        if key in ("report.SuiteReport.to_json", "report.SuiteReport.to_csv"):
            return None, add_len("report_bytes", of_result=True)
        if key == "suite._run_member":
            member_s = self.member_s

            def after(args, kwargs, result, dur):
                member_s[result.ineq] += dur

            return None, after
        if key.startswith("kernel."):
            vectors = key == "kernel.eigh"

            def after(args, kwargs, result, dur):
                a = args[0] if args else kwargs["a"]
                mats, flops = eig_flops(a.shape, vectors, a.dtype.kind == "c")
                counts["eig_matrices"] += mats
                counts["eig_flops"] += flops

            return None, after
        return None, None

    def _targets(self):
        """(key, layer, owner, attribute name, original) for every wrapped callable."""
        out = []
        for layer in LAYERS:
            mod = importlib.import_module(f"numradlab.{layer}")
            for name, obj in vars(mod).items():
                if name.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                    continue
                key = f"{layer}.{name}"
                out.append((key, LAYER_OVERRIDES.get(key, layer), mod, name, obj))
        for key in EXTRA_FUNCTIONS:
            layer, name = key.split(".")
            mod = importlib.import_module(f"numradlab.{layer}")
            out.append((key, layer, mod, name, getattr(mod, name)))
        report = importlib.import_module("numradlab.report")
        for cls_name, methods in REPORT_METHODS.items():
            cls = getattr(report, cls_name)
            for name in methods:
                out.append((f"report.{cls_name}.{name}", "report", cls, name, vars(cls)[name]))
        import numpy.linalg

        for name in KERNEL_FUNCTIONS:
            out.append((f"kernel.{name}", "kernel", numpy.linalg, name, getattr(numpy.linalg, name)))
        return out

    def install(self):
        """Wrap every target at its defining site and at every other binding
        inside the numradlab package namespace."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        replacement = {}
        for key, layer, owner, name, original in self._targets():
            raw = original.__func__ if isinstance(original, classmethod) else original
            prepare, after = self._hooks(key)
            wrapper = self._wrap(key, layer, raw, prepare, after)
            replacement[id(raw)] = (raw, wrapper)
            value = classmethod(wrapper) if isinstance(original, classmethod) else wrapper
            self._patches.append((owner, name, original))
            setattr(owner, name, value)
        for mod in package_modules():
            for name, obj in list(vars(mod).items()):
                hit = replacement.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patches.append((mod, name, obj))
                    setattr(mod, name, hit[1])
        self._originals = replacement

    def uninstall(self):
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches = []

    def unwrapped_bindings(self):
        """Names in the package modules still bound to a wrapped original."""
        missed = []
        for mod in package_modules():
            for name, obj in vars(mod).items():
                hit = self._originals.get(id(obj))
                if hit is not None and hit[0] is obj:
                    missed.append(f"{mod.__name__}.{name}")
        return missed

    # -- results ----------------------------------------------------------

    def layer_metrics(self, checks):
        """Per-layer metrics of the traced pass; ``checks`` is the number of
        certified checks it ran (for draws per check)."""
        calls = defaultdict(int)
        busy = defaultdict(float)
        for key, n in self.calls.items():
            calls[self.layer_of[key]] += n
        for key, s in self.self_s.items():
            busy[self.layer_of[key]] += s
        c, s = self.calls, self.self_s
        draws = c["suite.draw_instance"]
        return {
            "radius.sweep_calls": c["radius.numerical_radius"],
            "radius.sweep_busy_s": s["radius.numerical_radius"],
            "radius.sphere_calls": c["radius.sphere_sup"],
            "radius.sphere_busy_s": s["radius.sphere_sup"],
            "radius.sphere_rows": int(self.counts["sphere_rows"]),
            "radius.euclid_busy_s": s["radius.euclidean_radius"],
            "ensembles.calls": calls["ensembles"],
            "ensembles.busy_s": busy["ensembles"],
            "ensembles.rng_streams": c["radius.stream_rng"],
            "suite.self_s": busy["suite"],
            "suite.draws_per_check": draws / checks if checks else 0.0,
            "suite.member_max_s": max(self.member_s.values(), default=0.0),
            "catalog.evaluate_calls": c["catalog.evaluate"],
            "catalog.self_s": busy["catalog"],
            "catalog.hypothesis_busy_s": s["catalog.verify_hypotheses"],
            "linalg.calls": calls["linalg"],
            "linalg.busy_s": busy["linalg"],
            "means.calls": calls["means"],
            "means.busy_s": busy["means"],
            "functions.jensen_busy_s": s["functions.jensen_gap_mu"],
            "kernel.eig_calls": calls["kernel"],
            "kernel.eig_matrices": int(self.counts["eig_matrices"]),
            "kernel.eig_flops_computed": int(self.counts["eig_flops"]),
            "kernel.busy_s": busy["kernel"],
            "matio.busy_s": busy["matio"],
            "matio.bytes": int(self.counts["matio_bytes"]),
            "report.busy_s": busy["report"],
            "report.bytes": int(self.counts["report_bytes"]),
            "cli.busy_s": busy["cli"],
        }

    def write_spans(self, path):
        """Write the boundary spans as gzipped JSON lines, times relative to the first span."""
        t_base = min((sp[4] for sp in self.spans), default=0.0)
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for request, span, parent, key, t0, t1 in self.spans:
                doc = {
                    "request": request,
                    "span": span,
                    "parent": parent,
                    "name": key,
                    "layer": self.layer_of[key],
                    "start_s": round(t0 - t_base, 9),
                    "end_s": round(t1 - t_base, 9),
                }
                fh.write(json.dumps(doc, separators=(",", ":")) + "\n")


def package_modules():
    """The numradlab package and every submodule it has loaded."""
    return [mod for name, mod in list(sys.modules.items()) if name == "numradlab" or name.startswith("numradlab.")]
