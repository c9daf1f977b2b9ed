"""Counters and timed spans recorded around phaseproj's layers, from outside.

The tracer replaces each traced function at every place it is bound.
``from .grid import rho_values`` binds the name a second time in
``estimators`` and ``kernels``, so patching ``phaseproj.grid`` alone would
record zero calls.  A traced name that no longer exists raises TraceError,
and so does a counter that reads zero on a workload that must reach it:
a renamed function must never pass as "no work done".

Spans are aggregated per name (call count and inclusive seconds) and kept
in memory; nothing is written to disk.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict


class TraceError(RuntimeError):
    """The tracer cannot observe a layer it is meant to observe."""


# Exit code of a worker process that raised TraceError.
TRACE_ERROR_EXIT = 3


# Transforms counted as grid.fft, on both backends, so that moving the
# package from numpy.fft to scipy.fft cannot make the count read zero.
FFT_FUNCTIONS = (
    ("numpy.fft", ("fftn", "ifftn", "rfftn", "irfftn")),
    ("scipy.fft", ("fftn", "ifftn", "rfftn", "irfftn")),
)

# Module-level functions: (defining module, name) -> span name.
FUNCTIONS = {
    ("phaseproj.grid", "rho_values"): "grid.rho_values",
    ("phaseproj.kernels", "build_sinc_power"): "kernels.sinc_power",
    ("phaseproj.kernels", "class_membership"): "kernels.class_membership",
    ("phaseproj.projection", "assemble"): "projection.assemble",
    ("phaseproj.projection", "residual_decomposition"): "projection.residual",
    ("phaseproj.estimators", "estimate_S_multi"): "estimators.size_table",
    ("phaseproj.harness", "run"): "harness.run",
}

# Methods: (module, class, name) -> span name.  The module-level wrappers
# projection.g_piece and estimators.carleson_sum / offtree_sum have no
# callers and are deliberately not traced.
METHODS = {
    ("phaseproj.projection", "ProjectionBuilder", "g_piece"): "projection.g_piece",
    ("phaseproj.estimators", "EstimatorContext", "__init__"): "estimators.context",
    ("phaseproj.estimators", "EstimatorContext", "evaluate_window"): "estimators.window",
    ("phaseproj.estimators", "EstimatorContext", "offtree_sum"): "estimators.offtree_sum",
    ("phaseproj.estimators", "EstimatorContext", "carleson_sum"): "estimators.carleson_sum",
}

# Called hundreds of thousands of times: counted, not timed.
COUNTED_METHODS = {
    ("phaseproj.cubes", "DyadicCube", "contains"): "cubes.contains",
}

DICTIONARY = ("phaseproj.kernels", "build_dictionary")

# Every per-layer metric, with its unit, in report order.
LAYER_METRICS = {
    "cubes.contains_calls": "count",
    "grid.fft_calls": "count",
    "grid.fft_s": "s",
    "grid.fft_bytes": "bytes",
    "grid.rho_values_calls": "count",
    "grid.rho_values_s": "s",
    "kernels.dict_calls": "count",
    "kernels.dict_builds": "count",
    "kernels.dict_hit_ratio": "ratio",
    "kernels.dict_build_s": "s",
    "kernels.sinc_power_calls": "count",
    "kernels.sinc_power_s": "s",
    "kernels.class_membership_calls": "count",
    "kernels.class_membership_s": "s",
    "projection.assemble_calls": "count",
    "projection.assemble_s": "s",
    "projection.residual_s": "s",
    "projection.g_piece_calls": "count",
    "estimators.size_table_s": "s",
    "estimators.context_s": "s",
    "estimators.window_s": "s",
    "estimators.offtree_sum_calls": "count",
    "estimators.offtree_sum_s": "s",
    "estimators.carleson_sum_calls": "count",
    "estimators.carleson_sum_s": "s",
    "harness.run_calls": "count",
    "harness.cpu_s": "s",
    "harness.trace_overhead": "ratio",
}


class Tracer:
    def __init__(self):
        self.calls = defaultdict(int)
        self.seconds = defaultdict(float)
        self.fft_bytes = 0

    # -- wrappers ------------------------------------------------------------

    def _span(self, name, fn):
        calls, seconds = self.calls, self.seconds

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                seconds[name] += time.perf_counter() - t0
                calls[name] += 1
        return traced

    def _counter(self, name, fn):
        calls = self.calls

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return counted

    def _fft(self, fn):
        calls, seconds = self.calls, self.seconds

        @functools.wraps(fn)
        def traced(x, *args, **kwargs):
            t0 = time.perf_counter()
            try:
                out = fn(x, *args, **kwargs)
            finally:
                seconds["grid.fft"] += time.perf_counter() - t0
                calls["grid.fft"] += 1
            # bytes computed from the input and output array sizes, not measured
            self.fft_bytes += getattr(x, "nbytes", 0) + out.nbytes
            return out
        return traced

    def _dictionary(self, fn):
        """A build_dictionary call that certifies no candidate (makes no
        nested class_membership call) was served from the cache: a hit.
        Counting this way keeps no reference to the returned dictionary,
        so evicted dictionaries are freed as without tracing."""
        calls, seconds = self.calls, self.seconds

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            before = calls["kernels.class_membership"]
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - t0
                calls["kernels.dict"] += 1
                if calls["kernels.class_membership"] != before:
                    calls["kernels.dict_build"] += 1
                    seconds["kernels.dict_build"] += elapsed
        return traced

    # -- installation ----------------------------------------------------------

    def install_fft(self):
        """Wrap the FFT entry points.  Call before importing phaseproj, so
        that a ``from scipy.fft import rfftn`` in the package binds the
        wrapper."""
        for module_name, names in FFT_FUNCTIONS:
            module = importlib.import_module(module_name)
            for name in names:
                setattr(module, name, self._fft(_lookup(module, module_name, name)))

    def install_program(self):
        """Wrap phaseproj's functions and methods; phaseproj must be imported."""
        for (module_name, name), span in FUNCTIONS.items():
            target = _lookup(sys.modules.get(module_name), module_name, name)
            _rebind(target, self._span(span, target), f"{module_name}.{name}")
        target = _lookup(sys.modules.get(DICTIONARY[0]), *DICTIONARY)
        _rebind(target, self._dictionary(target), ".".join(DICTIONARY))
        for table, make in ((METHODS, self._span), (COUNTED_METHODS, self._counter)):
            for (module_name, cls_name, name), span in table.items():
                cls = _lookup(sys.modules.get(module_name), module_name, cls_name)
                method = _lookup(cls, f"{module_name}.{cls_name}", name)
                setattr(cls, name, make(span, method))

    # -- results ---------------------------------------------------------------

    def require(self, spans):
        """Raise TraceError for each named span that recorded no call."""
        zero = [name for name in spans if self.calls[name] == 0]
        if zero:
            raise TraceError(
                "traced layers recorded zero calls on a workload that must "
                f"reach them: {', '.join(zero)}")

    def layer_metrics(self):
        """Per-layer values; harness.cpu_s and harness.trace_overhead are
        filled in by the caller, which owns the clocks they need."""
        c, s = self.calls, self.seconds
        dict_calls, builds = c["kernels.dict"], c["kernels.dict_build"]
        return {
            "cubes.contains_calls": c["cubes.contains"],
            "grid.fft_calls": c["grid.fft"],
            "grid.fft_s": s["grid.fft"],
            "grid.fft_bytes": self.fft_bytes,
            "grid.rho_values_calls": c["grid.rho_values"],
            "grid.rho_values_s": s["grid.rho_values"],
            "kernels.dict_calls": dict_calls,
            "kernels.dict_builds": builds,
            "kernels.dict_hit_ratio": (dict_calls - builds) / dict_calls if dict_calls else 0.0,
            "kernels.dict_build_s": s["kernels.dict_build"],
            "kernels.sinc_power_calls": c["kernels.sinc_power"],
            "kernels.sinc_power_s": s["kernels.sinc_power"],
            "kernels.class_membership_calls": c["kernels.class_membership"],
            "kernels.class_membership_s": s["kernels.class_membership"],
            "projection.assemble_calls": c["projection.assemble"],
            "projection.assemble_s": s["projection.assemble"],
            "projection.residual_s": s["projection.residual"],
            "projection.g_piece_calls": c["projection.g_piece"],
            "estimators.size_table_s": s["estimators.size_table"],
            # the context's own tables (Carleson and off-tree): its span
            # minus the size table, which it is the only caller of
            "estimators.context_s": s["estimators.context"] - s["estimators.size_table"],
            "estimators.window_s": s["estimators.window"],
            "estimators.offtree_sum_calls": c["estimators.offtree_sum"],
            "estimators.offtree_sum_s": s["estimators.offtree_sum"],
            "estimators.carleson_sum_calls": c["estimators.carleson_sum"],
            "estimators.carleson_sum_s": s["estimators.carleson_sum"],
            "harness.run_calls": c["harness.run"],
        }


def _lookup(owner, owner_name, name):
    if owner is None:
        raise TraceError(f"{owner_name} is not imported; cannot trace {name}")
    try:
        return getattr(owner, name)
    except AttributeError:
        raise TraceError(f"{owner_name}.{name} no longer exists; update "
                         "perfbench/tracer.py to trace its replacement") from None


def _rebind(target, wrapper, label):
    """Replace `target` by `wrapper` in every phaseproj module that binds it."""
    bound = 0
    for module_name, module in list(sys.modules.items()):
        if module is None or not (module_name == "phaseproj"
                                  or module_name.startswith("phaseproj.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is target:
                setattr(module, attr, wrapper)
                bound += 1
    if not bound:
        raise TraceError(f"{label} is bound nowhere in phaseproj")
