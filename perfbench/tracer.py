"""Per-layer tracing of qfiflow from outside the library.

The layers are the package's modules.  :class:`Tracer` replaces each public
function listed in :data:`LAYERS` with a timing wrapper in every ``qfiflow``
module namespace that binds it (so calls through ``from .model import
apply_generator`` are caught too), and wraps ``numpy.linalg.eigh`` and
``eigvalsh`` to count the matrices they decompose.  Spans (layer, start,
end, parent span, simulation id) are kept in flat arrays in memory and
written out when the run ends; self time is a span's duration minus that of
its direct children.

A listed function that no longer exists, or whose counters no longer
apply to its arguments or result, is reported as absent, with zero values,
and does not stop the run.
"""

from __future__ import annotations

import importlib
import os
import sys
import time
import tracemalloc
from array import array

import numpy as np

ROOT = "cli.main"

# (module, function) pairs traced, named "<module>.<function>".
LAYERS = (
    ("cli", "parse_config"),
    ("cli", "run_simulate"),
    ("cli", "emit_csv"),
    ("cli", "emit_summary"),
    ("model", "validate_model"),
    ("model", "apply_generator"),
    ("model", "apply_generator_theta_derivative"),
    ("model", "probe_theta_dependence"),
    ("propagation", "propagate"),
    ("propagation", "fd_theta_consistency"),
    ("flow", "flow_records"),
    ("flow", "classify_intervals"),
    ("estimation", "sld"),
    ("operators", "validate_density"),
)

# Per-layer metrics: name -> unit.  Counts and self times are means per
# simulation over the traced passes.
PER_LAYER_METRICS = {
    "propagation.propagate.self_s": "s",
    "propagation.propagate.total_s": "s",
    "propagation.propagate.calls": "count",
    "propagation.propagate.steps": "count",
    "propagation.propagate.steps_per_s": "1/s",
    "model.apply_generator.calls": "count",
    "model.apply_generator.self_s": "s",
    "model.apply_generator_theta_derivative.calls": "count",
    "model.apply_generator_theta_derivative.self_s": "s",
    "propagation.fd_theta_consistency.self_s": "s",
    "propagation.fd_theta_consistency.total_s": "s",
    "propagation.fd_theta_consistency.propagations": "count",
    "propagation.fd_theta_consistency.margin": "ratio",
    "flow.flow_records.self_s": "s",
    "flow.flow_records.total_s": "s",
    "flow.flow_records.records": "count",
    "estimation.sld.calls": "count",
    "estimation.sld.self_s": "s",
    "operators.eig_matrices_per_point": "count",
    "operators.validate_density.calls": "count",
    "operators.validate_density.self_s": "s",
    "cli.emit_csv.self_s": "s",
    "cli.emit_csv.bytes": "bytes",
    "cli.emit_summary.self_s": "s",
    "cli.parse_config.self_s": "s",
    "model.validate_model.self_s": "s",
    "model.probe_theta_dependence.self_s": "s",
    "flow.classify_intervals.self_s": "s",
    "cli.run_simulate.self_s": "s",
    "cli.run_simulate.total_s": "s",
    "cli.run_simulate.alloc_peak_mb": "MB",
    "trace.overhead_frac": "ratio",
}


def _steps(result, args, kwargs) -> dict:
    return {"steps": len(result.grid) - 1}


def _records(result, args, kwargs) -> dict:
    return {"records": len(result)}


def _csv_bytes(result, args, kwargs) -> dict:
    path = args[1] if len(args) > 1 else kwargs["path"]
    return {"bytes": os.path.getsize(path)}


# Counters read from a layer's arguments and result after its span closes.
_COUNTERS = {
    "propagation.propagate": _steps,
    "flow.flow_records": _records,
    "cli.emit_csv": _csv_bytes,
}


def _bindings(fn) -> list[tuple[object, str]]:
    """Every (module, attribute) in the qfiflow package bound to ``fn``."""
    out = []
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "qfiflow" or name.startswith("qfiflow.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is fn:
                out.append((mod, attr))
    return out


def resolve_layers() -> tuple[dict, list[str]]:
    """Map layer name -> function for the layers that exist; list the absent ones."""
    found, absent = {}, []
    for module, func in LAYERS:
        name = f"{module}.{func}"
        try:
            fn = getattr(importlib.import_module(f"qfiflow.{module}"), func)
        except (ImportError, AttributeError):
            absent.append(name)
            continue
        found[name] = fn
    return found, absent


class Patch:
    """Replace a function in every namespace that binds it; undo on exit."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def replace(self, fn, wrapper, bindings) -> None:
        for mod, attr in bindings:
            self._saved.append((mod, attr, fn))
            setattr(mod, attr, wrapper)

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        for mod, attr, fn in reversed(self._saved):
            setattr(mod, attr, fn)
        self._saved.clear()


class Tracer:
    """In-memory span recorder for one benchmark run."""

    def __init__(self):
        self.names: list[str] = []
        self.sim_labels: list[str] = []
        self.start = array("d")
        self.end = array("d")
        self.layer = array("i")
        self.parent = array("i")
        self.sim = array("i")
        self.counts: dict[tuple[int, str], float] = {}
        self._stack = [-1]
        self._sim = -1
        self.layers, self.absent = resolve_layers()

    def _layer_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def _count(self, key: str, value: float) -> None:
        k = (self._sim, key)
        self.counts[k] = self.counts.get(k, 0.0) + value

    def _wrap(self, name: str, fn):
        lid = self._layer_id(name)
        counter = _COUNTERS.get(name)
        stack, start, end = self._stack, self.start, self.end
        perf = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(start)
            start.append(0.0)
            end.append(0.0)
            self.layer.append(lid)
            self.parent.append(stack[-1])
            self.sim.append(self._sim)
            stack.append(idx)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                start[idx] = t0
                end[idx] = t1
            if counter is not None:
                try:
                    values = counter(result, args, kwargs)
                except (AttributeError, TypeError, KeyError, IndexError, OSError):
                    # The layer's signature or result changed: its counters read 0.
                    values = {}
                    if f"{name} counters" not in self.absent:
                        self.absent.append(f"{name} counters")
                for key, value in values.items():
                    self._count(f"{name}.{key}", value)
            return result

        return traced

    def _wrap_eig(self, fn):
        def counted(a, *args, **kwargs):
            shape = np.shape(a)
            self._count("operators.eig_matrices", int(np.prod(shape[:-2], dtype=np.int64)))
            return fn(a, *args, **kwargs)

        return counted

    def install(self) -> Patch:
        """Wrap every resolved layer and the numpy eigensolvers; returns the undo handle."""
        patch = Patch()
        for name, fn in self.layers.items():
            patch.replace(fn, self._wrap(name, fn), _bindings(fn))
        for attr in ("eigh", "eigvalsh"):
            fn = getattr(np.linalg, attr)
            patch.replace(fn, self._wrap_eig(fn), [(np.linalg, attr)])
        return patch

    def simulation(self, label: str, call):
        """Run ``call()`` as simulation ``label`` under a root span; returns its result."""
        self._sim = len(self.sim_labels)
        self.sim_labels.append(label)
        try:
            return self._wrap(ROOT, call)()
        finally:
            self._sim = -1

    def save(self, path: str) -> None:
        """Write every span with its layer, parent span and simulation id."""
        np.savez(
            path,
            layer_names=np.array(self.names),
            sim_labels=np.array(self.sim_labels),
            layer=np.frombuffer(self.layer, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            sim=np.frombuffer(self.sim, dtype=np.int32),
        )

    def self_times(self) -> tuple[np.ndarray, np.ndarray]:
        """(duration, self time) of every span."""
        dur = np.frombuffer(self.end, dtype=np.float64) - np.frombuffer(self.start, dtype=np.float64)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        return dur, dur - child

    def per_simulation(self) -> list[dict]:
        """Calls, self and total seconds per layer, and counters, for each simulation."""
        dur, self_t = self.self_times()
        layer = np.frombuffer(self.layer, dtype=np.int32)
        sim = np.frombuffer(self.sim, dtype=np.int32)
        out = []
        for s, label in enumerate(self.sim_labels):
            mask = sim == s
            layers = {}
            for lid, name in enumerate(self.names):
                m = mask & (layer == lid)
                if m.any():
                    layers[name] = {
                        "calls": int(m.sum()),
                        "self_s": float(self_t[m].sum()),
                        "total_s": float(dur[m].sum()),
                    }
            counts = {k: v for (si, k), v in self.counts.items() if si == s}
            out.append({"sim": s, "label": label, "layers": layers, "counts": counts})
        return out

    def summary(self) -> dict:
        """Absent layers, the sum of self times, the root spans' wall time, per-simulation tables."""
        dur, self_t = self.self_times()
        root = np.frombuffer(self.layer, dtype=np.int32) == self._layer_id(ROOT)
        return {
            "absent_layers": self.absent,
            "self_sum_s": float(self_t.sum()),
            "root_wall_s": float(dur[root].sum()),
            "simulations": self.per_simulation(),
        }

    def propagations_per_theta_check(self) -> float:
        """Mean number of propagate spans directly under each fd_theta_consistency span."""
        if "propagation.fd_theta_consistency" not in self.names or "propagation.propagate" not in self.names:
            return 0.0
        layer = np.frombuffer(self.layer, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        fd = self.names.index("propagation.fd_theta_consistency")
        prop = self.names.index("propagation.propagate")
        n_fd = int(np.count_nonzero(layer == fd))
        if n_fd == 0:
            return 0.0
        under = (layer == prop) & (parent >= 0)
        n_prop = int(np.count_nonzero(layer[parent[under]] == fd))
        return n_prop / n_fd


def per_layer_metrics(tracer: Tracer, traced: list[dict], untraced: list[dict],
                      alloc_mb: list[float], theta_margin: float) -> dict:
    """Every metric of :data:`PER_LAYER_METRICS` as (value, unit).

    ``traced`` and ``untraced`` are the benchmark's samples of the two kinds
    of cycle; counts and times are means per traced simulation.
    ``theta_margin`` is the worst theta-consistency value over its tolerance.
    """
    n = max(1, len(tracer.sim_labels))
    dur, self_t = tracer.self_times()
    layer = np.frombuffer(tracer.layer, dtype=np.int32)
    stats = {}
    for lid, name in enumerate(tracer.names):
        m = layer == lid
        stats[name] = (int(m.sum()), float(self_t[m].sum()), float(dur[m].sum()))

    def count(key: str) -> float:
        return sum(v for (_, k), v in tracer.counts.items() if k == key)

    out = {}
    for metric, unit in PER_LAYER_METRICS.items():
        layer_name, _, what = metric.rpartition(".")
        calls, self_s, total_s = stats.get(layer_name, (0, 0.0, 0.0))
        if what == "calls":
            value = calls / n
        elif what == "self_s":
            value = self_s / n
        elif what == "total_s":
            value = total_s / n
        elif what == "steps_per_s":
            value = count("propagation.propagate.steps") / total_s if total_s else 0.0
        elif what == "propagations":
            value = tracer.propagations_per_theta_check()
        elif what == "margin":
            value = theta_margin
        elif what == "eig_matrices_per_point":
            value = count("operators.eig_matrices") / max(1, sum(s["points"] for s in traced))
        elif what == "alloc_peak_mb":
            value = max(alloc_mb) if alloc_mb else 0.0
        elif what == "overhead_frac":
            value = sum(s["wall_s"] for s in traced) / sum(s["wall_s"] for s in untraced) - 1.0
        else:
            value = count(metric) / n
        out[metric] = (value, unit)
    return out


class AllocPeak:
    """tracemalloc peak of each ``run_simulate`` call, above what was allocated at entry.

    tracemalloc slows allocation-heavy code several times over, so it runs in
    its own pass, never together with the span timings.
    """

    def __init__(self, run_simulate):
        self.fn = run_simulate
        self.peaks_mb: list[float] = []

    def install(self) -> Patch:
        fn = self.fn

        def measured(*args, **kwargs):
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            try:
                return fn(*args, **kwargs)
            finally:
                self.peaks_mb.append((tracemalloc.get_traced_memory()[1] - base) / 2**20)

        patch = Patch()
        patch.replace(fn, measured, _bindings(fn))
        return patch
