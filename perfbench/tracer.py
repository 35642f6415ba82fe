"""Per-layer tracing by wrapping nefsim's functions from outside.

Each wrapped function records its inclusive time, the part of that time
spent in other wrapped functions it called (its timed children) and its call
count.  Spans are aggregated in memory as they close and turned into
per-layer metrics when the run ends; nothing is written while it runs.

A function is wrapped in the namespace where its caller looks it up: a
``from .x import f`` binding in module ``m`` is ``m.f`` and is not affected
by patching ``nefsim.x.f``.  Wrapping is undone by ``Tracer.uninstall``.
"""

from __future__ import annotations

import importlib
import json
import time
from pathlib import Path

import numpy as np

# (module, attribute, span name).  The module path "engine:Simulator" names
# a class attribute.  Several lookups may feed one span name.
WRAP_POINTS = (
    ("nefsim.build", "compile_graph", "build.compile_graph"),
    ("nefsim.rover", "compile_graph", "rover.compile_graph"),
    ("nefsim.arm", "compile_graph", "arm.compile_graph"),
    ("nefsim.convert", "compile_graph", "convert.compile_graph"),
    ("nefsim.build", "activity_matrix", "build.activity_matrix"),
    ("nefsim.build", "rate", "build.rate"),
    ("nefsim.build", "solve_decoders", "build.solve_decoders"),
    ("scipy.linalg", "cho_factor", "build.cho_factor"),
    ("scipy.linalg", "cho_solve", "build.cho_solve"),
    ("nefsim.build", "quantize_weights", "build.quantize_weights"),
    ("nefsim.build", "fold_weights", "build.fold_weights"),
    ("nefsim.build", "solve_gain_bias", "build.solve_gain_bias"),
    ("nefsim.rover", "solve_gain_bias", "build.solve_gain_bias"),
    ("nefsim.engine:Simulator", "__init__", "engine.Simulator.init"),
    ("nefsim.engine:Simulator", "reset", "engine.Simulator.reset"),
    ("nefsim.engine:Simulator", "step", "engine.step"),
    ("nefsim.engine", "quantize_weights", "engine.quantize_weights"),
    ("nefsim.engine", "step_spiking", "neurons.step_spiking"),
    ("nefsim.engine", "step_spiking_quantized", "neurons.step_spiking_quantized"),
    ("nefsim.engine", "quantize_current", "neurons.quantize_current"),
    ("nefsim.neurons", "quantize_current", "neurons.quantize_current"),
    ("nefsim.rover", "run_rover_task", "rover.run_rover_task"),
    ("nefsim.rover", "rover_dynamics_step", "rover.rover_dynamics_step"),
    ("nefsim.rover", "world_to_body", "rover.world_to_body"),
    ("nefsim.arm", "run_reach_experiment", "arm.run_reach_experiment"),
    ("nefsim.arm", "arm_dynamics_step", "arm.arm_dynamics_step"),
    ("nefsim.arm", "forward_kinematics", "arm.forward_kinematics"),
    ("nefsim.arm", "mass_matrix", "arm.mass_matrix"),
    ("nefsim.arm", "gravity_torque", "arm.gravity_torque"),
    ("nefsim.arm", "normalize_feedback", "arm.context"),
    ("nefsim.arm", "project_hypersphere", "arm.context"),
    ("nefsim.convert", "fidelity_report", "convert.fidelity_report"),
    ("nefsim.convert", "rate_forward", "convert.rate_forward"),
)

# name -> unit, in the order of BENCHMARK.json.
PER_LAYER = {m["name"]: m["unit"] for m in json.loads(
    (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    ["per_layer"]}

COMPILE_SPANS = ("build.compile_graph", "rover.compile_graph",
                 "arm.compile_graph", "convert.compile_graph")


def _activity_cells(args, kwargs, result):
    return int(np.size(result))


def _gram_flops(args, kwargs, result):
    """Multiply-adds of A^T A and A^T Y, counted as 2 flops each."""
    n_points, n_neurons = np.shape(args[0])
    return 2 * n_points * n_neurons * (n_neurons + np.shape(result)[1])


# span name -> (counter name, function of (args, kwargs, result))
COUNTERS = {
    "build.activity_matrix": ("build.activity_matrix.cells", _activity_cells),
    "build.solve_decoders": ("build.gram_flops", _gram_flops),
}


class Tracer:
    """Wraps the WRAP_POINTS and aggregates their spans."""

    def __init__(self):
        self.totals = {}    # span name -> [calls, inclusive s, children s]
        self.counts = {}    # counter name -> int, computed from array shapes
        self._open = []     # children time of each open span, innermost last
        self._patched = []  # (owner, attribute, original)

    def _wrap(self, name, fn):
        totals = self.totals.setdefault(name, [0, 0.0, 0.0])
        open_spans = self._open
        counter = COUNTERS.get(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            child = [0.0]
            open_spans.append(child)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - t0
                open_spans.pop()
                if open_spans:
                    open_spans[-1][0] += elapsed
                totals[0] += 1
                totals[1] += elapsed
                totals[2] += child[0]
            if counter is not None:
                key, count = counter
                self.counts[key] = self.counts.get(key, 0) + count(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Wrap every WRAP_POINT; returns the ones that no longer exist, whose
        metrics then read zero."""
        # Import every module before patching any: a module imported later
        # would bind an already wrapped function and nest its spans.
        modules = {t: importlib.import_module(t.partition(":")[0]) for t, _, _ in WRAP_POINTS}
        missing = []
        for target, attr, name in WRAP_POINTS:
            owner = modules[target]
            cls = target.partition(":")[2]
            if cls:
                owner = getattr(owner, cls)
            original = getattr(owner, attr, None)
            if original is None:
                missing.append(f"{target}.{attr}")
                continue
            self._patched.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original))
        return missing

    def uninstall(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def calls(self, name):
        return self.totals.get(name, [0, 0.0, 0.0])[0]

    def metrics(self):
        """Every PER_LAYER metric; functions never called read zero."""
        def tot(name):
            return self.totals.get(name, [0, 0.0, 0.0])

        def per_call_us(name):
            calls, incl, _ = tot(name)
            return 1e6 * incl / calls if calls else 0.0

        step_calls, step_s, step_children = tot("engine.step")
        values = {
            "build.compile_graph.s": sum(tot(n)[1] for n in COMPILE_SPANS),
            "build.gram_flops": self.counts.get("build.gram_flops", 0),
            "build.activity_matrix.cells": self.counts.get("build.activity_matrix.cells", 0),
            "engine.step.self_us_per_call":
                1e6 * (step_s - step_children) / step_calls if step_calls else 0.0,
        }
        for metric in PER_LAYER:
            if metric in values:
                continue
            span, _, quantity = metric.rpartition(".")
            calls, incl, children = tot(span)
            if quantity == "s":
                values[metric] = incl
            elif quantity == "self_s":
                values[metric] = incl - children
            elif quantity == "calls":
                values[metric] = calls
            elif quantity == "us_per_call":
                values[metric] = per_call_us(span)
            else:
                raise KeyError(metric)
        return {m: {"value": values[m], "unit": unit} for m, unit in PER_LAYER.items()}
