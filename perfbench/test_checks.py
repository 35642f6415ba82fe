"""Self-tests of the benchmark's correctness checks: each passes on a correct
result and fails on a deliberately corrupted copy of it, so none is vacuous.

    PYTHONPATH=src python3 -m pytest -q perfbench/test_checks.py
"""

import copy
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import checks  # noqa: E402
from nefsim import convert as cv  # noqa: E402
from nefsim import rover  # noqa: E402
from nefsim.neurons import QuantizationSpec  # noqa: E402

# criterion 4's bounds at the 512-neuron preset
ACCEL_BOUND, STEER_BOUND = 0.10, 0.15


@pytest.fixture(scope="module")
def rover_models():
    cfg = rover.RoverNetConfig(n_neurons=512)
    return cfg, {b: rover.compile_rover_net(cfg, b, seed=1) for b in ("reference", "fixed")}


def conn(model, cid):
    return next(c for c in model.connections if c.id == cid)


def test_law_decode_fails_on_perturbed_decoders(rover_models):
    cfg, models = rover_models
    ref = models["reference"]
    assert checks.check_law_decode(ref, cfg, ACCEL_BOUND, STEER_BOUND).ok
    bad = copy.deepcopy(ref)
    w = conn(bad, "steer_out").weights
    w[1] += np.random.default_rng(0).normal(0.0, 10.0 * np.abs(w[1]).mean(), w.shape[1])
    assert not checks.check_law_decode(bad, cfg, ACCEL_BOUND, STEER_BOUND).ok


def test_normal_equations_fail_on_perturbed_decoders(rover_models):
    cfg, models = rover_models
    ref = models["reference"]
    assert checks.check_normal_equations(ref, cfg).ok
    bad = copy.deepcopy(ref)
    conn(bad, "accel_out").weights[0] *= 1.0 + 1e-4
    assert not checks.check_normal_equations(bad, cfg).ok


def test_fixed_grid_fails_off_grid_and_on_a_loose_exponent(rover_models):
    _, models = rover_models
    mmax = QuantizationSpec().mantissa_max
    assert checks.check_fixed_grid(models["fixed"], mmax).ok
    off = copy.deepcopy(models["fixed"])
    c = conn(off, "steer_out")
    c.quantized_weights[1, 0] += 2.0 ** c.weight_exponent / 3.0
    assert not checks.check_fixed_grid(off, mmax).ok
    loose = copy.deepcopy(models["fixed"])
    c = conn(loose, "accel_out")
    c.weight_exponent += 1   # still a grid, but not the smallest that fits
    assert not checks.check_fixed_grid(loose, mmax).ok


def test_backends_identical_fails_on_different_tuning(rover_models):
    _, models = rover_models
    assert checks.check_backends_identical(models["reference"], models["fixed"]).ok
    bad = copy.deepcopy(models["fixed"])
    bad.ensemble("accel_ens").gain[3] *= 1.0 + 1e-12
    assert not checks.check_backends_identical(models["reference"], bad).ok


def test_tracer_counts_each_span_once():
    from nefsim.engine import Simulator
    from tracer import Tracer

    tracer = Tracer()
    assert tracer.install() == []
    try:
        cfg = rover.RoverNetConfig(n_neurons=64)
        t0 = time.perf_counter()
        sim = Simulator(rover.compile_rover_net(cfg, "fixed", seed=0))
        wall = time.perf_counter() - t0
        for _ in range(7):
            sim.step({"target_in": (1.0, 0.5), "steer_in": (0.0,)})
    finally:
        tracer.uninstall()
    m = {k: v["value"] for k, v in tracer.metrics().items()}
    assert 0.0 < m["build.compile_graph.s"] <= wall
    assert m["build.activity_matrix.calls"] == 2
    assert m["engine.step.calls"] == 7
    assert m["engine.Simulator.reset.calls"] == 1


def test_tracer_wraps_no_wrapper_when_it_imports_the_modules():
    # in a fresh process, so that installing the tracer does the imports
    code = ("from tracer import Tracer\n"
            "t = Tracer(); t.install()\n"
            "for owner, attr, _ in t._patched:\n"
            "    assert getattr(owner, attr).__wrapped__.__name__ != 'traced', attr\n")
    here = Path(__file__).resolve().parent
    subprocess.run([sys.executable, "-c", code], check=True, cwd=here,
                   env={**os.environ, "PYTHONPATH": str(here.parent / "src")})


def test_captures_and_speed():
    assert checks.check_captures([1.2, 0.0, 29.9], 30.0).ok
    assert not checks.check_captures([1.2, math.nan], 30.0).ok
    assert not checks.check_captures([30.5], 30.0).ok
    assert checks.check_speed(3.9, 2.0, 1.0, 0.5).ok
    assert not checks.check_speed(4.2, 2.0, 1.0, 0.5).ok


def test_step_count():
    assert checks.check_step_count(1200, 1200, "x").ok
    assert not checks.check_step_count(1199, 1200, "x").ok


CONTROLLERS = ("pd_noload", "pd_load", "pid", "adaptive_reference", "adaptive_fixed")


def arm_session():
    errors = {"pd_noload": [0.066] * 3, "pd_load": [0.288] * 3, "pid": [0.24] * 3,
              "adaptive_reference": [0.149, 0.120, 0.111],
              "adaptive_fixed": [0.149, 0.120, 0.111]}
    max_u = {"adaptive_reference": 6.7, "adaptive_fixed": 6.7}
    diverged = {"adaptive_reference": False, "adaptive_fixed": False}
    return errors, max_u, diverged


def arm_verdicts(errors, max_u, diverged):
    return {c.name: c.ok for c in checks.check_arm_session(
        errors, CONTROLLERS, 3, max_u, 30.0, diverged)}


def test_arm_checks_pass_on_a_good_session():
    assert all(arm_verdicts(*arm_session()).values())


def test_arm_fails_on_a_dropped_reach_record():
    errors, max_u, diverged = arm_session()
    errors["adaptive_fixed"] = errors["adaptive_fixed"][:-1]
    assert not arm_verdicts(errors, max_u, diverged)["one_record_per_reach"]


def test_arm_fails_without_learning_or_bounded_torque():
    errors, max_u, diverged = arm_session()
    errors["adaptive_reference"] = [0.149, 0.150, 0.151]
    assert not arm_verdicts(errors, max_u, diverged)["adaptive_learns"]
    errors, max_u, diverged = arm_session()
    diverged["adaptive_fixed"] = True
    assert not arm_verdicts(errors, max_u, diverged)["u_adapt_bounded"]
    errors, max_u, diverged = arm_session()
    errors["pd_noload"] = [0.3] * 3
    assert not arm_verdicts(errors, max_u, diverged)["payload_hurts_pd"]


@pytest.fixture(scope="module")
def conversion():
    rng = np.random.default_rng(0)
    weights = [rng.standard_normal((16, 8)) / math.sqrt(8), rng.standard_normal((2, 16)) / 4.0]
    biases = [0.1 * rng.standard_normal(16), 0.1 * rng.standard_normal(2)]
    inputs = rng.uniform(-1.0, 1.0, (6, 8))
    net = cv.DenseNetSpec(sizes=(8, 16, 2), weights=weights, biases=biases)
    report = cv.fidelity_report(net, cv.ConversionConfig(), inputs)
    rows = [(r.input_index, r.rate_out, r.spike_out) for r in report.rows]
    return rows, weights, biases, inputs


def test_conversion_fails_on_shifted_spike_output(conversion):
    rows, weights, biases, inputs = conversion
    assert checks.check_conversion("spiking", rows, weights, biases, inputs).ok
    span = float(np.ptp(checks.dense_forward(weights, biases, inputs)))
    shifted = [(i, r, s + 0.06 * span) if i == 2 else (i, r, s) for i, r, s in rows]
    assert not checks.check_conversion("spiking", shifted, weights, biases, inputs).ok


def test_conversion_fails_on_a_missing_row(conversion):
    rows, weights, biases, inputs = conversion
    assert not checks.check_conversion("spiking", rows[:-1], weights, biases, inputs).ok
