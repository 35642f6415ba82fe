"""Correctness checks on the outputs of each workload.

Every check recomputes what it compares against with its own numpy code
(the LIF rate curve, the control laws, the dense forward pass), or tests a
property the method must have (normal equations, the quantization grid,
learning that lowers error).  None compares against a stored copy of an
earlier output.  Each returns a Check; a workload is correct when all hold.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

# LIF constants of every network the workloads build.
TAU_RC = 0.02
TAU_REF = 0.002


class Check(NamedTuple):
    name: str
    ok: bool
    detail: str


def lif_rates(J):
    """Steady LIF rate: 1 / (tau_ref + tau_rc * ln(J / (J - 1))) above J = 1."""
    J = np.asarray(J, dtype=float)
    out = np.zeros_like(J)
    above = J > 1.0
    Ja = J[above]
    out[above] = 1.0 / (TAU_REF + TAU_RC * np.log(Ja / (Ja - 1.0)))
    return out


def activities(ens, points):
    """Rates of a compiled ensemble over points (rows), from its tuning."""
    x = np.atleast_2d(np.asarray(points, dtype=float))
    J = (x @ ens.encoders.T) * (ens.gain / ens.radius) + ens.bias
    return lif_rates(J)


# -- rover control laws, in the network's normalized input coordinates --------

def accel_truth(points, k_a, radius):
    p = np.atleast_2d(points)
    return k_a * np.minimum(radius * np.hypot(p[:, 0], p[:, 1]), 1.0)


def steer_truth(points, k_p, max_steer):
    p = np.atleast_2d(points)
    raw = k_p * (np.arctan2(-p[:, 0], p[:, 1]) - max_steer * p[:, 2])
    return np.clip(raw, -k_p * math.pi, k_p * math.pi)


def law_grid(exclusion_norm, n_grid=40, n_q=5):
    """Open-loop grid: cell centres of the target square inside the annulus
    [exclusion, 0.98] (2-D), and each of those at n_q steering angles (3-D)."""
    span = np.linspace(-0.98, 0.98, n_grid)
    gx, gy = np.meshgrid(span, span)
    pts2 = np.column_stack([gx.ravel(), gy.ravel()])
    norms = np.hypot(pts2[:, 0], pts2[:, 1])
    pts2 = pts2[(norms >= exclusion_norm) & (norms <= 0.98)]
    qs = np.linspace(-0.8, 0.8, n_q)
    pts3 = np.column_stack([np.repeat(pts2, n_q, axis=0), np.tile(qs, len(pts2))])
    return pts2, pts3


def check_law_decode(model, cfg, accel_bound, steer_bound):
    """Decode both laws on the grid through the compiled tuning and weights;
    RMSE relative to k_a (drive) and k_p*pi (steering) within bounds."""
    conns = {c.id: c for c in model.connections}
    pts2, pts3 = law_grid(cfg.exclusion / cfg.radius)
    accel = activities(model.ensemble("accel_ens"), pts2) @ conns["accel_out"].weights[0]
    steer = activities(model.ensemble("steer_ens"), pts3) @ conns["steer_out"].weights[1]
    accel_rel = float(np.sqrt(np.mean((accel - accel_truth(pts2, cfg.k_a, cfg.radius)) ** 2))) / cfg.k_a
    steer_rel = float(np.sqrt(np.mean(
        (steer - steer_truth(pts3, cfg.k_p, cfg.max_steer)) ** 2))) / (cfg.k_p * math.pi)
    ok = accel_rel < accel_bound and steer_rel < steer_bound
    return Check(f"law_decode[{model.backend}]", ok,
                 f"drive RMSE {100 * accel_rel:.2f}% < {100 * accel_bound:.0f}% of k_a, "
                 f"steering {100 * steer_rel:.2f}% < {100 * steer_bound:.0f}% of k_p*pi")


def normal_equation_residual(ens, d, targets, reg, chunk=2048):
    """||A^T (A d - Y) + sigma^2 N d|| / ||A^T Y|| with A recomputed here over
    the ensemble's eval points, sigma = reg * max(A), N = number of points."""
    pts = ens.eval_points
    d = np.asarray(d, dtype=float).reshape(len(ens.gain), -1)
    Y = np.asarray(targets, dtype=float).reshape(len(pts), -1)
    grad = np.zeros_like(d)
    aty = np.zeros_like(d)
    a_max = 0.0
    for lo in range(0, len(pts), chunk):
        A = activities(ens, pts[lo:lo + chunk])
        a_max = max(a_max, float(A.max()))
        Yc = Y[lo:lo + chunk]
        grad += A.T @ (A @ d - Yc)
        aty += A.T @ Yc
    grad += (reg * a_max) ** 2 * len(pts) * d
    return float(np.linalg.norm(grad) / np.linalg.norm(aty))


def check_normal_equations(model, cfg, tol=1e-6):
    """Both law decoders solve their regularized normal equations."""
    conns = {c.id: c for c in model.connections}
    accel = model.ensemble("accel_ens")
    steer = model.ensemble("steer_ens")
    r_accel = normal_equation_residual(
        accel, conns["accel_out"].weights[0],
        accel_truth(accel.eval_points, cfg.k_a, cfg.radius), cfg.solver_reg)
    r_steer = normal_equation_residual(
        steer, conns["steer_out"].weights[1],
        steer_truth(steer.eval_points, cfg.k_p, cfg.max_steer), cfg.solver_reg)
    ok = r_accel <= tol and r_steer <= tol
    return Check(f"normal_equations[{model.backend}]", ok,
                 f"relative gradient drive {r_accel:.1e}, steering {r_steer:.1e} <= {tol:.0e}")


def check_fixed_grid(model, mantissa_max):
    """Every quantized weight is a multiple of 2^e with |mantissa| <= the
    mantissa ceiling, within 2^(e-1) of its float weight, and e is the
    smallest exponent that fits the largest weight."""
    bad = []
    for c in model.connections:
        W, Wq, e = c.weights, c.quantized_weights, c.weight_exponent
        if Wq is None:
            bad.append(f"{c.id}: no quantized copy")
            continue
        step = 2.0 ** e
        mant = Wq / step
        peak = float(np.max(np.abs(W))) if W.size else 0.0
        fits = peak == 0.0 or (peak / step <= mantissa_max < peak / (step / 2.0))
        if not (np.array_equal(mant, np.round(mant))
                and float(np.max(np.abs(mant))) <= mantissa_max
                and float(np.max(np.abs(Wq - W))) <= step / 2.0 and fits):
            bad.append(c.id)
    return Check("fixed_weight_grid", not bad,
                 f"{len(model.connections)} connections on their 2^e grids"
                 + (f"; off grid: {bad}" if bad else ""))


def check_backends_identical(ref, fixed):
    """Encoders, gains, biases and float weights do not depend on the backend."""
    diff = []
    for e in ref.ensembles:
        f = fixed.ensemble(e.id)
        for attr in ("encoders", "gain", "bias"):
            if not np.array_equal(getattr(e, attr), getattr(f, attr)):
                diff.append(f"{e.id}.{attr}")
    fixed_conns = {c.id: c for c in fixed.connections}
    for c in ref.connections:
        if not np.array_equal(c.weights, fixed_conns[c.id].weights):
            diff.append(f"{c.id}.weights")
    return Check("backends_identical", not diff,
                 "tuning and float weights equal on both backends"
                 + (f"; differ: {diff}" if diff else ""))


# -- closed loops ---------------------------------------------------------------

def check_captures(t_captures, cap):
    late = [t for t in t_captures if not (math.isfinite(t) and t <= cap)]
    return Check("targets_captured", not late,
                 f"{len(t_captures) - len(late)}/{len(t_captures)} targets captured "
                 f"within {cap:g} s")


def check_speed(max_speed, accel_gain, k_a, drag, slack=0.01):
    """Speed stays below the drag equilibrium of the largest drive command;
    the slack covers a decoded command a hair above k_a."""
    bound = accel_gain * k_a / drag
    return Check("speed_bound", max_speed <= bound * (1.0 + slack),
                 f"max speed {max_speed:.3f} <= {bound:g}*(1+{slack:g}) m/s")


def check_step_count(engine_steps, expected, derivation):
    return Check("engine_step_count", engine_steps == expected,
                 f"engine.step calls {engine_steps} == {expected} ({derivation})")


def check_arm_session(errors, controllers, n_reaches, max_u, u_limit, diverged):
    """errors: controller -> error_raw per reach of one session; max_u and
    diverged: per adaptive controller."""
    checks = []
    short = {c: len(errors.get(c, ())) for c in controllers
             if len(errors.get(c, ())) != n_reaches}
    checks.append(Check("one_record_per_reach", not short,
                        f"{n_reaches} records for each of {len(controllers)} controllers"
                        + (f"; got {short}" if short else "")))
    if short:
        return checks
    pd_load_last = errors["pd_load"][-1]
    learned = {c: (v[0], v[-1]) for c, v in errors.items() if c.startswith("adaptive")}
    ok = bool(learned) and all(last < first and last < pd_load_last
                               for first, last in learned.values())
    checks.append(Check("adaptive_learns", ok, "; ".join(
        f"{c} {first:.4f} -> {last:.4f}" for c, (first, last) in learned.items())
        + f"; pd_load {pd_load_last:.4f}"))
    worst = max(max_u.values()) if max_u else math.nan
    checks.append(Check("u_adapt_bounded",
                        bool(max_u) and worst <= u_limit and not any(diverged.values()),
                        f"max |u_adapt| {worst:.3f} <= {u_limit:g}, diverged {diverged}"))
    ok = all(a < b for a, b in zip(errors["pd_noload"], errors["pd_load"]))
    checks.append(Check("payload_hurts_pd", ok,
                        f"pd_noload {errors['pd_noload'][-1]:.4f} < pd_load {pd_load_last:.4f}"))
    return checks


# -- conversion -----------------------------------------------------------------

def dense_forward(weights, biases, x):
    """ReLU hidden layers, linear output."""
    h = np.asarray(x, dtype=float)
    for i, (w, b) in enumerate(zip(weights, biases)):
        h = np.einsum("ij,nj->ni", w, h) + b
        if i < len(weights) - 1:
            h = np.where(h > 0.0, h, 0.0)
    return h


def check_conversion(flavor, rows, weights, biases, inputs, share=0.05):
    """rows: (input_index, rate_out, spike_out) per input.  One row per input,
    the program's rate outputs equal a dense forward pass computed here, and
    every spiking output lies within `share` of the output range of it."""
    truth = dense_forward(weights, biases, inputs)
    span = float(truth.max() - truth.min())
    n = len(inputs)
    if [r[0] for r in rows] != list(range(n)):
        return Check(f"conversion[{flavor}]", False,
                     f"{len(rows)} rows for {n} inputs")
    rate_out = np.array([r[1] for r in rows])
    spike_out = np.array([r[2] for r in rows])
    rate_ok = np.allclose(rate_out, truth, rtol=1e-9, atol=1e-12)
    worst = float(np.max(np.abs(spike_out - truth))) / span
    return Check(f"conversion[{flavor}]", bool(rate_ok and worst <= share),
                 f"{n} rows, rate outputs match the dense pass: {rate_ok}, "
                 f"worst spiking error {100 * worst:.2f}% <= {100 * share:.0f}% of range")
