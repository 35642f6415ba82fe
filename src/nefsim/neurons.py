"""Neuron models, tuning-curve math, and fixed-point quantization.

Conventions
-----------
Input current J is unitless (1.0 is the spiking threshold for LIF).  Rate
functions return Hz.  `neuron_step` is the one place where a neuron model and
a backend choose the dynamics: its step returns activity in Hz and
per-neuron spike *counts* for the step; counts above 1 can only occur for
rectified-linear neurons driven past 1/dt.  Simulated spike trains
communicate as counts/dt so their units match the rate curves.

The fixed-point step emulates an on-chip integer pipeline: membrane state
lives on a 2**-(state_bits-8) grid (state_bits-wide integer with 8 integer
bits of headroom) and input currents pass through the same shared-exponent
mantissa grid used for weights.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .errors import InfeasibleTuningError

LIF = "lif"
SPIKING_RELU = "spiking_rectified_linear"
RATE_LIF = "rate_lif"
RATE_RELU = "rate_rectified_linear"

SPIKING_MODELS = (LIF, SPIKING_RELU)
RATE_MODELS = (RATE_LIF, RATE_RELU)
ALL_MODELS = SPIKING_MODELS + RATE_MODELS

LIF_FAMILY = (LIF, RATE_LIF)
RELU_FAMILY = (SPIKING_RELU, RATE_RELU)

DEFAULT_DT = 0.001  # s, simulation timestep unless a run sets its own

# Spike-threshold slack: keeps integer-period drives (e.g. J=100 at dt=1e-3)
# exactly periodic despite accumulated binary rounding of the increments.
_SPIKE_EPS = 1e-9


@dataclass(frozen=True)
class NeuronParams:
    """Neuron constants; each field is a `[neurons]` config key whose metadata
    holds its unit and help text."""
    tau_rc: float = field(default=0.02, metadata=dict(
        unit="s", help="LIF membrane time constant"))
    tau_ref: float = field(default=0.002, metadata=dict(
        unit="s", help="LIF refractory period"))
    amplitude: float = field(default=1.0, metadata=dict(
        help="rectified-linear output scale"))

    def __post_init__(self):
        if not self.tau_rc > 0:
            raise ValueError("tau_rc must be > 0")
        if self.tau_ref < 0:
            raise ValueError("tau_ref must be >= 0")
        if not self.amplitude > 0:
            raise ValueError("amplitude must be > 0")


@dataclass(frozen=True)
class QuantizationSpec:
    """Fixed-point widths (`[neurons]` config keys)."""
    weight_mantissa_bits: int = field(default=8, metadata=dict(
        unit="bits", help="fixed-point weight mantissa"))
    state_bits: int = field(default=23, metadata=dict(
        unit="bits", help="fixed-point neuron state width"))

    def __post_init__(self):
        if not 2 <= self.weight_mantissa_bits <= 16:
            raise ValueError("weight_mantissa_bits must be in [2, 16]")
        if self.state_bits < 8:
            raise ValueError("state_bits must be >= 8")

    @property
    def mantissa_max(self):
        return 2 ** (self.weight_mantissa_bits - 1) - 1

    @property
    def state_grid(self):
        # 8 integer bits of headroom; the rest are fractional.
        return 2.0 ** -(self.state_bits - 8)

    @property
    def state_max(self):
        return (2.0 ** self.state_bits - 1) * self.state_grid


def lif_rate(J, params: NeuronParams, out=None):
    """Steady firing rate of an LIF neuron: 0 for J<=1, else the closed form.

    Computed in place in `out` (a new array if None; may be J itself).  J is
    clamped below at 1 (NaN maps to 1), where the closed form is exactly 0:
    every element takes the same operations, so no mask is needed.
    """
    J = np.asarray(J, dtype=float)
    if out is None:
        out = np.empty_like(J)
    np.fmax(J, 1.0, out=out)
    np.divide(-1.0, out, out=out)
    with np.errstate(divide="ignore"):  # log1p(-1) = -inf at J = 1
        np.log1p(out, out=out)
    out *= params.tau_rc
    np.subtract(params.tau_ref, out, out=out)
    return np.divide(1.0, out, out=out)


def relu_rate(J, params: NeuronParams, out=None):
    """Rectified-linear rate: amplitude * max(J, 0), in `out` if given."""
    J = np.asarray(J, dtype=float)
    if out is None:
        out = np.empty_like(J)
    np.maximum(J, 0.0, out=out)
    out *= params.amplitude
    return out


def rate(model, J, params: NeuronParams, out=None):
    """Rate curve of `model` (spiking variants map to their rate curves),
    written into `out` if given."""
    if model in LIF_FAMILY:
        return lif_rate(J, params, out)
    if model in RELU_FAMILY:
        return relu_rate(J, params, out)
    raise ValueError(f"unknown neuron model {model!r}")


def rate_ceiling(model, params: NeuronParams):
    """Supremum of the rate curve (1/tau_ref for LIF, unbounded for relu)."""
    if model in LIF_FAMILY:
        return np.inf if params.tau_ref == 0 else 1.0 / params.tau_ref
    return np.inf


def lif_current_for_rate(rates, params: NeuronParams):
    """Invert lif_rate: the current producing each requested rate (> 0)."""
    rates = np.asarray(rates, dtype=float)
    return 1.0 / -np.expm1((params.tau_ref - 1.0 / rates) / params.tau_rc)


def solve_gain_bias(max_rates, intercepts, params: NeuronParams, model):
    """Per-neuron gain and bias hitting rate(intercept)=0 and rate(1)=max_rate.

    Inputs are normalized projections x = <encoder, v>/radius; the current is
    J = gain*x + bias.
    """
    max_rates = np.asarray(max_rates, dtype=float)
    intercepts = np.asarray(intercepts, dtype=float)
    if np.any(max_rates <= 0):
        raise InfeasibleTuningError("max_rate must be > 0")
    if np.any(intercepts >= 1.0) or np.any(intercepts < -1.0):
        raise InfeasibleTuningError("intercepts must lie in [-1, 1)")
    if model in LIF_FAMILY:
        ceiling = rate_ceiling(model, params)
        if np.any(max_rates >= ceiling):
            raise InfeasibleTuningError(
                f"max_rate >= 1/tau_ref ceiling ({ceiling:g} Hz)"
            )
        j_max = lif_current_for_rate(max_rates, params)
        gain = (j_max - 1.0) / (1.0 - intercepts)
        bias = 1.0 - gain * intercepts
    elif model in RELU_FAMILY:
        gain = max_rates / (params.amplitude * (1.0 - intercepts))
        bias = -gain * intercepts
    else:
        raise ValueError(f"unknown neuron model {model!r}")
    return gain, bias


def quantize_weights(W, qspec: QuantizationSpec, peak=None):
    """Quantize a matrix onto a signed-mantissa grid with one shared
    power-of-two exponent.

    e = ceil(log2(max|W| / (2**(mantissa_bits-1) - 1))); entries round to
    multiples of 2**e, so the elementwise error is at most 2**(e-1), or they
    saturate, sign kept, where they would round past the largest double.  An
    all-zero matrix is returned unchanged with exponent 0.  A caller that
    already holds max|W| (as max(W.max(), -W.min())) passes it as `peak`.
    """
    W = np.asarray(W, dtype=float)
    if peak is None:
        peak = max(W.max(), -W.min()) if W.size else 0.0
    if peak == 0.0:
        return W.copy(), 0
    e = int(np.ceil(np.log2(peak / qspec.mantissa_max)))
    if e <= 1025 - qspec.weight_mantissa_bits:  # |mantissa| < 2**(1024-e): finite
        scale = 2.0 ** e
        return np.rint(W / scale) * scale, e
    e = min(e, 1023)  # a 2-bit grid's step 2**1024 has no finite multiple but 0
    scale = 2.0 ** e
    top = np.floor(np.finfo(float).max / scale)
    return np.clip(np.rint(W / scale), -top, top) * scale, e  # saturated, sign kept


def quantize_current(J, qspec: QuantizationSpec):
    """Pass input currents through the mantissa grid, one power-of-two
    exponent per value.

    Weight matrices share one exponent (quantize_weights); currents cannot,
    because per-neuron gains span orders of magnitude within an ensemble and
    a shared grid would zero the low-gain neurons' entire operating range.

    A value that would round past the largest double saturates, sign kept,
    at the largest finite multiple of its grid step, as a hardware register
    does; a subnormal J whose |J|/mantissa_max underflows flushes to 0.
    """
    J = np.asarray(J, dtype=float)
    # exact ceil(log2(|J|/mantissa_max)) via frexp: t = m * 2**E, m in [0.5, 1)
    mant, expo = np.frexp(np.abs(J) / qspec.mantissa_max)
    expo -= mant == 0.5
    out = np.rint(np.ldexp(J, -expo))  # exact: scaling by a power of two
    if expo.max() > 1025 - qspec.weight_mantissa_bits:
        # |out| < 2**(bits-1): only here can out * 2**expo overflow.  A 2-bit
        # grid's step 2**1024 has no finite multiple but 0; 2**1023 stands in.
        expo = np.minimum(expo, 1023)
        top = np.floor(np.ldexp(np.finfo(float).max, -np.maximum(expo, 0)))
        out = np.clip(np.rint(np.ldexp(J, -expo)), -top, top)
    return np.ldexp(out, expo) + 0.0  # + 0.0 turns -0.0 into 0.0


def neuron_step(model, n, dt, params: NeuronParams, qspec: QuantizationSpec | None = None):
    """The update of `n` neurons of `model` over one `dt`: a function
    J -> (activity in Hz, spike counts) that owns fresh membrane state.

    Rate models return (rate, rate * dt), spiking ones (counts / dt, counts).
    With `qspec` (the fixed-point backend) every current passes through
    quantize_current and the voltage is rounded onto its state grid after
    each update.  Model and backend are chosen here, once.
    """
    if qspec is None:
        current, settle = partial(np.asarray, dtype=float), lambda v: None
    else:
        current = partial(quantize_current, qspec=qspec)

        def settle(v):  # integer-state emulation
            np.rint(np.divide(v, qspec.state_grid, out=v), out=v)  # grid: a power of two
            v *= qspec.state_grid
            np.minimum(v, qspec.state_max, out=v)

    if model in RATE_MODELS:
        curve = lif_rate if model == RATE_LIF else relu_rate

        def step(J):
            act = curve(current(J), params)
            return act, act * dt
        return step
    if model not in SPIKING_MODELS:
        raise ValueError(f"unknown neuron model {model!r}")
    counts_of = (_lif if model == LIF else _relu)(n, dt, params, settle)

    def step(J):
        counts = counts_of(current(J))
        return counts / dt, counts
    return step


def _lif(n, dt, params, settle):
    """LIF dynamics with fractional spike/refractory timing: J -> spike counts.

    The voltage follows the zero-order-hold solution of tau_rc*v' = J - v over
    the part of the step outside refractory; threshold crossings are placed at
    their sub-step time so the long-run spike rate matches lif_rate(J).
    """
    v, refractory, factor = np.zeros(n), np.zeros(n), np.empty(n)

    def counts(J):
        np.subtract(refractory, dt, out=refractory)
        # integration window within the step, shortened by remaining refractory
        np.subtract(dt, refractory, out=factor)
        np.minimum(np.maximum(factor, 0.0, out=factor), dt, out=factor)
        np.multiply(factor, -1.0 / params.tau_rc, out=factor)
        np.expm1(factor, out=factor)
        np.multiply(factor, v - J, out=factor)  # = (J - v) * (1 - exp(-delta_t/tau_rc))
        np.add(v, factor, out=v)
        np.maximum(v, 0.0, out=v)  # clamp below at 0
        settle(v)
        spiked = v >= 1.0 - _SPIKE_EPS
        idx = spiked.nonzero()[0]
        if idx.size:
            v_s = v[idx]
            J_s = J[idx] if np.ndim(J) else np.full(v_s.shape, float(J))
            # Sub-step spike time; J <= 1 can only be reached exactly at threshold.
            overshoot = np.where(J_s > 1.0, (v_s - 1.0) / np.maximum(J_s - 1.0, 1e-300), 0.0)
            overshoot = np.minimum(np.maximum(overshoot, 0.0), 1.0 - 1e-15)
            t_spike = dt + params.tau_rc * np.log1p(-overshoot)
            refractory[idx] = params.tau_ref + t_spike
            v[idx] = 0.0
        return spiked.astype(float)
    return counts


def _relu(n, dt, params, settle):
    """Spiking rectified-linear dynamics (soft reset): J -> spike counts."""
    v = np.zeros(n)

    def counts(J):
        np.add(v, dt * params.amplitude * np.maximum(J, 0.0), out=v)
        settle(v)
        spikes = np.where(v >= 1.0 - _SPIKE_EPS, np.floor(v + _SPIKE_EPS), 0.0)
        np.subtract(v, spikes, out=v)
        np.maximum(v, 0.0, out=v)
        return spikes
    return counts


def measured_rate_curve(J_points, dt, params: NeuronParams, model,
                        qspec: QuantizationSpec | None = None,
                        settle=0.5, window=2.0):
    """Steady-state firing rate at each current, measured by simulation.

    Each point is an independent constant-current run (they are stepped
    together for speed but share no state) through neuron_step, so with
    `qspec` the curve is the fixed-point staircase.
    """
    J = np.asarray(J_points, dtype=float)
    step = neuron_step(model, J.size, dt, params, qspec)
    n_settle = int(round(settle / dt))
    n_window = int(round(window / dt))
    if n_window < 1:
        raise ValueError(f"window {window!r} s rounds to no step of dt = {dt!r} s")
    for _ in range(n_settle):
        step(J)
    counts = np.zeros(J.size)
    for _ in range(n_window):
        counts += step(J)[1]
    return counts / (n_window * dt)
