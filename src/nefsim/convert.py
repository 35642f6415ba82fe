"""Dense feedforward nets swapped onto spiking rectified-linear neurons.

Each hidden unit becomes one spiking neuron whose input current is scaled by
`scale_firing_rates` and whose output is decoded with the reciprocal, so the
filtered spike rate reproduces the rate activation in expectation while the
neurons run in a high-rate, low-variance regime.  Weights and biases carry
over unchanged; trained weights are supplied via file or generated randomly.
The converted graph has fixed node ids: the input goes in at INPUT, a
constant 1.0 at BIAS every step, and the output comes out at OUTPUT.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import graph as gr
from .build import FIXED_POINT, REFERENCE, compile_graph
from .engine import Simulator
from .errors import ConfigError, ShapeMismatchError
from .neurons import DEFAULT_DT, NeuronParams, QuantizationSpec

SPIKING = "spiking"
SPIKING_QUANTIZED = "spiking_quantized"

INPUT, BIAS, OUTPUT = "x_in", "one_in", "y_out"


@dataclass(frozen=True)
class DenseNetSpec:
    """Layer sizes plus per-layer weights (out x in) and biases (out,), whose
    shapes are checked on construction (ShapeMismatchError).

    Hidden layers are rectified linear; the final layer is linear output.
    """

    sizes: tuple
    weights: list
    biases: list

    def __post_init__(self):
        if len(self.sizes) < 2:
            raise ShapeMismatchError("need at least one layer")
        if len(self.weights) != len(self.sizes) - 1 or len(self.biases) != len(self.weights):
            raise ShapeMismatchError("one weight matrix and bias per layer required")
        for l, (w, b) in enumerate(zip(self.weights, self.biases), start=1):
            if w.shape != (self.sizes[l], self.sizes[l - 1]):
                raise ShapeMismatchError(
                    f"layer {l}: weights {w.shape} != ({self.sizes[l]}, {self.sizes[l-1]})"
                )
            if b.shape != (self.sizes[l],):
                raise ShapeMismatchError(f"layer {l}: biases {b.shape}")

    @property
    def n_layers(self):
        return len(self.sizes) - 1


@dataclass(frozen=True)
class ConversionConfig:
    """Conversion settings; fields with metadata are `[convert]` config keys."""
    scale_firing_rates: float = field(default=400.0, metadata=dict(
        help="conversion firing-rate scale"))
    output_tau: float = field(default=0.01, metadata=dict(
        unit="s", help="output low-pass"))
    inter_layer_tau: float = field(default=0.0, metadata=dict(
        unit="s", help="between spiking layers; 0 = none"))
    flavor: str = SPIKING  # or SPIKING_QUANTIZED, on the fixed-point backend
    presentation_time: float = field(default=0.5, metadata=dict(
        unit="s", help="time per input"))
    dt: float = DEFAULT_DT
    # neuron constants and fixed-point widths, read from the [neurons] keys
    neuron_params: NeuronParams = NeuronParams()
    qspec: QuantizationSpec = QuantizationSpec()

    def __post_init__(self):
        if self.flavor not in (SPIKING, SPIKING_QUANTIZED):
            raise ValueError(f"unknown flavor {self.flavor!r}; "
                             f"choose one of {SPIKING}, {SPIKING_QUANTIZED}")
        if not self.scale_firing_rates > 0:
            raise ValueError("scale_firing_rates must be > 0")
        if not self.presentation_time >= 10.0 * self.output_tau:
            raise ValueError("presentation_time must cover >= 10 output taus")
        if not self.presentation_time >= 2.0 * self.dt:  # a settle step and a measured one
            raise ValueError("presentation_time must be >= 2 dt")


def rate_forward(net: DenseNetSpec, x):
    """Plain dense forward pass with ReLU hidden activations."""
    h = np.asarray(x, dtype=float)
    if h.shape[-1] != net.sizes[0]:
        raise ShapeMismatchError(f"input dims {h.shape[-1]} != {net.sizes[0]}")
    for w, b in zip(net.weights[:-1], net.biases[:-1]):
        h = np.maximum(h @ w.T + b, 0.0)
    return h @ net.weights[-1].T + net.biases[-1]


def _layer_tuning(w, b, scale):
    norms = np.linalg.norm(w, axis=1)
    safe = np.maximum(norms, 1e-12)
    encoders = w / safe[:, None]
    encoders[norms < 1e-12, :] = 0.0
    encoders[norms < 1e-12, 0] = 1.0
    return gr.ExplicitTuning(encoders=encoders, gain=scale * safe, bias=scale * b)


def convert(net: DenseNetSpec, cfg: ConversionConfig):
    """The spiking graph for `net`: ensembles layer1.. in order, fed from INPUT
    and BIAS, read out at OUTPUT."""
    if net.n_layers < 2:
        raise ShapeMismatchError("conversion needs at least one hidden layer")
    s = cfg.scale_firing_rates
    g = gr.ModelGraph(dt=cfg.dt, neuron_params=cfg.neuron_params)
    g.add_node(gr.NodeSpec(INPUT, net.sizes[0], gr.EXTERNAL_INPUT))
    g.add_node(gr.NodeSpec(BIAS, 1, gr.EXTERNAL_INPUT))
    g.add_node(gr.NodeSpec(OUTPUT, net.sizes[-1], gr.EXTERNAL_OUTPUT))
    src = INPUT
    for l, (w, b) in enumerate(zip(net.weights[:-1], net.biases[:-1]), start=1):
        layer, n_in = f"layer{l}", net.sizes[l - 1]
        g.add_ensemble(gr.Ensemble(layer, n_neurons=net.sizes[l], dimensions=n_in,
                                   neuron_model="spiking_rectified_linear",
                                   fixed_tuning=_layer_tuning(w, b, s)))
        first = src == INPUT  # the first spiking layer encodes the real input directly
        g.connect(gr.ConnectionSpec(
            f"into_{layer}", src, layer, transform=np.eye(n_in),
            decoders=None if first else np.eye(n_in) / s,
            synapse=None if first or not cfg.inter_layer_tau > 0 else cfg.inter_layer_tau))
        src = layer
    # linear output layer: decode the last hidden activity through its weights
    g.connect(gr.ConnectionSpec(
        "readout", src, OUTPUT, transform=net.weights[-1],
        decoders=np.eye(net.sizes[-2]) / s, synapse=cfg.output_tau))
    g.connect(gr.ConnectionSpec(
        "readout_bias", BIAS, OUTPUT,
        transform=net.biases[-1].reshape(-1, 1), synapse=None))
    return g


def _present(sim, x, n_steps):
    """Run one input for n_steps: the first half settles, the second half is
    measured.  Returns the mean output and each ensemble's mean activity
    vector over the measured steps."""
    sim.reset()
    inputs = {INPUT: x, BIAS: np.ones(1)}
    settle = n_steps // 2
    for _ in range(settle):
        sim.step(inputs)
    out = sim.step(inputs)[OUTPUT].copy()
    acts = {e.id: sim.last_activity(e.id).copy() for e in sim.model.ensembles}
    for _ in range(n_steps - settle - 1):
        out += sim.step(inputs)[OUTPUT]
        for eid, a in acts.items():
            a += sim.last_activity(eid)
    count = n_steps - settle
    return out / count, {eid: a / count for eid, a in acts.items()}


@dataclass
class FidelityRow:
    input_index: int
    rate_out: np.ndarray
    spike_out: np.ndarray

    @property
    def abs_err(self):
        return np.abs(self.spike_out - self.rate_out)


@dataclass
class FidelityReport:
    rows: list
    layer_rates: dict     # ensemble id -> mean Hz over all presentations
    output_range: float   # max - min of the rate outputs, over inputs and dims

    @property
    def mean_abs_err(self):
        return float(np.mean([r.abs_err.mean() for r in self.rows]))


def fidelity_report(net: DenseNetSpec, cfg: ConversionConfig, inputs,
                    seed=0) -> FidelityReport:
    """Rate-vs-spiking comparison over a batch of inputs."""
    backend = FIXED_POINT if cfg.flavor == SPIKING_QUANTIZED else REFERENCE
    sim = Simulator(compile_graph(convert(net, cfg), backend=backend, seed=seed,
                                  qspec=cfg.qspec))
    n_steps = int(round(cfg.presentation_time / cfg.dt))
    rows, totals = [], {}
    for idx, x in enumerate(np.atleast_2d(np.asarray(inputs, dtype=float))):
        spike_out, rates = _present(sim, x, n_steps)
        rows.append(FidelityRow(idx, rate_forward(net, x), spike_out))
        for eid, r in rates.items():
            totals[eid] = totals[eid] + r if eid in totals else r
    rate_outs = np.array([r.rate_out for r in rows])
    output_range = float(rate_outs.max() - rate_outs.min()) if rows else 0.0
    layer_rates = {eid: float(np.mean(t)) / len(rows) for eid, t in totals.items()}
    return FidelityReport(rows=rows, layer_rates=layer_rates,
                          output_range=output_range)


def random_dense_net(sizes, rng):
    """Random net with fan-in scaled weights (outputs stay O(1)) and biases
    of standard deviation 0.1."""
    weights, biases = [], []
    for l in range(1, len(sizes)):
        scale = 1.0 / math.sqrt(sizes[l - 1])
        weights.append(scale * rng.standard_normal((sizes[l], sizes[l - 1])))
        biases.append(0.1 * rng.standard_normal(sizes[l]))
    return DenseNetSpec(sizes=tuple(sizes), weights=weights, biases=biases)


# -- net file format -----------------------------------------------------------
#
# Line-oriented text:
#   layers: n0 n1 ... nk
#   W <layer> <i> <j> <value>      (1-based layer; i row, j column, 0-based)
#   b <layer> <i> <value>
# '#' starts a comment; omitted entries are zero.

def write_net_file(net: DenseNetSpec, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("layers: " + " ".join(str(n) for n in net.sizes) + "\n")
        for l, (w, b) in enumerate(zip(net.weights, net.biases), start=1):
            for i in range(w.shape[0]):
                for j in range(w.shape[1]):
                    if w[i, j] != 0.0:
                        fh.write(f"W {l} {i} {j} {float(w[i, j])!r}\n")
            for i in range(b.shape[0]):
                if b[i] != 0.0:
                    fh.write(f"b {l} {i} {float(b[i])!r}\n")


def read_net_file(path):
    """The net in the file at `path`; a malformed file raises ConfigError
    naming the file and, for a bad line, its number."""
    sizes = None
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            tok = line.split()
            if not tok:
                continue
            try:
                if line.startswith("layers:"):
                    sizes = tuple(int(t) for t in line[len("layers:"):].split())
                    weights = [np.zeros((n, m)) for m, n in zip(sizes, sizes[1:])]
                    biases = [np.zeros(n) for n in sizes[1:]]
                elif sizes is None:
                    raise ValueError("records before the layers header")
                elif (tok[0], len(tok)) in (("W", 5), ("b", 4)):
                    layer, *index = (int(t) for t in tok[1:-1])
                    if layer < 1 or min(index) < 0:
                        raise IndexError("layer must be >= 1 and row, column >= 0")
                    table = weights if tok[0] == "W" else biases
                    table[layer - 1][tuple(index)] = float(tok[-1])
                else:
                    raise ValueError("unrecognized record")
            except (ValueError, IndexError) as exc:
                raise ConfigError(f"net file {path}, line {lineno}: {exc}") from exc
    if sizes is None:
        raise ConfigError(f"net file {path}: missing layers header")
    return DenseNetSpec(sizes=sizes, weights=weights, biases=biases)
