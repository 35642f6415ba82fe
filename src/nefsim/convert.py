"""Dense feedforward nets swapped onto spiking rectified-linear neurons.

Each hidden unit becomes one spiking neuron whose input current is scaled by
`scale_firing_rates` and whose output is decoded with the reciprocal, so the
filtered spike rate reproduces the rate activation in expectation while the
neurons run in a high-rate, low-variance regime.  Weights and biases carry
over unchanged; trained weights are supplied via file or generated randomly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import graph as gr
from .build import FIXED_POINT, REFERENCE, compile_graph
from .engine import Simulator
from .errors import ShapeMismatchError
from .neurons import DEFAULT_DT, NeuronParams, QuantizationSpec

SPIKING = "spiking"
SPIKING_QUANTIZED = "spiking_quantized"


@dataclass
class DenseNetSpec:
    """Layer sizes plus per-layer weights (out x in) and biases (out,).

    Hidden layers are rectified linear; the final layer is linear output.
    """

    sizes: tuple
    weights: list
    biases: list

    def validate(self):
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
    flavor: str = SPIKING
    presentation_time: float = field(default=0.5, metadata=dict(
        unit="s", help="time per input"))
    dt: float = DEFAULT_DT
    # neuron constants and fixed-point widths, read from the [neurons] keys
    neuron_params: NeuronParams = NeuronParams()
    qspec: QuantizationSpec = QuantizationSpec()

    def __post_init__(self):
        if not self.scale_firing_rates > 0:
            raise ValueError("scale_firing_rates must be > 0")
        if self.presentation_time < 10.0 * self.output_tau:
            raise ValueError("presentation_time must cover >= 10 output taus")


def rate_forward(net: DenseNetSpec, x):
    """Plain dense forward pass with ReLU hidden activations."""
    net.validate()
    h = np.asarray(x, dtype=float)
    if h.shape[-1] != net.sizes[0]:
        raise ShapeMismatchError(f"input dims {h.shape[-1]} != {net.sizes[0]}")
    last = net.n_layers - 1
    for l, (w, b) in enumerate(zip(net.weights, net.biases)):
        h = h @ w.T + b
        if l != last:
            h = np.maximum(h, 0.0)
    return h


def _layer_tuning(w, b, scale):
    norms = np.linalg.norm(w, axis=1)
    safe = np.maximum(norms, 1e-12)
    encoders = w / safe[:, None]
    encoders[norms < 1e-12, :] = 0.0
    encoders[norms < 1e-12, 0] = 1.0
    return gr.ExplicitTuning(encoders=encoders, gain=scale * safe, bias=scale * b)


def convert(net: DenseNetSpec, cfg: ConversionConfig):
    """Build the spiking graph for `net`.

    Returns (graph, names) where names holds the input node id, the constant
    bias node id (feed 1.0 there each step), and the output node id.
    """
    net.validate()
    s = cfg.scale_firing_rates
    g = gr.ModelGraph(dt=cfg.dt, neuron_params=cfg.neuron_params)
    g.add_node(gr.NodeSpec("x_in", net.sizes[0], gr.EXTERNAL_INPUT))
    g.add_node(gr.NodeSpec("one_in", 1, gr.EXTERNAL_INPUT))
    g.add_node(gr.NodeSpec("y_out", net.sizes[-1], gr.EXTERNAL_OUTPUT))

    n_hidden = net.n_layers - 1
    for l in range(n_hidden):
        w, b = net.weights[l], net.biases[l]
        g.add_ensemble(gr.Ensemble(
            f"layer{l + 1}", n_neurons=net.sizes[l + 1], dimensions=net.sizes[l],
            radius=1.0, neuron_model="spiking_rectified_linear",
            fixed_tuning=_layer_tuning(w, b, s),
        ))
    for l in range(n_hidden):
        src = "x_in" if l == 0 else f"layer{l}"
        n_in = net.sizes[l]
        if l == 0:
            # first spiking layer encodes the real input directly
            g.connect(gr.ConnectionSpec(
                f"into_layer{l + 1}", src, f"layer{l + 1}",
                transform=np.eye(n_in), synapse=None))
        else:
            g.connect(gr.ConnectionSpec(
                f"into_layer{l + 1}", src, f"layer{l + 1}",
                transform=np.eye(n_in), decoders=np.eye(n_in) / s,
                synapse=cfg.inter_layer_tau if cfg.inter_layer_tau > 0 else None))
    # linear output layer: decode the last hidden activity through its weights
    w_out, b_out = net.weights[-1], net.biases[-1]
    g.connect(gr.ConnectionSpec(
        "readout", f"layer{n_hidden}", "y_out",
        transform=w_out, decoders=np.eye(net.sizes[-2]) / s,
        synapse=cfg.output_tau))
    g.connect(gr.ConnectionSpec(
        "readout_bias", "one_in", "y_out",
        transform=b_out.reshape(-1, 1), synapse=None))
    names = {"input": "x_in", "one": "one_in", "output": "y_out"}
    return g, names


def _present(sim, names, x, n_steps):
    """Run one input for n_steps; returns the output averaged over the last
    half plus the per-layer mean firing rates."""
    sim.reset()
    x = np.asarray(x, dtype=float)
    inputs = {names["input"]: x, names["one"]: np.ones(1)}
    half = n_steps // 2
    acc = None
    count = 0
    rate_acc = {e.id: 0.0 for e in sim.model.ensembles}
    for i in range(n_steps):
        out = sim.step(inputs)[names["output"]]
        if i >= half:
            acc = out.copy() if acc is None else acc + out
            count += 1
            for eid in rate_acc:
                rate_acc[eid] += float(np.mean(sim.last_activity(eid)))
    mean_rates = {eid: v / count for eid, v in rate_acc.items()}
    return acc / count, mean_rates


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
    graph, names = convert(net, cfg)
    backend = FIXED_POINT if cfg.flavor == SPIKING_QUANTIZED else REFERENCE
    sim = Simulator(compile_graph(graph, backend=backend, seed=seed, qspec=cfg.qspec))
    n_steps = int(round(cfg.presentation_time / cfg.dt))
    rows = []
    layer_totals: dict = {}
    for idx, x in enumerate(np.atleast_2d(np.asarray(inputs, dtype=float))):
        spike_out, mean_rates = _present(sim, names, x, n_steps)
        rows.append(FidelityRow(idx, rate_forward(net, x), spike_out))
        for eid, r in mean_rates.items():
            layer_totals[eid] = layer_totals.get(eid, 0.0) + r
    rate_outs = np.array([r.rate_out for r in rows])
    output_range = float(rate_outs.max() - rate_outs.min()) if rows else 0.0
    layer_rates = {eid: total / len(rows) for eid, total in layer_totals.items()}
    return FidelityReport(rows=rows, layer_rates=layer_rates,
                          output_range=output_range)


def random_dense_net(sizes, rng, weight_scale=None, bias_scale=0.1):
    """Random net with fan-in scaled weights (outputs stay O(1))."""
    weights, biases = [], []
    for l in range(1, len(sizes)):
        scale = weight_scale if weight_scale is not None else 1.0 / math.sqrt(sizes[l - 1])
        weights.append(scale * rng.standard_normal((sizes[l], sizes[l - 1])))
        biases.append(bias_scale * rng.standard_normal(sizes[l]))
    return DenseNetSpec(sizes=tuple(sizes), weights=weights, biases=biases)


# -- net file format -----------------------------------------------------------
#
# Line-oriented text:
#   layers: n0 n1 ... nk
#   W <layer> <i> <j> <value>      (1-based layer; i row, j column, 0-based)
#   b <layer> <i> <value>
# '#' starts a comment; omitted entries are zero.

def write_net_file(net: DenseNetSpec, path):
    net.validate()
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
    sizes = None
    weights = biases = None
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if line.startswith("layers:"):
                sizes = tuple(int(tok) for tok in line.split(":", 1)[1].split())
                weights = [np.zeros((sizes[l], sizes[l - 1]))
                           for l in range(1, len(sizes))]
                biases = [np.zeros(sizes[l]) for l in range(1, len(sizes))]
                continue
            if sizes is None:
                raise ValueError(f"line {lineno}: records before the layers header")
            tok = line.split()
            try:
                if tok[0] == "W" and len(tok) == 5:
                    l, i, j = int(tok[1]), int(tok[2]), int(tok[3])
                    weights[l - 1][i, j] = float(tok[4])
                elif tok[0] == "b" and len(tok) == 4:
                    l, i = int(tok[1]), int(tok[2])
                    biases[l - 1][i] = float(tok[3])
                else:
                    raise ValueError("unrecognized record")
            except (ValueError, IndexError) as exc:
                raise ValueError(f"line {lineno}: {exc}") from exc
    if sizes is None:
        raise ValueError("missing layers header")
    net = DenseNetSpec(sizes=sizes, weights=weights, biases=biases)
    net.validate()
    return net
