import numpy as np
import pytest

from nefsim import graph as gr


def channel_graph(n_neurons=500, seed=42, synapse=0.01, neuron_model="lif"):
    """Input node -> ensemble -> output node, identity decode."""
    g = gr.ModelGraph(dt=0.001)
    g.add_node(gr.NodeSpec("in", 1, gr.EXTERNAL_INPUT))
    g.add_node(gr.NodeSpec("out", 1, gr.EXTERNAL_OUTPUT))
    g.add_ensemble(gr.Ensemble("ens", n_neurons=n_neurons, dimensions=1,
                               neuron_model=neuron_model, seed=seed))
    g.connect(gr.ConnectionSpec("c_in", "in", "ens", synapse=None))
    g.connect(gr.ConnectionSpec("c_out", "ens", "out", synapse=synapse))
    return g


def learning_graph(n_neurons=200, dims=2, kappa=1e-2, seed=3, tau_out=0.01,
                   tau_fb=0.005, transform=None):
    """Ensemble with a zero-initialized learned readout (through `transform`,
    identity by default); the error node computes (decoded - target) from a
    fed-back copy of the output."""
    g = gr.ModelGraph(dt=0.001)
    g.add_node(gr.NodeSpec("stim", dims, gr.EXTERNAL_INPUT))
    g.add_node(gr.NodeSpec("target", dims, gr.EXTERNAL_INPUT))
    g.add_node(gr.NodeSpec("decoded", dims, gr.PASSTHROUGH))
    g.add_node(gr.NodeSpec("out", dims, gr.EXTERNAL_OUTPUT))
    g.add_node(gr.NodeSpec("err", dims, gr.PASSTHROUGH))
    g.add_ensemble(gr.Ensemble("ens", n_neurons=n_neurons, dimensions=dims,
                               neuron_model="lif", seed=seed))
    g.connect(gr.ConnectionSpec("c_in", "stim", "ens", synapse=None))
    g.connect(gr.ConnectionSpec("c_learn", "ens", "decoded",
                                function=lambda v: np.zeros(dims),
                                transform=np.eye(dims) if transform is None else transform,
                                synapse=tau_out,
                                learning=gr.PESConfig(kappa, "err")))
    g.connect(gr.ConnectionSpec("c_out", "decoded", "out", synapse=None))
    g.connect(gr.ConnectionSpec("c_fb", "decoded", "err", synapse=tau_fb))
    g.connect(gr.ConnectionSpec("c_tgt", "target", "err",
                                transform=-np.eye(dims), synapse=None))
    return g


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
