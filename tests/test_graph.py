import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nefsim import graph as gr
from nefsim.errors import (
    DuplicateIdError,
    FrozenGraphError,
    LearningOnNodeError,
    ShapeMismatchError,
    UnknownEndpointError,
)


def small_graph():
    g = gr.ModelGraph()
    g.add_node(gr.NodeSpec("in", 2, gr.EXTERNAL_INPUT))
    g.add_node(gr.NodeSpec("out", 1, gr.EXTERNAL_OUTPUT))
    g.add_ensemble(gr.Ensemble("a", n_neurons=40, dimensions=2))
    return g


class TestConstruction:
    def test_add_ensemble(self):
        g = gr.ModelGraph()
        g.add_ensemble(gr.Ensemble("a", n_neurons=10, dimensions=1))
        assert [e.id for e in g.ensembles] == ["a"]

    def test_duplicate_id(self):
        g = gr.ModelGraph()
        g.add_ensemble(gr.Ensemble("a", n_neurons=10, dimensions=1))
        with pytest.raises(DuplicateIdError):
            g.add_ensemble(gr.Ensemble("a", n_neurons=5, dimensions=1))

    def test_degenerate_count_deferred_to_validation(self):
        g = gr.ModelGraph()
        g.add_ensemble(gr.Ensemble("a", n_neurons=0, dimensions=1))
        diags = g.validate()
        assert any(d.code == "InvalidParam" and d.subject == "a" for d in diags)

    def test_connect_identity(self):
        g = small_graph()
        g.connect(gr.ConnectionSpec("c", "in", "a"))
        assert g.connection("c").transform.shape == (2, 2)

    def test_connect_shape_mismatch(self):
        g = small_graph()
        with pytest.raises(ShapeMismatchError):
            g.connect(gr.ConnectionSpec("c", "a", "out",
                                        transform=np.ones((1, 3))))

    def test_connect_unknown_endpoint(self):
        g = small_graph()
        with pytest.raises(UnknownEndpointError):
            g.connect(gr.ConnectionSpec("c", "in", "missing"))

    def test_learning_on_node_source(self):
        g = small_graph()
        g.add_node(gr.NodeSpec("mid", 2, gr.PASSTHROUGH))
        with pytest.raises(LearningOnNodeError):
            g.connect(gr.ConnectionSpec(
                "c", "in", "mid", learning=gr.PESConfig(1e-3, "out")))


class TestValidation:
    def test_control_style_graph_is_clean(self):
        # two ensembles fed by one input node, two decoded outputs
        g = gr.ModelGraph()
        g.register_function("norm", lambda v: np.array([np.linalg.norm(v)]))
        g.add_node(gr.NodeSpec("sense", 3, gr.EXTERNAL_INPUT))
        g.add_node(gr.NodeSpec("motor", 2, gr.EXTERNAL_OUTPUT))
        g.add_ensemble(gr.Ensemble("drive", n_neurons=64, dimensions=2))
        g.add_ensemble(gr.Ensemble("steer", n_neurons=64, dimensions=3))
        g.connect(gr.ConnectionSpec("s1", "sense", "drive",
                                    transform=np.eye(2, 3)))
        g.connect(gr.ConnectionSpec("s2", "sense", "steer"))
        g.connect(gr.ConnectionSpec("o1", "drive", "motor", function_tag="norm",
                                    transform=[[1.0], [0.0]], synapse=0.02))
        g.connect(gr.ConnectionSpec("o2", "steer", "motor", function_tag="norm",
                                    transform=[[0.0], [1.0]], synapse=0.02))
        assert g.validate() == []

    def test_dangling_error_source(self):
        g = small_graph()
        g.register_function("z1", lambda v: np.zeros(1))
        g.connect(gr.ConnectionSpec("c", "a", "out", function_tag="z1",
                                    learning=gr.PESConfig(1e-3, "missing")))
        diags = g.validate()
        assert len(diags) == 1
        assert diags[0].code == "UnknownEndpoint"

    def test_boundary_intercept_range(self):
        g = gr.ModelGraph()
        g.add_ensemble(gr.Ensemble("a", n_neurons=10, dimensions=1,
                                   intercept_range=(1.0, 1.0)))
        diags = g.validate()
        assert len(diags) == 1
        assert diags[0].code == "InvalidParam"

    def test_external_io_direction(self):
        g = small_graph()
        g.connect(gr.ConnectionSpec("bad_in", "a", "in",
                                    transform=np.eye(2)))
        diags = g.validate()
        assert any("inbound" in d.message for d in diags)

    def test_max_rate_ceiling(self):
        g = gr.ModelGraph()
        g.add_ensemble(gr.Ensemble("a", n_neurons=10, dimensions=1,
                                   max_rate_range=(400.0, 600.0)))
        assert any("ceiling" in d.message for d in g.validate())

    def test_explicit_decoders_on_node_source_rejected(self):
        g = small_graph()
        g.add_node(gr.NodeSpec("out3", 3, gr.EXTERNAL_OUTPUT))
        g.connect(gr.ConnectionSpec("c", "in", "out3", decoders=np.ones((5, 3))))
        assert [(d.code, d.subject, d.message) for d in g.validate()] == [
            ("InvalidParam", "c", "functions and decoders apply to decoded ensemble "
             "outputs only")]

    def test_explicit_decoders_on_learned_connection_rejected(self):
        g = small_graph()
        g.connect(gr.ConnectionSpec("c", "a", "out", decoders=np.ones((40, 1)),
                                    learning=gr.PESConfig(1e-3, "out")))
        assert [(d.code, d.subject, d.message) for d in g.validate()] == [
            ("InvalidParam", "c", "learned connections start from zero decoders")]

    def test_frozen_after_clean_validation(self):
        g = small_graph()
        g.connect(gr.ConnectionSpec("c", "in", "a"))
        assert g.validate() == []
        with pytest.raises(FrozenGraphError):
            g.add_node(gr.NodeSpec("late", 1, gr.PASSTHROUGH))

    def test_probe_sample_every_must_be_dt_multiple(self):
        g = small_graph()
        g.add_probe(gr.ProbeSpec("p", "a", gr.DECODED_OUTPUT,
                                 sample_every=0.0015))
        assert any("multiple of dt" in d.message for d in g.validate())

    def test_nonpositive_synapse_rejected(self):
        g = small_graph()
        g.connect(gr.ConnectionSpec("c", "in", "a", synapse=0.0))
        assert any("synapse" in d.message for d in g.validate())

    def test_node_cycle_detected(self):
        g = gr.ModelGraph()
        g.add_node(gr.NodeSpec("p1", 1, gr.PASSTHROUGH))
        g.add_node(gr.NodeSpec("p2", 1, gr.PASSTHROUGH))
        g.connect(gr.ConnectionSpec("c1", "p1", "p2"))
        g.connect(gr.ConnectionSpec("c2", "p2", "p1"))
        assert any(d.code == "CyclicNodes" for d in g.validate())


def build_in_order(pick):
    """One graph, its parts added in the order `pick` chooses: every
    ensemble, node, probe and registered function in any order, each
    connection once its endpoints and function are in (`pick` takes the
    sorted names of the parts that can be added next)."""
    g = gr.ModelGraph()
    parts = {
        "n_in": ((), lambda: g.add_node(gr.NodeSpec("in", 1, gr.EXTERNAL_INPUT))),
        "n_mid": ((), lambda: g.add_node(gr.NodeSpec("mid", 1, gr.PASSTHROUGH))),
        "n_out": ((), lambda: g.add_node(gr.NodeSpec("out", 1, gr.EXTERNAL_OUTPUT))),
        "e_a": ((), lambda: g.add_ensemble(gr.Ensemble("a", 30, 1))),
        "e_b": ((), lambda: g.add_ensemble(gr.Ensemble("b", 30, 1, seed=4))),
        "f_sq": ((), lambda: g.register_function("sq", lambda v: v ** 2)),
        "f_neg": ((), lambda: g.register_function("neg", lambda v: -v)),
        "p_a": ((), lambda: g.add_probe(gr.ProbeSpec("pa", "a", gr.SPIKE_RASTER))),
        "p_out": ((), lambda: g.add_probe(gr.ProbeSpec("pout", "out", synapse=0.01))),
        "c1": (("n_in", "e_a"), lambda: g.connect(gr.ConnectionSpec("c1", "in", "a"))),
        "c2": (("e_a", "e_b", "f_sq"), lambda: g.connect(gr.ConnectionSpec(
            "c2", "a", "b", function_tag="sq", synapse=0.005))),
        "c3": (("e_b", "n_mid", "f_neg"), lambda: g.connect(gr.ConnectionSpec(
            "c3", "b", "mid", function_tag="neg", transform=[[2.0]]))),
        "c4": (("n_mid", "n_out"), lambda: g.connect(gr.ConnectionSpec(
            "c4", "mid", "out", synapse=0.01))),
    }
    while parts:
        ready = sorted(k for k, (needs, _) in parts.items()
                       if not any(n in parts for n in needs))
        parts.pop(pick(ready))[1]()
    return g


class TestCanonicalForm:
    @settings(max_examples=50, deadline=None)
    @given(data=st.data())
    def test_order_independence(self, data):
        drawn = build_in_order(lambda ready: data.draw(st.sampled_from(ready)))
        assert drawn.canonical_form() == build_in_order(lambda ready: ready[0]).canonical_form()

    def test_different_graphs_differ(self):
        g1 = small_graph()
        g2 = small_graph()
        g2.connect(gr.ConnectionSpec("c", "in", "a"))
        assert g1.canonical_form() != g2.canonical_form()
