import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nefsim import graph as gr
from nefsim.build import compile_graph
from nefsim.engine import Simulator
from nefsim.errors import (
    BuildError,
    DuplicateIdError,
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
        def norm(v):
            return np.array([np.linalg.norm(v)])

        g = gr.ModelGraph()
        g.add_node(gr.NodeSpec("sense", 3, gr.EXTERNAL_INPUT))
        g.add_node(gr.NodeSpec("motor", 2, gr.EXTERNAL_OUTPUT))
        g.add_ensemble(gr.Ensemble("drive", n_neurons=64, dimensions=2))
        g.add_ensemble(gr.Ensemble("steer", n_neurons=64, dimensions=3))
        g.connect(gr.ConnectionSpec("s1", "sense", "drive",
                                    transform=np.eye(2, 3)))
        g.connect(gr.ConnectionSpec("s2", "sense", "steer"))
        g.connect(gr.ConnectionSpec("o1", "drive", "motor", function=norm,
                                    transform=[[1.0], [0.0]], synapse=0.02))
        g.connect(gr.ConnectionSpec("o2", "steer", "motor", function=norm,
                                    transform=[[0.0], [1.0]], synapse=0.02))
        assert g.validate() == []

    def test_dangling_error_source(self):
        g = small_graph()
        g.connect(gr.ConnectionSpec("c", "a", "out", function=lambda v: np.zeros(1),
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

    def test_function_with_explicit_decoders_rejected(self):
        g = small_graph()
        g.connect(gr.ConnectionSpec("c", "a", "out", function=lambda v: v[:1],
                                    decoders=np.ones((40, 1))))
        assert [(d.code, d.subject, d.message) for d in g.validate()] == [
            ("InvalidParam", "c", "explicit decoders replace the function: "
             "give one, not both")]

    def test_error_source_into_an_ensemble_rejected(self):
        # the connection's value is the ensemble's neuron input (30 rows),
        # not a 1-d error: at the first step PES would fail inside numpy
        g = small_graph()
        g.add_ensemble(gr.Ensemble("b", n_neurons=30, dimensions=1))
        g.connect(gr.ConnectionSpec("into_b", "in", "b", transform=[[1.0, 0.0]]))
        g.connect(gr.ConnectionSpec("c", "a", "out", function=lambda v: v[:1],
                                    learning=gr.PESConfig(1e-3, "into_b")))
        assert [(d.code, d.subject, d.message) for d in g.validate()] == [
            ("InvalidParam", "c", "error_source 'into_b' feeds ensemble 'b', "
             "so it carries neuron input, not an error")]
        with pytest.raises(BuildError, match="into_b"):
            compile_graph(g)

    def test_transform_reshaped_after_connect_rejected(self):
        # unchecked, the (3, 2) transform fails inside numpy at build time
        g = small_graph()
        g.connect(gr.ConnectionSpec("c", "in", "a"))
        g.connection("c").transform = np.ones((3, 2))
        assert [(d.code, d.subject, d.message) for d in g.validate()] == [
            ("ShapeMismatch", "c", "transform shape (3, 2) != (target dims 2, decoded dims 2)")]
        with pytest.raises(BuildError, match=r"\[ShapeMismatch\] c: transform shape"):
            compile_graph(g)

    def test_node_transform_reshaped_after_connect_rejected(self):
        # unchecked, the wrong column count fails only inside Simulator.step
        g = small_graph()
        g.add_node(gr.NodeSpec("mid", 2, gr.PASSTHROUGH))
        g.connect(gr.ConnectionSpec("c", "in", "mid"))
        g.connection("c").transform = np.ones((2, 3))
        with pytest.raises(BuildError, match=r"\[ShapeMismatch\] c: transform shape "
                           r"\(2, 3\) != \(target dims 2, decoded dims 2\)"):
            compile_graph(g)

    def test_graph_grows_after_clean_validation(self):
        g = small_graph()
        g.connect(gr.ConnectionSpec("c", "in", "a"))
        assert g.validate() == []
        g.add_node(gr.NodeSpec("late", 1, gr.EXTERNAL_OUTPUT))
        g.connect(gr.ConnectionSpec("c_late", "a", "late", function=lambda v: v[1:]))
        model = compile_graph(g)
        assert [c.id for c in model.connections] == ["c", "c_late"]
        out = Simulator(model).step({"in": (0.0, 0.5)})
        assert set(out) == {"late", "out"} and out["late"].shape == (1,)

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


def square(v):
    return v ** 2


def negate(v):
    return -v


def build_in_order(pick, c3_function=negate):
    """One graph, its parts added in the order `pick` chooses: every
    ensemble, node and probe in any order, each connection once its
    endpoints are in (`pick` takes the sorted names of the parts that can be
    added next)."""
    g = gr.ModelGraph()
    parts = {
        "n_in": ((), lambda: g.add_node(gr.NodeSpec("in", 1, gr.EXTERNAL_INPUT))),
        "n_mid": ((), lambda: g.add_node(gr.NodeSpec("mid", 1, gr.PASSTHROUGH))),
        "n_out": ((), lambda: g.add_node(gr.NodeSpec("out", 1, gr.EXTERNAL_OUTPUT))),
        "e_a": ((), lambda: g.add_ensemble(gr.Ensemble("a", 30, 1))),
        "e_b": ((), lambda: g.add_ensemble(gr.Ensemble("b", 30, 1, seed=4))),
        "p_a": ((), lambda: g.add_probe(gr.ProbeSpec("pa", "a", gr.SPIKE_RASTER))),
        "p_out": ((), lambda: g.add_probe(gr.ProbeSpec("pout", "out", synapse=0.01))),
        "c1": (("n_in", "e_a"), lambda: g.connect(gr.ConnectionSpec("c1", "in", "a"))),
        "c2": (("e_a", "e_b"), lambda: g.connect(gr.ConnectionSpec(
            "c2", "a", "b", function=square, synapse=0.005))),
        "c3": (("e_b", "n_mid"), lambda: g.connect(gr.ConnectionSpec(
            "c3", "b", "mid", function=c3_function, transform=[[2.0]]))),
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

    def test_graphs_differing_only_in_a_function_differ(self):
        first = build_in_order(lambda ready: ready[0])
        assert first.canonical_form() == build_in_order(lambda ready: ready[0]).canonical_form()
        other = build_in_order(lambda ready: ready[0], c3_function=square)
        assert first.canonical_form() != other.canonical_form()
