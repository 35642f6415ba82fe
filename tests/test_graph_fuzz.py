"""Random small graphs through construction, compile and ten steps on both
backends.  Every graph ends in one of three ways: a NefError from add_* or
connect, a BuildError from compile_graph, or ten steps of finite outputs and
probe rows of the declared shapes.  Anything else (an exception from numpy
in a step, a NaN output, a wrong shape) is a fault that validate() let
through."""

import numpy as np
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from nefsim import graph as gr
from nefsim.build import BACKENDS, compile_graph, lower
from nefsim.engine import Simulator
from nefsim.errors import BuildError, NefError
from nefsim.neurons import ALL_MODELS

STEPS = 10
FUNCTIONS = {
    "square": lambda v: v ** 2,
    "first": lambda v: v[:1],
    "norm": lambda v: np.array([np.linalg.norm(v)]),
    "double": lambda v: np.concatenate([v, v]),
}


def output_dims(fn, d):
    """The width of FUNCTIONS[fn] (identity when None) on d-vectors."""
    return d if fn is None else len(FUNCTIONS[fn](np.zeros(d)))


def lif(n):
    """A valid 1-d LIF ensemble of `n` neurons."""
    return (n, 1, "lif", 1.0, (175.0, 220.0), (-1.0, 1.0))


@st.composite
def graph_specs(draw):
    """(ensembles, nodes, connections, probes) as plain tuples; ensemble i
    is "e<i>", node i "n<i>", connection i "c<i>", and "x" names nothing.

    Half of the graphs are drawn from valid values only (though a valid
    identity transform may still mismatch); the other half may also draw
    an invalid value wherever one is listed."""
    broken = draw(st.booleans())

    def pick(valid, invalid=()):  # shrinks toward the first valid value
        return draw(st.sampled_from([*valid, *invalid] if broken else valid))

    ens = [(pick([8, 3, 12, 1], [0]), pick([1, 2, 3], [0]), pick(ALL_MODELS, ["bogus"]),
            pick([1.0, 0.7], [0.0]),
            pick([(175.0, 220.0), (50.0, 100.0)], [(220.0, 175.0), (400.0, 600.0)]),
            pick([(-1.0, 1.0), (0.0, 0.5)], [(0.5, 0.2)]))
           for _ in range(draw(st.integers(1, 3)))]
    nds = [(pick(gr.NODE_KINDS), pick([1, 2, 3], [0]))
           for _ in range(draw(st.integers(0, 4)))]
    dims = {f"e{i}": e[1] for i, e in enumerate(ens)} | {
        f"n{i}": d for i, (_, d) in enumerate(nds)}
    kinds = {f"n{i}": kind for i, (kind, _) in enumerate(nds)}
    ens_ids = [f"e{i}" for i in range(len(ens))]
    sources = [e for e in dims if kinds.get(e) != gr.EXTERNAL_OUTPUT]
    targets = [e for e in dims if kinds.get(e) != gr.EXTERNAL_INPUT]
    everything = list(dims) + ["x"]
    ends = [(pick(sources, everything), pick(targets, everything))
            for _ in range(draw(st.integers(0, 5)))]
    # a valid PES error: a node, or a connection into one, as wide as the
    # learned connection's output
    error_dims = {n: d for n, d in dims.items() if n in kinds} | {
        f"c{i}": dims[tgt] for i, (_, tgt) in enumerate(ends) if tgt in kinds}
    conns = []
    for src, tgt in ends:
        decoded = src in ens_ids
        fn = pick([None, *FUNCTIONS] if decoded else [None], list(FUNCTIONS))
        k = output_dims(fn, dims.get(src, 1))
        errors = [(1e-3, e) for e, d in error_dims.items() if d == k]
        conns.append((src, tgt, fn, pick([0.5, 0.5, None], ["bad"]),
                      pick([None, 0.005, 0.02], [0.0]),
                      pick([None, None] + errors if decoded else [None],
                           [(0.0, "n0"), (1e-3, "x"), (1e-3, "e0"), (1e-3, "c0")]),
                      pick([None], ["fit", "bad"])))
    probes = [(target, pick([gr.DECODED_OUTPUT, gr.SPIKE_RASTER, gr.FILTERED_ACTIVITY]
                            if target in ens_ids else [gr.DECODED_OUTPUT], ["bogus"]),
               pick([None, 0.005, 0.02], [0.0]), pick([None, 0.002], [0.0015]))
              for target in [pick(list(dims), ["x"]) for _ in range(draw(st.integers(0, 3)))]]
    return ens, nds, conns, probes


def build(spec):
    """The graph `spec` describes; a NefError from add_* or connect passes."""
    ens, nds, conns, probes = spec
    g = gr.ModelGraph(dt=0.001)
    sizes, dims = {}, {}
    for i, (n, d, model, radius, rates, intercepts) in enumerate(ens):
        g.add_ensemble(gr.Ensemble(f"e{i}", n, d, radius, model, rates, intercepts,
                                   seed=i))
        sizes[f"e{i}"], dims[f"e{i}"] = n, d
    for i, (kind, d) in enumerate(nds):
        g.add_node(gr.NodeSpec(f"n{i}", d, kind))
        dims[f"n{i}"] = d
    for i, (src, tgt, fn, transform, synapse, learning, decoders) in enumerate(conns):
        k = output_dims(fn, dims.get(src, 1))
        T = None if transform is None else np.full(
            (dims.get(tgt, 1), k + (transform == "bad")), 0.5)
        D = None if decoders is None else np.full(
            (sizes.get(src, 3) + (decoders == "bad"), k), 0.01)
        g.connect(gr.ConnectionSpec(
            f"c{i}", src, tgt, FUNCTIONS.get(fn), T, synapse,
            None if learning is None else gr.PESConfig(*learning), D))
    for i, (target, quantity, synapse, every) in enumerate(probes):
        g.add_probe(gr.ProbeSpec(f"p{i}", target, quantity, synapse, every))
    return g


class TestGeneratedGraphs:
    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(spec=graph_specs())
    # a PES error read from a connection into an ensemble is neuron input:
    # without the diagnostic, the first step fails inside numpy
    @example(spec=([lif(20), lif(30)],
                   [("external_input", 1), ("external_output", 1)],
                   [("n0", "e1", None, None, None, None, None),
                    ("e0", "n1", None, None, 0.005, (1e-3, "c0"), None)], []))
    # a function beside explicit decoders: without the diagnostic, the
    # decoders silently win
    @example(spec=([lif(20)], [("external_output", 1)],
                   [("e0", "n0", "square", None, None, None, "fit")], []))
    def test_builds_fail_cleanly_or_step_finite(self, spec):
        try:
            g = build(spec)
        except NefError:
            return
        try:
            model = compile_graph(g, seed=0)
        except BuildError:
            return
        inputs = {n.id: np.full(n.dimensions, 0.4) for n in g.nodes
                  if n.kind == gr.EXTERNAL_INPUT}
        outputs = {n.id: (n.dimensions,) for n in g.nodes if n.kind == gr.EXTERNAL_OUTPUT}
        dims = {x.id: x.dimensions for x in [*g.ensembles, *g.nodes]}
        tables = {p.id: (STEPS // round((p.sample_every or g.dt) / g.dt),  # rows, width
                         dims[p.target] if p.quantity == gr.DECODED_OUTPUT
                         else g.ensemble(p.target).n_neurons) for p in g.probes}
        for backend in BACKENDS:
            sim = Simulator(lower(model, backend))
            for _ in range(STEPS):
                out = sim.step(inputs)
                assert {k: v.shape for k, v in out.items()} == outputs
                assert all(np.all(np.isfinite(v)) for v in out.values())
            for pid, table in sim.probe_tables().items():
                rows, width = tables[pid]
                assert table.times.shape == (rows,)
                assert table.values.shape == (rows, width)
                assert np.all(np.isfinite(table.values))
