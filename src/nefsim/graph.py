"""Declarative network description, decoupled from any backend.

A ModelGraph collects ensembles, nodes, connections and probes; a decoded
connection carries the function it computes (a vector -> vector callable,
None for identity).  Construction-time checks catch structural mistakes
(duplicate ids, unknown endpoints, bad transform shapes, learning on node
sources); ``validate()`` checks value-level invariants and the shapes again
(a spec may change after it is connected), returns diagnostics as data and
changes nothing.  ``compile_graph`` runs it on every compile and refuses a
graph that has any, so a graph may grow after a clean validation and
compiles what it then holds.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .errors import (
    DuplicateIdError,
    LearningOnNodeError,
    ShapeMismatchError,
    UnknownEndpointError,
)
from .neurons import ALL_MODELS, DEFAULT_DT, LIF_FAMILY, NeuronParams, rate_ceiling

EXTERNAL_INPUT = "external_input"
EXTERNAL_OUTPUT = "external_output"
PASSTHROUGH = "passthrough"
NODE_KINDS = (EXTERNAL_INPUT, EXTERNAL_OUTPUT, PASSTHROUGH)

DECODED_OUTPUT = "decoded_output"
SPIKE_RASTER = "spike_raster"
FILTERED_ACTIVITY = "filtered_activity"
PROBE_QUANTITIES = (DECODED_OUTPUT, SPIKE_RASTER, FILTERED_ACTIVITY)


@dataclass
class ExplicitTuning:
    """Directly supplied tuning, bypassing sampling and gain/bias solving.

    Used when a network carries externally trained weights (each row of
    `encoders` is a unit preferred-direction vector; `gain` scales the
    projection into current; `bias` offsets it).
    """

    encoders: np.ndarray  # (n_neurons, dimensions), unit rows
    gain: np.ndarray      # (n_neurons,)
    bias: np.ndarray      # (n_neurons,)


@dataclass
class Ensemble:
    id: str
    n_neurons: int
    dimensions: int
    radius: float = 1.0
    neuron_model: str = "lif"
    max_rate_range: tuple = (175.0, 220.0)   # Hz
    intercept_range: tuple = (-1.0, 1.0)     # in [-1, 1)
    seed: int | None = None
    fixed_tuning: ExplicitTuning | None = None


@dataclass
class NodeSpec:
    id: str
    dimensions: int
    kind: str = PASSTHROUGH


@dataclass
class PESConfig:
    learning_rate: float        # master rate, unitless
    error_source: str           # node or connection id supplying the error


@dataclass
class ConnectionSpec:
    id: str
    source: str
    target: str
    function: Callable | None = None     # vector -> vector; None = identity
    transform: np.ndarray | None = None  # (target_dims, function_output_dims)
    synapse: float | None = None         # low-pass time constant [s]; None = unfiltered
    learning: PESConfig | None = None
    decoders: np.ndarray | None = None   # explicit (n_source_neurons, k); skips solving


@dataclass
class ProbeSpec:
    id: str
    target: str
    quantity: str = DECODED_OUTPUT
    synapse: float | None = None      # default depends on quantity
    sample_every: float | None = None  # seconds; None = dt


@dataclass(frozen=True)
class Diagnostic:
    code: str
    subject: str
    message: str

    def __str__(self):
        return f"[{self.code}] {self.subject}: {self.message}"


class ModelGraph:
    """Container for a network description prior to compilation."""

    def __init__(self, dt=DEFAULT_DT, neuron_params: NeuronParams | None = None):
        self.dt = float(dt)
        self.neuron_params = neuron_params or NeuronParams()
        self._ensembles: dict[str, Ensemble] = {}
        self._nodes: dict[str, NodeSpec] = {}
        self._connections: dict[str, ConnectionSpec] = {}
        self._probes: dict[str, ProbeSpec] = {}

    # -- canonical (id-sorted) views ------------------------------------
    @property
    def ensembles(self):
        return [self._ensembles[k] for k in sorted(self._ensembles)]

    @property
    def nodes(self):
        return [self._nodes[k] for k in sorted(self._nodes)]

    @property
    def connections(self):
        return [self._connections[k] for k in sorted(self._connections)]

    @property
    def probes(self):
        return [self._probes[k] for k in sorted(self._probes)]

    def ensemble(self, id):
        return self._ensembles[id]

    def node(self, id):
        return self._nodes[id]

    def connection(self, id):
        return self._connections[id]

    # -- construction ----------------------------------------------------
    def _check_unused(self, id):
        if id in self._ensembles or id in self._nodes or id in self._connections \
                or id in self._probes:
            raise DuplicateIdError(f"id {id!r} already used in graph")

    def add_ensemble(self, ensemble: Ensemble):
        self._check_unused(ensemble.id)
        self._ensembles[ensemble.id] = ensemble
        return self

    def add_node(self, node: NodeSpec):
        self._check_unused(node.id)
        self._nodes[node.id] = node
        return self

    def _endpoint_dims(self, id):
        if id in self._ensembles:
            return self._ensembles[id].dimensions
        if id in self._nodes:
            return self._nodes[id].dimensions
        raise UnknownEndpointError(f"no ensemble or node with id {id!r}")

    def _decoded_dims(self, spec):
        """(k, fault): the dims k a connection decodes, and what is wrong with
        its transform's shape (None: the identity), or None."""
        src_dims = self._endpoint_dims(spec.source)
        tgt_dims = self._endpoint_dims(spec.target)
        if spec.decoders is not None:  # explicit decoders define k directly
            k = np.shape(np.atleast_2d(spec.decoders))[1]
        elif spec.function is None:
            k = src_dims
        else:  # the function's output size, probed at zero
            k = np.atleast_1d(np.asarray(spec.function(np.zeros(src_dims)), float)).shape[0]
        shape = (k, k) if spec.transform is None else np.shape(np.atleast_2d(spec.transform))
        return k, (None if shape == (tgt_dims, k) else f"transform shape {shape} != "
                   f"(target dims {tgt_dims}, decoded dims {k})")

    def connect(self, spec: ConnectionSpec):
        self._check_unused(spec.id)
        k, fault = self._decoded_dims(spec)
        if fault is not None:
            raise ShapeMismatchError(f"connection {spec.id!r}: {fault}")
        if spec.decoders is not None:
            spec.decoders = np.atleast_2d(np.asarray(spec.decoders, dtype=float))
        spec.transform = (np.eye(k) if spec.transform is None
                          else np.atleast_2d(np.asarray(spec.transform, dtype=float)))
        if spec.learning is not None and spec.source not in self._ensembles:
            raise LearningOnNodeError(
                f"connection {spec.id!r}: learning requires an ensemble source"
            )
        self._connections[spec.id] = spec
        return self

    def add_probe(self, spec: ProbeSpec):
        self._check_unused(spec.id)
        self._probes[spec.id] = spec
        return self

    # -- validation -------------------------------------------------------
    def validate(self):
        """Return all invariant violations and dangling references.

        An empty list means the graph is structurally sound, so compilation
        cannot fail on structural grounds.  The graph is not changed.
        """
        diags = []

        def bad(code, subject, message):
            diags.append(Diagnostic(code, subject, message))

        if not self.dt > 0:
            bad("InvalidParam", "graph", "dt must be > 0")

        for ens in self.ensembles:
            if ens.n_neurons < 1:
                bad("InvalidParam", ens.id, "n_neurons must be >= 1")
            if ens.dimensions < 1:
                bad("InvalidParam", ens.id, "dimensions must be >= 1")
            if not ens.radius > 0:
                bad("InvalidParam", ens.id, "radius must be > 0")
            if ens.neuron_model not in ALL_MODELS:
                bad("InvalidParam", ens.id, f"unknown neuron model {ens.neuron_model!r}")
                continue
            lo, hi = ens.max_rate_range
            if not (0 < lo < hi):
                bad("InvalidParam", ens.id, "max_rate_range must satisfy 0 < lo < hi")
            elif ens.neuron_model in LIF_FAMILY:
                cap = rate_ceiling(ens.neuron_model, self.neuron_params)
                if hi >= cap:
                    bad("InvalidParam", ens.id,
                        f"max_rate_range exceeds the LIF ceiling 1/tau_ref = {cap:g} Hz")
            ilo, ihi = ens.intercept_range
            if not (-1.0 <= ilo < ihi <= 1.0):
                bad("InvalidParam", ens.id, "intercept_range must be within [-1, 1)")
            if ens.fixed_tuning is not None:
                t = ens.fixed_tuning
                if np.shape(t.encoders) != (ens.n_neurons, ens.dimensions):
                    bad("ShapeMismatch", ens.id, "fixed_tuning.encoders shape mismatch")
                if np.shape(t.gain) != (ens.n_neurons,) or np.shape(t.bias) != (ens.n_neurons,):
                    bad("ShapeMismatch", ens.id, "fixed_tuning gain/bias shape mismatch")
                elif np.any(np.asarray(t.gain) <= 0):
                    bad("InvalidParam", ens.id, "fixed_tuning gains must be > 0")

        for node in self.nodes:
            if node.dimensions < 1:
                bad("InvalidParam", node.id, "dimensions must be >= 1")
            if node.kind not in NODE_KINDS:
                bad("InvalidParam", node.id, f"unknown node kind {node.kind!r}")

        for conn in self.connections:  # connect() checked the endpoints
            k, fault = self._decoded_dims(conn)
            if fault is not None:
                bad("ShapeMismatch", conn.id, fault)
            if conn.source in self._nodes:
                if self._nodes[conn.source].kind == EXTERNAL_OUTPUT:
                    bad("InvalidParam", conn.id, "ExternalOutput nodes have no outbound connections")
                if conn.function is not None or conn.decoders is not None:
                    bad("InvalidParam", conn.id,
                        "functions and decoders apply to decoded ensemble outputs only")
            elif conn.decoders is not None:
                n = self._ensembles[conn.source].n_neurons
                if conn.learning is not None:
                    bad("InvalidParam", conn.id, "learned connections start from zero decoders")
                elif conn.decoders.shape != (n, k):
                    bad("ShapeMismatch", conn.id,
                        f"decoders shape {conn.decoders.shape} != ({n}, {k})")
                if conn.function is not None:
                    bad("InvalidParam", conn.id,
                        "explicit decoders replace the function: give one, not both")
            if conn.target in self._nodes and self._nodes[conn.target].kind == EXTERNAL_INPUT:
                bad("InvalidParam", conn.id, "ExternalInput nodes have no inbound connections")
            if conn.synapse is not None and not conn.synapse > 0:
                bad("InvalidParam", conn.id, "synapse, when present, must be > 0")
            if conn.learning is not None:
                if not conn.learning.learning_rate > 0:
                    bad("InvalidParam", conn.id, "learning_rate must be > 0")
                err = conn.learning.error_source
                err_conn = self._connections.get(err) if err != conn.id else None
                err_dims = None
                if err in self._nodes:
                    err_dims = self._nodes[err].dimensions
                elif err_conn is None:
                    bad("UnknownEndpoint", conn.id,
                        f"error_source {err!r} is not a node or connection")
                elif err_conn.target in self._ensembles:
                    bad("InvalidParam", conn.id, f"error_source {err!r} feeds ensemble "
                        f"{err_conn.target!r}, so it carries neuron input, not an error")
                else:
                    err_dims = err_conn.transform.shape[0]
                if err_dims is not None and err_dims != k:
                    bad("ShapeMismatch", conn.id,
                        f"error dims {err_dims} != connection output dims {k}")

        # Passthrough cycles cannot be evaluated in one step.
        for nid in sorted(self._nodes.keys() - set(self.node_order())):
            bad("CyclicNodes", nid, "node value depends on itself within a step")

        for probe in self.probes:
            tgt = probe.target
            if tgt not in self._ensembles and tgt not in self._nodes:
                bad("UnknownEndpoint", probe.id, f"target {tgt!r} does not exist")
            elif probe.quantity in (SPIKE_RASTER, FILTERED_ACTIVITY) and tgt not in self._ensembles:
                bad("InvalidParam", probe.id, f"{probe.quantity} probes require an ensemble target")
            if probe.quantity not in PROBE_QUANTITIES:
                bad("InvalidParam", probe.id, f"unknown quantity {probe.quantity!r}")
            if probe.synapse is not None and not probe.synapse > 0:
                bad("InvalidParam", probe.id, "synapse, when present, must be > 0")
            if probe.sample_every is not None:
                ratio = probe.sample_every / self.dt
                if probe.sample_every < self.dt or abs(ratio - round(ratio)) > 1e-9:
                    bad("InvalidParam", probe.id, "sample_every must be a multiple of dt")

        return diags

    def node_order(self):
        """Ids of the nodes in a per-step evaluation order: Kahn's sort over
        node->node connections, ties broken by id.  Nodes on or behind a
        cycle are left out; validate() reports them."""
        pending = {nid: set() for nid in self._nodes}
        for conn in self.connections:
            if conn.source in self._nodes and conn.target in self._nodes:
                pending[conn.target].add(conn.source)
        order = []
        while ready := sorted(nid for nid, deps in pending.items() if deps <= set(order)):
            for nid in ready:
                order.append(nid)
                del pending[nid]
        return order

    # -- canonical form ----------------------------------------------------
    def canonical_form(self):
        """Hashable content summary; equal for any construction order that
        describes the same graph.  A connection's function is keyed by
        identity: the same callable object, not an equal computation."""

        def arr(a):
            return None if a is None else (np.asarray(a, float).shape,
                                           np.asarray(a, float).tobytes())

        ens = tuple(
            (e.id, e.n_neurons, e.dimensions, e.radius, e.neuron_model,
             tuple(e.max_rate_range), tuple(e.intercept_range), e.seed,
             None if e.fixed_tuning is None else (arr(e.fixed_tuning.encoders),
                                                  arr(e.fixed_tuning.gain),
                                                  arr(e.fixed_tuning.bias)))
            for e in self.ensembles
        )
        nodes = tuple((n.id, n.dimensions, n.kind) for n in self.nodes)
        conns = tuple(
            (c.id, c.source, c.target, c.function, arr(c.transform),
             c.synapse,
             None if c.learning is None else (c.learning.learning_rate,
                                              c.learning.error_source),
             arr(c.decoders))
            for c in self.connections
        )
        probes = tuple((p.id, p.target, p.quantity, p.synapse, p.sample_every)
                       for p in self.probes)
        return (self.dt, ens, nodes, conns, probes)
