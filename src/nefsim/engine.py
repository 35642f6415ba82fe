"""Fixed-step simulation of a CompiledModel.

Order within a step:

1. node values are computed from this step's external inputs and the
   *previous* step's filtered/raw presynaptic signals (within-step
   node-to-node chains resolve in dependency order);
2. ensemble input currents are assembled from the same connection outputs
   and the neurons advance, emitting spikes scaled to counts/dt (Hz);
3. every synapse filter updates with the new signal, y <- a*y + (1-a)*x;
4. PES updates (``pes_delta``) run on the freshly filtered activities, using
   the error from step 1 (one-step-delayed error): an error node's value or
   an error connection's output.  A learned connection's decoders are its
   only PES-updated state; after each update its weight-table entry is
   re-derived from them (folded through ``fold_left``, and requantized once
   on the fixed backend);
5. outputs and probes are populated from the post-update states.

Every connection multiplies by its entry in one weight table: the compiled
quantized weights on the fixed backend, the float weights on the reference
one.  Every signal lives in one table keyed by graph id: an ensemble's
activity, a node's value, a filtered connection's or probe's filter state.
A connection reads its source as ``values[conn.source]``.  ``reset()``
restores the compiled weights and zeroes the signals.

Everything is deterministic given (model, state, inputs); no randomness and
no parallelism-dependent reductions live here.
"""

from __future__ import annotations

import math

import numpy as np

from . import graph as gr
from .build import FIXED_POINT, CompiledModel
from .errors import (
    DivergedLearningError,
    NonFiniteSignalError,
)
from .neurons import (
    RATE_MODELS,
    SpikingState,
    quantize_current,
    quantize_weights,
    rate,
    step_spiking,
    step_spiking_quantized,
)

DIVERGENCE_LIMIT = 1e6  # abort learning when any |decoder| exceeds this


def pes_delta(a, u, learning_rate, dt, n_neurons):
    """Per-step PES decoder change: -(kappa*dt/n) * outer(a, u).

    Scaling by dt makes the master rate timestep-invariant; dividing by the
    neuron count makes it transferable across ensemble sizes.
    """
    a = np.asarray(a, dtype=float)
    u = np.atleast_1d(np.asarray(u, dtype=float))
    scale = -(learning_rate * dt / n_neurons)
    return np.multiply.outer(u, scale * a).T  # a view of a C-contiguous (k, n)


def pes_update(d, a, u, learning_rate, dt, n_neurons):
    """Apply one PES step to decoders d (returns the updated copy)."""
    return d + pes_delta(a, u, learning_rate, dt, n_neurons)


def adapt_signal(a, d):
    """Decode filtered activities (Hz) through decoders: u = a^T d."""
    return np.asarray(a, dtype=float) @ np.asarray(d, dtype=float)


class ProbeTable:
    """Sampled probe data: times (s,) and values (s, k)."""

    def __init__(self, times, values):
        self.times = times
        self.values = values

    def __len__(self):
        return len(self.times)


class Simulator:
    """Owns the mutable state of one simulation run of a CompiledModel.

    One simulator is driven by one caller at a time; closed-loop tasks
    alternate plant stepping and `step()` strictly.
    """

    def __init__(self, model: CompiledModel):
        self.model = model
        self.dt = model.dt
        self.fixed = model.backend == FIXED_POINT
        self._node_specs = {n.id: n for n in model.nodes}
        self._inputs_ids = [n.id for n in model.nodes if n.kind == gr.EXTERNAL_INPUT]
        self._output_ids = [n.id for n in model.nodes if n.kind == gr.EXTERNAL_OUTPUT]
        # inbound connections per node and per ensemble (their ids are disjoint)
        self._inbound = {x.id: [] for x in [*model.nodes, *model.ensembles]}
        for c in model.connections:
            self._inbound[c.target].append(c)
        self._filtered = [c for c in model.connections if c.alpha is not None]
        # (learned connection, its error connection or None for an error node)
        by_id = {c.id: c for c in model.connections}
        self._learned = [(c, by_id.get(c.error_source))
                         for c in model.connections if c.learned]
        # nodes whose start-of-step value anything consumes: sources of
        # connections into ensembles, of filtered connections (stage 3 feeds
        # their filters), of error connections, PES error nodes, and the
        # node-chain ancestors of these; the rest are only evaluated in the
        # output pass.  Ensemble ids in the set are never looked up.
        needed = {c.source for c in model.connections
                  if c.target_is_ensemble or c.alpha is not None}
        needed.update(c.error_source if err is None else err.source
                      for c, err in self._learned)
        for nid in reversed(model.node_order):  # targets before their sources
            if nid in needed:
                needed.update(c.source for c in self._inbound[nid])
        self._pre_nodes = [nid for nid in model.node_order
                           if nid in needed
                           and self._node_specs[nid].kind != gr.EXTERNAL_INPUT]
        self._post_nodes = [nid for nid in model.node_order
                            if self._node_specs[nid].kind != gr.EXTERNAL_INPUT]
        self._gain_over_radius = {e.id: e.gain / e.radius for e in model.ensembles}
        self.reset()

    # -- state ------------------------------------------------------------
    def reset(self):
        m = self.model
        self.t = 0.0
        self.step_index = 0
        self._neuron_state = {e.id: SpikingState(e.n) for e in m.ensembles if e.spiking}
        # one signal table keyed by graph id: ensemble activities (Hz), node
        # values, and the filter states of filtered connections and probes
        self._values = {e.id: np.zeros(e.n) for e in m.ensembles}
        for c in self._filtered:
            self._values[c.id] = np.zeros(c.decoders.shape[0] if c.learned
                                          else c.weights.shape[0])
        for p in m.probes:
            if p.alpha is None:
                continue
            if not p.target_is_ensemble:
                size = self._node_specs[p.target].dimensions
            else:
                e = m.ensemble(p.target)
                size = e.dims if p.quantity == gr.DECODED_OUTPUT else e.n
            self._values[p.id] = np.zeros(size)
        # the matrix each connection multiplies by; a learned connection's
        # entry is replaced after each PES update
        self._w = {c.id: c.quantized_weights if self.fixed else c.weights
                   for c in m.connections}
        # decoders^T (k, n), C-contiguous so that dT @ a is one BLAS call
        self._live_dT = {c.id: c.decoders.T.copy() for c, _ in self._learned}
        self._probe_rows = {p.id: ([], []) for p in m.probes}
        self._spikes = {e.id: np.zeros(e.n) for e in m.ensembles}

    def last_activity(self, ens_id):
        """Most recent per-neuron activity (Hz) of an ensemble."""
        return self._values[ens_id]

    # -- stepping -----------------------------------------------------------
    def _conn_output(self, conn):
        """Connection signal from its filter state, or from its source's
        current value when unfiltered."""
        if conn.alpha is None:
            return self._w[conn.id] @ self._values[conn.source]
        fs = self._values[conn.id]
        return self._w[conn.id] @ fs if conn.learned else fs

    def _sum_inbound(self, target, size):
        """Sum of the connection outputs into a node or ensemble."""
        total = np.zeros(size)
        conns = self._inbound[target]
        for conn in conns:
            total += self._conn_output(conn)
        if not math.isfinite(total.sum()):
            kind = "node" if target in self._node_specs else "ensemble"
            raise NonFiniteSignalError(
                f"non-finite signal into {kind} {target!r} "
                f"(connections {[c.id for c in conns]})")
        return total

    def _update_nodes(self, node_ids):
        for nid in node_ids:
            self._values[nid] = self._sum_inbound(nid, self._node_specs[nid].dimensions)

    def step(self, inputs):
        """Advance one dt; returns {external-output id: vector}."""
        m = self.model
        dt = self.dt
        values = self._values

        # (1) external inputs, then node values from start-of-step signals
        for nid in self._inputs_ids:
            spec = self._node_specs[nid]
            if nid not in inputs:
                raise NonFiniteSignalError(f"missing input for node {nid!r}")
            v = np.atleast_1d(np.asarray(inputs[nid], dtype=float))
            if v.shape != (spec.dimensions,):
                raise NonFiniteSignalError(
                    f"input for node {nid!r} has shape {v.shape}, "
                    f"expected ({spec.dimensions},)"
                )
            if not np.isfinite(v).all():
                raise NonFiniteSignalError(f"non-finite input for node {nid!r}")
            values[nid] = v
        self._update_nodes(self._pre_nodes)

        # (2) ensemble currents, then neuron updates; a later ensemble reads
        # an earlier one's new activity
        for e in m.ensembles:
            drive = self._sum_inbound(e.id, e.n)
            J = e.bias + self._gain_over_radius[e.id] * drive
            if e.neuron_model in RATE_MODELS:
                Jr = quantize_current(J, m.qspec) if self.fixed else J
                act = rate(e.neuron_model, Jr, e.params)
                self._spikes[e.id] = act * dt  # pseudo-counts for raster probes
            else:
                state = self._neuron_state[e.id]
                if self.fixed:
                    spikes = step_spiking_quantized(state, J, dt, e.params,
                                                    m.qspec, e.neuron_model)
                else:
                    spikes = step_spiking(state, J, dt, e.params, e.neuron_model)
                self._spikes[e.id] = spikes
                act = spikes / dt
            values[e.id] = act

        # (3) synapse filters see the new signals; a learned connection
        # filters activities and applies its weights on the way out
        for c in self._filtered:
            x = values[c.source]
            if not c.learned:
                x = self._w[c.id] @ x
            fs = values[c.id]
            fs *= c.alpha
            fs += (1.0 - c.alpha) * x

        # (4) PES decoder updates from the start-of-step error, then the
        # learned weights from the decoders
        for c, err in self._learned:
            u = values[c.error_source] if err is None else self._conn_output(err)
            a = values[c.id if c.alpha is not None else c.source]
            dT = self._live_dT[c.id]
            dT += pes_delta(a, u, c.learning_rate, dt, a.shape[0]).T
            peak = max(dT.max(), -dT.min())
            if peak > DIVERGENCE_LIMIT:
                raise DivergedLearningError(
                    f"connection {c.id!r}: decoder magnitude exceeded "
                    f"{DIVERGENCE_LIMIT:g}"
                )
            w = dT if c.fold_left is None else c.fold_left @ dT
            if self.fixed:  # when w is dT, its peak is the one just taken
                w = quantize_weights(w, m.qspec, peak if w is dT else None)[0]
            self._w[c.id] = w

        # (5) outputs and probes from post-update state
        self._update_nodes(self._post_nodes)
        self.step_index += 1
        self.t = self.step_index * dt
        self._record_probes()
        return {nid: values[nid] for nid in self._output_ids}

    def _record_probes(self):
        values = self._values
        for p in self.model.probes:
            if p.quantity == gr.DECODED_OUTPUT and p.target_is_ensemble:
                signal = values[p.target] @ self.model.ensemble(p.target).identity_decoders
            elif p.quantity == gr.SPIKE_RASTER:
                signal = self._spikes[p.target]
            else:  # a node's value or an ensemble's filtered activity
                signal = values[p.target]
            if p.alpha is not None:
                values[p.id] = p.alpha * values[p.id] + (1.0 - p.alpha) * signal
                signal = values[p.id]
            if self.step_index % p.every_steps == 0:
                times, rows = self._probe_rows[p.id]
                times.append(self.t)
                rows.append(np.array(signal, dtype=float))

    def run(self, input_provider, duration):
        """Step ceil(duration/dt) times; the provider is called before each
        step as provider(t, previous_outputs) and must return the inputs map.

        Returns {probe id: ProbeTable}.
        """
        n_steps = int(round(duration / self.dt))
        if abs(duration - n_steps * self.dt) > 1e-9:
            raise ValueError("duration must be a multiple of dt")
        outputs = {}
        for i in range(n_steps):
            t = i * self.dt
            inputs = input_provider(t, outputs)
            try:
                outputs = self.step(inputs)
            except (NonFiniteSignalError, DivergedLearningError) as exc:
                raise type(exc)(f"t={t:.6f}s: {exc}") from exc
        return self.probe_tables()

    def probe_tables(self):
        tables = {}
        for pid, (times, rows) in self._probe_rows.items():
            tables[pid] = ProbeTable(
                np.asarray(times, dtype=float),
                np.asarray(rows, dtype=float) if rows else np.zeros((0, 0)),
            )
        return tables
