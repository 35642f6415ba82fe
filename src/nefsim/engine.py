"""Fixed-step simulation of a CompiledModel.

Order within a step:

1. the external inputs are written, then every passthrough node and every
   output node that a PES rule reads as its error is computed from them and
   the *previous* step's filtered/raw presynaptic signals (within-step
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
Every connection and PES error is read one way, fixed when the simulator is
built: a read (weights id or None, signal id) outputs
``_w[weights id] @ values[signal id]``, or the signal itself for None.
``reset()`` restores the compiled weights and zeroes the signals.

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
        # each connection's read (see the module docstring): an unfiltered
        # one reads its source, a filtered one its filter state, which
        # already holds W @ x unless the connection learns
        read = {c.id: (c.id, c.source) if c.alpha is None
                else (c.id if c.learned else None, c.id) for c in model.connections}
        inbound = {x.id: [] for x in [*model.nodes, *model.ensembles]}
        for c in model.connections:
            inbound[c.target].append(read[c.id])
        specs = {n.id: n for n in model.nodes}
        self._inputs = [(n.id, n.dimensions) for n in model.nodes
                        if n.kind == gr.EXTERNAL_INPUT]
        self._output_ids = [n.id for n in model.nodes if n.kind == gr.EXTERNAL_OUTPUT]
        self._ensembles = [(e, e.gain / e.radius, inbound[e.id]) for e in model.ensembles]
        # (id, source, alpha, weights id or None) of every filtered connection
        self._filters = [(c.id, c.source, c.alpha, None if c.learned else c.id)
                         for c in model.connections if c.alpha is not None]
        # (learned connection, its error's read, the id of the activities it
        # learns from); an error node is read as (None, node id)
        self._learned = [(c, read.get(c.error_source, (None, c.error_source)),
                          c.id if c.alpha is not None else c.source)
                         for c in model.connections if c.learned]
        self._post_nodes = [(nid, specs[nid].dimensions, inbound[nid])
                            for nid in model.node_order
                            if specs[nid].kind != gr.EXTERNAL_INPUT]
        # The pre-pass holds every node read before stage 5: any passthrough
        # node, and an output node only as a PES error (nothing else reads
        # one).  Stage 5 overwrites a passthrough value that nothing read.
        errors = {c.error_source for c in model.connections if c.learned}
        self._pre_nodes = [t for t in self._post_nodes
                           if specs[t[0]].kind == gr.PASSTHROUGH or t[0] in errors]
        # (id, size) of every signal reset() zeroes: ensemble activities and
        # the filter states of filtered connections and probes
        self._zeroed = [(e.id, e.n) for e in model.ensembles]
        self._zeroed += [(c.id, (c.decoders if c.learned else c.weights).shape[0])
                         for c in model.connections if c.alpha is not None]
        for p in model.probes:
            if p.alpha is None:
                continue
            if not p.target_is_ensemble:
                size = specs[p.target].dimensions
            else:
                e = model.ensemble(p.target)
                size = e.dims if p.quantity == gr.DECODED_OUTPUT else e.n
            self._zeroed.append((p.id, size))
        self.reset()

    # -- state ------------------------------------------------------------
    def reset(self):
        m = self.model
        self.t = 0.0
        self.step_index = 0
        self._neuron_state = {e.id: SpikingState(e.n) for e in m.ensembles if e.spiking}
        # one signal table keyed by graph id: ensemble activities (Hz), node
        # values, and the filter states of filtered connections and probes
        self._values = {sid: np.zeros(size) for sid, size in self._zeroed}
        # the matrix each connection multiplies by; a learned connection's
        # entry is replaced after each PES update
        self._w = {c.id: c.quantized_weights if self.fixed else c.weights
                   for c in m.connections}
        # decoders^T (k, n), C-contiguous so that dT @ a is one BLAS call
        self._live_dT = {c.id: c.decoders.T.copy() for c, _, _ in self._learned}
        self._probe_rows = {p.id: ([], []) for p in m.probes}
        self._spikes = {e.id: np.zeros(e.n) for e in m.ensembles}

    def last_activity(self, ens_id):
        """Most recent per-neuron activity (Hz) of an ensemble."""
        return self._values[ens_id]

    # -- stepping -----------------------------------------------------------
    def _drive(self, target, size, reads):
        """Sum of the reads into a node or ensemble, checked finite."""
        weights, values = self._w, self._values
        total = np.zeros(size)
        for wid, sid in reads:
            total += values[sid] if wid is None else weights[wid] @ values[sid]
        if not math.isfinite(total.sum()):
            kind = "ensemble" if target in self.model.ens_index else "node"
            conns = [c.id for c in self.model.connections if c.target == target]
            raise NonFiniteSignalError(
                f"non-finite signal into {kind} {target!r} (connections {conns})")
        return total

    def step(self, inputs):
        """Advance one dt; returns {external-output id: vector}."""
        m = self.model
        dt = self.dt
        weights, values = self._w, self._values

        # (1) external inputs, then node values from start-of-step signals
        for nid, dims in self._inputs:
            if nid not in inputs:
                raise NonFiniteSignalError(f"missing input for node {nid!r}")
            v = np.atleast_1d(np.asarray(inputs[nid], dtype=float))
            if v.shape != (dims,):
                raise NonFiniteSignalError(
                    f"input for node {nid!r} has shape {v.shape}, expected ({dims},)")
            if not np.isfinite(v).all():
                raise NonFiniteSignalError(f"non-finite input for node {nid!r}")
            values[nid] = v
        for nid, dims, reads in self._pre_nodes:
            values[nid] = self._drive(nid, dims, reads)

        # (2) ensemble currents, then neuron updates; a later ensemble reads
        # an earlier one's new activity
        for e, gain_over_radius, reads in self._ensembles:
            J = e.bias + gain_over_radius * self._drive(e.id, e.n, reads)
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
        for cid, source, alpha, wid in self._filters:
            x = values[source] if wid is None else weights[wid] @ values[source]
            fs = values[cid]
            fs *= alpha
            fs += (1.0 - alpha) * x

        # (4) PES decoder updates from the start-of-step error, then the
        # learned weights from the decoders
        for c, (wid, sid), act_id in self._learned:
            u = values[sid] if wid is None else weights[wid] @ values[sid]
            a = values[act_id]
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
            weights[c.id] = w

        # (5) outputs and probes from post-update state
        for nid, dims, reads in self._post_nodes:
            values[nid] = self._drive(nid, dims, reads)
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
                fs = values[p.id]
                fs *= p.alpha
                fs += (1.0 - p.alpha) * signal
                signal = fs
            if self.step_index % p.every_steps == 0:
                times, rows = self._probe_rows[p.id]
                times.append(self.t)
                rows.append(np.array(signal, dtype=float))

    def run(self, input_provider, duration):
        """Step duration/dt times (ValueError unless that is a whole number);
        the provider is called before each step as
        provider(t, previous_outputs) and must return the inputs map.

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
