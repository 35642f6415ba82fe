"""Fixed-step simulation of a CompiledModel.

Order within a step:

1. the external inputs are written, then every passthrough node and every
   output node that a PES rule reads as its error is computed from them and
   the *previous* step's filtered/raw presynaptic signals (within-step
   node-to-node chains resolve in dependency order);
2. the ensembles step in groups: runs of consecutive ensembles that share
   a neuron model and its parameters, split wherever an ensemble reads an
   earlier member's activity through an unfiltered connection (it needs
   that member's new activity).  Each member's input current is assembled
   from the same connection outputs into its slice of the group's buffer and
   checked finite, and the group advances through one ``neuron_step`` (built
   for its model and the backend), giving activity (Hz) and counts, which
   each member reads as its slice.  This equals one step per ensemble bit
   for bit, since every neuron update is elementwise;
3. every connection's filter updates with the new signal, y <- a*y + (1-a)*x;
4. PES updates (``pes_delta``) run on the freshly filtered activities, using
   the error from step 1 (one-step-delayed error): an error node's value or
   an error connection's output.  A learned connection's decoders are its
   only PES-updated state; after each update its weight-table entry is
   re-derived from them (folded through ``fold_left``, and requantized once
   on the fixed backend);
5. outputs are computed from the post-update states, then every probe's
   filter advances and each probe due records its read.

Every connection multiplies by its entry in one weight table: the compiled
quantized weights on the fixed backend, the float weights on the reference
one; a probe of an ensemble's decoded output by its identity decoders.
Every signal lives in one table keyed by graph id: an ensemble's activity
and spike counts, a node's value, a filter's state.  Every connection, PES
error and probe is read one way, fixed when the simulator is built: a read
(weights id or None, signal id) outputs ``_w[weights id] @ values[signal
id]``, or the signal itself for None; a filter is a (state id, alpha, read)
entry.  ``reset()`` restores the compiled weights, zeroes the signals and
builds each group's neuron step afresh, over all of its members' neurons.

Everything is deterministic given (model, state, inputs); no randomness and
no parallelism-dependent reductions live here.
"""

from __future__ import annotations

import math

import numpy as np

from . import graph as gr
from .build import FIXED_POINT, CompiledModel
from .errors import DivergedLearningError, NonFiniteSignalError
from .neurons import neuron_step, quantize_current, quantize_weights  # noqa: F401

# perfbench's tracer wraps these and quantize_current here; neuron_step calls
# none of them through this module, so their per-layer metrics read zero
step_spiking = step_spiking_quantized = neuron_step

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
        # the backend, chosen once: fixed quantizes learned weights too
        q = self._qspec = model.qspec if model.backend == FIXED_POINT else None
        self._on_grid = ((lambda w, peak: w) if q is None
                         else lambda w, peak: quantize_weights(w, q, peak)[0])
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
        # stage 2's groups: runs of consecutive ensembles of one (model,
        # params) that take one neuron update over one current buffer.  An
        # ensemble that reads an earlier member's activity unfiltered needs
        # its new value, so it starts a new group.
        runs = []
        for e in model.ensembles:
            run = runs[-1] if runs else []
            if (run and (run[0].neuron_model, run[0].params) == (e.neuron_model, e.params)
                    and not {sid for _, sid in inbound[e.id]} & {m.id for m in run}):
                run.append(e)
            else:
                runs.append([e])
        # (first ensemble, current buffer, members, output slices or None): a
        # member drives its part of the buffer and binds its slice of the
        # output; a group of one binds the whole output
        self._groups = []
        for run in runs:
            J, start, members, parts = np.empty(sum(e.n for e in run)), 0, [], []
            for e in run:
                sl = slice(start, start + e.n)
                members.append((e, e.gain / e.radius, inbound[e.id], J[sl]))
                parts.append((e.id, sl))
                start += e.n
            self._groups.append((run[0], J, members, parts if len(run) > 1 else None))
        # the matrix each connection (and decoded ensemble probe) multiplies by
        self._compiled_w = {c.id: c.weights if q is None else c.quantized_weights
                            for c in model.connections}
        # (state id, alpha, read) of every filtered connection; a learned one
        # filters activities and applies its weights on the way out
        self._filters = [(c.id, c.alpha, (None if c.learned else c.id, c.source))
                         for c in model.connections if c.alpha is not None]
        # (probe id, every_steps, read) of every probe, and (state id, alpha,
        # read) of every filtered one, whose own read is its filter state
        self._probe_filters, self._probes = [], []
        for p in model.probes:
            if p.quantity == gr.SPIKE_RASTER:
                r = (None, (p.target, gr.SPIKE_RASTER))
            elif p.quantity == gr.DECODED_OUTPUT and p.target in model.ens_index:
                # a view, not a copy: D.T @ a then has the bits of a @ D
                self._compiled_w[p.id] = model.ensemble(p.target).identity_decoders.T
                r = (p.id, p.target)
            else:
                r = (None, p.target)
            if p.alpha is not None:
                self._probe_filters.append((p.id, p.alpha, r))
                r = (None, p.id)
            self._probes.append((p.id, p.every_steps, r))
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
        # the size of every signal reset() zeroes: ensemble activities and
        # spike counts, node values, and filter states as long as their read
        size = self._sizes = {n.id: n.dimensions for n in model.nodes}
        for e in model.ensembles:
            size[e.id] = size[e.id, gr.SPIKE_RASTER] = e.n
        for fid, _, (wid, sid) in self._filters + self._probe_filters:
            size[fid] = size[sid] if wid is None else self._compiled_w[wid].shape[0]
        self.reset()

    # -- state ------------------------------------------------------------
    def reset(self):
        m = self.model
        self.t = 0.0
        self.step_index = 0
        self._neurons = [(neuron_step(e.neuron_model, J.size, self.dt, e.params, self._qspec),
                          J, members, parts) for e, J, members, parts in self._groups]
        # one signal table keyed by graph id, spike counts by (id, SPIKE_RASTER)
        self._values = {sid: np.zeros(n) for sid, n in self._sizes.items()}
        # a learned connection's weights are replaced after each PES update
        self._w = dict(self._compiled_w)
        # decoders^T (k, n), C-contiguous so that dT @ a is one BLAS call
        self._live_dT = {c.id: c.decoders.T.copy() for c, _, _ in self._learned}
        self._probe_rows = {p.id: ([], []) for p in m.probes}

    def last_activity(self, ens_id):
        """Most recent per-neuron activity (Hz) of an ensemble."""
        return self._values[ens_id]

    # -- stepping -----------------------------------------------------------
    def _drive(self, target, total, reads, gain=None, bias=None):
        """Sum of the reads into a node (or an ensemble's current, bias + gain
        * sum), written over `total` and checked finite."""
        weights, values = self._w, self._values
        total.fill(0.0)
        for wid, sid in reads:
            total += values[sid] if wid is None else weights[wid] @ values[sid]
        if gain is not None:
            total *= gain
            total += bias
        if not math.isfinite(total.sum()):
            kind = "node" if gain is None else "ensemble"
            conns = [c.id for c in self.model.connections if c.target == target]
            raise NonFiniteSignalError(
                f"non-finite signal into {kind} {target!r} (connections {conns})")
        return total

    def step(self, inputs):
        """Advance one dt; returns {external-output id: vector}."""
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
            values[nid] = self._drive(nid, np.empty(dims), reads)

        # (2) each group's currents, then its one neuron update; a later
        # group reads an earlier one's new activity
        for step, J, members, parts in self._neurons:
            for e, gain_over_radius, reads, J_e in members:
                self._drive(e.id, J_e, reads, gain_over_radius, e.bias)
            act, counts = step(J)
            if parts is None:  # a group of one, e: no slicing
                values[e.id], values[e.id, gr.SPIKE_RASTER] = act, counts
            else:
                for eid, sl in parts:
                    values[eid], values[eid, gr.SPIKE_RASTER] = act[sl], counts[sl]

        # (3) connection filters see the new signals
        self._filter(self._filters)

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
            # when w is dT, its peak is the one just taken
            weights[c.id] = self._on_grid(w, peak if w is dT else None)

        # (5) outputs and probes from post-update state
        for nid, dims, reads in self._post_nodes:
            values[nid] = self._drive(nid, np.empty(dims), reads)
        self.step_index += 1
        self.t = self.step_index * dt
        self._filter(self._probe_filters)
        for pid, every, (wid, sid) in self._probes:
            if self.step_index % every == 0:
                times, rows = self._probe_rows[pid]
                times.append(self.t)
                rows.append(values[sid].copy() if wid is None
                            else weights[wid] @ values[sid])
        return {nid: values[nid] for nid in self._output_ids}

    def _filter(self, filters):
        """Advance (state id, alpha, read) filters: y <- a*y + (1-a)*read."""
        weights, values = self._w, self._values
        for fid, alpha, (wid, sid) in filters:
            x = values[sid] if wid is None else weights[wid] @ values[sid]
            fs = values[fid]
            fs *= alpha
            fs += (1.0 - alpha) * x

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
