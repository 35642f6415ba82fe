"""Compile a ModelGraph into a runnable CompiledModel.

`compile_graph` is the one validation gate: it runs ``graph.validate()`` on
every call and raises BuildError listing every diagnostic, so nothing below
it sees a graph with structural faults.

Build steps, the same for every backend: sample encoders and evaluation
points, solve gains/biases from max-rate/intercept draws, solve decoders by
regularized least squares on the rate-model activity matrix (a decoded
connection's targets are its ``function`` applied to each point, the point
itself when that is None), and fold decoder/transform/encoder chains into
one float weight matrix per connection.  `lower` then copies the model for a
backend: ``fixed`` adds a quantized copy of every weight matrix.  Neuron
dynamics are the Simulator's: ``neurons.neuron_step`` builds each ensemble's
step for its model and backend, quantizing currents and state on ``fixed``.

All randomness comes from per-ensemble streams derived from (seed, ensemble
id, ensemble seed), so build results are independent of iteration order and
of the other ensembles present.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, replace

import numpy as np

from . import graph as gr
from .errors import BuildError, ShapeMismatchError, SingularSystemError
from .neurons import (
    NeuronParams,
    QuantizationSpec,
    quantize_weights,
    rate,
    solve_gain_bias,
)
from .seeding import stream

REFERENCE = "reference"
FIXED_POINT = "fixed"
BACKENDS = (REFERENCE, FIXED_POINT)

DEFAULT_REG = 0.1
EVAL_POINTS_MIN = 500
EVAL_POINTS_PER_NEURON = 2


def sample_encoders(n, dims, rng):
    """n preferred-direction vectors, i.i.d. uniform on the unit sphere."""
    E = rng.standard_normal((n, dims))
    norms = np.linalg.norm(E, axis=1)
    degenerate = norms < 1e-12
    if np.any(degenerate):
        E[degenerate] = 0.0
        E[degenerate, 0] = 1.0
        norms[degenerate] = 1.0
    return E / norms[:, None]


def sample_eval_points(n_points, dims, radius, rng):
    """n_points uniform in the dims-ball of the given radius."""
    directions = sample_encoders(n_points, dims, rng)
    radii = radius * rng.random(n_points) ** (1.0 / dims)
    return directions * radii[:, None]


def default_eval_count(n_neurons):
    """Over-determined system: at least 500 points, at least 2 per neuron."""
    return max(EVAL_POINTS_MIN, EVAL_POINTS_PER_NEURON * n_neurons)


def activity_matrix(ens: "CompiledEnsemble", eval_points):
    """Rates (points x neurons, Hz) of the ensemble's rate model over points."""
    x = np.atleast_2d(np.asarray(eval_points, dtype=float))
    J = x @ ens.encoders.T  # the one points x neurons buffer: rates go in place
    J *= ens.gain
    J /= ens.radius
    J += ens.bias
    return rate(ens.neuron_model, J, ens.params, out=J)

def solve_decoders(A, targets, reg=DEFAULT_REG):
    """Least-squares decoders d minimizing
    (1/N)*||A d - Y||^2 + (reg*max(A))^2 * ||d||^2
    via the normal equations (A^T A + (reg*max(A))^2 * N * I) d = A^T Y,
    solved as a symmetric positive-definite system.

    With reg = 0 a rank-deficient A raises SingularSystemError; nothing is
    regularized silently.
    """
    A = np.asarray(A, dtype=float)
    Y = np.asarray(targets, dtype=float)
    if Y.ndim == 1:
        Y = Y[:, None]
    if A.shape[0] != Y.shape[0]:
        raise ShapeMismatchError(
            f"A has {A.shape[0]} rows but targets have {Y.shape[0]}"
        )
    n_points = A.shape[0]
    sigma = reg * A.max() if A.size else 0.0
    G = A.T @ A
    G.flat[::G.shape[0] + 1] += sigma ** 2 * n_points
    b = A.T @ Y
    import scipy.linalg  # here, not at the top: runs that solve nothing never load scipy
    try:
        # G is exactly symmetric, so its F-ordered view G.T is the same
        # matrix and LAPACK factors it where it lies, without a copy.
        factor = scipy.linalg.cho_factor(G.T, overwrite_a=True)
        d = scipy.linalg.cho_solve(factor, b)
    except scipy.linalg.LinAlgError as exc:
        raise SingularSystemError(
            "normal equations are singular (rank-deficient activity with reg=0)"
        ) from exc
    if not np.all(np.isfinite(d)):
        raise SingularSystemError("decoder solve produced non-finite values")
    return d


def fold_weights(decoders, transform, target_encoders=None):
    """Fold decoders, transform, and (for ensemble targets) encoders into one
    weight matrix: W = E_t @ T @ d^T, or T @ d^T for node targets.

    The fold is exact in real arithmetic; per-neuron gain and 1/radius are
    applied by the target ensemble at run time.
    """
    d = np.asarray(decoders, dtype=float)
    T = np.atleast_2d(np.asarray(transform, dtype=float))
    if T.shape[1] != d.shape[1]:
        raise ShapeMismatchError(
            f"transform columns {T.shape[1]} != decoder columns {d.shape[1]}"
        )
    W = T @ d.T
    if target_encoders is not None:
        E = np.asarray(target_encoders, dtype=float)
        if E.shape[1] != T.shape[0]:
            raise ShapeMismatchError(
                f"target encoder dims {E.shape[1]} != transform rows {T.shape[0]}"
            )
        W = E @ W
    return W


@dataclass
class CompiledEnsemble:
    id: str
    n: int
    dims: int
    radius: float
    neuron_model: str
    params: NeuronParams
    encoders: np.ndarray   # (n, dims), unit rows
    gain: np.ndarray       # (n,)
    bias: np.ndarray       # (n,)
    eval_points: np.ndarray | None = None
    identity_decoders: np.ndarray | None = None  # solved only if probed


@dataclass
class CompiledConnection:
    id: str
    source: str
    target: str
    weights: np.ndarray            # folded matrix, target units x source units
    alpha: float | None            # filter coefficient exp(-dt/tau), None = unfiltered
    quantized_weights: np.ndarray | None = None
    weight_exponent: int = 0
    # learning-specific (None on static connections)
    decoders: np.ndarray | None = None    # (n_source, k), initial; PES updates a copy
    fold_left: np.ndarray | None = None   # E_t @ T or T; weights = fold_left @ d^T,
    #                                       None when that is the identity
    learning_rate: float | None = None
    error_source: str | None = None

    @property
    def learned(self):
        return self.learning_rate is not None


@dataclass
class CompiledProbe:
    id: str
    target: str
    quantity: str
    alpha: float | None
    every_steps: int


@dataclass
class CompiledModel:
    dt: float
    backend: str
    qspec: QuantizationSpec
    ensembles: list
    nodes: list            # NodeSpec, id-sorted
    node_order: list       # evaluation order (within-step dependencies first)
    connections: list
    probes: list
    ens_index: dict = field(default_factory=dict)

    def ensemble(self, id):
        return self.ensembles[self.ens_index[id]]


def _ensemble_stream(seed, ens: gr.Ensemble):
    if ens.seed is not None:
        own = int(ens.seed)
    else:
        own = int.from_bytes(hashlib.sha256(ens.id.encode()).digest()[:8], "little")
    return stream(seed, "ensemble", ens.id, own)


def _build_ensemble(ens: gr.Ensemble, params, seed):
    rng = _ensemble_stream(seed, ens)
    if ens.fixed_tuning is not None:
        t = ens.fixed_tuning
        enc = np.asarray(t.encoders, dtype=float)
        gain = np.asarray(t.gain, dtype=float)
        bias = np.asarray(t.bias, dtype=float)
    else:
        enc = sample_encoders(ens.n_neurons, ens.dimensions, rng)
        lo, hi = ens.max_rate_range
        max_rates = rng.uniform(lo, hi, ens.n_neurons)
        ilo, ihi = ens.intercept_range
        intercepts = rng.uniform(ilo, ihi, ens.n_neurons)
        gain, bias = solve_gain_bias(max_rates, intercepts, params, ens.neuron_model)
    return CompiledEnsemble(
        id=ens.id, n=ens.n_neurons, dims=ens.dimensions, radius=ens.radius,
        neuron_model=ens.neuron_model, params=params,
        encoders=enc, gain=gain, bias=bias,
    ), rng


def _apply_function(fn, points):
    rows = [np.atleast_1d(np.asarray(fn(p), dtype=float)) for p in points]
    return np.vstack(rows)


def _solve_ensemble(ce: CompiledEnsemble, conns, probed, reg):
    """Decoders of `conns` by connection id, and ce's identity decoders if
    `probed`, from one solve on one activity matrix over ce.eval_points: the
    targets are stacked column-wise and the decoders split back."""
    pts = ce.eval_points
    targets = [pts if c.function is None else _apply_function(c.function, pts)
               for c in conns]
    if probed:
        targets.append(pts)
    try:
        d = solve_decoders(activity_matrix(ce, pts), np.hstack(targets), reg)
    except SingularSystemError as exc:
        raise BuildError(f"ensemble {ce.id!r} (connections "
                         f"{[c.id for c in conns]}): {exc}") from exc
    parts = np.split(d, np.cumsum([Y.shape[1] for Y in targets])[:-1], axis=1)
    if probed:
        ce.identity_decoders = parts.pop()
    return {c.id: part for c, part in zip(conns, parts)}


def compile_graph(graph: gr.ModelGraph, backend=REFERENCE, seed=0,
                  qspec: QuantizationSpec | None = None, reg=DEFAULT_REG,
                  eval_points: dict | None = None) -> CompiledModel:
    """Validate `graph`, build it and lower it to `backend`; a graph with
    any diagnostic raises BuildError naming them all.

    `eval_points` optionally overrides the decoder-solving points per source
    ensemble id (used when the operating region is not the full ball).
    """
    return lower(_build(graph, seed, reg, eval_points), backend, qspec)


def lower(model: CompiledModel, backend, qspec: QuantizationSpec | None = None):
    """A copy of `model` for `backend`, quantized with `qspec` (default: the
    model's own) on ``fixed``.  Any CompiledModel can be lowered, also one
    already lowered; the copy shares every array except the quantized weights.
    """
    if backend not in BACKENDS:
        raise BuildError(f"unknown backend {backend!r}")
    qspec = qspec or model.qspec
    conns = []
    for cc in model.connections:
        q, exponent = (quantize_weights(cc.weights, qspec) if backend == FIXED_POINT
                       else (None, 0))
        conns.append(replace(cc, quantized_weights=q, weight_exponent=exponent))
    return replace(model, backend=backend, qspec=qspec, connections=conns)


def _build(graph: gr.ModelGraph, seed, reg, eval_points) -> CompiledModel:
    """The backend-independent build: a reference model with float weights."""
    diags = graph.validate()
    if diags:
        raise BuildError(
            "graph does not validate: " + "; ".join(str(d) for d in diags)
        )
    params = graph.neuron_params
    eval_points = eval_points or {}

    compiled_ens, streams = [], {}
    for ens in graph.ensembles:
        ce, rng = _build_ensemble(ens, params, seed)
        compiled_ens.append(ce)
        streams[ens.id] = rng
    ens_index = {ce.id: i for i, ce in enumerate(compiled_ens)}

    # Every decoder solve, grouped by source ensemble: each activity matrix
    # is computed once, serves all of its ensemble's solves, and is freed
    # before the next one is computed.
    solves = {}
    for conn in graph.connections:
        if conn.source in ens_index and conn.learning is None and conn.decoders is None:
            solves.setdefault(conn.source, []).append(conn)
    probe_targets = {p.target for p in graph.probes if p.quantity == gr.DECODED_OUTPUT}
    decoders = {}
    for ce in compiled_ens:
        if ce.id not in solves and ce.id not in probe_targets:
            continue
        if ce.id in eval_points:
            ce.eval_points = np.atleast_2d(np.asarray(eval_points[ce.id], dtype=float))
        else:
            ce.eval_points = sample_eval_points(
                default_eval_count(ce.n), ce.dims, ce.radius, streams[ce.id]
            )
        decoders.update(_solve_ensemble(ce, solves.get(ce.id, ()),
                                        ce.id in probe_targets, reg))

    compiled_conns = []
    for conn in graph.connections:
        T = conn.transform
        alpha = None if conn.synapse is None else float(np.exp(-graph.dt / conn.synapse))
        tgt = ens_index.get(conn.target)
        tgt_enc = None if tgt is None else compiled_ens[tgt].encoders

        if conn.source in ens_index:
            src = compiled_ens[ens_index[conn.source]]
            if conn.learning is not None:
                d = np.zeros((src.n, T.shape[1]))
            elif conn.decoders is not None:
                d = conn.decoders
            else:
                d = decoders[conn.id]
            W = fold_weights(d, T, tgt_enc)
        else:
            d = None
            W = T if tgt_enc is None else tgt_enc @ T

        cc = CompiledConnection(
            id=conn.id, source=conn.source, target=conn.target,
            weights=W, alpha=alpha,
        )
        if conn.learning is not None:
            cc.decoders = d
            fold = T if tgt_enc is None else tgt_enc @ T
            if not (fold.shape[0] == fold.shape[1]
                    and np.array_equal(fold, np.eye(fold.shape[0]))):
                cc.fold_left = fold
            cc.learning_rate = conn.learning.learning_rate
            cc.error_source = conn.learning.error_source
        compiled_conns.append(cc)

    compiled_probes = []
    for p in graph.probes:
        if p.synapse is not None:
            tau = p.synapse
        elif p.quantity == gr.FILTERED_ACTIVITY:
            tau = 0.02  # readable firing-rate traces
        else:
            tau = None
        every = 1 if p.sample_every is None else int(round(p.sample_every / graph.dt))
        compiled_probes.append(CompiledProbe(
            id=p.id, target=p.target, quantity=p.quantity,
            alpha=None if tau is None else float(np.exp(-graph.dt / tau)),
            every_steps=every,
        ))

    return CompiledModel(
        dt=graph.dt, backend=REFERENCE, qspec=QuantizationSpec(),
        ensembles=compiled_ens, nodes=graph.nodes, node_order=graph.node_order(),
        connections=compiled_conns, probes=compiled_probes,
        ens_index=ens_index,
    )
