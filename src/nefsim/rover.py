"""Target-seeking rover benchmark: kinematic bicycle plant, analytic control
laws, and the two-ensemble spiking control network that approximates them.

Body-frame convention: +y is forward, +x is right of the rover, so a target
straight ahead sits at (0, d) and the desired steering angle is
arctan2(-x, y).  The drive command saturates at distance 1 m; the steering
command is a proportional law on the angle error, clipped at +-k_p*pi.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import graph as gr
from .build import compile_graph, default_eval_count, sample_encoders
from .engine import Simulator
from .neurons import DEFAULT_DT, NeuronParams, QuantizationSpec, solve_gain_bias
from .seeding import stream

CONTROLLERS = ("neural", "analytic")

# Steering-ensemble tuning.  The steering command flips sign across the
# lateral axis when the target is behind, so a share of the population gets
# encoders hugging +-x with intercepts just above zero; their steep onsets
# let the decoder realize that transition sharply.
STEER_ENS_RADIUS = 1.4  # covers the (target disk) x (angle) box
LATERAL_FRACTION = 0.5
LATERAL_JITTER = 0.15
LATERAL_INTERCEPTS = (0.0, 0.1)
# The steering law needs a denser eval set than the package-wide default.
EVAL_PER_NEURON = 4
# law_fidelity's grid: points per axis (even, see there) and steering angles
FIDELITY_GRID, FIDELITY_ANGLES = 40, 5


@dataclass(frozen=True)
class RoverParams:
    """Bicycle plant constants; each field is a `[rover]` config key whose
    metadata holds its unit and help text."""
    wheelbase: float = field(default=0.3, metadata=dict(
        unit="m", help="bicycle wheelbase", positive=True))
    # speed response per unit drive command
    accel_gain: float = field(default=2.0, metadata=dict(help="plant drive response"))
    drag: float = field(default=0.5, metadata=dict(unit="1/s", help="plant speed drag"))
    # steering-angle rate per unit steer command
    steer_gain: float = field(default=4.0, metadata=dict(
        help="plant steering-rate response"))
    max_steer: float = field(default=0.6, metadata=dict(
        unit="rad", help="steering clamp", positive=True))


@dataclass
class RoverState:
    x: float = 0.0
    y: float = 0.0
    heading: float = 0.0   # rad, from world +x
    steer: float = 0.0     # rad
    speed: float = 0.0     # m/s
    t: float = 0.0


def accel_law(distance, k_a):
    """Drive command: gain times distance, saturated at 1 m."""
    return k_a * min(distance, 1.0)


def steer_law(tx, ty, q, k_p):
    """Proportional steering toward the body-frame target direction,
    clipped at +-k_p*pi."""
    raw = k_p * (math.atan2(-tx, ty) - q)
    return min(max(raw, -k_p * math.pi), k_p * math.pi)


def rover_dynamics_step(state: RoverState, u_accel, u_steer, dt,
                        params: RoverParams = RoverParams()):
    """Kinematic bicycle step: drive with linear drag, rate-limited steering,
    heading advancing by (v/L) tan(steer)."""
    v = state.speed + dt * (params.accel_gain * u_accel - params.drag * state.speed)
    q = state.steer + dt * params.steer_gain * u_steer
    q = min(max(q, -params.max_steer), params.max_steer)
    heading = state.heading + dt * (v / params.wheelbase) * math.tan(q)
    return RoverState(
        x=state.x + dt * v * math.cos(heading),
        y=state.y + dt * v * math.sin(heading),
        heading=heading, steer=q, speed=v, t=state.t + dt,
    )


def world_to_body(target_xy, x, y, heading):
    """Target position in the rover frame (+y forward, +x right)."""
    dx = target_xy[0] - x
    dy = target_xy[1] - y
    fwd_x, fwd_y = math.cos(heading), math.sin(heading)
    return (fwd_y * dx - fwd_x * dy,   # right component
            fwd_x * dx + fwd_y * dy)   # forward component


@dataclass
class RoverNetConfig:
    """Control-network settings; fields with metadata are `[rover]` config
    keys ("keys" names the flat key of each element of a tuple field)."""
    n_neurons: int = field(default=512, metadata=dict(
        help="neurons per control ensemble (4096 = full scale)"))
    radius: float = field(default=3.5, metadata=dict(
        unit="m", help="representational radius of target coords", positive=True))
    k_a: float = field(default=1.0, metadata=dict(help="drive gain"))
    k_p: float = field(default=1.5, metadata=dict(help="steering proportional gain"))
    input_tau: float = field(default=0.05, metadata=dict(
        unit="s", help="target-position input filter"))
    steer_input_tau: float = field(default=0.005, metadata=dict(
        unit="s", help="steering-angle input filter"))
    output_tau: float = field(default=0.02, metadata=dict(
        unit="s", help="decoded command filter"))
    max_rate_range: tuple = field(default=(175.0, 220.0), metadata=dict(
        unit="Hz", keys={"max_rate_lo": "ensemble max-rate low",
                         "max_rate_hi": "ensemble max-rate high"}))
    exclusion: float = field(default=0.1, metadata=dict(
        unit="m", help="eval points avoid the origin"))
    dt: float = DEFAULT_DT
    # normalizes the encoded steering angle; read from the plant's key
    max_steer: float = field(default=RoverParams.max_steer,
                             metadata=dict(key="max_steer"))
    # The steering law needs a sharper fit than the package-wide default
    # regularization (and a denser eval set, EVAL_PER_NEURON).
    solver_reg: float = 0.01
    # neuron constants and fixed-point widths, read from the [neurons] keys
    neuron_params: NeuronParams = NeuronParams()
    qspec: QuantizationSpec = QuantizationSpec()

    def __post_init__(self):
        if not 0 < self.max_rate_range[0] < self.max_rate_range[1]:
            raise ValueError("max_rate_lo and max_rate_hi must satisfy 0 < lo < hi")


def _annulus_points(n, r_inner, r_outer, rng):
    phi = rng.uniform(0.0, 2.0 * math.pi, n)
    r = np.sqrt(rng.uniform(r_inner ** 2, r_outer ** 2, n))
    return np.column_stack([r * np.cos(phi), r * np.sin(phi)])


def rover_eval_points(cfg: RoverNetConfig, n, dims, rng):
    """Decoder evaluation points over the operating region, in normalized
    coordinates: target coords in the annulus [exclusion, 0.98] of the unit
    disk, steering angle uniform in [-1, 1]."""
    inner = cfg.exclusion / cfg.radius
    pts = _annulus_points(n, inner, 0.98, rng)
    if dims == 2:
        return pts
    q = rng.uniform(-1.0, 1.0, n)
    return np.column_stack([pts, q])


def _steer_tuning(cfg: RoverNetConfig, n, rng, params):
    """Mixed tuning for the steering ensemble: uniform encoders plus a
    lateral-axis share with tight intercepts (see LATERAL_FRACTION)."""
    enc = sample_encoders(n, 3, rng)
    n_lat = int(round(LATERAL_FRACTION * n))
    sign = np.where(rng.random(n_lat) < 0.5, -1.0, 1.0)
    jitter = LATERAL_JITTER * rng.standard_normal((n_lat, 2))
    lateral = np.column_stack([sign, jitter])
    enc[:n_lat] = lateral / np.linalg.norm(lateral, axis=1)[:, None]
    max_rates = rng.uniform(*cfg.max_rate_range, n)
    intercepts = rng.uniform(-1.0, 1.0, n)
    intercepts[:n_lat] = rng.uniform(*LATERAL_INTERCEPTS, n_lat)
    gain, bias = solve_gain_bias(max_rates, intercepts, params, "lif")
    return gr.ExplicitTuning(encoders=enc, gain=gain, bias=bias)


def build_rover_net(cfg: RoverNetConfig, seed=0):
    """Two parallel ensembles: one encodes the normalized relative target and
    decodes the drive law; the other adds the steering angle and decodes the
    steering law.  Commands leave through a shared output node."""
    g = gr.ModelGraph(dt=cfg.dt, neuron_params=cfg.neuron_params)
    radius, k_a, k_p, q_max = cfg.radius, cfg.k_a, cfg.k_p, cfg.max_steer

    def accel_cmd(v):
        return np.array([accel_law(radius * math.hypot(v[0], v[1]), k_a)])

    def steer_cmd(v):
        return np.array([steer_law(v[0], v[1], q_max * v[2], k_p)])

    g.add_node(gr.NodeSpec("target_in", 2, gr.EXTERNAL_INPUT))
    g.add_node(gr.NodeSpec("steer_in", 1, gr.EXTERNAL_INPUT))
    g.add_node(gr.NodeSpec("cmd_out", 2, gr.EXTERNAL_OUTPUT))
    g.add_ensemble(gr.Ensemble(
        "accel_ens", n_neurons=cfg.n_neurons, dimensions=2, radius=1.0,
        neuron_model="lif", max_rate_range=cfg.max_rate_range,
        seed=seed,
    ))
    g.add_ensemble(gr.Ensemble(
        "steer_ens", n_neurons=cfg.n_neurons, dimensions=3,
        radius=STEER_ENS_RADIUS, neuron_model="lif",
        max_rate_range=cfg.max_rate_range, seed=seed + 1,
        fixed_tuning=_steer_tuning(cfg, cfg.n_neurons,
                                   stream(seed, "rover", "steer_tuning"),
                                   g.neuron_params),
    ))
    g.connect(gr.ConnectionSpec(
        "target_to_accel", "target_in", "accel_ens",
        transform=np.eye(2) / radius, synapse=cfg.input_tau))
    g.connect(gr.ConnectionSpec(
        "target_to_steer", "target_in", "steer_ens",
        transform=np.array([[1.0 / radius, 0.0], [0.0, 1.0 / radius], [0.0, 0.0]]),
        synapse=cfg.input_tau))
    g.connect(gr.ConnectionSpec(
        "angle_to_steer", "steer_in", "steer_ens",
        transform=np.array([[0.0], [0.0], [1.0 / q_max]]),
        synapse=cfg.steer_input_tau))
    g.connect(gr.ConnectionSpec(
        "accel_out", "accel_ens", "cmd_out", function=accel_cmd,
        transform=np.array([[1.0], [0.0]]), synapse=cfg.output_tau))
    g.connect(gr.ConnectionSpec(
        "steer_out", "steer_ens", "cmd_out", function=steer_cmd,
        transform=np.array([[0.0], [1.0]]), synapse=cfg.output_tau))
    return g


def compile_rover_net(cfg: RoverNetConfig, backend, seed=0):
    graph = build_rover_net(cfg, seed=seed)
    n_eval = max(default_eval_count(cfg.n_neurons),
                 EVAL_PER_NEURON * cfg.n_neurons)
    pts = {
        "accel_ens": rover_eval_points(cfg, n_eval, 2, stream(seed, "rover", "eval2")),
        "steer_ens": rover_eval_points(cfg, n_eval, 3, stream(seed, "rover", "eval3")),
    }
    return compile_graph(graph, backend=backend, seed=seed, qspec=cfg.qspec,
                         reg=cfg.solver_reg, eval_points=pts)


@dataclass
class RoverTaskConfig:
    """Target-seeking task; each field is a `[rover]` config key."""
    n_targets: int = field(default=6, metadata=dict(help="targets per run", positive=True))
    duration_cap: float = field(default=30.0, metadata=dict(
        unit="s", help="time allowed per target"))
    capture_radius: float = field(default=0.5, metadata=dict(
        unit="m", help="capture distance"))
    spawn_radius: float = field(default=3.0, metadata=dict(
        unit="m", help="targets spawn within this disk"))
    # on the body-frame target estimate
    noise_sigma: float = field(default=0.05, metadata=dict(
        unit="m", help="target estimate noise, per axis"))
    traj_sample_every: float = field(default=0.01, metadata=dict(
        unit="s", help="trajectory sampling period"))


@dataclass
class CaptureRecord:
    target_index: int
    spawn_x: float
    spawn_y: float
    t_capture: float    # s since spawn; nan = timeout


@dataclass
class RoverRun:
    trajectory: list = field(default_factory=list)
    captures: list = field(default_factory=list)

    @property
    def all_captured(self):
        return all(math.isfinite(c.t_capture) for c in self.captures)


class _InputFilter:
    """First-order low-pass mirroring the network's input synapse, used by
    the analytic controller so both controllers see like signals."""

    def __init__(self, tau, dt, dims):
        self.alpha = math.exp(-dt / tau)
        self.state = [0.0] * dims

    def step(self, values):
        a = self.alpha
        self.state = [a * s + (1.0 - a) * v for s, v in zip(self.state, values)]
        return self.state


def run_rover_task(task: RoverTaskConfig, net_cfg: RoverNetConfig, seed,
                   backend="reference", controller="neural",
                   params: RoverParams | None = None, sim=None):
    """Closed-loop target seeking; the target warps on capture.

    controller: "neural" steps the compiled spiking network; "analytic"
    applies the laws directly (the no-neurons oracle).  Targets and the
    body-frame estimate noise come from seeded streams, so runs are exactly
    reproducible.  Timeouts are recorded (t_capture = nan), not fatal.
    """
    if controller not in CONTROLLERS:
        raise ValueError(f"unknown rover controller {controller!r}; "
                         f"choose one of {', '.join(CONTROLLERS)}")
    params = params or RoverParams(max_steer=net_cfg.max_steer)
    rng_targets = stream(seed, "rover", "targets")
    rng_noise = stream(seed, "rover", "noise")
    if controller == "neural" and sim is None:
        sim = Simulator(compile_rover_net(net_cfg, backend, seed=seed))
    dt = net_cfg.dt
    state = RoverState()
    run = RoverRun()
    sample_steps = max(1, int(round(task.traj_sample_every / dt)))
    clip_norm = 0.98 * net_cfg.radius
    filt_target = _InputFilter(net_cfg.input_tau, dt, 2)
    filt_q = _InputFilter(net_cfg.steer_input_tau, dt, 1)

    def spawn():
        phi = rng_targets.uniform(0.0, 2.0 * math.pi)
        r = task.spawn_radius * math.sqrt(rng_targets.uniform())
        return (r * math.cos(phi), r * math.sin(phi))

    for idx in range(task.n_targets):
        target = spawn()
        t0 = state.t
        captured = False
        step_count = 0
        max_steps = int(round(task.duration_cap / dt))
        while step_count <= max_steps:
            dist = math.hypot(target[0] - state.x, target[1] - state.y)
            if dist < task.capture_radius:
                run.captures.append(CaptureRecord(idx, target[0], target[1],
                                                  state.t - t0))
                captured = True
                break
            if step_count == max_steps:
                break
            tx, ty = world_to_body(target, state.x, state.y, state.heading)
            tx += task.noise_sigma * rng_noise.standard_normal()
            ty += task.noise_sigma * rng_noise.standard_normal()
            norm = math.hypot(tx, ty)
            if norm > clip_norm:  # keep the encoding inside the trained region
                tx *= clip_norm / norm
                ty *= clip_norm / norm
            if controller == "neural":
                out = sim.step({"target_in": (tx, ty), "steer_in": (state.steer,)})
                u_accel = float(out["cmd_out"][0])
                u_steer = min(max(float(out["cmd_out"][1]), -net_cfg.k_p * math.pi),
                              net_cfg.k_p * math.pi)
            else:
                ftx, fty = filt_target.step((tx, ty))
                fq = filt_q.step((state.steer,))[0]
                u_accel = accel_law(math.hypot(ftx, fty), net_cfg.k_a)
                u_steer = steer_law(ftx, fty, fq, net_cfg.k_p)
            state = rover_dynamics_step(state, u_accel, u_steer, dt, params)
            if step_count % sample_steps == 0:
                run.trajectory.append((state.t, state.x, state.y, state.heading,
                                       state.steer, state.speed,
                                       target[0], target[1], u_steer, u_accel))
            step_count += 1
        if not captured:
            run.captures.append(CaptureRecord(idx, target[0], target[1],
                                              float("nan")))
    return run


def law_fidelity(net_cfg: RoverNetConfig, seed=0):
    """Open-loop decode accuracy of both laws over a target grid (steering
    additionally swept over the steering angle), excluding the origin
    neighborhood where the angle is undefined.

    The grid uses an even point count per axis (cell centers): the steering
    law jumps across the half-line behind the rover, and sampling points
    exactly on a jump measures the convention for the midpoint value, not the
    decode quality.  Returns (accel_rmse, steer_rmse) in command units.
    """
    from .build import activity_matrix

    model = compile_rover_net(net_cfg, "reference", seed=seed)
    accel = model.ensemble("accel_ens")
    steer = model.ensemble("steer_ens")
    conn = {c.id: c for c in model.connections}

    span = np.linspace(-0.98, 0.98, FIDELITY_GRID)
    gx, gy = np.meshgrid(span, span)
    pts2 = np.column_stack([gx.ravel(), gy.ravel()])
    norms = np.linalg.norm(pts2, axis=1)
    keep = (norms >= net_cfg.exclusion / net_cfg.radius) & (norms <= 0.98)
    pts2 = pts2[keep]

    A2 = activity_matrix(accel, pts2)
    w_accel = conn["accel_out"].weights  # transform row [1, 0] x decoders
    decoded_accel = A2 @ w_accel[0]
    truth_accel = np.array([accel_law(net_cfg.radius * math.hypot(x, y), net_cfg.k_a)
                            for x, y in pts2])
    accel_rmse = float(np.sqrt(np.mean((decoded_accel - truth_accel) ** 2)))

    qs = np.linspace(-0.8, 0.8, FIDELITY_ANGLES)
    pts3 = np.column_stack([
        np.repeat(pts2, FIDELITY_ANGLES, axis=0),
        np.tile(qs, pts2.shape[0]),
    ])
    A3 = activity_matrix(steer, pts3)
    w_steer = conn["steer_out"].weights
    decoded_steer = A3 @ w_steer[1]
    truth_steer = np.array([steer_law(x, y, net_cfg.max_steer * q, net_cfg.k_p)
                            for x, y, q in pts3])
    steer_rmse = float(np.sqrt(np.mean((decoded_steer - truth_steer) ** 2)))
    return accel_rmse, steer_rmse
