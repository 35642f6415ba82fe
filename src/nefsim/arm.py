"""Planar 3-link arm benchmark: plant, operational-space controllers, and the
adaptive reach protocol.

The plant integrates the full manipulator equations M(q)q" + c(q,q') + g(q) = u
with the payload folded into the terminal mass; controllers only ever see the
nominal (payload-free) model.  The per-step math is written with plain floats:
the reach protocol takes millions of steps and scalar trig beats array
overhead at this size.

Joint-space quantities use the angle-sum ("omega") decomposition: with
w = (q1', q1'+q2', q1'+q2'+q3') the kinetic energy is (1/2) w^T H(q) w where H
depends on q only through cos(q2), cos(q3), cos(q2+q3), which keeps the mass
matrix and its Coriolis derivatives in closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import graph as gr
from .build import FIXED_POINT, REFERENCE, compile_graph
from .engine import Simulator
from .errors import DivergedLearningError, NonFiniteStateError
from .neurons import DEFAULT_DT, NeuronParams, QuantizationSpec
from .seeding import stream

LENGTHS = (0.3, 0.3, 0.2)  # m
MASSES = (1.0, 0.8, 0.6)   # kg
GRAVITY = 9.81             # m/s^2


class ArmModel:
    """Planar 3-link arm with an optional point payload at the end effector.

    Centers of mass sit at link midpoints; link inertias are thin-rod values
    m*l^2/12 about the COM.  Gravity acts along -y of the plane.
    """

    def __init__(self, lengths=LENGTHS, masses=MASSES, gravity=GRAVITY,
                 joint_limits=((-math.pi, math.pi),) * 3, payload_mass=0.0):
        self.lengths = tuple(float(l) for l in lengths)
        self.masses = tuple(float(m) for m in masses)
        self.gravity = float(gravity)
        self.joint_limits = tuple((float(lo), float(hi)) for lo, hi in joint_limits)
        self.payload_mass = float(payload_mass)
        l1, l2, l3 = self.lengths
        m1, m2, m3 = self.masses
        i1, i2, i3 = (m * l * l / 12.0 for m, l in zip(self.masses, self.lengths))
        r1, r2, r3 = l1 / 2.0, l2 / 2.0, l3 / 2.0
        mp = self.payload_mass
        # constant diagonal of H and the three cosine coupling coefficients
        self._h11 = i1 + m1 * r1 * r1 + (m2 + m3 + mp) * l1 * l1
        self._h22 = i2 + m2 * r2 * r2 + (m3 + mp) * l2 * l2
        self._h33 = i3 + m3 * r3 * r3 + mp * l3 * l3
        self._b12 = l1 * (m2 * r2 + (m3 + mp) * l2)
        self._b13 = l1 * (m3 * r3 + mp * l3)
        self._b23 = l2 * (m3 * r3 + mp * l3)
        # gravity lever arms
        self._g1 = m1 * r1 + (m2 + m3 + mp) * l1
        self._g2 = m2 * r2 + (m3 + mp) * l2
        self._g3 = m3 * r3 + mp * l3

    @property
    def reach(self):
        return sum(self.lengths)


@dataclass
class ArmState:
    q: tuple     # joint angles [rad]
    dq: tuple    # joint velocities [rad/s]
    t: float = 0.0


def _h_entries(model, q2, q3):
    c2, c3, c23 = math.cos(q2), math.cos(q3), math.cos(q2 + q3)
    return (model._h11, model._h22, model._h33,
            model._b12 * c2, model._b13 * c23, model._b23 * c3)


def _mass(model, q2, q3):
    """Entries (m11, m12, m13, m22, m23, m33) of the symmetric M(q)."""
    h11, h22, h33, h12, h13, h23 = _h_entries(model, q2, q3)
    return (h11 + h22 + h33 + 2.0 * (h12 + h13 + h23),
            h22 + h33 + h12 + h13 + 2.0 * h23,
            h13 + h23 + h33,
            h22 + 2.0 * h23 + h33,
            h23 + h33,
            h33)


def _gravity(model, q1, q2, q3):
    g = model.gravity
    t3 = g * model._g3 * math.cos(q1 + q2 + q3)
    t2 = g * model._g2 * math.cos(q1 + q2) + t3
    t1 = g * model._g1 * math.cos(q1) + t2
    return t1, t2, t3


def _coriolis(model, q2, q3, dq1, dq2, dq3):
    w1 = dq1
    w2 = w1 + dq2
    w3 = w2 + dq3
    s2 = math.sin(q2)
    s3 = math.sin(q3)
    s23 = math.sin(q2 + q3)
    d12 = -model._b12 * s2 * dq2
    d13 = -model._b13 * s23 * (dq2 + dq3)
    d23 = -model._b23 * s3 * dq3
    y1 = d12 * w2 + d13 * w3
    y2 = d12 * w1 + d23 * w3
    y3 = d13 * w1 + d23 * w2
    p2 = -model._b12 * s2 * w1 * w2 - model._b13 * s23 * w1 * w3
    p3 = -model._b13 * s23 * w1 * w3 - model._b23 * s3 * w2 * w3
    return y1 + y2 + y3, y2 + y3 - p2, y3 - p3


def mass_matrix(model: ArmModel, q):
    """Joint-space inertia M(q) (3x3, symmetric positive definite)."""
    m11, m12, m13, m22, m23, m33 = _mass(model, q[1], q[2])
    return np.array([[m11, m12, m13], [m12, m22, m23], [m13, m23, m33]])


def gravity_torque(model: ArmModel, q):
    """Joint torques exactly balancing gravity at pose q."""
    return np.array(_gravity(model, q[0], q[1], q[2]))


def coriolis_torque(model: ArmModel, q, dq):
    """Coriolis/centrifugal torque vector c(q, dq)."""
    return np.array(_coriolis(model, q[1], q[2], dq[0], dq[1], dq[2]))


def _solve3(m11, m12, m13, m22, m23, m33, b1, b2, b3):
    """Solve the SPD 3x3 system M x = b by scalar Cholesky."""
    l11 = math.sqrt(m11)
    l21 = m12 / l11
    l31 = m13 / l11
    l22 = math.sqrt(m22 - l21 * l21)
    l32 = (m23 - l31 * l21) / l22
    l33 = math.sqrt(m33 - l31 * l31 - l32 * l32)
    y1 = b1 / l11
    y2 = (b2 - l21 * y1) / l22
    y3 = (b3 - l31 * y1 - l32 * y2) / l33
    x3 = y3 / l33
    x2 = (y2 - l32 * x3) / l22
    x1 = (y1 - l21 * x2 - l31 * x3) / l11
    return x1, x2, x3


def _accel(model, q1, q2, q3, dq1, dq2, dq3, u1, u2, u3):
    c1, c2, c3 = _coriolis(model, q2, q3, dq1, dq2, dq3)
    g1, g2, g3 = _gravity(model, q1, q2, q3)
    return _solve3(*_mass(model, q2, q3), u1 - c1 - g1, u2 - c2 - g2, u3 - c3 - g3)


def arm_dynamics_step(model: ArmModel, state: ArmState, u, dt):
    """Semi-implicit Euler step of the full plant (payload included).

    Joint limits clamp with a zero-velocity stop.
    """
    u1, u2, u3 = float(u[0]), float(u[1]), float(u[2])
    if not (math.isfinite(u1) and math.isfinite(u2) and math.isfinite(u3)):
        raise NonFiniteStateError("non-finite torque input")
    q1, q2, q3 = state.q
    dq1, dq2, dq3 = state.dq
    a1, a2, a3 = _accel(model, q1, q2, q3, dq1, dq2, dq3, u1, u2, u3)
    dq1 += a1 * dt
    dq2 += a2 * dt
    dq3 += a3 * dt
    q1 += dq1 * dt
    q2 += dq2 * dt
    q3 += dq3 * dt
    q, dq = [q1, q2, q3], [dq1, dq2, dq3]
    for i, (lo, hi) in enumerate(model.joint_limits):
        if q[i] < lo:
            q[i], dq[i] = lo, 0.0
        elif q[i] > hi:
            q[i], dq[i] = hi, 0.0
    if not all(map(math.isfinite, q + dq)):
        raise NonFiniteStateError(f"arm state diverged at t={state.t:.6f}")
    return ArmState(q=tuple(q), dq=tuple(dq), t=state.t + dt)


def forward_kinematics(model: ArmModel, q):
    """End-effector position (2,) and Jacobian (2, 3), zero pose along +x."""
    l1, l2, l3 = model.lengths
    a1 = q[0]
    a12 = q[0] + q[1]
    a123 = q[0] + q[1] + q[2]
    s1, c1 = math.sin(a1), math.cos(a1)
    s12, c12 = math.sin(a12), math.cos(a12)
    s123, c123 = math.sin(a123), math.cos(a123)
    x = l1 * c1 + l2 * c12 + l3 * c123
    y = l1 * s1 + l2 * s12 + l3 * s123
    j13 = -l3 * s123
    j12 = -l2 * s12 + j13
    j11 = -l1 * s1 + j12
    j23 = l3 * c123
    j22 = l2 * c12 + j23
    j21 = l1 * c1 + j22
    return np.array([x, y]), np.array([[j11, j12, j13], [j21, j22, j23]])


def total_energy(model: ArmModel, q, dq):
    """Kinetic plus potential energy (potential zero at y=0 of the base)."""
    h11, h22, h33, h12, h13, h23 = _h_entries(model, q[1], q[2])
    w1 = dq[0]
    w2 = w1 + dq[1]
    w3 = w2 + dq[2]
    ke = 0.5 * (h11 * w1 * w1 + h22 * w2 * w2 + h33 * w3 * w3) \
        + h12 * w1 * w2 + h13 * w1 * w3 + h23 * w2 * w3
    g = model.gravity
    pe = g * (model._g1 * math.sin(q[0])
              + model._g2 * math.sin(q[0] + q[1])
              + model._g3 * math.sin(q[0] + q[1] + q[2]))
    return ke + pe


# -- operational space control ------------------------------------------------

def osc_control(model: ArmModel, state: ArmState, x, jac, target, cfg: ArmConfig,
                q_rest=None, integral=None):
    """Operational-space torques driving the hand at `x` (Jacobian `jac`,
    both from forward_kinematics at state.q) toward `target`.

    u = J^T M_x (kp e - kv xdot + ki I) + g(q) + u_null, gains from `cfg`.
    M_x = (J M^-1 J^T)^-1 comes from the closed-form eigendecomposition of
    the symmetric 2x2; directions whose eigenvalue falls below sigma_min of
    the largest are dropped (singularity-robust inverse).

    PID runs when `integral` (the task-space error integral, (2,)) is given:
    it advances by one dt and is clamped so that ki*integral saturates at
    +-windup.  With `q_rest` given and null gains set, a posture torque
    M(q)(-null_kp (q - q_rest) - null_kv dq) acts through the dynamically
    consistent null-space projector, stabilizing the redundant joint without
    disturbing the task; a 2-D task on three joints otherwise leaves an
    uncontrolled direction for unmodeled loads to fold.

    Returns (u, u_corrective, integral): the torques, their corrective part
    u_task + u_null (everything but the gravity term), each a 3-tuple, and
    the advanced integral (None for PD).
    """
    q, dq = state.q, state.dq
    x = (float(x[0]), float(x[1]))  # Python floats: faster than numpy scalars
    j0, j1 = np.asarray(jac, dtype=float).tolist()
    extra_x = extra_y = 0.0
    if integral is not None:
        limit = cfg.windup / cfg.ki if cfg.ki > 0 else math.inf
        integral = (
            min(max(integral[0] + (target[0] - x[0]) * cfg.dt, -limit), limit),
            min(max(integral[1] + (target[1] - x[1]) * cfg.dt, -limit), limit))
        extra_x, extra_y = cfg.ki * integral[0], cfg.ki * integral[1]
    dx = j0[0] * dq[0] + j0[1] * dq[1] + j0[2] * dq[2]
    dy = j1[0] * dq[0] + j1[1] * dq[1] + j1[2] * dq[2]
    ax = cfg.kp * (target[0] - x[0]) - cfg.kv * dx + extra_x
    ay = cfg.kp * (target[1] - x[1]) - cfg.kv * dy + extra_y

    m11, m12, m13, m22, m23, m33 = _mass(model, q[1], q[2])
    r1 = _solve3(m11, m12, m13, m22, m23, m33, j0[0], j0[1], j0[2])
    r2 = _solve3(m11, m12, m13, m22, m23, m33, j1[0], j1[1], j1[2])
    a = j0[0] * r1[0] + j0[1] * r1[1] + j0[2] * r1[2]
    b = j0[0] * r2[0] + j0[1] * r2[1] + j0[2] * r2[2]
    c = j1[0] * r2[0] + j1[1] * r2[1] + j1[2] * r2[2]
    half = 0.5 * (a + c)
    disc = math.sqrt(max(0.25 * (a - c) ** 2 + b * b, 0.0))
    lam1, lam2 = half + disc, half - disc
    if lam1 <= 0.0:
        i11 = i12 = i22 = 0.0
    else:
        if abs(b) > 1e-14:
            v1x, v1y = b, lam1 - a
            n = math.hypot(v1x, v1y)
            v1x, v1y = v1x / n, v1y / n
        else:
            v1x, v1y = (1.0, 0.0) if a >= c else (0.0, 1.0)
        i11 = v1x * v1x / lam1
        i12 = v1x * v1y / lam1
        i22 = v1y * v1y / lam1
        if lam2 >= cfg.sigma_min * lam1:
            i11 += v1y * v1y / lam2
            i12 -= v1x * v1y / lam2
            i22 += v1x * v1x / lam2
    fx = i11 * ax + i12 * ay
    fy = i12 * ax + i22 * ay
    u_task = (j0[0] * fx + j1[0] * fy,
              j0[1] * fx + j1[1] * fy,
              j0[2] * fx + j1[2] * fy)
    g = _gravity(model, q[0], q[1], q[2])

    u_null = (0.0, 0.0, 0.0)
    null_kp, null_kv = cfg.null_kp, cfg.null_kv
    if (null_kp or null_kv) and q_rest is not None:
        ad1 = -null_kp * (q[0] - q_rest[0]) - null_kv * dq[0]
        ad2 = -null_kp * (q[1] - q_rest[1]) - null_kv * dq[1]
        ad3 = -null_kp * (q[2] - q_rest[2]) - null_kv * dq[2]
        up1 = m11 * ad1 + m12 * ad2 + m13 * ad3
        up2 = m12 * ad1 + m22 * ad2 + m23 * ad3
        up3 = m13 * ad1 + m23 * ad2 + m33 * ad3
        # jbar = M^-1 J^T M_x; project u_p through (I - J^T jbar^T)
        jb0 = (r1[0] * i11 + r2[0] * i12, r1[1] * i11 + r2[1] * i12,
               r1[2] * i11 + r2[2] * i12)
        jb1 = (r1[0] * i12 + r2[0] * i22, r1[1] * i12 + r2[1] * i22,
               r1[2] * i12 + r2[2] * i22)
        w0 = jb0[0] * up1 + jb0[1] * up2 + jb0[2] * up3
        w1 = jb1[0] * up1 + jb1[1] * up2 + jb1[2] * up3
        u_null = (up1 - (j0[0] * w0 + j1[0] * w1),
                  up2 - (j0[1] * w0 + j1[1] * w1),
                  up3 - (j0[2] * w0 + j1[2] * w1))
    u = (u_task[0] + g[0] + u_null[0],
         u_task[1] + g[1] + u_null[1],
         u_task[2] + g[2] + u_null[2])
    u_corrective = (u_task[0] + u_null[0],
                    u_task[1] + u_null[1],
                    u_task[2] + u_null[2])
    return u, u_corrective, integral


# -- adaptive-ensemble input shaping ------------------------------------------

def normalize_feedback(q, dq, limits, vel_bound=2.0):
    """Map joint positions/velocities to [-1, 1]^6: positions by their limit
    midpoint and half-range, velocities by +-vel_bound; both clipped."""
    out = []
    for i, (lo, hi) in enumerate(limits):
        mid = 0.5 * (lo + hi)
        half = 0.5 * (hi - lo)
        out.append(min(max((q[i] - mid) / half, -1.0), 1.0))
    for i in range(3):
        out.append(min(max(dq[i] / vel_bound, -1.0), 1.0))
    return np.array(out)


def project_hypersphere(v):
    """Lift [-1,1]^D input onto the unit (D+1)-sphere.

    The input is scaled by 1/sqrt(D) (so any box point lands inside the unit
    ball) and the last coordinate is chosen to make the result exactly
    unit-norm.  Co-directional inputs of different magnitude map to distinct
    points, so encoders can tell them apart.
    """
    v = np.asarray(v, dtype=float)
    d = v.shape[-1]
    s = v / math.sqrt(d)
    sq = 1.0 - np.add.reduce(s * s, axis=-1, keepdims=True)
    last = np.sqrt(np.maximum(sq, 0.0))
    return np.concatenate([s, last], axis=-1)


# -- reach experiment ----------------------------------------------------------

PD_NOLOAD = "pd_noload"
PD_LOAD = "pd_load"
PID = "pid"
ADAPTIVE_REFERENCE = "adaptive_reference"
ADAPTIVE_FIXED = "adaptive_fixed"
CONTROLLERS = (PD_NOLOAD, PD_LOAD, PID, ADAPTIVE_REFERENCE, ADAPTIVE_FIXED)


@dataclass
class ReachTask:
    """The reach protocol; each field is an `[arm]` config key (see ArmConfig)."""
    # elbow-down start with the hand at (0.57, 0.42); the reach sweeps down
    # and to the right, staying clear of fold singularities under load
    start_q: tuple = field(default=(1.2, -0.7, -0.5), metadata=dict(
        unit="rad", keys={"start_q1": "reach start joint 1",
                          "start_q2": "reach start joint 2",
                          "start_q3": "reach start joint 3"}))
    target: tuple = field(default=(0.55, 0.15), metadata=dict(
        unit="m", keys={"target_x": "reach target x", "target_y": "reach target y"}))
    duration: float = field(default=4.0, metadata=dict(
        key="reach_duration", unit="s", help="time per reach"))
    n_reaches: int = field(default=50, metadata=dict(help="reaches per session", positive=True))
    n_sessions: int = field(default=5, metadata=dict(help="sessions per controller", positive=True))
    traj_sample_every: float = field(default=0.01, metadata=dict(
        unit="s", help="trajectory sampling period"))

    def __post_init__(self):
        if not self.duration > 0:
            raise ValueError("reach_duration must be > 0")


@dataclass
class TrialRecord:
    session: int
    trial: int
    controller: str
    error_raw: float          # time-mean hand-target distance [m]
    error_pct: float | None = None  # vs matching-seed PD baselines


@dataclass
class ArmConfig:
    """Everything the reach protocol needs beyond the task definition.

    Fields with metadata are `[arm]` config keys: "unit" and "help" document
    the key, "key" names it when it differs from the field, "keys" names
    the flat key of each element of a tuple field, and "positive" requires
    values > 0."""
    payload_mass: float = field(default=1.0, metadata=dict(
        unit="kg", help="unmodeled end-effector payload", positive=True))
    kp: float = field(default=30.0, metadata=dict(
        unit="1/s^2", help="task-space proportional gain"))
    kv: float = field(default=2.0 * math.sqrt(30.0), metadata=dict(
        unit="1/s", help="task-space derivative gain"))
    ki: float = field(default=5.0, metadata=dict(
        unit="1/s^3", help="task-space integral gain (PID)"))
    windup: float = field(default=10.0, metadata=dict(
        unit="m/s^2", help="integral command clamp"))
    sigma_min: float = field(default=1e-3, metadata=dict(
        help="task-inertia singular-value cutoff"))
    # posture stiffness and damping pull toward the start pose
    null_kp: float = field(default=25.0, metadata=dict(
        unit="1/s^2", help="null-space posture stiffness"))
    null_kv: float = field(default=10.0, metadata=dict(
        unit="1/s", help="null-space damping"))
    # critically damped target filter
    path_tau: float = field(default=0.3, metadata=dict(
        unit="s", help="reach reference filter time constant", positive=True))
    vel_bound: float = field(default=2.0, metadata=dict(
        unit="rad/s", help="velocity normalization bound", positive=True))
    dt: float = DEFAULT_DT
    n_neurons: int = field(default=1000, metadata=dict(help="adaptive ensemble size"))
    # PES master rate; the decoded torque integrates the corrective signal
    # with a ~1 s time constant, converging over a few reaches
    kappa: float = field(default=1e-4, metadata=dict(help="PES master learning rate"))
    tau_input: float = field(default=0.01, metadata=dict(
        unit="s", help="context connection filter"))
    tau_learn: float = field(default=0.01, metadata=dict(
        unit="s", help="learned-connection activity filter"))
    max_rate_range: tuple = field(default=(175.0, 220.0), metadata=dict(
        unit="Hz", keys={"max_rate_lo": "adaptive ensemble max-rate low",
                         "max_rate_hi": "adaptive ensemble max-rate high"}))
    # empirical boundedness ceiling
    u_adapt_limit: float = field(default=30.0, metadata=dict(
        unit="N*m", help="adaptive torque boundedness ceiling"))
    lengths: tuple = field(default=LENGTHS, metadata=dict(
        unit="m", keys={"l1": "link 1 length", "l2": "link 2 length",
                        "l3": "link 3 length"}))
    masses: tuple = field(default=MASSES, metadata=dict(
        unit="kg", keys={"m1": "link 1 mass", "m2": "link 2 mass",
                         "m3": "link 3 mass"}))
    gravity: float = field(default=GRAVITY, metadata=dict(
        unit="m/s^2", help="gravity along -y"))
    # Symmetric clamp magnitude per joint.  Elbow and wrist stop short of
    # +-pi so loads cannot fold a link through its counterpart (a
    # physical-arm constraint the plant clamp emulates).
    joint_limits: tuple = field(default=(math.pi, 2.6, 2.6), metadata=dict(
        unit="rad", keys={"limit_q1": "joint 1 clamp, symmetric",
                          "limit_q2": "joint 2 clamp, symmetric",
                          "limit_q3": "joint 3 clamp, symmetric"}, positive=True))
    # the adaptive ensemble's neurons, read from the [neurons] keys
    neuron_params: NeuronParams = NeuronParams()
    qspec: QuantizationSpec = QuantizationSpec()

    def __post_init__(self):
        if not all(v > 0 for v in (*self.lengths, *self.masses)):
            raise ValueError("l1..l3 and m1..m3 must be > 0")
        if not self.payload_mass > 0:  # else the two PD baselines coincide
            raise ValueError(f"payload_mass must be > 0, got {self.payload_mass!r}")

    def nominal_model(self):
        return self.plant_model(0.0)

    def plant_model(self, payload):
        return ArmModel(self.lengths, self.masses, gravity=self.gravity,
                        joint_limits=tuple((-a, a) for a in self.joint_limits),
                        payload_mass=payload)


def build_adaptive_net(cfg: ArmConfig, seed=None):
    """Graph for the adaptive ensemble: 7D projected feedback in, 3 joint
    torques out through a zero-initialized learned connection; the error node
    feeds the learning rule directly."""
    g = gr.ModelGraph(dt=cfg.dt, neuron_params=cfg.neuron_params)
    g.add_node(gr.NodeSpec("context", 7, gr.EXTERNAL_INPUT))
    g.add_node(gr.NodeSpec("training_error", 3, gr.EXTERNAL_INPUT))
    g.add_node(gr.NodeSpec("u_adapt", 3, gr.EXTERNAL_OUTPUT))
    g.add_ensemble(gr.Ensemble(
        "adapt", n_neurons=cfg.n_neurons, dimensions=7, radius=1.0,
        neuron_model="lif", max_rate_range=cfg.max_rate_range, seed=seed,
    ))
    g.connect(gr.ConnectionSpec("context_in", "context", "adapt",
                                synapse=cfg.tau_input))
    g.connect(gr.ConnectionSpec(
        "adapt_out", "adapt", "u_adapt", function=lambda v: np.zeros(3),
        transform=np.eye(3), synapse=cfg.tau_learn,
        learning=gr.PESConfig(cfg.kappa, "training_error"),
    ))
    return g


class _PathFilter:
    """Critically damped second-order filter driving the reach reference."""

    def __init__(self, start, tau, dt):
        self.x = [float(start[0]), float(start[1])]
        self.v = [0.0, 0.0]
        self.wn = 1.0 / tau
        self.dt = dt

    def step(self, target):
        wn, dt = self.wn, self.dt
        for i in range(2):
            a = wn * wn * (target[i] - self.x[i]) - 2.0 * wn * self.v[i]
            self.v[i] += a * dt
            self.x[i] += self.v[i] * dt
        return self.x


@dataclass
class SessionResult:
    records: list
    max_u_adapt: float = 0.0
    diverged: bool = False  # stays False: divergence raises DivergedLearningError


def _run_session(cfg: ArmConfig, task: ReachTask, controller, session,
                 sim=None, trajectory=None):
    """task.n_reaches reaches with one controller; decoders (if any) persist
    throughout.  With `trajectory` given, a sample is appended every
    task.traj_sample_every seconds (at least every step).

    PES divergence raises DivergedLearningError naming the controller,
    session, trial and time within the reach."""
    nominal = cfg.nominal_model()
    payload = 0.0 if controller == PD_NOLOAD else cfg.payload_mass
    plant = cfg.plant_model(payload)
    n_steps = int(round(task.duration / cfg.dt))
    traj_every = max(1, int(round(task.traj_sample_every / cfg.dt)))
    target = (float(task.target[0]), float(task.target[1]))
    limits = nominal.joint_limits
    records = []
    max_ua = 0.0
    adaptive = controller in (ADAPTIVE_REFERENCE, ADAPTIVE_FIXED)

    q_rest = tuple(task.start_q)
    for trial in range(task.n_reaches):
        state = ArmState(q=tuple(task.start_q), dq=(0.0, 0.0, 0.0))
        x, jac = forward_kinematics(nominal, state.q)
        path = _PathFilter(x, cfg.path_tau, cfg.dt)
        integral = (0.0, 0.0) if controller == PID else None
        err_acc = 0.0
        for i in range(n_steps):
            ref = path.step(target)
            (u1, u2, u3), corrective, integral = osc_control(
                nominal, state, x, jac, ref, cfg, q_rest=q_rest, integral=integral)
            ua = (0.0, 0.0, 0.0)
            if adaptive:
                ctx = project_hypersphere(
                    normalize_feedback(state.q, state.dq, limits, cfg.vel_bound))
                # The training error is the negated outbound corrective
                # torque (task + null-space posture), so the decoded
                # signal integrates toward whatever the controller is
                # persistently working against.  Nominal gravity
                # compensation is already correct and stays out; leaving
                # the posture torque out too would let learned null-space
                # components grow unseen by the rule.
                err = (-corrective[0], -corrective[1], -corrective[2])
                try:
                    outputs = sim.step({"context": ctx, "training_error": err})
                except DivergedLearningError as exc:
                    raise DivergedLearningError(
                        f"controller {controller}, session {session}, "
                        f"trial {trial}, t={state.t:.6f}s: {exc}") from exc
                ua = outputs["u_adapt"].tolist()
                mag = math.sqrt(ua[0] ** 2 + ua[1] ** 2 + ua[2] ** 2)
                if mag > max_ua:
                    max_ua = mag
            state = arm_dynamics_step(
                plant, state, (u1 + ua[0], u2 + ua[1], u3 + ua[2]), cfg.dt)
            x, jac = forward_kinematics(nominal, state.q)
            err_acc += math.hypot(x[0] - target[0], x[1] - target[1])
            if trajectory is not None and i % traj_every == 0:
                trajectory.append((state.t, *state.q, x[0], x[1],
                                   u1 + ua[0], u2 + ua[1], u3 + ua[2],
                                   ua[0], ua[1], ua[2]))
        records.append(TrialRecord(session, trial, controller, err_acc / n_steps))
    return SessionResult(records=records, max_u_adapt=max_ua)


def _check_controller(controller):
    if controller not in CONTROLLERS:
        raise ValueError(f"unknown arm controller {controller!r}; "
                         f"choose one of {', '.join(CONTROLLERS)}")


def run_reach_experiment(cfg: ArmConfig, task: ReachTask, controller, seed,
                         trajectory=None):
    """Per-session runs of one controller; adaptive controllers get a fresh
    network (new tuning draws, zero decoders) each session.

    The non-neural controllers consume no randomness, so their sessions are
    bit-identical repeats; session 0 is simulated and the rest replicated.
    An unknown controller or a reach shorter than half a step raises
    ValueError.
    """
    _check_controller(controller)
    if round(task.duration / cfg.dt) < 1:
        raise ValueError(f"reach_duration {task.duration!r} s rounds to no step "
                         f"of dt = {cfg.dt!r} s")
    adaptive = controller in (ADAPTIVE_REFERENCE, ADAPTIVE_FIXED)
    results = []
    for session in range(task.n_sessions):
        if not adaptive and session > 0:
            first = results[0]
            results.append(SessionResult(
                records=[TrialRecord(session, r.trial, r.controller, r.error_raw)
                         for r in first.records],
                max_u_adapt=first.max_u_adapt))
            continue
        sim = None
        if adaptive:
            session_seed = int(stream(seed, "arm", "session", session)
                               .integers(0, 2 ** 63))
            net = build_adaptive_net(cfg, seed=session_seed)
            backend = REFERENCE if controller == ADAPTIVE_REFERENCE else FIXED_POINT
            model = compile_graph(net, backend=backend, seed=session_seed,
                                  qspec=cfg.qspec)
            sim = Simulator(model)
        results.append(_run_session(cfg, task, controller, session, sim=sim,
                                    trajectory=trajectory))
    return results


def run_arm_protocol(cfg: ArmConfig, task: ReachTask, seed,
                     controllers=CONTROLLERS, trajectory=None):
    """Run every controller under matching seeds/targets and normalize errors.

    Percent error is 100*(E - E0)/(E1 - E0) per (session, trial) against the
    PD baselines: E0 = PD without payload (0% by construction), E1 = PD with
    payload (100%).  Baselines are always run, whether or not requested.
    A diverging adaptive session raises DivergedLearningError.  Returns the
    records and {controller: its SessionResults}.
    """
    needed = list(dict.fromkeys([PD_NOLOAD, PD_LOAD] + list(controllers)))
    for c in needed:  # before any session runs
        _check_controller(c)
    sessions = {c: run_reach_experiment(cfg, task, c, seed, trajectory=trajectory)
                for c in needed}
    e0 = {(r.session, r.trial): r.error_raw
          for s in sessions[PD_NOLOAD] for r in s.records}
    e1 = {(r.session, r.trial): r.error_raw
          for s in sessions[PD_LOAD] for r in s.records}
    records = []
    for c in needed:
        for s in sessions[c]:
            for r in s.records:
                key = (r.session, r.trial)
                denom = e1[key] - e0[key]
                r.error_pct = 100.0 * (r.error_raw - e0[key]) / denom
                records.append(r)
    return records, sessions
