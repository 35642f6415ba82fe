import math

import numpy as np
import pytest

from nefsim.arm import (
    ArmConfig,
    ArmModel,
    ArmState,
    ReachTask,
    arm_dynamics_step,
    coriolis_torque,
    forward_kinematics,
    gravity_torque,
    mass_matrix,
    normalize_feedback,
    osc_control,
    project_hypersphere,
    run_arm_protocol,
    run_reach_experiment,
    total_energy,
)
from nefsim.build import activity_matrix, compile_graph
from nefsim.errors import NonFiniteStateError
from nefsim.neurons import NeuronParams, solve_gain_bias
from nefsim import graph as gr


class TestKinematics:
    def test_straight_arm(self):
        m = ArmModel(lengths=(0.3, 0.3, 0.2))
        x, _ = forward_kinematics(m, (0.0, 0.0, 0.0))
        assert np.allclose(x, [0.8, 0.0])

    def test_rotated_quarter_turn(self):
        m = ArmModel(lengths=(0.3, 0.3, 0.2))
        x, _ = forward_kinematics(m, (math.pi / 2, 0.0, 0.0))
        assert np.allclose(x, [0.0, 0.8], atol=1e-12)

    def test_jacobian_matches_finite_differences(self, rng):
        m = ArmModel()
        h = 1e-7
        for _ in range(15):
            q = rng.uniform(-2, 2, 3)
            _, J = forward_kinematics(m, q)
            for j in range(3):
                qp, qm = q.copy(), q.copy()
                qp[j] += h
                qm[j] -= h
                fd = (forward_kinematics(m, qp)[0] - forward_kinematics(m, qm)[0]) / (2 * h)
                assert np.abs(fd - J[:, j]).max() < 1e-6


class TestDynamics:
    def test_equilibrium_under_exact_gravity_compensation(self):
        m = ArmModel()
        st = ArmState(q=(0.7, 0.5, 0.3), dq=(0.0, 0.0, 0.0))
        st2 = arm_dynamics_step(m, st, gravity_torque(m, st.q), 0.001)
        assert np.abs(np.array(st2.dq)).max() < 1e-12

    def test_horizontal_arm_falls(self):
        m = ArmModel()
        st = ArmState(q=(0.0, 0.0, 0.0), dq=(0.0, 0.0, 0.0))
        st2 = arm_dynamics_step(m, st, (0.0, 0.0, 0.0), 0.001)
        assert st2.dq[0] < 0.0  # gravity pulls the first joint down

    def test_passive_energy_audit(self):
        # pendulum release half a radian off the hanging pose, 10 s
        m = ArmModel()
        st = ArmState(q=(-math.pi / 2 + 0.5, 0.2, 0.1), dq=(0.0, 0.0, 0.0))
        e0 = total_energy(m, st.q, st.dq)
        drift = 0.0
        ke_peak = 0.0
        for _ in range(10000):
            st = arm_dynamics_step(m, st, (0.0, 0.0, 0.0), 0.001)
            e = total_energy(m, st.q, st.dq)
            drift = max(drift, abs(e - e0))
            ke_peak = max(ke_peak, e - total_energy(m, st.q, (0.0, 0.0, 0.0)))
        assert drift < 0.01 * ke_peak

    def test_gravity_hold_displacement(self):
        m = ArmModel()
        st = ArmState(q=(1.2, -0.7, -0.5), dq=(0.0, 0.0, 0.0))
        x0, _ = forward_kinematics(m, st.q)
        for _ in range(1000):
            st = arm_dynamics_step(m, st, gravity_torque(m, st.q), 0.001)
        x1, _ = forward_kinematics(m, st.q)
        assert np.linalg.norm(x1 - x0) < 1e-6

    def test_joint_limit_zero_velocity_stop(self):
        m = ArmModel(joint_limits=((-0.1, 0.1),) * 3)
        st = ArmState(q=(0.09, 0.0, 0.0), dq=(5.0, 0.0, 0.0))
        st = arm_dynamics_step(m, st, (0.0, 0.0, 0.0), 0.01)
        assert st.q[0] == 0.1
        assert st.dq[0] == 0.0

    def test_non_finite_torque_rejected(self):
        m = ArmModel()
        st = ArmState(q=(0.0, 0.0, 0.0), dq=(0.0, 0.0, 0.0))
        with pytest.raises(NonFiniteStateError):
            arm_dynamics_step(m, st, (float("inf"), 0.0, 0.0), 0.001)

    def test_payload_enters_mass_matrix(self):
        bare = ArmModel()
        loaded = ArmModel(payload_mass=1.0)
        q = (0.4, 0.5, 0.2)
        assert mass_matrix(loaded, q)[0, 0] > mass_matrix(bare, q)[0, 0]
        assert gravity_torque(loaded, q)[0] > gravity_torque(bare, q)[0]

    def test_coriolis_vanishes_at_rest(self):
        m = ArmModel()
        assert np.allclose(coriolis_torque(m, (0.3, 0.9, -0.4), (0, 0, 0)), 0.0)


PD_GAINS = ArmConfig(kp=30.0, kv=10.95)


def _osc(m, st, target, cfg=PD_GAINS, integral=None):
    x, J = forward_kinematics(m, st.q)
    return osc_control(m, st, x, J, target, cfg, integral=integral)


class TestOSC:
    def test_gravity_compensation_only_at_goal(self):
        m = ArmModel()
        q = (1.2, -0.7, -0.5)
        x, _ = forward_kinematics(m, q)
        st = ArmState(q=q, dq=(0.0, 0.0, 0.0))
        u, u_corrective, integral = _osc(m, st, x)
        assert np.allclose(u, gravity_torque(m, q), atol=1e-9)
        assert np.allclose(u_corrective, 0.0, atol=1e-9)
        assert integral is None

    def test_task_force_sign(self):
        # target left of the hand along +x: positive x task force before J^T
        m = ArmModel()
        q = (1.2, -0.7, -0.5)
        x, J = forward_kinematics(m, q)
        st = ArmState(q=q, dq=(0.0, 0.0, 0.0))
        u, u_corrective, _ = _osc(m, st, (x[0] + 0.2, x[1]))
        torque_task = np.array(u) - gravity_torque(m, q)
        assert np.allclose(torque_task, u_corrective)
        # recover the task force from the torques: J^T f = torque
        f, *_ = np.linalg.lstsq(J.T, torque_task, rcond=None)
        assert f[0] > 0.0
        assert abs(f[1]) < abs(f[0]) * 0.2

    def test_near_singular_pose_bounded(self):
        # straight-arm poses: torques stay finite and inside the frozen bound
        m = ArmModel()
        worst = 0.0
        for theta in np.linspace(-math.pi, math.pi, 49):
            st = ArmState(q=(theta, 1e-9, -1e-9), dq=(0.0, 0.0, 0.0))
            u, _, _ = _osc(m, st, (0.4, 0.0))
            assert np.all(np.isfinite(u))
            worst = max(worst, np.linalg.norm(u - gravity_torque(m, st.q)))
        assert worst < 5.0  # measured ~2.1 at kp=30 over the sweep

    def test_pid_reduces_to_pd_without_integral(self):
        m = ArmModel()
        st = ArmState(q=(1.0, -0.5, 0.3), dq=(0.2, -0.1, 0.0))
        u_pd, _, _ = _osc(m, st, (0.5, 0.2))
        u_pid, _, integral = _osc(m, st, (0.5, 0.2),
                                  cfg=ArmConfig(kp=30.0, kv=10.95, ki=0.0),
                                  integral=(0.0, 0.0))
        assert np.allclose(u_pd, u_pid)

    def test_integral_accumulates_error(self):
        m = ArmModel()
        st = ArmState(q=(1.0, -0.5, 0.3), dq=(0.0, 0.0, 0.0))
        x, _ = forward_kinematics(m, st.q)
        target = (x[0] + 0.1, x[1])
        cfg = ArmConfig(kp=30.0, kv=10.95, ki=5.0, windup=10.0, dt=0.001)
        integral = (0.0, 0.0)
        for _ in range(1000):  # error held 1 s
            _, _, integral = _osc(m, st, target, cfg=cfg, integral=integral)
        assert integral[0] == pytest.approx(0.1, rel=1e-9)

    def test_integral_windup_clamp(self):
        m = ArmModel()
        st = ArmState(q=(1.0, -0.5, 0.3), dq=(0.0, 0.0, 0.0))
        x, _ = forward_kinematics(m, st.q)
        target = (x[0] + 1.0, x[1])
        cfg = ArmConfig(kp=30.0, kv=10.95, ki=5.0, windup=2.0, dt=0.001)
        integral = (0.0, 0.0)
        for _ in range(5000):
            _, _, integral = _osc(m, st, target, cfg=cfg, integral=integral)
        assert cfg.ki * integral[0] == pytest.approx(cfg.windup)


class TestFeedbackShaping:
    LIMITS = ((-math.pi, math.pi), (-2.0, 2.0), (-1.0, 3.0))

    def test_midpoints_map_to_zero(self):
        v = normalize_feedback((0.0, 0.0, 1.0), (0.0, 0.0, 0.0), self.LIMITS)
        assert np.allclose(v, 0.0)

    def test_upper_limits_map_to_one(self):
        v = normalize_feedback((math.pi, 2.0, 3.0), (0.0, 0.0, 0.0), self.LIMITS)
        assert np.allclose(v[:3], 1.0)

    def test_velocity_clip(self):
        v = normalize_feedback((0.0, 0.0, 1.0), (3.0, -5.0, 1.0), self.LIMITS,
                               vel_bound=2.0)
        assert v[3] == 1.0
        assert v[4] == -1.0
        assert v[5] == 0.5

    def test_projection_pole(self):
        out = project_hypersphere(np.zeros(6))
        assert np.allclose(out, [0, 0, 0, 0, 0, 0, 1])

    def test_projection_hand_value(self):
        out = project_hypersphere(np.array([0.6, 0.8]))
        assert np.allclose(out, [0.42426407, 0.56568542, 0.70710678], atol=1e-8)
        assert np.linalg.norm(out) == pytest.approx(1.0, abs=1e-12)

    def test_projection_unit_norm_batch(self, rng):
        v = rng.uniform(-1, 1, (100000, 6))
        out = project_hypersphere(v)
        assert np.abs(np.linalg.norm(out, axis=1) - 1.0).max() <= 1e-9

    def test_colinear_encoders_become_distinct(self):
        # encoders (0, 0.5) and (0, 1.0) lifted without the 1/sqrt(D) step
        e1 = np.array([0.0, 0.5, math.sqrt(1 - 0.25)])
        e2 = np.array([0.0, 1.0, 0.0])
        assert float(e1 @ e2) == pytest.approx(0.5)
        # and in generated tuning: identical responses in 2D, distinct in 3D
        params = NeuronParams()
        gain, bias = solve_gain_bias([200.0, 200.0], [-0.3, -0.3], params, "rate_lif")
        ramp = np.linspace(-1.0, 1.0, 101)
        ramp2 = np.column_stack([np.zeros_like(ramp), ramp])

        def rates(encoders, points):
            g = gr.ModelGraph()
            n, d = encoders.shape
            g.add_ensemble(gr.Ensemble(
                "e", n, d, neuron_model="rate_lif",
                fixed_tuning=gr.ExplicitTuning(encoders=encoders, gain=gain,
                                               bias=bias)))
            model = compile_graph(g, seed=0)
            return activity_matrix(model.ensemble("e"), points)

        flat = rates(np.array([[0.0, 1.0], [0.0, 1.0]]), ramp2)
        assert np.array_equal(flat[:, 0], flat[:, 1])
        lifted = rates(np.vstack([e1, e2]), project_hypersphere(ramp2))
        assert np.abs(lifted[:, 0] - lifted[:, 1]).max() > 10.0


class TestReachProtocol:
    def test_short_protocol_ordering_and_baselines(self):
        cfg = ArmConfig(kappa=3e-4)  # faster learning for the short check
        task = ReachTask(n_reaches=8, n_sessions=1)
        records, stats = run_arm_protocol(cfg, task, seed=0)
        by = {}
        for r in records:
            by.setdefault(r.controller, []).append(r)
        assert all(r.error_pct == 0.0 for r in by["pd_noload"])
        assert all(r.error_pct == pytest.approx(100.0) for r in by["pd_load"])
        pid_last = np.mean([r.error_pct for r in by["pid"][-3:]])
        adapt_last = np.mean([r.error_pct for r in by["adaptive_reference"][-3:]])
        assert adapt_last < pid_last < 100.0
        assert all(not s.diverged for s in stats["adaptive_reference"])
        assert all(s.max_u_adapt <= cfg.u_adapt_limit
                   for s in stats["adaptive_reference"])

    def test_trial_records_deterministic(self):
        cfg = ArmConfig()
        task = ReachTask(n_reaches=2, n_sessions=1, duration=1.0)
        a, _ = run_arm_protocol(cfg, task, seed=5)
        b, _ = run_arm_protocol(cfg, task, seed=5)
        assert [(r.session, r.trial, r.controller, r.error_raw, r.error_pct)
                for r in a] == \
               [(r.session, r.trial, r.controller, r.error_raw, r.error_pct)
                for r in b]

    def test_zero_payload_rejected(self):
        # the two PD baselines would coincide: every percent error divides by 0
        with pytest.raises(ValueError, match=r"payload_mass must be > 0, got 0\.0"):
            ArmConfig(payload_mass=0.0)

    def test_sub_step_reach_rejected(self):
        task = ReachTask(n_reaches=1, n_sessions=1, duration=0.0004)
        with pytest.raises(ValueError, match=r"reach_duration 0\.0004 s rounds to no step"):
            run_arm_protocol(ArmConfig(), task, seed=0)

    def test_unknown_controller_rejected(self):
        task = ReachTask(n_reaches=1, n_sessions=1, duration=0.01)
        choices = "choose one of pd_noload, pd_load, pid, adaptive_reference, adaptive_fixed"
        with pytest.raises(ValueError, match=f"'adaptive'; {choices}"):
            run_reach_experiment(ArmConfig(), task, "adaptive", seed=0)
        with pytest.raises(ValueError, match=f"'adaptive'; {choices}"):
            run_arm_protocol(ArmConfig(), task, seed=0, controllers=("adaptive",))

    def test_baseline_sessions_replicated_identically(self):
        cfg = ArmConfig()
        task = ReachTask(n_reaches=2, n_sessions=3, duration=1.0)
        records, _ = run_arm_protocol(cfg, task, seed=0,
                                      controllers=("pd_load",))
        by_session = {}
        for r in records:
            if r.controller == "pd_load":
                by_session.setdefault(r.session, []).append(r.error_raw)
        assert by_session[0] == by_session[1] == by_session[2]
