import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from nefsim import build
from nefsim import graph as gr
from nefsim.build import (
    DEFAULT_REG,
    FIXED_POINT,
    REFERENCE,
    activity_matrix,
    compile_graph,
    default_eval_count,
    fold_weights,
    lower,
    sample_encoders,
    sample_eval_points,
    solve_decoders,
)
from nefsim.engine import Simulator
from nefsim.errors import BuildError, ShapeMismatchError, SingularSystemError
from nefsim.neurons import QuantizationSpec, rate
from nefsim.rover import RoverNetConfig, compile_rover_net
from nefsim.seeding import stream
from tests.conftest import channel_graph, learning_graph


def rate_ensemble(n=100, dims=1, seed=0, **kwargs):
    g = gr.ModelGraph()
    g.add_ensemble(gr.Ensemble("ens", n_neurons=n, dimensions=dims,
                               neuron_model="rate_lif", seed=seed, **kwargs))
    return compile_graph(g, seed=0).ensemble("ens")


class TestSampling:
    def test_encoders_1d_signs(self, rng):
        E = sample_encoders(200, 1, rng)
        assert set(np.unique(E)) <= {-1.0, 1.0}

    def test_encoders_unit_norm(self, rng):
        E = sample_encoders(500, 5, rng)
        assert np.allclose(np.linalg.norm(E, axis=1), 1.0, atol=1e-12)

    def test_encoders_concentration(self):
        E = sample_encoders(10000, 3, stream(0, "enc"))
        assert np.linalg.norm(E.mean(axis=0)) < 0.05

    def test_encoders_deterministic(self):
        a = sample_encoders(50, 4, stream(9, "enc"))
        b = sample_encoders(50, 4, stream(9, "enc"))
        assert np.array_equal(a, b)

    def test_eval_points_ball_fraction(self):
        pts = sample_eval_points(100000, 2, 1.0, stream(0, "pts"))
        frac = np.mean(np.linalg.norm(pts, axis=1) <= 0.5)
        assert frac == pytest.approx(0.25, abs=0.01)

    def test_eval_points_zero_radius(self, rng):
        pts = sample_eval_points(10, 3, 0.0, rng)
        assert np.allclose(pts, 0.0)

    def test_eval_points_deterministic(self):
        a = sample_eval_points(64, 2, 2.0, stream(3, "pts"))
        b = sample_eval_points(64, 2, 2.0, stream(3, "pts"))
        assert np.array_equal(a, b)


class TestActivityMatrix:
    def test_zero_rows_below_intercepts(self):
        ens = rate_ensemble(n=50, intercept_range=(0.2, 0.9))
        A = activity_matrix(ens, np.zeros((3, 1)))
        assert np.all(A == 0.0)

    def test_single_neuron_hits_max_rate(self):
        g = gr.ModelGraph()
        g.add_ensemble(gr.Ensemble("ens", n_neurons=1, dimensions=1,
                                   neuron_model="rate_lif",
                                   max_rate_range=(200.0, 200.0000001),
                                   intercept_range=(0.0, 1e-9), seed=1))
        ens = compile_graph(g, seed=0).ensemble("ens")
        x = np.array([[1.0 if ens.encoders[0, 0] > 0 else -1.0]])
        assert activity_matrix(ens, x)[0, 0] == pytest.approx(200.0, abs=1e-3)

    def test_nonnegative(self, rng):
        ens = rate_ensemble(n=80, dims=2)
        A = activity_matrix(ens, rng.uniform(-1, 1, (200, 2)))
        assert np.all(A >= 0.0)

    def test_equals_the_out_of_place_expression(self):
        rover = compile_rover_net(RoverNetConfig(n_neurons=512), REFERENCE, seed=0)
        g = gr.ModelGraph()
        g.add_ensemble(gr.Ensemble("relu", n_neurons=200, dimensions=2,
                                   neuron_model="rate_rectified_linear", seed=4,
                                   radius=1.7))
        relu = compile_graph(g, seed=0).ensemble("relu")
        relu.eval_points = sample_eval_points(400, 2, 1.7, stream(0, "pts"))
        for ens in rover.ensembles + [relu]:
            x = ens.eval_points
            expected = rate(ens.neuron_model,
                            ens.gain * (x @ ens.encoders.T) / ens.radius + ens.bias,
                            ens.params)
            assert np.array_equal(activity_matrix(ens, x), expected)


class TestSolveDecoders:
    def test_zero_targets(self, rng):
        A = rng.uniform(0, 100, (50, 10))
        d = solve_decoders(A, np.zeros((50, 2)), reg=0.1)
        assert np.allclose(d, 0.0)

    def test_scalar_hand_case(self):
        # one neuron, constant 100 Hz, target 0.5, no regularization
        A = np.full((20, 1), 100.0)
        d = solve_decoders(A, np.full((20, 1), 0.5), reg=0.0)
        assert d[0, 0] == pytest.approx(0.005, rel=1e-12)

    def test_identity_rmse_and_oracle(self):
        ens = rate_ensemble(n=100)
        pts = sample_eval_points(500, 1, 1.0, stream(0, "pts"))
        A = activity_matrix(ens, pts)
        d = solve_decoders(A, pts, reg=0.1)
        rmse = np.sqrt(np.mean((A @ d - pts) ** 2))
        assert rmse < 0.05
        # independent dense least-squares oracle on the stacked system
        sigma = 0.1 * A.max()
        stacked_A = np.vstack([A, np.sqrt(A.shape[0]) * sigma * np.eye(100)])
        stacked_y = np.vstack([pts, np.zeros((100, 1))])
        d_oracle = np.linalg.lstsq(stacked_A, stacked_y, rcond=None)[0]
        assert np.linalg.norm(d - d_oracle) <= 1e-9 * np.linalg.norm(d_oracle)

    def test_gradient_optimality(self):
        ens = rate_ensemble(n=60)
        pts = sample_eval_points(300, 1, 1.0, stream(1, "pts"))
        A = activity_matrix(ens, pts)
        d = solve_decoders(A, pts ** 2, reg=0.05)
        sigma = 0.05 * A.max()
        n = A.shape[0]
        grad = (2.0 / n) * (A.T @ (A @ d - pts ** 2)) + 2.0 * sigma ** 2 * d
        assert np.linalg.norm(grad) <= 1e-6 * np.linalg.norm(A.T @ pts ** 2)

    def test_singular_reported_not_hidden(self):
        A = np.zeros((10, 3))
        A[:, 0] = 1.0  # rank deficient
        with pytest.raises(SingularSystemError):
            solve_decoders(A, np.ones((10, 1)), reg=0.0)

    @staticmethod
    @st.composite
    def systems(draw):
        """(A, [Y1 | Y2], Y1's column count, reg): nonnegative activities of
        1-8 neurons at more points than neurons, 1-3 columns in each part."""
        n = draw(st.integers(1, 8))
        N = draw(st.integers(n + 1, n + 40))
        rates = st.one_of(st.just(0.0), st.floats(1e-3, 400.0))
        A = draw(hnp.arrays(np.float64, (N, n), elements=rates))
        k1, k2 = draw(st.integers(1, 3)), draw(st.integers(1, 3))
        Y = draw(hnp.arrays(np.float64, (N, k1 + k2), elements=st.floats(-1.0, 1.0)))
        return A, Y, k1, draw(st.floats(1e-3, 1.0))

    @settings(max_examples=300, deadline=None)
    @given(system=systems())
    def test_optimal_and_column_separable_on_generated_systems(self, system):
        A, Y, k1, reg = system
        assume(A.max() > 0)  # else sigma = 0: the singular case above
        d = solve_decoders(A, Y, reg)
        sigma = reg * A.max()
        grad = (2.0 / A.shape[0]) * (A.T @ (A @ d - Y)) + 2.0 * sigma ** 2 * d
        assert np.linalg.norm(grad) <= 1e-6 * np.linalg.norm(A.T @ Y)
        # Stacking targets only adds right-hand sides.  The forward error of
        # each solve is about cond(G) * eps, and cond(G) <= 1 + n / reg^2
        # <= 8e6 here, so 1e-6 leaves a margin of over 500.
        apart = np.hstack([solve_decoders(A, Y[:, :k1], reg),
                           solve_decoders(A, Y[:, k1:], reg)])
        assert np.linalg.norm(d - apart) <= 1e-6 * np.linalg.norm(apart)


class TestFoldWeights:
    def test_scalar_chain(self):
        W = fold_weights(np.array([[0.25]]), np.array([[1.0]]),
                         np.array([[0.5]]))
        assert W[0, 0] == pytest.approx(0.125)

    def test_zero_decoders(self):
        W = fold_weights(np.zeros((7, 2)), np.ones((3, 2)), np.ones((5, 3)))
        assert np.all(W == 0.0)

    def test_fold_equals_decode_transform_encode(self, rng):
        for _ in range(10):
            n_src, k, tgt_dims, n_tgt = rng.integers(2, 9, 4)
            d = rng.standard_normal((n_src, k))
            T = rng.standard_normal((tgt_dims, k))
            E = rng.standard_normal((n_tgt, tgt_dims))
            a = rng.uniform(0, 100, n_src)
            via_fold = fold_weights(d, T, E) @ a
            via_chain = E @ (T @ (d.T @ a))
            assert np.allclose(via_fold, via_chain, atol=1e-12 * max(1, np.abs(via_chain).max()))

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            fold_weights(np.zeros((5, 2)), np.zeros((3, 4)))


class TestCompile:
    def test_filter_coefficient(self):
        g = channel_graph(n_neurons=30, synapse=0.05)
        model = compile_graph(g, seed=0)
        conn = next(c for c in model.connections if c.id == "c_out")
        assert conn.alpha == pytest.approx(np.exp(-0.02), rel=1e-12)
        assert conn.alpha == pytest.approx(0.980199, abs=1e-6)

    def test_backends_share_build(self):
        ref = compile_graph(channel_graph(n_neurons=40), backend=REFERENCE, seed=7)
        fix = compile_graph(channel_graph(n_neurons=40), backend=FIXED_POINT, seed=7)
        e_r, e_f = ref.ensemble("ens"), fix.ensemble("ens")
        assert np.array_equal(e_r.encoders, e_f.encoders)
        assert np.array_equal(e_r.gain, e_f.gain)
        assert np.array_equal(e_r.bias, e_f.bias)
        for cr, cf in zip(ref.connections, fix.connections):
            assert np.array_equal(cr.weights, cf.weights)
            assert cf.quantized_weights is not None
            assert cr.quantized_weights is None

    def test_lowering_a_build_equals_compiling_for_the_backend(self):
        q = QuantizationSpec(weight_mantissa_bits=6)
        ref = compile_graph(channel_graph(n_neurons=40), seed=7, qspec=q)
        fix = compile_graph(channel_graph(n_neurons=40), FIXED_POINT, seed=7, qspec=q)
        lowered = lower(ref, FIXED_POINT, q)
        assert (lowered.backend, lowered.qspec) == (FIXED_POINT, q)
        assert ref.backend == REFERENCE  # lowering copies, the build stays as it was
        for cl, cf, cr in zip(lowered.connections, fix.connections, ref.connections):
            assert np.array_equal(cl.weights, cf.weights)
            assert np.array_equal(cl.quantized_weights, cf.quantized_weights)
            assert cl.weight_exponent == cf.weight_exponent
            assert cl.weights is cr.weights  # shared with the build, not copied
            assert cr.quantized_weights is None
        back = lower(lowered, REFERENCE)
        assert back.backend == REFERENCE
        for cb in back.connections:
            assert cb.quantized_weights is None and cb.weight_exponent == 0

    def test_lower_rejects_an_unknown_backend(self):
        ref = compile_graph(channel_graph(n_neurons=10), seed=0)
        with pytest.raises(BuildError, match="'loihi'"):
            lower(ref, "loihi")

    def test_simulating_a_lowering_leaves_the_build_unchanged(self):
        ref = compile_graph(learning_graph(n_neurons=40), seed=0)

        def arrays(model):
            return {(o.id, f.name): np.copy(getattr(o, f.name))
                    for o in model.ensembles + model.connections
                    for f in dataclasses.fields(o)
                    if isinstance(getattr(o, f.name), np.ndarray)}

        before = arrays(ref)
        sim = Simulator(lower(ref, FIXED_POINT))
        inputs = {"stim": (0.3, 0.1), "target": (0.5, -0.5)}
        outs = [sim.step(inputs)["out"] for _ in range(200)]
        assert np.any(outs[-1] != 0.0)  # the learned readout has moved off zero
        after = arrays(ref)
        assert before.keys() == after.keys()
        for key in before:
            assert np.array_equal(before[key], after[key]), key

    @staticmethod
    def decoded_graph():
        """One 1-d rate-LIF ensemble read by two decoded connections (identity
        and square) and a decoded probe."""
        g = gr.ModelGraph(dt=0.001)
        g.add_ensemble(gr.Ensemble("ens", n_neurons=40, dimensions=1,
                                   neuron_model="rate_lif", seed=1,
                                   intercept_range=(0.9, 0.99)))
        g.add_node(gr.NodeSpec("out", 1))
        g.connect(gr.ConnectionSpec("decode", "ens", "out"))
        g.add_probe(gr.ProbeSpec("p", "ens", gr.DECODED_OUTPUT))
        return g

    def test_one_decoder_solve_per_source_ensemble(self, monkeypatch):
        g = self.decoded_graph()
        g.add_node(gr.NodeSpec("out2", 1))
        g.connect(gr.ConnectionSpec("decode2", "ens", "out2", function=lambda v: v ** 2))
        calls = []
        solve = build.solve_decoders
        monkeypatch.setattr(build, "solve_decoders",
                            lambda A, Y, reg: calls.append(Y.shape) or solve(A, Y, reg))
        pts = np.linspace(-1.0, 1.0, 101)[:, None]
        model = compile_graph(g, seed=0, eval_points={"ens": pts})
        assert calls == [(101, 3)]
        # each part matches its own solve (tolerance as in the property test)
        A = activity_matrix(model.ensemble("ens"), pts)
        decoders = {c.id: c.weights.T for c in model.connections}
        decoders["p"] = model.ensemble("ens").identity_decoders
        for part, Y in (("decode", pts), ("decode2", pts ** 2), ("p", pts)):
            alone = solve(A, Y, DEFAULT_REG)
            assert np.linalg.norm(decoders[part] - alone) <= 1e-6 * np.linalg.norm(alone)

    def test_singular_solve_names_the_ensemble(self):
        # intercepts above every eval point: all activities are zero
        pts = np.linspace(-0.5, 0.5, 50)[:, None]
        with pytest.raises(BuildError, match="ensemble 'ens'.*'decode'"):
            compile_graph(self.decoded_graph(), seed=0, reg=0.0,
                          eval_points={"ens": pts})

    def test_invalid_graph_rejected(self):
        g = gr.ModelGraph()
        g.add_ensemble(gr.Ensemble("a", n_neurons=0, dimensions=1))
        with pytest.raises(BuildError):
            compile_graph(g)

    def test_learned_connection_zero_decoders(self):
        from tests.conftest import learning_graph
        model = compile_graph(learning_graph(n_neurons=30), seed=0)
        conn = next(c for c in model.connections if c.id == "c_learn")
        assert conn.learned
        assert np.all(conn.decoders == 0.0)
        assert np.all(conn.weights == 0.0)

    def test_explicit_ensemble_seed_pins_encoders(self):
        def enc(seed, compile_seed):
            g = gr.ModelGraph()
            g.add_ensemble(gr.Ensemble("e", 20, 2, seed=seed))
            return compile_graph(g, seed=compile_seed).ensemble("e").encoders

        assert np.array_equal(enc(5, 0), enc(5, 0))

    def test_accuracy_scales_with_n(self):
        def median_rmse(n):
            vals = []
            for seed in range(10):
                ens = rate_ensemble(n=n, seed=seed)
                pts = sample_eval_points(default_eval_count(n), 1, 1.0,
                                         stream(seed, "pts"))
                A = activity_matrix(ens, pts)
                d = solve_decoders(A, pts, reg=0.1)
                vals.append(np.sqrt(np.mean((A @ d - pts) ** 2)))
            return np.median(vals)

        r10, r100, r1000 = median_rmse(10), median_rmse(100), median_rmse(1000)
        assert r1000 < r100 < r10


class TestBuildMemory:
    def test_peak_holds_one_activity_matrix_and_no_gram_copies(self):
        """Two decoded 1024-neuron ensembles: the build's traced peak stays
        below one activity matrix (plus half again) and two Gram matrices."""
        n = 1024
        g = gr.ModelGraph(dt=0.001)
        g.add_node(gr.NodeSpec("in", 1, gr.EXTERNAL_INPUT))
        g.add_node(gr.NodeSpec("out", 1, gr.EXTERNAL_OUTPUT))
        g.add_ensemble(gr.Ensemble("a", n_neurons=n, dimensions=1, seed=1))
        g.add_ensemble(gr.Ensemble("b", n_neurons=n, dimensions=1, seed=2))
        g.connect(gr.ConnectionSpec("c_in", "in", "a", synapse=None))
        g.connect(gr.ConnectionSpec("c_ab", "a", "b", synapse=0.005))
        g.connect(gr.ConnectionSpec("c_out", "b", "out", synapse=0.01))
        activity_bytes = default_eval_count(n) * n * 8
        gram_bytes = n * n * 8
        tracemalloc.start()
        try:
            compile_graph(g, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak > activity_bytes  # numpy's buffers are traced
        assert peak < 1.5 * activity_bytes + 2 * gram_bytes
