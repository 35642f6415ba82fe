import numpy as np
import pytest

from nefsim import graph as gr
from nefsim.build import FIXED_POINT, REFERENCE, compile_graph
from nefsim.engine import Simulator, adapt_signal, pes_delta, pes_update
from nefsim.errors import DivergedLearningError, NonFiniteSignalError
from nefsim.neurons import ALL_MODELS, lif_rate
from tests.conftest import channel_graph, learning_graph


class TestPureOps:
    def test_adapt_signal_zero_decoders(self):
        assert np.all(adapt_signal(np.ones(5), np.zeros((5, 3))) == 0.0)

    def test_adapt_signal_hand_product(self):
        u = adapt_signal([10.0, 20.0], [[0.01, 0.0], [0.0, 0.02]])
        assert np.allclose(u, [0.1, 0.4])

    def test_adapt_signal_silent(self):
        assert np.all(adapt_signal(np.zeros(4), np.ones((4, 2))) == 0.0)

    def test_pes_no_activity_no_update(self):
        d = np.ones((3, 2))
        assert np.array_equal(pes_update(d, np.zeros(3), [1.0, 1.0], 1e-2, 1e-3, 3), d)

    def test_pes_no_error_no_update(self):
        d = np.ones((3, 2))
        assert np.array_equal(pes_update(d, np.ones(3), [0.0, 0.0], 1e-2, 1e-3, 3), d)

    def test_pes_hand_outer_product(self):
        # kappa*dt/n = 1e-4 -> delta = -1e-4 * a (x) u
        delta = pes_delta([10.0, 20.0], [0.5], learning_rate=0.2, dt=0.001,
                          n_neurons=2)
        assert np.allclose(delta, [[-5e-4], [-1e-3]])

    def test_pes_descent_under_stability_bound(self):
        # with fixed a and u = a^T d - y*, the error contracts exactly by
        # (1 - eta*|a|^2) per step whenever eta*|a|^2 < 2
        rng = np.random.default_rng(0)
        a = rng.uniform(0, 100, 40)
        y_star = np.array([0.7, -0.2])
        d = np.zeros((40, 2))
        eta_a2 = 1e-2 * 1e-3 / 40 * np.dot(a, a)
        assert eta_a2 < 2.0
        err_prev = np.linalg.norm(a @ d - y_star)
        for _ in range(200):
            u = a @ d - y_star
            d = pes_update(d, a, u, 1e-2, 1e-3, 40)
            err = np.linalg.norm(a @ d - y_star)
            assert err <= err_prev + 1e-12
            err_prev = err
        assert err_prev < 0.01 * np.linalg.norm(y_star)

    def test_pes_unstable_above_bound(self):
        a = np.full(10, 200.0)
        n = 10
        kappa = 2.5 * n / (1e-3 * np.dot(a, a))  # eta*|a|^2 = 2.5
        d = np.zeros((10, 1))
        y_star = np.array([1.0])
        errs = []
        for _ in range(10):
            u = a @ d - y_star
            d = pes_update(d, a, u, kappa, 1e-3, n)
            errs.append(abs((a @ d - y_star)[0]))
        assert errs[-1] > errs[0]


class TestStep:
    def test_zero_input_zero_bias_network_stays_silent(self):
        g = gr.ModelGraph()
        g.add_node(gr.NodeSpec("in", 1, gr.EXTERNAL_INPUT))
        g.add_node(gr.NodeSpec("out", 1, gr.EXTERNAL_OUTPUT))
        g.add_ensemble(gr.Ensemble("ens", n_neurons=40, dimensions=1,
                                   neuron_model="spiking_rectified_linear",
                                   intercept_range=(0.0, 0.5), seed=2))
        g.connect(gr.ConnectionSpec("ci", "in", "ens"))
        g.connect(gr.ConnectionSpec("co", "ens", "out", synapse=0.01))
        sim = Simulator(compile_graph(g, seed=0))
        for _ in range(300):
            out = sim.step({"in": (0.0,)})
            assert np.all(out["out"] == 0.0)

    def test_constant_representation(self):
        g = channel_graph(n_neurons=500, synapse=0.01)
        g.add_probe(gr.ProbeSpec("p", "out", gr.DECODED_OUTPUT))
        sim = Simulator(compile_graph(g, seed=0))
        vals = [sim.step({"in": (0.5,)})["out"][0] for _ in range(1000)]
        settled = np.array(vals[500:])
        assert abs(settled.mean() - 0.5) < 0.05

    def test_missing_input_rejected(self):
        sim = Simulator(compile_graph(channel_graph(n_neurons=20), seed=0))
        with pytest.raises(NonFiniteSignalError):
            sim.step({})

    def test_non_finite_input_rejected(self):
        sim = Simulator(compile_graph(channel_graph(n_neurons=20), seed=0))
        with pytest.raises(NonFiniteSignalError):
            sim.step({"in": (float("nan"),)})

    @pytest.mark.parametrize("backend", [REFERENCE, FIXED_POINT])
    def test_huge_finite_input_rejected(self, backend):
        # the input is finite, but the current gain * input is not
        sim = Simulator(compile_graph(channel_graph(n_neurons=20), backend=backend, seed=0))
        with pytest.raises(NonFiniteSignalError, match="ensemble 'ens'"):
            for _ in range(3):
                sim.step({"in": (1e307,)})

    def test_bit_identical_reruns(self):
        def run_once():
            g = channel_graph(n_neurons=80)
            g.add_probe(gr.ProbeSpec("p", "out", gr.DECODED_OUTPUT))
            sim = Simulator(compile_graph(g, seed=11))
            tables = sim.run(lambda t, out: {"in": (np.sin(8 * t),)}, 0.3)
            return tables["p"].values.tobytes()

        assert run_once() == run_once()

    def test_filtered_chain_through_passthrough_node(self):
        # the filter of mid -> out is fed from mid's start-of-step value,
        # although nothing else reads mid before the output pass
        g = gr.ModelGraph()
        g.add_node(gr.NodeSpec("in", 1, gr.EXTERNAL_INPUT))
        g.add_node(gr.NodeSpec("mid", 1, gr.PASSTHROUGH))
        g.add_node(gr.NodeSpec("out", 1, gr.EXTERNAL_OUTPUT))
        g.add_ensemble(gr.Ensemble("ens", n_neurons=300, dimensions=1, seed=5))
        g.connect(gr.ConnectionSpec("c_in", "in", "ens"))
        g.connect(gr.ConnectionSpec("c_mid", "ens", "mid", synapse=0.01))
        g.connect(gr.ConnectionSpec("c_out", "mid", "out", synapse=0.01))
        sim = Simulator(compile_graph(g, seed=0))
        vals = [sim.step({"in": (0.5,)})["out"][0] for _ in range(600)]
        assert abs(np.mean(vals[300:]) - 0.5) < 0.05

    @pytest.mark.parametrize("backend", [REFERENCE, FIXED_POINT])
    def test_reset_restores_initial_state(self, backend):
        # on fixed, the learned weights are requantized every step and must
        # come back to their compiled values
        sim = Simulator(compile_graph(learning_graph(n_neurons=40), backend=backend,
                                      seed=0))
        inputs = {"stim": (0.3, 0.1), "target": (0.5, -0.5)}
        first = [sim.step(inputs)["out"].copy() for _ in range(100)]
        sim.reset()
        second = [sim.step(inputs)["out"].copy() for _ in range(100)]
        assert np.array_equal(np.array(first), np.array(second))


def pair_graph(model, members, link=None):
    """Ensembles `members` of one model, each (id, size, seed) driven by its
    own input node and read by its own output node, with a raster and a
    decoded-output probe each; `link` (source, target) adds an unfiltered
    connection between two of them."""
    g = gr.ModelGraph(dt=0.001)
    for eid, n, seed in members:
        g.add_node(gr.NodeSpec(f"in_{eid}", 1, gr.EXTERNAL_INPUT))
        g.add_node(gr.NodeSpec(f"out_{eid}", 1, gr.EXTERNAL_OUTPUT))
        g.add_ensemble(gr.Ensemble(eid, n_neurons=n, dimensions=1,
                                   neuron_model=model, seed=seed))
        g.connect(gr.ConnectionSpec(f"c_in_{eid}", f"in_{eid}", eid))
        g.connect(gr.ConnectionSpec(f"c_out_{eid}", eid, f"out_{eid}", synapse=0.01))
        g.add_probe(gr.ProbeSpec(f"spk_{eid}", eid, gr.SPIKE_RASTER))
        g.add_probe(gr.ProbeSpec(f"dec_{eid}", eid, gr.DECODED_OUTPUT))
    if link is not None:
        g.connect(gr.ConnectionSpec("c_link", *link))
    return g


class TestGroups:
    """Consecutive ensembles of one model take one neuron update."""

    @pytest.mark.parametrize("backend", [REFERENCE, FIXED_POINT])
    @pytest.mark.parametrize("model", ALL_MODELS)
    def test_members_step_as_if_each_ran_alone(self, model, backend):
        members = (("a", 37, 4), ("b", 50, 9))
        drives = {"a": lambda t: 0.9 * np.sin(9 * t), "b": lambda t: np.cos(5 * t)}

        def run(ms):
            sim = Simulator(compile_graph(pair_graph(model, ms), backend=backend, seed=2))
            outs = [sim.step({f"in_{e}": (drives[e](i * sim.dt),) for e, _, _ in ms})
                    for i in range(200)]
            return sim, outs, sim.probe_tables()

        together, outs, tables = run(members)
        assert [len(m) for _, _, m, _ in together._groups] == [2]
        for member in members:
            eid = member[0]
            _, outs_alone, alone = run([member])
            assert np.any(tables[f"dec_{eid}"].values != 0.0)
            for pid in (f"spk_{eid}", f"dec_{eid}"):
                assert tables[pid].values.tobytes() == alone[pid].values.tobytes(), pid
            assert all(o[f"out_{eid}"].tobytes() == a[f"out_{eid}"].tobytes()
                       for o, a in zip(outs, outs_alone))

    @pytest.mark.parametrize("backend", [REFERENCE, FIXED_POINT])
    def test_unfiltered_chain_is_not_merged(self, backend):
        # b reads a's new activity, so it must be stepped after a
        g = pair_graph("rate_rectified_linear", (("a", 30, 1), ("b", 20, 2)),
                       link=("a", "b"))
        sim = Simulator(compile_graph(g, backend=backend, seed=0))
        first = []
        for drive in (0.9, -0.9):
            sim.reset()
            sim.step({"in_a": (drive,), "in_b": (0.0,)})
            first.append(sim.last_activity("b").copy())
        assert not np.array_equal(*first)

    @pytest.mark.parametrize("backend", [REFERENCE, FIXED_POINT])
    def test_reader_listed_before_its_source_reads_the_previous_step(self, backend):
        # a reads b, which steps after it: a's first step sees b's zero start
        g = pair_graph("rate_rectified_linear", (("a", 30, 1), ("b", 20, 2)),
                       link=("b", "a"))
        sim = Simulator(compile_graph(g, backend=backend, seed=0))
        runs = []
        for drive in (0.9, -0.9):
            sim.reset()
            runs.append([])
            for _ in range(2):
                sim.step({"in_a": (0.2,), "in_b": (drive,)})
                runs[-1].append(sim.last_activity("a").copy())
        assert np.array_equal(runs[0][0], runs[1][0])
        assert not np.array_equal(runs[0][1], runs[1][1])  # then it reads b's

    @pytest.mark.parametrize("backend", [REFERENCE, FIXED_POINT])
    def test_non_finite_current_names_its_member(self, backend):
        g = pair_graph("lif", (("a", 20, 1), ("b", 20, 2)))
        sim = Simulator(compile_graph(g, backend=backend, seed=0))
        with pytest.raises(NonFiniteSignalError, match="ensemble 'b'"):
            with np.errstate(over="ignore", invalid="ignore"):
                sim.step({"in_a": (0.5,), "in_b": (1e307,)})


class TestRun:
    def test_zero_duration_empty_tables(self):
        g = channel_graph(n_neurons=20)
        g.add_probe(gr.ProbeSpec("p", "out", gr.DECODED_OUTPUT))
        tables = Simulator(compile_graph(g, seed=0)).run(
            lambda t, out: {"in": (0.0,)}, 0.0)
        assert len(tables["p"]) == 0

    def test_row_counting(self):
        g = channel_graph(n_neurons=20)
        g.add_probe(gr.ProbeSpec("p", "out", gr.DECODED_OUTPUT,
                                 sample_every=0.001))
        g.add_probe(gr.ProbeSpec("p10", "out", gr.DECODED_OUTPUT,
                                 sample_every=0.01))
        for duration, n in ((1.0, 1000), (0.1, 100)):
            tables = Simulator(compile_graph(g, seed=0)).run(
                lambda t, out: {"in": (0.1,)}, duration)
            assert len(tables["p"]) == n
            assert len(tables["p10"]) == n // 10

    def test_raster_probe_counts_match_rate(self):
        g = channel_graph(n_neurons=100, synapse=0.01)
        g.add_probe(gr.ProbeSpec("spikes", "ens", gr.SPIKE_RASTER))
        sim = Simulator(compile_graph(g, seed=4))
        tables = sim.run(lambda t, out: {"in": (0.8,)}, 2.0)
        counts = tables["spikes"].values[1000:].sum(axis=0)  # settled window
        ens = sim.model.ensemble("ens")
        J = ens.gain * (0.8 * ens.encoders[:, 0]) + ens.bias
        expected = lif_rate(J, ens.params)
        tol = np.maximum(2.0, 0.05 * expected)
        assert np.all(np.abs(counts - expected) <= tol)


class TestProbes:
    @pytest.mark.parametrize("backend", [REFERENCE, FIXED_POINT])
    def test_unfiltered_probes_record_their_signal(self, backend):
        # a decoded-output probe records the activity through the identity
        # decoders; a raster probe on a rate ensemble its pseudo-counts
        g = channel_graph(n_neurons=30, seed=2)
        g.add_ensemble(gr.Ensemble("rate", n_neurons=25, dimensions=1,
                                   neuron_model="rate_lif", seed=3))
        g.connect(gr.ConnectionSpec("c_rate", "in", "rate"))
        g.add_probe(gr.ProbeSpec("dec", "ens", gr.DECODED_OUTPUT, sample_every=0.002))
        g.add_probe(gr.ProbeSpec("dec_rate", "rate", gr.DECODED_OUTPUT, sample_every=0.003))
        g.add_probe(gr.ProbeSpec("raster", "rate", gr.SPIKE_RASTER))
        sim = Simulator(compile_graph(g, backend=backend, seed=0))
        expected = {"dec": ([], []), "dec_rate": ([], []), "raster": ([], [])}
        for i in range(1, 61):
            sim.step({"in": (np.sin(0.1 * i),)})
            for pid, eid, every in (("dec", "ens", 2), ("dec_rate", "rate", 3)):
                if i % every == 0:
                    expected[pid][0].append(sim.t)
                    expected[pid][1].append(
                        sim.last_activity(eid) @ sim.model.ensemble(eid).identity_decoders)
            expected["raster"][0].append(sim.t)
            expected["raster"][1].append(sim.last_activity("rate") * sim.dt)
        tables = sim.probe_tables()
        assert np.any(tables["dec"].values != 0.0)
        for pid, (times, rows) in expected.items():
            assert tables[pid].times.tobytes() == np.array(times).tobytes(), pid
            assert tables[pid].values.tobytes() == np.array(rows).tobytes(), pid


class TestFilters:
    def test_dc_gain_unity(self):
        # constant signal through any synapse converges to itself
        g = gr.ModelGraph()
        g.add_node(gr.NodeSpec("in", 1, gr.EXTERNAL_INPUT))
        g.add_node(gr.NodeSpec("out", 1, gr.EXTERNAL_OUTPUT))
        g.connect(gr.ConnectionSpec("c", "in", "out", synapse=0.02))
        sim = Simulator(compile_graph(g, seed=0))
        val = None
        for i in range(int(5 * 0.02 / 0.001)):
            val = sim.step({"in": (0.7,)})["out"][0]
        assert abs(val - 0.7) <= 0.01 * 0.7


def settled_relative_error(g, backend):
    """Mean output error of a learning_graph over the last 500 of 10000 steps,
    relative to the target's norm."""
    sim = Simulator(compile_graph(g, backend=backend, seed=0))
    target = np.array([0.3, -0.2])
    inputs = {"stim": (0.4, 0.1), "target": target}
    errs = [np.linalg.norm(sim.step(inputs)["out"] - target)
            for _ in range(10000)]
    return np.mean(errs[-500:]) / np.linalg.norm(target)


class TestLearning:
    @pytest.mark.parametrize("backend", [REFERENCE, FIXED_POINT])
    @pytest.mark.parametrize("transform", [
        np.eye(2),
        # eigenvalues 0.95 +- 0.24j: positive real parts, so PES still descends
        np.array([[1.0, 0.3], [-0.2, 0.9]]),
    ], ids=["eye", "mixed"])
    def test_closed_loop_convergence(self, transform, backend):
        assert settled_relative_error(learning_graph(transform=transform), backend) <= 0.1

    @pytest.mark.parametrize("backend", [REFERENCE, FIXED_POINT])
    def test_error_from_a_connection(self, backend):
        # the error is the output of an unfiltered connection err -> sink
        # rather than the value of the err node
        g = learning_graph()
        g.add_node(gr.NodeSpec("sink", 2, gr.PASSTHROUGH))
        g.connect(gr.ConnectionSpec("c_err", "err", "sink", synapse=None))
        g.connection("c_learn").learning.error_source = "c_err"
        assert settled_relative_error(g, backend) <= 0.1

    @pytest.mark.parametrize("backend", [REFERENCE, FIXED_POINT])
    def test_output_error_node_learns_like_a_passthrough_one(self, backend):
        # a PES rule reads its error node's start-of-step value also when the
        # node is an external output; the varying target would show a stale one
        def outputs(kind):
            g = learning_graph(n_neurons=50)
            g.node("err").kind = kind
            sim = Simulator(compile_graph(g, backend=backend, seed=0))
            return np.array([
                sim.step({"stim": (0.4, 0.1), "target": (0.3 * np.cos(0.01 * i), -0.2)})["out"]
                for i in range(300)])

        passthrough = outputs(gr.PASSTHROUGH)
        assert np.all(passthrough[-1] != 0.0)
        assert np.array_equal(outputs(gr.EXTERNAL_OUTPUT), passthrough)

    def test_divergence_guard(self):
        g = learning_graph(n_neurons=50, kappa=1e6)
        sim = Simulator(compile_graph(g, seed=0))
        inputs = {"stim": (0.4, 0.1), "target": (1.0, 1.0)}
        with pytest.raises(DivergedLearningError):
            for _ in range(5000):
                sim.step(inputs)

    def test_run_stamps_errors_with_time(self):
        g = learning_graph(n_neurons=50, kappa=1e6)
        sim = Simulator(compile_graph(g, seed=0))
        with pytest.raises(DivergedLearningError, match="t="):
            sim.run(lambda t, out: {"stim": (0.4, 0.1), "target": (1.0, 1.0)},
                    5.0)

    def test_rate_vs_spiking_channel_consistency(self):
        # replacing spiking neurons by their rate models moves the settled
        # output by under 2%
        outs = {}
        for model in ("lif", "rate_lif"):
            g = channel_graph(n_neurons=400, seed=6, neuron_model=model,
                              synapse=0.02)
            sim = Simulator(compile_graph(g, seed=6))
            vals = [sim.step({"in": (0.6,)})["out"][0] for _ in range(1200)]
            outs[model] = np.mean(vals[600:])
        assert abs(outs["lif"] - outs["rate_lif"]) <= 0.02 * abs(outs["rate_lif"])


class TestFixedPointBackend:
    def test_settled_outputs_agree_within_bound(self):
        sims = {}
        for backend in ("reference", FIXED_POINT):
            g = channel_graph(n_neurons=300, seed=8, synapse=0.02)
            sims[backend] = Simulator(compile_graph(g, backend=backend, seed=8))
        settled = {}
        for backend, sim in sims.items():
            vals = [sim.step({"in": (0.5,)})["out"][0] for _ in range(1500)]
            settled[backend] = np.mean(vals[700:])
        # per-model bound from the quantization step sizes: decoder rounding
        # times the top rate, plus the rate shift from the per-neuron current
        # grid propagated through the decoders
        model = sims[FIXED_POINT].model
        conn = next(c for c in model.connections if c.id == "c_out")
        ens = model.ensemble("ens")
        d = conn.weights[0]
        dq = conn.quantized_weights[0]
        max_rate = 1.0 / ens.params.tau_ref
        J = ens.gain * (0.5 * ens.encoders[:, 0]) + ens.bias
        dJ = np.abs(J) / 127.0  # per-element mantissa grid half-steps bound
        # conservative slope bound: numerical derivative of the rate curve
        h = 1e-5
        drate = (lif_rate(J + h, ens.params) - lif_rate(J, ens.params)) / h
        bound = (np.abs(dq - d).sum() * max_rate
                 + np.abs(dq) @ (drate * dJ)
                 + 0.02)  # settling/ripple allowance
        assert abs(settled[FIXED_POINT] - settled["reference"]) <= bound
