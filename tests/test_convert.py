import re

import numpy as np
import pytest

from nefsim.convert import (
    BIAS,
    INPUT,
    OUTPUT,
    SPIKING,
    SPIKING_QUANTIZED,
    ConversionConfig,
    DenseNetSpec,
    convert,
    fidelity_report,
    random_dense_net,
    rate_forward,
    read_net_file,
    write_net_file,
)
from nefsim.build import compile_graph
from nefsim.engine import Simulator
from nefsim.errors import ConfigError, ShapeMismatchError
from nefsim.seeding import stream


def toy_net(seed=0, sizes=(8, 16, 2)):
    return random_dense_net(sizes, stream(seed, "test", "net"))


class TestRateForward:
    def test_zero_weights_pass_bias(self):
        net = DenseNetSpec(
            sizes=(3, 4, 2),
            weights=[np.zeros((4, 3)), np.zeros((2, 4))],
            biases=[np.zeros(4), np.array([0.3, -0.7])],
        )
        assert np.allclose(rate_forward(net, np.ones(3)), [0.3, -0.7])

    def test_single_layer_relu_hidden(self):
        net = DenseNetSpec(
            sizes=(2, 2, 2),
            weights=[np.eye(2), np.eye(2)],
            biases=[np.zeros(2), np.zeros(2)],
        )
        assert np.allclose(rate_forward(net, np.array([1.0, -1.0])), [1.0, 0.0])

    def test_matches_independent_oracle(self, rng):
        net = toy_net()
        x = rng.uniform(-1, 1, (30, 8))
        h = x
        for l, (w, b) in enumerate(zip(net.weights, net.biases)):
            h = h @ w.T + b
            if l < net.n_layers - 1:
                h = np.maximum(h, 0.0)
        assert np.allclose(rate_forward(net, x), h, atol=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            rate_forward(toy_net(), np.zeros(5))

    def test_malformed_spec_rejected_on_construction(self):
        with pytest.raises(ShapeMismatchError, match=r"layer 2: weights \(4, 2\)"):
            DenseNetSpec(sizes=(3, 4, 2),
                         weights=[np.zeros((4, 3)), np.zeros((4, 2))],
                         biases=[np.zeros(4), np.zeros(2)])


class TestConvert:
    def test_graph_validates_and_compiles(self):
        graph = convert(toy_net(), ConversionConfig())
        model = compile_graph(graph, seed=0)
        assert [n.id for n in graph.nodes] == sorted([INPUT, BIAS, OUTPUT])
        assert graph.node(OUTPUT).dimensions == 2
        assert model.ensemble("layer1").n == 16

    def test_unknown_flavor_rejected(self):
        with pytest.raises(ValueError,
                           match="'quantized'; choose one of spiking, spiking_quantized"):
            ConversionConfig(flavor="quantized")

    def test_needs_a_hidden_layer(self):
        with pytest.raises(ShapeMismatchError, match="hidden layer"):
            convert(toy_net(sizes=(8, 2)), ConversionConfig())

    @staticmethod
    def assert_scaling_identity(sizes, inter_layer_tau):
        # swapping the spiking neurons for their rate model makes the
        # converted network reproduce the dense forward pass (after the
        # output and inter-layer filters settle), confirming the gain-s /
        # decode-1/s algebra through every layer
        net = toy_net(seed=3, sizes=sizes)
        graph = convert(net, ConversionConfig(scale_firing_rates=250.0,
                                              inter_layer_tau=inter_layer_tau))
        for ens in graph.ensembles:
            ens.neuron_model = "rate_rectified_linear"
        sim = Simulator(compile_graph(graph, seed=0))
        x = stream(4, "x").uniform(-1, 1, 8)
        inputs = {INPUT: x, BIAS: np.ones(1)}
        out = None
        for _ in range(300):
            out = sim.step(inputs)[OUTPUT]
        assert np.allclose(out, rate_forward(net, x), atol=1e-6)

    def test_scaling_identity_in_rate_mode(self):
        self.assert_scaling_identity((8, 16, 2), 0.0)

    @pytest.mark.parametrize("inter_layer_tau", [0.0, 0.005])
    def test_scaling_identity_in_rate_mode_two_hidden_layers(self, inter_layer_tau):
        self.assert_scaling_identity((8, 16, 12, 2), inter_layer_tau)

    def test_fidelity_at_standard_scale(self):
        net = toy_net()
        inputs = stream(1, "in").uniform(-1, 1, (20, 8))
        rep = fidelity_report(net, ConversionConfig(scale_firing_rates=400.0,
                                                    output_tau=0.01), inputs)
        assert rep.mean_abs_err < 0.05 * rep.output_range

    def test_underdriven_scale_is_worse(self):
        net = toy_net()
        inputs = stream(1, "in").uniform(-1, 1, (10, 8))
        errs = {}
        for s in (1.0, 400.0):
            rep = fidelity_report(net, ConversionConfig(scale_firing_rates=s,
                                                        output_tau=0.01), inputs)
            errs[s] = rep.mean_abs_err
        assert errs[1.0] > errs[400.0]

    def test_quantized_flavor_tracks_spiking(self):
        net = toy_net()
        inputs = stream(2, "in").uniform(-1, 1, (10, 8))
        reps = {
            flavor: fidelity_report(
                net, ConversionConfig(scale_firing_rates=400.0, output_tau=0.01,
                                      flavor=flavor), inputs)
            for flavor in (SPIKING, SPIKING_QUANTIZED)
        }
        band = 0.10 * reps[SPIKING].output_range
        assert reps[SPIKING_QUANTIZED].mean_abs_err >= reps[SPIKING].mean_abs_err - band
        assert reps[SPIKING_QUANTIZED].mean_abs_err < 0.05 * reps[SPIKING].output_range

    def test_report_layer_rates_in_band(self):
        net = toy_net()
        inputs = stream(1, "in").uniform(-1, 1, (10, 8))
        rep = fidelity_report(net, ConversionConfig(scale_firing_rates=400.0,
                                                    output_tau=0.01), inputs)
        assert 50.0 <= rep.layer_rates["layer1"] <= 1000.0

    def test_report_deterministic(self):
        net = toy_net()
        inputs = stream(1, "in").uniform(-1, 1, (5, 8))
        cfg = ConversionConfig(scale_firing_rates=400.0, output_tau=0.01)
        a = fidelity_report(net, cfg, inputs)
        b = fidelity_report(net, cfg, inputs)
        assert all(np.array_equal(ra.spike_out, rb.spike_out)
                   for ra, rb in zip(a.rows, b.rows))

    def test_zero_net_zero_error(self):
        net = DenseNetSpec(sizes=(2, 3, 1),
                           weights=[np.zeros((3, 2)), np.zeros((1, 3))],
                           biases=[np.zeros(3), np.zeros(1)])
        rep = fidelity_report(net, ConversionConfig(), np.zeros((3, 2)))
        assert rep.mean_abs_err == 0.0

    def test_argmax_preserved_on_confident_inputs(self):
        net = toy_net(seed=9, sizes=(6, 12, 3))
        inputs = stream(3, "in").uniform(-1, 1, (40, 6))
        rep = fidelity_report(net, ConversionConfig(scale_firing_rates=400.0,
                                                    output_tau=0.01), inputs)
        hits = total = 0
        for row in rep.rows:
            ranked = np.sort(row.rate_out)
            margin = ranked[-1] - ranked[-2]
            if margin > 0.1 * rep.output_range:
                total += 1
                hits += int(np.argmax(row.spike_out) == np.argmax(row.rate_out))
        assert total > 0
        assert hits / total >= 0.9


class TestErrorVsScale:
    def test_non_increasing_within_band(self):
        scales = (1.0, 10.0, 100.0, 400.0)
        errs = np.zeros(len(scales))
        for seed in range(3):
            net = toy_net(seed=seed)
            inputs = stream(seed, "in").uniform(-1, 1, (20, 8))
            for i, s in enumerate(scales):
                rep = fidelity_report(
                    net, ConversionConfig(scale_firing_rates=s, output_tau=0.01),
                    inputs)
                errs[i] += rep.mean_abs_err / 3.0
        for lo, hi in zip(errs[1:], errs[:-1]):
            assert lo <= hi * 1.10  # non-increasing within a 10% band
        assert errs[-1] < errs[0]


class TestNetFile:
    def test_round_trip(self, tmp_path, rng):
        net = toy_net(seed=5)
        path = tmp_path / "net.txt"
        write_net_file(net, path)
        back = read_net_file(path)
        assert back.sizes == net.sizes
        for w1, w2 in zip(net.weights, back.weights):
            assert np.array_equal(w1, w2)
        for b1, b2 in zip(net.biases, back.biases):
            assert np.array_equal(b1, b2)

    def test_sparse_entries_default_zero(self, tmp_path):
        path = tmp_path / "net.txt"
        path.write_text("layers: 2 2\nW 1 0 1 0.5\nb 1 1 -1.25\n")
        net = read_net_file(path)
        assert np.array_equal(net.weights[0], [[0.0, 0.5], [0.0, 0.0]])
        assert np.array_equal(net.biases[0], [0.0, -1.25])

    def test_bad_record_reports_line(self, tmp_path):
        path = tmp_path / "net.txt"
        path.write_text("layers: 2 2\nW 1 0 whoops 0.5\n")
        with pytest.raises(ConfigError, match="line 2"):
            read_net_file(path)

    def test_bad_header_names_file_and_line(self, tmp_path):
        path = tmp_path / "net.txt"
        path.write_text("# a net\nlayers: 2 x\n")
        with pytest.raises(ConfigError, match=re.escape(f"net file {path}, line 2: invalid")):
            read_net_file(path)

    @pytest.mark.parametrize("record", ["W 0 0 0 0.5", "W 1 0 -1 0.5", "b 1 -1 2.0"])
    def test_out_of_range_index_names_file_and_line(self, tmp_path, record):
        """Layer 0 and negative indices are rejected, not wrapped round to
        the last layer, row or column."""
        path = tmp_path / "net.txt"
        path.write_text(f"layers: 2 3 1\n{record}\n")
        with pytest.raises(ConfigError, match=re.escape(f"net file {path}, line 2: ")):
            read_net_file(path)
