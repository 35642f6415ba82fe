import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from nefsim.errors import InfeasibleTuningError
from nefsim.neurons import (
    ALL_MODELS,
    LIF,
    NeuronParams,
    QuantizationSpec,
    RATE_LIF,
    RATE_RELU,
    SPIKING_RELU,
    lif_current_for_rate,
    lif_rate,
    measured_rate_curve,
    neuron_step,
    quantize_current,
    quantize_weights,
    relu_rate,
    solve_gain_bias,
)

PARAMS = NeuronParams()


class TestRateCurves:
    def test_lif_below_threshold(self):
        assert lif_rate(0.5, PARAMS) == 0.0
        assert lif_rate(1.0, PARAMS) == 0.0

    def test_lif_closed_form_value(self):
        # 1 / (0.002 - 0.02*ln(1 - 1/2))
        expected = 1.0 / (0.002 + 0.02 * math.log(2.0))
        assert lif_rate(2.0, PARAMS) == pytest.approx(expected, rel=1e-12)
        assert lif_rate(2.0, PARAMS) == pytest.approx(63.04, abs=0.01)

    def test_lif_asymptote(self):
        assert lif_rate(1e12, PARAMS) == pytest.approx(500.0, rel=1e-6)

    def test_relu(self):
        assert relu_rate(-1.0, PARAMS) == 0.0
        assert relu_rate(0.0, PARAMS) == 0.0
        assert relu_rate(175.0, PARAMS) == 175.0

    def test_monotone_nonnegative(self):
        J = np.linspace(-5, 40, 300)
        for fn in (lif_rate, relu_rate):
            r = fn(J, PARAMS)
            assert np.all(r >= 0)
            assert np.all(np.diff(r) >= 0)

    def test_lif_inverse_roundtrip(self):
        rates = np.array([10.0, 63.04, 200.0, 350.0])
        J = lif_current_for_rate(rates, PARAMS)
        assert np.allclose(lif_rate(J, PARAMS), rates, rtol=1e-12)


def masked_lif_rate(J, params):
    """The masked closed form that lif_rate computes in place."""
    J = np.asarray(J, dtype=float)
    out = np.zeros_like(J)
    above = J > 1.0
    out[above] = 1.0 / (params.tau_ref - params.tau_rc * np.log1p(-1.0 / J[above]))
    return out


def plain_relu_rate(J, params):
    """The out-of-place form that relu_rate computes in place."""
    return params.amplitude * np.maximum(np.asarray(J, dtype=float), 0.0)


ONE_UP = float(np.nextafter(1.0, 2.0))
ONE_DOWN = float(np.nextafter(1.0, 0.0))
currents = hnp.arrays(
    np.float64, hnp.array_shapes(min_dims=0, max_dims=2, min_side=0, max_side=6),
    elements=st.one_of(
        st.floats(allow_nan=True, allow_infinity=True),
        st.floats(0.5, 3.0),
        st.sampled_from([1.0, ONE_UP, ONE_DOWN, 0.0, -0.0, np.inf, -np.inf, np.nan]),
    ))
neuron_params = st.builds(
    NeuronParams,
    tau_rc=st.floats(1e-4, 1.0),
    tau_ref=st.one_of(st.just(0.0), st.floats(0.0, 0.01)),
    amplitude=st.floats(1e-3, 1e3),
)


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


class TestRateCurvesInPlace:
    """lif_rate/relu_rate with and without `out` equal the out-of-place
    formulas bit for bit, on every float input."""

    @settings(max_examples=300, deadline=None)
    @given(J=currents, params=neuron_params)
    @example(J=np.array([0.5, 1.0, ONE_UP, ONE_DOWN, np.inf, -np.inf, np.nan, 2.0]),
             params=NeuronParams(tau_ref=0.0))
    @example(J=np.array(1.0), params=PARAMS)
    @example(J=np.array(ONE_UP), params=PARAMS)
    def test_bits_match_the_out_of_place_formulas(self, J, params):
        for fn, reference in ((lif_rate, masked_lif_rate), (relu_rate, plain_relu_rate)):
            with np.errstate(all="ignore"):  # 1/0 at J = inf when tau_ref = 0
                expected = reference(J, params)
                J_before = J.copy()
                fresh = fn(J, params)
                assert same_bits(J, J_before)  # out=None leaves the input alone
                J_out = J.copy()
                result = fn(J_out, params, out=J_out)
            assert same_bits(fresh, expected)
            assert type(fresh) is np.ndarray  # also on 0-d input
            assert result is J_out
            assert same_bits(J_out, expected)

    def test_scalar_input(self):
        assert same_bits(lif_rate(2.0, PARAMS), masked_lif_rate(2.0, PARAMS))
        assert same_bits(lif_rate(1.0, PARAMS), masked_lif_rate(1.0, PARAMS))
        assert same_bits(relu_rate(-3.0, PARAMS), plain_relu_rate(-3.0, PARAMS))

    def test_threshold_and_nan_give_positive_zero_without_warnings(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            r = lif_rate(np.array([-1.0, 1.0, np.nan, 2.0]), PARAMS)
        assert same_bits(r[:3], np.zeros(3))


class TestGainBias:
    def test_relu_two_point_solve(self):
        gain, bias = solve_gain_bias([175.0], [0.5], PARAMS, RATE_RELU)
        assert gain[0] == pytest.approx(350.0)
        assert bias[0] == pytest.approx(-175.0)

    def test_lif_solve_and_roundtrip(self):
        gain, bias = solve_gain_bias([200.0], [0.0], PARAMS, LIF)
        assert gain[0] == pytest.approx(6.17916, abs=1e-4)
        assert bias[0] == pytest.approx(1.0)
        assert lif_rate(gain[0] + bias[0], PARAMS) == pytest.approx(200.0, rel=1e-9)

    def test_roundtrip_many(self, rng):
        rates = rng.uniform(20, 400, 100)
        intercepts = rng.uniform(-1, 0.95, 100)
        for model in (RATE_LIF, RATE_RELU):
            gain, bias = solve_gain_bias(rates, intercepts, PARAMS, model)
            rate_fn = lif_rate if model == RATE_LIF else relu_rate
            at_top = rate_fn(gain + bias, PARAMS)
            assert np.allclose(at_top, rates, rtol=1e-6)
            # the onset sits at the intercept: silent just below it (an exact
            # rate-at-intercept check is ill-posed for LIF, whose rate curve
            # has unbounded sensitivity at threshold)
            below = rate_fn(gain * (intercepts - 1e-6) + bias, PARAMS)
            assert np.all(below == 0.0)

    def test_infeasible_rate(self):
        with pytest.raises(InfeasibleTuningError):
            solve_gain_bias([600.0], [0.0], PARAMS, LIF)


class TestSpiking:
    def test_silent_at_zero_current(self):
        for model in (LIF, SPIKING_RELU):
            step = neuron_step(model, 4, 0.001, PARAMS)
            total = 0.0
            for _ in range(2000):
                total += step(np.zeros(4))[1].sum()
            assert total == 0.0

    def test_relu_exact_period(self):
        # J=100 gains 0.1 of threshold per step: one spike every 10 steps
        step = neuron_step(SPIKING_RELU, 1, 0.001, PARAMS)
        spikes = [step(np.array([100.0]))[1][0] for _ in range(200)]
        settled = spikes[20:]
        assert all(s == 1.0 for s in settled[9::10])
        assert sum(settled) == pytest.approx(len(settled) / 10)

    def test_lif_spike_count_matches_rate(self):
        step = neuron_step(LIF, 1, 0.001, PARAMS)
        count = 0.0
        for _ in range(10000):
            count += step(np.array([2.0]))[1][0]
        assert abs(count - 630.0) <= 2.0

    def test_spiking_rate_consistency_grid(self):
        J = np.array([1.5, 2.0, 4.0, 10.0, 20.0])
        measured = measured_rate_curve(J, 0.001, PARAMS, LIF, settle=0.5, window=10.0)
        expected = lif_rate(J, PARAMS)
        tol = np.maximum(2.0, 0.02 * expected)
        assert np.all(np.abs(measured - expected) <= tol)


class TestNeuronStep:
    def test_rate_models_return_rate_and_pseudo_counts(self):
        J = np.array([-1.0, 0.5, 1.0, 2.0, 30.0])
        for model, curve in ((RATE_LIF, lif_rate), (RATE_RELU, relu_rate)):
            act, counts = neuron_step(model, J.size, 0.001, PARAMS)(J)
            assert same_bits(act, curve(J, PARAMS))
            assert same_bits(counts, act * 0.001)

    def test_fixed_point_rate_reads_quantized_currents(self):
        qspec = QuantizationSpec(weight_mantissa_bits=4)
        J = np.linspace(0.0, 10.0, 11) + 0.37
        act, _ = neuron_step(RATE_LIF, J.size, 0.001, PARAMS, qspec)(J)
        assert same_bits(act, lif_rate(quantize_current(J, qspec), PARAMS))

    def test_spiking_activity_is_counts_over_dt(self):
        for model in (LIF, SPIKING_RELU):
            step = neuron_step(model, 3, 0.001, PARAMS)
            for _ in range(50):
                act, counts = step(np.array([0.5, 5.0, 2500.0]))
                assert same_bits(act, counts / 0.001)

    def test_each_step_owns_its_state(self):
        J = np.array([1.5, 8.0])
        for model in (LIF, SPIKING_RELU):
            runs = []
            for _ in range(2):  # the second is built after the first has run
                step = neuron_step(model, J.size, 0.001, PARAMS)
                runs.append([step(J)[1] for _ in range(100)])
            assert same_bits(runs[0], runs[1])

    def test_unknown_model_rejected(self):
        with pytest.raises(ValueError, match="unknown neuron model 'izhikevich'"):
            neuron_step("izhikevich", 1, 0.001, PARAMS)


class TestQuantized:
    QSPEC = QuantizationSpec()

    def test_silent_at_zero(self):
        spikes = neuron_step(LIF, 3, 0.001, PARAMS, self.QSPEC)(np.zeros(3))[1]
        assert np.all(spikes == 0)

    def test_sub_step_window_rejected(self):
        # zero counted steps would make every rate 0 / 0
        with pytest.raises(ValueError, match=r"window 0\.0004 s rounds to no step"):
            measured_rate_curve(np.array([5.0]), 0.001, PARAMS, LIF,
                                qspec=self.QSPEC, window=0.0004)

    def test_staircase_monotone_with_plateaus(self):
        J = np.linspace(0.0, 10.0, 501)
        window = 2.0
        rates = measured_rate_curve(J, 0.001, PARAMS, LIF, qspec=self.QSPEC,
                                    settle=0.5, window=window)
        diffs = np.diff(rates)
        # monotone up to the one-spike resolution of the counting window
        assert np.all(diffs >= -1.0 / window - 1e-9)
        # piecewise constant: a healthy share of adjacent samples tie exactly
        assert np.sum(diffs == 0.0) > 100
        uniq = np.unique(rates)
        assert np.all(np.diff(uniq) > 0)

    def test_deviation_from_float_curve(self):
        # frozen regression bound: measured max deviation is ~6.9 Hz over
        # rates <= 250 Hz at the default spec
        j_top = lif_current_for_rate(np.array([250.0]), PARAMS)[0]
        J = np.linspace(0.0, j_top, 200)
        rates = measured_rate_curve(J, 0.001, PARAMS, LIF, qspec=self.QSPEC,
                                    settle=1.0, window=5.0)
        assert np.max(np.abs(rates - lif_rate(J, PARAMS))) <= 10.0

    def test_relu_staircase(self):
        J = np.linspace(0.0, 200.0, 301)
        window = 2.0
        rates = measured_rate_curve(J, 0.001, PARAMS, SPIKING_RELU,
                                    qspec=self.QSPEC, settle=0.2, window=window)
        assert np.all(np.diff(rates) >= -1.0 / window - 1e-9)


class TestQuantizeWeights:
    QSPEC = QuantizationSpec()

    def test_zero_matrix_unchanged(self):
        W = np.zeros((3, 4))
        Wq, e = quantize_weights(W, self.QSPEC)
        assert e == 0
        assert np.array_equal(Wq, W)

    def test_hand_example(self):
        Wq, e = quantize_weights(np.array([[0.013]]), self.QSPEC)
        assert e == -13
        assert Wq[0, 0] == pytest.approx(106 * 2.0 ** -13, rel=1e-15)

    def test_error_bound_random(self, rng):
        for _ in range(50):
            scale = 10.0 ** rng.uniform(-6, 3)
            W = scale * rng.standard_normal((rng.integers(1, 8), rng.integers(1, 8)))
            Wq, e = quantize_weights(W, self.QSPEC)
            assert np.max(np.abs(Wq - W)) <= 2.0 ** (e - 1) + 1e-300
            # mantissas stay within the signed range
            assert np.max(np.abs(np.round(Wq / 2.0 ** e))) <= self.QSPEC.mantissa_max

    def test_given_peak_gives_the_same_bits(self, rng):
        for _ in range(20):
            W = 10.0 ** rng.uniform(-6, 3) * rng.standard_normal((3, 7))
            peak = max(W.max(), -W.min())
            Wq, e = quantize_weights(W, self.QSPEC)
            Wq_peak, e_peak = quantize_weights(W, self.QSPEC, peak)
            assert e_peak == e and same_bits(Wq_peak, Wq)

    def test_mantissa_bits_widen_grid(self, rng):
        W = rng.standard_normal((5, 5))
        _, e8 = quantize_weights(W, QuantizationSpec(weight_mantissa_bits=8))
        _, e4 = quantize_weights(W, QuantizationSpec(weight_mantissa_bits=4))
        assert e4 > e8


def signed_normals(max_exponent):
    """Both zeros and signed values m * 2**k, m in [1, 2), -1022 <= k <= max_exponent."""
    return st.one_of(
        st.sampled_from([0.0, -0.0]),
        st.builds(lambda sign, m, k: sign * m * 2.0 ** k, st.sampled_from([-1.0, 1.0]),
                  st.floats(1.0, 2.0, exclude_max=True), st.integers(-1022, max_exponent)))


# every normal magnitude, up to the largest finite double
quantizable = signed_normals(1023)
qspecs = st.builds(QuantizationSpec, weight_mantissa_bits=st.integers(2, 16))


class TestQuantizerProperties:
    @settings(max_examples=300, deadline=None)
    @given(W=hnp.arrays(np.float64, hnp.array_shapes(min_dims=2, max_dims=2, max_side=6),
                        elements=quantizable),
           qspec=qspecs)
    @example(W=np.array([[np.finfo(float).max, -1.0]]), qspec=QuantizationSpec())
    @example(W=np.array([[2.0 ** 1023, -1.5 * 2.0 ** 1023, -np.finfo(float).max]]),
             qspec=QuantizationSpec(weight_mantissa_bits=2))
    def test_weights_round_to_nearest_on_the_minimal_grid(self, W, qspec):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no overflow
            Wq, e = quantize_weights(W, qspec)
        peak = max(W.max(), -W.min())
        if peak == 0.0:
            assert e == 0 and same_bits(Wq, W)
            return
        # entries whose nearest multiple of 2**e is past the largest double saturate
        with np.errstate(over="ignore"):
            sat = ~np.isfinite(np.rint(W / 2.0 ** e) * 2.0 ** e)
        assert np.all(np.isfinite(Wq[sat]))
        assert np.all(np.sign(Wq[sat]) == np.sign(W[sat]))
        assert np.all(np.abs(Wq[sat]) <= np.abs(W[sat]))
        assert np.all(np.abs(Wq[sat] - W[sat]) < 2.0 ** e)
        assert np.all(np.abs(Wq[~sat] - W[~sat]) <= 2.0 ** (e - 1))
        mantissas = Wq / 2.0 ** e
        assert np.array_equal(mantissas, np.rint(mantissas))
        assert np.all(np.abs(mantissas) <= qspec.mantissa_max)
        assert peak > qspec.mantissa_max * 2.0 ** (e - 1)  # e - 1 would clip

    @settings(max_examples=300, deadline=None)
    @given(J=hnp.arrays(np.float64, st.integers(1, 8), elements=quantizable),
           qspec=qspecs)
    @example(J=np.array([np.finfo(float).max, -1.79e308]), qspec=QuantizationSpec())
    @example(J=np.array([2.0 ** 1023 - 2.0 ** 970, 2.0 ** 1023, -1.5 * 2.0 ** 1023]),
             qspec=QuantizationSpec(weight_mantissa_bits=2))
    def test_current_relative_error(self, J, qspec):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no overflow
            Jq = quantize_current(J, qspec)
        # only values above the largest the grid holds, mantissa_max times the
        # coarsest step, can round past the largest double; they saturate
        top = np.abs(J) > qspec.mantissa_max * 2.0 ** (1025 - qspec.weight_mantissa_bits)
        assert np.all(np.isfinite(Jq[top]))
        assert np.all(np.sign(Jq[top]) == np.sign(J[top]))
        assert np.all(np.abs(Jq[top]) <= np.abs(J[top]))
        nonzero = (J != 0.0) & ~top
        rel = np.abs(Jq[nonzero] - J[nonzero]) / np.abs(J[nonzero])
        assert np.all(rel < 1.0 / qspec.mantissa_max)
        assert same_bits(Jq[J == 0.0], np.zeros(np.count_nonzero(J == 0.0)))  # +0.0

    @settings(max_examples=300, deadline=None)
    @given(J=hnp.arrays(np.float64, st.integers(1, 8), elements=quantizable),
           qspec=qspecs)
    @example(J=np.array([np.finfo(float).max, -1.79e308, 2.0 ** -1022]),
             qspec=QuantizationSpec(weight_mantissa_bits=2))
    @example(J=np.array([5e-324, -2.0 ** -1060, 0.0, -0.0]), qspec=QuantizationSpec())
    def test_current_requantizes_to_itself(self, J, qspec):
        # a step quantizes its current every step, so a constant current
        # must stay on its grid bit for bit, saturated values included
        Jq = quantize_current(J, qspec)
        assert same_bits(quantize_current(Jq, qspec), Jq)


@st.composite
def split_drives(draw):
    """(n1, steps): several steps of currents over n1 + n2 neurons, split after
    the first n1.  Magnitudes run from 1e-300 to past 1.765e308, where
    quantize_current saturates on every grid; each part draws its own."""
    n1, n2 = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    magnitude = st.one_of(
        st.floats(-2.0, 40.0),  # the operating range, where spikes come
        st.builds(lambda sign, k: sign * 10.0 ** k, st.sampled_from([-1.0, 1.0]),
                  st.floats(-300.0, 308.0)),
        st.sampled_from([0.0, 1.0, 1.6e308, -1.78e308, np.finfo(float).max]))
    steps = draw(st.lists(hnp.arrays(np.float64, n1 + n2, elements=magnitude),
                          min_size=1, max_size=20))
    return n1, steps


class TestStepOverAConcatenation:
    """A step of n1 + n2 neurons is a step of n1 beside one of n2, bit for
    bit: the engine steps consecutive ensembles of one model as one group,
    and measured_rate_curve steps its points together, on this property."""

    @settings(max_examples=300, deadline=None)
    @given(model=st.sampled_from(ALL_MODELS),
           qspec=st.sampled_from([None, QuantizationSpec(), QuantizationSpec(2, 8)]),
           drives=split_drives())
    @example(model=LIF, qspec=QuantizationSpec(),
             drives=(2, [np.array([1.79e308, 3.0, 2.0, 1e-300])] * 3))
    @example(model=RATE_RELU, qspec=QuantizationSpec(2, 8),
             drives=(1, [np.array([0.7, 1.6e308, -5.0])] * 2))
    def test_one_step_over_the_whole_equals_one_per_part(self, model, qspec, drives):
        n1, steps = drives
        n = steps[0].size
        whole = neuron_step(model, n, 0.001, PARAMS, qspec)
        parts = (neuron_step(model, n1, 0.001, PARAMS, qspec),
                 neuron_step(model, n - n1, 0.001, PARAMS, qspec))
        for J in steps:
            with np.errstate(over="ignore"):  # a fixed state past state_max overflows its grid
                act, counts = whole(J)
                (act1, counts1), (act2, counts2) = parts[0](J[:n1].copy()), parts[1](J[n1:].copy())
            assert same_bits(act, np.concatenate([act1, act2]))
            assert same_bits(counts, np.concatenate([counts1, counts2]))
