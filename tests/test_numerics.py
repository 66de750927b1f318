import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adrtag.numerics import (
    DimensionError,
    NumericalError,
    Parameter,
    cross_entropy,
    finite_difference_gradient,
    sigmoid,
    softmax,
    tanh_op,
)


class TestSigmoid:
    def test_zero(self):
        assert sigmoid(np.array([0.0]))[0] == 0.5

    def test_log_three(self):
        assert sigmoid(np.array([math.log(3)]))[0] == pytest.approx(0.75)

    def test_large_positive_saturates(self):
        v = sigmoid(np.array([100.0]))[0]
        assert 1 - 1e-6 < v <= 1.0

    def test_stable_branch_matches_reference(self):
        # reference: exp(x)/(1+exp(x)) is exact and safe for x < 0
        xs = np.array([-700.0, -50.0, -3.0, -0.1])
        ref = np.exp(xs) / (1.0 + np.exp(xs))
        np.testing.assert_allclose(sigmoid(xs), ref, rtol=1e-15)

    def test_never_nan_for_large_inputs(self):
        out = sigmoid(np.array([-1000.0, 1000.0]))
        assert np.all(np.isfinite(out))


class TestTanh:
    def test_zero(self):
        assert tanh_op(np.array([0.0]))[0] == 0.0

    def test_odd_symmetry(self):
        x = np.linspace(-3, 3, 13)
        np.testing.assert_array_equal(tanh_op(x), -tanh_op(-x))

    def test_reference_value(self):
        assert tanh_op(np.array([0.5]))[0] == pytest.approx(0.46211716, abs=1e-8)


class TestSoftmax:
    def test_uniform(self):
        np.testing.assert_allclose(softmax([0, 0, 0]), [1 / 3] * 3, rtol=1e-12)

    def test_proportional_to_exponentials(self):
        got = softmax([math.log(1), math.log(2), math.log(3)])
        np.testing.assert_allclose(got, [1 / 6, 2 / 6, 3 / 6], rtol=1e-12)

    def test_shift_invariance_large_logits(self):
        big = softmax([1000.0, 1000.5])
        small = softmax([0.0, 0.5])
        assert np.all(np.isfinite(big))
        np.testing.assert_allclose(big, small, atol=1e-9)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            softmax([])

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=10),
        st.floats(-1e3, 1e3),
    )
    def test_sums_to_one_and_shift_invariant(self, logits, shift):
        p = softmax(logits)
        assert abs(p.sum() - 1.0) < 1e-9
        # entries can underflow to exactly 0.0 when the logit gap exceeds
        # the float64 exponent range, so only nonnegativity is guaranteed
        assert np.all(p >= 0)
        q = softmax([x + shift for x in logits])
        assert np.max(np.abs(p - q)) < 1e-9


class TestCrossEntropy:
    def test_uniform_is_log_k(self):
        for k in (2, 4, 7):
            assert cross_entropy([1 / k] * k, 0) == pytest.approx(math.log(k))

    def test_certain_prediction(self):
        assert cross_entropy([0.0, 1.0], 1) == 0.0

    def test_quarter(self):
        assert cross_entropy([0.25, 0.75], 0) == pytest.approx(1.3862944, abs=1e-7)

    def test_zero_probability_clamped(self):
        assert cross_entropy([0.0, 1.0], 0) == pytest.approx(-math.log(1e-12))

    def test_target_out_of_range(self):
        with pytest.raises(ValueError):
            cross_entropy([0.5, 0.5], 2)


class TestFiniteDifference:
    def test_quadratic(self):
        p = Parameter("w", np.array([[3.0]]))
        grads = finite_difference_gradient(lambda: float(p.value[0, 0] ** 2), [p])
        assert grads["w"][0, 0] == pytest.approx(6.0, abs=1e-8)
        assert p.value[0, 0] == 3.0  # restored

    def test_constant_function(self):
        p = Parameter("w", np.arange(6.0).reshape(2, 3))
        grads = finite_difference_gradient(lambda: 1.5, [p])
        assert np.array_equal(grads["w"], np.zeros((2, 3)))

    def test_bad_epsilon(self):
        p = Parameter("w", np.zeros((1, 1)))
        with pytest.raises(ValueError):
            finite_difference_gradient(lambda: 0.0, [p], epsilon=0.0)

    def test_non_finite_loss_identifies_entry(self):
        p = Parameter("weird", np.zeros(2))
        with pytest.raises(NumericalError, match=r"weird\[1\]"):
            finite_difference_gradient(
                lambda: float("nan") if p.value[1] != 0 else 0.0, [p]
            )


def test_parameter_buffers_start_zeroed():
    p = Parameter("w", np.ones((2, 2)))
    assert np.array_equal(p.grad, np.zeros((2, 2)))
    assert np.array_equal(p.adam_m, np.zeros((2, 2)))
    assert np.array_equal(p.adam_v, np.zeros((2, 2)))
    p.grad += 1.0
    p.zero_grad()
    assert np.array_equal(p.grad, np.zeros((2, 2)))
