import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from adrtag.numerics import (
    Gradients,
    NumericalError,
    Parameter,
    finite_difference_gradient,
    sigmoid,
    softmax_rows,
)
from adrtag.training import Adam
import reference
from reference import cross_entropy, softmax


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

    def test_matches_two_branch_reference_bit_for_bit(self):
        special = [0.0, 1e-300, 1.0, 700.0, 745.0, 800.0, np.inf]
        xs = np.concatenate([
            special, np.negative(special),
            np.random.default_rng(0).normal(scale=50.0, size=100_000),
        ])
        assert np.array_equal(sigmoid(xs), reference.sigmoid(xs))
        assert np.isnan(sigmoid(np.array([np.nan, -np.nan]))).all()

    @pytest.mark.parametrize("shape", [(5, 4), (5, 2, 4)])
    def test_strided_gate_slices_match_reference_bit_for_bit(self, shape):
        # The step loop applies sigmoid to the column blocks [:2H] and [3H:]
        # of its (B, 4H) gate rows, both directions side by side.
        H = 6
        special = [0.0, -0.0, np.inf, -np.inf, np.nan, 1e-310, -1e-310, 745.0, -745.0]
        a = np.random.default_rng(1).normal(scale=20.0, size=shape[:-1] + (4 * H,))
        a.reshape(-1)[: len(special)] = special
        for block in (a[..., : 2 * H], a[..., 3 * H :]):
            assert not block.flags.contiguous
            got, want = sigmoid(block), reference.sigmoid(block.copy())
            nan = np.isnan(block)
            assert np.isnan(got[nan]).all()
            # Same bit patterns (so also the sign of zero) everywhere else.
            assert np.array_equal(got[~nan].view(np.int64), want[~nan].view(np.int64))


def _one_row(logits):
    """``softmax_rows`` applied to a 1-D logit list as a single row."""
    return softmax_rows(np.asarray(logits, dtype=np.float64)[None, :])[0]


class _SoftmaxValueCases:
    """Value cases run against both the reference 1-D softmax and the
    row-wise softmax the model uses."""

    softmax = staticmethod(softmax)

    def test_uniform(self):
        np.testing.assert_allclose(self.softmax([0, 0, 0]), [1 / 3] * 3, rtol=1e-12)

    def test_proportional_to_exponentials(self):
        got = self.softmax([math.log(1), math.log(2), math.log(3)])
        np.testing.assert_allclose(got, [1 / 6, 2 / 6, 3 / 6], rtol=1e-12)

    def test_shift_invariance_large_logits(self):
        big = self.softmax([1000.0, 1000.5])
        small = self.softmax([0.0, 0.5])
        assert np.all(np.isfinite(big))
        np.testing.assert_allclose(big, small, atol=1e-9)

    # one property, run by both subclasses: each is its own executor
    @settings(
        max_examples=50,
        deadline=None,
        suppress_health_check=[HealthCheck.differing_executors],
    )
    @given(
        st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=10),
        st.floats(-1e3, 1e3),
    )
    def test_sums_to_one_and_shift_invariant(self, logits, shift):
        p = self.softmax(logits)
        assert abs(p.sum() - 1.0) < 1e-9
        # entries can underflow to exactly 0.0 when the logit gap exceeds
        # the float64 exponent range, so only nonnegativity is guaranteed
        assert np.all(p >= 0)
        q = self.softmax([x + shift for x in logits])
        assert np.max(np.abs(p - q)) < 1e-9


class TestSoftmax(_SoftmaxValueCases):
    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            softmax([])


class TestSoftmaxRows(_SoftmaxValueCases):
    softmax = staticmethod(_one_row)


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
        grads = finite_difference_gradient(lambda: float(p.value[0, 0] ** 2), [p], 1e-5)
        assert grads["w"][0, 0] == pytest.approx(6.0, abs=1e-8)
        assert p.value[0, 0] == 3.0  # restored

    def test_constant_function(self):
        p = Parameter("w", np.arange(6.0).reshape(2, 3))
        grads = finite_difference_gradient(lambda: 1.5, [p], 1e-5)
        assert np.array_equal(grads["w"], np.zeros((2, 3)))

    def test_non_finite_loss_identifies_entry(self):
        p = Parameter("weird", np.zeros(2))
        with pytest.raises(NumericalError, match=r"weird\[1\]"):
            finite_difference_gradient(
                lambda: float("nan") if p.value[1] != 0 else 0.0, [p], 1e-5
            )


def test_release_keeps_only_the_weights():
    """Training state is the optimizer's; once it is released, neither the
    parameters nor the optimizer hold anything but the weights."""
    p, q = Parameter("w", np.ones((2, 3))), Parameter("b", np.ones(2))
    opt = Adam([p, q], 0.001)

    def backward(sink):
        for x in (p, q):
            g = sink.buffer(x)
            g.fill(1.0)
            sink.step(x, g)

    opt.update(backward)
    assert opt.m and opt.workspace is not None
    opt.release()
    assert opt.m == [] and opt.v == [] and opt.workspace is None
    assert all(set(vars(x)) == {"name", "value"} for x in (p, q))


class TestGradients:
    def test_keeps_each_gradient_by_name(self):
        p = Parameter("w", np.ones((2, 3)))
        grads = Gradients()
        g = grads.buffer(p)
        assert g.shape == (2, 3) and g.dtype == np.float64 and g.flags.c_contiguous
        grads.step(p, g)
        assert grads["w"] is g
        assert set(vars(p)) == {"name", "value"}

    def test_a_second_gradient_for_one_parameter_is_an_error(self):
        p = Parameter("w", np.ones(2))
        grads = Gradients()
        grads.step(p, np.ones(2))
        with pytest.raises(ValueError, match="second gradient for w"):
            grads.step(p, np.ones(2))
