"""Tests for the hand-rolled numeric kernels and for the gradient checker in oracles.py."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from modbind.numerics import (
    NumericsError,
    as_matrix,
    gelu_backward,
    gelu_with_tanh,
    l2_normalize_rows,
    l2_normalize_rows_backward,
    softmax_rows,
)

from .oracles import (
    central_diff_scalar,
    finite_difference_check,
    gelu_power_loops,
    normalize_rows_loops,
    softmax_row_loops,
)


# elements are zero or comfortably normal so row norms never underflow
_element = st.one_of(
    st.just(0.0), st.floats(1e-3, 50.0), st.floats(-50.0, -1e-3)
)
finite_matrices = hnp.arrays(
    dtype=np.float64,
    shape=st.tuples(st.integers(1, 5), st.integers(1, 5)),
    elements=_element,
)


class TestAsMatrix:
    def test_accepts_2d(self):
        out = as_matrix([[1.0, 2.0]])
        assert out.shape == (1, 2)
        assert out.dtype == np.float64

    def test_promotes_1d_to_row(self):
        assert as_matrix([1.0, 2.0]).shape == (1, 2)

    def test_rejects_3d(self):
        with pytest.raises(NumericsError):
            as_matrix(np.zeros((2, 2, 2)))


def gelu(x):
    return gelu_with_tanh(x)[0]


class TestGelu:
    def test_zero(self):
        assert gelu(np.array([[0.0]]))[0, 0] == 0.0

    def test_large_input_is_near_identity(self):
        assert abs(gelu(np.array([[10.0]]))[0, 0] - 10.0) <= 1e-4

    def test_negative_tail_small(self):
        assert abs(gelu(np.array([[-10.0]]))[0, 0]) <= 1e-4

    def test_forward_matches_power_formula(self, rng):
        x = np.concatenate([rng.standard_normal((64, 64)) * 3.0, np.linspace(-8, 8, 64)[None]])
        got = gelu(x)
        want = np.array(gelu_power_loops(x.tolist()))
        pos = x >= 0
        np.testing.assert_allclose(got[pos], want[pos], rtol=1e-15, atol=0)
        # for x < 0, 1 + tanh(u) cancels, so one ulp of tanh is a large share of
        # the result; bound the error by |x|, the size of the terms that cancel
        assert np.all(np.abs(got - want) <= 1e-15 * np.abs(x))

    def test_backward_matches_central_difference(self, rng):
        x = rng.standard_normal((3, 4))
        up = rng.standard_normal((3, 4))
        grad = gelu_backward(x, up)
        for i in range(3):
            for j in range(4):
                def f(v, i=i, j=j):
                    xs = x.copy()
                    xs[i, j] = v
                    return float(np.sum(gelu(xs) * up))

                fd = central_diff_scalar(f, x[i, j], 1e-6)
                assert abs(grad[i, j] - fd) <= 1e-6

    def test_with_tanh_gives_the_forward_and_its_tanh(self, rng):
        x = np.concatenate([rng.standard_normal((16, 8)) * 3.0, np.linspace(-8, 8, 8)[None]])
        y, t = gelu_with_tanh(x)
        assert y.tobytes() == (0.5 * x * (t + 1.0)).tobytes()
        c = math.sqrt(2.0 / math.pi)
        want = [[math.tanh(c * (v + 0.044715 * v**3)) for v in row] for row in x.tolist()]
        np.testing.assert_allclose(t, want, rtol=1e-14, atol=1e-300)

    def test_backward_with_the_forward_tanh_is_bit_identical(self, rng):
        # signed zeros, tiny and large inputs, where tanh saturates or 1 + t cancels
        x = np.concatenate([
            rng.standard_normal((32, 16)) * 3.0,
            np.array([[0.0, -0.0, 1e-300, -1e-300, 5e-324, 30.0, -30.0, -6.0] * 2]),
        ])
        up = rng.standard_normal(x.shape)
        _, t = gelu_with_tanh(x)
        kept = t.copy()
        assert gelu_backward(x, up, tanh=t).tobytes() == gelu_backward(x, up).tobytes()
        assert t.tobytes() == kept.tobytes()  # the cached tanh is only read


class TestNormalize:
    def test_hand_value(self):
        out = l2_normalize_rows(np.array([[3.0, 4.0]]))
        np.testing.assert_allclose(out, [[0.6, 0.8]], atol=1e-15)

    def test_zero_row_maps_to_zero(self):
        out = l2_normalize_rows(np.array([[0.0, 0.0], [3.0, 4.0]]))
        np.testing.assert_array_equal(out[0], [0.0, 0.0])

    def test_idempotent(self, rng):
        x = rng.standard_normal((4, 6))
        once = l2_normalize_rows(x)
        twice = l2_normalize_rows(once)
        assert np.max(np.abs(twice - once)) <= 1e-12

    def test_matches_loop_oracle(self, rng):
        x = rng.standard_normal((5, 3))
        want = normalize_rows_loops(x.tolist())
        assert np.max(np.abs(l2_normalize_rows(x) - np.array(want))) <= 1e-12

    def test_backward_matches_central_difference(self, rng):
        x = rng.standard_normal((3, 5))
        up = rng.standard_normal((3, 5))
        grad = l2_normalize_rows_backward(x, up)
        for i in range(3):
            for j in range(5):
                def f(v, i=i, j=j):
                    xs = x.copy()
                    xs[i, j] = v
                    return float(np.sum(l2_normalize_rows(xs) * up))

                fd = central_diff_scalar(f, x[i, j], 1e-6)
                assert abs(grad[i, j] - fd) <= 1e-6

    @given(finite_matrices)
    @settings(max_examples=50, deadline=None)
    def test_rows_unit_or_zero(self, x):
        norms = np.linalg.norm(l2_normalize_rows(x), axis=1)
        for i, n in enumerate(norms):
            in_norm = np.linalg.norm(x[i])
            if in_norm == 0.0:
                assert n == 0.0
            elif in_norm >= 1e-6:
                assert abs(n - 1.0) <= 1e-9


class TestSoftmax:
    def test_equal_logits_uniform(self):
        out = softmax_rows(np.zeros((1, 4)))
        np.testing.assert_allclose(out, np.full((1, 4), 0.25), atol=1e-15)

    def test_hand_value(self):
        out = softmax_rows(np.array([[0.0, math.log(3.0)]]))
        np.testing.assert_allclose(out, [[0.25, 0.75]], atol=1e-12)

    def test_large_logits_stable(self):
        out = softmax_rows(np.array([[1000.0, 0.0]]))
        assert np.all(np.isfinite(out))
        np.testing.assert_allclose(out, [[1.0, 0.0]], atol=1e-12)

    def test_matches_loop_oracle(self, rng):
        x = rng.standard_normal((4, 6))
        want = np.array([softmax_row_loops(row.tolist()) for row in x])
        assert np.max(np.abs(softmax_rows(x) - want)) <= 1e-12

    @given(finite_matrices)
    @settings(max_examples=50, deadline=None)
    def test_rows_sum_to_one(self, x):
        out = softmax_rows(x)
        np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-9)

    @given(finite_matrices, st.floats(-30, 30, allow_nan=False))
    @settings(max_examples=50, deadline=None)
    def test_shift_invariance(self, x, shift):
        assert np.max(np.abs(softmax_rows(x + shift) - softmax_rows(x))) <= 1e-12


class TestFiniteDifferenceCheck:
    def test_correct_quadratic_gradient_passes(self, rng):
        a = rng.standard_normal(6)
        p0 = rng.standard_normal(6)

        def loss(p):
            return 0.5 * float(np.dot(p, p)) + float(np.dot(a, p))

        report = finite_difference_check(loss, p0, p0 + a, eps=1e-5)
        assert report.max_rel_error <= 1e-8

    def test_doubled_gradient_detected(self, rng):
        p0 = rng.standard_normal(4) + 3.0

        def loss(p):
            return 0.5 * float(np.dot(p, p))

        report = finite_difference_check(loss, p0, 2.0 * p0, eps=1e-5)
        assert abs(report.max_rel_error - 0.5) <= 1e-3

    def test_reports_worst_coordinate(self, rng):
        p0 = rng.standard_normal(5) + 2.0
        grad = p0.copy()
        grad[3] *= 4.0

        def loss(p):
            return 0.5 * float(np.dot(p, p))

        report = finite_difference_check(loss, p0, grad, eps=1e-5)
        assert report.worst_param_index == 3

    def test_rejects_bad_eps(self, rng):
        p0 = rng.standard_normal(3)

        def loss(p):
            return float(np.dot(p, p))

        with pytest.raises(ValueError):
            finite_difference_check(loss, p0, 2.0 * p0, eps=0.0)
        with pytest.raises(ValueError):
            finite_difference_check(loss, p0, 2.0 * p0, eps=0.5)

    def test_rejects_non_finite_loss(self, rng):
        p0 = rng.standard_normal(3)
        with pytest.raises(ValueError):
            finite_difference_check(lambda p: float("nan"), p0, p0, eps=1e-5)

    def test_rejects_shape_mismatch(self, rng):
        with pytest.raises(ValueError):
            finite_difference_check(
                lambda p: 0.0, rng.standard_normal(3), rng.standard_normal(4), eps=1e-5
            )
