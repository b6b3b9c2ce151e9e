"""Tests for the paired contrastive objective and its exact gradients."""

import math
import warnings

import numpy as np
import pytest

from modbind.codec import from_doc, to_doc
from modbind.contrastive import (
    MIN_EXP_SUM,
    TemperatureParam,
    info_nce,
    l2_regression_loss,
    symmetric_info_nce,
)
from modbind.numerics import NumericsError, l2_normalize_rows

from .oracles import (
    central_diff_scalar,
    finite_difference_check,
    info_nce_loss_loops,
    l2_regression_loss_loops,
    symmetric_info_nce_grads_loops,
    symmetric_info_nce_loss_loops,
)


def unit(rng, n, d):
    return l2_normalize_rows(rng.standard_normal((n, d)))


class TestTemperatureParam:
    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError):
            TemperatureParam(mode="annealed")

    def test_rejects_non_positive_value(self):
        with pytest.raises(ValueError):
            TemperatureParam(value=0.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_value_and_log_tau(self, bad):
        with pytest.raises(ValueError):
            TemperatureParam(mode="learnable", value=bad)
        with pytest.raises(ValueError):
            TemperatureParam(mode="learnable", value=0.07, log_tau=bad)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite_clamps(self, bad):
        # an infinite clamp_max let a checkpoint load with tau bounded only by overflow
        for clamps in ({"clamp_max": bad}, {"clamp_min": bad, "clamp_max": bad}):
            with pytest.raises(ValueError, match="clamp"):
                TemperatureParam(mode="learnable", value=0.07, **clamps)

    def test_non_finite_update_rejected_and_state_kept(self):
        t = TemperatureParam(mode="learnable", value=0.07)
        before = t.log_tau
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError):
                t.apply_update(bad)
        assert t.log_tau == before

    def test_fixed_value_clamped(self):
        assert TemperatureParam(mode="fixed", value=10.0).tau == 5.0
        assert TemperatureParam(mode="fixed", value=1e-6).tau == 0.01

    def test_learnable_update_clamped(self):
        t = TemperatureParam(mode="learnable", value=0.07)
        t.apply_update(math.log(1e-9))
        assert abs(t.tau - 0.01) <= 1e-12
        t.apply_update(math.log(100.0))
        assert abs(t.tau - 5.0) <= 1e-12

    def test_fixed_update_rejected(self):
        with pytest.raises(ValueError):
            TemperatureParam(mode="fixed", value=0.07).apply_update(0.0)

    def test_dict_round_trip(self):
        t = TemperatureParam(mode="learnable", value=0.07)
        t.apply_update(math.log(0.2))
        back = from_doc(TemperatureParam, to_doc(t))
        assert back == t


class TestInfoNCE:
    def test_single_pair_loss_is_exactly_zero(self, rng):
        q = unit(rng, 1, 8)
        out = info_nce(q, q.copy(), TemperatureParam(value=0.07))
        assert out.loss == 0.0
        np.testing.assert_allclose(out.grad_q, 0.0, atol=1e-15)
        np.testing.assert_allclose(out.grad_k, 0.0, atol=1e-15)

    def test_orthonormal_triple_closed_form(self):
        q = np.eye(3)
        out = info_nce(q, q.copy(), TemperatureParam(mode="fixed", value=1.0))
        want = -math.log(math.e / (math.e + 2.0))
        assert abs(out.loss - want) <= 1e-12
        oracle = info_nce_loss_loops(q.tolist(), q.tolist(), 1.0)
        assert abs(out.loss - oracle) <= 1e-12

    @pytest.mark.parametrize("tau", [0.05, 0.07, 0.2, 1.0])
    def test_matches_loop_oracle(self, rng, tau):
        q = unit(rng, 6, 5)
        k = unit(rng, 6, 5)
        out = info_nce(q, k, TemperatureParam(mode="fixed", value=tau))
        want = info_nce_loss_loops(q.tolist(), k.tolist(), tau)
        assert abs(out.loss - want) <= 1e-12

    def test_grad_q_matches_finite_difference(self, rng):
        q = unit(rng, 4, 8)
        k = unit(rng, 4, 8)
        temp = TemperatureParam(mode="fixed", value=0.2)
        out = info_nce(q, k, temp)
        report = finite_difference_check(
            lambda p: info_nce(p, k, temp).loss, q, out.grad_q, eps=1e-6
        )
        assert report.max_rel_error <= 1e-6

    def test_grad_k_matches_finite_difference(self, rng):
        q = unit(rng, 4, 8)
        k = unit(rng, 4, 8)
        temp = TemperatureParam(mode="fixed", value=0.2)
        out = info_nce(q, k, temp)
        report = finite_difference_check(
            lambda p: info_nce(q, p, temp).loss, k, out.grad_k, eps=1e-6
        )
        assert report.max_rel_error <= 1e-6

    def test_grad_log_tau_matches_finite_difference(self, rng):
        q = unit(rng, 5, 6)
        k = unit(rng, 5, 6)
        temp = TemperatureParam(mode="learnable", value=0.07)
        out = info_nce(q, k, temp)

        def f(lt):
            t = TemperatureParam(mode="learnable", value=0.07, log_tau=lt)
            return info_nce(q, k, t).loss

        fd = central_diff_scalar(f, temp.log_tau, 1e-6)
        assert abs(out.grad_log_tau - fd) <= 1e-6

    def test_fixed_tau_grad_is_zero(self, rng):
        q = unit(rng, 5, 6)
        k = unit(rng, 5, 6)
        out = info_nce(q, k, TemperatureParam(mode="fixed", value=0.07))
        assert out.grad_log_tau == 0.0

    def test_loss_decreases_with_temperature_when_aligned(self):
        q = np.eye(4)
        losses = [
            info_nce(q, q.copy(), TemperatureParam(mode="fixed", value=tau)).loss
            for tau in (1.0, 0.2, 0.05)
        ]
        assert losses[0] > losses[1] > losses[2]

    def test_joint_permutation_equivariance(self, rng):
        q = unit(rng, 6, 5)
        k = unit(rng, 6, 5)
        temp = TemperatureParam(mode="fixed", value=0.07)
        base = info_nce(q, k, temp)
        perm = rng.permutation(6)
        permuted = info_nce(q[perm], k[perm], temp)
        assert abs(base.loss - permuted.loss) <= 1e-12
        assert np.max(np.abs(permuted.grad_q - base.grad_q[perm])) <= 1e-12

    def test_matches_naive_log_softmax(self, rng):
        q = unit(rng, 5, 4)
        k = unit(rng, 5, 4)
        tau = 0.05
        sims = q @ k.T
        naive = 0.0
        for i in range(5):
            row = np.exp(sims[i] / tau)
            naive -= math.log(row[i] / row.sum())
        naive /= 5.0
        out = info_nce(q, k, TemperatureParam(mode="fixed", value=tau))
        assert abs(out.loss - naive) <= 1e-9

    def test_empty_batch_rejected(self):
        with pytest.raises(Exception):
            info_nce(np.zeros((0, 4)), np.zeros((0, 4)), TemperatureParam())

    def test_row_count_mismatch_rejected(self, rng):
        with pytest.raises(Exception):
            info_nce(unit(rng, 3, 4), unit(rng, 4, 4), TemperatureParam())

    def test_dim_mismatch_rejected(self, rng):
        with pytest.raises(Exception):
            info_nce(rng.standard_normal((2, 3)), rng.standard_normal((2, 4)), TemperatureParam())


class TestSymmetricInfoNCE:
    def test_equals_sum_of_directions(self, rng):
        q = unit(rng, 6, 5)
        k = unit(rng, 6, 5)
        temp = TemperatureParam(mode="fixed", value=0.07)
        both = symmetric_info_nce(q, k, temp)
        fwd = info_nce(q, k, temp)
        rev = info_nce(k, q, temp)
        assert abs(both.loss - (fwd.loss + rev.loss)) <= 1e-12
        assert np.max(np.abs(both.grad_q - (fwd.grad_q + rev.grad_k))) <= 1e-12
        assert np.max(np.abs(both.grad_k - (fwd.grad_k + rev.grad_q))) <= 1e-12

    def test_matches_loop_oracle(self, rng):
        q = unit(rng, 5, 6)
        k = unit(rng, 5, 6)
        out = symmetric_info_nce(q, k, TemperatureParam(mode="fixed", value=0.2))
        want = symmetric_info_nce_loss_loops(q.tolist(), k.tolist(), 0.2)
        assert abs(out.loss - want) <= 1e-12

    def test_single_pair_loss_is_exactly_zero(self, rng):
        q = unit(rng, 1, 4)
        out = symmetric_info_nce(q, q.copy(), TemperatureParam())
        assert out.loss == 0.0

    def test_argument_swap_symmetry(self, rng):
        q = unit(rng, 4, 6)
        k = unit(rng, 4, 6)
        temp = TemperatureParam(mode="fixed", value=0.07)
        ab = symmetric_info_nce(q, k, temp)
        ba = symmetric_info_nce(k, q, temp)
        assert abs(ab.loss - ba.loss) <= 1e-12
        assert np.max(np.abs(ab.grad_q - ba.grad_k)) <= 1e-12

    @pytest.mark.parametrize("tau", [0.01, 0.07, 1.0, 5.0])
    @pytest.mark.parametrize("n", [1, 2, 7, 64])
    def test_loss_and_grads_match_loop_oracle(self, rng, n, tau):
        q = unit(rng, n, 5)
        k = unit(rng, n, 5)
        assert_matches_loop_oracle(q, k, TemperatureParam(mode="learnable", value=tau))

    @pytest.mark.parametrize("n", [2, 7, 64])
    def test_anti_aligned_rows_at_the_smallest_tau_match_loop_oracle(self, rng, n):
        # every positive scores -1 and some negative +1: logits span 2/tau = 200, and
        # rows whose own maximum sits far below the global one still sum to > 1e-87
        q = unit(rng, n, 5)
        q[1] = -q[0]
        temp = TemperatureParam(mode="learnable", value=0.01)
        assert temp.tau == pytest.approx(0.01, rel=1e-12)
        s = q @ (-q).T
        assert s.max() - s.min() == pytest.approx(2.0, rel=1e-12)
        assert_matches_loop_oracle(q, -q, temp)

    def test_underflowed_sums_raise_instead_of_a_loss(self, rng):
        # rows of norm 50 at tau 0.01: logits span 5e5, and exp(L - max L) is 0.0 for
        # every entry of some rows; the log of such a sum would be -inf
        q = 50.0 * unit(rng, 8, 5)
        k = 50.0 * unit(rng, 8, 5)
        temp = TemperatureParam(mode="fixed", value=0.01)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericsError, match="underflowed"):
                symmetric_info_nce(q, k, temp)
        logits = (q @ k.T) / temp.tau
        e = np.exp(logits - logits.max())
        assert min(e.sum(axis=0).min(), e.sum(axis=1).min()) < MIN_EXP_SUM

    def test_grads_match_finite_difference(self, rng):
        q = unit(rng, 4, 8)
        k = unit(rng, 4, 8)
        temp = TemperatureParam(mode="learnable", value=0.07)
        out = symmetric_info_nce(q, k, temp)
        rq = finite_difference_check(
            lambda p: symmetric_info_nce(p, k, temp).loss, q, out.grad_q, eps=1e-6
        )
        rk = finite_difference_check(
            lambda p: symmetric_info_nce(q, p, temp).loss, k, out.grad_k, eps=1e-6
        )
        assert rq.max_rel_error <= 1e-6
        assert rk.max_rel_error <= 1e-6

        def f(lt):
            t = TemperatureParam(mode="learnable", value=0.07, log_tau=lt)
            return symmetric_info_nce(q, k, t).loss

        fd = central_diff_scalar(f, temp.log_tau, 1e-6)
        assert abs(out.grad_log_tau - fd) <= 1e-6


def assert_matches_loop_oracle(q, k, temp):
    """Loss, both embedding gradients and grad_log_tau within 1e-12 of the loop oracle,
    relative to the largest magnitude of each."""
    out = symmetric_info_nce(q, k, temp)
    loss, grad_q, grad_k, grad_log_tau = symmetric_info_nce_grads_loops(q.tolist(), k.tolist(), temp.tau)
    for got, want in ((out.loss, loss), (out.grad_q, grad_q), (out.grad_k, grad_k),
                      (out.grad_log_tau, grad_log_tau)):
        got, want = np.asarray(got), np.asarray(want)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


class TestL2RegressionLoss:
    def test_identical_embeddings_zero_loss(self, rng):
        q = unit(rng, 4, 6)
        out = l2_regression_loss(q, q.copy())
        assert abs(out.loss) <= 1e-15
        assert out.grad_log_tau == 0.0

    def test_matches_loop_oracle(self, rng):
        q = rng.standard_normal((5, 4))
        k = rng.standard_normal((5, 4))
        out = l2_regression_loss(q, k)
        want = l2_regression_loss_loops(q.tolist(), k.tolist())
        assert abs(out.loss - want) <= 1e-12

    def test_grads_match_finite_difference(self, rng):
        q = rng.standard_normal((4, 5))
        k = rng.standard_normal((4, 5))
        out = l2_regression_loss(q, k)
        rq = finite_difference_check(
            lambda p: l2_regression_loss(p, k).loss, q, out.grad_q, eps=1e-6
        )
        rk = finite_difference_check(
            lambda p: l2_regression_loss(q, p).loss, k, out.grad_k, eps=1e-6
        )
        assert rq.max_rel_error <= 1e-8
        assert rk.max_rel_error <= 1e-8

    def test_empty_batch_rejected_like_info_nce(self):
        # np.sum(...) / 0 would return NaN with only a RuntimeWarning
        for loss in (l2_regression_loss, lambda q, k: info_nce(q, k, TemperatureParam())):
            with pytest.raises(NumericsError, match="non-empty batch"):
                loss(np.zeros((0, 4)), np.zeros((0, 4)))
