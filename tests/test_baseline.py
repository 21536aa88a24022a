import math

import numpy as np
import pytest

from dcq.baseline import FcHead, fc_cosface_loss, head_class_count
from dcq.errors import ConfigError
from dcq.numerics import Tape, Tensor
from dcq.synthdata import LongTailSpec, assign_longtail_counts
from dcq.trainer import sgd_momentum_step


def _head_with(weights: np.ndarray) -> FcHead:
    head = FcHead(weights.shape[0], weights.shape[1], seed=0)
    head.W.data[...] = weights
    return head


class TestFcCosfaceLoss:
    def test_two_class_hand_oracle(self):
        # cosines (1, 0) at s=1, m=0: loss = -ln(e / (e + 1))
        head = _head_with(np.array([[1.0, 0.0], [0.0, 1.0]]))
        f = Tensor(np.array([[1.0, 0.0]]))
        loss, _ = fc_cosface_loss(f, head, np.array([0]), s=1.0, m=0.0)
        expected = -math.log(math.e / (math.e + 1.0))
        assert abs(float(loss.data) - expected) < 1e-12

    def test_identical_columns_symmetry(self):
        col = np.array([0.3, -1.2, 0.5])
        head = _head_with(np.tile(col[:, None], (1, 6)))
        f = Tensor(np.random.default_rng(0).standard_normal((4, 3)))
        loss, _ = fc_cosface_loss(f, head, np.array([0, 5, 2, 3]), s=7.0, m=0.0)
        assert abs(float(loss.data) - math.log(6)) < 1e-12

    def test_label_out_of_range(self):
        head = _head_with(np.eye(3))
        with pytest.raises(IndexError):
            fc_cosface_loss(Tensor(np.ones((1, 3))), head, np.array([3]), 1.0, 0.0)

    def test_head_of_one_class_rejected(self):
        with pytest.raises(ConfigError, match="needs >= 2 classes, got 1"):
            FcHead(4, 1, seed=0)

    def test_scale_one_margin_zero_equals_cross_entropy_on_cosines(self):
        rng = np.random.default_rng(1)
        head = _head_with(rng.standard_normal((4, 5)))
        f_raw = rng.standard_normal((3, 4))
        y = np.array([2, 0, 4])
        loss, _ = fc_cosface_loss(Tensor(f_raw), head, y, s=1.0, m=0.0)

        f_hat = f_raw / np.linalg.norm(f_raw, axis=1, keepdims=True)
        w_hat = head.W.data / np.linalg.norm(head.W.data, axis=0, keepdims=True)
        cos = f_hat @ w_hat
        lse = np.log(np.exp(cos).sum(axis=1))
        expected = float(np.mean(lse - cos[np.arange(3), y]))
        assert abs(float(loss.data) - expected) < 1e-12

    def test_gradients_match_pull_push_structure(self):
        # s=1, m=0: the gradient reaching f and each W column is the closed
        # pull/push form composed with the normalization Jacobian
        rng = np.random.default_rng(2)
        d, c, b = 4, 5, 3
        head = _head_with(rng.standard_normal((d, c)))
        f_raw = rng.standard_normal((b, d))
        y = np.array([1, 4, 1])
        f = Tensor(f_raw, requires_grad=True)
        tape = Tape()
        loss, probs = fc_cosface_loss(f, head, y, s=1.0, m=0.0, tape=tape)
        tape.backward(loss)

        f_norms = np.linalg.norm(f_raw, axis=1, keepdims=True)
        f_hat = f_raw / f_norms
        w_norms = np.linalg.norm(head.W.data, axis=0, keepdims=True)
        w_hat = head.W.data / w_norms
        rows = np.arange(b)
        p = np.empty((b, c))
        for i in range(b):
            p[i] = probs[i]

        # feature side: (-(1-p+) w+ + sum p- w-) per row, projected and scaled
        expected_df = np.empty_like(f_raw)
        for i in range(b):
            g_hat = -(1 - p[i, y[i]]) * w_hat[:, y[i]]
            for j in range(c):
                if j != y[i]:
                    g_hat = g_hat + p[i, j] * w_hat[:, j]
            g_hat /= b  # mean reduction
            expected_df[i] = (g_hat - (g_hat @ f_hat[i]) * f_hat[i]) / f_norms[i, 0]
        np.testing.assert_allclose(tape.grad(f), expected_df, atol=1e-9)

        # weight side: -(1-p+) f for the target column, p- f for the rest
        coef = p.copy()
        coef[rows, y] -= 1.0
        dw = tape.grad(head.W)
        for j in range(c):
            g_hat = (coef[:, j] / b) @ f_hat
            expected = (g_hat - (g_hat @ w_hat[:, j]) * w_hat[:, j]) / w_norms[0, j]
            np.testing.assert_allclose(dw[:, j], expected, atol=1e-9)


class TestHeadClassCount:
    def test_threshold_one_keeps_everything(self):
        assert head_class_count(np.array([5, 3, 1]), 1) == 3

    def test_threshold_nine(self):
        assert head_class_count(np.array([12, 9, 3]), 9) == 2

    def test_retained_fraction_matches_enumeration(self):
        counts = assign_longtail_counts(LongTailSpec(1.5, 2, 200), 2000)
        n = head_class_count(counts, 9)
        assert n == int((counts >= 9).sum())
        assert (counts[:n] >= 9).all()

    def test_empty_result_rejected(self):
        with pytest.raises(ConfigError, match="1 classes have 10 or more instances; a head needs 2"):
            head_class_count(np.array([12, 2, 1]), 10)
        with pytest.raises(ConfigError, match="min_instances must be >= 1, got 0"):
            head_class_count(np.array([2, 1]), 0)


class TestPullPushLedger:
    def test_cumulative_update_equals_signed_ledger(self):
        # 3-class linear trace: after 10 plain-SGD iterations the weight
        # matrix equals init plus the recorded pull/push entries
        rng = np.random.default_rng(3)
        d, c, b = 4, 3, 3
        features = rng.standard_normal((6, d))
        labels = np.array([0, 1, 2, 0, 1, 2])
        w = Tensor(rng.standard_normal((d, c)), requires_grad=True)
        w0 = w.data.copy()
        velocity = np.zeros_like(w.data)
        lr = 0.1

        ledger = np.zeros((d, c))
        from dcq.numerics import margin_softmax_ce, matmul

        for it in range(10):
            pick = rng.integers(0, 6, size=b)
            f = Tensor(features[pick])
            y = labels[pick]
            tape = Tape()
            loss, probs = margin_softmax_ce([matmul(f, w, tape)], y, 1.0, 0.0, tape)
            tape.backward(loss)
            sgd_momentum_step(w.data, tape.grad(w), velocity, lr, 0.0, 0.0)

            for i in range(b):
                p_row = probs[i]
                for j in range(c):
                    if j == y[i]:
                        ledger[:, j] += lr * (1.0 - p_row[j]) * features[pick[i]] / b
                    else:
                        ledger[:, j] -= lr * p_row[j] * features[pick[i]] / b

        np.testing.assert_allclose(w.data, w0 + ledger, atol=1e-12)
