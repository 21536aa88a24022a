import math
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dcq.baseline import FcHead, fc_cosface_loss
from dcq.errors import ConfigError, ContractError, NumericError, ShapeError
from dcq.class_queue import MASK_VALUE, dcq_cosface_loss
from dcq import numerics
from dcq.numerics import (
    Tape,
    Tensor,
    dense,
    finite_difference_check,
    l2_normalize,
    margin_softmax_ce,
    matmul,
    rowwise_dot,
    sum_all,
)


def _matmul_reference(a, b):
    # independent triple-loop oracle
    m, k = a.shape
    k2, n = b.shape
    out = np.zeros((m, n))
    for i in range(m):
        for j in range(n):
            for l in range(k):
                out[i, j] += a[i, l] * b[l, j]
    return out


class TestMatmul:
    def test_identity(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((3, 3))
        out = matmul(Tensor(np.eye(3)), Tensor(a))
        np.testing.assert_array_equal(out.data, a)

    def test_scalar_case(self):
        out = matmul(Tensor([[2.0]]), Tensor([[3.0]]))
        assert out.data.tolist() == [[6.0]]

    def test_against_triple_loop(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((3, 4))
        b = rng.standard_normal((4, 2))
        out = matmul(Tensor(a), Tensor(b))
        assert np.abs(out.data - _matmul_reference(a, b)).max() < 1e-12

    def test_shape_error_names_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 3\)"):
            matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))

    def test_backward_rule(self):
        rng = np.random.default_rng(2)
        a = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        b = Tensor(rng.standard_normal((4, 2)), requires_grad=True)
        tape = Tape()
        loss = sum_all(matmul(a, b, tape), tape)
        tape.backward(loss)
        g = np.ones((3, 2))
        np.testing.assert_allclose(tape.grad(a), g @ b.data.T, atol=1e-15)
        np.testing.assert_allclose(tape.grad(b), a.data.T @ g, atol=1e-15)


def _prelu_only(x, slope, tape=None):
    """dense with identity weights and zero bias: the PReLU stage alone."""
    width = x.shape[1]
    return dense(x, Tensor(np.eye(width)), Tensor(np.zeros(width)), slope, tape)


class TestPrelu:
    """The PReLU stage of numerics.dense."""

    def test_negative_input(self):
        out = _prelu_only(Tensor([[-2.0]]), Tensor(np.asarray(0.25)))
        assert out.data[0, 0] == -0.5

    def test_positive_input_ignores_slope(self):
        for slope in (0.0, 0.25, 2.0):
            out = _prelu_only(Tensor([[3.0]]), Tensor(np.asarray(slope)))
            assert out.data[0, 0] == 3.0

    def test_slope_gradient_is_input(self):
        slope = Tensor(np.asarray(0.25), requires_grad=True)
        x = Tensor([[-2.0]], requires_grad=True)
        tape = Tape()
        loss = sum_all(_prelu_only(x, slope, tape), tape)
        tape.backward(loss)
        assert tape.grad(slope) == -2.0
        assert tape.grad(x)[0, 0] == 0.25


def _add_rowvec_reference(x, b, tape=None):
    # the bias op dense replaced, kept verbatim as its reference
    out = Tensor(x.data + b.data)
    numerics._register(tape, out, [
        (x, lambda g: g),
        (b, lambda g: g.sum(axis=0)),
    ])
    return out


def _prelu_reference(x, slope, tape=None):
    # the activation op dense replaced, kept verbatim as its reference
    a = float(slope.data)
    neg = x.data < 0
    out = Tensor(np.where(neg, a * x.data, x.data))
    numerics._register(tape, out, [
        (x, lambda g, neg=neg: np.where(neg, a * g, g)),
        (slope, lambda g, neg=neg, xd=x.data: np.asarray(np.sum(xd * g, where=neg))),
    ])
    return out


def _three_op_reference(x, w, b, slope, tape):
    h = _add_rowvec_reference(matmul(x, w, tape), b, tape)
    return h if slope is None else _prelu_reference(h, slope, tape)


class TestDense:
    def _case(self, seed, with_slope, slope_value=0.3):
        rng = np.random.default_rng(seed)
        x = Tensor(rng.standard_normal((5, 4)), requires_grad=True)
        w = Tensor(rng.standard_normal((4, 6)) / 2, requires_grad=True)
        b = Tensor(rng.standard_normal(6) / 2, requires_grad=True)
        slope = Tensor(np.asarray(slope_value), requires_grad=True) if with_slope else None
        probe = Tensor(rng.standard_normal((5, 6)))
        h = x.data @ w.data + b.data
        assert (h < 0).any() and (h > 0).any()  # both PReLU branches are exercised
        return x, w, b, slope, probe

    @pytest.mark.parametrize("with_slope", [True, False])
    def test_matches_finite_differences(self, with_slope):
        x, w, b, slope, probe = self._case(21, with_slope)

        def fn(tape):
            return sum_all(rowwise_dot(dense(x, w, b, slope, tape), probe, tape), tape)

        leaves = [x, w, b] + ([slope] if with_slope else [])
        assert finite_difference_check(fn, leaves) < 1e-5

    # learned slopes leave [0, 1] during training, so cover both sides; the
    # signed zero and huge slopes check the lookup's factor against where()'s
    @pytest.mark.parametrize("with_slope,slope_value", [
        (True, 0.3), (True, -1.7), (False, 0.0), (True, 0.0), (True, -0.0), (True, 1e300),
    ])
    def test_bit_equal_to_three_op_composition(self, with_slope, slope_value):
        x, w, b, slope, probe = self._case(22, with_slope, slope_value)
        # exact zeros in h: p − p in row 0, and a zero input row plus a −0.0
        # bias in row 1 (−0.0 where the BLAS sums the zero products to −0.0)
        x.data[1] = 0.0
        b.data[:2] = -(x.data @ w.data)[0, :2]
        b.data[2] = -0.0
        h = x.data @ w.data + b.data
        assert (h[0, :2] == 0).all() and h[1, 2] == 0
        leaves = [x, w, b] + ([slope] if with_slope else [])
        # and a whole desk table's row count, untaped as evaluation runs
        table_x = Tensor(np.random.default_rng(23).standard_normal((4400, 4)))
        results = []
        for op in (dense, _three_op_reference):
            tape = Tape()
            out = op(x, w, b, slope, tape)
            tape.backward(sum_all(rowwise_dot(out, probe, tape), tape))
            results.append([out.data] + [tape.grad(t) for t in leaves])
            results[-1].append(op(table_x, w, b, slope, None).data)
        for fused, reference in zip(*results):
            assert fused.shape == reference.shape
            assert fused.tobytes() == reference.tobytes()

    def test_one_tape_node(self):
        x, w, b, slope, _ = self._case(23, True)
        tape = Tape()
        dense(x, w, b, slope, tape)
        assert len(tape._nodes) == 1

    def test_shape_errors(self):
        x, w, b = Tensor(np.ones((2, 3))), Tensor(np.ones((3, 4))), Tensor(np.zeros(4))
        with pytest.raises(ShapeError):
            dense(x, Tensor(np.ones((2, 4))), b)
        with pytest.raises(ShapeError):
            dense(x, w, Tensor(np.zeros(3)))
        with pytest.raises(ShapeError):
            dense(x, w, b, Tensor(np.ones(1)))


class TestNormalizeRows:
    def test_three_four_five(self):
        out = l2_normalize(Tensor([[3.0, 4.0]]))
        np.testing.assert_allclose(out.data, [[0.6, 0.8]], atol=1e-15)

    def test_zero_row_stays_zero(self):
        out = l2_normalize(Tensor([[0.0, 0.0, 0.0]]))
        np.testing.assert_array_equal(out.data, [[0.0, 0.0, 0.0]])

    def test_output_norm_is_one(self):
        rng = np.random.default_rng(3)
        out = l2_normalize(Tensor(rng.standard_normal((1, 5))))
        assert abs(np.linalg.norm(out.data) - 1.0) < 1e-12


class TestSoftmaxCrossEntropy:
    def test_equal_logits(self):
        loss, probs = margin_softmax_ce([Tensor(np.zeros((1, 4)))], np.array([2]), 1.0, 0.0)
        assert abs(float(loss.data) - math.log(4)) < 1e-12
        np.testing.assert_allclose(probs[[0], [2]], [0.25], atol=1e-15)

    def test_dominant_target_logit(self):
        logits = np.zeros((1, 5))
        logits[0, 3] = 1000.0
        loss, _ = margin_softmax_ce([Tensor(logits)], np.array([3]), 1.0, 0.0)
        assert float(loss.data) < 1e-12

    def test_hand_computed_value(self):
        # scalar oracle: -ln(e^2 / (e^2 + e + 1))
        expected = math.log(math.e**2 + math.e + 1) - 2.0
        loss, _ = margin_softmax_ce([Tensor([[2.0, 1.0, 0.0]])], np.array([0]), 1.0, 0.0)
        assert abs(float(loss.data) - expected) < 1e-12

    def test_out_of_range_target(self):
        with pytest.raises(IndexError):
            margin_softmax_ce([Tensor(np.zeros((1, 3)))], np.array([3]), 1.0, 0.0)
        with pytest.raises(IndexError):
            margin_softmax_ce([Tensor(np.zeros((1, 3)))], np.array([-1]), 1.0, 0.0)

    @given(st.integers(0, 10**6))
    @settings(max_examples=50, deadline=None)
    def test_probabilities_sum_to_one(self, seed):
        rng = np.random.default_rng(seed)
        b, c = int(rng.integers(1, 5)), int(rng.integers(2, 7))
        logits = Tensor(rng.standard_normal((b, c)) * rng.uniform(0.1, 30))
        targets = rng.integers(0, c, size=b)
        _, probs = margin_softmax_ce([logits], targets, 1.0, 0.0)
        p_pos, p_neg = _split_at_targets(probs, targets)
        total = p_pos + p_neg.sum(axis=1)
        assert np.abs(total - 1.0).max() < 1e-12
        assert (p_pos >= 0).all() and (p_pos <= 1).all()
        assert (p_neg >= 0).all() and (p_neg <= 1).all()

    @given(st.integers(0, 10**6))
    @settings(max_examples=50, deadline=None)
    def test_gradient_balance_identity(self, seed):
        # pull coefficient equals the summed push coefficients per row
        rng = np.random.default_rng(seed)
        b, c = int(rng.integers(1, 5)), int(rng.integers(2, 7))
        logits = Tensor(rng.standard_normal((b, c)))
        targets = rng.integers(0, c, size=b)
        _, probs = margin_softmax_ce([logits], targets, 1.0, 0.0)
        p_pos, p_neg = _split_at_targets(probs, targets)
        assert np.abs((1.0 - p_pos) - p_neg.sum(axis=1)).max() < 1e-12


def _split_at_targets(probs, targets):
    """Each row's target probability, and its other entries in column order."""
    rows = np.arange(targets.size)
    others = np.ones(probs.shape, dtype=bool)
    others[rows, targets] = False
    return probs[rows, targets], probs[others].reshape(rows.size, -1)


def _margin_softmax_reference(cos, targets, s, m):
    """cosine → margin → scale → log-softmax, composed in plain numpy."""
    rows = np.arange(cos.shape[0])
    onehot = np.zeros_like(cos)
    onehot[rows, targets] = 1.0
    logits = s * (cos - m * onehot)
    shifted = logits - logits.max(axis=1, keepdims=True)
    log_probs = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    probs = np.exp(log_probs)
    loss = -log_probs[rows, targets].mean()
    return loss, probs, s * (probs - onehot) / cos.shape[0]


class TestMarginSoftmaxCe:
    def _check_against_reference(self, cos, targets, s, m):
        x = Tensor(cos.copy(), requires_grad=True)
        tape = Tape()
        loss, probs = margin_softmax_ce([x], targets, s, m, tape)
        tape.backward(loss)
        ref_loss, ref_probs, ref_grad = _margin_softmax_reference(cos, targets, s, m)
        p_pos, p_neg = _split_at_targets(probs, targets)
        ref_pos, ref_neg = _split_at_targets(ref_probs, targets)
        # 1 − p and log z cancel when p nears 1, so relative errors are floored
        # at 1e-12 of a unit probability (scaled by s/B for the gradient)
        assert abs(float(loss.data) - ref_loss) <= 1e-12 * max(1.0, abs(ref_loss))
        np.testing.assert_allclose(p_pos, ref_pos, rtol=1e-12, atol=0)
        np.testing.assert_allclose(p_neg, ref_neg, rtol=1e-12, atol=0)
        unit = s / cos.shape[0]
        np.testing.assert_allclose(tape.grad(x), ref_grad, rtol=1e-12, atol=1e-12 * unit)
        np.testing.assert_array_equal(x.data, cos)  # the input is not written
        return tape.grad(x), p_neg

    @given(st.integers(0, 10**6))
    @settings(max_examples=50, deadline=None)
    def test_target_at_any_column_matches_reference(self, seed):
        rng = np.random.default_rng(seed)
        b, c = int(rng.integers(1, 6)), int(rng.integers(2, 10))
        cos = rng.uniform(-1.0, 1.0, size=(b, c))
        targets = rng.integers(0, c, size=b)
        s, m = float(rng.choice([1.0, 30.0, 64.0])), float(rng.uniform(0.0, 0.5))
        self._check_against_reference(cos, targets, s, m)

    @given(st.integers(0, 10**6))
    @settings(max_examples=50, deadline=None)
    def test_muted_columns_match_reference_with_exactly_zero_gradient(self, seed):
        # the queue layout: target at column 0, muted negatives at MASK_VALUE
        rng = np.random.default_rng(seed)
        b, k = int(rng.integers(1, 6)), int(rng.integers(2, 12))
        cos = rng.uniform(-1.0, 1.0, size=(b, k + 1))
        muted = np.zeros(cos.shape, dtype=bool)
        muted[:, 1:] = rng.random((b, k)) < 0.4
        cos[muted] = MASK_VALUE
        grad, p_neg = self._check_against_reference(cos, np.zeros(b, dtype=np.int64), 50.0, 0.3)
        assert (grad[muted] == 0.0).all()
        assert (p_neg[muted[:, 1:]] == 0.0).all()

    def test_unit_scale_no_margin_is_cross_entropy(self):
        logits = np.array([[0.3, -1.2, 2.0], [1.0, 1.0, -0.5]])
        loss, _ = margin_softmax_ce([Tensor(logits)], np.array([2, 0]), 1.0, 0.0)
        expected = np.mean([
            math.log(sum(math.exp(v) for v in row)) - row[t]
            for row, t in zip(logits.tolist(), (2, 0))
        ])
        assert abs(float(loss.data) - expected) < 1e-12

    @given(st.integers(0, 10**6))
    @settings(max_examples=50, deadline=None)
    def test_column_blocks_equal_their_concatenation_bit_for_bit(self, seed):
        # the dcq layout generalised: a target in every block, muted entries
        rng = np.random.default_rng(seed)
        widths = rng.integers(1, 6, size=3)
        b = int(rng.integers(3, 7))
        cos = rng.uniform(-1.0, 1.0, size=(b, int(widths.sum())))
        cos[rng.random(cos.shape) < 0.3] = MASK_VALUE
        edges = np.concatenate([[0], np.cumsum(widths)])
        in_block = np.concatenate([[0, 1, 2], rng.integers(0, 3, size=b - 3)])
        targets = edges[in_block] + rng.integers(0, widths[in_block])
        s, m = float(rng.choice([1.0, 50.0, 64.0])), float(rng.uniform(0.0, 0.5))

        blocks = [Tensor(cos[:, lo:hi], requires_grad=True) for lo, hi in zip(edges, edges[1:])]
        tape = Tape()
        loss, probs = margin_softmax_ce(blocks, targets, s, m, tape)
        tape.backward(loss)
        whole = Tensor(cos, requires_grad=True)
        ref_tape = Tape()
        ref_loss, ref_probs = margin_softmax_ce([whole], targets, s, m, ref_tape)
        ref_tape.backward(ref_loss)

        assert loss.data.tobytes() == ref_loss.data.tobytes()
        assert probs.tobytes() == ref_probs.tobytes()
        rows = np.arange(b)
        assert probs[rows, targets].tobytes() == ref_probs[rows, targets].tobytes()
        ref_grad = ref_tape.grad(whole)
        for block, lo, hi in zip(blocks, edges, edges[1:]):
            assert tape.grad(block).tobytes() == ref_grad[:, lo:hi].tobytes()

    def test_shape_errors(self):
        with pytest.raises(ShapeError):
            margin_softmax_ce([], np.array([0]), 1.0, 0.0)
        with pytest.raises(ShapeError):  # a block that is not a matrix
            margin_softmax_ce([Tensor(np.zeros(3))], np.array([0]), 1.0, 0.0)
        with pytest.raises(ShapeError):
            margin_softmax_ce([Tensor(np.zeros((1, 1))), Tensor(np.zeros(3))], np.array([0]), 1.0, 0.0)
        with pytest.raises(ShapeError):  # blocks with different row counts
            margin_softmax_ce([Tensor(np.zeros((2, 1))), Tensor(np.zeros((1, 3)))], np.array([0, 0]), 1.0, 0.0)
        with pytest.raises(ShapeError):  # one target for two rows
            margin_softmax_ce([Tensor(np.zeros((2, 3)))], np.array([0]), 1.0, 0.0)

    @pytest.mark.parametrize("s,m", [
        (0.0, 0.3), (-1.0, 0.3), (math.nan, 0.3), (math.inf, 0.3), (-math.inf, 0.3),
        (30.0, -0.1), (30.0, math.nan), (30.0, math.inf),
    ])
    def test_scale_and_margin_checked_for_both_heads(self, s, m):
        rng = np.random.default_rng(11)
        f = Tensor(rng.standard_normal((2, 4)))
        l_pos, l_neg = Tensor(rng.uniform(-1, 1, (2, 1))), Tensor(rng.uniform(-1, 1, (2, 5)))
        with pytest.raises(ConfigError):
            fc_cosface_loss(f, FcHead(4, 6, seed=3), np.array([0, 5]), s, m)
        with pytest.raises(ConfigError):
            dcq_cosface_loss(l_pos, l_neg, s, m)


class TestBackwardPass:
    def test_constant_output_zero_gradients(self):
        x = Tensor(np.ones((2, 3)), requires_grad=True)
        tape = Tape()
        constant = matmul(x, Tensor(np.zeros((3, 3))), tape)
        loss = sum_all(constant, tape)
        tape.backward(loss)
        np.testing.assert_array_equal(tape.grad(x), np.zeros((2, 3)))

    def test_linear_head_matches_pull_push_closed_forms(self):
        # single sample, plain linear head with cross entropy
        rng = np.random.default_rng(7)
        d, c = 5, 4
        f = Tensor(rng.standard_normal((1, d)), requires_grad=True)
        w = Tensor(rng.standard_normal((d, c)), requires_grad=True)
        y = np.array([1])
        tape = Tape()
        loss, probs = margin_softmax_ce([matmul(f, w, tape)], y, 1.0, 0.0, tape)
        tape.backward(loss)

        p_full = probs[0]
        w_pos = w.data[:, y[0]]
        negatives = [j for j in range(c) if j != y[0]]
        df_expected = -(1 - p_full[y[0]]) * w_pos
        for j, p in zip(negatives, p_full[negatives]):
            df_expected = df_expected + p * w.data[:, j]
        np.testing.assert_allclose(tape.grad(f)[0], df_expected, atol=1e-9)

        dw = tape.grad(w)
        np.testing.assert_allclose(dw[:, y[0]], -(1 - p_full[y[0]]) * f.data[0], atol=1e-9)
        for j, p in zip(negatives, p_full[negatives]):
            np.testing.assert_allclose(dw[:, j], p * f.data[0], atol=1e-9)
        assert abs(p_full.sum() - 1.0) < 1e-12

    def test_two_layer_mlp_matches_finite_differences(self):
        rng = np.random.default_rng(8)
        w1 = Tensor(rng.standard_normal((4, 6)) / 2, requires_grad=True)
        b1 = Tensor(rng.standard_normal(6) / 2, requires_grad=True)
        slope = Tensor(np.asarray(0.3), requires_grad=True)
        w2 = Tensor(rng.standard_normal((6, 3)) / 2, requires_grad=True)
        x = Tensor(rng.standard_normal((3, 4)))
        y = np.array([0, 2, 1])

        def fn(tape):
            h = dense(x, w1, b1, slope, tape)
            loss, _ = margin_softmax_ce([matmul(h, w2, tape)], y, 1.0, 0.0, tape)
            return loss

        err = finite_difference_check(fn, [w1, b1, slope, w2])
        assert err < 1e-5

    def test_backward_on_non_scalar_rejected(self):
        x = Tensor(np.ones((2, 2)), requires_grad=True)
        tape = Tape()
        out = matmul(x, x, tape)
        with pytest.raises(ContractError):
            tape.backward(out)

    def test_detached_tensor_gets_exactly_zero_gradient(self):
        rng = np.random.default_rng(9)
        x = Tensor(rng.standard_normal((2, 3)), requires_grad=True)
        const = Tensor(rng.standard_normal((3, 2)))  # not a parameter, not on tape
        tape = Tape()
        loss = sum_all(matmul(x, const, tape), tape)
        tape.backward(loss)
        np.testing.assert_array_equal(tape.grad(const), np.zeros((3, 2)))
        assert tape.grad(x).any()

    def test_grad_of_op_output_is_refused(self):
        x = Tensor(np.ones((2, 2)), requires_grad=True)
        tape = Tape()
        h = matmul(x, x, tape)
        tape.backward(sum_all(h, tape))
        with pytest.raises(ContractError, match="leaf gradients only"):
            tape.grad(h)
        np.testing.assert_array_equal(tape.grad(x), [[4.0, 4.0], [4.0, 4.0]])

    def test_tape_does_not_keep_an_uncaptured_op_output(self):
        # the cosine matrix of a head: its VJPs read only the matmul's
        # inputs and the loss's own copy, so nothing should keep it alive
        rng = np.random.default_rng(10)
        f = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        w = Tensor(rng.standard_normal((4, 5)), requires_grad=True)
        y = np.array([0, 4, 2])
        tape = Tape()
        cos = matmul(f, w, tape)
        cos_data = weakref.ref(cos.data)
        loss, _ = margin_softmax_ce([cos], y, 30.0, 0.3, tape)
        del cos
        assert cos_data() is None
        tape.backward(loss)
        reference = Tape()
        ref_loss, _ = margin_softmax_ce([matmul(f, w, reference)], y, 30.0, 0.3, reference)
        reference.backward(ref_loss)
        for leaf in (f, w):
            assert tape.grad(leaf).tobytes() == reference.grad(leaf).tobytes()

    def test_detach_blocks_gradient_flow(self):
        x = Tensor(np.ones((2, 2)), requires_grad=True)
        tape = Tape()
        h = matmul(x, x, tape)
        loss = sum_all(Tensor(h.data), tape)
        tape.backward(loss)
        np.testing.assert_array_equal(tape.grad(x), np.zeros((2, 2)))


class TestFiniteDifferenceCheck:
    def test_quadratic(self):
        x = Tensor(np.asarray([[1.0]]), requires_grad=True)

        def fn(tape):
            return sum_all(rowwise_dot(x, x, tape), tape)

        # analytic 2 vs central difference 2 at x=1
        assert finite_difference_check(fn, [x], h=1e-5) < 1e-10

    def test_constant_function(self):
        x = Tensor(np.asarray([[1.0, 2.0]]), requires_grad=True)

        def fn(tape):
            return sum_all(matmul(x, Tensor(np.zeros((2, 1))), tape), tape)

        assert finite_difference_check(fn, [x]) == 0.0

    def test_non_finite_value_raises(self):
        x = Tensor(np.asarray([[1.0]]), requires_grad=True)

        def fn(tape):
            return Tensor(np.asarray(np.nan))

        with pytest.raises(NumericError):
            finite_difference_check(fn, [x])


class TestOpPlumbing:
    @staticmethod
    def _check_normalize_jacobian(x, probe, axis):
        # d/dv of pᵀ(v/r) is (p − y(yᵀp))/r with r = ‖v‖ and y = v/r, per
        # vector along the axis; finite differences are no oracle here, since
        # a gradient entry can be ~1e-7 against their ~1e-11 error
        tape = Tape()
        x_t = Tensor(x, requires_grad=True)
        y_t = l2_normalize(x_t, axis, tape=tape)
        tape.backward(sum_all(rowwise_dot(y_t, Tensor(probe), tape), tape))
        r = np.linalg.norm(x, axis=axis, keepdims=True)
        y = x / r
        expected = (probe - y * np.sum(y * probe, axis=axis, keepdims=True)) / r
        np.testing.assert_allclose(tape.grad(x_t), expected, rtol=1e-9, atol=1e-15)

    @given(st.integers(0, 10**6))
    @settings(max_examples=30, deadline=None)
    def test_normalize_jacobian_matches_closed_form(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((2, 4)) + 0.1
        self._check_normalize_jacobian(x, rng.standard_normal((2, 4)), axis=1)

    @given(st.integers(0, 10**6))
    @example(26623)  # a ~4e-7 entry for which central differences read 2.5e-5
    @settings(max_examples=30, deadline=None)
    def test_column_normalize_jacobian_matches_closed_form(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((4, 3)) + 0.1
        self._check_normalize_jacobian(x, rng.standard_normal((4, 3)), axis=0)

    def test_column_case_is_the_row_case_transposed(self):
        rng = np.random.default_rng(13)
        x = rng.standard_normal((5, 7))
        x[:, 2] = 0.0  # a zero column stays zero
        cols = l2_normalize(Tensor(x), axis=0).data
        rows = l2_normalize(Tensor(x.T), axis=1).data.T
        np.testing.assert_allclose(cols, rows, rtol=1e-15, atol=0)
        np.testing.assert_array_equal(cols[:, 2], 0.0)

    def test_bad_axis_rejected(self):
        with pytest.raises(ShapeError):
            l2_normalize(Tensor(np.ones((2, 2))), axis=2)

    def test_all_values_finite_after_ops(self):
        rng = np.random.default_rng(12)
        x = Tensor(rng.standard_normal((3, 4)))
        w = Tensor(rng.standard_normal((4, 2)))
        out = matmul(l2_normalize(x), w)
        assert np.isfinite(out.data).all()
