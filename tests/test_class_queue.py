import copy

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dcq.class_queue import (
    MASK_VALUE,
    SENTINEL_LABEL,
    ClassQueue,
    EmaGenerator,
    dcq_cosface_loss,
    dcq_logits_with_mask,
)
from dcq.errors import ConfigError, ContractError, ShapeError
from dcq.model import extract_features, init_extractor
from dcq.numerics import Tape, Tensor, l2_normalize


def cosface_full_reference(f, weights, y, s, m):
    """Independent oracle: the full-softmax cosine-margin loss in plain numpy."""
    f_hat = f / np.linalg.norm(f, axis=1, keepdims=True)
    w_hat = weights / np.linalg.norm(weights, axis=0, keepdims=True)
    cos = f_hat @ w_hat
    rows = np.arange(len(y))
    logits = s * cos
    logits[rows, y] = s * (cos[rows, y] - m)
    mx = logits.max(axis=1, keepdims=True)
    lse = mx[:, 0] + np.log(np.exp(logits - mx).sum(axis=1))
    return float(np.mean(lse - logits[rows, y]))


def subset_reference(l_pos_row, keep_neg_row, s, m):
    """Per-row loss with masked columns physically removed."""
    logits = s * np.concatenate([[l_pos_row - m], keep_neg_row])
    mx = logits.max()
    return float(mx + np.log(np.exp(logits - mx).sum()) - logits[0])


class TestEmaGenerator:
    def test_initial_shadow_is_exact_copy(self):
        extractor = init_extractor([4, 5, 3], seed=0)
        gen = EmaGenerator(extractor, alpha=0.999)
        for (_, s), (_, p) in zip(
            gen.shadow.named_parameters(), extractor.named_parameters()
        ):
            np.testing.assert_array_equal(s.data, p.data)

    def test_alpha_one_freezes_shadow(self):
        extractor = init_extractor([4, 5, 3], seed=0)
        gen = EmaGenerator(extractor, alpha=1.0)
        before = [s.data.copy() for _, s in gen.shadow.named_parameters()]
        extractor.layers[0].weight.data += 1.0
        gen.update(extractor)
        for prev, (_, s) in zip(before, gen.shadow.named_parameters()):
            np.testing.assert_array_equal(s.data, prev)

    def test_alpha_zero_copies_extractor(self):
        extractor = init_extractor([4, 5, 3], seed=0)
        gen = EmaGenerator(extractor, alpha=0.0)
        extractor.layers[0].weight.data += 1.0
        gen.update(extractor)
        for (_, s), (_, p) in zip(
            gen.shadow.named_parameters(), extractor.named_parameters()
        ):
            np.testing.assert_array_equal(s.data, p.data)

    def test_geometric_series_toward_constant_target(self):
        extractor = init_extractor([3, 4, 2], seed=1)
        for _, p in extractor.named_parameters():
            p.data[...] = 1.0
        gen = EmaGenerator(extractor, alpha=0.999)
        for _, s in gen.shadow.named_parameters():
            s.data[...] = 0.0
        for t in range(1, 101):
            gen.update(extractor)
            expected = 1.0 - 0.999**t
            assert abs(float(gen.shadow.layers[0].weight.data[0, 0]) - expected) < 1e-12

    @pytest.mark.parametrize("alpha", [0.0, 0.9, 0.999, 1.0])
    def test_closed_form_trajectory_long_run(self, alpha):
        # shadow_t = alpha^t * shadow_0 + (1 - alpha^t) * theta, t up to 1e4
        extractor = init_extractor([3, 4, 2], seed=2)
        gen = EmaGenerator(extractor, alpha=alpha)
        rng = np.random.default_rng(3)
        shadow0 = {}
        for name, s in gen.shadow.named_parameters():
            s.data[...] = rng.uniform(-1, 1, size=s.data.shape)
            shadow0[name] = s.data.copy()
        theta = {name: p.data.copy() for name, p in extractor.named_parameters()}
        checkpoints = {1, 10, 100, 1000, 10_000}
        for t in range(1, 10_001):
            gen.update(extractor)
            if t in checkpoints:
                at = alpha**t
                for name, s in gen.shadow.named_parameters():
                    expected = at * shadow0[name] + (1 - at) * theta[name]
                    assert np.abs(s.data - expected).max() < 1e-12, (alpha, t, name)

    @pytest.mark.parametrize("alpha", [0.0, 0.5, 0.999])
    def test_flat_update_bit_equal_to_per_parameter_loop(self, alpha):
        extractor = init_extractor([6, 8, 5, 3], seed=4)
        gen = EmaGenerator(extractor, alpha=alpha)
        reference = {name: s.data.copy() for name, s in gen.shadow.named_parameters()}
        rng = np.random.default_rng(4)
        for _ in range(5):
            extractor.flat[...] = rng.standard_normal(extractor.flat.size)
            gen.update(extractor)
            # the per-parameter update the flat one replaced
            for name, p in extractor.named_parameters():
                reference[name] *= alpha
                reference[name] += (1.0 - alpha) * p.data
        for name, s in gen.shadow.named_parameters():
            np.testing.assert_array_equal(s.data, reference[name])

    def test_shape_mismatch_rejected(self):
        gen = EmaGenerator(init_extractor([4, 5, 3], seed=0), alpha=0.5)
        with pytest.raises(ContractError):
            gen.update(init_extractor([4, 6, 3], seed=0))

    def test_alpha_range_validated(self):
        with pytest.raises(ConfigError):
            EmaGenerator(init_extractor([4, 5, 3], seed=0), alpha=1.5)


class TestGenerateClassWeights:
    def test_identical_references_identical_weights(self):
        gen = EmaGenerator(init_extractor([4, 5, 3], seed=4), alpha=0.999)
        row = np.random.default_rng(0).standard_normal(4)
        w = gen.generate(Tensor(np.stack([row, row, row])))
        np.testing.assert_array_equal(w.data[0], w.data[1])
        np.testing.assert_array_equal(w.data[0], w.data[2])

    def test_matches_extractor_at_initialization(self):
        extractor = init_extractor([4, 5, 3], seed=5)
        gen = EmaGenerator(extractor, alpha=0.999)
        x = Tensor(np.random.default_rng(1).standard_normal((6, 4)))
        w = gen.generate(x)
        feats = extract_features(extractor, x, tape=None).data
        expected = feats / np.linalg.norm(feats, axis=1, keepdims=True)
        np.testing.assert_allclose(w.data, expected, atol=1e-15)

    def test_rows_unit_norm(self):
        gen = EmaGenerator(init_extractor([6, 8, 5], seed=6), alpha=0.999)
        w = gen.generate(Tensor(np.random.default_rng(2).standard_normal((20, 6))))
        assert np.abs(np.linalg.norm(w.data, axis=1) - 1.0).max() < 1e-12


class TestClassQueue:
    def _unit_rows(self, n, d, seed=0):
        rows = np.random.default_rng(seed).standard_normal((n, d))
        return rows / np.linalg.norm(rows, axis=1, keepdims=True)

    def test_fifo_overwrite(self):
        q = ClassQueue(embed_dim=3, capacity=4)
        w = self._unit_rows(2, 3)
        q.update(Tensor(w), np.array([10, 11]))  # a, b
        q.update(Tensor(w), np.array([12, 13]))  # c, d
        q.update(Tensor(w), np.array([14, 15]))  # e, f overwrite a, b
        assert sorted(q.labels.tolist()) == [12, 13, 14, 15]
        assert np.roll(q.labels, -q.cursor).tolist() == [12, 13, 14, 15]

    def test_weight_and_label_written_together(self):
        q = ClassQueue(embed_dim=3, capacity=4)
        w1 = self._unit_rows(2, 3, seed=1)
        w2 = self._unit_rows(2, 3, seed=2)
        q.update(Tensor(w1), np.array([1, 2]))
        q.update(Tensor(w2), np.array([3, 4]))
        for i, label in enumerate(q.labels):
            source = w1 if label in (1, 2) else w2
            idx = [1, 2].index(label) if label in (1, 2) else [3, 4].index(label)
            np.testing.assert_array_equal(q.weights[:, i], source[idx])

    def test_sentinels_cleared_after_fill(self):
        q = ClassQueue(embed_dim=3, capacity=7)
        batch = 2
        n_batches = -(-7 // batch)  # ceil(K/B)
        for t in range(n_batches):
            assert not (q.labels != SENTINEL_LABEL).all()
            q.update(Tensor(self._unit_rows(batch, 3, seed=t)), np.array([t, t]))
        assert (q.labels != SENTINEL_LABEL).all()

    def test_multiset_equals_last_k_enqueued(self):
        q = ClassQueue(embed_dim=2, capacity=6)
        enqueued = []
        rng = np.random.default_rng(3)
        for t in range(10):
            batch = int(rng.integers(1, 4))
            labels = rng.integers(0, 50, size=batch)
            q.update(Tensor(self._unit_rows(batch, 2, seed=t)), labels)
            enqueued.extend(labels.tolist())
        assert np.roll(q.labels, -q.cursor).tolist() == enqueued[-6:]

    def test_batch_larger_than_capacity_rejected(self):
        q = ClassQueue(embed_dim=3, capacity=2)
        with pytest.raises(ConfigError):
            q.update(Tensor(self._unit_rows(3, 3)), np.array([1, 2, 3]))

    def test_zero_capacity_rejected(self):
        with pytest.raises(ConfigError, match="queue capacity must be positive, got 0"):
            ClassQueue(8, 0)

    def test_update_shapes_checked(self):
        q = ClassQueue(embed_dim=3, capacity=4)
        with pytest.raises(ShapeError, match="do not match embed dim 3"):
            q.update(Tensor(self._unit_rows(2, 4)), np.array([1, 2]))
        with pytest.raises(ShapeError, match=r"labels \(3,\) for 2 weights"):
            q.update(Tensor(self._unit_rows(2, 3)), np.array([1, 2, 3]))
        # nothing was written
        assert q.cursor == 0 and (q.labels == SENTINEL_LABEL).all()

    @given(st.integers(2, 9), st.lists(st.integers(1, 6), min_size=1, max_size=20),
           st.integers(0, 10**6))
    @settings(max_examples=40, deadline=None)
    def test_fifo_property(self, capacity, batch_sizes, seed):
        # after any enqueue sequence the ring holds exactly the last K
        # enqueued (weight, label) pairs, oldest first
        rng = np.random.default_rng(seed)
        q = ClassQueue(embed_dim=3, capacity=capacity)
        history_labels: list[int] = []
        history_rows: list[np.ndarray] = []
        for size in batch_sizes:
            size = min(size, capacity)
            rows = self._unit_rows(size, 3, seed=int(rng.integers(1 << 30)))
            labels = rng.integers(0, 100, size=size)
            q.update(Tensor(rows), labels)
            history_labels.extend(labels.tolist())
            history_rows.extend(rows)
        window = history_labels[-capacity:]
        fifo = np.roll(q.labels, -q.cursor).tolist()
        assert fifo[capacity - len(window):] == window
        assert all(l == SENTINEL_LABEL for l in fifo[: capacity - len(window)])
        order = (q.cursor + np.arange(capacity)) % capacity
        stored = q.weights[:, order[capacity - len(window):]].T
        np.testing.assert_array_equal(stored, np.stack(history_rows[-len(window):]))

    def test_cursor_advances_modulo_capacity(self):
        q = ClassQueue(embed_dim=2, capacity=6)
        for expected in (2, 4, 0, 2):
            q.update(Tensor(self._unit_rows(2, 2)), np.array([0, 1]))
            assert q.cursor == expected


class TestLogitsWithMask:
    def setup_method(self):
        self.extractor = init_extractor([5, 6, 4], seed=7)
        self.gen = EmaGenerator(self.extractor, alpha=0.999)

    def test_mismatched_shapes_rejected(self):
        q = ClassQueue(4, 5)
        with pytest.raises(ShapeError, match=r"features \(3, 4\) vs positive weights \(2, 4\)"):
            dcq_logits_with_mask(Tensor(np.ones((3, 4))), Tensor(np.ones((2, 4))), q, [0, 1, 2])

    def test_aligned_positive_gives_unit_logit(self):
        rng = np.random.default_rng(4)
        f_raw = rng.standard_normal((3, 4))
        w_pos = f_raw / np.linalg.norm(f_raw, axis=1, keepdims=True)
        q = ClassQueue(4, 5)
        l_pos, _ = dcq_logits_with_mask(Tensor(f_raw), Tensor(w_pos), q, np.array([0, 1, 2]))
        np.testing.assert_allclose(l_pos.data[:, 0], 1.0, atol=1e-12)

    def test_duplicate_slot_masked_to_exact_value(self):
        rng = np.random.default_rng(5)
        q = ClassQueue(4, 3)
        w = rng.standard_normal((3, 4))
        w /= np.linalg.norm(w, axis=1, keepdims=True)
        q.update(Tensor(w), np.array([7, 8, 9]))
        f = Tensor(rng.standard_normal((2, 4)))
        w_pos = self.gen.generate(Tensor(rng.standard_normal((2, 5))))
        y = np.array([8, 3])
        _, l_neg = dcq_logits_with_mask(f, w_pos, q, y)
        assert l_neg.data[0, 1] == MASK_VALUE  # slot with label 8 for row y=8
        assert l_neg.data[0, 0] != MASK_VALUE and l_neg.data[1, 1] != MASK_VALUE

    def test_sentinel_slots_masked(self):
        q = ClassQueue(4, 5)  # empty: all sentinels
        rng = np.random.default_rng(6)
        f = Tensor(rng.standard_normal((2, 4)))
        w_pos = self.gen.generate(Tensor(rng.standard_normal((2, 5))))
        _, l_neg = dcq_logits_with_mask(f, w_pos, q, np.array([0, 1]))
        assert (l_neg.data == MASK_VALUE).all()

    def test_unmasked_logits_are_cosines(self):
        rng = np.random.default_rng(7)
        q = ClassQueue(4, 6)
        w = rng.standard_normal((6, 4))
        w /= np.linalg.norm(w, axis=1, keepdims=True)
        q.update(Tensor(w), np.arange(100, 106))
        f = Tensor(rng.standard_normal((4, 4)))
        w_pos = self.gen.generate(Tensor(rng.standard_normal((4, 5))))
        l_pos, l_neg = dcq_logits_with_mask(f, w_pos, q, np.array([0, 1, 2, 3]))
        assert (np.abs(l_pos.data) <= 1 + 1e-12).all()
        assert (np.abs(l_neg.data) <= 1 + 1e-12).all()

    @given(st.integers(1, 8), st.lists(st.integers(1, 8), max_size=6), st.integers(1, 6),
           st.integers(0, 10**6))
    @example(capacity=5, batch_sizes=[2], rows=4, seed=1)  # unfilled slots
    @example(capacity=3, batch_sizes=[2, 2, 3], rows=5, seed=2)  # wrapped cursor
    @settings(max_examples=60, deadline=None)
    def test_muted_set_is_duplicates_and_sentinels(self, capacity, batch_sizes, rows, seed):
        # labels from a range of 4 force duplicates within the queue and the batch
        rng = np.random.default_rng(seed)
        q = ClassQueue(3, capacity)
        for size in batch_sizes:
            size = min(size, capacity)
            w = rng.standard_normal((size, 3))
            q.update(Tensor(w / np.linalg.norm(w, axis=1, keepdims=True)), rng.integers(0, 4, size))
        f = Tensor(rng.standard_normal((rows, 3)))
        w_pos = Tensor(np.eye(3)[rng.integers(0, 3, rows)])
        y = rng.integers(0, 4, rows)
        _, l_neg = dcq_logits_with_mask(f, w_pos, q, y)
        muted = (q.labels[None, :] == y[:, None]) | (q.labels[None, :] == SENTINEL_LABEL)
        np.testing.assert_array_equal(l_neg.data == MASK_VALUE, muted)
        f_hat = l2_normalize(f, axis=1).data
        assert l_neg.data[~muted].tobytes() == (f_hat @ q.weights)[~muted].tobytes()


class TestDcqLoss:
    def test_scale_one_margin_zero_is_plain_cross_entropy(self):
        rng = np.random.default_rng(8)
        l_pos = Tensor(rng.uniform(-1, 1, (3, 1)))
        l_neg = Tensor(rng.uniform(-1, 1, (3, 5)))
        loss, _ = dcq_cosface_loss(l_pos, l_neg, s=1.0, m=0.0)
        # independent log-sum-exp cross entropy
        logits = np.hstack([l_pos.data, l_neg.data])
        lse = np.log(np.exp(logits).sum(axis=1))
        expected = float(np.mean(lse - logits[:, 0]))
        assert abs(float(loss.data) - expected) < 1e-12

    def test_loss_strictly_increases_with_margin(self):
        rng = np.random.default_rng(9)
        l_pos = Tensor(rng.uniform(-1, 1, (4, 1)))
        l_neg = Tensor(rng.uniform(-1, 1, (4, 6)))
        loss_0, _ = dcq_cosface_loss(l_pos, l_neg, s=50.0, m=0.0)
        loss_m, _ = dcq_cosface_loss(l_pos, l_neg, s=50.0, m=0.3)
        assert float(loss_m.data) > float(loss_0.data)

    def test_full_coverage_matches_reference_oracle(self):
        # queue holding every non-target class plus the true column as the
        # positive reproduces the full-softmax loss
        rng = np.random.default_rng(10)
        failures = 0
        for trial in range(100):
            d = int(rng.integers(3, 8))
            c = int(rng.integers(3, 9))
            b = int(rng.integers(1, 5))
            weights = rng.standard_normal((d, c))
            weights /= np.linalg.norm(weights, axis=0, keepdims=True)
            f_raw = rng.standard_normal((b, d))
            y = rng.integers(0, c, size=b)

            queue = ClassQueue(d, c)
            queue.update(Tensor(weights.T), np.arange(c))
            w_pos = Tensor(weights[:, y].T)
            l_pos, l_neg = dcq_logits_with_mask(Tensor(f_raw), w_pos, queue, y)
            loss, _ = dcq_cosface_loss(l_pos, l_neg, s=50.0, m=0.3)
            expected = cosface_full_reference(f_raw, weights, y, s=50.0, m=0.3)
            if abs(float(loss.data) - expected) >= 1e-9:
                failures += 1
        assert failures == 0

    def test_masking_equals_physical_deletion(self):
        rng = np.random.default_rng(11)
        d, k, b = 5, 7, 3
        w = rng.standard_normal((k, d))
        w /= np.linalg.norm(w, axis=1, keepdims=True)
        labels = np.array([3, 1, 4, 1, 5, 1, 2])
        queue = ClassQueue(d, k)
        queue.update(Tensor(w), labels)
        f_raw = rng.standard_normal((b, d))
        w_pos_rows = rng.standard_normal((b, d))
        w_pos_rows /= np.linalg.norm(w_pos_rows, axis=1, keepdims=True)
        y = np.array([1, 9, 4])

        l_pos, l_neg = dcq_logits_with_mask(Tensor(f_raw), Tensor(w_pos_rows), queue, y)
        loss, _ = dcq_cosface_loss(l_pos, l_neg, s=50.0, m=0.3)

        f_hat = f_raw / np.linalg.norm(f_raw, axis=1, keepdims=True)
        per_row = []
        for i in range(b):
            keep = labels != y[i]
            cos_neg = f_hat[i] @ w[keep].T
            per_row.append(subset_reference(float(f_hat[i] @ w_pos_rows[i]), cos_neg, 50.0, 0.3))
        assert abs(float(loss.data) - float(np.mean(per_row))) < 1e-12

    def test_subset_consistency(self):
        # duplicates inflate the denominator: masked queue loss >= the loss
        # over the distinct-class union, with equality when all distinct
        rng = np.random.default_rng(12)
        d, b = 6, 2
        distinct = rng.standard_normal((4, d))
        distinct /= np.linalg.norm(distinct, axis=1, keepdims=True)
        f_raw = rng.standard_normal((b, d))
        w_pos_rows = rng.standard_normal((b, d))
        w_pos_rows /= np.linalg.norm(w_pos_rows, axis=1, keepdims=True)
        y = np.array([100, 101])

        q_distinct = ClassQueue(d, 4)
        q_distinct.update(Tensor(distinct), np.array([10, 11, 12, 13]))
        l_pos, l_neg = dcq_logits_with_mask(Tensor(f_raw), Tensor(w_pos_rows), q_distinct, y)
        loss_distinct, _ = dcq_cosface_loss(l_pos, l_neg, s=10.0, m=0.2)

        dup = np.vstack([distinct, distinct[:1]])  # class 10 twice, same vector
        q_dup = ClassQueue(d, 5)
        q_dup.update(Tensor(dup), np.array([10, 11, 12, 13, 10]))
        l_pos2, l_neg2 = dcq_logits_with_mask(Tensor(f_raw), Tensor(w_pos_rows), q_dup, y)
        loss_dup, _ = dcq_cosface_loss(l_pos2, l_neg2, s=10.0, m=0.2)

        assert float(loss_dup.data) > float(loss_distinct.data)
        # equality case: same distinct set via the reference oracle per row
        f_hat = f_raw / np.linalg.norm(f_raw, axis=1, keepdims=True)
        per_row = [
            subset_reference(float(f_hat[i] @ w_pos_rows[i]), f_hat[i] @ distinct.T, 10.0, 0.2)
            for i in range(b)
        ]
        assert abs(float(loss_distinct.data) - float(np.mean(per_row))) < 1e-12

    def test_finite_differences_on_four_sample_batch_six_slot_queue(self):
        # the FD oracle applied to the complete queue loss pipeline
        from dcq.numerics import finite_difference_check

        extractor = init_extractor([5, 6, 4], seed=21)
        rng = np.random.default_rng(21)
        for layer in extractor.layers:
            layer.bias.data += 0.2 * rng.standard_normal(layer.bias.data.shape)
        gen = EmaGenerator(extractor, alpha=0.9)
        for _, p in gen.shadow.named_parameters():
            p.data += 0.3 * rng.standard_normal(p.data.shape)
        queue = ClassQueue(4, 6)
        queue.update(gen.generate(Tensor(rng.standard_normal((5, 5)))), np.arange(5))
        x_t = Tensor(rng.standard_normal((4, 5)))
        w_pos = gen.generate(Tensor(rng.standard_normal((4, 5))))
        y = np.array([0, 3, 7, 2])  # labels 0/3/2 duplicate queue entries

        def fn(tape):
            feats = extract_features(extractor, x_t, tape)
            l_pos, l_neg = dcq_logits_with_mask(feats, w_pos, queue, y, tape)
            loss, _ = dcq_cosface_loss(l_pos, l_neg, s=2.0, m=0.3, tape=tape)
            return loss

        params = [p for _, p in extractor.named_parameters()]
        assert finite_difference_check(fn, params, h=1e-5) <= 1e-5

    def test_no_gradient_reaches_shadow_or_queue(self):
        extractor = init_extractor([5, 6, 4], seed=13)
        gen = EmaGenerator(extractor, alpha=0.999)
        rng = np.random.default_rng(13)
        queue = ClassQueue(4, 6)
        queue.update(gen.generate(Tensor(rng.standard_normal((4, 5)))), np.arange(4))
        queue_weights_before = queue.weights.copy()

        x_t = Tensor(rng.standard_normal((3, 5)))
        x_w = Tensor(rng.standard_normal((3, 5)))
        y = np.array([10, 11, 12])
        tape = Tape()
        feats = extract_features(extractor, x_t, tape)
        w_pos = gen.generate(x_w)
        l_pos, l_neg = dcq_logits_with_mask(feats, w_pos, queue, y, tape)
        loss, _ = dcq_cosface_loss(l_pos, l_neg, 50.0, 0.3, tape)
        tape.backward(loss)

        for _, p in gen.shadow.named_parameters():
            np.testing.assert_array_equal(tape.grad(p), np.zeros_like(p.data))
        np.testing.assert_array_equal(tape.grad(w_pos), np.zeros_like(w_pos.data))
        np.testing.assert_array_equal(queue.weights, queue_weights_before)
        # while the extractor does receive gradient
        assert tape.grad(extractor.layers[0].weight).any()


class TestBackwardBeforeUpdate:
    def test_live_queue_gradient_equals_copied_queue_gradient(self):
        # the logits multiply against queue.weights itself; until the next
        # update that gives the same gradient as a private copy would
        extractor = init_extractor([5, 6, 4], seed=17)
        gen = EmaGenerator(extractor, alpha=0.9)
        rng = np.random.default_rng(17)
        queue = ClassQueue(4, 6)
        queue.update(gen.generate(Tensor(rng.standard_normal((5, 5)))), np.arange(5))
        copied = copy.deepcopy(queue)
        x_t = Tensor(rng.standard_normal((4, 5)))
        w_pos = gen.generate(Tensor(rng.standard_normal((4, 5))))
        y = np.array([0, 3, 7, 2])

        def grads(q, between=lambda: None):
            tape = Tape()
            feats = extract_features(extractor, x_t, tape)
            l_pos, l_neg = dcq_logits_with_mask(feats, w_pos, q, y, tape)
            loss, _ = dcq_cosface_loss(l_pos, l_neg, 50.0, 0.3, tape)
            between()
            tape.backward(loss)
            return [tape.grad(p) for _, p in extractor.named_parameters()]

        assert not np.shares_memory(copied.weights, queue.weights)
        for live, private in zip(grads(queue), grads(copied)):
            np.testing.assert_array_equal(live, private)
        # an update between forward and backward breaks the contract and shows
        early = copy.deepcopy(queue)
        broken = grads(early, between=lambda: early.update(w_pos, y))
        assert any(not np.array_equal(a, b) for a, b in zip(broken, grads(copied)))
