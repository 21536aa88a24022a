import math
import re
import struct
import warnings
import zlib

import numpy as np
import pytest

import dcq.checkpoint
import dcq.class_queue
import dcq.trainer
from dcq import rng
from dcq.baseline import FcHead, fc_cosface_loss, filter_head_classes
from dcq.checkpoint import load_checkpoint, save_checkpoint
from dcq.class_queue import SENTINEL_LABEL, ClassQueue, dcq_cosface_loss, dcq_logits_with_mask
from dcq.evalbench import head_cost_report
from dcq.errors import (
    CheckpointError,
    CheckpointIntegrityError,
    CheckpointVersionError,
    ConfigError,
    ShapeError,
    TrainingDiverged,
)
from dcq.model import extract_features, init_extractor
from dcq.numerics import Tape, Tensor, margin_softmax_ce
from dcq.synthdata import PairPlan, build_universe, make_pair_batch
from dcq.trainer import (
    TrainConfig,
    lr_at_step,
    run_training,
    save_result_checkpoint,
    sgd_momentum_step,
)


def with_crc(body: bytes) -> bytes:
    """A checkpoint body closed with its CRC32, as save_checkpoint closes it."""
    return body + struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF)


TINY = dict(
    n_classes=12, epochs=3, B=8, K=8, sigma=0.05,
    d_in=8, embed_dim=8, hidden_dims=(16,), min_count=2, max_count=10,
    zipf_exponent=1.0, eval_pairs=40, eval_probes=10, eval_distractors=5,
    decay_epochs=(2,),
)


def _accepts(build) -> bool:
    """False if ``build()`` raises ConfigError, True if it returns."""
    try:
        build()
    except ConfigError:
        return False
    return True


def _cosface(s: float, m: float):
    return margin_softmax_ce([Tensor(np.zeros((2, 3)))], np.array([0, 2]), s, m)


# Rules that resolve and a public builder each state: per config field, the
# fields resolve needs beside TINY and the builder called with the value.
RESTATED_RULES = {
    "min_instances": ({}, lambda v: filter_head_classes(np.array([3, 3]), v)),
    "sampling": ({}, lambda v: PairPlan(build_universe(4, 4, 0.1, 1), np.array([2, 2]), 4, v)),
    "alpha": ({}, lambda v: dcq.class_queue.EmaGenerator(init_extractor([4, 8, 4], 1), v)),
    "s": ({}, lambda v: _cosface(v, 0.1)),
    "K": ({"B": 32}, lambda v: ClassQueue(4, v).update(Tensor(np.zeros((32, 4))), np.arange(32))),
}


class TestSgdMomentumStep:
    def test_plain_sgd(self):
        p, v = np.array([[1.0, 2.0]]), np.zeros((1, 2))
        g = np.array([[0.5, -1.0]])
        sgd_momentum_step(p, g, v, lr=0.1, momentum=0.0, weight_decay=0.0)
        np.testing.assert_allclose(p, [[0.95, 2.1]], atol=1e-15)

    def test_momentum_recursion(self):
        # constant gradient 1, lr 1, momentum 0.9: theta = 0 -> -1 -> -2.9
        p, v = np.array([[0.0]]), np.zeros((1, 1))
        for _ in range(2):
            sgd_momentum_step(p, np.array([[1.0]]), v, 1.0, 0.9, 0.0)
        assert p[0, 0] == pytest.approx(-2.9, abs=1e-15)

    def test_weight_decay_only(self):
        p, v = np.array([[1.0]]), np.zeros((1, 1))
        sgd_momentum_step(p, np.array([[0.0]]), v, 1.0, 0.0, 0.1)
        assert p[0, 0] == pytest.approx(0.9, abs=1e-15)

    def test_exempt_parameters_skip_decay(self):
        # entries from n_decayed on form the exempt tail
        p, v = np.array([1.0]), np.zeros(1)
        sgd_momentum_step(p, np.array([0.0]), v, 1.0, 0.0, 0.1, n_decayed=0)
        assert p[0] == 1.0

    def test_shape_mismatch(self):
        p, v = np.array([[1.0, 2.0]]), np.zeros((1, 2))
        with pytest.raises(ShapeError):
            sgd_momentum_step(p, np.zeros((2, 2)), v, 0.1, 0.9, 0.0)


def _sgd_per_parameter_reference(named, grads, state, lr, momentum, weight_decay, exempt):
    # the per-parameter step the flat one replaced, kept as its reference
    for name, p in named.items():
        g = grads[name]
        if weight_decay and name not in exempt:
            tmp = np.multiply(p, weight_decay)
            tmp += g
        else:
            tmp = g.copy()
        v = state[name]
        v *= momentum
        v += tmp
        np.multiply(v, lr, out=tmp)
        p -= tmp


class TestFlatSgdStep:
    @pytest.mark.parametrize("momentum", [0.0, 0.9])
    @pytest.mark.parametrize("weight_decay", [0.0, 1e-4])
    def test_bit_equal_to_per_parameter_loop(self, momentum, weight_decay):
        extractor = init_extractor([6, 8, 5, 3], seed=9)
        velocity = np.zeros_like(extractor.flat)
        names = {p.uid: name for name, p in extractor.named_parameters()}
        ref = {name: p.data.copy() for name, p in extractor.named_parameters()}
        ref_state = {name: np.zeros_like(p) for name, p in ref.items()}
        exempt = {name for name in ref if name.endswith((".bias", ".slope"))}
        gen = np.random.default_rng(9)
        for step in range(6):
            grads = {name: gen.standard_normal(p.shape) for name, p in ref.items()}
            if step % 2:  # signed zeros tell g from 0·θ + g
                for g in grads.values():
                    g[gen.random(g.shape) < 0.5] = -0.0
            sgd_momentum_step(
                extractor.flat, extractor.gather(lambda p: grads[names[p.uid]]), velocity,
                0.05, momentum, weight_decay, extractor.n_decayed,
            )
            _sgd_per_parameter_reference(ref, grads, ref_state, 0.05, momentum, weight_decay, exempt)
        velocities = dict(extractor.views(velocity))
        for name, p in extractor.named_parameters():
            assert p.data.tobytes() == ref[name].tobytes(), name
            assert velocities[name].tobytes() == ref_state[name].tobytes(), name


class TestFullFcStepMemory:
    def test_step_holds_about_four_head_sized_temporaries(self, traced_peak):
        # one run_training step of cosface-full at C=20000, B=D=32, so B×C
        # and D×C arrays are the same size. The tape drops the cosine matrix
        # once the loss has copied it, and each op output's gradient once
        # its node has run.
        c, b, d = 20000, 32, 32
        extractor = init_extractor([32, 64, d], seed=1)
        head = FcHead(d, c, seed=1)
        velocity, head_velocity = np.zeros_like(extractor.flat), np.zeros_like(head.W.data)
        rng_ = np.random.default_rng(0)

        def step():
            x, y = Tensor(rng_.standard_normal((b, 32))), rng_.integers(0, c, size=b)
            tape = Tape()
            feats = extract_features(extractor, x, tape)
            loss, _ = fc_cosface_loss(feats, head, y, 64.0, 0.35, tape)
            tape.backward(loss)
            sgd_momentum_step(
                extractor.flat, extractor.gather(tape.grad), velocity,
                0.1, 0.9, 1e-4, extractor.n_decayed,
            )
            sgd_momentum_step(head.W.data, tape.grad(head.W), head_velocity, 0.1, 0.9, 1e-4)

        step()  # warm up: the next step starts with a live velocity
        peak, _ = traced_peak(step)
        assert peak <= 4.6 * head.W.data.nbytes


class TestLrSchedule:
    def _cfg(self, **kw):
        return TrainConfig(method="cosface-full", lr0=0.1, epochs=20,
                           decay_epochs=(8, 16, 18), **kw)

    def test_epoch_zero(self):
        assert lr_at_step(self._cfg(), 0) == 0.1

    def test_reference_schedule(self):
        # decay at 8, 16, 18: epoch 17 sits after two decays
        assert lr_at_step(self._cfg(), 17) == pytest.approx(0.1 * 0.01)

    def test_after_last_decay(self):
        assert lr_at_step(self._cfg(), 19) == pytest.approx(0.1 * 0.001)

    def test_non_increasing(self):
        cfg = self._cfg()
        lrs = [lr_at_step(cfg, e) for e in range(20)]
        assert all(b <= a for a, b in zip(lrs, lrs[1:]))

    def test_epoch_out_of_range(self):
        with pytest.raises(ConfigError):
            lr_at_step(self._cfg(), 20)


class TestConfig:
    def test_dcq_defaults(self):
        cfg = TrainConfig(method="dcq").resolve()
        assert (cfg.s, cfg.m, cfg.lr0, cfg.alpha) == (50.0, 0.3, 0.06, 0.999)
        assert cfg.sgd_momentum == 0.9 and cfg.weight_decay == 1e-4
        assert cfg.K == round(0.1 * cfg.n_classes)

    def test_baseline_defaults(self):
        cfg = TrainConfig(method="cosface-full").resolve()
        assert (cfg.s, cfg.m, cfg.lr0) == (64.0, 0.35, 0.1)

    def test_validation(self):
        with pytest.raises(ConfigError):
            TrainConfig(method="dcq", K=4, B=8).resolve()
        with pytest.raises(ConfigError):
            TrainConfig(m=1.0).resolve()
        with pytest.raises(ConfigError):
            TrainConfig(alpha=-0.1).resolve()
        with pytest.raises(ConfigError):
            TrainConfig(method="triplet").resolve()
        with pytest.raises(ConfigError):
            TrainConfig(sampling="epoch").resolve()

    def test_type_checks(self):
        for bad in (
            {"epochs": 2.5}, {"B": "x"}, {"B": True}, {"sigma": "0.1"}, {"K": 8.0},
            {"hidden_dims": (16.0,)}, {"decay_epochs": 3}, {"lr0": [0.1]},
        ):
            with pytest.raises(ConfigError, match=next(iter(bad))):
                TrainConfig(**bad).resolve()
        TrainConfig(sigma=0, lr0=1, weight_decay=0).resolve()  # ints are valid reals

    def test_range_checks(self):
        for bad in (
            {"sigma": -1.0}, {"d_in": 0}, {"embed_dim": 0}, {"hidden_dims": (16, 0)},
            {"n_classes": 0}, {"eval_pairs": 0}, {"eval_probes": 0},
            {"eval_distractors": -1}, {"zipf_exponent": -1}, {"max_count": 1}, {"d_in": 1},
            {"embed_dim": 1}, {"min_instances": 0}, {"B": 0}, {"epochs": 0},
            {"decay_factor": 0}, {"decay_factor": 1.5},
        ):
            with pytest.raises(ConfigError):
                TrainConfig(**bad).resolve()

    @pytest.mark.parametrize("bad, message", [
        ({"method": "cosface-head-only", "min_instances": 11}, "^0 classes have 11 or more"),
        ({"method": "cosface-head-only", "min_instances": 10}, "^1 classes have 10 or more"),
        ({"eval_pairs": 41}, "n_pairs must be even"),
        ({"eval_probes": 13}, "13 probes requested from 12"),
        ({"n_classes": 1, "eval_probes": 1}, "impostor pairs need 2"),
        ({"hidden_dims": ()}, "need at least one hidden layer"),
        ({"sigma": math.nan}, r"^sigma must be finite and >= 0, got nan$"),
        ({"seed": -1}, r"^seed must lie in \[0, 2\*\*64\), got -1$"),
    ])
    def test_rejects_what_the_run_cannot_build(self, bad, message):
        cfg = TrainConfig(**{**TINY, **bad})
        with pytest.raises(ConfigError, match=message):
            dcq.trainer._build_run_state(cfg)
        with pytest.raises(ConfigError, match=message):
            cfg.resolve()

    @pytest.mark.parametrize("field, value", [
        ("min_instances", 0), ("min_instances", 1),
        ("sampling", "instance"), ("sampling", "class"), ("sampling", "Instance"), ("sampling", ""),
        ("alpha", -0.1), ("alpha", 0), ("alpha", 1), ("alpha", 1.1), ("alpha", math.nan),
        ("s", 0), ("s", 1e-9), ("s", 64), ("s", math.inf), ("s", math.nan),
        ("K", 31), ("K", 32),
    ])
    def test_resolve_and_the_builder_agree(self, field, value):
        # both statements guard an entry point (the config, the public API),
        # so they must not drift apart
        extra, build = RESTATED_RULES[field]
        by_config = _accepts(lambda: TrainConfig(**{**TINY, **extra, field: value}).resolve())
        assert by_config == _accepts(lambda: build(value))

    @pytest.mark.parametrize("m", [-0.1, 0, 0.35, 0.999, 1.0, 1.5, math.inf, math.nan])
    def test_every_margin_resolve_accepts_the_op_accepts(self, m):
        # resolve's [0, 1) is stricter than the op's finite and >= 0 on purpose
        if _accepts(lambda: TrainConfig(**{**TINY, "m": m}).resolve()):
            assert _accepts(lambda: _cosface(1.0, m))

    def test_universe_fits_u32_identities(self):
        # the dataset header and records store identities as u32
        for n_classes, distractors in ((2**32 - 1, 0), (2**32 - 101, 100)):
            cfg = TrainConfig(n_classes=n_classes, eval_distractors=distractors).resolve()
            assert cfg.n_classes + cfg.eval_distractors == 2**32 - 1
        for n_classes, distractors in ((2**32, 0), (2**32 - 100, 100), (2**63 - 1, 100)):
            message = rf"\An_classes \+ eval_distractors must be < 2\*\*32, got {n_classes} \+ {distractors}\Z"
            with pytest.raises(ConfigError, match=message):
                TrainConfig(n_classes=n_classes, eval_distractors=distractors).resolve()

    def test_seed_range(self):
        # every key reduces the seed modulo 2**64: 2**64 would rerun seed 0
        for bad in (-1, 2**64, 2**64 + 1, -(2**63)):
            with pytest.raises(ConfigError, match="seed"):
                TrainConfig(seed=bad).resolve()
        for good in (0, 2**63, 2**64 - 1):
            assert TrainConfig(seed=good).resolve().seed == good

    def test_numpy_integers_resolve_to_python_ints(self):
        cfg = TrainConfig(K=np.int64(8), B=np.int32(8), seed=np.uint64(3), sigma=np.int64(0)).resolve()
        assert cfg == TrainConfig(K=8, B=8, seed=3, sigma=0).resolve()
        assert all(type(getattr(cfg, name)) is int for name in ("K", "B", "seed", "sigma"))

    def test_dict_roundtrip(self):
        cfg = TrainConfig(method="dcq", K=40, B=8).resolve()
        again = TrainConfig.from_dict(cfg.to_dict())
        assert again == cfg

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigError):
            TrainConfig.from_dict({"learning_rate": 0.1})


class TestRunTraining:
    def test_deterministic_metrics(self):
        cfg = TrainConfig(method="dcq", **TINY)
        a = run_training(cfg)
        b = run_training(cfg)
        for ra, rb in zip(a.metrics, b.metrics):
            for key in ("epoch", "lr", "train_loss", "ver_acc", "id_rank1"):
                assert ra[key] == rb[key], key

    def test_numpy_integer_config_runs_as_python_ints(self, tmp_path):
        # the result checkpoint stores the config as JSON
        result = run_training(TrainConfig(method="dcq", **{**TINY, "K": np.int64(8)}))
        save_result_checkpoint(tmp_path / "final.ckpt", result)
        direct = run_training(TrainConfig(method="dcq", **TINY))
        assert result.final_eval == direct.final_eval
        for ra, rb in zip(result.metrics, direct.metrics):
            assert {**ra, "wall_seconds": 0} == {**rb, "wall_seconds": 0}

    def test_generators_opened_do_not_grow_with_steps(self, monkeypatch):
        # batch streams are re-keyed, not constructed, so only setup opens
        # rng.stream generators
        calls = []
        stream = rng.stream

        def counted(*args):
            calls.append(args)
            return stream(*args)

        monkeypatch.setattr(rng, "stream", counted)
        per_run = []
        for epochs in (1, 2):
            calls.clear()
            result = run_training(TrainConfig(method="dcq", **{**TINY, "epochs": epochs}))
            assert result.final_step > 0
            per_run.append(len(calls))
        assert per_run[0] == per_run[1]

    def test_well_separated_identities_verify(self):
        # 10 tight identities: verification accuracy >= 0.95 within 20 epochs
        cfg = TrainConfig(
            method="dcq", n_classes=10, epochs=20, B=8, K=8,
            sigma=0.01, d_in=8, embed_dim=8, hidden_dims=(16,),
            min_count=5, max_count=20, zipf_exponent=0.5,
            eval_pairs=60, eval_probes=10, eval_distractors=4, decay_epochs=(15,),
        )
        result = run_training(cfg)
        assert result.final_eval["ver_acc"] >= 0.95

    def test_queue_full_after_expected_batches(self):
        labels_after = []
        cfg = TrainConfig(method="dcq", **{**TINY, "K": 20, "B": 8})
        run_training(
            cfg, hooks=lambda rec: labels_after.append(rec["state"].head.queue.labels.copy())
        )
        fill_batches = -(-20 // 8)  # ceil(K/B)
        for labels in labels_after[: fill_batches - 1]:
            assert (labels == SENTINEL_LABEL).any()
        assert (labels_after[fill_batches - 1] != SENTINEL_LABEL).all()

    def test_algorithm_order_positive_enqueued_after_loss(self, monkeypatch):
        # the queue seen by the loss at step t, taken where the loss reads
        # it, is exactly step t-1's post-enqueue state (nothing from batch t
        # in it), and batch t's positive weights land in the queue only
        # after the loss
        seen, records = [], []
        logits = dcq.class_queue.dcq_logits_with_mask

        def recording_logits(f, w_pos, queue, y, tape=None):
            seen.append((queue.weights.copy(), queue.labels.copy(), queue.cursor))
            return logits(f, w_pos, queue, y, tape)

        def hook(rec):
            queue = rec["state"].head.queue
            after = (queue.weights.copy(), queue.labels.copy(), queue.cursor)
            records.append({**rec, "after": after})

        monkeypatch.setattr(dcq.class_queue, "dcq_logits_with_mask", recording_logits)
        cfg = TrainConfig(method="dcq", **TINY)
        run_training(cfg, hooks=hook)
        capacity = cfg.resolve().K
        assert len(seen) == len(records) > 8
        assert (seen[0][1] == SENTINEL_LABEL).all() and not seen[0][0].any()
        for t in range(1, 8):
            rec = records[t]
            seen_w, seen_labels, seen_cursor = seen[t]
            after_w, after_labels, _ = rec["after"]
            prev_after_w, prev_after_labels, prev_cursor = records[t - 1]["after"]
            np.testing.assert_array_equal(seen_w, prev_after_w)
            np.testing.assert_array_equal(seen_labels, prev_after_labels)
            assert seen_cursor == prev_cursor
            # the enqueue wrote this batch's weights and labels at the cursor
            slots = (seen_cursor + np.arange(len(rec["labels"]))) % capacity
            np.testing.assert_array_equal(after_labels[slots], rec["labels"])
            np.testing.assert_array_equal(after_w[:, slots], rec["w_pos"].T)

    def test_no_optimizer_state_for_queue_or_shadow(self):
        cfg = TrainConfig(method="dcq", **TINY)
        result = run_training(cfg)
        extractor_names = [name for name, _ in result.extractor.named_parameters()]
        assert list(result.optimizer_state) == extractor_names
        assert "layer1.slope" not in extractor_names  # TINY's final layer is linear
        # baseline does carry head state
        full = run_training(TrainConfig(method="cosface-full", **TINY))
        assert list(full.optimizer_state) == extractor_names + ["head.W"]

    @pytest.mark.parametrize("method,report", [("dcq", "dcq"), ("cosface-full", "full")])
    def test_live_head_bytes_match_the_cost_report(self, method, report):
        # the closed-form byte counts are the live queue or W and its velocity
        cfg = TrainConfig(method=method, **{**TINY, "epochs": 1}).resolve()
        head = run_training(cfg).head
        cost = head_cost_report(
            report, C=cfg.n_classes, K=cfg.K, D=cfg.embed_dim, B=cfg.B, bytes_per_float=8
        )
        params = head.queue.weights if method == "dcq" else head.W.data
        assert params.nbytes == cost.head_param_bytes
        assert sum(v.nbytes for v in head.velocities.values()) == cost.optimizer_state_bytes

    def test_velocities_are_views_of_one_buffer_per_model(self):
        full = run_training(TrainConfig(method="cosface-full", **{**TINY, "epochs": 1}))
        assert full.velocity.shape == full.extractor.flat.shape and full.velocity.any()
        for name, v in full.optimizer_state.items():
            owner = full.head.velocity if name == "head.W" else full.velocity
            assert np.shares_memory(v, owner), name
        assert not np.shares_memory(full.velocity, full.head.velocity)

    def test_backward_runs_before_every_queue_update(self, monkeypatch):
        events = []
        backward, update = Tape.backward, ClassQueue.update

        def recording_backward(self, loss):
            events.append("backward")
            return backward(self, loss)

        def recording_update(self, w, y):
            events.append("update")
            return update(self, w, y)

        monkeypatch.setattr(Tape, "backward", recording_backward)
        monkeypatch.setattr(ClassQueue, "update", recording_update)
        result = run_training(TrainConfig(method="dcq", **TINY))
        assert result.final_step > 0
        assert events == ["backward", "update"] * result.final_step

    def test_head_only_filters_and_remaps(self):
        cfg = TrainConfig(method="cosface-head-only", min_instances=5, **TINY)
        result = run_training(cfg)
        assert result.head.W.shape[1] == int((result.counts >= 5).sum())
        assert result.head.retained_ids is not None

    def test_monotone_loss_on_separable_toy(self):
        # frozen probe task: the loss as a pure function of the parameters
        # decreases monotonically through iterations 5..55 for both methods
        self._monotone_descent("dcq", lr0=0.06, momentum=0.9, sigma=0.02)
        self._monotone_descent("cosface-full", lr0=0.005, momentum=0.0, sigma=0.05)

    def _monotone_descent(self, method, lr0, momentum, sigma):
        cfg = TrainConfig(
            method=method, n_classes=3, epochs=14, B=12, K=12,
            sigma=sigma, d_in=8, min_count=20, max_count=20, zipf_exponent=0.0,
            lr0=lr0, sgd_momentum=momentum,
            eval_pairs=20, eval_probes=3, eval_distractors=2, decay_epochs=(12,),
        ).resolve()
        # the universe and counts the config builds: 3 training identities
        # plus 2 distractors in d_in=8, every trained identity with 20 instances
        universe = build_universe(5, 8, sigma, cfg.seed)
        counts = np.full(3, 20)
        plan = PairPlan(universe, counts, 12, "instance")
        # 14 epochs of 60 // 12 = 5 steps train on steps 0..69, so step 70 is held out
        probe = make_pair_batch(plan, 70)
        series, frozen = [], {}

        def hook(rec):
            state = rec["state"]
            if method == "dcq":
                if rec["step"] == 5:
                    q = ClassQueue(state.head.queue.embed_dim, state.head.queue.capacity)
                    q.weights[...] = state.head.queue.weights
                    q.labels[...] = state.head.queue.labels
                    frozen["queue"] = q
                    frozen["w_pos"] = state.head.generator.generate(probe.x_w)
                if rec["step"] < 5:
                    return
                feats = extract_features(state.extractor, probe.x_t, None)
                l_pos, l_neg = dcq_logits_with_mask(
                    feats, frozen["w_pos"], frozen["queue"], probe.y
                )
                loss, _ = dcq_cosface_loss(l_pos, l_neg, cfg.s, cfg.m)
            else:
                if rec["step"] < 5:
                    return
                feats = extract_features(state.extractor, probe.x_t, None)
                loss, _ = fc_cosface_loss(feats, state.head, probe.y, cfg.s, cfg.m)
            series.append(float(loss.data))

        result = run_training(cfg, hooks=hook)
        np.testing.assert_array_equal(result.universe.centers, universe.centers)
        np.testing.assert_array_equal(result.counts, counts)
        window = np.array(series[:51])
        assert (np.diff(window) <= 1e-12).all(), method

    def test_non_finite_loss_aborts_with_diagnostics(self):
        # an absurd learning rate overflows the forward pass within an epoch
        cfg = TrainConfig(method="dcq", lr0=1e160, **TINY)
        with pytest.raises(TrainingDiverged) as info, np.errstate(all="ignore"):
            run_training(cfg)
        message = str(info.value)
        assert re.fullmatch(
            r"non-finite loss \S+ at step \d+ \(epoch \d+, labels \[\d+(, \d+)*\], "
            r"feature range \[\S+, \S+\]\)",
            message,
        ), message


def _metrics_without_wall_time(result):
    return [{k: v for k, v in row.items() if k != "wall_seconds"} for row in result.metrics]


class TestCheckpointFormat:
    def _payload(self):
        rng_ = np.random.default_rng(0)
        meta = {"config": {"seed": 1}, "state": {"global_step": 10}}
        arrays = {
            "extractor.layer0.weight": rng_.standard_normal((3, 4)),
            "queue.labels": np.array([1.0, -1.0, 4.0]),
            "scalar": np.asarray(2.5),
        }
        return meta, arrays

    def test_roundtrip_bit_identical(self, tmp_path):
        meta, arrays = self._payload()
        path = tmp_path / "x.ckpt"
        save_checkpoint(path, meta, arrays)
        meta2, arrays2 = load_checkpoint(path)
        assert meta2 == meta
        assert set(arrays2) == set(arrays)
        for name in arrays:
            np.testing.assert_array_equal(arrays2[name], arrays[name])
            assert arrays2[name].dtype == np.float64
            assert arrays2[name].shape == arrays[name].shape  # "scalar" stays 0-d

    def _body_and_first_block(self, tmp_path):
        # (body without CRC, offset of the block count, offset of the first rank byte)
        meta, arrays = self._payload()
        path = tmp_path / "x.ckpt"
        save_checkpoint(path, meta, arrays)
        body = bytearray(path.read_bytes()[:-4])
        (json_len,) = struct.unpack_from("<I", body, 8)
        count_at = 12 + json_len
        (name_len,) = struct.unpack_from("<H", body, count_at + 4)
        return path, body, count_at, count_at + 6 + name_len

    def test_block_count_past_the_last_block_is_integrity_error(self, tmp_path):
        path, body, count_at, _ = self._body_and_first_block(tmp_path)
        (count,) = struct.unpack_from("<I", body, count_at)
        struct.pack_into("<I", body, count_at, count + 1)
        path.write_bytes(with_crc(bytes(body)))
        with pytest.raises(CheckpointIntegrityError, match="malformed"):
            load_checkpoint(path)

    def test_rank_255_is_integrity_error(self, tmp_path):
        path, body, _, rank_at = self._body_and_first_block(tmp_path)
        assert body[rank_at] == 2  # extractor.layer0.weight is 3 x 4
        body[rank_at] = 255
        path.write_bytes(with_crc(bytes(body)))
        with pytest.raises(CheckpointIntegrityError):
            load_checkpoint(path)

    def test_file_shorter_than_a_header_is_integrity_error(self, tmp_path):
        path = tmp_path / "x.ckpt"
        path.write_bytes(b"DCQC\x02\x00")
        with pytest.raises(CheckpointIntegrityError, match=r"\Acheckpoint truncated \(6 bytes\)\Z"):
            load_checkpoint(path)

    def test_array_block_past_the_body_is_integrity_error(self, tmp_path):
        # the CRC is valid, but the last array's payload runs past the body's end
        path = tmp_path / "x.ckpt"
        save_checkpoint(path, {}, {"a": np.arange(3.0)})
        path.write_bytes(with_crc(path.read_bytes()[:-4 - 8]))
        with pytest.raises(CheckpointIntegrityError, match=r"\Aarray block 'a' truncated\Z"):
            load_checkpoint(path)

    def test_trailing_bytes_are_integrity_error(self, tmp_path):
        meta, arrays = self._payload()
        path = tmp_path / "x.ckpt"
        save_checkpoint(path, meta, arrays)
        path.write_bytes(with_crc(path.read_bytes()[:-4] + bytes(4)))
        with pytest.raises(CheckpointIntegrityError, match=r"\A4 trailing bytes in checkpoint\Z"):
            load_checkpoint(path)

    def test_truncated_file_is_integrity_error(self, tmp_path):
        meta, arrays = self._payload()
        path = tmp_path / "x.ckpt"
        save_checkpoint(path, meta, arrays)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) - 9])
        with pytest.raises(CheckpointIntegrityError):
            load_checkpoint(path)

    def test_corrupted_byte_is_integrity_error(self, tmp_path):
        meta, arrays = self._payload()
        path = tmp_path / "x.ckpt"
        save_checkpoint(path, meta, arrays)
        blob = bytearray(path.read_bytes())
        blob[30] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointIntegrityError):
            load_checkpoint(path)

    def test_version_mismatch_is_explicit(self, tmp_path):
        meta, arrays = self._payload()
        path = tmp_path / "x.ckpt"
        save_checkpoint(path, meta, arrays)
        blob = bytearray(path.read_bytes())[:-4]
        for version in (1, 99):  # format 1 has no loader either
            blob[4:8] = struct.pack("<I", version)  # version field
            path.write_bytes(with_crc(bytes(blob)))
            with pytest.raises(CheckpointVersionError, match=f"version {version}, expected 2"):
                load_checkpoint(path)

    def test_save_and_load_copy_no_whole_file(self, tmp_path, traced_peak):
        # save streams blocks into the file; load holds the file's bytes once,
        # beside the arrays it returns
        rng_ = np.random.default_rng(1)
        meta, arrays = self._payload()
        arrays["head.W"] = rng_.standard_normal((32, 2000))
        arrays["head.velocity"] = rng_.standard_normal((32, 2000))
        path = tmp_path / "x.ckpt"
        save_peak, _ = traced_peak(lambda: save_checkpoint(path, meta, arrays))
        size = path.stat().st_size
        load_peak, (_, loaded) = traced_peak(lambda: load_checkpoint(path))
        assert save_peak <= 0.1 * size
        assert load_peak <= 2.1 * size
        for name in arrays:
            assert loaded[name].tobytes() == arrays[name].tobytes()

    def test_wrong_magic(self, tmp_path):
        path = tmp_path / "x.ckpt"
        path.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    @pytest.mark.parametrize("failure", ["bad-array", "replace"])
    def test_failed_save_keeps_the_old_file_and_leaves_no_temporary(
        self, tmp_path, monkeypatch, failure
    ):
        meta, arrays = self._payload()
        path = tmp_path / "x.ckpt"
        save_checkpoint(path, meta, arrays)
        earlier = path.read_bytes()
        meta["state"]["global_step"] = 20  # the failed save would change the bytes
        if failure == "bad-array":
            arrays["w"] = np.array(["not a float"])
            error = ValueError
        else:

            def failing_replace(src, dst):
                raise OSError(f"cannot replace {dst}")

            monkeypatch.setattr(dcq.checkpoint.os, "replace", failing_replace)
            error = OSError
        with pytest.raises(error):
            save_checkpoint(path, meta, arrays)
        assert path.read_bytes() == earlier
        assert [p.name for p in tmp_path.iterdir()] == ["x.ckpt"]

    @pytest.mark.parametrize(
        "K,slot,label",
        [
            pytest.param(8, 0, -1, id="sentinel-in-a-full-ring"),
            # 4 steps of 8 rows fill slots 0..31 of 40
            pytest.param(40, 35, 3, id="label-past-the-fill"),
        ],
    )
    def test_sentinels_sit_on_exactly_the_unfilled_slots(self, tmp_path, K, slot, label):
        from dcq.trainer import load_result_checkpoint

        cfg = TrainConfig(method="dcq", **{**TINY, "epochs": 1, "K": K})
        path = tmp_path / "final.ckpt"
        save_result_checkpoint(path, run_training(cfg))
        meta, arrays = load_checkpoint(path)
        assert (arrays["queue.labels"] == SENTINEL_LABEL).sum() == K - min(K, 32)
        arrays["queue.labels"][slot] = label
        save_checkpoint(path, meta, arrays)
        with pytest.raises(CheckpointError, match="queue.labels"):
            load_result_checkpoint(path)
        with pytest.raises(CheckpointError, match="queue.labels"):
            run_training(cfg, resume_from=path)


class TestResume:
    def test_resume_reproduces_uninterrupted_run(self, tmp_path):
        cfg = TrainConfig(method="dcq", checkpoint_every=2, **{**TINY, "epochs": 5})
        full = run_training(cfg, checkpoint_dir=str(tmp_path))
        resumed = run_training(cfg, resume_from=tmp_path / "epoch_002.ckpt")
        tail = full.metrics[2:]
        assert len(resumed.metrics) == len(tail)
        for ra, rb in zip(tail, resumed.metrics):
            for key in ("epoch", "lr", "train_loss", "ver_acc", "id_rank1"):
                assert ra[key] == rb[key], key

    def test_one_batch_call_per_step(self, tmp_path, monkeypatch):
        # the desk benchmark times batch synthesis through this name and
        # divides its per-step figures by the number of calls
        steps = []
        make = dcq.trainer.make_pair_batch

        def counted(plan, step):
            steps.append(step)
            return make(plan, step)

        monkeypatch.setattr(dcq.trainer, "make_pair_batch", counted)
        cfg = TrainConfig(method="dcq", checkpoint_every=2, **{**TINY, "epochs": 5})
        full = run_training(cfg, checkpoint_dir=str(tmp_path))
        assert steps == list(range(full.final_step))
        start = load_checkpoint(tmp_path / "epoch_002.ckpt")[0]["state"]["global_step"]
        steps.clear()
        resumed = run_training(cfg, resume_from=tmp_path / "epoch_002.ckpt")
        assert resumed.final_step == full.final_step
        assert steps == list(range(start, resumed.final_step))

    def test_resume_config_mismatch_rejected(self, tmp_path):
        cfg = TrainConfig(method="dcq", checkpoint_every=2, **{**TINY, "epochs": 5})
        run_training(cfg, checkpoint_dir=str(tmp_path))
        other = cfg.replace(lr0=0.01)
        with pytest.raises(ConfigError):
            run_training(other, resume_from=tmp_path / "epoch_002.ckpt")

    @pytest.mark.parametrize("damage", ["missing", "extra", "shape", "rank"])
    def test_checkpoint_arrays_must_fit_the_config(self, tmp_path, damage):
        from dcq.trainer import load_result_checkpoint

        cfg = TrainConfig(method="cosface-full", **{**TINY, "epochs": 1})
        path = tmp_path / "final.ckpt"
        save_result_checkpoint(path, run_training(cfg))
        meta, arrays = load_checkpoint(path)
        if damage == "missing":
            del arrays["head.W"]
        elif damage == "extra":
            arrays["queue.weights"] = np.zeros((8, 8))
        elif damage == "shape":
            arrays["head.W"] = arrays["head.W"][:, :-1]
        else:  # a scalar slope stored with rank 1, as format 1 wrote it
            arrays["extractor.layer0.slope"] = arrays["extractor.layer0.slope"].reshape(1)
        save_checkpoint(path, meta, arrays)
        match = {"extra": "queue", "rank": "layer0.slope"}.get(damage, "head.W")
        with pytest.raises(CheckpointError, match=match):
            load_result_checkpoint(path)
        with pytest.raises(CheckpointError):
            run_training(cfg, resume_from=path)

    @pytest.mark.parametrize("label", [np.nan, 3.7, 1e6])
    def test_queue_labels_must_be_class_ids(self, tmp_path, label):
        from dcq.trainer import load_result_checkpoint

        cfg = TrainConfig(method="dcq", **{**TINY, "epochs": 1})
        path = tmp_path / "final.ckpt"
        save_result_checkpoint(path, run_training(cfg))
        meta, arrays = load_checkpoint(path)
        arrays["queue.labels"][1] = label
        save_checkpoint(path, meta, arrays)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no label may reach the int64 cast
            with pytest.raises(CheckpointError, match="queue.labels"):
                load_result_checkpoint(path)
            with pytest.raises(CheckpointError, match="queue.labels"):
                run_training(cfg, resume_from=path)

    @pytest.mark.parametrize("method", ["dcq", "cosface-full"])
    def test_saving_a_loaded_checkpoint_rewrites_its_bytes(self, tmp_path, method):
        from dcq.trainer import load_result_checkpoint

        path, again = tmp_path / "final.ckpt", tmp_path / "again.ckpt"
        save_result_checkpoint(path, run_training(TrainConfig(method=method, **TINY)))
        loaded = load_result_checkpoint(path)
        assert loaded.final_step == load_checkpoint(path)[0]["state"]["global_step"] > 0
        save_result_checkpoint(again, loaded)
        assert again.read_bytes() == path.read_bytes()

    def test_resume_at_the_last_epoch_scores_the_final_model(self, tmp_path):
        cfg = TrainConfig(method="dcq", checkpoint_every=1, **{**TINY, "epochs": 2})
        full = run_training(cfg, checkpoint_dir=str(tmp_path))
        resumed = run_training(cfg, resume_from=tmp_path / "epoch_002.ckpt")
        assert resumed.metrics == [] and resumed.final_step == full.final_step
        assert resumed.final_eval == full.final_eval

    # value None deletes the key; config sits at the top of the metadata
    @pytest.mark.parametrize(
        "key,value",
        [("config", None), ("global_step", None), ("global_step", 1.0),
         ("global_step", True), ("global_step", -1)],
    )
    def test_checkpoint_metadata_is_checked(self, tmp_path, key, value):
        from dcq.trainer import load_result_checkpoint

        cfg = TrainConfig(method="dcq", **{**TINY, "epochs": 1})
        path = tmp_path / "final.ckpt"
        save_result_checkpoint(path, run_training(cfg))
        meta, arrays = load_checkpoint(path)
        target = meta if key == "config" else meta["state"]
        if value is None:
            del target[key]
        else:
            target[key] = value
        save_checkpoint(path, meta, arrays)
        with pytest.raises(CheckpointError, match=key):
            load_result_checkpoint(path)
        with pytest.raises(CheckpointError, match=key):
            run_training(cfg, resume_from=path)

    @pytest.mark.parametrize("damage", ["global_step", "past-the-end"])
    def test_checkpoint_progress_must_fit_the_run(self, tmp_path, damage):
        from dcq.trainer import load_result_checkpoint

        cfg = TrainConfig(method="dcq", checkpoint_every=1, **{**TINY, "epochs": 2})
        run_training(cfg, checkpoint_dir=str(tmp_path))
        path = tmp_path / "epoch_001.ckpt"
        meta, arrays = load_checkpoint(path)
        state = meta["state"]
        steps_per_epoch = state["global_step"]
        if damage == "global_step":  # not an epoch end: resuming would replay later batches
            state["global_step"] += 1
        else:  # one epoch past the run's end
            state["global_step"] = (cfg.epochs + 1) * steps_per_epoch
        save_checkpoint(path, meta, arrays)
        with pytest.raises(CheckpointError, match="global_step"):
            load_result_checkpoint(path)
        with pytest.raises(CheckpointError, match="global_step"):
            run_training(cfg, resume_from=path)

    def test_progress_keys_of_earlier_checkpoints_are_not_read(self, tmp_path):
        # checkpoints written before the epoch and the queue cursor were derived
        # from global_step carry both; they resume as the same file without them
        from dcq.trainer import load_result_checkpoint

        cfg = TrainConfig(method="dcq", checkpoint_every=1, **{**TINY, "K": 12})
        run_training(cfg, checkpoint_dir=str(tmp_path))
        meta, arrays = load_checkpoint(tmp_path / "epoch_002.ckpt")
        assert meta["state"] == {"global_step": 8}
        earlier = tmp_path / "earlier.ckpt"
        meta["state"].update(epoch_next=2, queue_cursor=8 * cfg.B % cfg.K)
        save_checkpoint(earlier, meta, arrays)
        runs = {}
        for name in ("epoch_002.ckpt", "earlier.ckpt"):
            loaded = load_result_checkpoint(tmp_path / name)
            assert (loaded.final_step, loaded.head.queue.cursor) == (8, 4)
            result = run_training(cfg, resume_from=tmp_path / name)
            save_result_checkpoint(tmp_path / f"final-{name}", result)
            runs[name] = (
                _metrics_without_wall_time(result), result.final_eval,
                (tmp_path / f"final-{name}").read_bytes(),
            )
        assert runs["earlier.ckpt"] == runs["epoch_002.ckpt"]

    # TINY runs 4 steps of 8 rows an epoch: at K=12 the cursor reads 8, 4 and 0
    # after epochs 1-3, and at K=40 it reads 32, 24 and 16, the ring part-filled
    # after epoch 1
    @pytest.mark.parametrize("K,cursors", [(12, [8, 4, 0]), (40, [32, 24, 16])], ids=["K12", "K40"])
    def test_resume_from_a_nonzero_queue_cursor(self, tmp_path, K, cursors):
        from dcq.trainer import load_result_checkpoint

        cfg = TrainConfig(method="dcq", checkpoint_every=1, **{**TINY, "K": K})
        full = run_training(cfg, checkpoint_dir=str(tmp_path))
        save_result_checkpoint(tmp_path / "full.ckpt", full)
        for done, cursor in enumerate(cursors, start=1):
            path = tmp_path / f"epoch_{done:03d}.ckpt"
            assert load_result_checkpoint(path).head.queue.cursor == cursor
            resumed = run_training(cfg, resume_from=path)
            assert _metrics_without_wall_time(resumed) == _metrics_without_wall_time(full)[done:]
            assert resumed.final_eval == full.final_eval
            save_result_checkpoint(tmp_path / "resumed.ckpt", resumed)
            assert (tmp_path / "resumed.ckpt").read_bytes() == (tmp_path / "full.ckpt").read_bytes()

    @pytest.mark.parametrize("method", ["dcq", "cosface-full", "cosface-head-only"])
    def test_every_checkpoint_a_run_writes_loads(self, tmp_path, method):
        from dcq.trainer import load_result_checkpoint

        cfg = TrainConfig(method=method, checkpoint_every=1, min_instances=4, **TINY)
        result = run_training(cfg, checkpoint_dir=str(tmp_path))
        save_result_checkpoint(tmp_path / "final.ckpt", result)
        paths = sorted(tmp_path.glob("*.ckpt"))
        assert len(paths) == cfg.epochs + 1
        for path in paths:
            state = load_checkpoint(path)[0]["state"]
            assert load_result_checkpoint(path).final_step == state["global_step"]
            resumed = run_training(cfg, resume_from=path)
            assert resumed.final_step == result.final_step
            assert resumed.final_eval == result.final_eval

    def test_restore_writes_through_the_views(self, tmp_path):
        from dcq.trainer import _build_run_state, _restore_from_checkpoint

        result = run_training(TrainConfig(method="dcq", **{**TINY, "epochs": 1}))
        path = tmp_path / "final.ckpt"
        save_result_checkpoint(path, result)
        meta, arrays = load_checkpoint(path)
        state = _build_run_state(result.config)
        buffers = (state.extractor.flat, state.head.generator.shadow.flat, state.velocity)
        _restore_from_checkpoint(state, arrays, meta["state"]["global_step"])
        assert state.final_step == result.final_step
        restored = (state.extractor.flat, state.head.generator.shadow.flat, state.velocity)
        trained = (result.extractor.flat, result.head.generator.shadow.flat, result.velocity)
        for before, after, expected in zip(buffers, restored, trained):
            assert after is before
            assert after.tobytes() == expected.tobytes()

    def test_final_checkpoint_roundtrip(self, tmp_path):
        from dcq.trainer import load_result_checkpoint

        cfg = TrainConfig(method="dcq", **TINY)
        result = run_training(cfg)
        path = tmp_path / "final.ckpt"
        save_result_checkpoint(path, result)
        loaded = load_result_checkpoint(path)
        for (_, a), (_, b) in zip(
            result.extractor.named_parameters(), loaded.extractor.named_parameters()
        ):
            np.testing.assert_array_equal(a.data, b.data)
        np.testing.assert_array_equal(result.head.queue.weights, loaded.head.queue.weights)
        np.testing.assert_array_equal(result.head.queue.labels, loaded.head.queue.labels)
        assert result.head.queue.cursor == loaded.head.queue.cursor
