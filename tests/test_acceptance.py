"""Acceptance suite: one test per criterion, one printed verdict line each.

The desk-scale benchmark runs (criteria 8-10) share trained models through a
session-scoped cache so the suite trains each variant exactly once.
"""

import csv
import json
import time
from pathlib import Path

import numpy as np
import pytest

import dcq.class_queue
from dcq import cli
from dcq.class_queue import ClassQueue, EmaGenerator, dcq_cosface_loss, dcq_logits_with_mask
from dcq.evalbench import head_cost_report
from dcq.gradcheck import run_gradient_suite
from dcq.model import init_extractor
from dcq.numerics import Tape, Tensor, margin_softmax_ce, matmul
from dcq.trainer import TrainConfig, run_training


def _report(criterion: int, description: str, ok: bool):
    print(f"ACCEPTANCE {criterion:2d} [{'PASS' if ok else 'FAIL'}] {description}")
    assert ok, f"criterion {criterion}: {description}"


# --- the shared desk-scale long-tail benchmark (criteria 8, 9, 10) --------

# configs/desk.json: Zipf 1.5 with counts 2-200 puts 99.7% of the 2000
# classes below 10 instances, and the queue holds K = 0.1 * n_classes
BENCH = json.loads((Path(__file__).resolve().parents[1] / "configs" / "desk.json").read_text())

_BENCH_CACHE: dict[str, dict] = {}


def bench_run(variant: str) -> dict:
    if variant in _BENCH_CACHE:
        return _BENCH_CACHE[variant]
    overrides = {
        "dcq": {"method": "dcq"},
        "full": {"method": "cosface-full"},
        "head-only": {"method": "cosface-head-only"},
        "alpha-0": {"method": "dcq", "alpha": 0.0},
        "class-sampling": {"method": "dcq", "sampling": "class"},
    }[variant]
    cfg = TrainConfig(**{**BENCH, **overrides})
    start = time.perf_counter()
    result = run_training(cfg)
    out = dict(result.final_eval)
    out["train_seconds"] = time.perf_counter() - start
    out["counts"] = result.counts
    _BENCH_CACHE[variant] = out
    return out


class TestCriterion1Gradients:
    def test_randomized_finite_difference_suite(self):
        start = time.perf_counter()
        results = run_gradient_suite(n_configs=20, seed=1)
        elapsed = time.perf_counter() - start
        worst = max(err for _, err in results)
        ok = worst <= 1e-5 and elapsed < 60.0
        _report(
            1,
            f"gradient suite: 20 dcq + 20 cosface configs, worst rel err "
            f"{worst:.2e} <= 1e-5 in {elapsed:.1f}s",
            ok,
        )


class TestCriterion2PullPushIdentity:
    def test_linear_head_closed_forms(self):
        rng_ = np.random.default_rng(2024)
        worst = 0.0
        for _ in range(20):
            d = int(rng_.integers(3, 9))
            c = int(rng_.integers(2, 8))
            f = Tensor(rng_.standard_normal((1, d)), requires_grad=True)
            w = Tensor(rng_.standard_normal((d, c)), requires_grad=True)
            y = int(rng_.integers(c))
            tape = Tape()
            loss, probs = margin_softmax_ce([matmul(f, w, tape)], np.array([y]), 1.0, 0.0, tape)
            tape.backward(loss)
            p = probs[0]

            df = -(1.0 - p[y]) * w.data[:, y]
            for j in range(c):
                if j != y:
                    df = df + p[j] * w.data[:, j]
            worst = max(worst, np.abs(tape.grad(f)[0] - df).max())
            dw = tape.grad(w)
            worst = max(worst, np.abs(dw[:, y] - (-(1.0 - p[y]) * f.data[0])).max())
            for j in range(c):
                if j != y:
                    worst = max(worst, np.abs(dw[:, j] - p[j] * f.data[0]).max())
        _report(2, f"pull/push closed forms, worst abs dev {worst:.2e} <= 1e-9", worst <= 1e-9)


class TestCriterion3FullCoverage:
    def test_queue_covering_all_classes_equals_full_softmax(self):
        rng_ = np.random.default_rng(3)
        worst = 0.0
        for _ in range(100):
            d = int(rng_.integers(3, 9))
            c = int(rng_.integers(3, 10))
            b = int(rng_.integers(1, 5))
            weights = rng_.standard_normal((d, c))
            weights /= np.linalg.norm(weights, axis=0, keepdims=True)
            f_raw = rng_.standard_normal((b, d))
            y = rng_.integers(0, c, size=b)
            queue = ClassQueue(d, c)
            queue.update(Tensor(weights.T), np.arange(c))
            l_pos, l_neg = dcq_logits_with_mask(
                Tensor(f_raw), Tensor(weights[:, y].T), queue, y
            )
            loss, _ = dcq_cosface_loss(l_pos, l_neg, s=50.0, m=0.3)

            f_hat = f_raw / np.linalg.norm(f_raw, axis=1, keepdims=True)
            cos = f_hat @ weights
            rows = np.arange(b)
            logits = 50.0 * cos
            logits[rows, y] = 50.0 * (cos[rows, y] - 0.3)
            mx = logits.max(axis=1, keepdims=True)
            lse = mx[:, 0] + np.log(np.exp(logits - mx).sum(axis=1))
            expected = float(np.mean(lse - logits[rows, y]))
            worst = max(worst, abs(float(loss.data) - expected))
        _report(3, f"full-coverage equivalence over 100 draws, worst dev {worst:.2e} <= 1e-9",
                worst <= 1e-9)


class TestCriterion4MaskingExactness:
    def test_masking_equals_deletion(self):
        rng_ = np.random.default_rng(4)
        worst = 0.0
        for _ in range(50):
            d = int(rng_.integers(3, 9))
            k = int(rng_.integers(3, 8))
            b = int(rng_.integers(1, 5))
            n_filled = int(rng_.integers(1, k + 1))
            w = rng_.standard_normal((n_filled, d))
            w /= np.linalg.norm(w, axis=1, keepdims=True)
            labels = rng_.integers(0, 5, size=n_filled)
            queue = ClassQueue(d, k)
            queue.update(Tensor(w), labels)
            f_raw = rng_.standard_normal((b, d))
            w_pos = rng_.standard_normal((b, d))
            w_pos /= np.linalg.norm(w_pos, axis=1, keepdims=True)
            y = rng_.integers(0, 6, size=b)
            l_pos, l_neg = dcq_logits_with_mask(Tensor(f_raw), Tensor(w_pos), queue, y)
            loss, _ = dcq_cosface_loss(l_pos, l_neg, s=50.0, m=0.3)

            f_hat = f_raw / np.linalg.norm(f_raw, axis=1, keepdims=True)
            per_row = []
            for i in range(b):
                keep = labels != y[i]
                cos_neg = f_hat[i] @ w[keep].T  # sentinels already absent
                logits = 50.0 * np.concatenate([[f_hat[i] @ w_pos[i] - 0.3], cos_neg])
                mx = logits.max()
                per_row.append(mx + np.log(np.exp(logits - mx).sum()) - logits[0])
            worst = max(worst, abs(float(loss.data) - float(np.mean(per_row))))
        _report(4, f"masking vs physical deletion, worst dev {worst:.2e} <= 1e-12",
                worst <= 1e-12)


class TestCriterion5EmaClosedForm:
    @pytest.mark.parametrize("alpha", [0.0, 0.9, 0.999, 1.0])
    def test_constant_target_trajectory(self, alpha):
        extractor = init_extractor([3, 4, 2], seed=5)
        for _, p in extractor.named_parameters():
            p.data[...] = 1.0
        gen = EmaGenerator(extractor, alpha=alpha)
        for _, s in gen.shadow.named_parameters():
            s.data[...] = 0.0
        worst = 0.0
        checkpoints = {1, 10, 100, 1000, 10_000}
        for t in range(1, 10_001):
            gen.update(extractor)
            if t in checkpoints:
                expected = 1.0 - alpha**t
                for _, s in gen.shadow.named_parameters():
                    worst = max(worst, np.abs(s.data - expected).max())
        _report(5, f"EMA 1-alpha^t trajectory (alpha={alpha}), worst dev {worst:.2e} <= 1e-12",
                worst <= 1e-12)


class TestCriterion6QueueSemantics:
    def test_fifo_and_one_iteration_delay(self, monkeypatch):
        # the queue the loss reads is taken inside dcq_logits_with_mask; the
        # queue after each step's enqueue is taken in the hook
        seen, records = [], []
        logits = dcq.class_queue.dcq_logits_with_mask

        def recording_logits(f, w_pos, queue, y, tape=None):
            seen.append((queue.weights.copy(), queue.labels.copy(), queue.cursor))
            return logits(f, w_pos, queue, y, tape)

        def hook(rec):
            queue = rec["state"].head.queue
            after = (queue.weights.copy(), queue.labels.copy(), queue.cursor)
            records.append({**rec, "queue_after": after})

        monkeypatch.setattr(dcq.class_queue, "dcq_logits_with_mask", recording_logits)
        cfg = TrainConfig(
            method="dcq", n_classes=40, epochs=3, B=8, K=20,
            sigma=0.05, d_in=8, embed_dim=8, hidden_dims=(16,),
            min_count=2, max_count=20, zipf_exponent=1.0,
            eval_pairs=40, eval_probes=10, eval_distractors=5, decay_epochs=(2,),
        )
        run_training(cfg, hooks=hook)
        assert len(records) >= 20 // 8 + 4
        assert len(seen) == len(records)

        # FIFO: stored labels equal the last K enqueued labels in order
        enqueued = []
        ok = True
        for rec in records:
            enqueued.extend(rec["labels"].tolist())
            _, labels, cursor = rec["queue_after"]
            fifo = labels[(cursor + np.arange(20)) % 20]
            window = enqueued[-20:]
            expected = np.full(20, -1, dtype=np.int64)
            expected[20 - len(window):] = window
            ok = ok and (fifo == expected).all()

        # one-iteration delay: the loss at step t sees step t-1's queue, and
        # batch t's positives sit in the queue right after the enqueue
        for t in range(1, len(records)):
            rec = records[t]
            prev = records[t - 1]
            ok = ok and np.array_equal(seen[t][0], prev["queue_after"][0])
            ok = ok and np.array_equal(seen[t][1], prev["queue_after"][1])
            ok = ok and seen[t][2] == prev["queue_after"][2]
            slots = (seen[t][2] + np.arange(len(rec["labels"]))) % 20
            ok = ok and np.array_equal(rec["queue_after"][1][slots], rec["labels"])
            ok = ok and np.array_equal(rec["queue_after"][0][:, slots], rec["w_pos"].T)
        _report(6, "queue FIFO semantics and one-iteration positive delay", ok)


class TestCriterion7MemoryClaim:
    def test_cost_ratio_and_absent_optimizer_state(self):
        ok = True
        for c, k, d in ((2000, 200, 32), (642_962, 65_536, 512), (97, 31, 8)):
            dcq = head_cost_report("dcq", C=c, K=k, D=d, B=32)
            full = head_cost_report("full", C=c, K=k, D=d, B=32)
            ok = ok and dcq.param_bytes_ratio == k / c
            ok = ok and dcq.head_param_bytes / full.head_param_bytes == k / c
        reference = head_cost_report("dcq", C=642_962, K=65_536, D=512, B=512)
        ok = ok and abs(reference.param_bytes_ratio - 0.10193) < 5e-6
        ok = ok and reference.optimizer_state_bytes == 0

        cfg = TrainConfig(
            method="dcq", n_classes=30, epochs=1, B=8, K=10,
            sigma=0.05, d_in=8, embed_dim=8, hidden_dims=(16,),
            min_count=2, max_count=10, zipf_exponent=1.0,
            eval_pairs=20, eval_probes=5, eval_distractors=5, decay_epochs=(1,),
        )
        result = run_training(cfg)
        extractor_names = {name for name, _ in result.extractor.named_parameters()}
        ok = ok and set(result.optimizer_state) == extractor_names
        _report(7, "head byte ratio exactly K/C (0.10193 at reference counts), "
                   "no optimizer state for queue or shadow", ok)


class TestCriterion8LongTailBenchmark:
    def test_long_tail_orderings(self):
        dcq = bench_run("dcq")
        full = bench_run("full")
        head_only = bench_run("head-only")
        tail_frac = float((dcq["counts"] < 10).mean())
        ok_shape = tail_frac >= 0.8
        ok_runtime = max(r["train_seconds"] for r in (dcq, full, head_only)) <= 600
        ok_ver = dcq["ver_acc"] >= full["ver_acc"] - 0.02
        ok_tail = dcq["tail_rank1"] >= head_only["tail_rank1"]
        _report(
            8,
            f"long-tail analog: tail fraction {tail_frac:.3f} >= 0.8; "
            f"dcq ver {dcq['ver_acc']:.4f} >= full {full['ver_acc']:.4f} - 0.02; "
            f"dcq tail rank-1 {dcq['tail_rank1']:.4f} >= head-only "
            f"{head_only['tail_rank1']:.4f}; runtimes <= 600s",
            ok_shape and ok_runtime and ok_ver and ok_tail,
        )


    def test_dcq_beats_full_fc_on_the_tail(self):
        # the north star's tail ordering, on the runs test_long_tail_orderings trains
        dcq, full = bench_run("dcq"), bench_run("full")
        _report(
            8,
            f"long-tail analog: dcq tail rank-1 {dcq['tail_rank1']:.4f} > full "
            f"{full['tail_rank1']:.4f}",
            dcq["tail_rank1"] > full["tail_rank1"],
        )

class TestCriterion9MomentumSweep:
    def test_alpha_ordering(self):
        smooth = bench_run("dcq")          # alpha = 0.999
        unsmoothed = bench_run("alpha-0")  # alpha = 0, must also finish cleanly
        ok = smooth["ver_acc"] >= unsmoothed["ver_acc"]
        _report(
            9,
            f"momentum sweep analog: ver at alpha=0.999 {smooth['ver_acc']:.4f} >= "
            f"ver at alpha=0 {unsmoothed['ver_acc']:.4f} (alpha=0 ran to completion)",
            ok,
        )


class TestCriterion10Sampling:
    def test_sampling_ordering(self):
        instance = bench_run("dcq")
        class_based = bench_run("class-sampling")
        ok = instance["ver_acc"] >= class_based["ver_acc"]
        _report(
            10,
            f"sampling analog: instance ver {instance['ver_acc']:.4f} >= "
            f"class ver {class_based['ver_acc']:.4f}",
            ok,
        )


class TestCriterion11Determinism:
    CONFIG = {
        "method": "dcq", "n_classes": 40, "epochs": 4, "B": 8,
        "K": 16, "sigma": 0.05, "d_in": 8, "embed_dim": 8, "hidden_dims": [16],
        "min_count": 2, "max_count": 20, "zipf_exponent": 1.0,
        "eval_pairs": 40, "eval_probes": 10, "eval_distractors": 5,
        "decay_epochs": [3], "seed": 11, "checkpoint_every": 2,
    }

    @staticmethod
    def _model_columns(path):
        # wall_seconds is wall-clock and therefore environmental; every
        # model-derived column must be byte-identical
        with open(path) as fh:
            rows = list(csv.DictReader(fh))
        return [
            tuple(row[c] for c in ("epoch", "lr", "train_loss", "ver_acc", "id_rank1"))
            for row in rows
        ]

    def test_repeat_and_resume(self, tmp_path):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(self.CONFIG))
        out1, out2, out3 = (tmp_path / name for name in ("a", "b", "c"))
        assert cli.main(["train", "--config", str(config_path), "--out", str(out1)]) == 0
        # re-run from the first run's manifest
        assert cli.main(["train", "--config", str(out1 / "manifest.json"), "--out", str(out2)]) == 0
        repeat_ok = self._model_columns(out1 / "metrics.csv") == self._model_columns(
            out2 / "metrics.csv"
        )
        assert cli.main([
            "train", "--config", str(config_path), "--out", str(out3),
            "--resume", str(out1 / "epoch_002.ckpt"),
        ]) == 0
        resume_ok = (
            self._model_columns(out3 / "metrics.csv")
            == self._model_columns(out1 / "metrics.csv")[2:]
        )
        _report(
            11,
            "determinism: manifest re-run byte-identical metrics "
            "(model columns; wall_seconds excluded), resume reproduces remaining rows",
            repeat_ok and resume_ok,
        )
