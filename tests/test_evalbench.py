import dataclasses
import math

import numpy as np
import pytest

from dcq import evalbench, rng, synthdata
from dcq.baseline import FcHead, head_class_count
from dcq.errors import ConfigError, ShapeError
from dcq.evalbench import (
    _bucket_name,
    cosine_distances,
    embed,
    evaluate_protocol,
    head_cost_report,
    identification_hits,
    tail_alignment_diagnostic,
    verification_accuracy,
)
from dcq.model import init_extractor
from dcq.numerics import Tensor, l2_normalize
from dcq.synthdata import (
    InstanceRows,
    LongTailSpec,
    assign_longtail_counts,
    build_universe,
    draw_instance,
)
from dcq.trainer import TrainConfig, run_experiment_grid, run_training


def _unit(rows):
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


class TestVerificationAccuracy:
    def test_perfectly_separated(self):
        rng = np.random.default_rng(0)
        base = _unit(rng.standard_normal((10, 8)))
        # genuine pairs identical, impostor pairs orthogonalized
        emb_a = np.vstack([base, base])
        ortho = _unit(rng.standard_normal((10, 8)) - (base * 0))
        ortho = _unit(ortho - (ortho * base).sum(1, keepdims=True) * base)
        emb_b = np.vstack([base, ortho])
        genuine = np.array([True] * 10 + [False] * 10)
        acc, thr = verification_accuracy(emb_a, emb_b, genuine)
        assert acc == 1.0
        assert 0.0 < thr < 1.0

    def test_single_pair_each_kind(self):
        a = np.array([[1.0, 0.0], [1.0, 0.0]])
        b = np.array([[1.0, 0.0], [0.0, 1.0]])  # distances 0 and 1
        acc, thr = verification_accuracy(a, b, np.array([True, False]))
        assert acc == 1.0
        assert thr == pytest.approx(0.5)

    def test_random_labels_near_chance(self):
        rng = np.random.default_rng(1)
        emb_a = rng.standard_normal((1000, 16))
        emb_b = rng.standard_normal((1000, 16))
        genuine = rng.integers(0, 2, 1000).astype(bool)
        acc, _ = verification_accuracy(emb_a, emb_b, genuine)
        assert abs(acc - 0.5) < 0.05

    def test_empty_protocol_rejected(self):
        with pytest.raises(ConfigError):
            verification_accuracy(np.zeros((0, 4)), np.zeros((0, 4)), np.zeros(0, bool))

    def test_invariant_under_monotone_distance_transform(self):
        # the threshold sweep only sees the ordering of distances, so any
        # order-preserving warp of the embeddings' distances keeps accuracy
        rng = np.random.default_rng(2)
        emb_a = rng.standard_normal((60, 8))
        emb_b = rng.standard_normal((60, 8))
        genuine = rng.integers(0, 2, 60).astype(bool)
        acc, _ = verification_accuracy(emb_a, emb_b, genuine)
        # warp: shrink all embeddings toward each other, cosine order intact
        from dcq.evalbench import cosine_distances

        dists = cosine_distances(emb_a, emb_b)
        warped = np.sqrt(dists + 1.0)  # strictly increasing transform
        order = np.argsort(warped)
        thresholds = (np.sort(warped)[:-1] + np.sort(warped)[1:]) / 2
        best = max(float(((warped < t) == genuine).mean()) for t in thresholds)
        assert best == pytest.approx(acc)

    def test_tie_breaks_toward_smaller_threshold(self):
        a = np.array([[1.0, 0.0]] * 4)
        b = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
        genuine = np.array([True, False, False, False])
        acc, thr = verification_accuracy(a, b, genuine)
        assert acc == 1.0
        assert thr == pytest.approx(0.5)  # first midpoint achieving the max


def _loop_verification(emb_a, emb_b, genuine):
    """Reference sweep: accuracy at each threshold in turn, first best wins."""
    dists = cosine_distances(emb_a, emb_b)
    order = np.sort(dists)
    thresholds = (order[:-1] + order[1:]) / 2.0 if order.size > 1 else order
    best_acc, best_thr = -1.0, 0.0
    for thr in thresholds:
        acc = float(((dists < thr) == genuine).mean())
        if acc > best_acc:
            best_acc, best_thr = acc, float(thr)
    return best_acc, best_thr


class TestVerificationSweepMatchesLoop:
    @staticmethod
    def _case(gen, n, p_genuine):
        # few distinct angles, so distances and thresholds tie often
        angles = gen.integers(0, 6, size=(2, n)) * (np.pi / 6)
        emb_a = np.stack([np.cos(angles[0]), np.sin(angles[0])], axis=1)
        emb_b = np.stack([np.cos(angles[1]), np.sin(angles[1])], axis=1)
        return emb_a, emb_b, gen.random(n) < p_genuine

    def test_random_cases_with_ties(self):
        gen = np.random.default_rng(7)
        for _ in range(300):
            n = int(gen.integers(1, 40))
            case = self._case(gen, n, gen.random())
            assert verification_accuracy(*case) == _loop_verification(*case)

    @pytest.mark.parametrize("p_genuine", [0.0, 1.0])
    @pytest.mark.parametrize("n", [1, 2, 17])
    def test_single_kind_and_single_pair(self, n, p_genuine):
        gen = np.random.default_rng(n)
        case = self._case(gen, n, p_genuine)
        assert verification_accuracy(*case) == _loop_verification(*case)

    def test_continuous_distances(self):
        gen = np.random.default_rng(3)
        emb_a, emb_b = gen.standard_normal((2, 400, 16))
        genuine = gen.random(400) < 0.5
        assert verification_accuracy(emb_a, emb_b, genuine) == _loop_verification(
            emb_a, emb_b, genuine
        )


class TestIdentificationRank1:
    def test_exact_mate_hits(self):
        gal = _unit(np.random.default_rng(3).standard_normal((5, 8)))
        hits = identification_hits(gal.copy(), gal, np.arange(5), np.arange(5))
        assert hits.all()

    def test_removed_mate_cannot_hit(self):
        rng = np.random.default_rng(4)
        gal = _unit(rng.standard_normal((5, 8)))
        probe = gal[:1]
        hits = identification_hits(probe, gal[1:], np.array([0]), np.arange(1, 5))
        assert not hits.any()

    def test_chance_level(self):
        rng = np.random.default_rng(5)
        g = 10
        gallery = rng.standard_normal((g, 64))
        probes = rng.standard_normal((2000, 64))
        rank1 = identification_hits(
            probes, gallery, rng.integers(0, g, 2000), np.arange(g)
        ).mean()
        assert abs(rank1 - 1.0 / g) < 0.03

    def test_ties_break_to_lowest_gallery_index(self):
        gal = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])  # duplicate entries
        probe = np.array([[1.0, 0.0]])
        hits = identification_hits(probe, gal, np.array([7]), np.array([7, 8, 9]))
        assert hits[0]
        hits2 = identification_hits(probe, gal, np.array([8]), np.array([7, 8, 9]))
        assert not hits2[0]

    def test_permutation_invariant_without_ties(self):
        rng = np.random.default_rng(6)
        gal = rng.standard_normal((12, 16))
        probes = rng.standard_normal((30, 16))
        labels = np.arange(12)
        probe_labels = rng.integers(0, 12, 30)
        r1 = identification_hits(probes, gal, probe_labels, labels).mean()
        perm = rng.permutation(12)
        r2 = identification_hits(probes, gal[perm], probe_labels, labels[perm]).mean()
        assert r1 == r2

    def test_distractors_never_increase_rank1(self):
        rng = np.random.default_rng(7)
        gal = rng.standard_normal((8, 16))
        probes = rng.standard_normal((40, 16))
        probe_labels = rng.integers(0, 8, 40)
        r_plain = identification_hits(probes, gal, probe_labels, np.arange(8)).mean()
        for n_extra in (1, 5, 20):
            extra = rng.standard_normal((n_extra, 16))
            r_more = identification_hits(
                probes,
                np.vstack([gal, extra]),
                probe_labels,
                np.concatenate([np.arange(8), 100 + np.arange(n_extra)]),
            ).mean()
            assert r_more <= r_plain
            r_plain = r_more

    def test_empty_gallery_rejected(self):
        with pytest.raises(ConfigError):
            identification_hits(np.ones((1, 4)), np.zeros((0, 4)), np.array([0]), np.zeros(0))


class TestHeadCostReport:
    def test_reference_class_count_arithmetic(self):
        full = head_cost_report("full", C=642_962, K=65_536, D=512, B=512)
        assert full.head_param_bytes == 1_316_786_176
        assert full.optimizer_state_bytes == 1_316_786_176
        assert full.head_macs_per_batch == 512 * 512 * 642_962

        dcq = head_cost_report("dcq", C=642_962, K=65_536, D=512, B=512)
        assert dcq.head_param_bytes == 134_217_728
        assert dcq.optimizer_state_bytes == 0
        ratio = dcq.head_param_bytes / full.head_param_bytes
        assert ratio == pytest.approx(0.10193, abs=5e-6)
        assert dcq.param_bytes_ratio == ratio

    def test_ratio_exactly_k_over_c(self):
        for c, k, d in ((1000, 100, 64), (642_962, 65_536, 512), (7, 7, 3)):
            dcq = head_cost_report("dcq", C=c, K=k, D=d, B=8)
            full = head_cost_report("full", C=c, K=k, D=d, B=8)
            assert dcq.param_bytes_ratio == k / c
            assert dcq.head_param_bytes / full.head_param_bytes == k / c

    def test_queue_equal_to_classes_gives_ratio_one(self):
        rep = head_cost_report("dcq", C=500, K=500, D=32, B=16)
        assert rep.param_bytes_ratio == 1.0

    def test_bad_inputs(self):
        with pytest.raises(ConfigError):
            head_cost_report("full", C=0, K=1, D=1, B=1)
        with pytest.raises(ConfigError):
            head_cost_report("partial", C=1, K=1, D=1, B=1)


class TestTailAlignment:
    def test_converged_training_aligns(self):
        # soft scale keeps pull gradients alive until the columns align
        cfg = TrainConfig(
            method="cosface-full", n_classes=6, epochs=60, B=16,
            sigma=0.01, d_in=8, embed_dim=8, hidden_dims=(16,),
            min_count=30, max_count=30, zipf_exponent=0.0, s=4.0, m=0.1, lr0=0.05,
            eval_pairs=20, eval_probes=4, eval_distractors=1, decay_epochs=(50,),
        )
        result = run_training(cfg)
        report = tail_alignment_diagnostic(
            result.head.W.data, result.universe, result.counts, result.extractor
        )
        (bucket,) = report.mean_cosine
        assert report.mean_cosine[bucket] > 0.95

    def test_tail_buckets_align_worse_than_head_buckets(self):
        # few-instance classes collect mostly push-away updates, so their
        # learned columns sit further from their instances' mean embedding
        cfg = TrainConfig(
            method="cosface-full", n_classes=120, epochs=40, B=16,
            sigma=0.05, d_in=16, embed_dim=16, hidden_dims=(32,),
            min_count=2, max_count=60, zipf_exponent=1.2, s=8.0, m=0.2, lr0=0.05,
            eval_pairs=100, eval_probes=40, eval_distractors=20, decay_epochs=(30, 36),
        )
        result = run_training(cfg)
        report = tail_alignment_diagnostic(
            result.head.W.data, result.universe, result.counts, result.extractor
        )
        ordered = [report.mean_cosine[b] for b in (">=50", "10-49", "5-9", "<5")]
        assert all(a >= b for a, b in zip(ordered, ordered[1:]))

    def test_untrained_head_near_zero(self):
        universe = build_universe(120, 16, 0.1, seed=50)
        counts = np.full(100, 3)
        extractor = init_extractor([16, 32, 32], seed=51)
        head = FcHead(32, 100, seed=52)
        report = tail_alignment_diagnostic(head.W.data, universe, counts, extractor)
        for value in report.mean_cosine.values():
            assert abs(value) < 0.1

    def test_cosines_bounded_and_buckets_partition(self):
        universe = build_universe(30, 8, 0.2, seed=53)
        counts = np.array([2] * 10 + [7] * 10 + [20] * 10)
        extractor = init_extractor([8, 16, 8], seed=54)
        head = FcHead(8, 30, seed=55)
        report = tail_alignment_diagnostic(head.W.data, universe, counts, extractor)
        assert set(report.mean_cosine) == {"<5", "5-9", "10-49"}
        assert report.class_counts == {"<5": 10, "5-9": 10, "10-49": 10}
        assert all(-1.0 <= v <= 1.0 for v in report.mean_cosine.values())

    def test_matches_per_instance_draws(self):
        universe = build_universe(12, 8, 0.2, seed=59)
        counts = np.array([3, 7, 12, 9, 1, 2, 5, 4, 6, 2])
        extractor = init_extractor([8, 16, 8], seed=60)
        head = FcHead(8, 4, seed=61)
        report = tail_alignment_diagnostic(head.W.data, universe, counts, extractor)
        per_bucket = {}
        for ident in range(4):
            n = int(counts[ident])
            inst = np.stack([draw_instance(universe, ident, k) for k in range(n)])
            mean_emb = _unit(embed(extractor, inst)).mean(axis=0)
            w = head.W.data[:, ident]
            cos = float(w @ mean_emb / (np.linalg.norm(w) * np.linalg.norm(mean_emb)))
            bucket = "<5" if n < 5 else ("5-9" if n < 10 else "10-49")
            per_bucket.setdefault(bucket, []).append(cos)
        assert report.mean_cosine == {k: float(np.mean(v)) for k, v in per_bucket.items()}

    def test_empty_bucket_absent(self):
        universe = build_universe(5, 8, 0.2, seed=56)
        counts = np.full(5, 3)
        extractor = init_extractor([8, 16, 8], seed=57)
        head = FcHead(8, 5, seed=58)
        report = tail_alignment_diagnostic(head.W.data, universe, counts, extractor)
        assert set(report.mean_cosine) == {"<5"}


def _loop_alignment(head_w, universe, counts, extractor):
    """The per-class reference: one embed, mean and cosine per column, column j being class j."""
    rows = InstanceRows(universe, counts[: head_w.shape[1]])
    data = rows.draw(0, rows.owner.size)
    per_bucket = {}
    for ident, n in enumerate(rows.counts.tolist()):
        inst = data[rows.starts[ident] : rows.starts[ident] + n]
        mean_emb = l2_normalize(Tensor(embed(extractor, inst))).data.mean(axis=0)
        w = head_w[:, ident]
        cos = float(w @ mean_emb / max(np.linalg.norm(w) * np.linalg.norm(mean_emb), 1e-12))
        per_bucket.setdefault(_bucket_name(n), []).append(cos)
    return (
        {k: float(np.mean(v)) for k, v in per_bucket.items()},
        {k: len(v) for k, v in per_bucket.items()},
    )


def _desk_case(n_classes=300, seed=71):
    """A desk-shaped extractor and long-tail counts with one-instance classes."""
    universe = build_universe(n_classes + 20, 32, 0.1, seed=seed)
    counts = assign_longtail_counts(LongTailSpec(1.2, 1, 120), n_classes)
    extractor = init_extractor([32, 64, 64, 32], seed=seed + 1)
    return universe, counts, extractor


class TestTailAlignmentMatchesLoop:
    def test_desk_extractor_across_row_blocks(self):
        universe, counts, extractor = _desk_case()
        head_w = FcHead(32, counts.size, seed=73).W.data
        # at least two blocks, one class straddling a block edge, and
        # classes with 1 instance
        ends = np.cumsum(counts)
        bounds = np.linspace(0, ends[-1], math.ceil(ends[-1] / rng.KEY_CHUNK) + 1)
        edge = bounds[1:-1].astype(np.int64)
        assert edge.size >= 1
        assert ((ends - counts < edge[:, None]) & (ends > edge[:, None])).any()
        assert 1 in counts
        report = tail_alignment_diagnostic(head_w, universe, counts, extractor)
        mean_cosine, class_counts = _loop_alignment(head_w, universe, counts, extractor)
        assert report.mean_cosine == mean_cosine
        assert report.class_counts == class_counts
        assert list(report.mean_cosine) == list(mean_cosine)

    @pytest.mark.parametrize("min_instances", [1, 3, 9])
    def test_filtered_class_ids(self, min_instances):
        universe, counts, extractor = _desk_case(n_classes=400, seed=81)
        head_w = FcHead(32, head_class_count(counts, min_instances), seed=83).W.data
        report = tail_alignment_diagnostic(head_w, universe, counts, extractor)
        mean_cosine, class_counts = _loop_alignment(head_w, universe, counts, extractor)
        assert report.mean_cosine == mean_cosine
        assert report.class_counts == class_counts

    def test_single_row_table(self):
        universe = build_universe(4, 8, 0.2, seed=91)
        counts = np.array([1, 1, 1, 1])
        extractor = init_extractor([8, 16, 8], seed=92)
        head_w = FcHead(8, 2, seed=93).W.data[:, :1]
        report = tail_alignment_diagnostic(head_w, universe, counts, extractor)
        assert (report.mean_cosine, report.class_counts) == _loop_alignment(
            head_w, universe, counts, extractor
        )
        with pytest.raises(ConfigError):
            tail_alignment_diagnostic(head_w, universe, np.array([0, 1]), extractor)


class TestTailAlignmentValidation:
    @pytest.fixture
    def case(self):
        universe = build_universe(8, 8, 0.2, seed=95)
        counts = np.full(6, 3)
        extractor = init_extractor([8, 16, 8], seed=96)
        return universe, counts, extractor

    def test_head_wider_than_counts(self, case):
        universe, counts, extractor = case
        head_w = FcHead(8, 7, seed=97).W.data
        with pytest.raises(ShapeError):
            tail_alignment_diagnostic(head_w, universe, counts, extractor)

    def test_head_not_a_matrix(self, case):
        universe, counts, extractor = case
        head_w = FcHead(8, 6, seed=97).W.data[:, 0]
        with pytest.raises(ShapeError):
            tail_alignment_diagnostic(head_w, universe, counts, extractor)

    def test_wrong_embed_dim(self, case):
        universe, counts, extractor = case
        head_w = FcHead(16, 6, seed=97).W.data
        with pytest.raises(ShapeError):
            tail_alignment_diagnostic(head_w, universe, counts, extractor)


def test_alignment_embeds_row_blocks_not_classes(monkeypatch):
    # the desk config (C=2000, d_in=32, hidden (64, 64), D=32) with a few
    # single-instance classes, which each get one 1-row embed of their own
    cfg = TrainConfig()
    universe = build_universe(cfg.n_classes + cfg.eval_distractors, cfg.d_in, cfg.sigma, cfg.seed)
    counts = assign_longtail_counts(
        LongTailSpec(cfg.zipf_exponent, cfg.min_count, cfg.max_count), cfg.n_classes
    )
    counts[-3:] = 1
    extractor = init_extractor(cfg.layer_dims, cfg.seed)
    head_w = FcHead(cfg.embed_dim, cfg.n_classes, cfg.seed).W.data
    calls = []
    real_embed = evalbench.embed

    def counting_embed(params, x):
        calls.append(x.shape[0])
        return real_embed(params, x)

    monkeypatch.setattr(evalbench, "embed", counting_embed)
    tail_alignment_diagnostic(head_w, universe, counts, extractor)
    assert len(calls) == math.ceil(counts.sum() / rng.KEY_CHUNK) + 3
    assert sum(calls) == counts.sum() + 3


def test_alignment_draws_rows_a_block_at_a_time(monkeypatch):
    # every row comes from InstanceRows.draw, one embed block or one
    # single-instance row per call; no call draws the whole table
    universe, counts, extractor = _desk_case()
    head_w = FcHead(32, counts.size, seed=73).W.data
    real_draw, real_normals = synthdata.InstanceRows.draw, rng.Rekeyer.normal_rows
    draws, normals = [], []

    def spy_draw(rows, lo, hi):
        draws.append(hi - lo)
        return real_draw(rows, lo, hi)

    def spy_normals(rekeyer, keys, d):
        normals.append(keys.shape[0])
        return real_normals(rekeyer, keys, d)

    monkeypatch.setattr(synthdata.InstanceRows, "draw", spy_draw)
    monkeypatch.setattr(rng.Rekeyer, "normal_rows", spy_normals)
    tail_alignment_diagnostic(head_w, universe, counts, extractor)
    n_blocks = math.ceil(counts.sum() / rng.KEY_CHUNK)
    singles = int((counts == 1).sum())
    assert n_blocks >= 2 and singles >= 1
    assert normals == draws
    assert len(draws) == n_blocks + singles
    assert sum(draws) == counts.sum() + singles
    assert max(draws) == math.ceil(counts.sum() / n_blocks)


class TestExperimentGrid:
    SMALL_CFG = dict(
        method="dcq", n_classes=12, epochs=2, B=8, K=8,
        sigma=0.05, d_in=8, embed_dim=8, hidden_dims=(16,),
        min_count=2, max_count=10, zipf_exponent=1.0,
        eval_pairs=40, eval_probes=10, eval_distractors=5, decay_epochs=(1,),
    )

    def test_single_value_reproduces_single_run(self):
        cfg = TrainConfig(**self.SMALL_CFG)
        rows = run_experiment_grid(cfg, "alpha", [0.999])
        direct = run_training(cfg.replace(alpha=0.999))
        assert rows[0]["ver_acc"] == direct.final_eval["ver_acc"]
        assert rows[0]["id_rank1"] == direct.final_eval["id_rank1"]
        assert len(rows[0]["epochs"]) == 2

    def test_seed_row_is_the_run_at_that_seed(self):
        cfg = TrainConfig(**self.SMALL_CFG)
        (row,) = run_experiment_grid(cfg, "seed", [5])
        direct = run_training(cfg.replace(seed=5))

        def without_wall_time(rows):
            return [{k: v for k, v in r.items() if k != "wall_seconds"} for r in rows]

        epochs = without_wall_time(row.pop("epochs"))
        assert row == {"axis": "seed", "value": 5, **direct.final_eval}
        assert epochs == without_wall_time(direct.metrics)

    def test_numpy_integer_seed_is_the_python_int_run(self):
        cfg = TrainConfig(**self.SMALL_CFG)
        (row,) = run_experiment_grid(cfg, "seed", np.array([5]))
        (direct,) = run_experiment_grid(cfg, "seed", [5])
        for r in (row, direct):
            for epoch in r["epochs"]:
                epoch.pop("wall_seconds")
        assert row == direct

    def test_invalid_axis(self):
        with pytest.raises(ConfigError, match="unknown config fields"):
            run_experiment_grid(TrainConfig(), "queue_size", [1, 2])

    GRID_CFG = dict(
        method="dcq", n_classes=300, epochs=12, B=8,
        sigma=0.1, d_in=16, embed_dim=16, hidden_dims=(32,),
        min_count=2, max_count=60, zipf_exponent=1.0,
        eval_pairs=600, eval_probes=150, eval_distractors=50,
        decay_epochs=(8, 10, 11),
    )

    def test_queue_size_trend(self):
        # accuracy should trend upward from 0.05C to a full-coverage queue;
        # desk scale tolerates small wiggles between interior points
        cfg = TrainConfig(**self.GRID_CFG)
        ks = [15, 30, 150, 300]
        rows = run_experiment_grid(cfg, "K", ks)
        assert [r["value"] for r in rows] == ks
        assert rows[-1]["ver_acc"] >= rows[0]["ver_acc"] - 0.02
        assert rows[-1]["id_rank1"] >= rows[0]["id_rank1"] - 0.02

    def test_momentum_trend(self):
        cfg = TrainConfig(**self.GRID_CFG)
        rows = run_experiment_grid(cfg, "alpha", [0.0, 0.9, 0.99, 0.999])
        by_alpha = {r["value"]: r["ver_acc"] for r in rows}
        assert by_alpha[0.999] >= by_alpha[0.0]

    def test_method_axis(self):
        cfg = TrainConfig(**{**self.GRID_CFG, "epochs": 3})
        methods = ["dcq", "cosface-full", "cosface-head-only"]
        rows = run_experiment_grid(cfg, "method", methods)
        assert [r["value"] for r in rows] == methods
        assert all(0.0 <= r["ver_acc"] <= 1.0 for r in rows)
        assert all(len(r["epochs"]) == 3 for r in rows)


class TestEvaluateProtocol:
    def test_reports_tail_and_head_split(self):
        cfg = TrainConfig(
            method="dcq", n_classes=12, epochs=1, B=8, K=8,
            sigma=0.05, d_in=8, embed_dim=8, hidden_dims=(16,),
            min_count=2, max_count=30, zipf_exponent=1.2,
            eval_pairs=40, eval_probes=12, eval_distractors=5, decay_epochs=(1,),
        )
        result = run_training(cfg)
        scores = evaluate_protocol(result.extractor, result.protocol)
        assert set(scores) >= {"ver_acc", "id_rank1", "tail_rank1", "head_rank1"}
        assert scores["tail_probes"] == int(
            (result.counts[result.protocol.probe_labels] < 10).sum()
        )

    def test_probe_tail_sets_the_split(self):
        # flipping the protocol's tail flags swaps the tail and head rates
        u = build_universe(60, 8, 0.2, seed=4)
        counts = assign_longtail_counts(LongTailSpec(1.0, 2, 20), 50)
        protocol = synthdata.build_eval_protocol(u, counts, 20, 30)
        extractor = init_extractor([8, 16, 8], seed=4)
        hits = identification_hits(
            embed(extractor, protocol.probe_x), embed(extractor, protocol.gallery_x),
            protocol.probe_labels, protocol.gallery_labels,
        )
        tail = protocol.probe_tail
        assert 0 < tail.sum() < tail.size
        scores = evaluate_protocol(extractor, protocol)
        assert scores["tail_rank1"] == float(hits[tail].mean())
        assert scores["head_rank1"] == float(hits[~tail].mean())
        flipped = evaluate_protocol(extractor, dataclasses.replace(protocol, probe_tail=~tail))
        assert flipped["tail_rank1"] == scores["head_rank1"]
        assert flipped["head_rank1"] == scores["tail_rank1"]
        assert flipped["tail_probes"] == tail.size - scores["tail_probes"]
