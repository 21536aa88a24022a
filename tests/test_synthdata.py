import json
import struct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dcq import rng, synthdata
from dcq.errors import ConfigError
from dcq.evalbench import evaluate_protocol
from dcq.model import init_extractor
from dcq.synthdata import (
    InstanceRows,
    LongTailSpec,
    PLAN_BLOCK_STEPS,
    PairPlan,
    TAIL_THRESHOLD,
    assign_longtail_counts,
    build_eval_protocol,
    build_universe,
    draw_instance,
    heldout_instance,
    make_pair_batch,
    tail_summary,
    write_dataset,
)
from dcq.trainer import TrainConfig

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def _profile_spec(name):
    """A checked-in profile's count spec and class count."""
    cfg = json.loads((CONFIGS / name).read_text())
    return LongTailSpec(cfg["zipf_exponent"], cfg["min_count"], cfg["max_count"]), cfg["n_classes"]


class TestBuildUniverse:
    def test_single_identity_unit_vector(self):
        u = build_universe(1, 3, 0.1, seed=0)
        assert u.centers.shape == (1, 3)
        assert abs(np.linalg.norm(u.centers[0]) - 1.0) < 1e-12

    def test_same_seed_bit_identical(self):
        a = build_universe(20, 8, 0.1, seed=9)
        b = build_universe(20, 8, 0.1, seed=9)
        np.testing.assert_array_equal(a.centers, b.centers)

    def test_all_centers_unit_norm(self):
        u = build_universe(50, 16, 0.1, seed=1)
        norms = np.linalg.norm(u.centers, axis=1)
        assert np.abs(norms - 1.0).max() < 1e-12

    def test_mean_pairwise_cosine_near_zero(self):
        u = build_universe(1000, 32, 0.1, seed=2)
        g = u.centers @ u.centers.T
        off_diag = g[~np.eye(1000, dtype=bool)]
        assert abs(off_diag.mean()) < 0.05

    def test_config_errors(self):
        with pytest.raises(ConfigError):
            build_universe(0, 8, 0.1, seed=0)
        with pytest.raises(ConfigError):
            build_universe(5, 1, 0.1, seed=0)
        # a NaN sigma drew NaN instances, and seed -1 reran seed 2**64 - 1
        for sigma in (float("nan"), -0.1, float("inf")):
            with pytest.raises(ConfigError, match=rf"\Asigma must be finite and >= 0, got {sigma}\Z"):
                build_universe(10, 4, sigma, 1)
        for seed in (-1, 2**64):
            with pytest.raises(ConfigError, match=rf"\Aseed must lie in \[0, 2\*\*64\), got {seed}\Z"):
                build_universe(10, 4, 0.1, seed)
        assert build_universe(10, 4, 0.0, 1).sigma == 0.0
        assert build_universe(10, 4, 0.1, 2**64 - 1).seed == 2**64 - 1

    @pytest.mark.parametrize("C", [1, 7, 2200])
    @pytest.mark.parametrize("d_in", [2, 3, 32])
    def test_matches_per_row_norm_loop(self, C, d_in):
        for seed in (0, 13):
            centers = np.stack(
                [rng.stream(seed, rng.CENTERS, i).standard_normal(d_in) for i in range(C)]
            )
            for row in centers:
                row /= np.linalg.norm(row)
            assert np.array_equal(build_universe(C, d_in, 0.1, seed).centers, centers)

    @pytest.mark.parametrize("C,k", [(1, 1), (7, 2), (2000, 100), (2000, 200)])
    def test_centers_are_a_prefix_of_a_larger_universe(self, C, k):
        # identity i's center depends on (seed, i) alone, so a command that
        # builds only the identities it reads draws the same bits for them
        for seed in (1, 17):
            small = build_universe(C, 32, 0.1, seed).centers
            large = build_universe(C + k, 32, 0.1, seed).centers
            assert small.tobytes() == large[:C].tobytes()

class TestLongTailCounts:
    def test_flat_exponent(self):
        counts = assign_longtail_counts(LongTailSpec(0.0, 10, 10), 7)
        assert counts.tolist() == [10] * 7

    def test_extreme_exponent_limit(self):
        counts = assign_longtail_counts(LongTailSpec(1000.0, 2, 50), 5)
        assert counts[0] == 50
        assert counts[1:].tolist() == [2] * 4

    def test_tail_fraction_by_enumeration(self):
        counts = assign_longtail_counts(LongTailSpec(1.5, 2, 200), 2000)
        # direct enumeration of the same profile
        expected = np.clip(np.floor(200 * np.arange(1, 2001.0) ** -1.5 + 0.5), 2, 200)
        np.testing.assert_array_equal(counts, expected.astype(np.int64))
        tail_fraction = float((counts < 10).mean())
        assert tail_fraction >= 0.8
        assert tail_summary(counts)["tail_fraction"] == tail_fraction

    # the head-only baseline keeps the first n classes, which needs these
    # counts non-increasing: the checked-in profiles, then flat edge specs
    @pytest.mark.parametrize(
        "spec, n_classes",
        [
            _profile_spec("desk.json"),
            _profile_spec("mf2-shape.json"),
            (LongTailSpec(1.2, 1, 300), 500),
            (LongTailSpec(0.0, 2, 200), 300),
            (LongTailSpec(1.5, 7, 7), 300),
        ],
        ids=["desk", "mf2-shape", "zipf-1.2", "zipf-0", "min-equals-max"],
    )
    def test_counts_non_increasing(self, spec, n_classes):
        counts = assign_longtail_counts(spec, n_classes)
        assert (np.diff(counts) <= 0).all()

    def test_summary_matches_enumeration(self):
        counts = assign_longtail_counts(LongTailSpec(1.5, 2, 200), 300)
        s = tail_summary(counts)
        assert s["instances"] == int(counts.sum())
        assert s["mean_count"] == pytest.approx(counts.mean())
        assert sum(s["histogram"].values()) == 300

    def test_largest_bound_is_the_last_integer_float64_holds(self):
        # 2**53 + 1 is the first integer that float64 rounds to a neighbour
        assert LongTailSpec(1.0, 1, 2**53).max_count == 2**53
        with pytest.raises(ConfigError, match=r"max_count must be at most 2\*\*53"):
            LongTailSpec(1.0, 1, 2**53 + 1)


class TestDrawInstance:
    def test_zero_sigma_equals_center(self):
        u = build_universe(3, 6, 0.0, seed=3)
        np.testing.assert_array_equal(draw_instance(u, 1, 0), u.centers[1])

    def test_deterministic_per_triple(self):
        u = build_universe(3, 6, 0.2, seed=3)
        np.testing.assert_array_equal(draw_instance(u, 2, 5), draw_instance(u, 2, 5))
        assert not np.array_equal(draw_instance(u, 2, 5), draw_instance(u, 2, 6))

    def test_index_validation(self):
        u = build_universe(3, 6, 0.2, seed=3)
        for oracle in (draw_instance, heldout_instance):
            with pytest.raises(IndexError, match=r"\Aidentity 5 out of range \[0, 3\)\Z"):
                oracle(u, 5, 0)
            with pytest.raises(IndexError, match=r"\Anegative instance index -1\Z"):
                oracle(u, 1, -1)

    def test_law_of_large_numbers(self):
        sigma = 0.3
        u = build_universe(2, 8, sigma, seed=4)
        n = 10_000
        mean = np.mean([draw_instance(u, 0, k) for k in range(n)], axis=0)
        # per-coordinate 3-sigma bound on the sample mean
        assert np.abs(mean - u.centers[0]).max() < 3 * sigma / 100

    def test_heldout_stream_disjoint(self):
        u = build_universe(2, 8, 0.3, seed=4)
        assert not np.array_equal(draw_instance(u, 0, 0), heldout_instance(u, 0, 0))


class TestInstanceRows:
    def test_rows_equal_draw_instance(self):
        u = build_universe(9, 6, 0.2, seed=21)  # identities 5 to 8 have no count, so no rows
        counts = np.array([4, 1, 3, 1, 2])
        rows = InstanceRows(u, counts)
        assert rows.index.tolist() == [0, 1, 2, 3, 0, 0, 1, 2, 0, 0, 1]
        # a plan holds the same layout and rows as its own attributes
        plan = PairPlan(u, counts, 4, "instance")
        for layout, data in ((rows, rows.draw(0, 11)), (plan, plan.data)):
            assert data.shape == (11, 6)
            assert layout.starts.tolist() == [0, 4, 5, 8, 9]
            assert layout.owner.tolist() == [0, 0, 0, 0, 1, 2, 2, 2, 3, 4, 4]
            for ident, n in enumerate(counts):
                for k in range(n):
                    row = layout.starts[ident] + k
                    assert layout.owner[row] == ident and rows.index[row] == k
                    np.testing.assert_array_equal(data[row], draw_instance(u, ident, k))

    def test_bad_counts(self):
        u = build_universe(3, 4, 0.1, seed=0)
        bad = ([1, -1], [2, 0, 1], [], [1, 1, 1, 1])  # negative, zero, empty, more than C
        for counts in map(np.array, bad):
            with pytest.raises(ConfigError):
                InstanceRows(u, counts)
            with pytest.raises(ConfigError):
                PairPlan(u, counts, 2, "instance")

    @pytest.mark.parametrize("n", [1, 2, 255, 256, 257, 513, 4393])
    def test_blocks_tile_the_table_in_near_equal_ranges(self, n):
        # the rows split over two identities, or one at n = 1; the blocks depend on n alone
        u = build_universe(2, 2, 0.1, seed=22)
        blocks = InstanceRows(u, np.array([n - n // 2, n // 2][: min(n, 2)])).blocks()
        edges = [0] + [hi for _, hi in blocks]
        assert [lo for lo, _ in blocks] == edges[:-1] and edges[-1] == n
        assert len(blocks) == -(-n // rng.KEY_CHUNK)
        sizes = [hi - lo for lo, hi in blocks]
        assert all(0 < size <= rng.KEY_CHUNK for size in sizes)
        assert max(sizes) - min(sizes) <= 1
        assert 1 not in sizes or n == 1


def _plan(counts, batch_size, mode, seed):
    counts = np.asarray(counts, dtype=np.int64)
    universe = build_universe(counts.size, 6, 0.1, seed)
    return PairPlan(universe, counts, batch_size, mode)


def _longtail_counts(min_count):
    return assign_longtail_counts(LongTailSpec(1.2, min_count, 40), 60)


class _StepWords:
    """One step's batch stream, read a raw word at a time in plain Python."""

    def __init__(self, seed, step):
        self.raw = rng.stream(seed, rng.BATCH, step).bit_generator.random_raw
        self.high = None  # the unused high half of the last split word

    def uniform(self):
        return (int(self.raw()) >> 11) * 2.0**-53

    def below(self, bound):
        """``(u32 * bound) >> 32`` on the next unused half-word, low half first."""
        if bound == 1:
            return 0  # takes no half-word
        if self.high is None:
            word = int(self.raw())
            u, self.high = word & 0xFFFFFFFF, word >> 32
        else:
            u, self.high = self.high, None
        return (u * bound) >> 32


def _oracle_batch(plan, step):
    """Step ``step``'s labels, queries and references, one draw at a time.

    The rows come from ``plan.data``, which ``TestInstanceRows`` checks
    against ``draw_instance``.
    """
    seed = plan.universe.seed
    words = _StepWords(seed, step)
    counts = plan.counts.tolist()
    if plan.mode == "instance":
        owner = [ident for ident, n in enumerate(counts) for _ in range(n)]
        idents = [owner[int(words.uniform() * len(owner))] for _ in range(plan.batch_size)]
    else:
        idents = [words.below(len(counts)) for _ in range(plan.batch_size)]
    u = plan.universe
    labels, x_t, x_w = [], [], []
    for row, ident in enumerate(idents):
        n, start = counts[ident], sum(counts[:ident])
        q = words.below(n)
        r = words.below(max(n - 1, 1))
        labels.append(ident)
        x_t.append(plan.data[start + q])
        if n > 1:
            x_w.append(plan.data[start + r + (r >= q)])
        else:
            noise = rng.stream(seed, rng.BATCH_REFERENCE, step, row).standard_normal(u.d_in)
            x_w.append(u.centers[ident] + u.sigma * noise)
    return np.array(labels), np.array(x_t), np.array(x_w)


class TestPairBatch:
    def test_class_mode_uniform_frequencies(self):
        u = build_universe(10, 4, 0.1, seed=5)
        counts = np.arange(1, 11) * 3
        total = 100_000
        seen = np.zeros(10)
        plan = PairPlan(u, counts, 1000, "class")
        for step in range(100):
            seen += np.bincount(make_pair_batch(plan, step).y, minlength=10)
        freq = seen / total
        assert np.abs(freq - 0.1).max() < 0.01
        # spec tolerance: three standard errors at 1e5 draws
        assert np.abs(freq - 0.1).max() < 3 * np.sqrt(0.1 * 0.9 / total)

    def test_instance_mode_count_weighted(self):
        u = build_universe(2, 4, 0.1, seed=6)
        counts = np.array([90, 10])
        seen = np.zeros(2)
        plan = PairPlan(u, counts, 1000, "instance")
        for step in range(100):
            seen += np.bincount(make_pair_batch(plan, step).y, minlength=2)
        assert abs(seen[0] / 100_000 - 0.9) < 0.02
        assert abs(seen[0] / 100_000 - 0.9) < 3 * np.sqrt(0.9 * 0.1 / 100_000)

    def test_pairs_share_label_and_instances_differ(self):
        u = build_universe(6, 8, 0.2, seed=7)
        counts = np.array([5, 4, 3, 2, 2, 2])
        batch = make_pair_batch(PairPlan(u, counts, 64, "instance"), 1)
        assert batch.x_t.shape == (64, 8) and batch.x_w.shape == (64, 8)
        # label sharing is structural; multi-instance identities must give
        # distinct query/reference vectors
        assert (batch.y >= 0).all() and (batch.y < 6).all()
        same = np.all(batch.x_t.data == batch.x_w.data, axis=1)
        assert not same.any()

    def test_single_instance_identity_gets_fresh_reference(self):
        # the identity's only row is the table's last
        u = build_universe(1, 8, 0.2, seed=8)
        plan = PairPlan(u, np.array([1]), 4, "instance")
        batch = make_pair_batch(plan, 0)
        stored = draw_instance(u, 0, 0)
        for i in range(4):
            np.testing.assert_array_equal(batch.x_t.data[i], stored)
            assert not np.array_equal(batch.x_w.data[i], stored)
        assert np.unique(batch.x_w.data, axis=0).shape[0] == 4

    def test_deterministic_given_stream(self):
        u = build_universe(6, 8, 0.2, seed=7)
        counts = np.array([5, 4, 3, 2, 2, 2])
        warm = PairPlan(u, counts, 16, "instance")
        make_pair_batch(warm, 0)
        a = make_pair_batch(warm, 3)
        b = make_pair_batch(PairPlan(u, counts, 16, "instance"), 3)
        np.testing.assert_array_equal(a.x_t.data, b.x_t.data)
        np.testing.assert_array_equal(a.x_w.data, b.x_w.data)
        np.testing.assert_array_equal(a.y, b.y)

    def test_identity_draws_match_generator_choice(self):
        # with no single-instance identity, the batch is what Generator.choice
        # then the per-row index draws below make on the step's stream, as
        # long as numpy redraws none of them
        counts = np.arange(40) % 6 + 2  # counts 2 to 7
        weights = counts / counts.sum()
        for seed in range(200):
            u = build_universe(40, 4, 0.1, seed)
            rows = InstanceRows(u, counts)
            data = rows.draw(0, counts.sum())
            for mode, p in (("instance", weights), ("class", None)):
                batch = make_pair_batch(PairPlan(u, counts, 16, mode), 0)
                ref = rng.stream(seed, rng.BATCH, 0)
                idents = ref.choice(counts.size, size=16, p=p)
                x_t, x_w = [], []
                for ident in idents:
                    n, start = int(counts[ident]), int(rows.starts[ident])
                    q = int(ref.integers(n))
                    r = int(ref.integers(n - 1))
                    x_t.append(data[start + q])
                    x_w.append(data[start + r + (r >= q)])
                np.testing.assert_array_equal(batch.y, idents)
                np.testing.assert_array_equal(batch.x_t.data, np.array(x_t))
                np.testing.assert_array_equal(batch.x_w.data, np.array(x_w))

    def test_bad_mode(self):
        u = build_universe(2, 4, 0.1, seed=0)
        with pytest.raises(ConfigError):
            PairPlan(u, np.array([1, 1]), 2, "epoch")


class TestPairPlan:
    """Planned batches against the scalar oracle on each step's raw words."""

    def _assert_oracle(self, plan, steps):
        """Every step's planned batch equals the oracle; returns the single-instance flags."""
        flags = []
        for step in steps:
            batch = make_pair_batch(plan, step)
            flags.append(bool(plan.single[step - plan.first]))
            y, x_t, x_w = _oracle_batch(plan, step)
            assert batch.y.dtype == np.int64
            np.testing.assert_array_equal(batch.y, y)
            np.testing.assert_array_equal(batch.x_t.data, x_t)
            np.testing.assert_array_equal(batch.x_w.data, x_w)
            assert flags[-1] == bool((plan.counts[y] == 1).any())
        return flags

    @given(
        counts=st.lists(st.integers(1, 4), min_size=1, max_size=12),
        mode=st.sampled_from(["instance", "class"]),
        batch_size=st.sampled_from([1, 7, 33]),
        seed=st.integers(0, 2**64 - 1),
        start=st.integers(0, 2 * PLAN_BLOCK_STEPS),
    )
    @example(counts=[1, 2], mode="instance", batch_size=33, seed=0, start=0)
    @example(counts=[1, 2], mode="class", batch_size=7, seed=1, start=PLAN_BLOCK_STEPS // 2)
    @example(counts=[3], mode="class", batch_size=7, seed=2, start=5)
    @example(counts=[1], mode="instance", batch_size=1, seed=3, start=1)
    @settings(max_examples=60, deadline=None)
    def test_matches_scalar_oracle(self, counts, mode, batch_size, seed, start):
        # a plan opened mid-block, a step inside that block, then the next block
        plan = _plan(counts, batch_size, mode, seed)
        self._assert_oracle(plan, [start, start + 1, start + PLAN_BLOCK_STEPS])

    @pytest.mark.parametrize("mode", ["instance", "class"])
    @pytest.mark.parametrize("seed", [1, 17, 29])
    def test_blocks_match_reference(self, mode, seed):
        # both block edges and the first step of the next block
        plan = _plan(_longtail_counts(2), 16, mode, seed)
        flags = self._assert_oracle(plan, range(PLAN_BLOCK_STEPS + 2))
        assert not any(flags)

    @pytest.mark.parametrize("mode", ["instance", "class"])
    def test_resume_mid_block(self, mode):
        plan = _plan(_longtail_counts(2), 16, mode, 3)
        start = PLAN_BLOCK_STEPS // 2 + 5
        self._assert_oracle(plan, range(start, start + PLAN_BLOCK_STEPS + 1))
        assert plan.first == start + PLAN_BLOCK_STEPS

    @pytest.mark.parametrize("mode", ["instance", "class"])
    def test_count_two_rows_draw_no_reference_word(self, mode):
        # a count of 2 makes the reference draw's bound 1, which takes no word
        plan = _plan([2, 2, 2, 3], 8, mode, 5)
        self._assert_oracle(plan, range(20))
        assert (plan.counts[plan.labels] == 2).any()

    @pytest.mark.parametrize("batch_size", [1, 7, 33])
    def test_odd_batch_in_class_mode(self, batch_size):
        # the identity draws leave a high half-word for the index draws
        plan = _plan(_longtail_counts(2), batch_size, "class", 6)
        self._assert_oracle(plan, range(12))

    @pytest.mark.parametrize("batch_size", [4, 7])
    def test_one_eligible_identity_in_class_mode(self, batch_size):
        # a bound of 1 draws nothing, so the index draws start the stream
        plan = _plan([5], batch_size, "class", 8)
        self._assert_oracle(plan, range(12))
        assert (plan.labels == 0).all()

    @pytest.mark.parametrize("mode", ["instance", "class"])
    def test_single_instance_steps_match_oracle(self, mode):
        # the last identity has one instance: its row is the table's last
        plan = _plan([6, 5, 4, 3, 2, 1], 4, mode, 9)
        flags = self._assert_oracle(plan, range(PLAN_BLOCK_STEPS + 20))
        assert any(flags) and not all(flags)

    @pytest.mark.parametrize("mode", ["instance", "class"])
    def test_words_are_the_universe_seeds_streams(self, mode):
        # two universes that differ only in seed: each plan's batches are the
        # oracle's, which reads rng.stream(universe.seed, BATCH, t)
        counts = _longtail_counts(1)
        labels = []
        for seed in (3, 4):
            plan = PairPlan(build_universe(counts.size, 6, 0.1, seed), counts, 16, mode)
            self._assert_oracle(plan, range(3))
            labels.append(make_pair_batch(plan, 0).y)
        assert not np.array_equal(*labels)

    def test_planning_opens_no_single_streams(self, monkeypatch):
        calls = []
        real = rng.stream
        monkeypatch.setattr(rng, "stream", lambda *a: calls.append(a) or real(*a))
        plan = _plan(_longtail_counts(1), 4, "instance", 9)
        for step in range(40):
            make_pair_batch(plan, step)
        assert calls == []
        assert plan.single.any()

    def test_largest_uniform_picks_a_row_in_range(self):
        # floor(u * N) < N for the largest uniform, 1 - 2**-53, at every N
        # up to 2**24: the float64 product rounds below N
        u_max = (2**53 - 1) * 2.0**-53
        for lo in range(1, 2**24 + 1, 2**20):
            n = np.arange(lo, lo + 2**20, dtype=np.float64)
            assert ((u_max * n).astype(np.int64) < n).all()

    @pytest.mark.parametrize("counts", [[4, 2, 3], [2, 5]])
    @pytest.mark.parametrize("mode", ["instance", "class"])
    @pytest.mark.parametrize("word", [0, 2**64 - 1])
    def test_extreme_words_pick_the_first_and_last_rows(self, counts, mode, word, monkeypatch):
        # all-zero words draw row 0 and index 0 throughout; all-ones words
        # draw the last row and the top index of every bound
        real = rng.Rekeyer.raw_words

        def crafted(rekeyer, keys, n_words):
            words = real(rekeyer, keys, n_words)
            words[3] = word
            return words

        monkeypatch.setattr(rng.Rekeyer, "raw_words", crafted)
        plan = _plan(counts, 4, mode, 2)
        make_pair_batch(plan, 0)
        batch = make_pair_batch(plan, 3)
        data, first = plan.data, word == 0
        owner = 0 if first else len(counts) - 1
        assert batch.y.tolist() == [owner] * 4
        # query index 0 then reference 0 shifted past it, or query index
        # n - 1 then reference n - 2, which stays below it
        x_t, x_w = (data[0], data[1]) if first else (data[-1], data[-2])
        np.testing.assert_array_equal(batch.x_t.data, np.repeat(x_t[None], 4, axis=0))
        np.testing.assert_array_equal(batch.x_w.data, np.repeat(x_w[None], 4, axis=0))

    @pytest.mark.parametrize("mode", ["instance", "class"])
    def test_zero_words_draw_zero_without_fallback(self, mode, monkeypatch):
        # all-zero words make every draw 0, among them draws numpy would
        # reject and redraw: a zero product word falls below
        # (2**32 - bound) % bound == 1 for the bounds 3 and 5
        real = rng.Rekeyer.raw_words

        def crafted(rekeyer, keys, n_words):
            words = real(rekeyer, keys, n_words)
            words[3] = 0
            return words

        monkeypatch.setattr(rng.Rekeyer, "raw_words", crafted)
        plan = _plan([5, 3, 6], 4, mode, 2)
        make_pair_batch(plan, 0)
        batch = make_pair_batch(plan, 3)
        assert not plan.single.any()
        assert batch.y.tolist() == [0] * 4
        # query index 0, then reference index 0 shifted past it
        data = plan.data
        np.testing.assert_array_equal(batch.x_t.data, np.repeat(data[:1], 4, axis=0))
        np.testing.assert_array_equal(batch.x_w.data, np.repeat(data[1:2], 4, axis=0))

    def test_bad_mode_and_empty_table(self):
        with pytest.raises(ConfigError):
            _plan([2, 2], 2, "epoch", 0)
        with pytest.raises(ConfigError):
            _plan([0, 0], 2, "class", 0)

    def test_peak_is_about_the_table(self, traced_peak):
        # the desk config: the 4393 x 32 table plus its keys, owners and
        # indices, with the centers added a block at a time, not gathered whole
        cfg = TrainConfig()
        u = build_universe(cfg.n_classes, cfg.d_in, cfg.sigma, cfg.seed)
        counts = assign_longtail_counts(
            LongTailSpec(cfg.zipf_exponent, cfg.min_count, cfg.max_count), cfg.n_classes
        )
        peak, plan = traced_peak(lambda: PairPlan(u, counts, cfg.B, cfg.sampling))
        assert peak <= 1.3 * plan.data.nbytes


class TestEvalProtocol:
    def _protocol(self, n_pairs=200, n_probe=20):
        u = build_universe(80, 8, 0.1, seed=11)  # 50 train + 30 distractors
        counts = assign_longtail_counts(LongTailSpec(1.0, 2, 20), 50)
        return build_eval_protocol(u, counts, n_pairs, n_probe), counts

    def test_distractors_disjoint_from_training(self):
        p, counts = self._protocol()
        train_labels = set(range(len(counts)))
        assert set(p.gallery_labels[p.probe_labels.size :].tolist()).isdisjoint(train_labels)
        assert set(p.gallery_labels.tolist()) >= set(p.probe_labels.tolist())

    def test_genuine_pairs_share_labels(self):
        # the first half of the pairs are genuine, the rest impostors
        p, _ = self._protocol()
        half = p.pair_label_a.size // 2
        assert (p.pair_label_a[:half] == p.pair_label_b[:half]).all()
        assert (p.pair_label_a[half:] != p.pair_label_b[half:]).all()

    def test_exact_balance(self):
        p, _ = self._protocol(n_pairs=200)
        assert int((p.pair_label_a == p.pair_label_b).sum()) == 100

    def test_each_probe_identity_enrolled_once(self):
        p, _ = self._protocol()
        probe_set = p.probe_labels.tolist()
        assert len(set(probe_set)) == len(probe_set)
        gallery_list = p.gallery_labels.tolist()
        for label in probe_set:
            assert gallery_list.count(label) == 1

    def test_size_validation(self):
        u = build_universe(60, 8, 0.1, seed=12)
        counts = assign_longtail_counts(LongTailSpec(1.0, 2, 20), 50)
        # 61 training identities do not fit the 60 of the universe: one line names both
        with pytest.raises(ConfigError, match=r"\A61 training identities .*universe of 60\Z"):
            build_eval_protocol(u, np.full(61, 2), 100, 10)
        with pytest.raises(ConfigError):
            build_eval_protocol(u, counts, 100, 51)
        with pytest.raises(ConfigError):
            build_eval_protocol(u, counts, 101, 10)
        with pytest.raises(ConfigError, match="impostor pairs"):
            build_eval_protocol(u, counts[:1], 2, 1)
        # sizes evaluate_protocol cannot score
        with pytest.raises(ConfigError, match="n_pairs must be even and >= 2"):
            build_eval_protocol(u, counts, 0, 10)
        with pytest.raises(ConfigError, match="0 probes requested from 50"):
            build_eval_protocol(u, counts, 10, 0)

    def test_smallest_sizes_are_scored(self):
        u = build_universe(60, 8, 0.1, seed=12)
        counts = assign_longtail_counts(LongTailSpec(1.0, 2, 20), 2)
        p = build_eval_protocol(u, counts, 2, 1)
        scores = evaluate_protocol(init_extractor([8, 16, 4], seed=1), p)
        assert 0.0 <= scores["ver_acc"] <= 1.0 and scores["id_rank1"] in (0.0, 1.0)

    def test_probe_and_gallery_rows_are_heldout_draws(self):
        p, _ = self._protocol()
        u = build_universe(80, 8, 0.1, seed=11)
        n_probe = p.probe_labels.size
        for i, ident in enumerate(p.probe_labels.tolist()):
            np.testing.assert_array_equal(p.probe_x[i], heldout_instance(u, ident, 0))
            np.testing.assert_array_equal(p.gallery_x[i], heldout_instance(u, ident, 1))
        for i, ident in enumerate(p.gallery_labels[n_probe:].tolist()):
            np.testing.assert_array_equal(p.gallery_x[n_probe + i], heldout_instance(u, ident, 0))

    @pytest.mark.parametrize("n_train", [2, 50])
    def test_draws_match_per_pair_loop(self, n_train):
        counts = np.full(n_train, 3)
        n_pairs, n_probe = 24, 2
        for seed in range(6):
            u = build_universe(n_train + 5, 8, 0.1, seed)
            p = build_eval_protocol(u, counts, n_pairs, n_probe)
            drawn = _protocol_loop(seed, n_train, n_pairs, n_probe)
            label_a, label_b, index_a, index_b, probes = drawn
            np.testing.assert_array_equal(p.pair_label_a, label_a)
            np.testing.assert_array_equal(p.pair_label_b, label_b)
            genuine = p.pair_label_a == p.pair_label_b
            np.testing.assert_array_equal(genuine, np.arange(n_pairs) < n_pairs // 2)
            np.testing.assert_array_equal(p.probe_labels, probes)
            for i in range(n_pairs):
                np.testing.assert_array_equal(p.pair_a[i], heldout_instance(u, label_a[i], index_a[i]))
                np.testing.assert_array_equal(p.pair_b[i], heldout_instance(u, label_b[i], index_b[i]))

    def test_labels_and_probes_follow_the_universe_seed(self):
        # two universes that differ only in seed draw their own protocols
        counts = np.full(30, 3)
        labels = []
        for seed in (5, 6):
            p = build_eval_protocol(build_universe(34, 8, 0.1, seed), counts, 20, 6)
            label_a, label_b, _, _, probes = _protocol_loop(seed, 30, 20, 6)
            np.testing.assert_array_equal(p.pair_label_a, label_a)
            np.testing.assert_array_equal(p.pair_label_b, label_b)
            np.testing.assert_array_equal(p.probe_labels, probes)
            labels.append(p.pair_label_a)
        assert not np.array_equal(*labels)

    @pytest.mark.parametrize("spare", [0, 1, 7])
    def test_distractors_are_every_identity_after_training(self, spare):
        u = build_universe(12 + spare, 8, 0.1, seed=3)
        p = build_eval_protocol(u, np.full(12, 4), 10, 4)
        np.testing.assert_array_equal(p.gallery_labels[4:], np.arange(12, u.C))
        assert p.gallery_x.shape == (4 + spare, 8)

    def test_probe_tail_flags_probes_below_the_threshold(self):
        p, counts = self._protocol(n_probe=50)  # every identity, counts 20 down to 2
        assert p.probe_tail.dtype == bool
        np.testing.assert_array_equal(p.probe_tail, counts[p.probe_labels] < TAIL_THRESHOLD)
        assert p.probe_tail.any() and not p.probe_tail.all()

    def test_deterministic(self):
        a, _ = self._protocol()
        b, _ = self._protocol()
        np.testing.assert_array_equal(a.pair_a, b.pair_a)
        np.testing.assert_array_equal(a.gallery_x, b.gallery_x)


def _protocol_loop(seed, n_train, n_pairs, n_probe):
    """The protocol's labels, indices and probes drawn one call at a time, pair by pair."""
    gen = rng.stream(seed, rng.PROTOCOL)
    label_a, label_b, index_a, index_b = [], [], [], []
    for i in range(n_pairs):
        a = int(gen.integers(n_train))
        b = a
        if i >= n_pairs // 2:
            b = int(gen.integers(n_train - 1))
            b += b >= a
        label_a.append(a)
        label_b.append(b)
        index_a.append(int(gen.integers(1 << 30)))
        index_b.append(int(gen.integers(1 << 30)))
    probes = gen.choice(n_train, size=n_probe, replace=False)
    return label_a, label_b, index_a, index_b, probes


class TestDatasetFile:
    def test_roundtrip(self, tmp_path):
        u = build_universe(5, 6, 0.2, seed=13)
        counts = np.array([3, 2, 2, 1, 1])
        path = tmp_path / "data.dcqd"
        summary = write_dataset(path, u, counts)
        assert summary["instances"] == 9
        raw = path.read_bytes()
        assert struct.unpack_from("<4sIIII", raw) == (b"DCQD", 1, 5, 6, 9)
        records = np.frombuffer(raw, synthdata._record_dtype(6), offset=20)
        assert records["ident"].tolist() == [0, 0, 0, 1, 1, 2, 2, 3, 4]
        for ident, index, x in records:
            np.testing.assert_array_equal(x, draw_instance(u, int(ident), int(index)))
        assert (tmp_path / "data.dcqd.json").exists()

    def test_bytes_match_record_layout(self, tmp_path):
        # one block, then three blocks with classes 0 and 3 straddling the
        # block edges at rows 184 and 368
        assert rng.KEY_CHUNK == 256
        u = build_universe(4, 3, 0.2, seed=14)
        for counts in (np.array([2, 1, 1, 3]), np.array([300, 1, 1, 250])):
            path = tmp_path / "data.dcqd"
            write_dataset(path, u, counts)
            expected = [b"DCQD" + struct.pack("<IIII", 1, 4, 3, counts.sum())]
            for ident, n in enumerate(counts):
                for k in range(n):
                    expected.append(struct.pack("<II", ident, k))
                    expected.append(draw_instance(u, ident, k).astype("<f8").tobytes())
            assert path.read_bytes() == b"".join(expected)

    def test_peak_is_a_fraction_of_the_table(self, tmp_path, traced_peak):
        # the desk config: 4393 rows of 32 inputs, drawn and written a block
        # at a time, so no N x d_in array is held
        cfg = TrainConfig()
        u = build_universe(cfg.n_classes, cfg.d_in, cfg.sigma, cfg.seed)
        counts = assign_longtail_counts(
            LongTailSpec(cfg.zipf_exponent, cfg.min_count, cfg.max_count), cfg.n_classes
        )
        path = tmp_path / "data.dcqd"
        write_dataset(path, u, counts)  # warm up: the first np.unique call imports numpy.ma
        peak, _ = traced_peak(lambda: write_dataset(path, u, counts))
        assert peak <= 0.5 * counts.sum() * cfg.d_in * 8
