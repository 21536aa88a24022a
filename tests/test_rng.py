import numpy as np
import pytest

from dcq import rng

HIGH = 1 << 63


class TestPhiloxKeys:
    # path (1, 2, 0, 5, k): k=5 has both words below 2**63, k=4 both at or
    # above, k=0 and k=7 one of each
    @pytest.mark.parametrize("k,words", [(5, (0, 0)), (4, (1, 1)), (0, (0, 1)), (7, (1, 0))])
    def test_bulk_key_is_the_applied_key(self, k, words):
        derived = rng.derive_key(1, 2, 0, 5, k)
        assert (derived[0] >= HIGH, derived[1] >= HIGH) == words
        applied = np.random.Philox(key=derived).state["state"]["key"]
        np.testing.assert_array_equal(rng.philox_keys(1, 2, 0, 5, k)[0], applied)

    def test_mixed_words_lose_low_bits(self):
        derived = rng.derive_key(1, 2, 0, 5, 3)
        assert hex(derived[0]).endswith("71f7")
        assert hex(int(rng.philox_keys(1, 2, 0, 5, 3)[0, 0])).endswith("7000")

    def test_broadcast_rows_match_derive_key(self):
        # scalars before, between and after the array columns: only the
        # leading run of scalars may fold into the seed hash
        idents = np.arange(300)
        paths = [
            lambda i: (rng.INSTANCE_NOISE, 0, i, i % 4),
            lambda i: (rng.INSTANCE_NOISE, i, 0, i % 4),
            lambda i: (i, i % 4, 7, rng.INSTANCE_NOISE),
        ]
        for path in paths:
            keys = rng.philox_keys(9, *path(idents))
            assert keys.shape == (300, 2) and keys.dtype == np.uint64
            for i in idents:
                applied = np.random.Philox(key=rng.derive_key(9, *path(int(i))))
                np.testing.assert_array_equal(keys[i], applied.state["state"]["key"])


def _normal_rows(d, seed, *path):
    return rng.Rekeyer().normal_rows(rng.philox_keys(seed, *path), d)


class TestNormalRows:
    def test_rows_match_single_key_streams(self):
        idents = np.arange(200)
        index = (idents * 7) % 11
        rows = _normal_rows(9, 4, rng.INSTANCE_NOISE, 1, idents, index)
        assert rows.shape == (200, 9)
        for i in idents:
            gen = rng.stream(4, rng.INSTANCE_NOISE, 1, int(i), int(index[i]))
            np.testing.assert_array_equal(rows[i], gen.standard_normal(9))

    def test_scalar_path_is_one_row(self):
        expected = rng.stream(3, rng.CENTERS, 2).standard_normal((1, 5))
        np.testing.assert_array_equal(_normal_rows(5, 3, rng.CENTERS, 2), expected)

    def test_empty_path_column_gives_no_rows(self):
        assert _normal_rows(4, 1, rng.CENTERS, np.arange(0)).shape == (0, 4)


class TestRekeyer:
    def test_each_key_matches_single_key_stream(self):
        # batch keys of steps 0..299 include both-low, both-high and
        # straddling word pairs
        steps = np.arange(300)
        words = [
            tuple(w >= HIGH for w in rng.derive_key(5, rng.BATCH, int(t))) for t in steps
        ]
        assert {(False, False), (True, True), (False, True), (True, False)} <= set(words)
        keys = rng.philox_keys(5, rng.BATCH, steps)
        # one generator serves both methods in turn; each call starts every
        # key's stream afresh, whatever the call before left buffered
        rekeyer = rng.Rekeyer()
        for _ in range(2):
            rows = rekeyer.normal_rows(keys, 3)
            raw = rekeyer.raw_words(keys, 5)
            assert raw.shape == (300, 5) and raw.dtype == np.uint64
            for t in steps:
                ref = rng.stream(5, rng.BATCH, int(t))
                np.testing.assert_array_equal(rows[t], ref.standard_normal(3))
                ref = rng.stream(5, rng.BATCH, int(t)).bit_generator.random_raw(5)
                np.testing.assert_array_equal(raw[t], ref)

    def test_offset_range_starts_at_its_first_key(self):
        keys = rng.philox_keys(2, rng.BATCH, np.arange(70, 90))
        ref = rng.stream(2, rng.BATCH, 70)
        words = rng.Rekeyer().raw_words(keys, 5)[0]
        np.testing.assert_array_equal(words, ref.bit_generator.random_raw(5))
        ref = rng.stream(2, rng.BATCH, 70)
        np.testing.assert_array_equal(rng.Rekeyer().normal_rows(keys, 5)[0], ref.standard_normal(5))
