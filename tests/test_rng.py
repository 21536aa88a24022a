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
        idents = np.arange(300)
        keys = rng.philox_keys(9, rng.INSTANCE_NOISE, 0, idents, idents % 4)
        assert keys.shape == (300, 2) and keys.dtype == np.uint64
        for i in idents:
            applied = np.random.Philox(key=rng.derive_key(9, 2, 0, int(i), int(i) % 4))
            np.testing.assert_array_equal(keys[i], applied.state["state"]["key"])


class TestNormalRows:
    def test_rows_match_single_key_streams(self):
        idents = np.arange(200)
        index = (idents * 7) % 11
        rows = rng.normal_rows(9, 4, rng.INSTANCE_NOISE, 1, idents, index)
        assert rows.shape == (200, 9)
        for i in idents:
            gen = rng.stream(4, rng.INSTANCE_NOISE, 1, int(i), int(index[i]))
            np.testing.assert_array_equal(rows[i], gen.standard_normal(9))

    def test_scalar_path_is_one_row(self):
        expected = rng.stream(3, rng.CENTERS, 2).standard_normal((1, 5))
        np.testing.assert_array_equal(rng.normal_rows(5, 3, rng.CENTERS, 2), expected)

    def test_empty_path_column_gives_no_rows(self):
        assert rng.normal_rows(4, 1, rng.CENTERS, np.arange(0)).shape == (0, 4)


class TestRekeyer:
    def test_each_key_matches_single_key_stream(self):
        # batch keys of steps 0..299 include both-low, both-high and
        # straddling word pairs
        steps = np.arange(300)
        words = [
            tuple(w >= HIGH for w in rng.derive_key(5, rng.BATCH, int(t))) for t in steps
        ]
        assert {(False, False), (True, True), (False, True), (True, False)} <= set(words)
        rekeyer = rng.Rekeyer()
        for t, key in zip(steps, rng.philox_keys(5, rng.BATCH, steps).tolist(), strict=True):
            gen = rekeyer.rekey(key)
            ref = rng.stream(5, rng.BATCH, int(t))
            np.testing.assert_array_equal(
                gen.bit_generator.state["state"]["key"], ref.bit_generator.state["state"]["key"]
            )
            # a 32-bit draw leaves half a word buffered; the next re-key drops it
            assert gen.integers(10) == ref.integers(10)
            np.testing.assert_array_equal(gen.standard_normal(3), ref.standard_normal(3))

    def test_offset_range_starts_at_its_first_key(self):
        ref = rng.stream(2, rng.BATCH, 70)
        gen = rng.Rekeyer().rekey(rng.philox_keys(2, rng.BATCH, np.arange(70, 90))[0].tolist())
        np.testing.assert_array_equal(gen.random(5), ref.random(5))
