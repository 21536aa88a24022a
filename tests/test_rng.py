import numpy as np
import pytest

from dcq import rng

HIGH = 1 << 63


def _assert_key_words(seed, path, words):
    """philox_keys gives one row, ``words``, and stream applies the same key."""
    keys = rng.philox_keys(seed, *path)
    assert keys.shape == (1, 2) and keys.dtype == np.uint64
    assert tuple(int(w) for w in keys[0]) == words
    applied = rng.stream(seed, *path).bit_generator.state["state"]["key"]
    assert tuple(int(w) for w in applied) == words


class TestPhiloxKeys:
    # Key words the stream applies, recorded from the Python-int key hash
    # that stream used before philox_keys was its only key derivation.
    # Path (1, 2, 0, 5, k): k=5 has both words below 2**63, k=4 both at or
    # above, k=0 and k=7 one of each.
    @pytest.mark.parametrize(
        "k,words",
        [
            (5, (0x38A43A81977FBE9A, 0x1AF1A17599408155)),
            (4, (0xF01AC31F1CD7A72C, 0xABC30C3A16A2A938)),
            (0, (0x484B8AA9C25A3C00, 0xCA7590A0251F4000)),
            (7, (0xB04389BB09B88000, 0x158DBD003BE54A00)),
        ],
    )
    def test_bulk_key_is_the_applied_key(self, k, words):
        _assert_key_words(1, (2, 0, 5, k), words)

    @pytest.mark.parametrize(
        "seed,path,words",
        [
            (2**64 - 1, (rng.BATCH, 0), (0x6DF2280FD3ABC800, 0x8785CA4E826BF000)),
            (2**64 - 1, (rng.BATCH, 3), (0xA7FFCD1C35437742, 0xC3533A070B29DF34)),
            (2**64 - 1, (), (0xE4D971771B652C20, 0xC81B5873BBC0192C)),
            (5, (rng.PROTOCOL, -1), (0xD72AF2C4AEDDE800, 0x38596394041EE600)),
            (5, (rng.PROTOCOL, -4), (0x284151EC804D1E8A, 0x73CDB08DA4C6991F)),
        ],
    )
    def test_key_words_are_pinned(self, seed, path, words):
        _assert_key_words(seed, path, words)

    def test_mixed_words_lose_low_bits(self):
        # the hash of path (1, 2, 0, 5, 3) before rounding; its words
        # straddle 2**63, so both are rounded through float64
        hashed = np.array([0x76CED076A8E071F7, 0xAF0601F4671DE5CC], dtype=np.uint64)
        rounded = hashed.astype(np.float64).astype(np.uint64)
        assert hex(int(rounded[0])).endswith("7000")
        np.testing.assert_array_equal(rng.philox_keys(1, 2, 0, 5, 3)[0], rounded)

    def test_broadcast_rows_match_scalar_calls(self):
        # scalars before, between and after the array columns
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
                np.testing.assert_array_equal(keys[i], rng.philox_keys(9, *path(int(i)))[0])

    def test_numpy_integers_key_as_python_ints(self):
        np.testing.assert_array_equal(
            rng.philox_keys(np.int64(3), np.int64(rng.BATCH), np.uint64(7), np.int64(-2)),
            rng.philox_keys(3, rng.BATCH, 7, -2),
        )


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
        keys = rng.philox_keys(5, rng.BATCH, steps)
        words = {tuple(row) for row in (keys >= HIGH).tolist()}
        assert {(False, False), (True, True), (False, True), (True, False)} <= words
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
