"""Deterministic counter-based random streams keyed by structured tuples.

Every random artifact in the package is drawn from a Philox generator whose
key is derived from ``(seed, stream_tag, *indices)``. Streams are
therefore order-independent: drawing identity 17's noise never depends on
whether identity 16 was drawn first, and any value can be regenerated from
its key alone.

``philox_keys`` is the one key derivation; ``stream`` applies its row 0.
The key has 128 bits, but not every key uses all of them: a key whose two
64-bit words straddle 2**63 (one word at or above it, the other below) is
rounded through float64, which drops the low bits of both words and
leaves about 106 effective bits. About half of all keys straddle. The
rounding is part of the key's definition, kept from the time keys reached
numpy as a Python list, which numpy converted that way. Dropping it
re-keys every stream and changes every drawn value; it is two lines in
``philox_keys``.
"""

import numpy as np

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_PATH_SALT = 0xD1B54A32D192ED03

# Keys converted to Python ints at a time when re-keying; bounds the
# transient int objects to a few tens of kB. Callers that draw rows a block
# at a time use it as their block size.
KEY_CHUNK = 256

# Stream tags. Keep them unique package-wide so no two call sites can
# collide on a key.
CENTERS = 1
INSTANCE_NOISE = 2
BATCH = 3
PROTOCOL = 4
PARAM_INIT = 5
BATCH_REFERENCE = 6  # a single-instance identity's reference noise


def _splitmix64(z):
    """One splitmix64 step on a Python int or a uint64 array.

    The masks keep an int in 64 bits; uint64 arithmetic already wraps.
    """
    z = (z + _GAMMA) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def philox_keys(seed: int, *path) -> np.ndarray:
    """N × 2 uint64 Philox keys, one per broadcast path row.

    Path components are integers or 1-D integer arrays; they broadcast to
    N rows, and an all-integer path gives one row. Each component is
    hashed into the key in turn: an integer with Python ints, so leading
    scalars cost no array pass, and an array as a uint64 column. A key
    whose two words straddle 2**63 is rounded through float64 (the module
    docstring says why).
    """
    h = _splitmix64(int(seed) & _MASK64)
    for part in path:
        if np.ndim(part) == 0:
            part = int(part) & _MASK64
        else:
            part = np.asarray(part, dtype=np.int64).ravel().astype(np.uint64)
        h = _splitmix64(h ^ _splitmix64(part ^ _PATH_SALT))
    h = np.atleast_1d(np.asarray(h, dtype=np.uint64))
    keys = np.stack([h, _splitmix64(h ^ _GAMMA)], axis=1)
    mixed = (keys[:, 0] >> 63) != (keys[:, 1] >> 63)
    keys[mixed] = keys[mixed].astype(np.float64).astype(np.uint64)
    return keys


def stream(seed: int, *path: int) -> np.random.Generator:
    """Independent deterministic generator for the given (seed, *path) key."""
    return np.random.Generator(np.random.Philox(key=philox_keys(seed, *path)[0]))


class Rekeyer:
    """One Philox generator reset in place to each key (counter 0, empty buffer).

    Re-keying costs a fraction of constructing a generator per key.
    """

    def __init__(self):
        self._bitgen = np.random.Philox(0)
        self._gen = np.random.Generator(self._bitgen)
        # plain ints: the state setter reads them faster than numpy scalars
        self._key_state = {"counter": [0, 0, 0, 0], "key": None}
        self._state = {
            "bit_generator": "Philox",
            "state": self._key_state,
            "buffer": [0, 0, 0, 0],
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }

    def raw_words(self, keys: np.ndarray, n_words: int) -> np.ndarray:
        """S × n_words: the first raw 64-bit words of the stream of each key row."""
        words = np.empty((keys.shape[0], n_words), dtype=np.uint64)
        bitgen, state, key_state = self._bitgen, self._state, self._key_state
        random_raw = bitgen.random_raw
        for row, key in zip(words, keys.tolist()):
            key_state["key"] = key
            bitgen.state = state
            row[:] = random_raw(n_words)
        return words

    def normal_rows(self, keys: np.ndarray, d: int) -> np.ndarray:
        """S × d: row i is the first ``standard_normal(d)`` of the stream of key row i."""
        out = np.empty((keys.shape[0], d))
        bitgen, state, key_state = self._bitgen, self._state, self._key_state
        standard_normal = self._gen.standard_normal
        for lo in range(0, keys.shape[0], KEY_CHUNK):
            for key, row in zip(keys[lo : lo + KEY_CHUNK].tolist(), out[lo : lo + KEY_CHUNK]):
                key_state["key"] = key
                bitgen.state = state
                standard_normal(out=row)
        return out
