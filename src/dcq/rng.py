"""Deterministic counter-based random streams keyed by structured tuples.

Every random artifact in the package is drawn from a Philox generator whose
key is derived from ``(seed, stream_tag, *indices)``. Streams are
therefore order-independent: drawing identity 17's noise never depends on
whether identity 16 was drawn first, and any value can be regenerated from
its key alone.

The derived key has 128 bits, but not every stream uses all of them.
``stream`` hands the two 64-bit words to ``np.random.Philox`` as a Python
list, and numpy converts a list whose words straddle 2**63 (one word at or
above it, the other below) to float64 before casting to uint64. Those keys
lose the low bits of both words, leaving about 106 effective bits; this
happens for about half of all streams. The rounding is part of the stream
definition: removing it would re-key every stream and change every drawn
value, so ``philox_keys`` reproduces it.
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


def _splitmix64(z: int) -> int:
    z = (z + _GAMMA) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def _splitmix64_array(z: np.ndarray) -> np.ndarray:
    """``_splitmix64`` over a uint64 array; array arithmetic wraps mod 2**64."""
    z = z + np.uint64(_GAMMA)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def _mix(h: int, part) -> int:
    """The key hash after one more integer path component."""
    return _splitmix64(h ^ _splitmix64((int(part) & _MASK64) ^ _PATH_SALT))


def derive_key(seed: int, *path: int) -> list[int]:
    """Mix a seed and integer path components into two 64-bit key words."""
    h = _splitmix64(seed & _MASK64)
    for part in path:
        h = _mix(h, part)
    return [h, _splitmix64(h ^ _GAMMA)]


def stream(seed: int, *path: int) -> np.random.Generator:
    """Independent deterministic generator for the given (seed, *path) key."""
    return np.random.Generator(np.random.Philox(key=derive_key(seed, *path)))


def philox_keys(seed: int, *path) -> np.ndarray:
    """N × 2 uint64 keys that ``stream`` applies, one per broadcast path row.

    Path components are integers or 1-D integer arrays; they broadcast to
    N rows. Row i equals ``stream(seed, *path_i)``'s Philox key, including
    the float64 rounding of keys whose words straddle 2**63. The leading
    scalar components are hashed into the seed with Python ints, as
    ``derive_key`` does, so only the array columns and what follows them
    take the array passes.
    """
    h, path = _splitmix64(seed & _MASK64), list(path)
    while path and np.ndim(path[0]) == 0:
        h = _mix(h, path.pop(0))
    cols = np.broadcast_arrays(*(np.atleast_1d(np.asarray(p, dtype=np.int64)) for p in path))
    h = np.full(cols[0].size if cols else 1, h, dtype=np.uint64)
    for col in cols:
        part = _splitmix64_array(col.ravel().astype(np.uint64) ^ np.uint64(_PATH_SALT))
        h = _splitmix64_array(h ^ part)
    keys = np.stack([h, _splitmix64_array(h ^ np.uint64(_GAMMA))], axis=1)
    mixed = (keys[:, 0] >> np.uint64(63)) != (keys[:, 1] >> np.uint64(63))
    keys[mixed] = keys[mixed].astype(np.float64).astype(np.uint64)
    return keys


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
