"""Deterministic synthetic long-tailed identity data.

Each identity is a unit-norm cluster center on the input sphere; instances
are the center plus Gaussian noise. Instance counts follow a clamped Zipf
profile over identity rank, so a handful of head identities own most of
the data and the bulk of identities sit in the tail.

Everything here is a pure function of (config, seed): instances are drawn
from counter-based streams keyed by (seed, stream, identity, index), so
regeneration is order-independent and bit-identical. Training reads an
``InstanceTable`` drawn once per run through the bulk key path;
``draw_instance`` and ``heldout_instance`` stay the single-key definitions
the table and the eval protocol must match. A training batch is defined on
the first raw Philox words of its step's stream; ``make_pair_batch`` plans
them a block of steps at a time.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass

import numpy as np

from . import rng
from .errors import ConfigError
from .numerics import Tensor

DATASET_MAGIC = b"DCQD"
DATASET_VERSION = 1

INSTANCE_QUERY = 0  # sub-stream of INSTANCE_NOISE used for stored instances
INSTANCE_HELDOUT = 1  # sub-stream for evaluation-only instances

TAIL_THRESHOLD = 10  # the paper's MF2 tail: identities with fewer instances


@dataclass
class IdentityUniverse:
    """C unit-norm cluster centers in d_in dimensions plus a noise scale."""

    sigma: float
    seed: int
    centers: np.ndarray  # C × d_in, rows unit norm

    @property
    def C(self) -> int:
        return self.centers.shape[0]

    @property
    def d_in(self) -> int:
        return self.centers.shape[1]


@dataclass
class LongTailSpec:
    """Clamped Zipf profile: count(rank r) ∝ r^(−exponent), r starting at 1."""

    zipf_exponent: float
    min_count: int = 1
    max_count: int = 1000

    def __post_init__(self):
        # a chained comparison rejects NaN and infinities
        if not 0.0 <= self.zipf_exponent < np.inf:
            raise ConfigError(f"zipf exponent must be finite and >= 0, got {self.zipf_exponent}")
        if self.min_count < 1 or self.max_count < self.min_count:
            raise ConfigError(f"bad count bounds [{self.min_count}, {self.max_count}]")


@dataclass
class PairBatch:
    """One training batch: query inputs, same-identity reference inputs, labels."""

    x_t: Tensor  # B × d_in
    x_w: Tensor  # B × d_in
    y: np.ndarray  # (B,) int64


@dataclass
class InstanceTable:
    """Every training instance of a universe, drawn once.

    Row ``starts[i] + k``, whose ``owner`` is i and ``index`` k, equals
    ``draw_instance(universe, i, k)`` for ``k < counts[i]``; identities
    with a zero count own no rows.
    """

    universe: IdentityUniverse
    counts: np.ndarray  # (n,) int64
    starts: np.ndarray  # (n,) int64, row of each identity's instance 0
    owner: np.ndarray  # (N,) int64, identity of each row, N = counts.sum()
    index: np.ndarray  # (N,) int64, instance index of each row
    data: np.ndarray  # N × d_in


@dataclass
class EvalProtocol:
    """Verification pairs plus a probe/gallery identification split.

    Gallery rows 0..n_probe−1 are the enrolled mates of the probes (one per
    probe identity); the remaining rows are distractor identities disjoint
    from all training identities.
    """

    pair_a: np.ndarray
    pair_b: np.ndarray
    pair_label_a: np.ndarray
    pair_label_b: np.ndarray
    pair_genuine: np.ndarray  # bool
    probe_x: np.ndarray
    probe_labels: np.ndarray
    gallery_x: np.ndarray
    gallery_labels: np.ndarray
    distractor_labels: np.ndarray


def build_universe(C: int, d_in: int, sigma: float, seed: int) -> IdentityUniverse:
    """Centers drawn as normalized Gaussians from per-identity streams."""
    if C < 1:
        raise ConfigError(f"need at least one identity, got C={C}")
    if d_in < 2:
        raise ConfigError(f"input dimension must be >= 2, got {d_in}")
    centers = rng.normal_rows(d_in, seed, rng.CENTERS, np.arange(C))
    # each stacked row·row product is the ddot that np.linalg.norm(row) runs
    centers /= np.sqrt((centers[:, None, :] @ centers[:, :, None])[:, 0])
    return IdentityUniverse(sigma=float(sigma), seed=int(seed), centers=centers)


def assign_longtail_counts(spec: LongTailSpec, C: int) -> np.ndarray:
    """Instance count per identity, non-increasing in rank (identity 0 is head)."""
    ranks = np.arange(1, C + 1, dtype=np.float64)
    raw = spec.max_count * ranks ** (-spec.zipf_exponent)
    counts = np.floor(raw + 0.5)  # round half up, deterministically
    return np.clip(counts, spec.min_count, spec.max_count).astype(np.int64)


def tail_summary(counts: np.ndarray) -> dict:
    """Counts histogram plus the fraction of identities below the tail threshold."""
    counts = np.asarray(counts)
    values, freq = np.unique(counts, return_counts=True)
    return {
        "identities": int(counts.size),
        "instances": int(counts.sum()),
        "mean_count": float(counts.mean()),
        "tail_threshold": TAIL_THRESHOLD,
        "tail_fraction": float((counts < TAIL_THRESHOLD).mean()),
        "histogram": {int(v): int(f) for v, f in zip(values, freq)},
    }


def _noise(universe: IdentityUniverse, substream: int, identity: int, index: int) -> np.ndarray:
    gen = rng.stream(universe.seed, rng.INSTANCE_NOISE, substream, identity, index)
    return universe.sigma * gen.standard_normal(universe.d_in)


def draw_instance(universe: IdentityUniverse, identity: int, instance_index: int) -> np.ndarray:
    """Center plus per-(identity, index) Gaussian noise; not re-normalized."""
    if not 0 <= identity < universe.C:
        raise IndexError(f"identity {identity} out of range [0, {universe.C})")
    if instance_index < 0:
        raise IndexError(f"negative instance index {instance_index}")
    return universe.centers[identity] + _noise(universe, INSTANCE_QUERY, identity, instance_index)


def heldout_instance(universe: IdentityUniverse, identity: int, index: int) -> np.ndarray:
    """Evaluation-only draw from a stream disjoint from training instances."""
    if not 0 <= identity < universe.C:
        raise IndexError(f"identity {identity} out of range [0, {universe.C})")
    return universe.centers[identity] + _noise(universe, INSTANCE_HELDOUT, identity, index)


def _instance_rows(universe: IdentityUniverse, idents: np.ndarray, seed: int, *path) -> np.ndarray:
    """Row i: ``centers[idents[i]] + sigma * stream(seed, *path_i).standard_normal(d_in)``."""
    rows = rng.normal_rows(universe.d_in, seed, *path)
    rows *= universe.sigma
    rows += universe.centers[idents]
    return rows


def build_instance_table(universe: IdentityUniverse, counts: np.ndarray) -> InstanceTable:
    """Draw every training instance once; row values equal ``draw_instance``."""
    counts = np.asarray(counts, dtype=np.int64)
    if counts.size > universe.C or (counts < 0).any():
        raise ConfigError(f"counts must be {universe.C} or fewer non-negative entries")
    starts = np.cumsum(counts) - counts
    owner = np.repeat(np.arange(counts.size), counts)
    index = np.arange(owner.size) - starts[owner]
    data = _instance_rows(
        universe, owner, universe.seed, rng.INSTANCE_NOISE, INSTANCE_QUERY, owner, index
    )
    return InstanceTable(universe, counts, starts, owner, index, data)


# Steps whose draws make_pair_batch plans at once: enough to spread each
# block's fixed cost (key derivation, about 20 numpy calls) thin, while a
# block's arrays stay near 32 kB each at B=32.
PLAN_BLOCK_STEPS = 64


class PairPlan:
    """One run's batch draws, planned ``PLAN_BLOCK_STEPS`` steps at a time.

    Row i of the block arrays belongs to step ``first + i``: its labels, its
    query then reference table rows, and whether it holds a single-instance
    identity, whose reference is fresh noise.
    """

    def __init__(self, table: InstanceTable, batch_size: int, mode: str, seed: int):
        if mode not in ("instance", "class"):
            raise ConfigError(f"sampling mode must be 'instance' or 'class', got {mode!r}")
        if not table.counts.any():
            raise ConfigError("no identity has a positive instance count")
        self.table, self.batch_size, self.mode, self.seed = table, batch_size, mode, seed
        # the identities with a row, which class mode picks among
        self.eligible = np.flatnonzero(table.counts)
        self.rekeyer = rng.Rekeyer()
        self.first = 0
        self.labels = np.empty((0, batch_size), dtype=np.int64)
        self.rows = np.empty((0, 2 * batch_size), dtype=np.int64)
        self.single = np.empty(0, dtype=bool)


def make_pair_batch(plan: PairPlan, step: int) -> PairBatch:
    """Step ``step``'s B (query, reference, label) triples.

    The batch is a pure function of the first raw words of
    ``rng.stream(seed, rng.BATCH, step)``. Instance mode picks the owner of
    a uniformly drawn table row, so identities in proportion to their
    instance counts, class mode uniformly over identities with at least one
    instance; each row then draws a query index and a distinct reference
    index of its identity.
    Every bounded draw is a multiply-shift of a 32-bit half-word, biased by
    less than bound / 2**32 (``_lemire``). A single-instance identity's reference is its center plus
    ``sigma * rng.normal_rows(d_in, seed, rng.BATCH_REFERENCE, step, row)``.
    A step outside the planned block plans the ``PLAN_BLOCK_STEPS`` steps
    from it on; rows are gathered from the table when a step is served.
    """
    i = step - plan.first
    if not 0 <= i < plan.single.size:
        keys = rng.philox_keys(plan.seed, rng.BATCH, np.arange(step, step + PLAN_BLOCK_STEPS))
        words = plan.rekeyer.raw_words(keys, _words_per_step(plan.batch_size, plan.mode))
        plan.labels, plan.rows, plan.single = _plan_words(plan, words)
        plan.first, i = step, 0
    table, B = plan.table, plan.batch_size
    x = table.data.take(plan.rows[i], axis=0)
    y = plan.labels[i].copy()
    if plan.single[i]:
        single = np.flatnonzero(table.counts[y] == 1)
        x[B + single] = _instance_rows(
            table.universe, y[single], plan.seed, rng.BATCH_REFERENCE, step, single
        )
    return PairBatch(x_t=Tensor(x[:B]), x_w=Tensor(x[B:]), y=y)


def _words_per_step(batch_size: int, mode: str) -> int:
    """Raw words one step's draws take.

    Instance mode: B uniforms of a word each, then at most 2B index draws
    of half a word. Class mode: B identity draws then at most 2B index
    draws, all of half a word.
    """
    return 2 * batch_size if mode == "instance" else (3 * batch_size + 1) // 2


def _halves(words: np.ndarray) -> np.ndarray:
    """Each word's low then high 32 bits, in that order, as uint64."""
    return words.astype("<u8", copy=False).view("<u4").astype(np.uint64)


def _lemire(halves: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    """Row s: draws in [0, bounds[s]) from the 32-bit values ``halves[s]``.

    Each draw is the multiply-shift ``(u32 * bound) >> 32`` on the next
    unused value (Lemire's method, without its rejection step), so a draw's
    bias is below bound / 2**32; a bound of 1 takes no value and draws 0.
    """
    # a bound-1 draw reads the value before it, which is harmless:
    # u32 * 1 >> 32 is 0
    pos = np.cumsum(bounds > 1, axis=1)
    pos += np.arange(-1, halves.size - 1, halves.shape[1])[:, None]
    m = halves.ravel()[pos] * bounds.astype(np.uint64)
    return (m >> np.uint64(32)).astype(np.int64)


def _plan_words(plan: PairPlan, words: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Labels, query then reference rows, and single-instance flags from raw words.

    Row s of ``words`` starts step s's batch stream. Instance mode turns
    each of the first B words into a uniform ``u = (w >> 11) * 2**-53`` and
    picks the owner of table row ``floor(u * N)`` of N rows, which is below
    N because ``u <= 1 - 2**-53`` and the float64 product rounds below N;
    class mode draws B identities from the half-words. The index draws then
    take the next half-words, query then reference per row.
    """
    table, B, eligible = plan.table, plan.batch_size, plan.eligible
    if plan.mode == "instance":
        u = (words[:, :B] >> np.uint64(11)) * 2.0**-53
        labels = table.owner[(u * table.owner.size).astype(np.intp)]
        halves = _halves(words[:, B:])
    else:
        halves = _halves(words)
        labels = eligible[_lemire(halves, np.full((words.shape[0], B), eligible.size))]
        # the index draws go on from the next 32-bit value, which may be the
        # high half of the identity draws' last word
        halves = halves[:, B if eligible.size > 1 else 0 :]
    n = table.counts[labels]
    # a query index in [0, n), then a reference index in [0, n - 1) per row
    bounds = np.repeat(n, 2, axis=1)
    bounds[:, 1::2] -= 1
    np.maximum(bounds, 1, out=bounds)
    draws = _lemire(halves, bounds)
    q, r = draws[:, 0::2], draws[:, 1::2]
    starts = table.starts[labels]
    # a distinct reference index; a single-instance row reads its own row,
    # which make_pair_batch replaces with noise
    multi = n > 1
    rows = np.concatenate([starts + q, starts + r + ((r >= q) & multi)], axis=1)
    return labels, rows, ~multi.all(axis=1)


def build_eval_protocol(
    universe: IdentityUniverse,
    counts: np.ndarray,
    n_pairs: int,
    n_probe: int,
    n_distractors: int,
    seed: int,
) -> EvalProtocol:
    """Balanced verification pairs plus probe/gallery sets with distractors.

    Training identities are 0..len(counts)−1; distractors come from the
    reserved range [len(counts), universe.C), which training never touches.
    All evaluation inputs are drawn from the held-out instance stream.
    """
    counts = np.asarray(counts, dtype=np.int64)
    n_train = int(counts.size)
    n_reserved = universe.C - n_train
    if n_pairs % 2 != 0:
        raise ConfigError(f"n_pairs must be even for a balanced protocol, got {n_pairs}")
    if n_distractors > n_reserved:
        raise ConfigError(f"{n_distractors} distractors requested, only {n_reserved} reserved")
    if n_probe > n_train:
        raise ConfigError(f"{n_probe} probes requested from {n_train} training identities")
    if n_pairs and n_train < 2:
        raise ConfigError(f"impostor pairs need 2 or more training identities, got {n_train}")

    gen = rng.stream(seed, rng.PROTOCOL)
    half = n_pairs // 2

    # every protocol draw first, in a fixed order, in one call: per genuine
    # pair (identity, index_a, index_b), per impostor pair (a, b, index_a,
    # index_b) with b drawn from n_train - 1 and shifted past a
    index_high = 1 << 30
    genuine_highs = np.tile([n_train, index_high, index_high], half)
    impostor_highs = np.tile([n_train, n_train - 1, index_high, index_high], n_pairs - half)
    draws = gen.integers(0, np.concatenate([genuine_highs, impostor_highs]))
    g = draws[: 3 * half].reshape(half, 3)
    imp = draws[3 * half :].reshape(n_pairs - half, 4)
    label_a = np.concatenate([g[:, 0], imp[:, 0]])
    label_b = np.concatenate([g[:, 0], imp[:, 1] + (imp[:, 1] >= imp[:, 0])])
    index_a = np.concatenate([g[:, 1], imp[:, 2]])
    index_b = np.concatenate([g[:, 2], imp[:, 3]])
    genuine = np.arange(n_pairs) < half
    probe_ids = gen.choice(n_train, size=n_probe, replace=False).astype(np.int64)
    distractor_ids = (n_train + np.arange(n_distractors)).astype(np.int64)

    # held-out rows, equal to heldout_instance per row:
    # pair_a | pair_b | probes (index 0) | mates (index 1) | distractors (index 0)
    idents = np.concatenate([label_a, label_b, probe_ids, probe_ids, distractor_ids])
    index = np.concatenate([
        index_a, index_b,
        np.zeros(n_probe, dtype=np.int64), np.ones(n_probe, dtype=np.int64),
        np.zeros(n_distractors, dtype=np.int64),
    ])
    rows = _instance_rows(
        universe, idents, universe.seed, rng.INSTANCE_NOISE, INSTANCE_HELDOUT, idents, index
    )
    cuts = [n_pairs, 2 * n_pairs, 2 * n_pairs + n_probe]
    pair_a, pair_b, probe_x, gallery_x = np.split(rows, cuts)
    gallery_labels = np.concatenate([probe_ids, distractor_ids])

    return EvalProtocol(
        pair_a=pair_a,
        pair_b=pair_b,
        pair_label_a=label_a,
        pair_label_b=label_b,
        pair_genuine=genuine,
        probe_x=probe_x,
        probe_labels=probe_ids,
        gallery_x=gallery_x,
        gallery_labels=gallery_labels,
        distractor_labels=distractor_ids,
    )


_HEADER_BYTES = len(DATASET_MAGIC) + 16


def _record_dtype(d_in: int) -> np.dtype:
    return np.dtype([("ident", "<u4"), ("index", "<u4"), ("x", "<f8", (d_in,))])


def write_dataset(path, universe: IdentityUniverse, counts: np.ndarray) -> dict:
    """Materialize every instance to a flat binary file; returns the summary.

    Layout: little-endian header (magic, version u32, C u32, d_in u32,
    total u32) followed by one record per instance: identity u32,
    instance u32, d_in float64 values. A JSON summary with the counts
    histogram and tail fraction is written next to the file.
    """
    table = build_instance_table(universe, counts)
    counts = table.counts
    records = np.empty(table.owner.size, dtype=_record_dtype(universe.d_in))
    records["ident"] = table.owner
    records["index"] = table.index
    records["x"] = table.data
    path = str(path)
    with open(path, "wb") as fh:
        fh.write(DATASET_MAGIC)
        fh.write(struct.pack("<IIII", DATASET_VERSION, counts.size, universe.d_in, records.size))
        fh.write(records)
    summary = tail_summary(counts)
    with open(path + ".json", "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
    return summary


def read_dataset(path) -> tuple[dict, np.ndarray, np.ndarray, np.ndarray]:
    """Read a materialized dataset: (header, identities, instance ids, data)."""
    with open(path, "rb") as fh:
        raw = fh.read()
    magic = raw[: len(DATASET_MAGIC)]
    if magic != DATASET_MAGIC:
        raise ConfigError(f"not a dataset file (magic {magic!r})")
    if len(raw) < _HEADER_BYTES:
        raise ConfigError(f"dataset header truncated: {len(raw)} of {_HEADER_BYTES} bytes")
    version, n_classes, d_in, total = struct.unpack_from("<IIII", raw, len(DATASET_MAGIC))
    if version != DATASET_VERSION:
        raise ConfigError(f"unsupported dataset version {version}")
    dtype = _record_dtype(d_in)
    expected = _HEADER_BYTES + total * dtype.itemsize
    if len(raw) != expected:
        raise ConfigError(f"dataset file has {len(raw)} bytes, its header implies {expected}")
    records = np.frombuffer(raw, dtype=dtype, offset=_HEADER_BYTES)
    header = {"version": version, "C": n_classes, "d_in": d_in, "total": total}
    return (
        header,
        records["ident"].astype(np.int64),
        records["index"].astype(np.int64),
        records["x"].astype(np.float64),
    )
