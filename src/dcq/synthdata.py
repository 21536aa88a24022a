"""Deterministic synthetic long-tailed identity data.

Each identity is a unit-norm cluster center on the input sphere; instances
are the center plus Gaussian noise. Instance counts follow a clamped Zipf
profile over identity rank, so a handful of head identities own most of
the data and the bulk of identities sit in the tail.

Everything here is a pure function of the config and the seed that
``build_universe`` takes: every later draw comes from a counter-based
stream keyed by (``universe.seed``, stream, ...), so regeneration is
order-independent and bit-identical. ``InstanceRows`` is
the one layout of the training instances: a training run's ``PairPlan``
draws every row once through it, while ``dcq gen-data`` and the
tail-alignment diagnostic draw the same rows in its ``blocks``.
``draw_instance`` and ``heldout_instance`` stay the single-key
definitions those rows and the eval protocol must match. A training
batch is defined on the first raw Philox words of its step's stream;
``make_pair_batch`` plans them a block of steps at a time.
"""

from __future__ import annotations

import errno
import json
import os
import struct
from dataclasses import dataclass

import numpy as np

from . import rng
from .checkpoint import replace_on_success
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
    seed: int  # keys every draw made from the universe
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
    min_count: int
    max_count: int

    def __post_init__(self):
        # a chained comparison rejects NaN and infinities
        if not 0.0 <= self.zipf_exponent < np.inf:
            raise ConfigError(f"zipf exponent must be finite and >= 0, got {self.zipf_exponent}")
        if self.min_count < 1 or self.max_count < self.min_count:
            raise ConfigError(f"bad count bounds [{self.min_count}, {self.max_count}]")
        # the profile is computed in float64, which holds every integer up to 2**53
        if self.max_count > 2**53:
            raise ConfigError(f"max_count must be at most 2**53, got {self.max_count}")


@dataclass
class PairBatch:
    """One training batch: query inputs, same-identity reference inputs, labels."""

    x_t: Tensor  # B × d_in
    x_w: Tensor  # B × d_in
    y: np.ndarray  # (B,) int64


@dataclass
class EvalProtocol:
    """Verification pairs plus a probe/gallery identification split.

    Gallery rows 0..n_probe−1 are the enrolled mates of the probes (one per
    probe identity); the remaining rows are distractor identities disjoint
    from all training identities. A pair is genuine when its two labels
    match. ``probe_tail`` flags the probes whose identity has fewer than
    ``TAIL_THRESHOLD`` training instances.
    """

    pair_a: np.ndarray
    pair_b: np.ndarray
    pair_label_a: np.ndarray
    pair_label_b: np.ndarray
    probe_x: np.ndarray
    probe_labels: np.ndarray
    gallery_x: np.ndarray
    gallery_labels: np.ndarray
    probe_tail: np.ndarray  # bool


def check_universe(C: int, d_in: int, sigma: float, seed: int) -> None:
    """Raise ConfigError unless ``build_universe`` can draw a universe from these values."""
    if C < 1:
        raise ConfigError(f"need at least one identity, got C={C}")
    if d_in < 2:
        raise ConfigError(f"d_in must be >= 2, got {d_in}")
    # a chained comparison rejects NaN and infinities
    if not 0.0 <= sigma < np.inf:
        raise ConfigError(f"sigma must be finite and >= 0, got {sigma}")
    # keys reduce a seed modulo 2**64, so a seed outside would rerun another
    if not 0 <= seed < 2**64:
        raise ConfigError(f"seed must lie in [0, 2**64), got {seed}")


def build_universe(C: int, d_in: int, sigma: float, seed: int) -> IdentityUniverse:
    """Centers drawn as normalized Gaussians from per-identity streams."""
    check_universe(C, d_in, sigma, seed)
    centers = rng.Rekeyer().normal_rows(rng.philox_keys(seed, rng.CENTERS, np.arange(C)), d_in)
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


def _instance(universe: IdentityUniverse, substream: int, identity: int, index: int) -> np.ndarray:
    """Center plus sigma times the normals keyed by (``substream``, identity, index).

    Raises IndexError unless ``identity`` is in the universe and ``index`` is >= 0.
    """
    if not 0 <= identity < universe.C:
        raise IndexError(f"identity {identity} out of range [0, {universe.C})")
    if index < 0:
        raise IndexError(f"negative instance index {index}")
    gen = rng.stream(universe.seed, rng.INSTANCE_NOISE, substream, identity, index)
    return universe.centers[identity] + universe.sigma * gen.standard_normal(universe.d_in)


def draw_instance(universe: IdentityUniverse, identity: int, instance_index: int) -> np.ndarray:
    """Center plus per-(identity, index) Gaussian noise; not re-normalized."""
    return _instance(universe, INSTANCE_QUERY, identity, instance_index)


def heldout_instance(universe: IdentityUniverse, identity: int, index: int) -> np.ndarray:
    """Evaluation-only draw from a stream disjoint from training instances."""
    return _instance(universe, INSTANCE_HELDOUT, identity, index)


def _noisy_rows(
    universe: IdentityUniverse, idents: np.ndarray, keys: np.ndarray, rekeyer: rng.Rekeyer
) -> np.ndarray:
    """Row i: ``centers[idents[i]] + sigma *`` row i of ``rekeyer.normal_rows(keys, d_in)``.

    The centers are gathered ``rng.KEY_CHUNK`` rows at a time, so no second
    rows-sized array is held beside the noise.
    """
    rows = rekeyer.normal_rows(keys, universe.d_in)
    for lo in range(0, rows.shape[0], rng.KEY_CHUNK):
        block = rows[lo : lo + rng.KEY_CHUNK]
        block *= universe.sigma
        block += universe.centers[idents[lo : lo + rng.KEY_CHUNK]]
    return rows


class InstanceRows:
    """The training instances of a universe, laid out by identity and drawn by row range.

    Row ``starts[i] + k``, whose ``owner`` is i and ``index`` k, equals
    ``draw_instance(universe, i, k)`` for ``k < counts[i]``; identities
    with a zero count own no rows. The rows' Philox keys are derived once,
    here, and ``draw`` re-keys one generator per row, so rows drawn a block
    at a time carry the bits of one whole draw.
    """

    def __init__(self, universe: IdentityUniverse, counts: np.ndarray):
        counts = np.asarray(counts, dtype=np.int64)
        if counts.size > universe.C or (counts < 0).any():
            raise ConfigError(f"counts must be {universe.C} or fewer non-negative entries")
        self.universe, self.counts = universe, counts
        self.starts = np.cumsum(counts) - counts
        self.owner = np.repeat(np.arange(counts.size), counts)
        self.index = np.arange(self.owner.size) - self.starts[self.owner]
        self.keys = rng.philox_keys(
            universe.seed, rng.INSTANCE_NOISE, INSTANCE_QUERY, self.owner, self.index
        )
        self.rekeyer = rng.Rekeyer()

    def blocks(self) -> list[tuple[int, int]]:
        """The N rows in ceil(N / ``rng.KEY_CHUNK``) near-equal ``(lo, hi)`` ranges, in order.

        None holds a single row unless the table does. One embed call over the 4393-row desk
        table takes 11-12 ms, against 5 ms in 256-row blocks (one thread).
        """
        n = self.owner.size
        m = -(-n // rng.KEY_CHUNK)
        return [(i * n // m, (i + 1) * n // m) for i in range(m)]

    def draw(self, lo: int, hi: int) -> np.ndarray:
        """Rows lo..hi−1, (hi − lo) × d_in."""
        return _noisy_rows(self.universe, self.owner[lo:hi], self.keys[lo:hi], self.rekeyer)


# Steps whose draws make_pair_batch plans at once: enough to spread each
# block's fixed cost (key derivation, about 20 numpy calls) thin, while a
# block's arrays stay near 32 kB each at B=32.
PLAN_BLOCK_STEPS = 64


class PairPlan:
    """One run's training rows and batch draws, planned ``PLAN_BLOCK_STEPS`` steps at a time.

    ``data`` holds every training instance, drawn once through
    ``InstanceRows``: row ``starts[i] + k``, whose ``owner`` is i, equals
    ``draw_instance(universe, i, k)`` for ``k < counts[i]``. Row i of the
    block arrays belongs to step ``first + i``: its labels, its query then
    reference rows of ``data``, and whether it holds a single-instance
    identity, whose reference is fresh noise.
    """

    def __init__(self, universe: IdentityUniverse, counts: np.ndarray, batch_size: int, mode: str):
        if mode not in ("instance", "class"):
            raise ConfigError(f"sampling mode must be 'instance' or 'class', got {mode!r}")
        rows = InstanceRows(universe, counts)
        if not rows.counts.any():
            raise ConfigError("no identity has a positive instance count")
        self.universe, self.counts = universe, rows.counts
        self.starts, self.owner = rows.starts, rows.owner
        self.data = rows.draw(0, rows.owner.size)
        self.batch_size, self.mode = batch_size, mode
        # the identities with a row, which class mode picks among
        self.eligible = np.flatnonzero(rows.counts)
        self.rekeyer = rows.rekeyer
        self.first = 0
        self.labels = np.empty((0, batch_size), dtype=np.int64)
        self.rows = np.empty((0, 2 * batch_size), dtype=np.int64)
        self.single = np.empty(0, dtype=bool)


def make_pair_batch(plan: PairPlan, step: int) -> PairBatch:
    """Step ``step``'s B (query, reference, label) triples.

    The batch is a pure function of the first raw words of
    ``rng.stream(plan.universe.seed, rng.BATCH, step)``. Instance mode picks
    the owner of a uniformly drawn training row, so identities in proportion
    to their instance counts, class mode uniformly over identities with at
    least one instance; each row then draws a query index and a distinct
    reference index of its identity.
    Every bounded draw is a multiply-shift of a 32-bit half-word, biased by
    less than bound / 2**32 (``_lemire``). A single-instance identity's reference is its center plus
    ``sigma * rng.stream(universe.seed, rng.BATCH_REFERENCE, step, row).standard_normal(d_in)``.
    A step outside the planned block plans the ``PLAN_BLOCK_STEPS`` steps
    from it on; rows are gathered from ``plan.data`` when a step is served.
    """
    u, i = plan.universe, step - plan.first
    if not 0 <= i < plan.single.size:
        keys = rng.philox_keys(u.seed, rng.BATCH, np.arange(step, step + PLAN_BLOCK_STEPS))
        words = plan.rekeyer.raw_words(keys, _words_per_step(plan.batch_size, plan.mode))
        plan.labels, plan.rows, plan.single = _plan_words(plan, words)
        plan.first, i = step, 0
    B = plan.batch_size
    x = plan.data.take(plan.rows[i], axis=0)
    y = plan.labels[i].copy()
    if plan.single[i]:
        single = np.flatnonzero(plan.counts[y] == 1)
        keys = rng.philox_keys(u.seed, rng.BATCH_REFERENCE, step, single)
        x[B + single] = _noisy_rows(u, y[single], keys, plan.rekeyer)
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
    picks the owner of row ``floor(u * N)`` of the N training rows, which
    is below N because ``u <= 1 - 2**-53`` and the float64 product rounds
    below N; class mode draws B identities from the half-words. The index
    draws then take the next half-words, query then reference per row.
    """
    B, eligible = plan.batch_size, plan.eligible
    if plan.mode == "instance":
        u = (words[:, :B] >> np.uint64(11)) * 2.0**-53
        labels = plan.owner[(u * plan.owner.size).astype(np.intp)]
        halves = _halves(words[:, B:])
    else:
        halves = _halves(words)
        labels = eligible[_lemire(halves, np.full((words.shape[0], B), eligible.size))]
        # the index draws go on from the next 32-bit value, which may be the
        # high half of the identity draws' last word
        halves = halves[:, B if eligible.size > 1 else 0 :]
    n = plan.counts[labels]
    # a query index in [0, n), then a reference index in [0, n - 1) per row
    bounds = np.repeat(n, 2, axis=1)
    bounds[:, 1::2] -= 1
    np.maximum(bounds, 1, out=bounds)
    draws = _lemire(halves, bounds)
    q, r = draws[:, 0::2], draws[:, 1::2]
    starts = plan.starts[labels]
    # a distinct reference index; a single-instance row reads its own row,
    # which make_pair_batch replaces with noise
    multi = n > 1
    rows = np.concatenate([starts + q, starts + r + ((r >= q) & multi)], axis=1)
    return labels, rows, ~multi.all(axis=1)


def check_protocol_sizes(n_train: int, n_pairs: int, n_probe: int) -> None:
    """Raise ConfigError unless ``evaluate_protocol`` can score a protocol of these sizes.

    ``n_pairs`` (a config's ``eval_pairs``) is even and at least 2, and
    ``1 <= n_probe <= n_train`` (``eval_probes``, ``n_classes``) with ``n_train >= 2``.
    """
    if n_pairs < 2 or n_pairs % 2 != 0:
        raise ConfigError(f"n_pairs must be even and >= 2 (eval_pairs), got {n_pairs}")
    if not 1 <= n_probe <= n_train:
        raise ConfigError(
            f"{n_probe} probes requested from {n_train} training identities "
            f"(eval_probes must lie in [1, n_classes])"
        )
    if n_train < 2:
        raise ConfigError(f"impostor pairs need 2 or more training identities, got {n_train}")


def build_eval_protocol(
    universe: IdentityUniverse, counts: np.ndarray, n_pairs: int, n_probe: int
) -> EvalProtocol:
    """Balanced verification pairs plus probe/gallery sets with distractors.

    Training identities are 0..len(counts)−1; the distractors are every
    identity of the universe after them, which training never touches.
    Labels and probes are drawn from ``rng.stream(universe.seed, rng.PROTOCOL)``,
    and all evaluation inputs from the held-out instance stream.
    """
    counts = np.asarray(counts, dtype=np.int64)
    n_train = int(counts.size)
    if n_train > universe.C:
        raise ConfigError(f"{n_train} training identities do not fit a universe of {universe.C}")
    check_protocol_sizes(n_train, n_pairs, n_probe)

    gen = rng.stream(universe.seed, rng.PROTOCOL)
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
    probe_ids = gen.choice(n_train, size=n_probe, replace=False).astype(np.int64)
    distractor_ids = np.arange(n_train, universe.C, dtype=np.int64)

    # held-out rows, equal to heldout_instance per row:
    # pair_a | pair_b | probes (index 0) | mates (index 1) | distractors (index 0)
    idents = np.concatenate([label_a, label_b, probe_ids, probe_ids, distractor_ids])
    index = np.concatenate([
        index_a, index_b,
        np.zeros(n_probe, dtype=np.int64), np.ones(n_probe, dtype=np.int64),
        np.zeros(distractor_ids.size, dtype=np.int64),
    ])
    keys = rng.philox_keys(universe.seed, rng.INSTANCE_NOISE, INSTANCE_HELDOUT, idents, index)
    rows = _noisy_rows(universe, idents, keys, rng.Rekeyer())
    cuts = [n_pairs, 2 * n_pairs, 2 * n_pairs + n_probe]
    pair_a, pair_b, probe_x, gallery_x = np.split(rows, cuts)

    return EvalProtocol(
        pair_a=pair_a,
        pair_b=pair_b,
        pair_label_a=label_a,
        pair_label_b=label_b,
        probe_x=probe_x,
        probe_labels=probe_ids,
        gallery_x=gallery_x,
        gallery_labels=np.concatenate([probe_ids, distractor_ids]),
        probe_tail=counts[probe_ids] < TAIL_THRESHOLD,
    )


def _record_dtype(d_in: int) -> np.dtype:
    return np.dtype([("ident", "<u4"), ("index", "<u4"), ("x", "<f8", (d_in,))])


def write_dataset(path, universe: IdentityUniverse, counts: np.ndarray) -> dict:
    """Materialize every instance to a flat binary file; returns the summary.

    Layout: little-endian header (magic, version u32, C u32, d_in u32,
    total u32) followed by one record per instance: identity u32,
    instance u32, d_in float64 values. Records are drawn and written one
    of ``InstanceRows.blocks`` at a time through ``replace_on_success``, so
    on failure ``path`` is untouched. A JSON summary with the counts histogram
    and tail fraction goes to ``<path>.json`` through the same writer, put
    in place just after the dataset file, so a failed dataset write leaves
    no new summary. Before anything is drawn, an ``IsADirectoryError`` names
    ``path`` or ``<path>.json`` if either is a directory, so neither rename
    meets one.
    """
    for target in (str(path), f"{path}.json"):
        if os.path.isdir(target):
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), target)
    rows = InstanceRows(universe, counts)
    total = rows.owner.size
    block = np.empty(min(total, rng.KEY_CHUNK), dtype=_record_dtype(universe.d_in))
    with replace_on_success(path) as fh:
        fh.write(DATASET_MAGIC)
        fh.write(struct.pack("<IIII", DATASET_VERSION, rows.counts.size, universe.d_in, total))
        for lo, hi in rows.blocks():
            records = block[: hi - lo]
            records["ident"] = rows.owner[lo:hi]
            records["index"] = rows.index[lo:hi]
            records["x"] = rows.draw(lo, hi)
            fh.write(records)
    summary = tail_summary(rows.counts)
    with replace_on_success(f"{path}.json") as fh:
        fh.write(json.dumps(summary, indent=2, sort_keys=True).encode())
    return summary
