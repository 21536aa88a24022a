"""Verification/identification metrics, head-cost accounting and the alignment diagnostic.

Wall-clock numbers are reported where available but never asserted;
only analytic byte and multiply-accumulate counts are contract-bearing.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import rng
from .errors import ConfigError, ShapeError
from .model import MlpParams, extract_features
from .numerics import Tensor, l2_normalize
from .synthdata import EvalProtocol, IdentityUniverse, InstanceRows

# Bucket edges straddle the <10-instances tail definition.
BUCKET_EDGES = (5, 10, 50)


def embed(extractor: MlpParams, x: np.ndarray) -> np.ndarray:
    """Raw embeddings for a matrix of inputs (inference mode)."""
    return extract_features(extractor, Tensor(x), tape=None).data


def cosine_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per-row cosine distance 1 − cos between two embedding matrices."""
    a_hat, b_hat = l2_normalize(Tensor(a)).data, l2_normalize(Tensor(b)).data
    return 1.0 - (a_hat * b_hat).sum(axis=1)


def verification_accuracy(
    emb_a: np.ndarray,
    emb_b: np.ndarray,
    genuine: np.ndarray,
) -> tuple[float, float]:
    """Best accuracy over thresholds at midpoints of sorted pair distances.

    A pair is called genuine when its cosine distance falls below the
    threshold. Ties in accuracy go to the smaller threshold.
    """
    if emb_a.shape[0] == 0:
        raise ConfigError("empty verification protocol")
    dists = cosine_distances(emb_a, emb_b)
    by_dist = np.argsort(dists)
    order = dists[by_dist]
    thresholds = (order[:-1] + order[1:]) / 2.0 if order.size > 1 else order
    genuine = np.asarray(genuine, dtype=bool)
    # per threshold: pairs called genuine, and how many of them are genuine
    below = np.searchsorted(order, thresholds, side="left")
    genuine_below = np.concatenate([[0], np.cumsum(genuine[by_dist])])[below]
    n_impostor = genuine.size - int(genuine.sum())
    correct = genuine_below + n_impostor - (below - genuine_below)
    best = int(np.argmax(correct))  # the first, so the smallest threshold
    return float(correct[best] / genuine.size), float(thresholds[best])


def identification_hits(
    probe_emb: np.ndarray,
    gallery_emb: np.ndarray,
    probe_labels: np.ndarray,
    gallery_labels: np.ndarray,
) -> np.ndarray:
    """Per-probe rank-1 hit flags; nearest gallery row by cosine similarity.

    Ties resolve to the lowest gallery index.
    """
    if gallery_emb.shape[0] == 0:
        raise ConfigError("empty gallery")
    sims = l2_normalize(Tensor(probe_emb)).data @ l2_normalize(Tensor(gallery_emb)).data.T
    nearest = sims.argmax(axis=1)  # argmax returns the first (lowest) index on ties
    return np.asarray(gallery_labels)[nearest] == np.asarray(probe_labels)


def evaluate_protocol(extractor: MlpParams, protocol: EvalProtocol) -> dict:
    """Verification accuracy and rank-1 rate, overall and split by ``protocol.probe_tail``."""
    ver_acc, threshold = verification_accuracy(
        embed(extractor, protocol.pair_a),
        embed(extractor, protocol.pair_b),
        protocol.pair_label_a == protocol.pair_label_b,
    )
    hits = identification_hits(
        embed(extractor, protocol.probe_x),
        embed(extractor, protocol.gallery_x),
        protocol.probe_labels,
        protocol.gallery_labels,
    )
    tail = protocol.probe_tail
    return {
        "ver_acc": ver_acc,
        "ver_threshold": threshold,
        "id_rank1": float(hits.mean()),
        "tail_rank1": float(hits[tail].mean()) if tail.any() else None,
        "head_rank1": float(hits[~tail].mean()) if (~tail).any() else None,
        "tail_probes": int(tail.sum()),
    }


@dataclass
class CostReport:
    """Closed-form parameter bytes and per-batch MACs for the classifier head."""

    method: str
    class_count: int
    queue_size: int
    embed_dim: int
    batch_size: int
    bytes_per_float: int
    head_param_bytes: int
    head_macs_per_batch: int
    optimizer_state_bytes: int
    param_bytes_ratio: float  # this method's head bytes over the full-FC head's


def head_cost_report(
    method: str,
    C: int,
    K: int,
    D: int,
    B: int,
    bytes_per_float: int = 4,
) -> CostReport:
    """Memory and MAC accounting for a full-FC head versus the queue.

    The full head stores C·D floats plus the same again in optimizer
    momentum; the queue stores K·D floats and carries no optimizer state.
    MACs per batch are the head's cosine matmul: B·D·C, or B·D·(K+1).
    """
    sizes = {"C": C, "K": K, "D": D, "B": B, "bytes_per_float": bytes_per_float}
    for name, value in sizes.items():
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value <= 0:
            raise ConfigError(f"{name} must be a positive int, got {value!r}")
    columns = {"full": (C, C), "dcq": (K, K + 1)}  # (stored, scored) head columns
    if method not in columns:
        raise ConfigError(f"unknown method {method!r} for cost report")
    stored, scored = columns[method]
    head_bytes = stored * D * bytes_per_float
    return CostReport(
        method=method, class_count=C, queue_size=K, embed_dim=D, batch_size=B,
        bytes_per_float=bytes_per_float,
        head_param_bytes=head_bytes,
        head_macs_per_batch=B * D * scored,
        optimizer_state_bytes=head_bytes if method == "full" else 0,
        param_bytes_ratio=stored / C,
    )


@dataclass
class AlignmentReport:
    """Mean cosine between learned class weights and class mean embeddings,
    bucketed by instance count. Buckets with no classes are reported absent."""

    mean_cosine: dict = field(default_factory=dict)
    class_counts: dict = field(default_factory=dict)


def _bucket_name(count: int) -> str:
    lo = 0
    for edge in BUCKET_EDGES:
        if count < edge:
            return f"<{edge}" if lo == 0 else f"{lo}-{edge - 1}"
        lo = edge
    return f">={BUCKET_EDGES[-1]}"


def tail_alignment_diagnostic(
    head_w: np.ndarray,
    universe: IdentityUniverse,
    counts: np.ndarray,
    extractor: MlpParams,
) -> AlignmentReport:
    """Per-bucket cosine between FC columns and their class's mean embedding.

    ``head_w`` is the D×n matrix of learned columns, column j being class j
    of the first n of ``counts``.

    The head classes' training instances are drawn and embedded in the
    blocks of ``InstanceRows.blocks``, and single-instance classes drawn
    again on their own 1-row input, since numpy
    sends a 1-row matmul down the BLAS vector path. A row's embedding is
    then the one a per-class call gives whenever every layer width is a
    multiple of 8; at other widths OpenBLAS may round a row differently at
    another row count, and the batched computation is the definition.
    """
    if head_w.ndim != 2 or head_w.shape[0] != extractor.d_out or head_w.shape[1] > len(counts):
        raise ShapeError(
            f"head_w shape {head_w.shape} != (embed dim {extractor.d_out}, "
            f"at most {len(counts)} classes)"
        )
    # only the head's classes need instances
    rows = InstanceRows(universe, counts[: head_w.shape[1]])
    emb = np.empty((rows.owner.size, extractor.d_out))
    for lo, hi in rows.blocks():
        emb[lo:hi] = l2_normalize(Tensor(embed(extractor, rows.draw(lo, hi)))).data
    n, starts = rows.counts, rows.starts
    for row in starts[n == 1].tolist():
        emb[row] = l2_normalize(Tensor(embed(extractor, rows.draw(row, row + 1)))).data
    del rows  # free the row keys and layout before the gathers below

    means = np.zeros((n.size, extractor.d_out))
    names = np.empty(n.size, dtype=object)
    for k in np.unique(n).tolist():
        group = np.flatnonzero(n == k)
        names[group] = _bucket_name(k)
        step = max(1, rng.KEY_CHUNK // k)  # block-sized gathers keep the peak low
        for lo in range(0, group.size, step):
            sel = group[lo : lo + step]
            means[sel] = emb[starts[sel, None] + np.arange(k)].mean(axis=1)
    del emb
    # stacked vector·vector products run the ddot of the per-class
    # w @ mean_emb (strided w, as head_w.T keeps) and of np.linalg.norm,
    # which copies a strided w to contiguous first
    w = np.ascontiguousarray(head_w.T)
    dots = (head_w.T[:, None, :] @ means[:, :, None])[:, 0, 0]
    norms = np.sqrt((w[:, None, :] @ w[:, :, None])[:, 0, 0])
    norms *= np.sqrt((means[:, None, :] @ means[:, :, None])[:, 0, 0])
    cos = dots / np.maximum(norms, 1e-12)
    report = AlignmentReport()
    for name in dict.fromkeys(names):
        values = cos[names == name]
        report.mean_cosine[name] = float(values.mean())
        report.class_counts[name] = int(values.size)
    return report

