"""Verification/identification metrics, head-cost accounting and sweeps.

Wall-clock numbers are reported where available but never asserted;
only analytic byte and multiply-accumulate counts are contract-bearing.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, ShapeError
from .model import MlpParams, extract_features
from .numerics import NORM_EPS, Tensor
from .synthdata import TAIL_THRESHOLD, EvalProtocol, IdentityUniverse, build_instance_table

# Bucket edges straddle the <10-instances tail definition.
BUCKET_EDGES = (5, 10, 50)

# Rows per embed call in the alignment diagnostic: enough to amortise the
# per-op overhead. One call over a whole desk table (4393 rows) takes 11-12 ms
# against 5 ms in 256-row blocks (one thread): at that size every temporary
# is a fresh multi-megabyte array, and the PReLU factor lookup alone runs
# about 5x slower per row than on a block.
EMBED_BLOCK_ROWS = 256


def _normalize(rows: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(rows, axis=1, keepdims=True)
    return rows / np.maximum(norms, NORM_EPS)


def embed(extractor: MlpParams, x: np.ndarray) -> np.ndarray:
    """Raw embeddings for a matrix of inputs (inference mode)."""
    return extract_features(extractor, Tensor(x), tape=None).data


def cosine_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per-row cosine distance 1 − cos between two embedding matrices."""
    return 1.0 - (_normalize(a) * _normalize(b)).sum(axis=1)


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
    sims = _normalize(probe_emb) @ _normalize(gallery_emb).T
    nearest = sims.argmax(axis=1)  # argmax returns the first (lowest) index on ties
    return np.asarray(gallery_labels)[nearest] == np.asarray(probe_labels)


def evaluate_protocol(extractor: MlpParams, protocol: EvalProtocol, counts: np.ndarray) -> dict:
    """Verification accuracy and rank-1 rate, overall and split by head/tail.

    Tail probes are identities with fewer than ``TAIL_THRESHOLD`` instances.
    """
    ver_acc, threshold = verification_accuracy(
        embed(extractor, protocol.pair_a),
        embed(extractor, protocol.pair_b),
        protocol.pair_genuine,
    )
    hits = identification_hits(
        embed(extractor, protocol.probe_x),
        embed(extractor, protocol.gallery_x),
        protocol.probe_labels,
        protocol.gallery_labels,
    )
    tail = np.asarray(counts)[protocol.probe_labels] < TAIL_THRESHOLD
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
    full_bytes = C * D * bytes_per_float
    if method == "full":
        return CostReport(
            method=method, class_count=C, queue_size=K, embed_dim=D, batch_size=B,
            bytes_per_float=bytes_per_float,
            head_param_bytes=full_bytes,
            head_macs_per_batch=B * D * C,
            optimizer_state_bytes=full_bytes,
            param_bytes_ratio=1.0,
        )
    if method == "dcq":
        return CostReport(
            method=method, class_count=C, queue_size=K, embed_dim=D, batch_size=B,
            bytes_per_float=bytes_per_float,
            head_param_bytes=K * D * bytes_per_float,
            head_macs_per_batch=B * D * (K + 1),
            optimizer_state_bytes=0,
            param_bytes_ratio=K / C,
        )
    raise ConfigError(f"unknown method {method!r} for cost report")


@dataclass
class AlignmentReport:
    """Mean cosine between learned class weights and class mean embeddings,
    bucketed by instance count. Buckets with no classes are reported absent."""

    bucket_edges: tuple
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
    class_ids: np.ndarray | None = None,
) -> AlignmentReport:
    """Per-bucket cosine between FC columns and their class's mean embedding.

    ``head_w`` is the D×n matrix of learned columns; ``class_ids`` maps its
    columns to original identities (defaults to 0..n−1).

    The instance table is embedded in blocks of about ``EMBED_BLOCK_ROWS``
    rows and single-instance classes on their own 1-row input, since numpy
    sends a 1-row matmul down the BLAS vector path. A row's embedding is
    then the one a per-class call gives whenever every layer width is a
    multiple of 8; at other widths OpenBLAS may round a row differently at
    another row count, and the batched computation is the definition.
    """
    counts = np.asarray(counts, dtype=np.int64)
    if class_ids is None:
        class_ids = np.arange(head_w.shape[-1])
    class_ids = np.asarray(class_ids, dtype=np.int64)
    if class_ids.ndim != 1 or head_w.shape != (extractor.d_out, class_ids.size):
        raise ShapeError(
            f"head_w shape {head_w.shape} != (embed dim {extractor.d_out}, "
            f"{class_ids.size} class ids)"
        )
    if ((class_ids < 0) | (class_ids >= counts.size)).any() or (
        np.unique(class_ids).size != class_ids.size
    ):
        raise ConfigError(f"class_ids must be unique and in [0, {counts.size})")
    # only the head's classes need instances
    head_counts = np.zeros_like(counts)
    head_counts[class_ids] = counts[class_ids]
    table = build_instance_table(universe, head_counts)
    n_rows = table.data.shape[0]
    # near-equal blocks, so none holds a single row unless the table does
    bounds = np.linspace(0, n_rows, -(-n_rows // EMBED_BLOCK_ROWS) + 1).astype(np.int64)
    emb = np.empty((n_rows, extractor.d_out))
    for lo, hi in zip(bounds[:-1].tolist(), bounds[1:].tolist()):
        emb[lo:hi] = _normalize(embed(extractor, table.data[lo:hi]))
    n = counts[class_ids]
    starts = table.starts[class_ids]
    for row in starts[n == 1].tolist():
        emb[row] = _normalize(embed(extractor, table.data[row : row + 1]))
    del table  # free the inputs before the gathers below

    means = np.zeros((n.size, extractor.d_out))
    names = np.empty(n.size, dtype=object)
    for k in np.unique(n[n > 0]).tolist():
        group = np.flatnonzero(n == k)
        names[group] = _bucket_name(k)
        step = max(1, EMBED_BLOCK_ROWS // k)  # block-sized gathers keep the peak low
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
    keep = n > 0
    cos, names = (dots / np.maximum(norms, 1e-12))[keep], names[keep]
    report = AlignmentReport(bucket_edges=BUCKET_EDGES)
    for name in dict.fromkeys(names):
        values = cos[names == name]
        report.mean_cosine[name] = float(values.mean())
        report.class_counts[name] = int(values.size)
    return report


GRID_AXES = ("K", "alpha", "sampling", "method")


def run_experiment_grid(base_config, axis: str, values) -> list[dict]:
    """Train one model per axis value with shared seed and data.

    Returns one result row per value, in the order given, with the final
    verification accuracy, rank-1 rate and the per-epoch metric curves.
    """
    from .trainer import run_training  # local import to avoid a cycle

    if axis not in GRID_AXES:
        raise ConfigError(f"grid axis must be one of {GRID_AXES}, got {axis!r}")
    # every value's config is checked before any training starts
    configs = [base_config.replace(**{axis: value}).resolve() for value in values]
    rows = []
    for value, cfg in zip(values, configs):
        result = run_training(cfg)
        rows.append(
            {
                "axis": axis,
                "value": value,
                "ver_acc": result.final_eval["ver_acc"],
                "id_rank1": result.final_eval["id_rank1"],
                "tail_rank1": result.final_eval.get("tail_rank1"),
                "epochs": [dict(r) for r in result.metrics],
            }
        )
    return rows
