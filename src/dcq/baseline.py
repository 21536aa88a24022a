"""Full-FC CosFace classifier head, the comparison baseline.

One weight column per training class, learned by SGD alongside the
extractor. Also supports the head-classes-only variant that drops every
class below an instance threshold before training.
"""

from __future__ import annotations

import numpy as np

from . import rng
from .errors import ConfigError
from .numerics import Tape, Tensor, l2_normalize, margin_softmax_ce, matmul

# CosFace defaults for the full-head baseline.
DEFAULT_SCALE = 64.0
DEFAULT_MARGIN = 0.35


class FcHead:
    """D×C class-weight matrix, randomly initialized, trained by SGD."""

    def __init__(self, embed_dim: int, n_classes: int, seed: int):
        if n_classes < 2:
            raise ConfigError(f"a classifier head needs >= 2 classes, got {n_classes}")
        gen = rng.stream(seed, rng.PARAM_INIT, 1 << 20)
        w = gen.standard_normal((embed_dim, n_classes)) / np.sqrt(embed_dim)
        self.W = Tensor(w, requires_grad=True)


def fc_cosface_loss(
    f: Tensor,
    head: FcHead,
    y: np.ndarray,
    s: float,
    m: float,
    tape: Tape | None = None,
) -> tuple[Tensor, np.ndarray]:
    """Cosine logits against every head column, margin at the true class.

    Gradients flow to both the features and the head weights.
    """
    f_hat = l2_normalize(f, axis=1, tape=tape)
    w_hat = l2_normalize(head.W, axis=0, tape=tape)
    return margin_softmax_ce([matmul(f_hat, w_hat, tape)], y, s, m, tape)


def head_class_count(counts: np.ndarray, min_instances: int) -> int:
    """The number n of classes with at least ``min_instances``; a head keeps classes 0..n−1.

    ``counts`` are non-increasing in class id, as ``assign_longtail_counts``
    makes them, so the kept classes are the first n. Fewer than two raise
    ConfigError, since a head needs two.
    """
    if min_instances < 1:
        raise ConfigError(f"min_instances must be >= 1, got {min_instances}")
    n = int((np.asarray(counts) >= min_instances).sum())
    if n < 2:
        raise ConfigError(f"{n} classes have {min_instances} or more instances; a head needs 2")
    return n
