"""Dynamic class queue: EMA-shadowed weight generation and the subset loss.

The negative class weights for each batch do not live in a learned FC
layer. Instead a shadow copy of the extractor (updated as an exponential
moving average after every optimizer step) maps each reference sample to a
unit-norm class weight in a single forward pass. Those weights are pushed
into a FIFO ring of capacity K together with their labels, and the queue
contents serve as the negatives of a CosFace-style softmax restricted to
K+1 classes. Queue entries whose label matches a row's own label, and
slots that were never filled, are muted by setting their logits to a large
negative constant before scaling, so they vanish from the softmax
denominator entirely.

Gradients flow only into the features: the generator runs without a tape
and the queue stores raw arrays, so class weights are detached by
construction.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, ContractError, ShapeError
from .model import MlpParams, extract_features
from .numerics import (
    Tape,
    Tensor,
    l2_normalize,
    margin_softmax_ce,
    matmul,
    rowwise_dot,
)

MASK_VALUE = -1e9
SENTINEL_LABEL = -1

# §4.1-style defaults for the queue method; the full-FC baseline uses its own.
DEFAULT_SCALE = 50.0
DEFAULT_MARGIN = 0.3
DEFAULT_ALPHA = 0.999


class EmaGenerator:
    """Shadow copy of the extractor, blended toward it after each step.

    The shadow starts as an exact copy and is updated elementwise as
    shadow ← alpha·shadow + (1−alpha)·extractor. alpha=1 freezes the shadow;
    alpha=0 makes it track the extractor exactly.
    """

    def __init__(self, extractor: MlpParams, alpha: float):
        if not 0.0 <= alpha <= 1.0:
            raise ConfigError(f"alpha must lie in [0, 1], got {alpha}")
        self.alpha = float(alpha)
        self.shadow = extractor.copy()

    def update(self, extractor: MlpParams) -> None:
        """Blend the shadow toward the extractor's current parameters."""
        if self.shadow.layer_dims != extractor.layer_dims:
            raise ContractError(
                f"shadow dims {self.shadow.layer_dims} vs extractor dims {extractor.layer_dims}"
            )
        # both buffers share one layout, so the blend is two whole-buffer calls
        s = self.shadow.flat
        s *= self.alpha
        s += (1.0 - self.alpha) * extractor.flat

    def generate(self, x_w: Tensor) -> Tensor:
        """Unit-norm class weights for a batch of reference samples.

        Runs the shadow network in pure inference mode, so the result
        carries no gradient.
        """
        feats = extract_features(self.shadow, x_w, tape=None)
        return l2_normalize(feats, axis=1, tape=None)


class ClassQueue:
    """FIFO ring of K unit-norm class-weight columns with a parallel label ring.

    Slots never written hold the sentinel label and are muted from every
    loss until they fill; the cursor always points at the oldest slot,
    which is the next to be overwritten. Slots fill in order from slot 0,
    so until slot K−1 is written the unfilled slots are exactly cursor..K−1;
    code that writes ``labels`` directly must keep that.
    """

    def __init__(self, embed_dim: int, capacity: int):
        if capacity < 1:
            raise ConfigError(f"queue capacity must be positive, got {capacity}")
        self.weights = np.zeros((embed_dim, capacity))
        self.labels = np.full(capacity, SENTINEL_LABEL, dtype=np.int64)
        self.cursor = 0

    @property
    def capacity(self) -> int:
        return self.labels.size

    @property
    def embed_dim(self) -> int:
        return self.weights.shape[0]

    def update(self, w: Tensor, y: np.ndarray) -> None:
        """Overwrite the B oldest slots with the batch's (weight, label) pairs."""
        n_new = w.shape[0]
        if n_new > self.capacity:
            raise ConfigError(f"batch of {n_new} exceeds queue capacity {self.capacity}")
        if w.data.ndim != 2 or w.shape[1] != self.embed_dim:
            raise ShapeError(f"weights {w.shape} do not match embed dim {self.embed_dim}")
        y = np.asarray(y, dtype=np.int64)
        if y.shape != (n_new,):
            raise ShapeError(f"labels {y.shape} for {n_new} weights")
        start = self.cursor
        head = min(n_new, self.capacity - start)
        self.weights[:, start : start + head] = w.data[:head].T
        self.labels[start : start + head] = y[:head]
        if head < n_new:  # the rest wraps round to slot 0
            self.weights[:, : n_new - head] = w.data[head:].T
            self.labels[: n_new - head] = y[head:]
        self.cursor = (start + n_new) % self.capacity


def dcq_logits_with_mask(
    f: Tensor,
    w_pos: Tensor,
    queue: ClassQueue,
    y: np.ndarray,
    tape: Tape | None = None,
) -> tuple[Tensor, Tensor]:
    """Positive and queue-negative cosine logits with duplicates muted.

    ``f`` is the raw (unnormalized) feature batch; ``w_pos`` and the queue
    columns must already be unit norm. Entries where the queue label equals
    the row's own label, or is the unfilled sentinel, are set to MASK_VALUE.

    The negative logits multiply against ``queue.weights`` itself, not a
    copy, and the tape's backward reads it again. So run ``tape.backward``
    before the next ``queue.update``, as ``run_training`` does every step.
    """
    if f.shape != w_pos.shape:
        raise ShapeError(f"features {f.shape} vs positive weights {w_pos.shape}")
    y = np.asarray(y, dtype=np.int64)
    f_hat = l2_normalize(f, axis=1, tape=tape)
    l_pos = rowwise_dot(f_hat, w_pos, tape)
    l_neg = matmul(f_hat, Tensor(queue.weights), tape)
    # in place: matmul's backward reads its inputs only; a muted logit's
    # softmax probability underflows to 0, so its gradient is exactly 0
    labels = queue.labels
    l_neg.data[labels[None, :] == y[:, None]] = MASK_VALUE
    # slots fill from 0: while the last is unfilled, the unfilled ones are cursor..K-1
    if labels[-1] == SENTINEL_LABEL:
        l_neg.data[:, queue.cursor :] = MASK_VALUE
    return l_pos, l_neg


def dcq_cosface_loss(
    l_pos: Tensor,
    l_neg: Tensor,
    s: float,
    m: float,
    tape: Tape | None = None,
) -> tuple[Tensor, np.ndarray]:
    """Margin softmax over [positive, queue] logits with the target at index 0.

    logits = s · ([l_pos, l_neg] − m at column 0), the two blocks scored as
    one B×(K+1) matrix; mean cross entropy over the batch. Muted queue
    entries underflow to an exact zero in the softmax denominator.
    """
    targets = np.zeros(l_pos.shape[0], dtype=np.int64)
    return margin_softmax_ce([l_pos, l_neg], targets, s, m, tape)
