"""Dense float64 tensors with tape-based reverse-mode differentiation.

Deliberately small: two-dimensional matrices, the handful of operations an
MLP plus margin-softmax pipeline needs, and a central finite-difference
checker that serves as the gradient oracle everywhere.

Ops take an optional ``tape``. With ``tape=None`` they run in pure
inference mode and the result is a constant: nothing is recorded, so no
gradient can ever reach it. That is how "detached" values (generated class
weights, queue contents) are realized structurally rather than by flags.
"""

from __future__ import annotations

import itertools
import math
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigError, ContractError, NumericError, ShapeError

_uid_counter = itertools.count()

NORM_EPS = 1e-12  # the floor on a norm when normalizing, so zero vectors stay finite


class Tensor:
    """A dense, row-major float64 array with an identity for gradient bookkeeping.

    ``requires_grad=True`` marks a leaf parameter. Everything else only
    receives gradients if it was produced by an op recorded on a tape.
    """

    __slots__ = ("data", "requires_grad", "uid")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float64)
        if arr.ndim and not arr.flags["C_CONTIGUOUS"]:
            arr = np.ascontiguousarray(arr)  # keep 0-d scalars 0-d
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.uid = next(_uid_counter)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def __repr__(self) -> str:
        grad = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={list(self.shape)}{grad})"


class Tape:
    """Ordered record of differentiable ops, replayed backward in reverse.

    A single tape records one forward pass; ``backward`` seeds the scalar
    loss with gradient 1 and accumulates vector-Jacobian products into a
    per-tensor gradient table. Tensors never recorded on the tape (constants,
    detached values) report an exactly-zero gradient.

    A node keeps its output's uid and, per parent, the parent's uid and VJP
    closure, never a Tensor: the tape holds only the arrays those closures
    read, so an op output nothing captures (the full-FC cosine matrix, say)
    dies as soon as its consumer returns. ``backward`` drops each op output's
    gradient as soon as that output's node has run, so only the gradients of
    leaves survive it, and ``grad`` serves leaves only. A warmed-up full-FC
    training step at C=20000, B=D=32 so holds 4.13 D×C-sized temporaries at
    its peak, fewer than when the tape kept every output and gradient.
    """

    def __init__(self):
        self._nodes: list[tuple[int, Callable | None, list[tuple[int, Callable]]]] = []
        self._on_tape: set[int] = set()
        self._grads: dict[int, np.ndarray] | None = None

    def tracks(self, t: Tensor) -> bool:
        return t.requires_grad or t.uid in self._on_tape

    def _record(self, out: Tensor, parents: list[tuple[Tensor, Callable]], prelude=None) -> None:
        if not parents:
            return
        self._nodes.append((out.uid, prelude, [(t.uid, vjp) for t, vjp in parents]))
        self._on_tape.add(out.uid)

    def backward(self, loss: Tensor) -> None:
        """Populate gradients of ``loss`` w.r.t. every tracked leaf.

        A node's optional prelude maps its output gradient once to the
        value every one of its parent VJPs receives. Nodes run in reverse
        order of recording, so every consumer of an op output has added its
        contribution before the output's own node takes (and drops) it.
        """
        if loss.data.ndim != 0:
            raise ContractError(f"backward needs a scalar loss, got shape {loss.shape}")
        grads: dict[int, np.ndarray] = {loss.uid: np.ones((), dtype=np.float64)}
        for out_uid, prelude, parents in reversed(self._nodes):
            g_out = grads.pop(out_uid, None)
            if g_out is None:
                continue  # branch not on the path to the loss
            if prelude is not None:
                g_out = prelude(g_out)
            for uid, vjp in parents:
                contrib = vjp(g_out)
                acc = grads.get(uid)
                grads[uid] = contrib if acc is None else acc + contrib
        self._grads = grads

    def grad(self, t: Tensor) -> np.ndarray:
        """Gradient of the last backward pass; exact zeros for untracked tensors.

        Raises ContractError for an op output of this tape: its gradient
        was dropped once its node had run.
        """
        if self._grads is None:
            raise ContractError("grad() before backward()")
        if t.uid in self._on_tape:
            raise ContractError("grad() of an op output: the tape keeps leaf gradients only")
        g = self._grads.get(t.uid)
        return np.zeros_like(t.data) if g is None else g


def _register(tape: Tape | None, out: Tensor, candidates, prelude=None) -> None:
    if tape is None:
        return
    parents = [(t, fn) for t, fn in candidates if tape.tracks(t)]
    tape._record(out, parents, prelude)


def matmul(a: Tensor, b: Tensor, tape: Tape | None = None) -> Tensor:
    """Matrix product (m×k)·(k×n). Backward: dA = dC·Bᵀ, dB = Aᵀ·dC."""
    if a.data.ndim != 2 or b.data.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: incompatible shapes {a.shape} x {b.shape}")
    out = Tensor(a.data @ b.data)
    _register(tape, out, [
        (a, lambda g, bd=b.data: g @ bd.T),
        (b, lambda g, ad=a.data: ad.T @ g),
    ])
    return out


def dense(
    x: Tensor, W: Tensor, b: Tensor, slope: Tensor | None = None, tape: Tape | None = None
) -> Tensor:
    """x·W + b, then PReLU with a learnable scalar slope if one is given; one tape node.

    The arithmetic is that of three separate ops: h = x@W, then h + b (in
    place), then where(h < 0, slope·h, h). Backward maps the output gradient
    g once to g_h = where(h < 0, slope·g, g) (g itself without a slope) and
    takes dx = g_h·Wᵀ, dW = xᵀ·g_h, db = Σ_rows g_h and dslope = Σ h·g over
    the negative entries of h. Both PReLU maps multiply by one factor array,
    slope where h < 0 and 1.0 elsewhere; a product with 1.0 is exact, so
    the bits are those of the where() forms. The factor is a lookup in the
    table (1.0, slope) by the mask h < 0, not a where(): numpy's where
    branches on every entry, and a random sign pattern mispredicts.
    """
    if x.data.ndim != 2 or W.data.ndim != 2 or x.shape[1] != W.shape[0]:
        raise ShapeError(f"dense: incompatible shapes {x.shape} x {W.shape}")
    if b.data.shape != (W.shape[1],):
        raise ShapeError(f"dense: bias {b.shape} for {W.shape[1]} outputs")
    if slope is not None and slope.data.ndim != 0:
        raise ShapeError(f"dense slope must be a scalar, got shape {slope.shape}")
    h = x.data @ W.data
    h += b.data
    if slope is None:
        out = Tensor(h)
    else:
        neg = h < 0
        factor = np.array([1.0, float(slope.data)]).take(neg.view(np.uint8))
        out = Tensor(h * factor)
    if tape is None:
        return out

    def prelude(g):  # every VJP below receives this (g, g_h) pair
        return g, (g if slope is None else g * factor)

    candidates = [
        (x, lambda gg, wd=W.data: gg[1] @ wd.T),
        (W, lambda gg, xd=x.data: xd.T @ gg[1]),
        (b, lambda gg: gg[1].sum(axis=0)),
    ]
    if slope is not None:
        candidates.append((slope, lambda gg: np.asarray(np.sum(h * gg[0], where=neg))))
    _register(tape, out, candidates, prelude)
    return out


def l2_normalize(x: Tensor, axis: int = 1, tape: Tape | None = None) -> Tensor:
    """Divide each row (axis=1) or column (axis=0) by max(‖·‖₂, NORM_EPS)."""
    if x.data.ndim != 2 or axis not in (0, 1):
        raise ShapeError(f"l2_normalize expects a matrix and axis 0 or 1, got {x.shape}, {axis}")
    norms = np.sqrt((x.data * x.data).sum(axis=axis, keepdims=True))
    denom = np.maximum(norms, NORM_EPS)
    y = x.data / denom
    out = Tensor(y)
    if tape is None:
        return out

    def vjp(g, y=y, denom=denom, clamped=(norms <= NORM_EPS)):
        # normalization Jacobian (I − yyᵀ)/r per vector; clamped vectors have
        # a constant denominator, hence no projection term
        # in place on one scratch array: the values of (g − dot·y)/denom
        d = g * y
        dot = np.where(clamped, 0.0, d.sum(axis=axis, keepdims=True))
        np.multiply(dot, y, out=d)
        np.subtract(g, d, out=d)
        d /= denom
        return d

    _register(tape, out, [(x, vjp)])
    return out


def rowwise_dot(a: Tensor, b: Tensor, tape: Tape | None = None) -> Tensor:
    """Per-row inner product of two B×D matrices, returned as B×1."""
    if a.shape != b.shape or a.data.ndim != 2:
        raise ShapeError(f"rowwise_dot: {a.shape} vs {b.shape}")
    out = Tensor((a.data * b.data).sum(axis=1, keepdims=True))
    _register(tape, out, [
        (a, lambda g, bd=b.data: g * bd),
        (b, lambda g, ad=a.data: g * ad),
    ])
    return out


def sum_all(x: Tensor, tape: Tape | None = None) -> Tensor:
    """Sum of all entries as a scalar tensor.

    Only tests call it: test_numerics and test_model reduce graphs to a loss with it.
    """
    out = Tensor(np.asarray(x.data.sum()))
    _register(tape, out, [(x, lambda g, shape=x.data.shape: np.full(shape, float(g)))])
    return out


def margin_softmax_ce(
    blocks: Sequence[Tensor], targets: np.ndarray, s: float, m: float, tape: Tape | None = None
) -> tuple[Tensor, np.ndarray]:
    """CosFace loss: mean cross entropy of softmax(s·(cos − m·onehot(target))).

    ``cos`` is the B×C column concatenation of the B×Cᵢ ``blocks``; one tape
    node copies them into the single array where the margin, the scale and
    the max-shifted softmax run in place. Backward computes the B×C gradient
    once and gives each block a view of its columns. Entries at a large
    negative value get probability exactly 0, hence exactly zero gradient.
    Returns the scalar loss and the B×C softmax matrix ``probs``, whose row
    i sums to 1 and holds row i's target probability at ``targets[i]``.
    The tape's backward reads ``probs``, so a caller must not write to it
    before ``backward`` has run. Raises ConfigError unless s is finite and
    > 0 and m finite and >= 0, and IndexError for targets outside [0, C).
    """
    # chained comparisons reject NaN and infinities
    if not 0.0 < s < math.inf:
        raise ConfigError(f"scale must be finite and > 0, got {s}")
    if not 0.0 <= m < math.inf:
        raise ConfigError(f"margin must be finite and >= 0, got {m}")
    shapes = [b.shape for b in blocks]
    if not shapes or any(len(sh) != 2 for sh in shapes) or len({sh[0] for sh in shapes}) != 1:
        raise ShapeError(f"margin_softmax_ce expects B×Cᵢ cosine blocks, got {shapes}")
    probs = np.concatenate([b.data for b in blocks], axis=1)
    n_rows, n_cols = probs.shape
    targets = np.asarray(targets, dtype=np.int64)
    if targets.shape != (n_rows,):
        raise ShapeError(f"targets shape {targets.shape} for {n_rows} rows")
    if targets.min(initial=0) < 0 or targets.max(initial=-1) >= n_cols:
        raise IndexError(f"target out of range [0, {n_cols})")

    rows = np.arange(n_rows)
    probs[rows, targets] -= m
    probs *= s
    probs -= probs.max(axis=1, keepdims=True)
    shifted_target = probs[rows, targets]
    np.exp(probs, out=probs)
    z = probs.sum(axis=1, keepdims=True)
    probs /= z
    loss = Tensor(np.asarray((np.log(z[:, 0]) - shifted_target).mean()))

    def prelude(g):  # s·(probs − onehot)·g/B, rounded as ((p − onehot)·(g/B))·s
        c = float(g) / n_rows
        d = probs * c
        d[rows, targets] = (probs[rows, targets] - 1.0) * c
        d *= s
        return d

    candidates, offset = [], 0
    for b in blocks:
        sl = slice(offset, offset + b.shape[1])
        candidates.append((b, lambda d, sl=sl: d[:, sl]))
        offset = sl.stop
    _register(tape, loss, candidates, prelude)
    return loss, probs


def finite_difference_check(
    fn: Callable[[Tape | None], Tensor],
    params: Sequence[Tensor],
    h: float = 1e-5,
) -> float:
    """Max relative error between tape gradients and central differences.

    ``fn`` must rebuild the scalar loss from the current contents of
    ``params`` each call; it receives a tape (for the analytic pass) or
    None (for the perturbed evaluations). Relative error per coordinate is
    |a − g| / max(|a|, |g|, 1e-8).
    """
    tape = Tape()
    loss = fn(tape)
    if not np.isfinite(loss.data):
        raise NumericError(f"non-finite loss {loss.data!r} in finite_difference_check")
    tape.backward(loss)
    analytic = [tape.grad(p).reshape(-1) for p in params]

    def value() -> float:
        out = fn(None)
        v = float(out.data)
        if not np.isfinite(v):
            raise NumericError("non-finite value during finite differencing")
        return v

    worst = 0.0
    for p, grads in zip(params, analytic):
        flat = p.data.reshape(-1)
        for i in range(flat.size):
            saved = flat[i]
            flat[i] = saved + h
            f_plus = value()
            flat[i] = saved - h
            f_minus = value()
            flat[i] = saved
            numeric = (f_plus - f_minus) / (2.0 * h)
            a = grads[i]
            err = abs(a - numeric) / max(abs(a), abs(numeric), 1e-8)
            worst = max(worst, err)
    return worst
