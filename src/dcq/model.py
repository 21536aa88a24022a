"""The feature extractor: a small MLP mapping inputs to embeddings.

Layers are (matmul → bias → PReLU) for every hidden layer and a plain
linear map for the final one, which therefore has no slope. Embeddings
come out unnormalized; projecting onto the unit sphere is the loss's job.

All of a model's parameters live in one contiguous float64 buffer
(``MlpParams.flat``); the named weights, biases and slopes are views into
it. Every weight comes first, then the weight-decay-exempt biases and
slopes as a contiguous tail, so optimizer and EMA updates run as a few
whole-buffer calls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import rng
from .errors import ConfigError, ShapeError
from .numerics import Tape, Tensor, dense

PRELU_INIT = 0.25


@dataclass
class LayerParams:
    weight: Tensor  # in × out
    bias: Tensor    # (out,)
    slope: Tensor | None  # scalar PReLU slope; None on the linear last layer


def _layout(dims: list[int]) -> tuple[list[tuple[str, int, tuple[int, ...]]], int, int]:
    """(name, offset, shape) per parameter in ``named_parameters`` order.

    Offsets place every weight first, in layer order, then each layer's
    bias and slope. Also returns the weights' total size (the start of the
    exempt tail) and the buffer size.
    """
    n_weights = sum(a * b for a, b in zip(dims[:-1], dims[1:]))
    w_off, tail_off = 0, n_weights
    entries = []
    last = len(dims) - 2
    for i, (fan_in, fan_out) in enumerate(zip(dims[:-1], dims[1:])):
        entries.append((f"layer{i}.weight", w_off, (fan_in, fan_out)))
        w_off += fan_in * fan_out
        entries.append((f"layer{i}.bias", tail_off, (fan_out,)))
        tail_off += fan_out
        if i != last:
            entries.append((f"layer{i}.slope", tail_off, ()))
            tail_off += 1
    return entries, n_weights, tail_off


class MlpParams:
    """Per-layer weights, biases and hidden-layer PReLU slopes for the extractor.

    ``flat`` is the one buffer they all view, wrapped without a copy:
    ``flat[:n_decayed]`` holds the weights, ``flat[n_decayed:]`` the biases
    and slopes.
    """

    def __init__(self, layer_dims: list[int], flat: np.ndarray, requires_grad: bool):
        self.layer_dims = list(layer_dims)
        self.flat = flat
        entries, self.n_decayed, _ = _layout(self.layer_dims)
        t = {name: Tensor(view, requires_grad) for name, view in self.views(flat)}
        self.layers = [
            LayerParams(t[f"layer{i}.weight"], t[f"layer{i}.bias"], t.get(f"layer{i}.slope"))
            for i in range(len(layer_dims) - 1)
        ]
        # the parameters in the order their slots sit in flat
        self.buffer_order = [t[name] for name, _, _ in sorted(entries, key=lambda e: e[1])]

    @property
    def d_in(self) -> int:
        return self.layer_dims[0]

    @property
    def d_out(self) -> int:
        return self.layer_dims[-1]

    def named_parameters(self) -> list[tuple[str, Tensor]]:
        out = []
        for i, layer in enumerate(self.layers):
            out.append((f"layer{i}.weight", layer.weight))
            out.append((f"layer{i}.bias", layer.bias))
            if layer.slope is not None:
                out.append((f"layer{i}.slope", layer.slope))
        return out

    def views(self, buf: np.ndarray) -> list[tuple[str, np.ndarray]]:
        """Name and view of each parameter's slot in ``buf``, a buffer laid out as ``flat``."""
        entries, _, size = _layout(self.layer_dims)
        if buf.shape != (size,):
            raise ShapeError(f"buffer of shape {buf.shape} for {size} parameters")
        return [
            (name, buf[off : off + math.prod(shape)].reshape(shape)) for name, off, shape in entries
        ]

    def gather(self, value_of: Callable[[Tensor], np.ndarray]) -> np.ndarray:
        """A new buffer laid out as ``flat`` holding ``value_of(p)`` in each parameter p's slot."""
        return np.concatenate([value_of(p).reshape(-1) for p in self.buffer_order])

    def copy(self) -> "MlpParams":
        """Gradient-free deep copy into a new buffer, as the EMA shadow."""
        return MlpParams(self.layer_dims, self.flat.copy(), requires_grad=False)


def init_extractor(layer_dims: list[int], seed: int) -> MlpParams:
    """Gaussian weights scaled by 1/√fan_in, zero biases, hidden slopes at 0.25.

    ``layer_dims`` is [d_in, h₁, …, D]; at least one hidden layer and an
    embedding width of 2 or more are required.
    """
    dims = [int(d) for d in layer_dims]
    if len(dims) < 3:
        raise ConfigError(f"need at least one hidden layer, got dims {dims}")
    if any(d < 1 for d in dims):
        raise ConfigError(f"layer dims must be positive, got {dims}")
    if dims[-1] < 2:
        raise ConfigError(f"embedding dim must be >= 2, got {dims[-1]}")
    params = MlpParams(dims, np.zeros(_layout(dims)[2]), requires_grad=True)
    for i, layer in enumerate(params.layers):
        fan_in = dims[i]
        gen = rng.stream(seed, rng.PARAM_INIT, i)
        layer.weight.data[...] = gen.standard_normal(layer.weight.shape) / np.sqrt(fan_in)
        if layer.slope is not None:
            layer.slope.data[...] = PRELU_INIT
    return params


def extract_features(params: MlpParams, x: Tensor, tape: Tape | None = None) -> Tensor:
    """Forward the MLP; differentiable when recorded on a tape, one node per layer."""
    if x.data.ndim != 2 or x.shape[1] != params.d_in:
        raise ShapeError(f"input shape {x.shape} does not match d_in={params.d_in}")
    h = x
    for layer in params.layers:
        h = dense(h, layer.weight, layer.bias, layer.slope, tape)
    return h
