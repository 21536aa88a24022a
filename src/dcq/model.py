"""The feature extractor: a small MLP mapping inputs to embeddings.

Layers are (matmul → bias → PReLU) for every hidden layer and a plain
linear map for the final one, which therefore has no slope. Embeddings
come out unnormalized; projecting onto the unit sphere is the loss's job.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import rng
from .errors import ConfigError, ShapeError
from .numerics import Tape, Tensor, add_rowvec, matmul, prelu

PRELU_INIT = 0.25


@dataclass
class LayerParams:
    weight: Tensor  # in × out
    bias: Tensor    # (out,)
    slope: Tensor | None  # scalar PReLU slope; None on the linear last layer


@dataclass
class MlpParams:
    """Per-layer weights, biases and hidden-layer PReLU slopes for the extractor."""

    layer_dims: list[int]
    layers: list[LayerParams]

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

    def copy(self, requires_grad: bool = False) -> "MlpParams":
        """Deep copy; shadow copies default to gradient-free parameters."""

        def dup(t: Tensor | None) -> Tensor | None:
            return None if t is None else Tensor(t.data.copy(), requires_grad)

        layers = [LayerParams(dup(l.weight), dup(l.bias), dup(l.slope)) for l in self.layers]
        return MlpParams(list(self.layer_dims), layers)


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
    layers = []
    last = len(dims) - 2
    for i, (fan_in, fan_out) in enumerate(zip(dims[:-1], dims[1:])):
        gen = rng.stream(seed, rng.PARAM_INIT, i)
        w = gen.standard_normal((fan_in, fan_out)) / np.sqrt(fan_in)
        layers.append(
            LayerParams(
                Tensor(w, requires_grad=True),
                Tensor(np.zeros(fan_out), requires_grad=True),
                None if i == last else Tensor(np.asarray(PRELU_INIT), requires_grad=True),
            )
        )
    return MlpParams(dims, layers)


def extract_features(params: MlpParams, x: Tensor, tape: Tape | None = None) -> Tensor:
    """Forward the MLP; differentiable when recorded on a tape."""
    if x.data.ndim != 2 or x.shape[1] != params.d_in:
        raise ShapeError(f"input shape {x.shape} does not match d_in={params.d_in}")
    h = x
    for layer in params.layers:
        h = add_rowvec(matmul(h, layer.weight, tape), layer.bias, tape)
        if layer.slope is not None:
            h = prelu(h, layer.slope, tape)
    return h
