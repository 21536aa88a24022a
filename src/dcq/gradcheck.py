"""Randomized finite-difference sweep over both loss pipelines.

Builds small random configurations (a few layers, tiny batch, short
queue), runs the full queue loss and the full-FC loss through the tape,
and compares every parameter gradient against central differences. This
is the package's gradient oracle; the CLI exposes it as ``gradcheck``.
"""

from __future__ import annotations

import numpy as np

from . import rng
from .baseline import FcHead, fc_cosface_loss
from .class_queue import ClassQueue, EmaGenerator, dcq_cosface_loss, dcq_logits_with_mask
from .model import extract_features, init_extractor
from .numerics import Tensor, finite_difference_check


def _random_dims(gen: np.random.Generator) -> list[int]:
    n_hidden = int(gen.integers(1, 3))  # 2 or 3 weight layers total
    dims = [int(gen.integers(3, 7))]
    dims += [int(gen.integers(3, 9)) for _ in range(n_hidden)]
    dims.append(int(gen.integers(3, 9)))  # D <= 8; 2-d embeddings saturate too easily
    return dims


def _random_scale_margin(gen: np.random.Generator) -> tuple[float, float]:
    # moderate scales keep every softmax probability well above the float64
    # noise floor of central differences at h=1e-5; large-scale behavior is
    # covered by exact-identity tests instead
    return float(gen.uniform(1.0, 3.0)), float(gen.uniform(0.0, 0.35))


def _general_position(params, gen: np.random.Generator) -> None:
    # zero biases plus cosine normalization make the loss exactly invariant
    # to a layer slope whenever a whole row goes negative; random biases and
    # slopes remove such degenerate directions from the check
    for layer in params.layers:
        layer.bias.data += 0.2 * gen.standard_normal(layer.bias.data.shape)
        if layer.slope is not None:
            layer.slope.data += gen.uniform(-0.1, 0.1)


def check_dcq_loss(seed: int) -> float:
    """Max relative FD error of the queue loss for one random configuration."""
    gen = rng.stream(seed, 101)
    dims = _random_dims(gen)
    batch = int(gen.integers(2, 5))
    capacity = int(gen.integers(batch, 7))
    n_labels = int(gen.integers(2, 7))

    extractor = init_extractor(dims, seed)
    _general_position(extractor, gen)
    shadow = EmaGenerator(extractor, alpha=0.5)
    # desync the shadow so generated weights are not collinear with features
    for _, p in shadow.shadow.named_parameters():
        p.data += 0.5 * gen.standard_normal(p.data.shape)

    s, m = _random_scale_margin(gen)
    x_t = Tensor(gen.standard_normal((batch, dims[0])))
    x_w = Tensor(gen.standard_normal((batch, dims[0])))
    y = gen.integers(0, n_labels, size=batch)
    w_pos = shadow.generate(x_w)

    queue = ClassQueue(dims[-1], capacity)
    n_fill = int(gen.integers(1, capacity + 1))  # leave sentinels sometimes
    fill_w = shadow.generate(Tensor(gen.standard_normal((n_fill, dims[0]))))
    fill_y = gen.integers(0, n_labels, size=n_fill)  # may duplicate y: exercises the mask
    queue.update(fill_w, fill_y)

    params = [p for _, p in extractor.named_parameters()]

    def fn(tape):
        feats = extract_features(extractor, x_t, tape)
        l_pos, l_neg = dcq_logits_with_mask(feats, w_pos, queue, y, tape)
        loss, _ = dcq_cosface_loss(l_pos, l_neg, s=s, m=m, tape=tape)
        return loss

    return finite_difference_check(fn, params)


def check_fc_loss(seed: int) -> float:
    """Max relative FD error of the full-FC CosFace loss for one configuration."""
    gen = rng.stream(seed, 102)
    dims = _random_dims(gen)
    batch = int(gen.integers(2, 5))
    n_classes = int(gen.integers(2, 8))
    s, m = _random_scale_margin(gen)

    extractor = init_extractor(dims, seed + 1)
    _general_position(extractor, gen)
    head = FcHead(dims[-1], n_classes, seed + 2)
    x = Tensor(gen.standard_normal((batch, dims[0])))
    y = gen.integers(0, n_classes, size=batch)
    params = [p for _, p in extractor.named_parameters()] + [head.W]

    def fn(tape):
        feats = extract_features(extractor, x, tape)
        loss, _ = fc_cosface_loss(feats, head, y, s=s, m=m, tape=tape)
        return loss

    return finite_difference_check(fn, params)


def run_gradient_suite(n_configs: int, seed: int):
    """(name, max relative error) for every randomized configuration."""
    results = []
    for i in range(n_configs):
        results.append((f"dcq[{i}]", check_dcq_loss(seed * 1000 + i)))
        results.append((f"cosface[{i}]", check_fc_loss(seed * 1000 + i)))
    return results
