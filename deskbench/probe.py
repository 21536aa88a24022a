"""Head-scaling probe: measured head forward time against closed-form MACs.

Times the queue head (``dcq_logits_with_mask`` + ``dcq_cosface_loss``) for
several queue sizes K at C=2000, and the full-FC head (``fc_cosface_loss``)
for several class counts C, on one fixed feature batch. Each point is the
median time of a forward recorded on a tape, as in training, and is
reported against ``head_cost_report``'s MACs for it. The paper's K/C cost
argument predicts ns/MAC roughly flat across points.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

PROBE_K = (50, 200, 800, 2000)
PROBE_C = (500, 2000, 8000)
QUEUE_CLASSES = 2000
B = D = 32
PROBE_SECONDS = 2.0
BATCH_SECONDS = 0.01
MIN_ROUNDS = 5


def _unit_rows(gen, n, d):
    x = gen.standard_normal((n, d))
    return x / np.linalg.norm(x, axis=1, keepdims=True)


def _interleaved_ms(points: dict) -> dict[str, float]:
    """Median ms per call of each point, timed round-robin in ~10 ms batches.

    Visiting every point in each round spreads slow phases of a shared
    machine over all points alike, so their ratios stay comparable.
    """
    reps = {}
    for key, fn in points.items():
        t = perf_counter()
        fn()
        reps[key] = max(1, int(BATCH_SECONDS / max(perf_counter() - t, 1e-6)))
    samples: dict[str, list[float]] = {key: [] for key in points}
    deadline = perf_counter() + PROBE_SECONDS
    rounds = 0
    while rounds < MIN_ROUNDS or perf_counter() < deadline:
        for key, fn in points.items():
            t = perf_counter()
            for _ in range(reps[key]):
                fn()
            samples[key].append((perf_counter() - t) / reps[key])
        rounds += 1
    return {key: 1e3 * statistics.median(times) for key, times in samples.items()}


def head_scaling(dcq, seed: int) -> dict[str, float]:
    cq, fc, ev = dcq.class_queue, dcq.baseline, dcq.evalbench
    Tape, Tensor = dcq.numerics.Tape, dcq.numerics.Tensor
    gen = dcq.rng.stream(seed, 1 << 30)  # a tag no package stream uses
    f = Tensor(gen.standard_normal((B, D)))
    w_pos = Tensor(_unit_rows(gen, B, D))
    y = gen.integers(0, QUEUE_CLASSES, size=B)
    points, macs = {}, {}

    def queue_head(queue):
        tape = Tape()
        l_pos, l_neg = cq.dcq_logits_with_mask(f, w_pos, queue, y, tape)
        cq.dcq_cosface_loss(l_pos, l_neg, cq.DEFAULT_SCALE, cq.DEFAULT_MARGIN, tape)

    def full_head(head, labels):
        fc.fc_cosface_loss(f, head, labels, fc.DEFAULT_SCALE, fc.DEFAULT_MARGIN, Tape())

    for k in PROBE_K:
        queue = cq.ClassQueue(D, k)
        queue.update(Tensor(_unit_rows(gen, k, D)), gen.integers(0, QUEUE_CLASSES, size=k))
        key = f"probe.class_queue.K{k}"
        points[key] = lambda queue=queue: queue_head(queue)
        macs[key] = ev.head_cost_report("dcq", QUEUE_CLASSES, k, D, B).head_macs_per_batch
    for c in PROBE_C:
        head, labels = fc.FcHead(D, c, seed), gen.integers(0, c, size=B)
        key = f"probe.baseline.C{c}"
        points[key] = lambda head=head, labels=labels: full_head(head, labels)
        macs[key] = ev.head_cost_report("full", c, 1, D, B).head_macs_per_batch

    out = {}
    for key, ms in _interleaved_ms(points).items():
        out[f"{key}.ms"] = ms
        out[f"{key}.ns_per_mac"] = 1e6 * ms / macs[key]
    return out
