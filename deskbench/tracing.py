"""Outside-in tracing: timing shims around dcq's public functions.

Nothing in the package is instrumented. A traced operation runs with the
module attributes and methods in ``TARGETS`` replaced by shims that record
one span per call (name, start, end, parent span, run id) into flat arrays
kept in memory; they are written out once the run ends. A layer's self
time is its spans' duration minus the time covered by their child spans.

A shim is installed where the caller looks the name up: ``trainer``
imported ``make_pair_batch`` by name, so the shim goes on ``dcq.trainer``;
``synthdata`` calls ``rng.stream`` through the module, so that one goes on
``dcq.rng``.
"""

from __future__ import annotations

import gzip
import statistics
from array import array
from contextlib import contextmanager
from time import perf_counter

import numpy as np

# (owner inside the dcq package, attribute, span name)
TARGETS = (
    ("trainer", "run_training", "trainer.run_training"),
    ("trainer", "lr_at_step", "trainer.lr_at_step"),
    ("trainer", "sgd_momentum_step", "trainer.sgd_momentum_step"),
    ("trainer", "make_pair_batch", "synthdata.make_pair_batch"),
    ("trainer", "build_universe", "synthdata.build_universe"),
    ("trainer", "assign_longtail_counts", "synthdata.assign_longtail_counts"),
    ("trainer", "build_eval_protocol", "synthdata.build_eval_protocol"),
    ("trainer", "init_extractor", "model.init_extractor"),
    ("trainer", "extract_features", "model.extract_features"),
    ("trainer", "evaluate_protocol", "evalbench.evaluate_protocol"),
    ("trainer", "load_checkpoint", "checkpoint.load"),
    ("trainer", "save_checkpoint", "checkpoint.save"),
    ("rng", "stream", "rng.stream"),
    ("class_queue.EmaGenerator", "generate", "class_queue.generate"),
    ("class_queue.EmaGenerator", "update", "class_queue.ema_update"),
    ("class_queue.ClassQueue", "update", "class_queue.enqueue"),
    ("class_queue", "dcq_logits_with_mask", "class_queue.dcq_logits_with_mask"),
    ("class_queue", "dcq_cosface_loss", "class_queue.dcq_cosface_loss"),
    ("baseline.FcHead", "__init__", "baseline.init_head"),
    ("baseline", "fc_cosface_loss", "baseline.fc_cosface_loss"),
    ("numerics.Tape", "backward", "numerics.backward"),
    ("numerics.Tape", "grad", "numerics.grad"),
    ("evalbench", "evaluate_protocol", "evalbench.evaluate_protocol"),
    ("evalbench", "tail_alignment_diagnostic", "evalbench.tail_alignment_diagnostic"),
    ("cli", "main", "cli.main"),
    ("cli", "build_universe", "synthdata.build_universe"),
    ("cli", "assign_longtail_counts", "synthdata.assign_longtail_counts"),
    ("cli", "write_dataset", "synthdata.write_dataset"),
    ("cli", "load_result_checkpoint", "trainer.load_result_checkpoint"),
)

# Spans the benchmark itself adds; they do not count as module coverage.
HARNESS_PREFIX = "deskbench."
SETUP_SPANS = (
    "synthdata.build_universe", "synthdata.assign_longtail_counts", "synthdata.build_eval_protocol",
)
# rng.stream calls made per training step: the batch stream the trainer
# opens itself plus the instance streams opened by batch synthesis.
STEP_STREAM_PARENTS = ("trainer.run_training", "synthdata.make_pair_batch")
_NO_SPANS = (0, 0.0, 0.0)

def _resolve(dcq, dotted: str):
    obj = dcq
    for part in dotted.split("."):
        obj = getattr(obj, part)
    return obj


@contextmanager
def patched(replacements):
    """Set ``owner.attr = new`` for each triple; restore the originals on exit."""
    saved = [(owner, attr, vars(owner)[attr]) for owner, attr, _ in replacements]
    try:
        for owner, attr, new in replacements:
            setattr(owner, attr, new)
        yield
    finally:
        for owner, attr, old in reversed(saved):
            setattr(owner, attr, old)


class Tracer:
    """In-memory span store plus the shims that fill it."""

    def __init__(self, dcq):
        self.dcq = dcq
        self.names: list[str] = []
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.run = array("q")
        self.run_id = -1
        self._stack: list[int] = []
        self.muted = 0
        self.negatives = 0

    def span(self, name: str, fn):
        names, start, end, parent, run, stack = (
            self.names, self.start, self.end, self.parent, self.run, self._stack
        )

        def shim(*args, **kwargs):
            i = len(names)
            names.append(name)
            parent.append(stack[-1] if stack else -1)
            run.append(self.run_id)
            end.append(0.0)
            stack.append(i)
            start.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                end[i] = perf_counter()
                stack.pop()

        return shim

    def _count_muted(self, fn):
        mask_value = self.dcq.class_queue.MASK_VALUE
        observe = self.span(HARNESS_PREFIX + "observe", lambda l_neg: np.count_nonzero(l_neg == mask_value))

        def shim(*args, **kwargs):
            l_pos, l_neg = fn(*args, **kwargs)
            self.muted += observe(l_neg.data)
            self.negatives += l_neg.data.size
            return l_pos, l_neg

        return shim

    @contextmanager
    def installed(self):
        replacements = []
        for owner_path, attr, name in TARGETS:
            owner = _resolve(self.dcq, owner_path)
            shim = self.span(name, vars(owner)[attr])
            if name == "class_queue.dcq_logits_with_mask":
                shim = self._count_muted(shim)
            replacements.append((owner, attr, shim))
        with patched(replacements):
            yield

    def _by_name(self, runs: set[int]) -> dict[str, list]:
        """name -> [calls, total seconds, self seconds] over the spans of ``runs``."""
        dur = [end - start for start, end in zip(self.start, self.end)]
        child = [0.0] * len(dur)
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += dur[i]
        out: dict[str, list] = {}
        for i, name in enumerate(self.names):
            if self.run[i] in runs:
                row = out.setdefault(name, [0, 0.0, 0.0])
                row[0] += 1
                row[1] += dur[i]
                row[2] += dur[i] - child[i]
        return out

    def _step_streams(self, runs: set[int]) -> tuple[int, float]:
        """Count and seconds of the rng.stream calls made by training steps."""
        calls, seconds = 0, 0.0
        for i, name in enumerate(self.names):
            p = self.parent[i]
            if name == "rng.stream" and self.run[i] in runs and p >= 0 and self.names[p] in STEP_STREAM_PARENTS:
                calls += 1
                seconds += self.end[i] - self.start[i]
        return calls, seconds

    def coverage(self, runs: set[int]) -> float:
        """Share of the operations' root spans covered by module child spans."""
        root_time = covered = 0.0
        for i, name in enumerate(self.names):
            if self.run[i] not in runs:
                continue
            p = self.parent[i]
            if p < 0:
                root_time += self.end[i] - self.start[i]
            elif self.parent[p] < 0 and not name.startswith(HARNESS_PREFIX):
                covered += self.end[i] - self.start[i]
        return covered / root_time if root_time else 0.0

    def layer_metrics(self, runs: set[int], head_macs: dict, checkpoint_bytes: int,
                      overhead_s: float) -> dict[str, float]:
        """Per-module metrics of the traced operations ``runs``.

        Every metric exists on every workload, 0 where the layer did not run.
        """
        agg = self._by_name(runs)
        saves = self._by_name(set(self.run)).get("checkpoint.save", _NO_SPANS)
        ops = len(runs)

        def calls(name):
            return agg.get(name, _NO_SPANS)[0]

        def total(name):
            return agg.get(name, _NO_SPANS)[1]

        def self_time(name):
            return agg.get(name, _NO_SPANS)[2]

        steps = calls("synthdata.make_pair_batch")

        def per_step_ms(seconds):
            return 1e3 * seconds / steps if steps else 0.0

        def per_call_ms(row):
            return 1e3 * row[1] / row[0] if row[0] else 0.0

        step_stream_calls, step_stream_s = self._step_streams(runs)
        queue_head_s = total("class_queue.dcq_logits_with_mask") + total("class_queue.dcq_cosface_loss")
        return {
            "synthdata.make_pair_batch.self_ms": per_step_ms(self_time("synthdata.make_pair_batch")),
            "synthdata.setup_ms": 1e3 * sum(total(n) for n in SETUP_SPANS) / ops,
            "synthdata.write_dataset_s": total("synthdata.write_dataset") / ops,
            "rng.stream.ms_per_step": per_step_ms(step_stream_s),
            "rng.stream.calls_per_step": step_stream_calls / steps if steps else 0.0,
            "rng.stream.calls_per_op": calls("rng.stream") / ops,
            "model.extract_features.ms": per_step_ms(total("model.extract_features")),
            "class_queue.generate.ms": per_step_ms(total("class_queue.generate")),
            "class_queue.dcq_logits_with_mask.ms": per_step_ms(total("class_queue.dcq_logits_with_mask")),
            "class_queue.dcq_cosface_loss.ms": per_step_ms(total("class_queue.dcq_cosface_loss")),
            "class_queue.ema_update.ms": per_step_ms(total("class_queue.ema_update")),
            "class_queue.enqueue.ms": per_step_ms(total("class_queue.enqueue")),
            "class_queue.muted_frac": self.muted / self.negatives if self.negatives else 0.0,
            "class_queue.head_ns_per_mac": 1e6 * per_step_ms(queue_head_s) / head_macs["dcq"],
            "baseline.fc_cosface_loss.ms": per_step_ms(total("baseline.fc_cosface_loss")),
            "baseline.head_ns_per_mac": (
                1e6 * per_step_ms(total("baseline.fc_cosface_loss")) / head_macs["full"]
            ),
            "numerics.backward.ms": per_step_ms(total("numerics.backward")),
            "trainer.sgd_momentum_step.ms": per_step_ms(total("trainer.sgd_momentum_step")),
            "trainer.loop_self_ms": per_step_ms(self_time("trainer.run_training")),
            "evalbench.evaluate_protocol.ms": per_call_ms(agg.get("evalbench.evaluate_protocol", _NO_SPANS)),
            "evalbench.tail_alignment_diagnostic_s": total("evalbench.tail_alignment_diagnostic") / ops,
            "checkpoint.load_ms": per_call_ms(agg.get("checkpoint.load", _NO_SPANS)),
            "checkpoint.save_ms": per_call_ms(saves),
            "checkpoint.bytes": float(checkpoint_bytes),
            "cli.self_ms": 1e3 * self_time("cli.main") / ops,
            "trace.coverage_frac": self.coverage(runs),
            "trace.overhead_s": overhead_s,
        }

    def write(self, path) -> None:
        """All spans as gzip CSV: run, name, start, end (perf_counter s), parent row."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("run,name,start_s,end_s,parent\n")
            for i, name in enumerate(self.names):
                fh.write(f"{self.run[i]},{name},{self.start[i]:.9f},{self.end[i]:.9f},{self.parent[i]}\n")


def overhead(traced: list[float], untraced: list[float]) -> float:
    """Traced minus untraced median operation time."""
    if not traced or not untraced:
        return 0.0
    return statistics.median(traced) - statistics.median(untraced)
