"""Golden-run pins: short runs whose outputs must not move.

Each metrics pin is the SHA-256 of the metrics rows (without
``wall_seconds``) and the final evaluation of a 2-epoch run at a small
class count, for every method and both sampling modes. Each checkpoint pin
is the SHA-256 of the same run's ``final.ckpt`` bytes, which cover the
parameters, the optimizer velocities and the queue that the metrics only
see through evaluation. Each alignment pin is the SHA-256 of the tail
alignment report for a CosFace run's head; each full-FC run has 45
single-instance classes. The multi-instance pins are the metrics and
checkpoint pins of the dcq runs again with ``min_count=2``, where no batch
holds a single-instance identity. The dcq and cosface-full runs are
repeated with a recording per-step hook, which must leave their metrics and
checkpoint pins where they are. A change that means to alter
numerics re-pins these and says so; a performance or refactor change must
pass them unchanged.
"""

import functools
import hashlib
import json

import numpy as np
import pytest

from dcq import evalbench
from dcq.trainer import TrainConfig, run_training, save_result_checkpoint

# min_count=1 gives single-instance identities, so nearly every batch
# draws fresh reference noise for some row; min_instances=9 keeps 3
# head-only classes, none of them single-instance.
GOLDEN_BASE = dict(
    n_classes=60, epochs=2, B=16, K=32, d_in=8, embed_dim=8,
    hidden_dims=(16,), sigma=0.1, zipf_exponent=1.2, min_count=1, max_count=40,
    eval_pairs=40, eval_probes=20, eval_distractors=10, seed=3,
)

GOLDEN_PINS = {
    ("dcq", "instance"):
        "976c92552845e996e4e0a7e28812ae3e4451f6464ca464109743bc447d300091",
    ("dcq", "class"):
        "63047b3bfb028a989fecc25fa1a178b594667c3889ac52c865b0a4b605b7e1b0",
    ("cosface-full", "instance"):
        "e9938962ee1d022d3f738b5e3168b81b37d4499805ab33f3d7550f0b3a61a130",
    ("cosface-full", "class"):
        "c9c84c45cfbe2f8bf382ada84f521495a48d22ecf46f9bcab8469a2d6c8f8cf6",
    ("cosface-head-only", "instance"):
        "aa959c51b860660cee9e68941a831ce3a71899900efee559cb9239da4cfdee02",
    ("cosface-head-only", "class"):
        "9d66817996000c728c4db19f3f16b0b77d20129d85aac561ca9fb3d5d7acb8d0",
}

CHECKPOINT_PINS = {
    ("dcq", "instance"):
        "42d4f995e0ec447d9a967e444c00956733e2ddd66000a004af74e473042ddfce",
    ("dcq", "class"):
        "ab00ef5724e17420f03dda37b2614cce0c4954dec499fb2f5e184324e5a5cada",
    ("cosface-full", "instance"):
        "d4d8f28aa52d0cb62dba5df8afbc7044aa06f46a8ff707ef0fc0bbb5e2f84e1f",
    ("cosface-full", "class"):
        "2cb0f17b976c4102bbbe4429a605717d7d42735907d588df635c35cfd819f404",
    ("cosface-head-only", "instance"):
        "1b53d49a744d2efd5a53babb6d733d55af54a32a5111bbeaeb4a4148faa6df32",
    ("cosface-head-only", "class"):
        "1cc44fd2db2b8a44bcbccee780d8f9ec69fd467b333d721c0b0cbd365d7ee99b",
}

# min_count=2 leaves no single-instance identity, so every batch of these
# runs comes from the planned path. The metrics pins were recorded before
# batch planning existed.
MULTI_INSTANCE_BASE = {**GOLDEN_BASE, "min_count": 2}

MULTI_INSTANCE_PINS = {
    "instance": (
        "ade39be0c4a4a46df758b06c3e5d47dadd6645ef62817826061cdf7cb884f0ad",
        "f81c81393cc5402b5d5a7d64679b80d2cecd8c68d16a634ad49a8b7e9573b1a4",
    ),
    "class": (
        "ff074b2d42c11202c5260feb8decebc1b28e35ccd221d7d8def744a3f60ce5a5",
        "d437575ceb212b67a226bc9e501c950511cd4e3a37eb051c594d39cc4e9ad423",
    ),
}

ALIGNMENT_PINS = {
    ("cosface-full", "instance"):
        "41679908863f0c68543d0a31aecf6dc0d83152f15f03f5848b687ad3ba6177bb",
    ("cosface-full", "class"):
        "dfaafda603d19e52039a21504fa3e6756ca96ddeae9e99186b48b08d96e18385",
    ("cosface-head-only", "instance"):
        "a0548fb46aed421eec0b1b2fd101dff93faa56cf2f8d1073e35bf66d4c5eb22e",
    ("cosface-head-only", "class"):
        "8645e71b816e2aabf7a3e3b79480cc79ae935102ea3f001fa8d0fd2ddd565d54",
}


@functools.lru_cache(maxsize=None)
def golden_run(method: str, sampling: str, min_count: int = 1):
    base = GOLDEN_BASE if min_count == 1 else MULTI_INSTANCE_BASE
    return run_training(TrainConfig(method=method, sampling=sampling, **base))


def metrics_digest(result) -> str:
    rows = [{k: v for k, v in row.items() if k != "wall_seconds"} for row in result.metrics]
    payload = json.dumps({"metrics": rows, "final_eval": result.final_eval}, sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()


def final_checkpoint_digest(result, tmp_path) -> str:
    path = tmp_path / "final.ckpt"
    save_result_checkpoint(path, result)
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run_digest(method: str, sampling: str, min_count: int = 1) -> str:
    return metrics_digest(golden_run(method, sampling, min_count))


def checkpoint_digest(method: str, sampling: str, tmp_path, min_count: int = 1) -> str:
    return final_checkpoint_digest(golden_run(method, sampling, min_count), tmp_path)


def alignment_digest(method: str, sampling: str) -> str:
    result = golden_run(method, sampling)
    report = evalbench.tail_alignment_diagnostic(
        result.head.W.data, result.universe, result.counts,
        result.extractor, class_ids=result.head.retained_ids,
    )
    payload = json.dumps([report.mean_cosine, report.class_counts], sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()


@pytest.mark.parametrize("method,sampling", sorted(GOLDEN_PINS))
def test_golden_run(method, sampling):
    assert run_digest(method, sampling) == GOLDEN_PINS[(method, sampling)]


@pytest.mark.parametrize("method,sampling", sorted(CHECKPOINT_PINS))
def test_golden_checkpoint(method, sampling, tmp_path):
    assert checkpoint_digest(method, sampling, tmp_path) == CHECKPOINT_PINS[(method, sampling)]


@pytest.mark.parametrize("method,sampling", sorted(ALIGNMENT_PINS))
def test_golden_alignment(method, sampling):
    assert alignment_digest(method, sampling) == ALIGNMENT_PINS[(method, sampling)]


@pytest.mark.parametrize("sampling", sorted(MULTI_INSTANCE_PINS))
def test_golden_multi_instance_run(sampling):
    assert run_digest("dcq", sampling, min_count=2) == MULTI_INSTANCE_PINS[sampling][0]


@pytest.mark.parametrize("sampling", sorted(MULTI_INSTANCE_PINS))
def test_golden_multi_instance_checkpoint(sampling, tmp_path):
    digest = checkpoint_digest("dcq", sampling, tmp_path, min_count=2)
    assert digest == MULTI_INSTANCE_PINS[sampling][1]


HOOK_RECORD_KEYS = {"step", "epoch", "loss", "labels", "probs", "w_pos", "state"}


@pytest.mark.parametrize("method", ["dcq", "cosface-full"])
def test_recording_hook_changes_nothing(method, tmp_path):
    # observing a run through its per-step hook must not move any output bit
    records, copies = [], []

    def hook(rec):
        records.append(rec)
        arrays = (rec["labels"], rec["w_pos"], rec["probs"])
        copies.append([None if a is None else a.copy() for a in arrays])

    result = run_training(
        TrainConfig(method=method, sampling="instance", **GOLDEN_BASE), hooks=hook
    )
    assert metrics_digest(result) == GOLDEN_PINS[(method, "instance")]
    assert final_checkpoint_digest(result, tmp_path) == CHECKPOINT_PINS[(method, "instance")]
    assert [rec["step"] for rec in records] == list(range(result.final_step))
    for rec, (labels, w_pos, probs) in zip(records, copies):
        assert set(rec) == HOOK_RECORD_KEYS
        # the record's arrays are not written after the hook returns
        np.testing.assert_array_equal(rec["labels"], labels)
        np.testing.assert_array_equal(rec["probs"], probs)
        assert rec["state"] is result
        if method == "dcq":
            assert rec["w_pos"].shape == (GOLDEN_BASE["B"], GOLDEN_BASE["embed_dim"])
            np.testing.assert_array_equal(rec["w_pos"], w_pos)
        else:
            assert rec["w_pos"] is None
