"""Golden-run pins: short runs whose outputs must not move.

Each pin is the SHA-256 of the metrics rows (without ``wall_seconds``) and
the final evaluation of a 2-epoch run at a small class count, for every
method and both sampling modes. A change that means to alter numerics
re-pins these and says so; a performance or refactor change must pass
them unchanged.
"""

import hashlib
import json

import pytest

from dcq.trainer import TrainConfig, run_training

# min_count=1 gives single-instance identities, so the batch-stream
# reference fallback runs; min_instances=9 keeps 3 head-only classes.
GOLDEN_BASE = dict(
    n_classes=60, n_reserved=20, epochs=2, B=16, K=32, d_in=8, embed_dim=8,
    hidden_dims=(16,), sigma=0.1, zipf_exponent=1.2, min_count=1, max_count=40,
    eval_pairs=40, eval_probes=20, eval_distractors=10, seed=3,
)

GOLDEN_PINS = {
    ("dcq", "instance"):
        "d8f5bddc5873ef67e4e60de9202e353010e71d26c249d361359fa7b9b0dae740",
    ("dcq", "class"):
        "6628e5a29faa453b130d52e43a5d7109f90c530bde017d17f432b5f5fe615131",
    ("cosface-full", "instance"):
        "c0d672c77e73da6906cd4da5c0efb78ca57ebf992b0f97f77ee1952127b760a8",
    ("cosface-full", "class"):
        "b133f6f74636664744d8cedc9a650ab51e36c3f72f9cdd86819d311cad47a8e5",
    ("cosface-head-only", "instance"):
        "57ca36edb46a312003c805c0a296510633c4c736b99663ce39670265e42c6388",
    ("cosface-head-only", "class"):
        "f0d5476987087a42b51d367a327659e30c9431987253f506d12ba61bf9a9e460",
}


def run_digest(method: str, sampling: str) -> str:
    result = run_training(TrainConfig(method=method, sampling=sampling, **GOLDEN_BASE))
    rows = [{k: v for k, v in row.items() if k != "wall_seconds"} for row in result.metrics]
    payload = json.dumps({"metrics": rows, "final_eval": result.final_eval}, sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()


@pytest.mark.parametrize("method,sampling", sorted(GOLDEN_PINS))
def test_golden_run(method, sampling):
    assert run_digest(method, sampling) == GOLDEN_PINS[(method, sampling)]
