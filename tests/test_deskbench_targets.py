"""The desk benchmark's trace targets and head probe must run against the package.

``deskbench/tracing.py`` shims each ``(owner, attr)`` in ``TARGETS`` by
looking up ``vars(owner)[attr]``, and ``deskbench/probe.py`` calls both
heads' functions directly. A refactor that renames, moves or re-signs one
of those functions would otherwise only surface as a crash of a traced
benchmark run.
"""

import collections
import importlib.util
import math
from pathlib import Path

import pytest

import dcq
import dcq.cli  # noqa: F401  (the package does not import its CLI itself)

DESKBENCH = Path(__file__).resolve().parents[1] / "deskbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"deskbench_{name}", DESKBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load("tracing")


@pytest.mark.parametrize(
    "owner_path,attr", [(owner, attr) for owner, attr, _ in tracing.TARGETS]
)
def test_target_resolves_as_the_tracer_installs_it(owner_path, attr):
    owner = tracing._resolve(dcq, owner_path)
    assert attr in vars(owner), f"{owner_path}.{attr} is not defined on {owner!r}"
    assert callable(vars(owner)[attr])


def test_tracer_installs_and_restores_every_target():
    owners = [(tracing._resolve(dcq, o), a) for o, a, _ in tracing.TARGETS]
    before = [vars(owner)[attr] for owner, attr in owners]
    with tracing.Tracer(dcq).installed():
        assert all(vars(owner)[attr] is not fn for (owner, attr), fn in zip(owners, before))
    assert [vars(owner)[attr] for owner, attr in owners] == before


def test_head_probe_reports_every_point(monkeypatch):
    # five rounds of ~10 ms batches per point instead of the 2 s budget
    probe = _load("probe")
    monkeypatch.setattr(probe, "PROBE_SECONDS", 0.0)
    out = probe.head_scaling(dcq, 17)
    points = [f"class_queue.K{k}" for k in probe.PROBE_K] + [f"baseline.C{c}" for c in probe.PROBE_C]
    expected = {f"probe.{p}.{unit}" for p in points for unit in ("ms", "ns_per_mac")}
    assert set(out) == expected and len(out) == 14
    assert all(math.isfinite(v) and v > 0 for v in out.values())


TRACED_TINY = dict(
    n_classes=12, epochs=1, B=8, K=8, d_in=8, embed_dim=8, hidden_dims=(16,),
    min_count=2, max_count=10, eval_pairs=40, eval_probes=10, eval_distractors=5,
)


@pytest.mark.parametrize(
    "method,per_step",
    [
        ("dcq", {
            "synthdata.make_pair_batch": 1, "trainer.sgd_momentum_step": 1,
            "class_queue.generate": 1, "class_queue.ema_update": 1, "class_queue.enqueue": 1,
            "class_queue.dcq_logits_with_mask": 1, "class_queue.dcq_cosface_loss": 1,
            "baseline.fc_cosface_loss": 0,
        }),
        ("cosface-full", {
            "synthdata.make_pair_batch": 1, "trainer.sgd_momentum_step": 2,
            "baseline.fc_cosface_loss": 1, "class_queue.dcq_cosface_loss": 0,
        }),
    ],
)
def test_traced_spans_fire_every_step(method, per_step):
    # the per-layer metrics divide these spans by the step count, so a call
    # that stops going through a traced name would read as zero time
    tracer = tracing.Tracer(dcq)
    with tracer.installed():
        result = dcq.trainer.run_training(dcq.trainer.TrainConfig(method=method, **TRACED_TINY))
    calls = collections.Counter(tracer.names)
    assert result.final_step > 0
    assert {name: calls[name] for name in per_step} == {
        name: n * result.final_step for name, n in per_step.items()
    }
