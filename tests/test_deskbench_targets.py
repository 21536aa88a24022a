"""The desk benchmark's trace targets and head probe must run against the package.

``deskbench/tracing.py`` shims each ``(owner, attr)`` in ``TARGETS`` by
looking up ``vars(owner)[attr]``, and ``deskbench/probe.py`` calls both
heads' functions directly. A refactor that renames, moves or re-signs one
of those functions would otherwise only surface as a crash of a traced
benchmark run.
"""

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
