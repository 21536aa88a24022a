"""The desk benchmark's trace targets must name attributes that exist.

``deskbench/tracing.py`` shims each ``(owner, attr)`` in ``TARGETS`` by
looking up ``vars(owner)[attr]``. A refactor that renames or moves one of
those functions would otherwise only surface as a crash of a traced
benchmark run.
"""

import importlib.util
from pathlib import Path

import pytest

import dcq
import dcq.cli  # noqa: F401  (the package does not import its CLI itself)

TRACING_PATH = Path(__file__).resolve().parents[1] / "deskbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("deskbench_tracing", TRACING_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load_tracing()


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
