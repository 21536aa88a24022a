import json
import os
import subprocess
import sys
from pathlib import Path

import dcq

SRC = Path(__file__).resolve().parents[1] / "src"
MODULES = [
    "baseline", "checkpoint", "class_queue", "errors", "evalbench",
    "model", "numerics", "rng", "synthdata", "trainer",
]


def test_import_binds_every_module_but_cli_and_gradcheck():
    # a fresh interpreter: in this process other test modules have already
    # imported every module, so the package's own imports cannot be seen
    script = (
        "import json, sys, types\n"
        "import dcq\n"
        "print(json.dumps({\n"
        "    'bound': sorted(k for k, v in vars(dcq).items() if isinstance(v, types.ModuleType)),\n"
        "    'loaded': sorted(m for m in sys.modules if m.startswith('dcq.')),\n"
        "    'version': dcq.__version__,\n"
        "}))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-c", script],
        env={**os.environ, "PYTHONPATH": str(SRC)}, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout)
    assert got["bound"] == MODULES
    assert got["loaded"] == [f"dcq.{name}" for name in MODULES]
    assert got["version"] == dcq.__version__
