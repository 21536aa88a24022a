"""The desk benchmark runs end to end and its outputs stay where they are.

Each workload runs one operation in a subprocess, as ``BENCHMARK.json``
runs it, which exercises every name the benchmark reads from ``dcq``
(``trainer.make_pair_batch``, ``synthdata.draw_instance``, ``rng.stream``
among them). The digest pins are the SHA-256 of each workload's first
operation at seed 17: a change that means to alter them re-pins them and
says so.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

DIGEST_PINS = {
    "desk-dcq": "db159a46c6f620bc85ad3579d2a7a1db6af409e7ca99e4f8dd6b797ae46180cf",
    "desk-full": "63c4dac5553e9dc52c8bf9fdd16e9ec41c76eab7d6b7e7416e23ce03d822b049",
    "artefacts": "3663f7faf4838547baf8a32a1530e263177f96f3e02c980cfaaf79080e4579b9",
}


@pytest.mark.parametrize("workload", sorted(DIGEST_PINS))
def test_workload_runs_with_pinned_digest(workload):
    proc = subprocess.run(
        [sys.executable, "deskbench/run.py", "--workload", workload,
         "--seed", "17", "--seconds", "0.01"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] is True and result["failed"] == 0, result
    digests = [json.loads(line.split(" ", 2)[2]) for line in lines
               if line.startswith("deskbench digest ")]
    assert len(digests) == 1, lines
    assert digests[0]["sha256"] == DIGEST_PINS[workload]
