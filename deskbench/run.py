"""Desk benchmark entry point: one workload, one seed, one result line.

    python3 deskbench/run.py --workload desk-dcq --seed 1 --seconds 35 --trace 0

Run it from the root of a checkout that holds ``src/dcq``. The package is
imported from that checkout's ``src`` only, so a directory without it
exits non-zero and prints no result.

With ``--trace 0`` the last stdout line is the JSON result with every
end-to-end metric listed in BENCHMARK.json; with ``--trace 1`` it carries
the per-layer metrics of a traced run instead. Earlier ``deskbench ...``
lines give the machine facts, the output digest and the workload's detail
figures.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

# BLAS and OpenMP thread pools are sized when numpy loads, so pin them first:
# on a 2-core box a second pool thread only measures oversubscription.
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("desk-dcq", "desk-full", "artefacts")


def _import_package():
    """Import dcq from this checkout's src, never from an installed copy."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import dcq
    except ImportError as exc:
        raise SystemExit(f"deskbench: cannot import dcq from {src}: {exc}") from exc
    if not Path(dcq.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"deskbench: dcq resolved to {dcq.__file__}, outside {src}")
    return dcq


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    _import_package()
    sys.path.insert(0, str(ROOT))
    from deskbench import machine, workloads

    print("deskbench machine " + json.dumps(machine.facts(THREAD_VARS), sort_keys=True))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metric_specs = spec["per_layer"] if args.trace else spec["end_to_end"]
    work_dir = ROOT / ".deskbench"
    result = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace), work_dir, metric_specs)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
