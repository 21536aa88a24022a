"""Seed-spread mode: run workloads over several seeds and report the spread.

    python3 deskbench/spread.py --workloads desk-dcq,desk-full --seeds 1-10 --passes 2

Runs ``run.py`` once per (pass, workload, seed), one process at a time.
For every end-to-end metric it reports the median and the interquartile
range over seeds as a share of the median (``statistics.quantiles`` with
n=4), against the metric's bound in BENCHMARK.json: ``steady`` below a
third of the bound, ``within`` up to the bound, ``WIDE`` beyond it
(set-up time is exempt from the spread rule). With two or more passes it
also reports how far each later pass's median moved against the first
(``DRIFT`` when worse by more than the bound) and checks that every seed
produced the same output digest in every pass.

The workload detail figures (quality at the fixed epoch count, epoch
percentiles, ...) get the same spread report without a bound: it is the
evidence for which of them can carry one.

Exits 1 when a run fails or any bound, drift or digest check fails.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = Path(__file__).resolve().parent / "run.py"
RUN_TIMEOUT_S = 300


def _seeds(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out += list(range(int(lo), int(hi or lo) + 1))
    return out


def _spread(values: list[float]) -> tuple[float, float, float, float]:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / abs(med) if med else float("inf")


def _run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    tagged = {}
    for line in lines[:-1]:
        if line.startswith("deskbench "):
            _, tag, payload = line.split(" ", 2)
            tagged[tag] = json.loads(payload)
    return {"result": json.loads(lines[-1]), "detail": tagged["detail"], "digest": tagged["digest"]["sha256"]}


def _report(title: str, series: dict[str, list[float]], bounds: dict, problems: list[str]) -> dict:
    print(f"  {title}")
    summary = {}
    for name, values in series.items():
        med, q1, q3, spread = _spread(values)
        status = ""
        if name in bounds:
            bound = bounds[name]["bound"]
            status = "steady" if spread < bound / 3 else "within" if spread <= bound else "WIDE"
            if status == "WIDE" and name != "setup_s":
                problems.append(f"{title}: {name} spread {spread:.3f} > bound {bound}")
            status += f" (bound {bound})"
        print(f"    {name:24s} median {med:<12.6g} q1 {q1:<12.6g} q3 {q3:<12.6g} spread {spread:6.3f} {status}")
        summary[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread}
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default="desk-dcq,desk-full")
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    parser.add_argument("--seconds", type=int, help="default: run_seconds from BENCHMARK.json")
    parser.add_argument("--passes", type=int, default=1)
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    seconds = args.seconds or bench["run_seconds"]
    seeds = _seeds(args.seeds)
    if len(seeds) < 2:
        parser.error("quartiles need at least two seeds")
    problems: list[str] = []
    summary: dict = {}
    for workload in args.workloads.split(","):
        passes = []
        for n in range(args.passes):
            runs = {}
            for seed in seeds:
                try:
                    runs[seed] = _run_once(workload, seed, seconds)
                except (RuntimeError, subprocess.TimeoutExpired) as exc:
                    problems.append(str(exc))
                    continue
                res = runs[seed]["result"]
                if not res["correct"] or res["failed"]:
                    problems.append(f"{workload} seed {seed}: {res['failed']}/{res['attempted']} failed")
            passes.append(runs)
            ok = list(runs.values())
            if len(ok) < 2:
                continue
            print(f"{workload} pass {n + 1}: {len(ok)} seeds, {seconds} s each")
            e2e = {m: [r["result"]["metrics"][m]["value"] for r in ok] for m in bounds}
            detail_keys = [k for k, v in ok[0]["detail"].items() if isinstance(v, (int, float))]
            detail = {k: [r["detail"][k] for r in ok] for k in detail_keys}
            summary[f"{workload}/pass{n + 1}"] = {
                "end_to_end": _report("end-to-end", e2e, bounds, problems),
                "detail": _report("detail (no bounds)", detail, {}, problems),
                "digests": {seed: r["digest"] for seed, r in runs.items()},
            }
        first = summary.get(f"{workload}/pass1")
        for n in range(1, len(passes)):
            later = summary.get(f"{workload}/pass{n + 1}")
            if not first or not later:
                continue
            for name, spec in bounds.items():
                m1, m2 = first["end_to_end"][name]["median"], later["end_to_end"][name]["median"]
                worse = (m2 - m1) / m1 if spec["better"] == "lower" else (m1 - m2) / m1
                flag = "DRIFT" if worse > spec["bound"] else "ok"
                print(f"  pass {n + 1} vs 1: {name:24s} worse by {worse:+.3f} (bound {spec['bound']}) {flag}")
                if flag == "DRIFT":
                    problems.append(f"{workload} pass {n + 1}: {name} worse by {worse:.3f}")
            for seed, digest in later["digests"].items():
                if first["digests"].get(seed, digest) != digest:
                    problems.append(f"{workload} seed {seed}: digest differs between passes")
    for problem in problems:
        print("PROBLEM " + problem)
    print(json.dumps({"ok": not problems, "problems": problems, "summary": summary}))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
