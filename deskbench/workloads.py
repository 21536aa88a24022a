"""The three workloads and the closed loop that runs them.

Every workload is one process running one operation after another (a
closed loop) until the time budget is spent. All inputs come from the
workload seed.

- ``desk-dcq``: one operation is ``run_training`` with ``method=dcq`` at
  the pinned desk config (C=2000 plus 200 reserved, K=200, B=32, D=32,
  d_in=32, hidden (64, 64), 137 steps per epoch) for ``EPOCHS`` epochs.
  Batch synthesis and the queue path dominate; the full-FC head never runs.
- ``desk-full``: the same with ``method=cosface-full``: the D×C head and
  its backward dominate and ``class_queue`` never runs.
- ``artefacts``: one operation is what ``dcq gen-data`` and then
  ``dcq eval`` do, through ``dcq.cli.main``, on a cosface-full checkpoint
  made once per process before timing starts. It writes the whole training
  set sequentially and redraws it for the tail-alignment diagnostic, and
  trains nothing.

Each operation's outputs are digested; an operation whose digest differs
from the first one of the process, whose output check fails, or that
raises counts as failed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import resource
import shutil
import statistics
import struct
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

import numpy as np

from . import probe, tracing

EPOCHS = 4  # fixed epoch count of every desk training run
# The artefact path's cost does not depend on how far the head has trained.
CHECKPOINT_EPOCHS = 1

class Seam:
    """Times the calls made through one module attribute.

    The start of the first call after ``reset`` marks the end of an
    operation's set-up. Costs two clock reads per call, so it stays on in
    untraced runs.
    """

    def __init__(self, owner, attr: str):
        self.owner, self.attr = owner, attr
        self.reset()

    def reset(self) -> None:
        self.first_start: float | None = None
        self.total = 0.0

    def replacement(self):
        fn = vars(self.owner)[self.attr]

        def timed(*args, **kwargs):
            t = perf_counter()
            if self.first_start is None:
                self.first_start = t
            try:
                return fn(*args, **kwargs)
            finally:
                self.total += perf_counter() - t

        return self.owner, self.attr, timed


def _digest(*parts: bytes) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(hashlib.sha256(part).digest())
    return h.hexdigest()


def _canonical(obj) -> bytes:
    return json.dumps(obj, sort_keys=True).encode()


def _head_macs(dcq, cfg) -> dict:
    """Closed-form head MACs per batch at the desk config, for both heads."""
    return {
        method: dcq.evalbench.head_cost_report(method, cfg.n_classes, cfg.K, cfg.embed_dim, cfg.B)
        .head_macs_per_batch
        for method in ("dcq", "full")
    }


def _quantile(values, q: float) -> float:
    """Linear-interpolated quantile of a non-empty sample."""
    return float(np.quantile(np.asarray(values, dtype=np.float64), q))


class Desk:
    """Training runs at the desk config; quality is reported, never gated."""

    def __init__(self, dcq, method: str, seed: int):
        self.trainer = dcq.trainer
        self.cfg = dcq.trainer.TrainConfig(method=method, epochs=EPOCHS, seed=seed).resolve()
        self.synth = Seam(dcq.trainer, "make_pair_batch")
        self.evals = Seam(dcq.trainer, "evaluate_protocol")
        self.seams = (self.synth, self.evals)
        self.checkpoint_bytes = 0

    def prepare(self, work_dir: Path) -> None:
        pass

    def cleanup(self) -> None:
        pass

    def op(self) -> dict:
        for seam in self.seams:
            seam.reset()
        t0 = perf_counter()
        result = self.trainer.run_training(self.cfg)
        run_s = perf_counter() - t0
        epoch_s = [row["wall_seconds"] for row in result.metrics]
        samples = self.cfg.B * result.final_step
        outputs = {
            "metrics": [{k: v for k, v in row.items() if k != "wall_seconds"} for row in result.metrics],
            "final_eval": result.final_eval,
        }
        return {
            "run_s": run_s,
            "setup_s": self.synth.first_start - t0,
            "gen_data_s": self.synth.total,
            "eval_s": self.evals.total,
            "train_samples_per_s": samples / sum(epoch_s),
            "epoch_s": epoch_s,
            "digest": _digest(_canonical(outputs)),
            "problems": self._check(result),
            "quality": {
                "ver_acc": result.final_eval["ver_acc"],
                "id_rank1": result.final_eval["id_rank1"],
                "tail_rank1": result.final_eval["tail_rank1"],
                "train_loss": result.metrics[-1]["train_loss"],
            },
        }

    def _check(self, result) -> list[str]:
        cfg = self.cfg
        problems = []
        steps_per_epoch = int(result.counts.sum()) // cfg.B
        if result.final_step != cfg.epochs * steps_per_epoch:
            problems.append(f"ran {result.final_step} steps, expected {cfg.epochs * steps_per_epoch}")
        if [row["epoch"] for row in result.metrics] != list(range(cfg.epochs)):
            problems.append("metrics rows do not cover every epoch once")
        for row in result.metrics:
            if not all(math.isfinite(row[k]) for k in ("lr", "train_loss", "wall_seconds")):
                problems.append(f"non-finite metrics in epoch {row['epoch']}")
            if not (0.0 <= row["ver_acc"] <= 1.0 and 0.0 <= row["id_rank1"] <= 1.0):
                problems.append(f"accuracy outside [0, 1] in epoch {row['epoch']}")
        last = result.metrics[-1]
        # the final evaluation re-scores the last epoch's model on the same protocol
        if (result.final_eval["ver_acc"], result.final_eval["id_rank1"]) != (last["ver_acc"], last["id_rank1"]):
            problems.append("final evaluation disagrees with the last epoch's evaluation")
        return problems

    def detail(self, records: list[dict]) -> dict:
        epochs = [t for r in records for t in r["epoch_s"]]
        return {
            "epochs": self.cfg.epochs,
            "epoch_s_p50": _quantile(epochs, 0.5),
            "epoch_s_p90": _quantile(epochs, 0.9),
            "epoch_samples": len(epochs),
            **records[0]["quality"],
        }


class Artefacts:
    """``dcq gen-data`` then ``dcq eval`` on a cosface-full checkpoint."""

    def __init__(self, dcq, seed: int):
        self.dcq = dcq
        self.seed = seed
        self.cfg = dcq.trainer.TrainConfig(seed=seed).resolve()
        self.synth = Seam(dcq.cli, "write_dataset")
        self.seams = (self.synth,)
        self.checkpoint_bytes = 0

    def prepare(self, work_dir: Path) -> None:
        trainer = self.dcq.trainer
        work_dir.mkdir(parents=True, exist_ok=True)
        self.dir = Path(tempfile.mkdtemp(prefix="artefacts-", dir=work_dir))
        self.config_path = self.dir / "config.json"
        self.config_path.write_text(json.dumps({"seed": self.seed}))
        self.data_path = self.dir / "data.dcqd"
        self.report_path = self.dir / "report.json"
        self.ckpt_path = self.dir / "final.ckpt"
        ckpt_cfg = trainer.TrainConfig(method="cosface-full", epochs=CHECKPOINT_EPOCHS, seed=self.seed)
        result = trainer.run_training(ckpt_cfg)
        trainer.save_result_checkpoint(self.ckpt_path, result)
        self.checkpoint_bytes = self.ckpt_path.stat().st_size
        self.expected_eval = result.final_eval
        self.train_loss = result.metrics[-1]["train_loss"]
        self.universe, self.counts = result.universe, result.counts
        self.records = int(result.counts.sum())

    def cleanup(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)

    def _cli(self, argv: list[str]) -> int:
        with contextlib.redirect_stdout(io.StringIO()):  # the command's own report
            return self.dcq.cli.main(argv)

    def op(self) -> dict:
        self.synth.reset()
        t0 = perf_counter()
        gen_code = self._cli(["gen-data", "--config", str(self.config_path), "--out", str(self.data_path)])
        t1 = perf_counter()
        eval_code = self._cli(["eval", "--checkpoint", str(self.ckpt_path), "--out", str(self.report_path)])
        t2 = perf_counter()

        problems = []
        if gen_code != 0 or eval_code != 0:
            problems.append(f"exit codes gen-data={gen_code} eval={eval_code}")
            return {"problems": problems, "digest": ""}
        data = self.data_path.read_bytes()
        summary = Path(str(self.data_path) + ".json").read_bytes()
        report = json.loads(self.report_path.read_text())
        report.pop("checkpoint", None)  # a path, not an output of the program
        problems += self._check_dataset(data) + self._check_report(report)
        return {
            "run_s": t2 - t0,
            "setup_s": self.synth.first_start - t0,
            "gen_data_s": t1 - t0,
            "eval_s": t2 - t1,
            # gen-data writes every training instance once; eval redraws each once
            "train_samples_per_s": 2 * self.records / (t2 - t0),
            "digest": _digest(data, summary, _canonical(report)),
            "problems": problems,
            "quality": {k: report[k] for k in ("ver_acc", "id_rank1", "tail_rank1")},
        }

    def _check_dataset(self, data: bytes) -> list[str]:
        d_in = self.cfg.d_in
        record = 8 + 8 * d_in
        if data[:4] != b"DCQD" or len(data) != 20 + self.records * record:
            return [f"dataset has {len(data)} bytes, expected {20 + self.records * record}"]
        header = struct.unpack_from("<IIII", data, 4)
        if header[1:] != (self.cfg.n_classes, d_in, self.records):
            return [f"dataset header {header}"]
        # spot-check first, middle and last records against the generator
        ends = np.cumsum(self.counts)
        problems = []
        for row in (0, self.records // 2, self.records - 1):
            ident, index = struct.unpack_from("<II", data, 20 + row * record)
            expect_ident = int(np.searchsorted(ends, row, side="right"))
            expect_index = row - int(ends[expect_ident - 1] if expect_ident else 0)
            values = np.frombuffer(data, dtype="<f8", count=d_in, offset=20 + row * record + 8)
            drawn = self.dcq.synthdata.draw_instance(self.universe, ident, index)
            if (ident, index) != (expect_ident, expect_index) or not np.array_equal(values, drawn):
                problems.append(f"dataset record {row} does not match the generator")
        return problems

    def _check_report(self, report: dict) -> list[str]:
        problems = []
        for key in ("ver_acc", "ver_threshold", "id_rank1", "tail_rank1", "head_rank1", "tail_probes"):
            if report.get(key) != self.expected_eval.get(key):
                problems.append(f"eval {key}={report.get(key)!r}, trained model scored {self.expected_eval.get(key)!r}")
        alignment = report.get("head_alignment", {})
        if len(alignment) != 4 or not all(math.isfinite(v) for v in alignment.values()):
            problems.append(f"head alignment {alignment!r}")
        return problems

    def detail(self, records: list[dict]) -> dict:
        return {
            "gen_data_s_p90": _quantile([r["gen_data_s"] for r in records], 0.9),
            "eval_s_p90": _quantile([r["eval_s"] for r in records], 0.9),
            "checkpoint_train_loss": self.train_loss,
            **records[0]["quality"],
        }


def make(dcq, name: str, seed: int):
    if name == "desk-dcq":
        return Desk(dcq, "dcq", seed)
    if name == "desk-full":
        return Desk(dcq, "cosface-full", seed)
    if name == "artefacts":
        return Artefacts(dcq, seed)
    raise ValueError(f"unknown workload {name!r}")


def _emit(tag: str, payload) -> None:
    print(f"deskbench {tag} " + json.dumps(payload, sort_keys=True), flush=True)


def _attempt(workload, tracer, run_id: int) -> dict | None:
    """One operation, traced when a tracer is given; None if it raised."""
    try:
        if tracer is None:
            return workload.op()
        tracer.run_id = run_id
        with tracer.installed():
            return workload.op()
    except Exception:
        traceback.print_exc(file=sys.stderr)
        return None


def run(name: str, seed: int, seconds: float, trace: bool, work_dir: Path, metric_specs: list[dict]) -> dict:
    """Run one workload for ``seconds``; return the result object.

    ``metric_specs`` are BENCHMARK.json's entries for the metrics to report
    (end-to-end ones, or per-layer ones in a traced run).
    """
    import dcq
    import dcq.cli  # noqa: F401  (not imported by the package itself)

    workload = make(dcq, name, seed)
    tracer = tracing.Tracer(dcq) if trace else None
    records: list[dict] = []
    traced_ids: list[int] = []
    attempted = failed = 0
    reference = None
    with tracing.patched([seam.replacement() for seam in workload.seams]):
        if tracer is not None:
            with tracer.installed():
                workload.prepare(work_dir)
        else:
            workload.prepare(work_dir)
        try:
            start = perf_counter()
            while True:
                # traced runs alternate untraced and traced operations
                traced = tracer is not None and attempted % 2 == 1
                attempted += 1
                rec = _attempt(workload, tracer if traced else None, attempted)
                if rec is not None:
                    if reference is None and not rec["problems"]:
                        reference = rec["digest"]
                    if rec["digest"] != reference:
                        rec["problems"].append(f"digest {rec['digest'][:16]} differs from {str(reference)[:16]}")
                if rec is None or rec["problems"]:
                    if rec is not None:
                        print("deskbench failed-op " + "; ".join(rec["problems"]), file=sys.stderr)
                    failed += 1
                else:
                    rec["traced"] = traced
                    records.append(rec)
                    if traced:
                        traced_ids.append(attempted)
                if perf_counter() - start >= seconds and (tracer is None or attempted >= 2):
                    break
        finally:
            workload.cleanup()

    if not records or (tracer is not None and not traced_ids):
        raise SystemExit(f"deskbench: {failed} of {attempted} operations of {name} failed, none usable")
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    untraced = [r for r in records if not r["traced"]]
    _emit("digest", {"workload": name, "seed": seed, "sha256": reference,
                     "ops": len(records), "failed": failed})
    detail = {
        "ops": len(untraced),
        "failed_frac": failed / attempted,
        **workload.detail(untraced or records),
    }
    _emit("detail", detail)

    if tracer is None:
        metrics = {
            "setup_s": statistics.median(r["setup_s"] for r in records),
            "run_s": statistics.median(r["run_s"] for r in records),
            "train_samples_per_s": statistics.median(r["train_samples_per_s"] for r in records),
            "gen_data_s": statistics.median(r["gen_data_s"] for r in records),
            "eval_s": statistics.median(r["eval_s"] for r in records),
            "peak_rss_mb": peak_rss_mb,
        }
    else:
        overhead_s = tracing.overhead(
            [r["run_s"] for r in records if r["traced"]], [r["run_s"] for r in untraced]
        )
        metrics = tracer.layer_metrics(
            set(traced_ids), _head_macs(dcq, workload.cfg), workload.checkpoint_bytes, overhead_s
        )
        metrics.update(probe.head_scaling(dcq, seed))
        trace_dir = work_dir / "traces"
        trace_dir.mkdir(parents=True, exist_ok=True)
        trace_path = trace_dir / f"{name}-seed{seed}.csv.gz"
        tracer.write(trace_path)
        _emit("trace", {"path": str(trace_path.relative_to(work_dir.parent)), "spans": len(tracer.names),
                        "traced_ops": len(traced_ids)})

    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": float(metrics[m["name"]]), "unit": m["unit"]} for m in metric_specs},
    }
