"""Command-line front door: config resolution, subcommands, report writing.

Exit codes: 0 on success, 1 on a usage error (bad flags, unknown
subcommand), 2 on a runtime failure (bad config, unwritable path, an array
too large to allocate, diverged training).
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import os
import shutil
import sys
import tempfile
import time
from dataclasses import asdict

import numpy as np

from . import __version__, evalbench
from .checkpoint import replace_on_success
from .errors import ConfigError, DcqError, UsageError
from .synthdata import LongTailSpec, assign_longtail_counts, build_universe, write_dataset
from .trainer import (
    METRICS_COLUMNS,
    CosFaceHead,
    TrainConfig,
    load_result_checkpoint,
    run_experiment_grid,
    run_training,
    save_result_checkpoint,
)

# A diverging run ends in TrainingDiverged, one line; numpy's overflow and
# invalid-value warnings on the way there would print lines before it.
QUIET_DIVERGENCE = {"over": "ignore", "invalid": "ignore"}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems must exit 1, not argparse's 2
        raise UsageError(message)


def _write_csv(path, columns, rows) -> None:
    # csv writes a float as its repr, which round-trips float64 exactly
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, columns, lineterminator="\n", extrasaction="ignore")
        writer.writeheader()
        writer.writerows(rows)


def write_metrics(rows: list[dict], run_dir) -> None:
    """The rows as ``metrics.csv`` in run_dir, one per epoch under a fixed header."""
    _write_csv(os.path.join(run_dir, "metrics.csv"), METRICS_COLUMNS, rows)


def _parse_set_value(raw: str):
    try:
        return json.loads(raw)
    except ValueError:
        return raw  # bare strings like method=dcq


def _collect_overrides(pairs: list[str]) -> dict:
    out = {}
    for pair in pairs or []:
        if "=" not in pair:
            raise UsageError(f"--set expects key=value, got {pair!r}")
        key, _, raw = pair.partition("=")
        out[key.strip()] = _parse_set_value(raw.strip())
    return out


def load_config(path: str | None, overrides: dict) -> TrainConfig:
    """File config (plain dict or manifest), then overrides."""
    data: dict = {}
    if path:
        with open(path) as fh:
            try:
                data = json.load(fh)
            except ValueError as exc:  # UnicodeDecodeError is one too
                raise ConfigError(f"{path}: {exc}") from None
        if isinstance(data, dict):
            data = data.get("config", data)  # accept a manifest directly
        if not isinstance(data, dict):
            raise ConfigError(f"{path}: config must be a JSON object, got {type(data).__name__}")
    data.update(overrides)
    return TrainConfig.from_dict(data)


def _write_manifest(path: str, run_dir: str, cfg: TrainConfig, overrides: dict) -> None:
    manifest = {
        "tool_version": __version__,
        "created_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "output_dir": os.path.abspath(run_dir),
        "seed": cfg.seed,
        "overrides": overrides,
        "config": cfg.to_dict(),
    }
    with open(path, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


@contextlib.contextmanager
def _staged_outputs(out: str):
    """A staging directory whose files are moved into ``out`` when the block succeeds.

    ``out`` is resolved lexically, as ``os.path.abspath`` does, and made if
    missing, with its missing parents, and the staging directory
    ``out/.partial-*`` inside it. On success each staged file replaces
    ``out/<name>``, in sorted order, and the staging directory is removed.
    On failure the staging directory is removed, or the highest directory
    this call made, so every file already there stays as it was. An OSError
    naming a staged file is re-raised naming the same file under ``out``.
    """
    path = os.path.abspath(out)
    made, head = None, path
    while not os.path.lexists(head):
        made, head = head, os.path.dirname(head)
    os.makedirs(path, exist_ok=True)
    stage = tempfile.mkdtemp(prefix=".partial-", dir=path)
    try:
        yield stage
        for name in sorted(os.listdir(stage)):
            os.replace(os.path.join(stage, name), os.path.join(path, name))
        os.rmdir(stage)
    except BaseException as exc:
        shutil.rmtree(made or stage, ignore_errors=True)
        if isinstance(exc, OSError) and str(exc.filename).startswith(stage + os.sep):
            named = os.path.join(out, exc.filename[len(stage) + 1 :])
            raise type(exc)(exc.errno, exc.strerror, named) from exc
        raise


def _cmd_train(args) -> int:
    overrides = _collect_overrides(args.set)
    cfg = load_config(args.config, overrides).resolve()
    with _staged_outputs(args.out) as stage:
        _write_manifest(os.path.join(stage, "manifest.json"), args.out, cfg, overrides)
        with np.errstate(**QUIET_DIVERGENCE):
            result = run_training(cfg, resume_from=args.resume, checkpoint_dir=stage)
        write_metrics(result.metrics, stage)
        save_result_checkpoint(os.path.join(stage, "final.ckpt"), result)
    summary = {k: v for k, v in result.final_eval.items() if v is not None}
    print(json.dumps({"run_dir": args.out, "final": summary}, indent=2))
    return 0


def _cmd_gen_data(args) -> int:
    overrides = _collect_overrides(args.set)
    cfg = load_config(args.config, overrides).resolve()
    universe = build_universe(cfg.n_classes, cfg.d_in, cfg.sigma, cfg.seed)
    counts = assign_longtail_counts(
        LongTailSpec(cfg.zipf_exponent, cfg.min_count, cfg.max_count), cfg.n_classes
    )
    summary = write_dataset(args.out, universe, counts)
    print(json.dumps(summary, indent=2, sort_keys=True))
    return 0


def _cmd_sweep(args) -> int:
    overrides = _collect_overrides(args.set)
    cfg = load_config(args.config, overrides)
    values = [_parse_set_value(v) for v in args.values.split(",")]
    with _staged_outputs(args.out) as stage:
        with np.errstate(**QUIET_DIVERGENCE):
            rows = run_experiment_grid(cfg, args.axis, values)
        header = ["axis", "value", "ver_acc", "id_rank1", "tail_rank1", "head_rank1", "tail_probes"]
        cells = ({**row, "value": json.dumps(row["value"])} for row in rows)
        _write_csv(os.path.join(stage, "results.csv"), header, cells)
        with open(os.path.join(stage, "results.json"), "w") as fh:
            json.dump({"config": cfg.to_dict(), "rows": rows}, fh, indent=2)
            fh.write("\n")
    print(json.dumps([{k: r[k] for k in ("value", "ver_acc", "id_rank1")} for r in rows], indent=2))
    return 0


def _cmd_eval(args) -> int:
    result = load_result_checkpoint(args.checkpoint)
    scores = evalbench.evaluate_protocol(result.extractor, result.protocol)
    report = {"checkpoint": args.checkpoint, "method": result.config.method, **scores}
    if isinstance(result.head, CosFaceHead):
        alignment = evalbench.tail_alignment_diagnostic(
            result.head.W.data, result.universe, result.counts, result.extractor
        )
        report["head_alignment"] = alignment.mean_cosine
    text = json.dumps(report, indent=2)
    if args.out:
        with replace_on_success(args.out) as fh:
            fh.write(f"{text}\n".encode())
    print(text)
    return 0


def _cmd_bench(args) -> int:
    cfg = load_config(args.config, _collect_overrides(args.set)).resolve()
    sizes = (cfg.n_classes, cfg.K, cfg.embed_dim, cfg.B)
    full = evalbench.head_cost_report("full", *sizes)
    dcq = evalbench.head_cost_report("dcq", *sizes)
    report = {
        "full": asdict(full),
        "dcq": asdict(dcq),
        "param_bytes_ratio": dcq.param_bytes_ratio,
    }
    print(json.dumps(report, indent=2))
    return 0


def _cmd_gradcheck(args) -> int:
    from .gradcheck import run_gradient_suite

    if args.configs < 1:
        raise UsageError(f"--configs must be >= 1, got {args.configs}")
    results = run_gradient_suite(n_configs=args.configs, seed=args.seed)
    worst = max(err for _, err in results)
    for name, err in results:
        print(f"{name}: max relative error {err:.3e}")
    print(f"worst: {worst:.3e} (tolerance 1e-5)")
    return 0 if worst <= 1e-5 else 2


def build_parser() -> _Parser:
    parser = _Parser(prog="dcq", description=__doc__)
    sub = parser.add_subparsers(dest="command")

    def add_config_args(p):
        p.add_argument("--config", help="JSON config file (or a manifest.json)")
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override a config field; repeatable")

    p = sub.add_parser("train", help="run one training job")
    add_config_args(p)
    p.add_argument("--out", required=True, help="run directory")
    p.add_argument("--resume", help="checkpoint to continue from")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("gen-data", help="materialize a synthetic dataset")
    add_config_args(p)
    p.add_argument("--out", required=True, help="output dataset file")
    p.set_defaults(func=_cmd_gen_data)

    p = sub.add_parser("sweep", help="train one model per value of a config axis")
    add_config_args(p)
    p.add_argument("--axis", required=True, help="the config field to vary")
    p.add_argument("--values", required=True, help="comma-separated axis values")
    p.add_argument("--out", required=True, help="results directory")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("eval", help="compute metrics from a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--out", help="optional JSON report path")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("bench", help="head memory/compute accounting")
    add_config_args(p)
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("gradcheck", help="finite-difference gradient suite")
    p.add_argument("--configs", type=int, default=20)
    p.add_argument("--seed", type=int, default=1)
    p.set_defaults(func=_cmd_gradcheck)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "command", None) is None:
            parser.print_help(sys.stderr)
            return 1
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (DcqError, OSError, ValueError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
