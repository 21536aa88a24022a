"""Command-line front door: config resolution, subcommands, report writing.

Exit codes: 0 on success, 1 on a usage error (bad flags, unknown
subcommand), 2 on a runtime failure (bad config, unwritable path, an array
too large to allocate, diverged training).
"""

from __future__ import annotations

import argparse
import contextlib
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
    run_training,
    save_result_checkpoint,
)

SEED_ENV_VAR = "DCQ_SEED"

# A diverging run ends in TrainingDiverged, one line; numpy's overflow and
# invalid-value warnings on the way there would print lines before it.
QUIET_DIVERGENCE = {"over": "ignore", "invalid": "ignore"}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems must exit 1, not argparse's 2
        raise UsageError(message)


def _format_float(x) -> str:
    # 17 significant digits round-trip float64 exactly
    return format(float(x), ".17g")


def write_metrics(rows: list[dict], path, fmt: str = "csv") -> None:
    """Metrics rows as CSV with a fixed header, or as JSON column arrays."""
    if fmt not in ("csv", "json"):
        raise UsageError(f"format must be csv or json, got {fmt!r}")
    if fmt == "csv":
        lines = [",".join(METRICS_COLUMNS)]
        for row in rows:
            cells = [str(int(row["epoch"]))]
            cells += [_format_float(row[c]) for c in METRICS_COLUMNS[1:]]
            lines.append(",".join(cells))
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")
    else:
        columns = {c: [row[c] for row in rows] for c in METRICS_COLUMNS}
        with open(path, "w") as fh:
            json.dump(columns, fh, indent=2)
            fh.write("\n")


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
    """File config (plain dict or manifest), then overrides, then env seed."""
    data: dict = {}
    if path:
        with open(path) as fh:
            data = json.load(fh)
        if isinstance(data, dict):
            data = data.get("config", data)  # accept a manifest directly
        if not isinstance(data, dict):
            raise ConfigError(f"{path}: config must be a JSON object, got {type(data).__name__}")
    data.update(overrides)
    raw_seed = os.environ.get(SEED_ENV_VAR)
    if "seed" not in data and raw_seed:
        try:
            data["seed"] = int(raw_seed)
        except ValueError:
            raise ConfigError(f"{SEED_ENV_VAR} must be an integer, got {raw_seed!r}") from None
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


def _default_run_dir(base: str, seed: int) -> str:
    stamp = time.strftime("%Y%m%d-%H%M%S")
    candidate = os.path.join(base, f"{stamp}-seed{seed}")
    suffix = 0
    while os.path.exists(candidate):
        suffix += 1
        candidate = os.path.join(base, f"{stamp}-seed{seed}-{suffix}")
    return candidate


@contextlib.contextmanager
def _staged_outputs(out: str):
    """A staging directory whose files are moved into ``out`` when the block succeeds.

    ``out`` is made if missing, and the staging directory ``out/.partial-*``
    inside it. On success each staged file replaces ``out/<name>``, in sorted
    order, and the staging directory is removed. On failure the staging
    directory is removed, or ``out`` if this call made it, so every file
    already in ``out`` stays as it was. An OSError naming a staged file is
    re-raised naming the same file under ``out``.
    """
    created = not os.path.isdir(out)
    os.makedirs(out, exist_ok=True)
    stage = tempfile.mkdtemp(prefix=".partial-", dir=out)
    try:
        yield stage
        for name in sorted(os.listdir(stage)):
            os.replace(os.path.join(stage, name), os.path.join(out, name))
        os.rmdir(stage)
    except BaseException as exc:
        shutil.rmtree(out if created else stage, ignore_errors=True)
        if isinstance(exc, OSError) and str(exc.filename).startswith(stage + os.sep):
            named = os.path.join(out, exc.filename[len(stage) + 1 :])
            raise type(exc)(exc.errno, exc.strerror, named) from exc
        raise


def _cmd_train(args) -> int:
    overrides = _collect_overrides(args.set)
    cfg = load_config(args.config, overrides).resolve()
    run_dir = args.out or _default_run_dir("runs", cfg.seed)
    with _staged_outputs(run_dir) as stage:
        _write_manifest(os.path.join(stage, "manifest.json"), run_dir, cfg, overrides)
        with np.errstate(**QUIET_DIVERGENCE):
            result = run_training(cfg, resume_from=args.resume, checkpoint_dir=stage)
        write_metrics(result.metrics, os.path.join(stage, "metrics.csv"), "csv")
        write_metrics(result.metrics, os.path.join(stage, "metrics.json"), "json")
        save_result_checkpoint(os.path.join(stage, "final.ckpt"), result)
    summary = {k: v for k, v in result.final_eval.items() if v is not None}
    print(json.dumps({"run_dir": run_dir, "final": summary}, indent=2))
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
            rows = evalbench.run_experiment_grid(cfg, args.axis, values)
        header = ["axis", "value", "ver_acc", "id_rank1", "tail_rank1", "head_rank1", "tail_probes"]
        lines = [",".join(header)]
        for row in rows:
            cells = [row["axis"], json.dumps(row["value"])]
            for key in header[2:]:
                value = row.get(key)
                cells.append("" if value is None else _format_float(value))
            lines.append(",".join(cells))
        with open(os.path.join(stage, "results.csv"), "w") as fh:
            fh.write("\n".join(lines) + "\n")
        with open(os.path.join(stage, "results.json"), "w") as fh:
            json.dump({"config": cfg.to_dict(), "rows": rows}, fh, indent=2)
            fh.write("\n")
    print(json.dumps([{k: r[k] for k in ("value", "ver_acc", "id_rank1")} for r in rows], indent=2))
    return 0


def _cmd_eval(args) -> int:
    result = load_result_checkpoint(args.checkpoint)
    scores = evalbench.evaluate_protocol(result.extractor, result.protocol, result.counts)
    report = {"checkpoint": args.checkpoint, "method": result.config.method, **scores}
    if isinstance(result.head, CosFaceHead):
        alignment = evalbench.tail_alignment_diagnostic(
            result.head.W.data, result.universe, result.counts,
            result.extractor, class_ids=result.head.retained_ids,
        )
        report["head_alignment"] = alignment.mean_cosine
    text = json.dumps(report, indent=2)
    if args.out:
        with replace_on_success(args.out) as fh:
            fh.write(f"{text}\n".encode())
    print(text)
    return 0


def _cmd_bench(args) -> int:
    params = {"C": 2000, "K": 200, "D": 32, "B": 32, "bytes_per_float": 4}
    overrides = _collect_overrides(args.set)
    unknown = set(overrides) - set(params)
    if unknown:
        raise UsageError(f"bench accepts --set keys {sorted(params)}, got {sorted(unknown)}")
    params.update(overrides)
    full = evalbench.head_cost_report("full", **params)
    dcq = evalbench.head_cost_report("dcq", **params)
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
    p.add_argument("--out", help="run directory (default: runs/<stamp>-seed<seed>)")
    p.add_argument("--resume", help="checkpoint to continue from")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("gen-data", help="materialize a synthetic dataset")
    add_config_args(p)
    p.add_argument("--out", required=True, help="output dataset file")
    p.set_defaults(func=_cmd_gen_data)

    p = sub.add_parser("sweep", help="train one model per value of a config axis")
    add_config_args(p)
    p.add_argument("--axis", required=True, choices=evalbench.GRID_AXES)
    p.add_argument("--values", required=True, help="comma-separated axis values")
    p.add_argument("--out", required=True, help="results directory")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("eval", help="compute metrics from a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--out", help="optional JSON report path")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("bench", help="head memory/compute accounting")
    p.add_argument("--set", action="append", metavar="KEY=VALUE",
                   help="override C, K, D, B or bytes_per_float")
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
