import csv
import errno
import json
import os
import shlex
import struct
import subprocess
import sys
import warnings
import zlib
from pathlib import Path

import numpy as np
import pytest

from dcq import checkpoint, cli, synthdata, trainer
from dcq.checkpoint import load_checkpoint, save_checkpoint
from dcq.errors import ConfigError

TINY_CONFIG = {
    "method": "dcq", "n_classes": 12, "epochs": 2, "B": 8, "K": 8,
    "sigma": 0.05, "d_in": 8, "embed_dim": 8, "hidden_dims": [16],
    "min_count": 2, "max_count": 10, "zipf_exponent": 1.0,
    "eval_pairs": 40, "eval_probes": 10, "eval_distractors": 5, "decay_epochs": [1],
    "seed": 3,
}


CONFIGS = Path(__file__).resolve().parents[1] / "configs"
README = Path(__file__).resolve().parents[1] / "README.md"


def _write_config(tmp_path, **extra):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({**TINY_CONFIG, **extra}))
    return str(path)


def _read_csv(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


def _rows_without_wall(path):
    return [
        {k: v for k, v in row.items() if k != "wall_seconds"} for row in _read_csv(path)
    ]


class TestBench:
    def test_reference_ratio(self, capsys):
        argv = ["bench", "--set", "n_classes=642962", "--set", "K=65536", "--set", "embed_dim=512"]
        assert cli.main(argv) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["param_bytes_ratio"] == pytest.approx(0.10193, abs=5e-6)
        assert report["full"]["head_param_bytes"] == 1_316_786_176
        assert report["dcq"]["head_param_bytes"] == 134_217_728
        assert report["dcq"]["optimizer_state_bytes"] == 0

    def test_desk_config_is_the_default_report(self, capsys):
        assert cli.main(["bench"]) == 0
        default = capsys.readouterr().out
        assert cli.main(["bench", "--config", str(CONFIGS / "desk.json")]) == 0
        assert capsys.readouterr().out == default
        full = json.loads(default)["full"]
        sizes = ("class_count", "queue_size", "embed_dim", "batch_size", "bytes_per_float")
        assert [full[k] for k in sizes] == [2000, 200, 32, 32, 4]

    def test_unknown_bench_key(self, capsys):
        assert cli.main(["bench", "--set", "classes=10"]) == 2
        assert capsys.readouterr().err == "error: unknown config fields: ['classes']\n"

    @pytest.mark.parametrize("value", ["abc", "[1]", "2.5", "true"])
    def test_non_int_size_is_a_one_line_error(self, capsys, value):
        assert cli.main(["bench", "--set", f"n_classes={value}"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: n_classes must be int") and err.count("\n") == 1, err


class TestUsage:
    def test_no_arguments_prints_help_and_exits_1(self, capsys):
        assert cli.main([]) == 1
        assert "usage" in capsys.readouterr().err.lower()

    def test_unknown_subcommand(self, capsys):
        assert cli.main(["conquer"]) == 1

    def test_unknown_flag(self, capsys):
        assert cli.main(["bench", "--frobnicate"]) == 1

    def test_bad_set_syntax(self, capsys):
        assert cli.main(["bench", "--set", "C"]) == 1


def _readme_cli_lines() -> list[str]:
    """The ``dcq …`` lines of the shell block under the README's ``## CLI`` heading."""
    section = README.read_text().split("\n## CLI\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    return [line.split("#", 1)[0].strip() for line in block.splitlines() if line.startswith("dcq ")]


def _readme_dataset_snippet() -> str:
    """The python block after "With numpy:" in the README's account of ``dcq gen-data``."""
    return README.read_text().split("With numpy:\n", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]


class TestReadmeExamples:
    def test_the_block_has_every_command(self):
        commands = {line.split()[1] for line in _readme_cli_lines()}
        assert commands == {"train", "gen-data", "sweep", "eval", "bench", "gradcheck"}

    @pytest.mark.parametrize("line", _readme_cli_lines())
    def test_line_parses_and_names_config_fields(self, line):
        args = cli.build_parser().parse_args(shlex.split(line)[1:])
        overrides = cli._collect_overrides(getattr(args, "set", None))
        trainer.TrainConfig().replace(**overrides)
        if args.command == "sweep":  # the axis names a config field too
            trainer.TrainConfig().replace(**{args.axis: None})

    def test_dataset_snippet_reads_what_gen_data_wrote(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        config = _write_config(tmp_path)
        assert cli.main(["gen-data", "--config", config, "--out", "data.dcqd"]) == 0
        namespace = {}
        exec(_readme_dataset_snippet(), namespace)
        universe = synthdata.build_universe(12, 8, 0.05, 3)
        counts = synthdata.assign_longtail_counts(synthdata.LongTailSpec(1.0, 2, 10), 12)
        header = [namespace[k] for k in ("magic", "version", "C", "d_in", "total")]
        assert header == [b"DCQD", 1, 12, 8, counts.sum()]
        records = namespace["records"]
        assert records["ident"].tolist() == np.repeat(np.arange(12), counts).tolist()
        assert records["index"].tolist() == [k for n in counts for k in range(n)]
        for ident, index, x in records[[0, 1, -2, -1]]:
            np.testing.assert_array_equal(x, synthdata.draw_instance(universe, int(ident), int(index)))


class TestTrain:
    def test_run_directory_contents(self, tmp_path, capsys):
        config = _write_config(tmp_path)
        out = tmp_path / "run1"
        assert cli.main(["train", "--config", config, "--out", str(out)]) == 0
        assert sorted(p.name for p in out.iterdir()) == ["final.ckpt", "manifest.json", "metrics.csv"]
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["seed"] == 3
        assert manifest["config"]["method"] == "dcq"
        assert manifest["config"]["s"] == 50.0  # resolved defaults recorded

    def test_identical_runs_identical_metrics(self, tmp_path):
        config = _write_config(tmp_path)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert cli.main(["train", "--config", config, "--out", str(out1)]) == 0
        assert cli.main(["train", "--config", config, "--out", str(out2)]) == 0
        # every model-derived column is byte-identical; wall_seconds is
        # environmental and excluded
        assert _rows_without_wall(out1 / "metrics.csv") == _rows_without_wall(out2 / "metrics.csv")

    def test_rerun_from_manifest_reproduces(self, tmp_path):
        config = _write_config(tmp_path)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        cli.main(["train", "--config", config, "--out", str(out1)])
        code = cli.main(["train", "--config", str(out1 / "manifest.json"), "--out", str(out2)])
        assert code == 0
        assert _rows_without_wall(out1 / "metrics.csv") == _rows_without_wall(out2 / "metrics.csv")

    def test_set_overrides_applied_and_recorded(self, tmp_path):
        config = _write_config(tmp_path)
        out = tmp_path / "run"
        cli.main(["train", "--config", config, "--out", str(out), "--set", "epochs=1"])
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["overrides"] == {"epochs": 1}
        assert manifest["config"]["epochs"] == 1
        assert len(_read_csv(out / "metrics.csv")) == 1

    def test_failed_run_leaves_no_artifacts(self, tmp_path):
        config = _write_config(tmp_path, lr0=1e160)  # diverges
        out = tmp_path / "boom"
        with np.errstate(all="ignore"):
            code = cli.main(["train", "--config", config, "--out", str(out)])
        assert code == 2
        assert not out.exists()

    def test_failed_run_in_existing_dir_removes_only_artifacts(self, tmp_path):
        out = tmp_path / "keep"
        out.mkdir()
        (out / "notes.txt").write_text("mine")
        config = _write_config(tmp_path, lr0=1e160)
        with np.errstate(all="ignore"):
            assert cli.main(["train", "--config", config, "--out", str(out)]) == 2
        assert (out / "notes.txt").exists()
        assert not (out / "manifest.json").exists()

    def test_diverged_run_prints_one_line(self, tmp_path, capsys):
        # numpy's floating-point warnings become errors here, so one that
        # escaped the command would fail the run instead of printing
        config = _write_config(tmp_path)
        out = tmp_path / "boom"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli.main(["train", "--config", config, "--set", "lr0=1e300", "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: non-finite loss") and err.count("\n") == 1, err
        assert not out.exists()

    def test_failed_run_in_existing_dir_keeps_it_as_it_was(self, tmp_path, capsys, monkeypatch):
        out = tmp_path / "keep"
        out.mkdir()
        (out / "notes.txt").write_text("mine")
        (out / "epoch_001.ckpt").write_bytes(b"an earlier checkpoint")

        def failing_write_metrics(rows, run_dir):
            raise MemoryError("no room for the metrics")

        # writing the metrics fails after training and both periodic saves
        monkeypatch.setattr(cli, "write_metrics", failing_write_metrics)
        config = _write_config(tmp_path, checkpoint_every=1, epochs=2)
        assert cli.main(["train", "--config", config, "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: no room for the metrics\n"
        kept = {p.name: p.read_bytes() for p in out.iterdir()}
        assert kept == {"notes.txt": b"mine", "epoch_001.ckpt": b"an earlier checkpoint"}

    def test_failed_resume_into_its_own_dir_keeps_the_resumed_checkpoint(self, tmp_path, monkeypatch):
        out = tmp_path / "run"
        config = _write_config(tmp_path, checkpoint_every=2, epochs=4)
        assert cli.main(["train", "--config", config, "--out", str(out)]) == 0
        earlier = {p.name: p.read_bytes() for p in out.iterdir()}
        assert sorted(earlier) == [
            "epoch_002.ckpt", "epoch_004.ckpt", "final.ckpt", "manifest.json", "metrics.csv",
        ]

        def failing_save(path, result):
            raise MemoryError("no room for the final checkpoint")

        # the resumed run writes its manifest, epoch_004.ckpt and its
        # metrics before the final save fails
        monkeypatch.setattr(cli, "save_result_checkpoint", failing_save)
        resume = str(out / "epoch_002.ckpt")
        code = cli.main(["train", "--config", config, "--out", str(out), "--resume", resume])
        assert code == 2
        assert {p.name: p.read_bytes() for p in out.iterdir()} == earlier

    def test_failed_rerun_keeps_the_earlier_run_outputs_it_did_not_write(self, tmp_path):
        config = _write_config(tmp_path)
        out = tmp_path / "run"
        assert cli.main(["train", "--config", config, "--out", str(out)]) == 0
        earlier = {p.name: p.read_bytes() for p in out.iterdir()}
        assert sorted(earlier) == ["final.ckpt", "manifest.json", "metrics.csv"]
        with np.errstate(all="ignore"):
            code = cli.main(["train", "--config", config, "--out", str(out), "--set", "lr0=1e300"])
        assert code == 2
        # the diverged run wrote its manifest into the staging directory only
        assert {p.name: p.read_bytes() for p in out.iterdir()} == earlier

    def test_failed_final_save_keeps_the_earlier_final_checkpoint(self, tmp_path, monkeypatch):
        config = _write_config(tmp_path)
        out = tmp_path / "run"
        assert cli.main(["train", "--config", config, "--out", str(out)]) == 0
        earlier = {p.name: p.read_bytes() for p in out.iterdir()}
        assert len(earlier) == 3

        def failing_replace(src, dst):
            raise OSError(f"cannot replace {dst}")

        monkeypatch.setattr(checkpoint.os, "replace", failing_replace)
        assert cli.main(["train", "--config", config, "--out", str(out)]) == 2
        # the failed save leaves no final.ckpt.tmp, and the staged manifest
        # and metrics go with the staging directory
        assert {p.name: p.read_bytes() for p in out.iterdir()} == earlier

    def test_failed_staged_write_names_the_file_under_out(self, tmp_path, capsys, monkeypatch):
        out = tmp_path / "run"

        def full_disk(rows, run_dir):
            path = os.path.join(run_dir, "metrics.csv")
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), path)

        monkeypatch.setattr(cli, "write_metrics", full_disk)
        assert cli.main(["train", "--config", _write_config(tmp_path), "--out", str(out)]) == 2
        named = str(out / "metrics.csv")
        assert capsys.readouterr().err == f"error: [Errno 28] {os.strerror(errno.ENOSPC)}: {named!r}\n"
        assert not out.exists()

    def test_failed_move_keeps_the_files_moved_before_it(self, tmp_path, capsys):
        out = tmp_path / "run"
        out.mkdir()
        (out / "metrics.csv").mkdir()  # the staged metrics.csv cannot replace a directory
        assert cli.main(["train", "--config", _write_config(tmp_path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: [Errno 21] ") and err.endswith(f"{str(out / 'metrics.csv')!r}\n"), err
        # the moves go in sorted order, so final.ckpt and manifest.json came first
        assert sorted(p.name for p in out.iterdir()) == ["final.ckpt", "manifest.json", "metrics.csv"]

    def test_killed_run_leaves_its_staged_files_to_resume_from(self, tmp_path):
        config = _write_config(tmp_path, checkpoint_every=1, epochs=3)
        full, out, resumed = tmp_path / "full", tmp_path / "run", tmp_path / "resumed"
        assert cli.main(["train", "--config", config, "--out", str(full)]) == 0
        out.mkdir()
        (out / "notes.txt").write_text("mine")
        # the process dies, as under SIGKILL, right after the first periodic save
        script = (
            "import os, sys\n"
            "from dcq import cli, trainer\n"
            "real = trainer.save_result_checkpoint\n"
            "def save_then_die(path, result):\n"
            "    real(path, result)\n"
            "    os._exit(9)\n"
            "trainer.save_result_checkpoint = save_then_die\n"
            "sys.exit(cli.main(sys.argv[1:]))\n"
        )
        src = os.path.dirname(os.path.dirname(cli.__file__))
        proc = subprocess.run(
            [sys.executable, "-c", script, "train", "--config", config, "--out", str(out)],
            env={**os.environ, "PYTHONPATH": src}, capture_output=True, timeout=120,
        )
        assert proc.returncode == 9, proc.stderr
        (stage,) = [p for p in out.iterdir() if p.name != "notes.txt"]
        assert stage.name.startswith(".partial-")
        assert sorted(p.name for p in stage.iterdir()) == ["epoch_001.ckpt", "manifest.json"]
        assert (out / "notes.txt").read_text() == "mine"
        code = cli.main([
            "train", "--config", str(stage / "manifest.json"), "--out", str(resumed),
            "--resume", str(stage / "epoch_001.ckpt"),
        ])
        assert code == 0
        assert _rows_without_wall(resumed / "metrics.csv") == _rows_without_wall(full / "metrics.csv")[1:]
        assert (resumed / "final.ckpt").read_bytes() == (full / "final.ckpt").read_bytes()

    def test_unwritable_out_is_runtime_failure(self, tmp_path):
        config = _write_config(tmp_path)
        target = tmp_path / "file"
        target.write_text("x")  # makedirs onto a file fails
        assert cli.main(["train", "--config", config, "--out", str(target)]) == 2

    def test_out_is_required(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)  # a default run directory would land here
        config = _write_config(tmp_path)
        assert cli.main(["train", "--config", config]) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error: ") and "--out" in err and err.count("\n") == 1, err
        assert [p.name for p in tmp_path.iterdir()] == ["config.json"]

    def test_resume_pipeline(self, tmp_path):
        config = _write_config(tmp_path, epochs=4, checkpoint_every=2)
        out1 = tmp_path / "full"
        cli.main(["train", "--config", config, "--out", str(out1)])
        out2 = tmp_path / "resumed"
        code = cli.main([
            "train", "--config", config, "--out", str(out2),
            "--resume", str(out1 / "epoch_002.ckpt"),
        ])
        assert code == 0
        full_rows = _rows_without_wall(out1 / "metrics.csv")
        resumed_rows = _rows_without_wall(out2 / "metrics.csv")
        assert resumed_rows == full_rows[2:]

    def test_resume_names_the_fields_that_differ(self, tmp_path, capsys):
        config = _write_config(tmp_path, epochs=4, checkpoint_every=2)
        out1, out2 = tmp_path / "full", tmp_path / "resumed"
        assert cli.main(["train", "--config", config, "--out", str(out1)]) == 0
        code = cli.main([
            "train", "--config", config, "--out", str(out2), "--set", "epochs=3",
            "--set", "checkpoint_every=1", "--resume", str(out1 / "epoch_002.ckpt"),
        ])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: checkpoint config differs from the requested config in"
            " ['epochs', 'checkpoint_every']\n"
        )
        assert not out2.exists()


class TestSeedEnvVar:
    """The seed comes from the config file or ``--set seed=N`` alone."""

    def test_dcq_seed_in_the_environment_changes_nothing(self, tmp_path, monkeypatch):
        data = {k: v for k, v in TINY_CONFIG.items() if k != "seed"}
        config = tmp_path / "c.json"
        config.write_text(json.dumps(data))
        out = tmp_path / "out"
        monkeypatch.setenv("DCQ_SEED", "abc")
        assert cli.main(["train", "--config", str(config), "--out", str(out)]) == 0
        assert json.loads((out / "manifest.json").read_text())["seed"] == 1

    @pytest.mark.parametrize("value", ["-1", str(2**64)])
    def test_seed_outside_64_bits_is_a_one_line_error(self, tmp_path, capsys, value):
        out = tmp_path / "out"
        code = cli.main(["train", "--config", _write_config(tmp_path), "--set", f"seed={value}",
                         "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert err == f"error: seed must lie in [0, 2**64), got {value}\n", err
        assert not out.exists()


def _config_file_error(tmp_path, capsys, command: str, content: bytes) -> str:
    """Run ``command`` on a config file holding ``content``; return its one-line error."""
    config = tmp_path / "config.json"
    config.write_bytes(content)
    out = tmp_path / "out"
    argv = [command, "--config", str(config), "--out", str(out)]
    if command == "sweep":
        argv += ["--axis", "alpha", "--values", "0.9"]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1, err
    assert not out.exists()
    return err


class TestConfigNotJson:
    @pytest.mark.parametrize("content", [b"", b'{"seed": 1', b"\xff"], ids=["empty", "truncated", "not-utf8"])
    @pytest.mark.parametrize("command", ["train", "gen-data", "sweep"])
    def test_one_line_error_naming_the_file(self, tmp_path, capsys, command, content):
        err = _config_file_error(tmp_path, capsys, command, content)
        assert err.startswith(f"error: {tmp_path / 'config.json'}: "), err


class TestConfigNotAnObject:
    @pytest.mark.parametrize(
        "content", ['[1, 2]', '"x"', '{"config": null}', '{"config": [1]}', '{"config": "ab"}']
    )
    @pytest.mark.parametrize("command", ["train", "gen-data", "sweep"])
    def test_one_line_error(self, tmp_path, capsys, command, content):
        err = _config_file_error(tmp_path, capsys, command, content.encode())
        assert err.startswith(f"error: {tmp_path / 'config.json'}: config must be a JSON object"), err


class TestRetiredConfigField:
    @pytest.mark.parametrize("source", ["config", "manifest"])
    def test_train_with_n_reserved_is_a_one_line_error(self, tmp_path, capsys, source):
        config = {**TINY_CONFIG, "n_reserved": 8}
        path = tmp_path / f"{source}.json"
        path.write_text(json.dumps(config if source == "config" else {"config": config}))
        out = tmp_path / "run"
        code = cli.main(["train", "--config", str(path), "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert err == "error: unknown config fields: ['n_reserved']\n", err
        assert not out.exists()


class TestGenData:
    def test_writes_dataset_and_summary(self, tmp_path, capsys):
        config = _write_config(tmp_path)
        out = tmp_path / "data.dcqd"
        assert cli.main(["gen-data", "--config", config, "--out", str(out)]) == 0
        assert out.exists() and (tmp_path / "data.dcqd.json").exists()
        summary = json.loads(capsys.readouterr().out)
        assert summary["identities"] == 12
        _, _, n_classes, d_in, _ = struct.unpack_from("<4sIIII", out.read_bytes())
        assert n_classes == 12 and d_in == 8

    @pytest.mark.parametrize("value", ["NaN", "Infinity"])
    def test_non_finite_zipf_exponent(self, tmp_path, capsys, value):
        config = _write_config(tmp_path)
        out = tmp_path / "data.dcqd"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli.main(
                ["gen-data", "--config", config, "--set", f"zipf_exponent={value}", "--out", str(out)]
            )
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: zipf exponent must be finite") and err.count("\n") == 1, err
        assert not out.exists()

    def test_class_count_too_large_to_allocate(self, tmp_path, capsys):
        # the u32 bound on the universe rejects it before numpy allocates anything
        out = tmp_path / "data.dcqd"
        code = cli.main([
            "gen-data", "--config", _write_config(tmp_path),
            "--set", "n_classes=1000000000000000", "--out", str(out),
        ])
        err = capsys.readouterr().err
        assert code == 2
        assert err == "error: n_classes + eval_distractors must be < 2**32, got 1000000000000000 + 5\n"
        assert not out.exists()

    def test_universe_beyond_u32_identities_writes_nothing(self, tmp_path, capsys):
        # numpy's arange is empty at this size: the command wrote a 20-byte dataset with C=0
        out = tmp_path / "X"
        code = cli.main([
            "gen-data", "--set", "n_classes=9223372036854775807", "--set", "eval_probes=1",
            "--out", str(out),
        ])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: n_classes + eval_distractors") and err.count("\n") == 1, err
        assert list(tmp_path.iterdir()) == []

    def test_failed_write_leaves_existing_out_untouched(self, tmp_path, capsys, monkeypatch):
        # 621 records: the draw fails on the second of three blocks
        out = tmp_path / "data.dcqd"
        out.write_bytes(b"an earlier dataset")
        real_draw, calls = synthdata.InstanceRows.draw, []

        def failing_draw(rows, lo, hi):
            calls.append((lo, hi))
            if len(calls) > 1:
                raise MemoryError("no room for the block")
            return real_draw(rows, lo, hi)

        monkeypatch.setattr(synthdata.InstanceRows, "draw", failing_draw)
        code = cli.main([
            "gen-data", "--config", _write_config(tmp_path), "--set", "max_count=200",
            "--out", str(out),
        ])
        err = capsys.readouterr().err
        assert code == 2
        assert err == "error: no room for the block\n"
        assert calls == [(0, 207), (207, 414)]
        assert out.read_bytes() == b"an earlier dataset"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json", "data.dcqd"]

    def test_failed_rename_keeps_the_earlier_dataset_and_summary(self, tmp_path, capsys, monkeypatch):
        out = tmp_path / "data.dcqd"
        out.write_bytes(b"an earlier dataset")
        (tmp_path / "data.dcqd.json").write_text("an earlier summary")

        def failing_replace(src, dst):
            raise OSError(errno.EIO, "cannot rename", src)

        monkeypatch.setattr(checkpoint.os, "replace", failing_replace)
        code = cli.main(["gen-data", "--config", _write_config(tmp_path), "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == f"error: [Errno 5] cannot rename: '{out}'\n"
        assert out.read_bytes() == b"an earlier dataset"
        assert (tmp_path / "data.dcqd.json").read_text() == "an earlier summary"
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "config.json", "data.dcqd", "data.dcqd.json",
        ]

    def test_existing_directory_out_leaves_no_summary(self, tmp_path, capsys):
        out = tmp_path / "data"
        out.mkdir()
        assert cli.main(["gen-data", "--config", _write_config(tmp_path), "--out", str(out)]) == 2
        assert capsys.readouterr().err.count("\n") == 1
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json", "data"]
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("earlier", [True, False])
    def test_directory_at_summary_path_writes_nothing(self, tmp_path, capsys, earlier):
        out = tmp_path / "data.dcqd"
        (tmp_path / "data.dcqd.json" / "inner").mkdir(parents=True)
        if earlier:
            out.write_bytes(b"an earlier dataset")
        code = cli.main(["gen-data", "--config", _write_config(tmp_path), "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == f"error: [Errno 21] Is a directory: '{out}.json'\n"
        if earlier:
            assert out.read_bytes() == b"an earlier dataset"
        else:
            assert not out.exists()
        assert sorted(p.name for p in tmp_path.iterdir()) == (
            ["config.json"] + ["data.dcqd"] * earlier + ["data.dcqd.json"]
        )

    def test_missing_out_dir_error_names_out(self, tmp_path, capsys):
        out = tmp_path / "missing" / "data.dcqd"
        code = cli.main(["gen-data", "--config", _write_config(tmp_path), "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert err == f"error: [Errno 2] No such file or directory: {str(out)!r}\n", err
        assert ".tmp" not in err


class TestUniverseSize:
    def test_each_command_draws_only_the_identities_it_reads(self, tmp_path, capsys, monkeypatch):
        # a run and dcq eval read the training identities and the eval
        # distractors after them; dcq gen-data reads the training identities
        real, sizes = synthdata.build_universe, []

        def spy(C, *args):
            sizes.append(C)
            return real(C, *args)

        monkeypatch.setattr(trainer, "build_universe", spy)
        monkeypatch.setattr(cli, "build_universe", spy)
        config, run = _write_config(tmp_path), tmp_path / "run"
        assert cli.main(["train", "--config", config, "--out", str(run)]) == 0
        assert cli.main(["eval", "--checkpoint", str(run / "final.ckpt")]) == 0
        assert cli.main(["gen-data", "--config", config, "--out", str(tmp_path / "d.dcqd")]) == 0
        n_classes, n_distractors = TINY_CONFIG["n_classes"], TINY_CONFIG["eval_distractors"]
        assert sizes == [n_classes + n_distractors, n_classes + n_distractors, n_classes]


class TestEval:
    def test_eval_from_checkpoint(self, tmp_path, capsys):
        config = _write_config(tmp_path)
        out = tmp_path / "run"
        cli.main(["train", "--config", config, "--out", str(out)])
        capsys.readouterr()
        code = cli.main(["eval", "--checkpoint", str(out / "final.ckpt")])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["method"] == "dcq"
        assert 0.0 <= report["ver_acc"] <= 1.0
        # matches the final row of the training metrics exactly
        rows = _read_csv(out / "metrics.csv")
        assert float(rows[-1]["ver_acc"]) == report["ver_acc"]
        assert float(rows[-1]["id_rank1"]) == report["id_rank1"]

    def test_report_replaces_out_only_on_success(self, tmp_path, capsys, monkeypatch):
        config = _write_config(tmp_path)
        run, report = tmp_path / "run", tmp_path / "report.json"
        assert cli.main(["train", "--config", config, "--out", str(run)]) == 0
        capsys.readouterr()
        argv = ["eval", "--checkpoint", str(run / "final.ckpt"), "--out", str(report)]
        assert cli.main(argv) == 0
        printed = capsys.readouterr().out
        assert report.read_text() == printed
        report.write_text("an earlier report")

        def failing_replace(src, dst):
            raise OSError(errno.EIO, "cannot rename", src)

        monkeypatch.setattr(checkpoint.os, "replace", failing_replace)
        assert cli.main(argv) == 2
        assert capsys.readouterr().err == f"error: [Errno 5] cannot rename: {str(report)!r}\n"
        assert report.read_text() == "an earlier report"
        assert not (tmp_path / "report.json.tmp").exists()

    def test_missing_checkpoint_is_runtime_failure(self, tmp_path):
        assert cli.main(["eval", "--checkpoint", str(tmp_path / "nope.ckpt")]) == 2

    def test_baseline_checkpoint_reports_head_alignment(self, tmp_path, capsys):
        config = _write_config(tmp_path, method="cosface-full")
        out = tmp_path / "run"
        cli.main(["train", "--config", config, "--out", str(out)])
        capsys.readouterr()
        assert cli.main(["eval", "--checkpoint", str(out / "final.ckpt")]) == 0
        report = json.loads(capsys.readouterr().out)
        assert "head_alignment" in report
        assert all(-1.0 <= v <= 1.0 for v in report["head_alignment"].values())


class TestBadConfigValues:
    def _train_error(self, tmp_path, capsys, setting, **config):
        config = _write_config(tmp_path, **config)
        out = tmp_path / "run"
        code = cli.main(["train", "--config", config, "--set", setting, "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert not out.exists()
        return err

    def test_float_epochs(self, tmp_path, capsys):
        assert "epochs" in self._train_error(tmp_path, capsys, "epochs=2.5")

    def test_string_batch_size(self, tmp_path, capsys):
        assert "B must be int" in self._train_error(tmp_path, capsys, 'B="x"')

    def test_one_training_identity(self, tmp_path, capsys):
        err = self._train_error(tmp_path, capsys, "n_classes=1", eval_probes=1)
        assert "impostor pairs need 2 or more training identities, got 1" in err

    def test_negative_sigma(self, tmp_path, capsys):
        assert "sigma" in self._train_error(tmp_path, capsys, "sigma=-1")

    @pytest.mark.parametrize("setting", ["sigma=1e309", "sigma=NaN"])
    def test_non_finite_sigma(self, tmp_path, capsys, setting):
        assert "sigma must be finite" in self._train_error(tmp_path, capsys, setting)

    @pytest.mark.parametrize("value", ["NaN", "Infinity"])
    def test_non_finite_zipf_exponent(self, tmp_path, capsys, value):
        err = self._train_error(tmp_path, capsys, f"zipf_exponent={value}")
        assert "zipf exponent must be finite and >= 0" in err

    def test_class_count_too_large_to_allocate(self, tmp_path, capsys):
        # the u32 bound on the universe rejects it before numpy allocates anything
        err = self._train_error(tmp_path, capsys, "n_classes=1000000000000000")
        assert err == "error: n_classes + eval_distractors must be < 2**32, got 1000000000000000 + 5\n"

    @pytest.mark.parametrize("command", ["train", "gen-data"])
    @pytest.mark.parametrize("value", [10**20, 2**62])
    def test_count_bound_beyond_float64_integers(self, tmp_path, capsys, command, value):
        # numpy's warnings are errors here, so a cast warning would fail the command
        out = tmp_path / "out"
        argv = [command, "--config", _write_config(tmp_path), "--set", f"max_count={value}"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main([*argv, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: max_count must be at most 2**53, got {value}\n"
        assert not out.exists()

    @pytest.mark.parametrize("method", ["dcq", "cosface-full", "cosface-head-only"])
    @pytest.mark.parametrize("value", ["-1", "0", "NaN", "Infinity"])
    def test_bad_scale(self, tmp_path, capsys, method, value):
        err = self._train_error(tmp_path, capsys, f"s={value}", method=method)
        assert "s must be finite and > 0" in err

    @pytest.mark.parametrize(
        "setting",
        ["lr0=-1", "lr0=0", "lr0=NaN", "lr0=Infinity", "sgd_momentum=-5", "sgd_momentum=1",
         "weight_decay=-1e9", "weight_decay=Infinity", "decay_epochs=[-1]", "checkpoint_every=-1",
         "B=0", "epochs=0", "decay_factor=0", "decay_factor=1.5", "eval_pairs=0", "eval_probes=0"],
    )
    def test_bad_optimizer_value(self, tmp_path, capsys, setting):
        field = setting.partition("=")[0]
        assert field in self._train_error(tmp_path, capsys, setting)


class TestEvalBadCheckpoint:
    def test_checkpoint_without_head_is_a_one_line_error(self, tmp_path, capsys):
        config = _write_config(tmp_path, method="cosface-full")
        out = tmp_path / "run"
        assert cli.main(["train", "--config", config, "--out", str(out)]) == 0
        meta, arrays = load_checkpoint(out / "final.ckpt")
        del arrays["head.W"]
        save_checkpoint(out / "final.ckpt", meta, arrays)
        capsys.readouterr()
        assert cli.main(["eval", "--checkpoint", str(out / "final.ckpt")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and "head.W" in err, err


class TestEvalUnreadableCheckpoint:
    """Checkpoints whose body passes the CRC but cannot be used exit 2 with one line."""

    def _rewritten(self, tmp_path, capsys, rewrite):
        out = tmp_path / "run"
        assert cli.main(["train", "--config", _write_config(tmp_path), "--out", str(out)]) == 0
        path = out / "final.ckpt"
        body = bytearray(path.read_bytes()[:-4])
        rewrite(body)
        path.write_bytes(bytes(body) + struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF))
        capsys.readouterr()
        code = cli.main(["eval", "--checkpoint", str(path)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1, err
        return err

    def test_version_1_file(self, tmp_path, capsys):
        err = self._rewritten(tmp_path, capsys, lambda body: struct.pack_into("<I", body, 4, 1))
        assert "version 1" in err

    def test_trailing_bytes(self, tmp_path, capsys):
        err = self._rewritten(tmp_path, capsys, lambda body: body.extend(bytes(4)))
        assert err == "error: 4 trailing bytes in checkpoint\n"

    def test_block_count_past_the_last_block(self, tmp_path, capsys):
        def one_more_block(body):
            count_at = 12 + struct.unpack_from("<I", body, 8)[0]
            struct.pack_into("<I", body, count_at, struct.unpack_from("<I", body, count_at)[0] + 1)

        assert "malformed" in self._rewritten(tmp_path, capsys, one_more_block)


class TestBadCheckpointMetadata:
    def _damaged(self, tmp_path, capsys, damage, **extra):
        config = _write_config(tmp_path, **extra)
        out = tmp_path / "run"
        assert cli.main(["train", "--config", config, "--out", str(out)]) == 0
        path = out / ("epoch_001.ckpt" if extra else "final.ckpt")
        meta, arrays = load_checkpoint(path)
        damage(meta)
        save_checkpoint(path, meta, arrays)
        capsys.readouterr()
        return config, path

    def _one_line_error(self, capsys, code, word):
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1 and word in err, err

    def test_eval_without_config(self, tmp_path, capsys):
        _, path = self._damaged(tmp_path, capsys, lambda meta: meta.pop("config"))
        self._one_line_error(capsys, cli.main(["eval", "--checkpoint", str(path)]), "config")

    def test_eval_with_retired_n_reserved(self, tmp_path, capsys):
        # checkpoints written before n_reserved was removed carry it
        _, path = self._damaged(tmp_path, capsys, lambda meta: meta["config"].update(n_reserved=8))
        code = cli.main(["eval", "--checkpoint", str(path)])
        self._one_line_error(capsys, code, "n_reserved")

    def test_resume_without_global_step(self, tmp_path, capsys):
        config, path = self._damaged(
            tmp_path, capsys, lambda meta: meta["state"].pop("global_step"), checkpoint_every=1
        )
        out = tmp_path / "resumed"
        code = cli.main(["train", "--config", config, "--out", str(out), "--resume", str(path)])
        self._one_line_error(capsys, code, "global_step")
        assert not out.exists()

    def test_resume_past_the_last_epoch(self, tmp_path, capsys):
        def one_epoch_past_the_end(meta):
            # the damaged file is epoch_001.ckpt, so its global_step is one epoch's steps
            meta["state"]["global_step"] *= meta["config"]["epochs"] + 1

        config, path = self._damaged(tmp_path, capsys, one_epoch_past_the_end, checkpoint_every=1)
        out = tmp_path / "resumed"
        code = cli.main(["train", "--config", config, "--out", str(out), "--resume", str(path)])
        self._one_line_error(capsys, code, "global_step")
        assert not out.exists()


class TestSweep:
    def test_sweep_writes_results(self, tmp_path, capsys):
        config = _write_config(tmp_path, epochs=1)
        out = tmp_path / "sweep"
        code = cli.main([
            "sweep", "--config", config, "--axis", "alpha",
            "--values", "0.9,0.999", "--out", str(out),
        ])
        assert code == 0
        rows = _read_csv(out / "results.csv")
        assert [r["value"] for r in rows] == ["0.9", "0.999"]
        assert list(rows[0]) == [
            "axis", "value", "ver_acc", "id_rank1", "tail_rank1", "head_rank1", "tail_probes"
        ]
        payload = json.loads((out / "results.json").read_text())
        assert len(payload["rows"]) == 2
        assert set(payload["rows"][0]) == {
            "axis", "value", "ver_acc", "ver_threshold", "id_rank1",
            "tail_rank1", "head_rank1", "tail_probes", "epochs",
        }

    def test_bad_last_value_fails_before_any_training(self, tmp_path, capsys, monkeypatch):
        trained = []
        monkeypatch.setattr(trainer, "run_training", lambda cfg: trained.append(cfg.K))
        out = tmp_path / "sweep"
        code = cli.main([
            "sweep", "--config", _write_config(tmp_path), "--axis", "K",
            "--values", "8,9,abc", "--out", str(out),
        ])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: K must be int") and err.count("\n") == 1, err
        assert trained == []
        assert not out.exists()

    def test_failed_sweep_removes_every_directory_it_made(self, tmp_path, capsys):
        out = tmp_path / "a" / "b" / "sweep"
        code = cli.main([
            "sweep", "--config", _write_config(tmp_path), "--axis", "K",
            "--values", "8,abc", "--out", str(out),
        ])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: K must be int")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]

    def test_failed_sweep_through_dotdot_leaves_no_directory(self, tmp_path, capsys, monkeypatch):
        # x/../y/z names y/z, so x is never made, and a failure removes y
        monkeypatch.chdir(tmp_path)
        code = cli.main(["sweep", "--axis", "K", "--values", "abc", "--out", "x/../y/z"])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: K must be int")
        assert list(tmp_path.iterdir()) == []

    def test_string_values_read_back_as_their_json_text(self, tmp_path, capsys):
        out = tmp_path / "sweep"
        code = cli.main([
            "sweep", "--config", _write_config(tmp_path, epochs=1), "--axis", "method",
            "--values", "dcq,cosface-full", "--out", str(out),
        ])
        assert code == 0
        rows = _read_csv(out / "results.csv")
        assert [r["value"] for r in rows] == ['"dcq"', '"cosface-full"']
        assert [json.loads(r["value"]) for r in rows] == ["dcq", "cosface-full"]

    def test_bad_count_profile_fails_before_any_training(self, tmp_path, capsys, monkeypatch):
        trained = []
        monkeypatch.setattr(trainer, "run_training", lambda cfg: trained.append(cfg.zipf_exponent))
        out = tmp_path / "sweep"
        code = cli.main([
            "sweep", "--config", _write_config(tmp_path), "--axis", "zipf_exponent",
            "--values", "1.5,-1", "--out", str(out),
        ])
        err = capsys.readouterr().err
        assert code == 2
        assert err == "error: zipf exponent must be finite and >= 0, got -1\n"
        assert trained == []
        assert not out.exists()

    def test_any_config_field_is_an_axis(self, tmp_path, capsys):
        # the tiny profile gives 4 classes of 3 or more instances and 2 of 5 or more
        config = _write_config(tmp_path, epochs=1, method="cosface-head-only")
        out = tmp_path / "sweep"
        code = cli.main([
            "sweep", "--config", config, "--axis", "min_instances",
            "--values", "3,5", "--out", str(out),
        ])
        assert code == 0
        rows = _read_csv(out / "results.csv")
        assert [(r["axis"], r["value"]) for r in rows] == [("min_instances", v) for v in "35"]
        # a 4-column and a 2-column head train to different losses
        payload = json.loads((out / "results.json").read_text())
        losses = [r["epochs"][0]["train_loss"] for r in payload["rows"]]
        assert losses[0] != losses[1]

    def test_tuple_field_axis_is_a_one_line_error(self, tmp_path, capsys, monkeypatch):
        trained = []
        monkeypatch.setattr(trainer, "run_training", lambda cfg: trained.append(cfg))
        out = tmp_path / "sweep"
        out.mkdir()
        (out / "earlier.txt").write_text("x")
        code = cli.main([
            "sweep", "--config", _write_config(tmp_path), "--axis", "hidden_dims",
            "--values", "64,32", "--out", str(out),
        ])
        assert code == 2
        assert capsys.readouterr().err == "error: hidden_dims must be tuple[int, ...], got 64\n"
        assert trained == []
        assert sorted(p.name for p in out.iterdir()) == ["earlier.txt"]

    def test_unbuildable_method_fails_before_any_training(self, tmp_path, capsys, monkeypatch):
        # no class of the tiny profile has 50 instances, so the head-only run cannot build
        trained = []
        monkeypatch.setattr(trainer, "run_training", lambda cfg: trained.append(cfg.method))
        out = tmp_path / "sweep"
        code = cli.main([
            "sweep", "--config", _write_config(tmp_path), "--axis", "method",
            "--values", "dcq,cosface-head-only", "--set", "min_instances=50", "--out", str(out),
        ])
        assert code == 2
        assert capsys.readouterr().err == "error: 0 classes have 50 or more instances; a head needs 2\n"
        assert trained == []
        assert not out.exists()

    def test_existing_file_out_fails_before_any_training(self, tmp_path, capsys, monkeypatch):
        trained = []
        monkeypatch.setattr(trainer, "run_training", lambda cfg: trained.append(cfg.K))
        out = tmp_path / "sweep"
        out.write_text("x")
        code = cli.main([
            "sweep", "--config", _write_config(tmp_path), "--axis", "K",
            "--values", "8,9", "--out", str(out),
        ])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert trained == []
        assert out.read_text() == "x"

    def test_failed_sweep_keeps_an_existing_out_dir(self, tmp_path, capsys, monkeypatch):
        def fail(cfg):
            raise ConfigError("training failed")

        monkeypatch.setattr(trainer, "run_training", fail)
        out = tmp_path / "sweep"
        out.mkdir()
        (out / "earlier.txt").write_text("x")
        code = cli.main([
            "sweep", "--config", _write_config(tmp_path), "--axis", "K",
            "--values", "8", "--out", str(out),
        ])
        assert code == 2
        assert capsys.readouterr().err == "error: training failed\n"
        assert sorted(p.name for p in out.iterdir()) == ["earlier.txt"]


    def test_failed_results_write_keeps_the_earlier_results(self, tmp_path, capsys, monkeypatch):
        config, out = _write_config(tmp_path, epochs=1), tmp_path / "sweep"
        argv = ["sweep", "--config", config, "--axis", "K", "--values", "8", "--out", str(out)]
        assert cli.main(argv) == 0
        earlier = {p.name: p.read_bytes() for p in out.iterdir()}
        assert sorted(earlier) == ["results.csv", "results.json"]

        def full_disk(path, mode="r", **kwargs):
            if path.endswith("results.json"):
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), path)
            return open(path, mode, **kwargs)

        # results.csv is written in full before results.json fails
        monkeypatch.setattr(cli, "open", full_disk, raising=False)
        argv[argv.index("8")] = "12"
        assert cli.main(argv) == 2
        named = str(out / "results.json")
        assert capsys.readouterr().err == f"error: [Errno 28] {os.strerror(errno.ENOSPC)}: {named!r}\n"
        assert {p.name: p.read_bytes() for p in out.iterdir()} == earlier


class TestWriteMetrics:
    ROWS = [
        {"epoch": 0, "lr": 0.06, "train_loss": 1.2345678901234567,
         "ver_acc": 0.875, "id_rank1": 1 / 3, "wall_seconds": 0.25},
        {"epoch": 1, "lr": 0.006, "train_loss": 0.9999999999999999,
         "ver_acc": 0.9, "id_rank1": 2 / 3, "wall_seconds": 0.3},
    ]

    def test_header_only_for_zero_rows(self, tmp_path):
        path = tmp_path / "metrics.csv"
        cli.write_metrics([], tmp_path)
        assert path.read_text() == "epoch,lr,train_loss,ver_acc,id_rank1,wall_seconds\n"

    def test_csv_roundtrips_exactly(self, tmp_path):
        path = tmp_path / "metrics.csv"
        cli.write_metrics(self.ROWS, tmp_path)
        parsed = _read_csv(path)
        for src, row in zip(self.ROWS, parsed):
            assert int(row["epoch"]) == src["epoch"]
            for col in ("lr", "train_loss", "ver_acc", "id_rank1", "wall_seconds"):
                assert float(row[col]) == src[col], col

    def test_floats_are_written_as_their_repr(self, tmp_path):
        cli.write_metrics(self.ROWS, tmp_path)
        lines = (tmp_path / "metrics.csv").read_text().splitlines()
        assert lines[2] == "1,0.006,0.9999999999999999,0.9,0.6666666666666666,0.3"


class TestGradcheckCommand:
    def test_gradcheck_passes(self, capsys):
        code = cli.main(["gradcheck", "--configs", "4", "--seed", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "worst" in out

    @pytest.mark.parametrize("configs", ["0", "-3"])
    def test_no_configs_is_a_usage_error(self, capsys, configs):
        assert cli.main(["gradcheck", "--configs", configs]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("usage error: --configs must be >= 1")
        assert captured.err.count("\n") == 1, captured.err
        assert captured.out == ""
