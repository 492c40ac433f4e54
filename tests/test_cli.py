"""CLI tests: argument handling, exit codes, and printed output.

Calls main() in-process so stdout/stderr are captured and runs stay fast.
"""

import shutil

import numpy as np
import pytest

from palmvein.cli import build_parser, main
from palmvein.weights import save_weights
from test_pipeline import micro_config


@pytest.fixture(scope="module")
def finished_cli_run(tmp_path_factory):
    """Full micro run driven through the CLI, shared by read-only tests."""
    root = tmp_path_factory.mktemp("cli_run")
    cfg = micro_config(root / "out")
    cfg_file = root / "micro.cfg"
    cfg_file.write_text(cfg.to_text(), encoding="utf-8")
    assert main(["--config", str(cfg_file), "run-all"]) == 0
    assert main(["--config", str(cfg_file), "enroll"]) == 0
    return cfg, str(cfg_file)


class TestArgParsing:
    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "COMMAND" in capsys.readouterr().out

    def test_no_subcommand(self, capsys):
        assert main([]) == 1

    def test_unknown_subcommand_prints_usage(self, capsys):
        assert main(["frobnicate"]) == 1
        assert "usage" in capsys.readouterr().err.lower()

    def test_global_flag_before_subcommand(self):
        args = build_parser().parse_args(["--out", "A", "gen-data"])
        assert args.out == "A"

    def test_global_flag_after_subcommand(self):
        args = build_parser().parse_args(["gen-data", "--out", "B"])
        assert args.out == "B"

    def test_subcommand_flag_wins(self):
        args = build_parser().parse_args(["--out", "A", "gen-data", "--out", "B"])
        assert args.out == "B"

    def test_seed_and_out_override_config(self, tmp_path):
        cfg = micro_config(tmp_path / "ignored", seed=0)
        cfg_file = tmp_path / "c.cfg"
        cfg_file.write_text(cfg.to_text(), encoding="utf-8")
        out = tmp_path / "actual"
        assert main(["--config", str(cfg_file), "--seed", "5",
                     "--out", str(out), "gen-data"]) == 0
        assert (out / "data" / "manifest.csv").exists() or \
               any(out.iterdir())  # wrote to the overridden directory
        assert not (tmp_path / "ignored").exists()


class TestStageCommands:
    def test_stage_chain(self, tmp_path, capsys):
        cfg = micro_config(tmp_path)
        cfg_file = tmp_path / "c.cfg"
        cfg_file.write_text(cfg.to_text(), encoding="utf-8")
        flags = ["--config", str(cfg_file)]
        for cmd in ("gen-data", "transform", "train-ced", "finetune-stack",
                    "pretrain-ae", "train-triplet", "finetune-e2e"):
            assert main(flags + [cmd]) == 0, cmd
        assert main(flags + ["eval"]) == 0
        out = capsys.readouterr().out
        assert "eer=" in out and "report written to" in out

    def test_missing_prerequisite_exit_1(self, tmp_path, capsys):
        cfg = micro_config(tmp_path)
        cfg_file = tmp_path / "c.cfg"
        cfg_file.write_text(cfg.to_text(), encoding="utf-8")
        assert main(["--config", str(cfg_file), "train-ced"]) == 1
        err = capsys.readouterr().err
        assert "train-ced1" in err and "gen-data" in err


class TestConfigErrors:
    def test_missing_config_file_exit_2(self, tmp_path):
        assert main(["--config", str(tmp_path / "nope.cfg"), "gen-data"]) == 2

    def test_malformed_config_exit_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("no equals sign here\n", encoding="utf-8")
        assert main(["--config", str(bad), "gen-data"]) == 1
        assert "line 1" in capsys.readouterr().err

    def test_unknown_key_exit_1(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("data.subjcts=4\n", encoding="utf-8")
        assert main(["--config", str(bad), "gen-data"]) == 1


class TestVerify:
    def test_identical_probe_accepts(self, finished_cli_run, capsys):
        cfg, cfg_file = finished_cli_run
        probe = cfg.out_dir / "data" / "s0000_i00.pgm"
        assert main(["--config", cfg_file, "verify", "--probe", str(probe),
                     "--threshold", "1e-12"]) == 0
        out = capsys.readouterr().out
        assert "distance 0.0" in out
        assert "ACCEPT" in out

    def test_reject_prints_reject(self, finished_cli_run, capsys):
        cfg, cfg_file = finished_cli_run
        probe = cfg.out_dir / "data" / "s0002_i01.pgm"
        assert main(["--config", cfg_file, "verify", "--probe", str(probe),
                     "--threshold", "1e-12"]) == 0
        out = capsys.readouterr().out
        assert "REJECT" in out and "ACCEPT" not in out

    def test_missing_probe_exit_2(self, finished_cli_run, tmp_path):
        _, cfg_file = finished_cli_run
        assert main(["--config", cfg_file, "verify",
                     "--probe", str(tmp_path / "ghost.pgm")]) == 2

    def test_corrupt_enrollment_exit_2(self, finished_cli_run, tmp_path):
        cfg, cfg_file = finished_cli_run
        probe = cfg.out_dir / "data" / "s0000_i00.pgm"
        junk = tmp_path / "junk.vfw"
        junk.write_bytes(b"not a weights file")
        assert main(["--config", cfg_file, "verify", "--probe", str(probe),
                     "--enrollment", str(junk)]) == 2

    def test_non_utf8_enrollment_name_exit_2(self, finished_cli_run, tmp_path, capsys):
        cfg, cfg_file = finished_cli_run
        probe = cfg.out_dir / "data" / "s0000_i00.pgm"
        bad = tmp_path / "bad.vfw"
        save_weights({"ab": np.zeros(16, np.float32)}, bad)
        raw = bytearray(bad.read_bytes())
        raw[16:18] = b"\xff\xfe"  # the record name's two bytes
        bad.write_bytes(bytes(raw))
        assert main(["--config", cfg_file, "verify", "--probe", str(probe),
                     "--enrollment", str(bad)]) == 2
        assert "UTF-8" in capsys.readouterr().err

    def test_bad_threshold_exit_1(self, finished_cli_run):
        cfg, cfg_file = finished_cli_run
        probe = cfg.out_dir / "data" / "s0000_i00.pgm"
        assert main(["--config", cfg_file, "verify", "--probe", str(probe),
                     "--threshold", "-1"]) == 1

    def test_default_threshold_is_the_runs_eer_threshold(self, finished_cli_run, capsys):
        cfg, cfg_file = finished_cli_run
        rows = dict(line.split(",") for line in
                    (cfg.out_dir / "report" / "metrics.csv").read_text().splitlines()[1:])
        threshold = float(rows["eer_threshold"])
        for probe in ("s0000_i01.pgm", "s0001_i01.pgm", "s0002_i01.pgm"):
            assert main(["--config", cfg_file, "verify",
                         "--probe", str(cfg.out_dir / "data" / probe)]) == 0
            out = capsys.readouterr().out.split()
            distance = float(out[out.index("distance") + 1])
            assert out[-1] == ("ACCEPT" if distance < threshold else "REJECT")

    def test_default_threshold_without_report_exit_1(self, finished_cli_run, tmp_path,
                                                     capsys):
        cfg, cfg_file = finished_cli_run
        out = tmp_path / "out"
        shutil.copytree(cfg.out_dir, out, ignore=shutil.ignore_patterns("report"))
        probe = out / "data" / "s0000_i00.pgm"
        flags = ["--config", cfg_file, "--out", str(out), "verify", "--probe", str(probe)]
        assert main(flags) == 1
        assert "run eval" in capsys.readouterr().err
        assert main(flags + ["--threshold", "1e-12"]) == 0

    def test_enroll_without_models_exit_1(self, tmp_path):
        cfg = micro_config(tmp_path)
        cfg_file = tmp_path / "c.cfg"
        cfg_file.write_text(cfg.to_text(), encoding="utf-8")
        assert main(["--config", str(cfg_file), "enroll"]) == 1


class TestCorruptArtifacts:
    def test_truncated_features_exit_2(self, finished_cli_run, tmp_path, capsys):
        cfg, cfg_file = finished_cli_run
        out = tmp_path / "out"
        shutil.copytree(cfg.out_dir, out)
        features = out / "mci" / "features.npz"
        features.write_bytes(features.read_bytes()[:-100])
        assert main(["--config", cfg_file, "--out", str(out), "train-triplet"]) == 2
        err = capsys.readouterr().err
        assert "train-triplet" in err and "features.npz" in err


class TestGradcheck:
    def test_battery_passes(self, capsys):
        assert main(["gradcheck", "--trials", "1"]) == 0
        out = capsys.readouterr().out
        assert "gradient battery: PASS" in out
        assert "[PASS]" in out
