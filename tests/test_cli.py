"""Command-line interface: verbs, overrides, and error paths."""

import numpy as np
import pytest

from poisson_deconv.cli import main
from poisson_deconv.io import load_matrix_text, save_atoms


class TestKernelsDump:
    def test_writes_both_kernels(self, tmp_path, capsys):
        assert main(["kernels", "dump", "--out-dir", str(tmp_path)]) == 0
        gauss = load_matrix_text(tmp_path / "kernel_gaussian_1d.txt")
        quad = load_matrix_text(tmp_path / "kernel_inverse_quadratic_2d.txt")
        assert gauss.shape[1] == 1
        assert quad.shape == (15, 15)
        assert abs(gauss.sum() - 1.0) < 1e-9
        out = capsys.readouterr().out
        assert "kernel_gaussian_1d.txt" in out

    def test_custom_cutoff(self, tmp_path):
        main(["kernels", "dump", "--out-dir", str(tmp_path), "--cutoff", "1.0"])
        gauss = load_matrix_text(tmp_path / "kernel_gaussian_1d.txt")
        assert gauss.shape[0] < 13  # higher cutoff, narrower kernel


class TestDictInfo:
    def test_reports_geometry(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        atoms_file = tmp_path / "atoms.txt"
        save_atoms(atoms_file, rng.random((512, 16, 16)), stride=8)
        assert main(["dict", "info", str(atoms_file)]) == 0
        out = capsys.readouterr().out
        assert "16x16" in out
        assert "512" in out
        assert "stride: 8" in out
        assert "overcompleteness per patch: 2" in out

    def test_bad_file_fails(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("2 2 1 1\n1 -2 3 4\n")
        assert main(["dict", "info", str(bad)]) == 1
        assert "error:" in capsys.readouterr().err

    def test_missing_file_fails(self, capsys):
        assert main(["dict", "info", "/no/such/atoms.txt"]) == 1


class TestRun:
    def _config_file(self, tmp_path, out_dir):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(
            "experiment=oned_high\n"
            "n=32\n"
            "haar_levels=1,2\n"
            "n_trials=2\n"
            "max_iters=30\n"
            f"out_dir={out_dir}\n"
        )
        return cfg

    def test_run_from_config_file(self, tmp_path, capsys):
        cfg = self._config_file(tmp_path, tmp_path / "out")
        assert main(["run", str(cfg), "--seed", "3"]) == 0
        assert (tmp_path / "out" / "metrics.csv").exists()
        out = capsys.readouterr().out
        assert "rl (oracle): nmse=" in out
        assert "srl: nmse=" in out

    def test_run_preset_name_with_overrides(self, tmp_path):
        assert (
            main(
                [
                    "run", "oned_low",
                    "--n-trials", "2",
                    "--seed", "11",
                    "--solver", "srl",
                    "--out-dir", str(tmp_path / "out"),
                ]
            )
            == 0
        )
        body = (tmp_path / "out" / "metrics.csv").read_text()
        assert "srl,2," in body

    def test_cli_overrides_beat_config_file(self, tmp_path):
        cfg = self._config_file(tmp_path, tmp_path / "ignored")
        assert main(["run", str(cfg), "--seed", "3", "--out-dir", str(tmp_path / "real")]) == 0
        assert (tmp_path / "real" / "metrics.csv").exists()
        assert not (tmp_path / "ignored").exists()

    def test_same_seed_same_bytes(self, tmp_path):
        for sub in ("a", "b"):
            main(
                ["run", "oned_high", "--n-trials", "2", "--seed", "5",
                 "--out-dir", str(tmp_path / sub)]
            )
        assert (tmp_path / "a" / "metrics.csv").read_bytes() == (
            tmp_path / "b" / "metrics.csv"
        ).read_bytes()

    def test_dump_trials_flag(self, tmp_path):
        main(
            ["run", "oned_high", "--n-trials", "1", "--seed", "5", "--dump-trials",
             "--out-dir", str(tmp_path / "out")]
        )
        assert (tmp_path / "out" / "trial_0_truth.txt").exists()
        assert (tmp_path / "out" / "recon_srl_0.pgm").exists()

    def test_unknown_config_arg_fails(self, capsys):
        assert main(["run", "not_a_preset_or_file"]) == 1
        assert "neither a config file nor a preset" in capsys.readouterr().err

    def test_config_without_solvers_fails_cleanly(self, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("signal=sparse1d\ndictionary=haar\n")
        assert main(["run", str(cfg)]) == 1
        assert "error: at least one solver is required" in capsys.readouterr().err

    def test_bad_config_key_fails(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("experiment=oned_high\nunknown_key=1\n")
        assert main(["run", str(cfg)]) == 1
        assert "error:" in capsys.readouterr().err

    def test_lambda_override(self, tmp_path):
        main(
            ["run", "oned_high", "--n-trials", "1", "--seed", "5",
             "--lambda", "0.4", "--solver", "srl",
             "--out-dir", str(tmp_path / "out")]
        )
        assert (tmp_path / "out" / "metrics.csv").exists()
