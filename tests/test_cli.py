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

    @pytest.mark.parametrize(
        "line", ["haar_levels=", "haar_levels=2,x", "seed=abc", "lambda=abc", "max_iters_srl=2.5",
                 "n_trials=", "dump_trials=maybe", "jobs=two", "peak=inf", "peak=nan", "peak=0",
                 "peak=-3", "snr_db=nan", "snr_db=inf", "snr_db=-inf", "cutoff=nan",
                 "sparsity_lo=nan", "sparsity_hi=inf"],
    )
    def test_bad_value_names_its_key(self, tmp_path, capsys, line):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"experiment=oned_high\nout_dir={tmp_path / 'out'}\n{line}\n")
        assert main(["run", str(cfg)]) == 1
        key, value = line.split("=")
        assert f"error: {key}={value!r}: " in capsys.readouterr().err

    def test_sparsity_out_of_range_fails_before_any_trial(self, tmp_path, capsys):
        cfg = tmp_path / "sparse.cfg"
        cfg.write_text(f"experiment=oned_high\nout_dir={tmp_path / 'out'}\nsparsity_lo=0.5\n")
        assert main(["run", str(cfg)]) == 1
        assert "error: sparsity_lo='0.5', sparsity_hi='0.03': " in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "lines,message",
        [
            ("experiment=oned_high\nkernel=gausian", "kernel='gausian': expected gaussian"),
            ("experiment=oned_high\nkernel=file:no_such_kernel.txt", "does not exist"),
            ("experiment=oned_high\nhaar_levels=2,9", "level 9 outside valid range"),
            ("experiment=twod_splines\nrows=16", "phantom needs at least 32x32"),
            ("experiment=twod_splines\nsolvers=rl\ndictionary=splin", "dictionary='splin'"),
        ],
    )
    def test_problem_errors_fail_before_any_output(self, tmp_path, capsys, lines, message):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"{lines}\nout_dir={tmp_path / 'out'}\n")
        assert main(["run", str(cfg)]) == 1
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_malformed_image_file_names_the_file(self, tmp_path, capsys):
        image = tmp_path / "bad.pgm"
        image.write_bytes(b"P5\n2 x\n255\n" + bytes(4))
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"experiment=twod_splines\nimage_file={image}\nout_dir={tmp_path / 'out'}\n")
        assert main(["run", str(cfg)]) == 1
        assert f"error: {image}: malformed PGM header" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_nan_lambda_fails_cleanly(self, tmp_path, capsys):
        cfg = tmp_path / "nan.cfg"
        cfg.write_text(f"experiment=oned_high\nout_dir={tmp_path / 'out'}\nlambda=nan\n")
        assert main(["run", str(cfg)]) == 1
        assert "error: lam must be finite" in capsys.readouterr().err

    def test_jobs_flag_refused(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["run", "oned_high", "--jobs", "2", "--out-dir", str(tmp_path / "out")])
        assert exc.value.code == 2
        assert "unrecognized arguments: --jobs 2" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_lambda_override(self, tmp_path):
        main(
            ["run", "oned_high", "--n-trials", "1", "--seed", "5",
             "--lambda", "0.4", "--solver", "srl",
             "--out-dir", str(tmp_path / "out")]
        )
        assert (tmp_path / "out" / "metrics.csv").exists()
