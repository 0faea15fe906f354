"""Experiment harness: config resolution, trial orchestration, outputs."""

import dataclasses
import math
import os

import numpy as np
import pytest

from poisson_deconv.experiments import (
    PRESETS,
    build_config,
    build_problem,
    parse_config_text,
    run_experiment,
)
from poisson_deconv.io import load_atoms, load_matrix_text, load_pgm, save_atoms


def tiny_oned_mapping(out_dir, **extra):
    base = {
        "experiment": "oned_high",
        "n": "32",
        "haar_levels": "1,2",
        "n_trials": "3",
        "max_iters": "40",
        "seed": "7",
        "out_dir": str(out_dir),
    }
    base.update({k: str(v) for k, v in extra.items()})
    return base


class TestConfigParsing:
    def test_key_value_lines(self):
        text = "# comment\nseed = 3\n\nn_trials=5\n"
        assert parse_config_text(text) == {"seed": "3", "n_trials": "5"}

    def test_bad_line_rejected(self):
        with pytest.raises(ValueError):
            parse_config_text("just words\n")

    def test_presets_resolve(self):
        for name in PRESETS:
            if name in ("twod_patches", "custom"):
                continue  # need extra keys
            cfg = build_config({"experiment": name, "out_dir": "x"})
            assert cfg.n_trials == 200
            assert len(cfg.solvers) >= 1

    def test_every_preset_resolves_as_before(self, tmp_path):
        """Each preset's full resolved config, pinned field by field."""
        atoms = tmp_path / "atoms.txt"
        atoms.write_text("")

        def solvers(lam, iters):
            common = dict(epsilon_stop=1e-4, eps_div=1e-12, eps_tv=1e-8, gamma_tv=0.002, lam=lam)
            return tuple(
                {"method": m, "oracle": oracle, "config": dict(common, max_iters=n)}
                for m, oracle, n in iters
            )

        oned = {
            "experiment": "oned_high", "seed": 12345, "n_trials": 200, "signal": "sparse1d",
            "out_dir": "out", "dump_trials": False, "jobs": 1, "n": 128, "rows": 128,
            "cols": 128, "kernel": "gaussian", "cutoff": 0.2 * math.pi, "dictionary": "haar",
            "haar_levels": (2, 3, 4, 5), "spline_levels": 3, "atoms_file": "",
            "image_file": "", "peak": 256.0, "peak_on": "blurred", "snr_db": 15.0,
            "sparsity": (0.015, 0.03),
            "solvers": solvers(0.2, [("rl", True, 500), ("srl", False, 500)]),
        }
        twod = dict(
            oned, signal="image2d", kernel="inverse_quadratic",
            solvers=solvers(0.1, [("rl", True, 120), ("rltv", True, 120), ("srl", False, 600)]),
        )
        expected = {
            "oned_high": ({}, oned),
            "oned_low": ({}, dict(oned, experiment="oned_low", peak=32.0)),
            "twod_splines": (
                {}, dict(twod, experiment="twod_splines", dictionary="spline", spline_levels=4)
            ),
            "twod_patches": (
                {"atoms_file": str(atoms)},
                dict(twod, experiment="twod_patches", dictionary="patch", atoms_file=str(atoms)),
            ),
            "custom": (
                {"signal": "sparse1d", "dictionary": "haar", "solvers": "rl"},
                dict(oned, experiment="custom", solvers=solvers(0.2, [("rl", False, 500)])),
            ),
        }
        assert set(expected) == set(PRESETS)
        for name, (extra, fields) in expected.items():
            resolved = dataclasses.asdict(build_config({"experiment": name, **extra}))
            assert resolved == fields, name

    def test_oned_high_preset_values(self):
        """Preset pins the protocol: N=128, levels {2,3,4,5}, 0.2*pi cutoff,
        peak 256, lambda 0.2."""
        cfg = build_config({"experiment": "oned_high"})
        assert cfg.n == 128
        assert cfg.haar_levels == (2, 3, 4, 5)
        assert abs(cfg.cutoff - 0.2 * np.pi) < 1e-15
        assert cfg.peak == 256.0
        srl = [s for s in cfg.solvers if s.method == "srl"][0]
        assert srl.config.lam == 0.2
        assert not srl.oracle
        rl = [s for s in cfg.solvers if s.method == "rl"][0]
        assert rl.oracle

    def test_oned_low_preset_peak(self):
        assert build_config({"experiment": "oned_low"}).peak == 32.0

    def test_twod_splines_preset_values(self):
        cfg = build_config({"experiment": "twod_splines"})
        assert cfg.kernel == "inverse_quadratic"
        assert cfg.snr_db == 15.0
        assert cfg.spline_levels == 4
        srl = [s for s in cfg.solvers if s.method == "srl"][0]
        assert srl.config.lam == 0.1
        rltv = [s for s in cfg.solvers if s.method == "rltv"][0]
        assert rltv.config.gamma_tv == 0.002 and rltv.oracle

    def test_overrides_win(self):
        cfg = build_config({"experiment": "oned_high", "n_trials": "7", "lambda": "0.5"})
        assert cfg.n_trials == 7
        assert cfg.solvers[0].config.lam == 0.5

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError):
            build_config({"experiment": "oned_high", "tpyo": "1"})

    def test_unknown_experiment_rejected(self):
        with pytest.raises(ValueError):
            build_config({"experiment": "threed"})

    def test_missing_file_rejected_at_parse_time(self):
        with pytest.raises(ValueError):
            build_config(
                {"experiment": "twod_splines", "image_file": "/does/not/exist.txt"}
            )

    def test_patch_needs_atoms(self):
        with pytest.raises(ValueError):
            build_config({"experiment": "twod_patches"})

    def test_duplicate_solver_rejected(self):
        with pytest.raises(ValueError):
            build_config({"experiment": "oned_high", "solvers": "rl,rl"})

    def test_no_solvers_rejected(self):
        with pytest.raises(ValueError):
            build_config({"experiment": "oned_high", "solvers": ""})

    @pytest.mark.parametrize("jobs", ["0", "-2"])
    def test_nonpositive_jobs_rejected(self, jobs):
        with pytest.raises(ValueError, match="jobs must be positive"):
            build_config({"experiment": "oned_high", "jobs": jobs})

    def test_per_solver_max_iters(self):
        cfg = build_config({"experiment": "twod_splines"})
        by_method = {s.method: s.config.max_iters for s in cfg.solvers}
        assert by_method["srl"] == 600
        assert by_method["rl"] == 120


class TestRunExperiment:
    def test_oned_outputs_and_reports(self, tmp_path):
        cfg = build_config(tiny_oned_mapping(tmp_path / "out"))
        reports = run_experiment(cfg)
        assert [r.method for r in reports] == ["rl", "srl"]
        assert all(r.n_trials == 3 for r in reports)
        assert reports[0].oracle and not reports[1].oracle
        assert all(r.ssim_mean is None for r in reports)  # 1 pixel wide
        out = tmp_path / "out"
        assert (out / "metrics.csv").exists()
        assert (out / "trace_rl.csv").exists()
        assert (out / "trace_srl.csv").exists()
        body = (out / "metrics.csv").read_text().splitlines()
        assert body[2] == "method,n_trials,nmse_mean,nmse_stderr,ssim_mean,ssim_stderr,oracle"
        assert body[3].startswith("rl,3,") and body[3].endswith(",true")
        assert body[4].startswith("srl,3,") and body[4].endswith(",false")

    def test_determinism_byte_identical(self, tmp_path):
        cfg_a = build_config(tiny_oned_mapping(tmp_path / "a"))
        cfg_b = build_config(tiny_oned_mapping(tmp_path / "b"))
        run_experiment(cfg_a)
        run_experiment(cfg_b)
        for name in ("metrics.csv", "trace_rl.csv", "trace_srl.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (
                tmp_path / "b" / name
            ).read_bytes()

    def test_different_seed_changes_outputs(self, tmp_path):
        run_experiment(build_config(tiny_oned_mapping(tmp_path / "a")))
        run_experiment(build_config(tiny_oned_mapping(tmp_path / "b", seed=8)))
        assert (tmp_path / "a" / "metrics.csv").read_bytes() != (
            tmp_path / "b" / "metrics.csv"
        ).read_bytes()

    def test_jobs_parallelism_matches_serial(self, tmp_path):
        run_experiment(build_config(tiny_oned_mapping(tmp_path / "serial")))
        run_experiment(build_config(tiny_oned_mapping(tmp_path / "par", jobs=2)))
        for name in ("metrics.csv", "trace_rl.csv", "trace_srl.csv"):
            assert (tmp_path / "serial" / name).read_bytes() == (
                tmp_path / "par" / name
            ).read_bytes()

    def test_dump_trials_writes_artifacts(self, tmp_path):
        cfg = build_config(
            tiny_oned_mapping(tmp_path / "out", dump_trials="true", n_trials="2")
        )
        run_experiment(cfg)
        out = tmp_path / "out"
        assert (out / "trial_0_truth.txt").exists()
        assert (out / "trial_1_data.txt").exists()
        assert (out / "recon_rl_0.pgm").exists()
        assert (out / "recon_srl_1.pgm").exists()
        assert (out / "trace_srl_0.csv").exists()
        truth = load_matrix_text(out / "trial_0_truth.txt")
        assert truth.shape == (32, 1)
        recon = load_pgm(out / "recon_srl_0.pgm")
        assert recon.shape == (32, 1)
        # Every dumped per-trial trace has its objective column filled.
        for solver in ("rl", "srl"):
            for t in range(2):
                text = (out / f"trace_{solver}_{t}.csv").read_text()
                rows = [line.split(",") for line in text.splitlines()[1:]]
                assert rows and all(np.isfinite(float(row[1])) for row in rows)

    def test_small_twod_spline_experiment(self, tmp_path):
        mapping = {
            "experiment": "twod_splines",
            "rows": "32",
            "cols": "32",
            "n_trials": "2",
            "max_iters": "20",
            "max_iters_srl": "30",
            "out_dir": str(tmp_path / "out"),
            "seed": "5",
        }
        reports = run_experiment(build_config(mapping))
        by_method = {r.method: r for r in reports}
        assert set(by_method) == {"rl", "rltv", "srl"}
        for r in reports:
            assert r.nmse_mean >= 0
            assert -1.0 <= r.ssim_mean <= 1.0

    def test_patch_dictionary_experiment(self, tmp_path):
        rng = np.random.default_rng(0)
        atoms_file = tmp_path / "atoms.txt"
        save_atoms(atoms_file, rng.random((12, 8, 8)), stride=4)
        mapping = {
            "experiment": "twod_patches",
            "rows": "32",
            "cols": "32",
            "n_trials": "2",
            "max_iters": "15",
            "max_iters_srl": "25",
            "atoms_file": str(atoms_file),
            "solvers": "srl",
            "out_dir": str(tmp_path / "out"),
        }
        reports = run_experiment(build_config(mapping))
        assert reports[0].method == "srl"
        assert (tmp_path / "out" / "trace_srl.csv").exists()

    def test_custom_image_file(self, tmp_path):
        from poisson_deconv.io import save_matrix_text

        rng = np.random.default_rng(1)
        img_file = tmp_path / "img.txt"
        save_matrix_text(img_file, rng.random((32, 32)) + 0.05)
        mapping = {
            "experiment": "custom",
            "signal": "image2d",
            "rows": "32",
            "cols": "32",
            "image_file": str(img_file),
            "kernel": "inverse_quadratic",
            "dictionary": "spline",
            "spline_levels": "2",
            "solvers": "rl:oracle,srl",
            "n_trials": "2",
            "max_iters": "10",
            "lambda": "0.1",
            "out_dir": str(tmp_path / "out"),
        }
        reports = run_experiment(build_config(mapping))
        assert len(reports) == 2

    def test_trace_is_padded_average(self, tmp_path):
        cfg = build_config(tiny_oned_mapping(tmp_path / "out"))
        run_experiment(cfg)
        lines = (tmp_path / "out" / "trace_srl.csv").read_text().splitlines()
        assert lines[0] == "iter,nmse_mean,nmse_stderr"
        rows = [line.split(",") for line in lines[1:]]
        assert [int(r[0]) for r in rows] == list(range(1, len(rows) + 1))
        assert all(float(r[1]) >= 0 for r in rows)


class TestBuildProblem:
    def test_twod_snr_is_hit(self):
        from poisson_deconv.simulate import snr_db

        cfg = build_config(
            {"experiment": "twod_splines", "rows": "32", "cols": "32",
             "solvers": "rl:oracle", "n_trials": "1"}
        )
        problem = build_problem(cfg)
        assert abs(snr_db(problem.intensity) - 15.0) < 1e-9
        assert problem.truth.shape == (32, 32)

    def test_oned_has_no_fixed_truth(self):
        cfg = build_config(tiny_oned_mapping("unused"))
        problem = build_problem(cfg)
        assert problem.truth is None
        assert problem.model is not None
