"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one PASS line on success (pytest reports the failures);
the heavy experiment criteria assert their runtime budgets as well.
"""

import time

import numpy as np
import pytest

from helpers import gradient_map, inner, poisson_gof_pvalue
from poisson_deconv.experiments import build_config, run_experiment
from poisson_deconv.metrics import average_trials
from poisson_deconv.operators import (
    ForwardModel,
    HaarBoxDictionary,
    IdentityDictionary,
    PatchDictionary,
    SplineDictionary,
    identity_kernel,
    make_kernel,
)
from poisson_deconv.simulate import poisson_sample, rng_for_trial
from poisson_deconv.solvers import (
    SolverConfig,
    map_objective,
    ml_objective,
    rl_step,
    rltv_step,
    srl_step,
)


def _report(n, name):
    print(f"ACCEPTANCE {n} ({name}): PASS")


def test_criterion_1_adjoint_suite():
    """Adjointness of A = H o Phi for all three dictionary kinds,
    100 random pairs each, within 1e-10 * ||Ac|| * ||y||; under 30 s."""
    rng = np.random.default_rng(1001)
    t0 = time.perf_counter()
    models = {
        "haar1d": ForwardModel(
            make_kernel(rng.random(7)), HaarBoxDictionary(128, (2, 3, 4, 5))
        ),
        "spline2d": ForwardModel(
            make_kernel(rng.random((5, 5))), SplineDictionary((32, 32), 3)
        ),
        "patch": ForwardModel(
            make_kernel(rng.random((7, 7))),
            PatchDictionary(rng.random((512, 16, 16)), 8, (64, 64)),
        ),
    }
    for name, model in models.items():
        for _ in range(100):
            c = rng.random(model.coeff_shape)
            y = rng.random(model.image_shape)
            ac = model.forward(c)
            gap = abs(inner(ac, y) - inner(c, model.adjoint(y)))
            bound = 1e-10 * np.linalg.norm(ac) * np.linalg.norm(y)
            assert gap <= bound, f"{name}: {gap} > {bound}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0, f"adjoint suite took {elapsed:.1f}s"
    _report(1, "adjoint suite")


def test_criterion_2_gradient_check():
    """Analytic gradient vs central finite differences on the spline model
    (16x16, J=2), 20 strictly positive points with entries >= 0.1,
    relative error < 1e-5 on every coordinate."""
    rng = np.random.default_rng(1002)
    model = ForwardModel(make_kernel(rng.random((5, 5))), SplineDictionary((16, 16), 2))
    lam = 0.1
    for _ in range(20):
        g = rng.random(model.image_shape) * 10.0 + 1.0
        c = rng.random(model.coeff_shape) * 0.9 + 0.1
        grad = gradient_map(g, model, c, lam).ravel()
        scale = np.abs(grad).max()
        flat = c.ravel()
        for idx in range(flat.size):
            h = 1e-6 * max(1.0, flat[idx])
            plus = flat.copy()
            minus = flat.copy()
            plus[idx] += h
            minus[idx] -= h
            fd = (
                map_objective(g, model, plus.reshape(c.shape), lam)
                - map_objective(g, model, minus.reshape(c.shape), lam)
            ) / (2.0 * h)
            denom = max(abs(fd), abs(grad[idx]), 1e-9 * scale)
            assert abs(fd - grad[idx]) / denom < 1e-5
    _report(2, "gradient vs finite differences")


def test_criterion_3_rl_invariants():
    """50 random 16x16 instances: exact nonnegativity, mass conservation
    within 1e-8 relative for every t >= 1, objective non-increasing."""
    rng = np.random.default_rng(1003)
    for _ in range(50):
        k = make_kernel(rng.random((5, 5)))
        f_true = rng.random((16, 16)) * 5.0
        g = poisson_sample(f_true + 0.3, rng)
        f = np.full((16, 16), g.mean())
        prev_e = ml_objective(g, k, f)
        for _ in range(30):
            f = rl_step(g, k, f)
            assert np.all(f >= 0.0)
            assert abs(f.sum() - g.sum()) <= 1e-8 * g.sum()
            e = ml_objective(g, k, f)
            assert e <= prev_e + 1e-12 * abs(prev_e)
            prev_e = e
    _report(3, "RL invariants")


def test_criterion_4_srl_zero_freezing():
    """Coefficients zeroed at the start stay bitwise zero for 200 iterations,
    across random instances."""
    rng = np.random.default_rng(1004)
    for _ in range(5):
        model = ForwardModel(
            make_kernel(rng.random(7)), HaarBoxDictionary(64, (1, 2, 3, 4))
        )
        g = poisson_sample(rng.random((64, 1)) * 20.0, rng)
        c = rng.random(model.coeff_shape)
        dead = rng.choice(c.size, size=40, replace=False)
        c[dead] = 0.0
        for _ in range(200):
            c = srl_step(g, model, c, 0.2)
            assert np.all(c[dead] == 0.0)
    _report(4, "SRL zero freezing")


@pytest.mark.parametrize("preset", ["oned_high", "oned_low"])
def test_criterion_5_one_dimensional_experiment(preset, tmp_path):
    """50-trial seeded 1-D runs: steady-state SRL NMSE beats MSE-optimal RL
    and the trial-averaged SRL NMSE curve is non-increasing in >= 98% of
    steps; under 5 minutes per regime."""
    t0 = time.perf_counter()
    cfg = build_config(
        {
            "experiment": preset,
            "n_trials": "50",
            "seed": "20260810",
            "out_dir": str(tmp_path / preset),
        }
    )
    reports = {r.method: r for r in run_experiment(cfg)}
    elapsed = time.perf_counter() - t0
    assert reports["rl"].oracle and not reports["srl"].oracle
    assert reports["srl"].nmse_mean < reports["rl"].nmse_mean, (
        f"{preset}: SRL {reports['srl'].nmse_mean} vs RL {reports['rl'].nmse_mean}"
    )
    trace = np.loadtxt(
        tmp_path / preset / "trace_srl.csv", delimiter=",", skiprows=1
    )
    curve = trace[:, 1]
    # A step counts as increasing only beyond 1e-4 relative: sub-noise
    # wiggle on the converged plateau is flat, not a rebound (RL's actual
    # rebound climbs ~1e-2 relative per step).
    increases = np.sum(np.diff(curve) > 1e-4 * curve[:-1])
    frac_nonincreasing = 1.0 - increases / (len(curve) - 1)
    assert frac_nonincreasing >= 0.98, f"{preset}: monotone {frac_nonincreasing:.3f}"
    assert elapsed < 300.0, f"{preset} took {elapsed:.0f}s"
    _report(5, f"1-D experiment {preset}")


def test_criterion_6_two_dimensional_ordering(tmp_path):
    """Table-1 analogue on the bundled phantom, 40 trials at 15 dB with the
    inverse-quadratic kernel: NMSE srl < rltv < rl and SSIM reversed, every
    gap above two standard errors; under 15 minutes at 128x128."""
    t0 = time.perf_counter()
    cfg = build_config(
        {
            "experiment": "twod_splines",
            "n_trials": "40",
            "seed": "20260810",
            "out_dir": str(tmp_path / "twod"),
        }
    )
    reports = {r.method: r for r in run_experiment(cfg)}
    elapsed = time.perf_counter() - t0
    rl, rltv, srl = reports["rl"], reports["rltv"], reports["srl"]
    assert rl.oracle and rltv.oracle and not srl.oracle

    def sep(lo, hi):
        return hi.nmse_mean - lo.nmse_mean > 2.0 * (hi.nmse_stderr + lo.nmse_stderr)

    assert sep(srl, rltv), f"NMSE srl={srl.nmse_mean} vs rltv={rltv.nmse_mean}"
    assert sep(rltv, rl), f"NMSE rltv={rltv.nmse_mean} vs rl={rl.nmse_mean}"

    def sep_ssim(lo, hi):
        return hi.ssim_mean - lo.ssim_mean > 2.0 * (hi.ssim_stderr + lo.ssim_stderr)

    assert sep_ssim(rltv, srl), f"SSIM srl={srl.ssim_mean} vs rltv={rltv.ssim_mean}"
    assert sep_ssim(rl, rltv), f"SSIM rltv={rltv.ssim_mean} vs rl={rl.ssim_mean}"
    assert elapsed < 900.0, f"2-D experiment took {elapsed:.0f}s"
    _report(6, "2-D ordering")


def test_criterion_7_poisson_sampler():
    """Chi-square GOF p > 0.001 at means {0.5, 5, 32, 256} with 1e5 samples;
    mean and variance within 1% of the intensity at mean 256."""
    rng = rng_for_trial(20260810, 999)
    for mean in (0.5, 5.0, 32.0, 256.0):
        draws = poisson_sample(np.full(100000, mean), rng)
        p = poisson_gof_pvalue(draws, mean)
        assert p > 0.001, f"GOF p={p} at mean {mean}"
        if mean == 256.0:
            assert abs(draws.mean() - mean) <= 0.01 * mean
            assert abs(draws.var() - mean) <= 0.01 * mean
    _report(7, "Poisson sampler")


def test_criterion_8_reduction_identities():
    """srl_step(lambda=0, identity dictionary, delta kernel) matches rl_step
    to 1e-14; rltv_step(gamma=0) matches rl_step exactly."""
    rng = np.random.default_rng(1008)
    model = ForwardModel(identity_kernel(), IdentityDictionary((9, 9)))
    for _ in range(20):
        g = rng.random((9, 9)) * 6.0
        c = rng.random((9, 9)) + 0.05
        srl = srl_step(g, model, c, 0.0)
        rl = rl_step(g, identity_kernel(), c)
        assert np.abs(srl - rl).max() <= 1e-14 * np.abs(rl).max()
    k = make_kernel(rng.random((3, 3)))
    for _ in range(20):
        g = rng.random((8, 8)) * 6.0
        f = rng.random((8, 8))
        np.testing.assert_array_equal(rltv_step(g, k, f, 0.0), rl_step(g, k, f))
    _report(8, "reduction identities")


def test_criterion_9_determinism(tmp_path):
    """Two runs of a preset with one seed give byte-identical CSV artifacts."""
    outputs = []
    for sub in ("first", "second"):
        cfg = build_config(
            {
                "experiment": "oned_high",
                "n_trials": "3",
                "seed": "424242",
                "out_dir": str(tmp_path / sub),
            }
        )
        run_experiment(cfg)
        outputs.append(
            {
                name: (tmp_path / sub / name).read_bytes()
                for name in ("metrics.csv", "trace_rl.csv", "trace_srl.csv")
            }
        )
    assert outputs[0] == outputs[1]
    _report(9, "determinism")
