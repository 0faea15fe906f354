"""Objectives, gradients, multiplicative updates, and the solver driver."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    IdentityDictionary,
    gradient_map,
    identity_kernel,
    map_objective_weighted,
    weighted_l1,
)
from poisson_deconv import solvers
from poisson_deconv.core import l1_norm, log_inner
from poisson_deconv.metrics import nmse
from poisson_deconv.operators import (
    ForwardModel,
    HaarBoxDictionary,
    PatchDictionary,
    SplineDictionary,
    blur_operator,
    conv_forward,
    gaussian_kernel_1d,
    inverse_quadratic_kernel,
    make_kernel,
)
from poisson_deconv.simulate import poisson_sample, rng_for_trial, synth_sparse_signal
from poisson_deconv.solvers import (
    SolverConfig,
    SolverTrace,
    map_objective,
    ml_objective,
    rl_step,
    rltv_step,
    run_solver,
    srl_step,
    tv_curvature,
    tv_norm,
)


class TestMlObjective:
    def test_identity_blur_on_flat_ones(self):
        """h = delta, f = g = 1: E = N*M*(1 - 0)."""
        ones = np.ones((4, 4))
        assert ml_objective(ones, identity_kernel(), ones) == 16.0

    def test_matches_l1_form_for_normalized_kernel(self):
        """<1, Hf> - <g, log Hf> equals ||f||_1 - <g, log Hf> when sum(h) = 1."""
        rng = np.random.default_rng(0)
        k = make_kernel(rng.random((3, 3)))
        for _ in range(10):
            f = rng.random((8, 8)) + 0.1
            g = rng.random((8, 8)) * 5.0
            direct = ml_objective(g, k, f)
            l1_form = l1_norm(f) - log_inner(g, conv_forward(k, f))
            assert abs(direct - l1_form) <= 1e-12 * abs(direct)

    def test_infinite_when_data_sees_zero_model(self):
        g = np.array([[1.0, 0.0]])
        f = np.array([[0.0, 1.0]])
        assert ml_objective(g, identity_kernel(), f) == math.inf

    def test_decreases_along_rl_and_beats_grid_search(self):
        """RL's limit objective undercuts an exhaustive coarse grid search."""
        rng = np.random.default_rng(1)
        k = make_kernel(np.array([1.0, 2.0, 1.0]))
        g = rng.random((4, 1)) * 4.0 + 0.5
        f = np.full((4, 1), g.mean())
        energies = [ml_objective(g, k, f)]
        for _ in range(500):
            f = rl_step(g, k, f)
            energies.append(ml_objective(g, k, f))
        diffs = np.diff(energies)
        assert np.all(diffs <= 1e-12 * np.abs(energies[:-1]))

        # Independent oracle: evaluate E on a dense grid via an explicitly
        # built circulant matrix and exhaustive enumeration.
        taps = k.taps[:, 0]
        h_mat = np.zeros((4, 4))
        for i in range(4):
            for j in range(4):
                d = (i - j) % 4
                if d == 0:
                    h_mat[i, j] = taps[1]
                elif d == 1:
                    h_mat[i, j] = taps[2]
                elif d == 3:
                    h_mat[i, j] = taps[0]
        grid = np.linspace(0.05, 2.0 * g.max(), 25)
        mesh = np.stack(np.meshgrid(grid, grid, grid, grid, indexing="ij"), axis=-1)
        candidates = mesh.reshape(-1, 4)
        hf = candidates @ h_mat.T
        e_grid = hf.sum(axis=1) - (np.log(hf) @ g[:, 0])
        assert energies[-1] <= e_grid.min() + 1e-9 * abs(e_grid.min())

    def test_two_pixel_grid_search_minimum_is_g(self):
        """With a delta kernel the exhaustive minimum sits at f = g and one
        RL step from any positive start lands exactly there."""
        g = np.array([[3.0], [1.5]])
        grid = np.linspace(0.05, 6.0, 200)
        a, b = np.meshgrid(grid, grid, indexing="ij")
        e = (a + b) - (g[0, 0] * np.log(a) + g[1, 0] * np.log(b))
        best = np.unravel_index(np.argmin(e), e.shape)
        np.testing.assert_allclose(
            [grid[best[0]], grid[best[1]]], g[:, 0], atol=0.05
        )
        stepped = rl_step(g, identity_kernel(), np.full((2, 1), 2.0))
        np.testing.assert_array_equal(stepped, g)


class TestRlStep:
    def test_identity_kernel_recovers_data_in_one_step(self):
        rng = np.random.default_rng(2)
        g = rng.random((6, 6)) * 10.0
        f0 = rng.random((6, 6)) + 0.2
        np.testing.assert_allclose(rl_step(g, identity_kernel(), f0), g, rtol=1e-14)

    def test_mass_preserved(self):
        """sum f_{t+1} = sum g for a normalized kernel, from any start."""
        rng = np.random.default_rng(3)
        for _ in range(20):
            k = make_kernel(rng.random((5, 3)))
            g = rng.random((10, 9)) * 7.0
            f = rng.random((10, 9)) + 0.05
            out = rl_step(g, k, f)
            assert abs(out.sum() - g.sum()) <= 1e-8 * g.sum()

    def test_zeros_stay_zero(self):
        rng = np.random.default_rng(4)
        k = make_kernel(rng.random(5))
        g = rng.random((12, 1)) * 3.0
        f = rng.random((12, 1))
        f[[2, 7], 0] = 0.0
        out = rl_step(g, k, f)
        assert out[2, 0] == 0.0 and out[7, 0] == 0.0

    def test_nonnegative(self):
        rng = np.random.default_rng(5)
        k = make_kernel(rng.random((3, 3)))
        g = rng.random((8, 8))
        f = rng.random((8, 8))
        assert np.all(rl_step(g, k, f) >= 0)


def _spline_model(rng, shape=(8, 8), levels=2):
    kernel = make_kernel(rng.random((3, 3)))
    return ForwardModel(kernel, SplineDictionary(shape, levels))


class TestMapObjective:
    def test_reduces_to_ml_with_identity_pieces(self):
        """lambda = 0, level-0 Haar synthesis, delta kernel: same as ML."""
        rng = np.random.default_rng(6)
        model = ForwardModel(identity_kernel(), HaarBoxDictionary(16, (0,)))
        g = rng.random((16, 1)) * 4.0
        c = rng.random(16) + 0.1
        direct = map_objective(g, model, c, 0.0)
        ml = ml_objective(g, identity_kernel(), c[:, np.newaxis])
        assert abs(direct - ml) <= 1e-12 * abs(ml)

    def test_two_forms_agree(self):
        """Direct evaluation and the (v + lambda)-weighted form match."""
        rng = np.random.default_rng(7)
        model = _spline_model(rng)
        for lam in (0.0, 0.1, 1.0):
            for _ in range(5):
                c = rng.random(model.coeff_shape)
                g = rng.random(model.image_shape) * 6.0 + 0.5
                a = map_objective(g, model, c, lam)
                b = map_objective_weighted(g, model, c, lam)
                assert abs(a - b) <= 1e-10 * abs(a)

    def test_midpoint_convexity(self):
        """E((a+b)/2) <= (E(a)+E(b))/2 for strictly positive data."""
        rng = np.random.default_rng(8)
        model = _spline_model(rng)
        g = rng.random(model.image_shape) * 5.0 + 1.0
        for _ in range(20):
            a = rng.random(model.coeff_shape)
            b = rng.random(model.coeff_shape)
            e_mid = map_objective(g, model, (a + b) / 2.0, 0.2)
            e_avg = 0.5 * (
                map_objective(g, model, a, 0.2) + map_objective(g, model, b, 0.2)
            )
            assert e_mid <= e_avg + 1e-10


class TestGradient:
    def test_matches_central_finite_differences(self):
        """Analytic gradient vs (E(c+h) - E(c-h)) / 2h at interior points."""
        rng = np.random.default_rng(9)
        model = _spline_model(rng)
        lam = 0.15
        g = rng.random(model.image_shape) * 8.0 + 0.5
        c = rng.random(model.coeff_shape) + 0.2
        grad = gradient_map(g, model, c, lam)
        flat = c.ravel()
        picks = rng.choice(flat.size, size=25, replace=False)
        for idx in picks:
            h = 1e-6 * max(1.0, abs(flat[idx]))
            plus = flat.copy()
            minus = flat.copy()
            plus[idx] += h
            minus[idx] -= h
            fd = (
                map_objective(g, model, plus.reshape(c.shape), lam)
                - map_objective(g, model, minus.reshape(c.shape), lam)
            ) / (2.0 * h)
            assert abs(fd - grad.ravel()[idx]) <= 1e-5 * max(abs(fd), 1e-3)

    def test_zero_at_interior_fixed_point(self):
        """After converging on exact data with lambda = 0, the gradient
        vanishes on the (strictly positive) solution."""
        rng = np.random.default_rng(10)
        kernel = make_kernel(rng.random((3, 3)))
        model = ForwardModel(kernel, SplineDictionary((16, 16), 1))
        c_true = rng.random(model.coeff_shape) + 0.5
        g = model.forward(c_true)
        cfg = SolverConfig(lam=0.0, epsilon_stop=1e-12, max_iters=20000)
        res = run_solver("srl", g, model=model, config=cfg)
        c_star = res.coefficients
        assert np.all(c_star > 0)
        grad = gradient_map(g, model, c_star, 0.0)
        assert np.abs(grad).max() <= 1e-6 * np.abs(model.v).max()

    def test_exact_data_cancellation(self):
        """g = A{c} with strictly positive c and lambda = 0: the residual
        term A*{1} - A*{g/Ac} collapses to zero."""
        rng = np.random.default_rng(11)
        model = _spline_model(rng)
        c = rng.random(model.coeff_shape) + 0.3
        g = model.forward(c)
        grad = gradient_map(g, model, c, 0.0)
        assert np.abs(grad).max() <= 1e-10 * np.abs(model.v).max()

    def test_sign_convention_at_zero(self):
        rng = np.random.default_rng(12)
        model = _spline_model(rng)
        c = rng.random(model.coeff_shape)
        c[0, 0, 0] = 0.0
        g = rng.random(model.image_shape) + 0.5
        lam = 0.7
        with_pen = gradient_map(g, model, c, lam)
        without = gradient_map(g, model, c, 0.0)
        penalty = with_pen - without
        assert penalty[0, 0, 0] == 0.0  # sign(0) = 0
        assert abs(penalty[1, 1, 1] - lam) < 1e-12


SRL_PATHS = ["fused_spline", "haar", "patch"]


def _srl_problem(path):
    """(model, g) on the fused spline, Haar or patch model."""
    rng = np.random.default_rng(33)
    if path == "haar":
        kernel = gaussian_kernel_1d(0.2 * math.pi)
        model = ForwardModel(kernel, HaarBoxDictionary(128))
        _, truth = synth_sparse_signal(model.dictionary, kernel, 64.0, rng)
    elif path == "patch":
        kernel = inverse_quadratic_kernel(2)
        model = ForwardModel(kernel, PatchDictionary(rng.random((4, 4, 4)), 2, (16, 12)))
        truth = rng.random((16, 12)) * 20.0
    else:
        kernel = inverse_quadratic_kernel(2)
        model = ForwardModel(kernel, SplineDictionary((24, 20), 3))
        truth = rng.random((24, 20)) * 20.0
    return model, poisson_sample(conv_forward(kernel, truth), rng)


class TestSrlStep:
    def test_hand_computed_two_coefficient_update(self):
        """2x1 image, delta kernel, identity synthesis, g=[3,1], c=[1,1],
        lambda=0.5: c+ = (g/c) * c / (1 + 0.5) = [2, 2/3]."""
        model = ForwardModel(identity_kernel(), HaarBoxDictionary(2, (0,)))
        g = np.array([[3.0], [1.0]])
        c = np.array([1.0, 1.0])
        out = srl_step(g, model, c, 0.5)
        np.testing.assert_allclose(out, [2.0, 2.0 / 3.0], rtol=1e-15)

    def test_reduces_to_rl(self):
        """lambda = 0, identity dictionary, delta kernel: same update as RL."""
        rng = np.random.default_rng(13)
        model = ForwardModel(identity_kernel(), IdentityDictionary((7, 5)))
        g = rng.random((7, 5)) * 4.0
        c = rng.random((7, 5)) + 0.1
        srl = srl_step(g, model, c, 0.0)
        rl = rl_step(g, identity_kernel(), c)
        np.testing.assert_allclose(srl, rl, rtol=1e-14, atol=0)

    @pytest.mark.parametrize("path", SRL_PATHS)
    def test_zero_coefficients_frozen_bitwise(self, path):
        model, g = _srl_problem(path)
        rng = np.random.default_rng(14)
        c = rng.random(model.coeff_shape).ravel()
        dead = rng.choice(c.size, size=c.size // 4, replace=False)
        c[dead] = 0.0
        c = c.reshape(model.coeff_shape)
        for _ in range(50):
            c = srl_step(g, model, c, 0.2)
            assert np.all(c.ravel()[dead] == 0.0)
            assert np.all(c >= 0.0)


def _step_cases():
    """(name, step(g, state, blurred), g, state, Hx of the state) for RL and
    RLTV on both blur kinds and SRL on every model path."""
    rng = np.random.default_rng(34)
    cases = []
    blurs = ((inverse_quadratic_kernel(2), (16, 12)), (gaussian_kernel_1d(0.6), (64, 1)))
    for kernel, shape in blurs:
        f = rng.random(shape) + 0.1
        g = poisson_sample(conv_forward(kernel, f) * 20.0, rng)
        kind = "2d" if shape[1] > 1 else "column"
        blur = blur_operator(kernel, shape)
        rl = lambda g, f, y, b=blur: rl_step(g, b, f, blurred=y)
        rltv = lambda g, f, y, b=blur: rltv_step(g, b, f, 0.01, blurred=y)
        cases.append((f"rl_{kind}", rl, g, f, blur.forward(f)))
        cases.append((f"rltv_{kind}", rltv, g, f, blur.forward(f)))
    for path in SRL_PATHS:
        model, g = _srl_problem(path)
        c = rng.random(model.coeff_shape)
        srl = lambda g, c, y, m=model: srl_step(g, m, c, 0.1, blurred=y)
        cases.append((f"srl_{path}", srl, g, c, model.forward(c)))
    return cases


STEP_CASES = [case[0] for case in _step_cases()]


class TestStepsWriteOnlyTheirBlurredBuffer:
    """A step handed `blurred=` forms g / blurred in that buffer, which it
    consumes; g, the state and the model's v are left as they were, and the
    update is the one the step computes from scratch."""

    @pytest.mark.parametrize("name", STEP_CASES)
    def test_ownership(self, name):
        _, step, g, state, blurred = next(c for c in _step_cases() if c[0] == name)
        g0, state0, ratio = g.copy(), state.copy(), g / blurred
        fresh = step(g, state, None)
        assert g.tobytes() == g0.tobytes() and state.tobytes() == state0.tobytes()
        out = step(g, state, blurred)
        assert g.tobytes() == g0.tobytes() and state.tobytes() == state0.tobytes()
        assert blurred.tobytes() == ratio.tobytes()
        assert out.tobytes() == fresh.tobytes()

    def test_model_v_is_read_only(self):
        model, g = _srl_problem("patch")
        sums = model.column_sums.copy()
        srl_step(g, model, np.ones(model.coeff_shape), 0.1)
        assert not model.v.flags.writeable
        assert model.column_sums.tobytes() == sums.tobytes()
        with pytest.raises(ValueError):
            model.v[0, 0] = 1.0


class TestSolveWorkingSet:
    def test_256_patch_solve_peaks_below_3_5_mib(self):
        """Beyond g and the model, a 256^2 patch SRL solve holds five
        coefficient- or image-sized arrays (0.5 MiB each) at its peak, 3.1
        MiB traced, where a full v + lam weight, a separate ratio array and
        the blur adjoint's output kept through the dictionary's adjoint
        took 4.6 MiB."""
        rng = np.random.default_rng(3)
        kernel = inverse_quadratic_kernel()
        model = ForwardModel(kernel, PatchDictionary(rng.random((16, 8, 8)), 4, (256, 256)))
        g = poisson_sample(conv_forward(kernel, rng.random((256, 256)) * 20.0), rng)
        tracemalloc.start()
        try:
            run_solver("srl", g, model=model, config=SolverConfig(lam=0.1, max_iters=3))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3.5 * 2**20, f"{peak / 2**20:.2f} MiB"


def _tv_curvature_oracle(f, eps_tv):
    """Loop implementation: forward-difference gradient, magnitude floor,
    backward-difference divergence, all periodic."""
    rows, cols = f.shape
    gr = np.zeros_like(f)
    gc = np.zeros_like(f)
    for n in range(rows):
        for m in range(cols):
            gr[n, m] = f[(n + 1) % rows, m] - f[n, m]
            gc[n, m] = f[n, (m + 1) % cols] - f[n, m]
    mag = np.maximum(np.sqrt(gr**2 + gc**2), eps_tv)
    pr, pc = gr / mag, gc / mag
    div = np.zeros_like(f)
    for n in range(rows):
        for m in range(cols):
            div[n, m] = (pr[n, m] - pr[(n - 1) % rows, m]) + (
                pc[n, m] - pc[n, (m - 1) % cols]
            )
    return div


class TestRltvStep:
    def test_gamma_zero_equals_rl(self):
        rng = np.random.default_rng(15)
        k = make_kernel(rng.random((3, 3)))
        g = rng.random((8, 8)) * 5.0
        f = rng.random((8, 8)) + 0.1
        np.testing.assert_array_equal(rltv_step(g, k, f, 0.0), rl_step(g, k, f))

    def test_constant_image_equals_rl(self):
        """Zero gradient: the floored curvature term vanishes."""
        rng = np.random.default_rng(16)
        k = make_kernel(rng.random((3, 3)))
        g = rng.random((8, 8)) * 5.0
        f = np.full((8, 8), 2.5)
        np.testing.assert_array_equal(rltv_step(g, k, f, 0.002), rl_step(g, k, f))

    def test_divergence_against_loop_oracle(self):
        rng = np.random.default_rng(17)
        f = rng.random((8, 8))
        ours = tv_curvature(f, 1e-8)
        oracle = _tv_curvature_oracle(f, 1e-8)
        np.testing.assert_allclose(ours, oracle, rtol=0, atol=1e-10)

    def test_output_nonnegative(self):
        rng = np.random.default_rng(18)
        k = make_kernel(rng.random((3, 3)))
        g = rng.random((8, 8)) * 3.0
        f = rng.random((8, 8))
        assert np.all(rltv_step(g, k, f, 0.1) >= 0)


class TestSolverConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SolverConfig(lam=-0.1)
        with pytest.raises(ValueError):
            SolverConfig(epsilon_stop=1.5)
        with pytest.raises(ValueError):
            SolverConfig(max_iters=0)
        with pytest.raises(ValueError):
            SolverConfig(eps_div=0.0)

    @pytest.mark.parametrize("field", ["lam", "gamma_tv", "eps_div", "eps_tv"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            SolverConfig(**{field: value})

    @pytest.mark.parametrize("value", [2.5, 20.0, "20"])
    def test_non_integer_max_iters_rejected(self, value):
        with pytest.raises(ValueError, match="max_iters must be an integer"):
            SolverConfig(max_iters=value)
        assert SolverConfig(max_iters=np.int64(20)).max_iters == 20


class TestRunSolver:
    def test_noiseless_identity_converges_immediately(self):
        rng = np.random.default_rng(19)
        g = rng.random((10, 1)) * 5.0 + 0.5
        cfg = SolverConfig(epsilon_stop=1e-6, max_iters=50)
        res = run_solver("rl", g, kernel=identity_kernel(), config=cfg)
        assert res.trace.terminated_by == "converged"
        assert res.trace.n_iters <= 2
        np.testing.assert_allclose(res.estimate, g, rtol=1e-12)

    def test_rl_objective_monotone_in_trace(self):
        """RL is EM for Poisson data, so its objective never rises beyond
        round-off, from the flat starting point on: on a 2-D image
        (FourierFilter blur) and on an N x 1 column (ColumnFilter blur)."""
        rng = np.random.default_rng(20)
        cases = [
            (make_kernel(rng.random((3, 3))), rng.random((12, 12)) * 4.0),
            (gaussian_kernel_1d(0.2 * math.pi), rng.random((64, 1)) * 4.0),
        ]
        cfg = SolverConfig(epsilon_stop=1e-9, max_iters=60)
        for k, f_true in cases:
            g = poisson_sample(conv_forward(k, f_true) + 0.5, rng)
            res = run_solver("rl", g, kernel=k, config=cfg)
            e0 = ml_objective(g, k, np.full(g.shape, g.mean()))
            e = np.concatenate(([e0], res.trace.objective))
            assert np.all(np.diff(e) <= 1e-12 * np.abs(e[:-1]))
            assert e[-1] < e[0]

    def test_srl_relative_change_decays_on_high_count_setup(self):
        """Seeded 1-D high-count trial: the step size decays monotonically in
        trend, is finite throughout, and drops below 5e-4 within 500 steps
        (measured; the 1e-4 stopping level needs ~2500)."""
        rng = rng_for_trial(20260810, 0)
        kernel = gaussian_kernel_1d(0.2 * math.pi)
        model = ForwardModel(kernel, HaarBoxDictionary(128, (2, 3, 4, 5)))
        _, f_true = synth_sparse_signal(model.dictionary, kernel, 256.0, rng)
        g = poisson_sample(conv_forward(kernel, f_true), rng)
        cfg = SolverConfig(lam=0.2, epsilon_stop=1e-4, max_iters=2500)
        res = run_solver("srl", g, model=model, config=cfg, ground_truth=f_true)
        rc = res.trace.rel_change
        assert np.all(np.isfinite(rc))
        assert min(rc[:500]) < 5e-4
        assert res.trace.terminated_by == "converged"

    def test_oracle_mode_requires_truth(self):
        with pytest.raises(ValueError):
            run_solver(
                "rl", np.ones((4, 4)), kernel=identity_kernel(), mode="nmse_optimal"
            )

    def test_oracle_mode_returns_best_iterate(self):
        rng = np.random.default_rng(21)
        k = make_kernel(rng.random(7))
        f_true = np.zeros((32, 1))
        f_true[10:14] = 20.0
        g = poisson_sample(conv_forward(k, f_true), rng)
        cfg = SolverConfig(max_iters=80)
        res = run_solver(
            "rl", g, kernel=k, config=cfg, ground_truth=f_true, mode="nmse_optimal"
        )
        assert res.trace.terminated_by == "nmse_optimal"
        assert res.trace.oracle
        assert abs(nmse(f_true, res.estimate) - min(res.trace.nmse)) < 1e-12

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            run_solver("unknown", np.ones((2, 2)), kernel=identity_kernel())

    def test_trace_csv_round_trip(self, tmp_path):
        trace = SolverTrace(
            rel_change=[0.5, 0.1],
            objective=[10.0, 8.0],
            nmse=[0.3, 0.2],
            terminated_by="max_iters",
        )
        path = tmp_path / "trace.csv"
        trace.write_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "iter,objective,rel_change,nmse"
        assert lines[1] == "1,10,0.5,0.3"
        assert len(lines) == 3

    def test_trace_csv_blank_columns(self, tmp_path):
        trace = SolverTrace(rel_change=[0.5], terminated_by="converged")
        path = tmp_path / "trace.csv"
        trace.write_csv(path)
        assert path.read_text().strip().splitlines()[1] == "1,,0.5,"


def _reference_run(method, g, kernel, model, cfg, truth, mode):
    """run_solver written out over the public step, objective and metric functions."""
    srl = method == "srl"
    state = np.ones(model.coeff_shape) if srl else np.full(g.shape, g.mean())
    rel, obj, err = [], [], []
    best, best_err = None, np.inf
    for _ in range(cfg.max_iters):
        if method == "rl":
            new = rl_step(g, kernel, state, cfg.eps_div)
        elif srl:
            new = srl_step(g, model, state, cfg.lam, cfg.eps_div)
        else:
            new = rltv_step(g, kernel, state, cfg.gamma_tv, cfg.eps_div, cfg.eps_tv)
        rel.append(float(np.linalg.norm(new - state)) / float(np.linalg.norm(state)))
        state = new
        image = model.dictionary.synthesize(state) if srl else state
        if method == "rl":
            obj.append(ml_objective(g, kernel, state))
        elif srl:
            obj.append(map_objective(g, model, state, cfg.lam))
        else:
            obj.append(ml_objective(g, kernel, state) + cfg.gamma_tv * tv_norm(state))
        if truth is not None:
            err.append(nmse(truth, image))
            if mode == "nmse_optimal" and err[-1] < best_err:
                best, best_err = image, err[-1]
        if mode == "converged" and rel[-1] < cfg.epsilon_stop:
            break
    return rel, obj, (err if truth is not None else None), (image if best is None else best)


class TestRunSolverMatchesReferenceLoop:
    """One shared image and blurred model per iterate changes no bit of the
    trace or the estimate against separate step, objective and NMSE calls."""

    @pytest.mark.parametrize("method", ["rl", "srl", "rltv"])
    @pytest.mark.parametrize(
        "mode,with_truth",
        [("converged", False), ("converged", True), ("nmse_optimal", True)],
    )
    def test_bit_identical(self, method, mode, with_truth):
        """On a 16x16 spline model (FourierFilter path) and, for rl and srl,
        on a 128x1 Haar model under a Gaussian blur (ColumnFilter path)."""
        rng = np.random.default_rng(30)
        kernel = make_kernel(rng.random((3, 3)))
        problems = [(kernel, ForwardModel(kernel, SplineDictionary((16, 16), 2)))]
        if method != "rltv":
            kernel = gaussian_kernel_1d(0.2 * math.pi)
            problems.append((kernel, ForwardModel(kernel, HaarBoxDictionary(128))))
        for kernel, model in problems:
            if model.image_shape[1] == 1:
                _, truth = synth_sparse_signal(model.dictionary, kernel, 64.0, rng)
                g = poisson_sample(conv_forward(kernel, truth), rng)
            else:
                truth = rng.random((16, 16)) * 6.0
                g = poisson_sample(conv_forward(kernel, truth) + 0.5, rng)
            cfg = SolverConfig(lam=0.1, gamma_tv=0.01, epsilon_stop=3e-2, max_iters=40)
            res = run_solver(
                method, g, kernel=kernel, model=model, config=cfg,
                ground_truth=truth if with_truth else None, mode=mode,
            )
            rel, obj, err, estimate = _reference_run(
                method, g, kernel, model, cfg, truth if with_truth else None, mode
            )
            assert np.array_equal(res.trace.rel_change, rel)
            assert np.array_equal(res.trace.objective, obj)
            if err is None:
                assert res.trace.nmse is None
            else:
                assert np.array_equal(res.trace.nmse, err)
            np.testing.assert_array_equal(res.estimate, estimate)
            if mode == "converged":
                assert res.trace.terminated_by == "converged" and res.trace.n_iters < 40

    def test_one_synthesis_and_blur_per_srl_iterate(self, monkeypatch):
        """SRL synthesizes and blurs each iterate once (plus once for the
        starting point) while recording the objective and the NMSE."""
        rng = np.random.default_rng(31)
        kernel = make_kernel(rng.random(5))
        model = ForwardModel(kernel, HaarBoxDictionary(32, (1, 2)))
        truth = model.dictionary.synthesize(rng.random(model.coeff_shape))
        g = poisson_sample(conv_forward(kernel, truth), rng)
        counts = {"synthesize": 0, "blur.forward": 0}

        def counted(name, fn):
            def wrapper(*args):
                counts[name] += 1
                return fn(*args)
            return wrapper

        monkeypatch.setattr(
            HaarBoxDictionary, "synthesize",
            counted("synthesize", HaarBoxDictionary.synthesize),
        )
        monkeypatch.setattr(
            model.blur, "forward", counted("blur.forward", model.blur.forward)
        )
        res = run_solver(
            "srl", g, model=model, config=SolverConfig(max_iters=25), ground_truth=truth
        )
        assert res.trace.n_iters == 25 and len(res.trace.objective) == 25
        assert counts == {"synthesize": 26, "blur.forward": 26}


class TestTraceArrays:
    """A run's trace holds 1-D float64 arrays, 8 bytes per iteration."""

    @pytest.mark.parametrize("method", ["rl", "srl", "rltv"])
    @pytest.mark.parametrize(
        "mode,with_truth",
        [("converged", False), ("converged", True), ("nmse_optimal", True)],
    )
    def test_fields_are_float64_arrays(self, method, mode, with_truth):
        rng = np.random.default_rng(32)
        kernel = make_kernel(rng.random((3, 3)))
        model = ForwardModel(kernel, SplineDictionary((16, 16), 2))
        truth = rng.random((16, 16)) * 6.0
        g = poisson_sample(conv_forward(kernel, truth) + 0.5, rng)
        cfg = SolverConfig(epsilon_stop=3e-2, max_iters=30)
        res = run_solver(
            method, g, kernel=kernel, model=model, config=cfg,
            ground_truth=truth if with_truth else None, mode=mode,
        )
        trace = res.trace
        n = trace.n_iters
        assert 1 <= n <= 30 and (n == 30) == (mode == "nmse_optimal")
        fields = [trace.rel_change, trace.objective] + ([trace.nmse] if with_truth else [])
        for values in fields:
            assert type(values) is np.ndarray and values.dtype == np.float64
            assert values.shape == (n,) and values.nbytes == 8 * n
        if not with_truth:
            assert trace.nmse is None

    def test_hand_built_trace_is_converted(self):
        trace = SolverTrace(rel_change=[0.5, 0.1], objective=(3, 2), terminated_by="max_iters")
        assert trace.rel_change.dtype == np.float64 and trace.objective.dtype == np.float64
        np.testing.assert_array_equal(trace.objective, [3.0, 2.0])
        assert trace.nmse is None and trace.n_iters == 2
        assert SolverTrace().rel_change.shape == (0,)


class TestZeroStateIsAFixedPoint:
    """A multiplicative step never leaves an all-zero state, so all-zero
    data converge there instead of recording infinite steps to max_iters."""

    @pytest.mark.parametrize(
        "method,shape", [("rl", (32, 1)), ("srl", (32, 1)), ("rl", (16, 16)), ("srl", (16, 16)),
                         ("rltv", (16, 16))],
    )
    def test_zero_data_converge(self, method, shape):
        if shape[1] == 1:
            kernel = gaussian_kernel_1d(0.2 * math.pi)
            model = ForwardModel(kernel, HaarBoxDictionary(shape[0], (1, 2)))
        else:
            kernel = make_kernel(np.ones((3, 3)))
            model = ForwardModel(kernel, SplineDictionary(shape, 2))
        res = run_solver(
            method, np.zeros(shape), kernel=kernel, model=model, config=SolverConfig(max_iters=50)
        )
        assert res.trace.terminated_by == "converged" and res.trace.n_iters <= 2
        assert np.all(np.isfinite(res.trace.rel_change))
        assert not res.estimate.any()

    def test_a_move_away_from_zero_is_infinite(self, monkeypatch):
        monkeypatch.setattr(solvers, "rl_step", lambda g, blur, f, *args: np.ones_like(f))
        res = run_solver("rl", np.ones((8, 1)), kernel=identity_kernel(), init=np.zeros((8, 1)))
        np.testing.assert_array_equal(res.trace.rel_change, [np.inf, 0.0])
        assert res.trace.terminated_by == "converged"


def _recorded_steps(monkeypatch, name):
    """Outputs of every solvers.<name> call that run_solver makes."""
    steps = []
    original = getattr(solvers, name)

    def recorder(*args, **kwargs):
        steps.append(original(*args, **kwargs))
        return steps[-1]

    monkeypatch.setattr(solvers, name, recorder)
    return steps


class TestSrlObjectiveMonotone:
    """SRL's update is the exact EM step for the Poisson likelihood plus
    lam * 1'c on c >= 0 (Shepp & Vardi 1982; Lange & Carson 1984), so its
    objective never rises beyond round-off, from the starting point on."""

    @pytest.mark.parametrize("path", SRL_PATHS)
    def test_nonincreasing(self, path):
        model, g = _srl_problem(path)
        cfg = SolverConfig(lam=0.1, epsilon_stop=1e-15, max_iters=300)
        res = run_solver("srl", g, model=model, config=cfg)
        assert res.trace.terminated_by == "max_iters"
        obj0 = map_objective(g, model, np.ones(model.coeff_shape), cfg.lam)
        obj = np.concatenate(([obj0], res.trace.objective))
        rises = np.diff(obj)
        assert np.all(rises <= 1e-12 * np.abs(obj).max()), rises.max()
        assert obj[-1] < obj[0]


class TestEveryStepConservesMass:
    """Identities that bind each step, where a wrong step can still lower
    the objective: <v + lam, c_{k+1}> = <c_k, A*(g / Ac_k)> = sum g for
    SRL, and sum f_{k+1} = <Hf_k, g / Hf_k> = sum g for RL, whenever the
    model is positive wherever g is."""

    @pytest.mark.parametrize("path", SRL_PATHS)
    def test_srl_weighted_mass(self, path, monkeypatch):
        model, g = _srl_problem(path)
        steps = _recorded_steps(monkeypatch, "srl_step")
        cfg = SolverConfig(lam=0.1, epsilon_stop=1e-15, max_iters=50)
        assert run_solver("srl", g, model=model, config=cfg).trace.n_iters == 50
        assert len(steps) == 50
        for c in steps:
            mass = weighted_l1(c, model.v + cfg.lam)
            assert abs(mass - g.sum()) <= 1e-12 * g.sum()

    def test_rl_mass(self, monkeypatch):
        """On a 2-D image (FourierFilter blur) and an N x 1 column
        (ColumnFilter blur), over every step of a run to max_iters."""
        rng = np.random.default_rng(34)
        cases = [
            (make_kernel(rng.random((3, 3))), rng.random((12, 12)) * 4.0),
            (gaussian_kernel_1d(0.2 * math.pi), rng.random((64, 1)) * 4.0),
        ]
        cfg = SolverConfig(epsilon_stop=1e-15, max_iters=300)
        for k, f_true in cases:
            g = poisson_sample(conv_forward(k, f_true) + 0.5, rng)
            steps = _recorded_steps(monkeypatch, "rl_step")
            assert run_solver("rl", g, kernel=k, config=cfg).trace.n_iters == 300
            assert len(steps) == 300
            for f in steps:
                assert abs(f.sum() - g.sum()) <= 1e-12 * g.sum()


class TestFusedSplineIteration:
    def test_eleven_plane_transforms(self, monkeypatch):
        """At J = 4 a step on the carried blurred model (1 transform in, J
        out) and the next iterate's evaluation (J in, 2 out) take 11 plane
        transforms, where going through image space took 14."""
        model = ForwardModel(inverse_quadratic_kernel(2), SplineDictionary((32, 32), 4))
        c = np.ones(model.coeff_shape)
        blurred = model.forward(c)
        g = np.round(blurred)
        planes = {"in": 0, "out": 0}

        def counted(side, fn):
            def wrapper(a, *args, **kwargs):
                planes[side] += a.size // (a.shape[-2] * a.shape[-1])
                return fn(a, *args, **kwargs)
            return wrapper

        monkeypatch.setattr(np.fft, "rfft", counted("in", np.fft.rfft))
        monkeypatch.setattr(np.fft, "irfft", counted("out", np.fft.irfft))
        model.evaluate(srl_step(g, model, c, 0.1, blurred=blurred))
        assert planes == {"in": 1 + 4, "out": 4 + 2}


class TestRunSolverInputs:
    """Bad inputs are rejected before the first iteration."""

    def test_non_finite_data_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            run_solver("rl", [[np.nan], [1.0]], kernel=identity_kernel())

    def test_negative_data_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            run_solver("rl", [[-1.0], [3.0]], kernel=identity_kernel())

    def test_data_shape_must_match_model(self):
        model = ForwardModel(identity_kernel(), HaarBoxDictionary(8, (0, 1)))
        with pytest.raises(ValueError, match="model expects"):
            run_solver("srl", np.ones((4, 1)), model=model)

    def test_init_shape_must_match_state(self):
        model = ForwardModel(identity_kernel(), HaarBoxDictionary(8, (0, 1)))
        with pytest.raises(ValueError, match="init shape"):
            run_solver("srl", np.ones((8, 1)), model=model, init=np.ones((8, 1)))

    def test_non_finite_init_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            run_solver(
                "rl", np.ones((2, 1)), kernel=identity_kernel(), init=[[np.inf], [1.0]]
            )

    def test_negative_init_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            run_solver(
                "rltv", np.ones((2, 2)), kernel=identity_kernel(), init=-np.ones((2, 2))
            )

    @pytest.mark.parametrize(
        "truth,match",
        [
            (np.full((4, 1), np.nan), "non-finite"),
            ([[1.0], [-1.0], [1.0], [1.0]], "negative"),
            (np.ones((2, 2)), "ground truth has shape"),
            (np.zeros((4, 1)), "all zero"),
        ],
        ids=["non_finite", "negative", "wrong_shape", "all_zero"],
    )
    def test_bad_ground_truth_rejected(self, truth, match):
        with pytest.raises(ValueError, match=match):
            run_solver(
                "rl", np.ones((4, 1)), kernel=identity_kernel(), ground_truth=truth,
                mode="nmse_optimal", config=SolverConfig(max_iters=10),
            )

    def test_non_finite_step_stops_the_run(self):
        """A zero pixel under data with a subnormal division floor makes the
        first RL step overflow; the run stops there and says so."""
        with np.errstate(over="ignore", invalid="ignore"):
            res = run_solver(
                "rl", [[1.0], [1.0]], kernel=identity_kernel(), init=[[0.0], [1.0]],
                config=SolverConfig(eps_div=1e-320, max_iters=50),
            )
        assert res.trace.terminated_by == "non_finite"
        assert res.trace.n_iters == 1
        assert np.isnan(res.estimate[0, 0]) and res.estimate[1, 0] == 1.0


class TestFourierPathStaysNonnegative:
    """On 2-D images the blur and the spline synthesis run through FFTs,
    whose round-off leaves entries near -1e-17 where the exact result is 0:
    inside a zero region of the data wider than the kernel, and wherever the
    coefficients vanish. The updates and the synthesized image clamp them."""

    def _data(self):
        rng = np.random.default_rng(50)
        g = poisson_sample(np.full((48, 48), 20.0), rng)
        g[8:40, 8:40] = 0.0
        return g

    def test_rl(self):
        g = self._data()
        res = run_solver(
            "rl", g, kernel=inverse_quadratic_kernel(2), config=SolverConfig(max_iters=5)
        )
        assert np.all(res.estimate >= 0.0)

    def test_srl(self):
        g = self._data()
        model = ForwardModel(inverse_quadratic_kernel(2), SplineDictionary(g.shape, 2))
        res = run_solver("srl", g, model=model, config=SolverConfig(lam=0.1, max_iters=5))
        assert np.all(res.coefficients >= 0.0) and np.all(res.estimate >= 0.0)


@st.composite
def update_problems(draw):
    """(model, g, rng) on a small problem: the Haar dictionary on an N x 1
    column (ColumnFilter blur), the spline or patch dictionary on a 2-D
    image (FourierFilter blur), or the identity dictionary under either
    blur kind. g is a Poisson draw with about a third of its pixels zeroed,
    so the FFT path's round-off reaches the clamp."""
    kind = draw(st.sampled_from(["haar", "identity_column", "spline", "patch", "identity_2d"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind in ("haar", "identity_column"):
        n = draw(st.sampled_from([16, 32, 64]))
        kernel = gaussian_kernel_1d(draw(st.floats(0.3 * math.pi, 0.9 * math.pi)))
        if kind == "haar":
            levels = draw(st.lists(st.integers(0, 2), min_size=1, max_size=3, unique=True))
            dictionary = HaarBoxDictionary(n, levels)
        else:
            dictionary = IdentityDictionary((n, 1))
    else:
        s = draw(st.sampled_from([1, 2])) if kind == "patch" else 1
        shape = (s * draw(st.integers(8 // s, 16 // s)), s * draw(st.integers(8 // s, 16 // s)))
        kr, kc = draw(st.sampled_from([1, 3, 5])), draw(st.sampled_from([1, 3, 5]))
        kernel = make_kernel(rng.random((kr, kc)))
        if kind == "spline":
            dictionary = SplineDictionary(shape, draw(st.integers(1, 2)))
        elif kind == "patch":
            patch = (draw(st.integers(s, 4)), draw(st.integers(s, 4)))
            dictionary = PatchDictionary(rng.random((draw(st.integers(1, 3)), *patch)), s, shape)
        else:
            dictionary = IdentityDictionary(shape)
    model = ForwardModel(kernel, dictionary)
    g = poisson_sample(rng.random(model.image_shape) * 20.0, rng)
    g[rng.random(g.shape) < 0.3] = 0.0
    return model, g, rng


class TestSharedUpdateInvariants:
    """RL, RLTV and SRL are one update on the blur or the forward model; its
    invariants hold on every dictionary and both blur kinds."""

    @settings(max_examples=150, deadline=None)
    @given(update_problems(), st.floats(0.0, 0.05))
    def test_rl_and_rltv(self, problem, gamma_tv):
        """Nonnegative; RL keeps sum f = sum g where Hf > 0 (here everywhere,
        f being positive); RLTV with gamma = 0 is RL to the bit."""
        model, g, rng = problem
        f = rng.random(model.image_shape) + 0.1
        rl = rl_step(g, model.blur, f)
        assert np.all(rl >= 0.0)
        assert abs(rl.sum() - g.sum()) <= 1e-12 * max(g.sum(), 1.0)
        assert np.all(rltv_step(g, model.blur, f, gamma_tv) >= 0.0)
        assert np.array_equal(rltv_step(g, model.blur, f, 0.0), rl)

    @settings(max_examples=150, deadline=None)
    @given(update_problems(), st.floats(0.01, 1.0))
    def test_srl(self, problem, lam):
        """sum (v + lam) c' = sum g where Ac > 0 (everywhere for positive c),
        and coefficients that are exactly 0 stay exactly 0."""
        model, g, rng = problem
        c = rng.random(model.coeff_shape) + 0.1
        out = srl_step(g, model, c, lam)
        assert np.all(out >= 0.0)
        assert abs(weighted_l1(out, model.v + lam) - g.sum()) <= 1e-12 * max(g.sum(), 1.0)
        dead = rng.random(c.shape) < 0.3
        c[dead] = 0.0
        out = srl_step(g, model, c, lam)
        assert np.all(out[dead] == 0.0) and np.all(out >= 0.0)
