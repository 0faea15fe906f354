"""Experiment harness: presets, trial orchestration, and CSV/PGM emission.

Configuration is a flat key=value mapping; a preset name fills in every
default and explicit keys override it. Each trial draws its own random
stream from (seed, trial index), so a whole experiment is reproducible
byte-for-byte, and a trial's files do not depend on the trial count.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from . import io
from .metrics import MetricReport, SSIM_K1, SSIM_K2, SSIM_WINDOW, average_trials, nmse, ssim
from .operators import (
    ConvKernel,
    ForwardModel,
    HaarBoxDictionary,
    PatchDictionary,
    SplineDictionary,
    conv_forward,
    gaussian_kernel_1d,
    inverse_quadratic_kernel,
    make_kernel,
)
from .simulate import (
    make_phantom,
    poisson_sample,
    rng_for_trial,
    scale_to_snr,
    synth_sparse_signal,
)
from .solvers import METHODS, SolverConfig, run_solver

_COMMON = {
    "signal": "",
    "dictionary": "",
    "solvers": "",
    "seed": "12345",
    "n_trials": "200",
    "max_iters": "500",
    "max_iters_rl": "",
    "max_iters_srl": "",
    "max_iters_rltv": "",
    "lambda": "0.2",
    "epsilon_stop": "1e-4",
    "eps_div": "1e-12",
    "eps_tv": "1e-8",
    "gamma_tv": "0.002",
    "jobs": "1",
    "dump_trials": "false",
    "out_dir": "out",
    "image_file": "",
    "atoms_file": "",
    "peak_on": "blurred",
    "sparsity_lo": "0.015",
    "sparsity_hi": "0.03",
    "n": "128",
    "rows": "128",
    "cols": "128",
    "kernel": "gaussian",
    "cutoff": repr(0.2 * math.pi),
    "haar_levels": "2,3,4,5",
    "spline_levels": "3",
    "peak": "256",
    "snr_db": "15",
}

_ONED = {**_COMMON, "signal": "sparse1d", "dictionary": "haar", "solvers": "rl:oracle,srl"}

_TWOD = {
    **_COMMON,
    "signal": "image2d",
    "kernel": "inverse_quadratic",
    "lambda": "0.1",
    "solvers": "rl:oracle,rltv:oracle,srl",
    "max_iters": "120",
    "max_iters_srl": "600",
}

PRESETS = {
    "oned_high": {**_ONED, "peak": "256"},
    "oned_low": {**_ONED, "peak": "32"},
    "twod_splines": {**_TWOD, "dictionary": "spline", "spline_levels": "4"},
    "twod_patches": {**_TWOD, "dictionary": "patch"},
    "custom": dict(_COMMON),
}


def parse_config_text(text: str) -> dict[str, str]:
    """Parse flat `key=value` lines; blank lines and # comments are skipped."""
    mapping: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected key=value, got {raw!r}")
        key, value = line.split("=", 1)
        mapping[key.strip()] = value.strip()
    return mapping


@dataclass(frozen=True)
class SolverSpec:
    method: str
    oracle: bool
    config: SolverConfig


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    seed: int
    n_trials: int
    solvers: tuple[SolverSpec, ...]
    signal: str  # sparse1d | image2d
    out_dir: str
    dump_trials: bool
    # problem description (unused fields stay at their defaults)
    n: int
    rows: int
    cols: int
    kernel: str
    cutoff: float
    dictionary: str
    haar_levels: tuple[int, ...]
    spline_levels: int
    atoms_file: str
    image_file: str
    peak: float
    peak_on: str
    snr_db: float
    sparsity: tuple[float, float]


def _parse_bool(value: str) -> bool:
    lowered = value.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off", ""):
        return False
    raise ValueError(f"expected a boolean, got {value!r}")


def _value(merged: dict[str, str], key: str, convert=float):
    """`convert(merged[key])`, failing with an error that names the key and value."""
    value = merged[key]
    try:
        return convert(value)
    except ValueError as exc:
        raise ValueError(f"{key}={value!r}: {exc}") from None


def _finite(value: str) -> float:
    number = float(value)
    if not math.isfinite(number):
        raise ValueError("must be finite")
    return number


def _positive(value: str) -> float:
    number = _finite(value)
    if number <= 0:
        raise ValueError("must be positive")
    return number


def _parse_solvers(merged: dict[str, str]) -> tuple[SolverSpec, ...]:
    base = dict(
        lam=_value(merged, "lambda"),
        gamma_tv=_value(merged, "gamma_tv"),
        epsilon_stop=_value(merged, "epsilon_stop"),
        eps_div=_value(merged, "eps_div"),
        eps_tv=_value(merged, "eps_tv"),
    )
    specs = []
    seen = set()
    for item in merged["solvers"].split(","):
        item = item.strip()
        if not item:
            continue
        parts = item.split(":")
        method = parts[0]
        if method not in METHODS:
            raise ValueError(f"unknown solver {method!r}, expected one of {METHODS}")
        if method in seen:
            raise ValueError(f"solver {method!r} listed twice")
        seen.add(method)
        oracle = False
        for flag in parts[1:]:
            if flag == "oracle":
                oracle = True
            else:
                raise ValueError(f"unknown solver flag {flag!r} in {item!r}")
        iters_key = f"max_iters_{method}" if merged[f"max_iters_{method}"] else "max_iters"
        iters = _value(merged, iters_key, int)
        specs.append(SolverSpec(method, oracle, SolverConfig(max_iters=iters, **base)))
    if not specs:
        raise ValueError("at least one solver is required")
    return tuple(specs)


def build_config(mapping: dict[str, str]) -> ExperimentConfig:
    """Resolve a raw key=value mapping against its preset into a typed config."""
    name = mapping.get("experiment", "custom")
    if name not in PRESETS:
        raise ValueError(f"unknown experiment {name!r}; choose from {sorted(PRESETS)}")
    merged = {**PRESETS[name], **mapping}
    # Accepted keys: the common defaults' (every preset's) and the preset name.
    unknown = set(merged) - set(_COMMON) - {"experiment"}
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")

    signal = merged["signal"]
    if signal not in ("sparse1d", "image2d"):
        raise ValueError("config must set signal=sparse1d or signal=image2d")
    kernel = merged["kernel"]
    if kernel.startswith("file:"):
        if not os.path.exists(kernel[5:]):
            raise ValueError(f"kernel={kernel!r}: {kernel[5:]!r} does not exist")
    elif kernel not in ("gaussian", "inverse_quadratic"):
        raise ValueError(f"kernel={kernel!r}: expected gaussian, inverse_quadratic or file:<path>")
    for key in ("image_file", "atoms_file"):
        path = merged[key]
        if path and not os.path.exists(path):
            raise ValueError(f"{key}={path!r} does not exist")
    dictionary = merged["dictionary"]
    if dictionary not in ("", "haar", "spline", "patch"):
        raise ValueError(f"dictionary={dictionary!r}: expected haar, spline, patch or nothing")
    if dictionary == "patch" and not merged["atoms_file"]:
        raise ValueError("dictionary=patch requires atoms_file=<path>")

    # Trials run in one process; jobs=1 stays valid so configs that set it still load.
    if _value(merged, "jobs", int) != 1:
        raise ValueError(f"jobs={merged['jobs']!r}: trials run in one process, so only jobs=1")
    cfg = ExperimentConfig(
        experiment=name,
        seed=_value(merged, "seed", int),
        n_trials=_value(merged, "n_trials", int),
        solvers=_parse_solvers(merged),
        signal=signal,
        out_dir=merged["out_dir"],
        dump_trials=_value(merged, "dump_trials", _parse_bool),
        n=_value(merged, "n", int),
        rows=_value(merged, "rows", int),
        cols=_value(merged, "cols", int),
        kernel=kernel,
        cutoff=_value(merged, "cutoff", _finite),
        dictionary=dictionary,
        haar_levels=_value(merged, "haar_levels", lambda v: tuple(map(int, v.split(",")))),
        spline_levels=_value(merged, "spline_levels", int),
        atoms_file=merged["atoms_file"],
        image_file=merged["image_file"],
        peak=_value(merged, "peak", _positive),
        peak_on=merged["peak_on"],
        snr_db=_value(merged, "snr_db", _finite),
        sparsity=(_value(merged, "sparsity_lo", _finite), _value(merged, "sparsity_hi", _finite)),
    )
    if cfg.n_trials < 1:
        raise ValueError("n_trials must be positive")
    if not 0.0 < cfg.sparsity[0] <= cfg.sparsity[1] <= 0.1:
        lo, hi = merged["sparsity_lo"], merged["sparsity_hi"]
        raise ValueError(f"sparsity_lo={lo!r}, sparsity_hi={hi!r}: need 0 < lo <= hi <= 0.1")
    if cfg.peak_on not in ("blurred", "true"):
        raise ValueError("peak_on must be 'blurred' or 'true'")
    if not dictionary and (signal == "sparse1d" or any(s.method == "srl" for s in cfg.solvers)):
        raise ValueError("sparse1d signals and the srl solver need a dictionary")
    return cfg


@dataclass
class Problem:
    """Operators and ground truth resolved from a config."""

    kernel: ConvKernel
    model: ForwardModel | None
    truth: np.ndarray | None  # fixed 2-D ground truth, already SNR-scaled
    intensity: np.ndarray | None  # its blurred version


def _build_kernel(cfg: ExperimentConfig) -> ConvKernel:
    if cfg.kernel == "gaussian":
        return gaussian_kernel_1d(cfg.cutoff)
    if cfg.kernel == "inverse_quadratic":
        return inverse_quadratic_kernel()
    return make_kernel(io.load_matrix_text(cfg.kernel[5:]))  # build_config checked the spec


def _build_dictionary(cfg: ExperimentConfig, image_shape: tuple[int, int]):
    if cfg.dictionary == "haar":
        return HaarBoxDictionary(image_shape[0], cfg.haar_levels)
    if cfg.dictionary == "spline":
        return SplineDictionary(image_shape, cfg.spline_levels)
    atoms, stride = io.load_atoms(cfg.atoms_file)  # build_config checked the spec
    return PatchDictionary(atoms, stride, image_shape)


def build_problem(cfg: ExperimentConfig) -> Problem:
    kernel = _build_kernel(cfg)
    needs_model = any(s.method == "srl" for s in cfg.solvers)
    if cfg.signal == "sparse1d":
        model = ForwardModel(kernel, _build_dictionary(cfg, (cfg.n, 1)))
        return Problem(kernel=kernel, model=model, truth=None, intensity=None)
    # image2d: fixed ground truth, rescaled so its blurred version hits the SNR.
    if cfg.image_file:
        truth = io.load_image(cfg.image_file)
    else:
        truth = make_phantom(cfg.rows, cfg.cols)
    blurred = conv_forward(kernel, truth)
    intensity = scale_to_snr(blurred, cfg.snr_db)
    alpha = float(intensity.sum() / blurred.sum())
    truth = alpha * truth
    model = (
        ForwardModel(kernel, _build_dictionary(cfg, truth.shape)) if needs_model else None
    )
    return Problem(kernel=kernel, model=model, truth=truth, intensity=intensity)


def run_trial(problem: Problem, cfg: ExperimentConfig, trial: int) -> dict[str, dict]:
    """One seeded trial: synthesize/draw data, run every solver, score it.

    With `cfg.dump_trials`, writes the trial's truth and data, then each
    solver's reconstruction and trace as it finishes, into `cfg.out_dir`.
    Returns, per solver method, the NMSE, the SSIM (None where the image is
    narrower than the SSIM window) and the NMSE curve, the solver trace's
    float64 array of one value per iteration.
    """
    rng = rng_for_trial(cfg.seed, trial)
    if cfg.signal == "sparse1d":
        _, truth = synth_sparse_signal(
            problem.model.dictionary,
            problem.kernel,
            cfg.peak,
            rng,
            fraction_range=cfg.sparsity,
            scale_blurred=(cfg.peak_on == "blurred"),
        )
        intensity = conv_forward(problem.kernel, truth)
    else:
        truth, intensity = problem.truth, problem.intensity
    g = poisson_sample(intensity, rng)

    can_ssim = truth.shape[0] >= SSIM_WINDOW and truth.shape[1] >= SSIM_WINDOW
    if cfg.dump_trials:
        io.save_matrix_text(os.path.join(cfg.out_dir, f"trial_{trial}_truth.txt"), truth)
        io.save_matrix_text(os.path.join(cfg.out_dir, f"trial_{trial}_data.txt"), g)
    scores = {}
    for spec in cfg.solvers:
        result = run_solver(
            spec.method,
            g,
            kernel=problem.kernel,
            model=problem.model,
            config=spec.config,
            ground_truth=truth,
            mode="nmse_optimal" if spec.oracle else "converged",
        )
        if cfg.dump_trials:
            io.save_pgm(
                os.path.join(cfg.out_dir, f"recon_{spec.method}_{trial}.pgm"), result.estimate
            )
            result.trace.write_csv(os.path.join(cfg.out_dir, f"trace_{spec.method}_{trial}.csv"))
        scores[spec.method] = {
            "nmse": nmse(truth, result.estimate),
            "ssim": ssim(truth, result.estimate) if can_ssim else None,
            "trace_nmse": result.trace.nmse,
        }
    return scores


def _padded_columns(traces: list[np.ndarray]) -> np.ndarray:
    """Stack per-trial NMSE curves, padding early-converged runs with their
    final value so the average is defined out to the longest run."""
    longest = max(len(t) for t in traces)
    grid = np.empty((len(traces), longest))
    for i, t in enumerate(traces):
        grid[i, : len(t)] = t
        grid[i, len(t):] = t[-1]
    return grid


def run_experiment(cfg: ExperimentConfig) -> list[MetricReport]:
    """Run all trials, write metrics.csv plus per-solver trace CSVs, and
    return the aggregated per-solver reports (in config order). A problem
    that cannot be built fails before the output directory is made."""
    problem = build_problem(cfg)
    os.makedirs(cfg.out_dir, exist_ok=True)
    results = [run_trial(problem, cfg, t) for t in range(cfg.n_trials)]

    reports = []
    for spec in cfg.solvers:
        label = spec.method
        entries = [r[spec.method] for r in results]
        nmse_mean, nmse_err = average_trials([e["nmse"] for e in entries])
        ssims = [e["ssim"] for e in entries if e["ssim"] is not None]
        if ssims:
            ssim_mean, ssim_err = average_trials(ssims)
        else:
            ssim_mean = ssim_err = None
        reports.append(
            MetricReport(
                method=label,
                n_trials=cfg.n_trials,
                nmse_mean=nmse_mean,
                nmse_stderr=nmse_err,
                ssim_mean=ssim_mean,
                ssim_stderr=ssim_err,
                oracle=spec.oracle,
            )
        )
        grid = _padded_columns([e["trace_nmse"] for e in entries])
        with open(os.path.join(cfg.out_dir, f"trace_{label}.csv"), "w") as fh:
            fh.write("iter,nmse_mean,nmse_stderr\n")
            for i in range(grid.shape[1]):
                mean, err = average_trials(grid[:, i])
                fh.write(f"{i + 1},{mean:.12g},{err:.12g}\n")

    with open(os.path.join(cfg.out_dir, "metrics.csv"), "w") as fh:
        fh.write(f"# experiment={cfg.experiment} seed={cfg.seed} n_trials={cfg.n_trials}\n")
        fh.write(
            f"# ssim: window={SSIM_WINDOW}x{SSIM_WINDOW} uniform, "
            f"C1=({SSIM_K1}*L)^2, C2=({SSIM_K2}*L)^2, L=max over both images\n"
        )
        fh.write(MetricReport.CSV_HEADER + "\n")
        for report in reports:
            fh.write(report.csv_row() + "\n")

    return reports
