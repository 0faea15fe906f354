"""Experiment harness: presets, trial orchestration, and CSV/PGM emission.

Configuration is a flat key=value mapping; a preset name fills in every
default and explicit keys override it. Each trial draws its own random
stream from (seed, trial index), so a whole experiment is reproducible
byte-for-byte, including under trial-level parallelism.
"""

from __future__ import annotations

import math
import multiprocessing
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
from .solvers import SolverConfig, run_solver

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
    jobs: int
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


def _parse_solvers(merged: dict[str, str]) -> tuple[SolverSpec, ...]:
    base = dict(
        lam=float(merged["lambda"]),
        gamma_tv=float(merged["gamma_tv"]),
        epsilon_stop=float(merged["epsilon_stop"]),
        eps_div=float(merged["eps_div"]),
        eps_tv=float(merged["eps_tv"]),
    )
    specs = []
    seen = set()
    for item in merged["solvers"].split(","):
        item = item.strip()
        if not item:
            continue
        parts = item.split(":")
        method = parts[0]
        if method not in ("rl", "srl", "rltv"):
            raise ValueError(f"unknown solver {method!r}")
        if method in seen:
            raise ValueError(f"solver {method!r} listed twice")
        seen.add(method)
        oracle = False
        for flag in parts[1:]:
            if flag == "oracle":
                oracle = True
            else:
                raise ValueError(f"unknown solver flag {flag!r} in {item!r}")
        iters = int(merged[f"max_iters_{method}"] or merged["max_iters"])
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
    for key in ("image_file", "atoms_file"):
        path = merged[key]
        if path and not os.path.exists(path):
            raise ValueError(f"{key}={path!r} does not exist")
    dictionary = merged["dictionary"]
    if dictionary == "patch" and not merged["atoms_file"]:
        raise ValueError("dictionary=patch requires atoms_file=<path>")

    sparsity = (float(merged["sparsity_lo"]), float(merged["sparsity_hi"]))
    cfg = ExperimentConfig(
        experiment=name,
        seed=int(merged["seed"]),
        n_trials=int(merged["n_trials"]),
        solvers=_parse_solvers(merged),
        signal=signal,
        out_dir=merged["out_dir"],
        dump_trials=_parse_bool(merged["dump_trials"]),
        jobs=int(merged["jobs"]),
        n=int(merged["n"]),
        rows=int(merged["rows"]),
        cols=int(merged["cols"]),
        kernel=merged["kernel"],
        cutoff=float(merged["cutoff"]),
        dictionary=dictionary,
        haar_levels=tuple(int(v) for v in merged["haar_levels"].split(",")),
        spline_levels=int(merged["spline_levels"]),
        atoms_file=merged["atoms_file"],
        image_file=merged["image_file"],
        peak=float(merged["peak"]),
        peak_on=merged["peak_on"],
        snr_db=float(merged["snr_db"]),
        sparsity=sparsity,
    )
    if cfg.n_trials < 1:
        raise ValueError("n_trials must be positive")
    if cfg.jobs < 1:
        raise ValueError("jobs must be positive")
    if cfg.peak_on not in ("blurred", "true"):
        raise ValueError("peak_on must be 'blurred' or 'true'")
    if any(s.method == "srl" for s in cfg.solvers) and not dictionary:
        raise ValueError("srl requires a dictionary")
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
    if cfg.kernel.startswith("file:"):
        return make_kernel(io.load_matrix_text(cfg.kernel[5:]), normalize=True)
    raise ValueError(f"unknown kernel spec {cfg.kernel!r}")


def _build_dictionary(cfg: ExperimentConfig, image_shape: tuple[int, int]):
    if cfg.dictionary == "haar":
        return HaarBoxDictionary(image_shape[0], cfg.haar_levels)
    if cfg.dictionary == "spline":
        return SplineDictionary(image_shape, cfg.spline_levels)
    if cfg.dictionary == "patch":
        atoms, stride = io.load_atoms(cfg.atoms_file)
        return PatchDictionary(atoms, stride, image_shape)
    raise ValueError(f"unknown dictionary spec {cfg.dictionary!r}")


def build_problem(cfg: ExperimentConfig) -> Problem:
    kernel = _build_kernel(cfg)
    needs_model = any(s.method == "srl" for s in cfg.solvers)
    if cfg.signal == "sparse1d":
        if not cfg.dictionary:
            raise ValueError("sparse1d experiments need a dictionary to synthesize from")
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


def run_trial(problem: Problem, cfg: ExperimentConfig, trial: int) -> dict:
    """One seeded trial: synthesize/draw data, run every solver, score it."""
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
    out = {"trial": trial}
    if cfg.dump_trials:
        out["truth"] = truth
        out["data"] = g
    per_solver = {}
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
        entry = {
            "nmse": nmse(truth, result.estimate),
            "ssim": ssim(truth, result.estimate) if can_ssim else None,
            "trace_nmse": list(result.trace.nmse),
        }
        if cfg.dump_trials:
            entry["estimate"] = result.estimate
            entry["trace"] = result.trace
        per_solver[spec.method] = entry
    out["solvers"] = per_solver
    return out


_WORKER: tuple[Problem, ExperimentConfig] | None = None


def _init_worker(cfg: ExperimentConfig) -> None:
    global _WORKER
    _WORKER = (build_problem(cfg), cfg)


def _run_worker(trial: int) -> dict:
    problem, cfg = _WORKER
    return run_trial(problem, cfg, trial)


def _padded_columns(traces: list[list[float]]) -> np.ndarray:
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
    return the aggregated per-solver reports (in config order)."""
    os.makedirs(cfg.out_dir, exist_ok=True)
    if cfg.jobs > 1:
        ctx = multiprocessing.get_context("fork")
        with ctx.Pool(cfg.jobs, initializer=_init_worker, initargs=(cfg,)) as pool:
            results = pool.map(_run_worker, range(cfg.n_trials))
    else:
        problem = build_problem(cfg)
        results = [run_trial(problem, cfg, t) for t in range(cfg.n_trials)]
    results.sort(key=lambda r: r["trial"])

    reports = []
    for spec in cfg.solvers:
        label = spec.method
        entries = [r["solvers"][spec.method] for r in results]
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

    if cfg.dump_trials:
        for r in results:
            t = r["trial"]
            io.save_matrix_text(os.path.join(cfg.out_dir, f"trial_{t}_truth.txt"), r["truth"])
            io.save_matrix_text(os.path.join(cfg.out_dir, f"trial_{t}_data.txt"), r["data"])
            for spec in cfg.solvers:
                entry = r["solvers"][spec.method]
                io.save_pgm(
                    os.path.join(cfg.out_dir, f"recon_{spec.method}_{t}.pgm"),
                    entry["estimate"],
                )
                entry["trace"].write_csv(
                    os.path.join(cfg.out_dir, f"trace_{spec.method}_{t}.csv")
                )
    return reports
