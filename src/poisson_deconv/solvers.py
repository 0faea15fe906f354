"""Iterative reconstruction: RL, sparse RL on coefficients, and RLTV.

All three methods are multiplicative fixed-point updates for Poisson
data. Classic RL multiplies the image estimate by the back-projected
data/model ratio; the sparse variant applies the same correction to
nonnegative representation coefficients with an extra elementwise
division by v + lambda; RLTV inserts a total-variation curvature factor
into the RL denominator. `run_solver` iterates any of them with either a
relative-change stopping rule or an oracle rule that keeps the iterate
with the lowest error against a known ground truth, synthesizing and
blurring each iterate once for its next step, objective, NMSE and estimate.

The blur is the operator operators.blur_operator builds for the image
shape, once per run: a ColumnFilter on N x 1 columns, a FourierFilter on
2-D images. A FourierFilter's round-off can leave entries near -1e-17
where the exact product is 0, so the RL and sparse-RL updates clamp at 0
(on a column every sum is of nonnegative products and the clamp changes
nothing).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import EPS_DIV, as_image, l1_norm, log_inner, safe_div
from .metrics import nmse
from .operators import Blur, ConvKernel, ForwardModel, blur_operator

#: Floor for the RLTV denominator 1 - gamma * curvature, preventing sign flips.
DENOM_FLOOR = 0.1


@dataclass(frozen=True)
class SolverConfig:
    """Iteration parameters shared by every solver.

    `lam` weighs the l1 coefficient penalty (the reciprocal of the
    Laplacian prior scale), `gamma_tv` the RLTV curvature term. Iteration
    stops when the relative step size drops below `epsilon_stop` or after
    `max_iters` updates. `eps_div` floors zero denominators in pointwise
    ratios and `eps_tv` floors the gradient magnitude inside the TV term.
    """

    lam: float = 0.2
    gamma_tv: float = 0.002
    epsilon_stop: float = 1e-4
    max_iters: int = 1000
    eps_div: float = EPS_DIV
    eps_tv: float = 1e-8

    def __post_init__(self):
        if self.lam < 0 or self.gamma_tv < 0:
            raise ValueError("regularization weights must be nonnegative")
        if not 0.0 < self.epsilon_stop < 1.0:
            raise ValueError("epsilon_stop must lie in (0, 1)")
        if self.max_iters < 1:
            raise ValueError("max_iters must be positive")
        if self.eps_div <= 0 or self.eps_tv <= 0:
            raise ValueError("division/gradient floors must be positive")


@dataclass
class SolverTrace:
    """Per-iteration record of a solver run.

    `objective` is empty only for traces built by hand; `nmse` is None
    when no ground truth was supplied. `terminated_by` is one of
    converged, max_iters, nmse_optimal, or non_finite (the step size came
    out NaN or infinite; the offending iterate is the last one recorded).
    """

    rel_change: list[float] = field(default_factory=list)
    objective: list[float] = field(default_factory=list)
    nmse: list[float] | None = None
    terminated_by: str = ""
    oracle: bool = False

    @property
    def n_iters(self) -> int:
        return len(self.rel_change)

    def write_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("iter,objective,rel_change,nmse\n")
            for i in range(self.n_iters):
                obj = f"{self.objective[i]:.12g}" if i < len(self.objective) else ""
                err = (
                    f"{self.nmse[i]:.12g}"
                    if self.nmse is not None and i < len(self.nmse)
                    else ""
                )
                fh.write(f"{i + 1},{obj},{self.rel_change[i]:.12g},{err}\n")


@dataclass
class SolverResult:
    estimate: np.ndarray
    coefficients: np.ndarray | None
    trace: SolverTrace


# ---------------------------------------------------------------------------
# Objectives
# ---------------------------------------------------------------------------


def _neg_log_likelihood(g, blurred: np.ndarray) -> float:
    # <1, y> - <g, log y> for the blurred model y, shared by both objectives.
    return float(blurred.sum()) - log_inner(g, blurred)


def ml_objective(g, kernel: ConvKernel | Blur, f) -> float:
    """Negative Poisson log-likelihood <1, Hf> - <g, log Hf> (constants dropped).

    With a normalized kernel the first term equals the l1 norm of f.
    Returns +inf when g is positive somewhere the blurred model vanishes.
    """
    f = np.asarray(f, dtype=np.float64)
    return _neg_log_likelihood(g, blur_operator(kernel, f.shape).forward(f))


def map_objective(g, model: ForwardModel, c, lam: float) -> float:
    """Penalized objective <1, Ac> - <g, log Ac> + lam * ||c||_1."""
    return _neg_log_likelihood(g, model.forward(c)) + lam * l1_norm(c)


# ---------------------------------------------------------------------------
# Single multiplicative updates; `blurred` may pass in the iterate's blurred
# model. `kernel` may also be the operator that blur_operator built.
# ---------------------------------------------------------------------------


def rl_step(
    g, kernel: ConvKernel | Blur, f, eps_div: float = EPS_DIV, blurred=None
) -> np.ndarray:
    """One RL update: f * H*{ g / H{f} } (pointwise product and ratio)."""
    f = np.asarray(f, dtype=np.float64)
    blur = blur_operator(kernel, f.shape)
    blurred = blur.forward(f) if blurred is None else blurred
    ratio = safe_div(np.asarray(g, dtype=np.float64), blurred, eps_div)
    out = f * blur.adjoint(ratio)
    return np.maximum(out, 0.0, out=out)


def srl_step(
    g, model: ForwardModel, c, lam: float, eps_div: float = EPS_DIV, blurred=None
) -> np.ndarray:
    """One sparse-RL update: A*{ g / A{c} } * c / (v + lam).

    Multiplicative in c, so exact zeros stay exactly zero.
    """
    c = np.asarray(c, dtype=np.float64)
    blurred = model.forward(c) if blurred is None else blurred
    ratio = safe_div(np.asarray(g, dtype=np.float64), blurred, eps_div)
    out = model.adjoint(ratio) * safe_div(c, model.v + lam, eps_div)
    return np.maximum(out, 0.0, out=out)


def _grad_circ(f: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # Forward differences under periodic boundaries.
    return np.roll(f, -1, axis=0) - f, np.roll(f, -1, axis=1) - f


def _div_circ(pr: np.ndarray, pc: np.ndarray) -> np.ndarray:
    # Backward differences: the negative adjoint of _grad_circ.
    return (pr - np.roll(pr, 1, axis=0)) + (pc - np.roll(pc, 1, axis=1))


def tv_curvature(f, eps_tv: float = 1e-8) -> np.ndarray:
    """div( grad f / |grad f| ) with the gradient magnitude floored at eps_tv."""
    f = np.asarray(f, dtype=np.float64)
    gr, gc = _grad_circ(f)
    mag = np.maximum(np.sqrt(gr * gr + gc * gc), eps_tv)
    return _div_circ(gr / mag, gc / mag)


def tv_norm(f) -> float:
    """Isotropic total variation: sum of pointwise gradient magnitudes."""
    gr, gc = _grad_circ(np.asarray(f, dtype=np.float64))
    return float(np.sqrt(gr * gr + gc * gc).sum())


def rltv_step(
    g,
    kernel: ConvKernel | Blur,
    f,
    gamma_tv: float,
    eps_div: float = EPS_DIV,
    eps_tv: float = 1e-8,
    blurred=None,
) -> np.ndarray:
    """One TV-regularized RL update.

    The RL correction is divided by 1 - gamma * div(grad f / |grad f|),
    floored at DENOM_FLOOR to keep the factor positive; the output is
    clamped nonnegative. With gamma_tv = 0 this reduces to rl_step.
    """
    f = np.asarray(f, dtype=np.float64)
    denom = np.maximum(1.0 - gamma_tv * tv_curvature(f, eps_tv), DENOM_FLOOR)
    blur = blur_operator(kernel, f.shape)
    blurred = blur.forward(f) if blurred is None else blurred
    ratio = safe_div(np.asarray(g, dtype=np.float64), blurred, eps_div)
    return np.maximum((f / denom) * blur.adjoint(ratio), 0.0)


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------

METHODS = ("rl", "srl", "rltv")


def run_solver(
    method: str,
    g,
    *,
    kernel: ConvKernel | None = None,
    model: ForwardModel | None = None,
    config: SolverConfig | None = None,
    ground_truth=None,
    mode: str = "converged",
    init=None,
) -> SolverResult:
    """Iterate a solver and return its final (or oracle-best) estimate.

    RL and RLTV take `kernel` and iterate on the image; SRL takes `model`
    and iterates on dictionary coefficients, reporting the synthesized
    image as its estimate. In `converged` mode iteration stops once the
    relative step size drops below config.epsilon_stop; in `nmse_optimal`
    mode (requires `ground_truth`) all max_iters updates run and the
    iterate with the lowest error is returned, flagged as oracle-assisted.
    Either mode stops with `non_finite` once the step size is NaN or
    infinite. Default starting points: a flat image carrying the total
    mass of g for RL/RLTV, all-ones coefficients for SRL; an explicit
    `init` must match the state's shape and be finite and nonnegative. A
    `ground_truth` must be finite, nonnegative, not all zero, and of the
    estimate's (g's) shape.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}, expected one of {METHODS}")
    if mode not in ("converged", "nmse_optimal"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "nmse_optimal" and ground_truth is None:
        raise ValueError("nmse_optimal mode requires a ground truth image")
    cfg = config if config is not None else SolverConfig()
    g = as_image(g, "data g")
    if ground_truth is not None:
        ground_truth = as_image(ground_truth, "ground truth")
        if ground_truth.shape != g.shape:
            raise ValueError(
                f"ground truth has shape {ground_truth.shape}, the estimate has {g.shape}"
            )
        if not np.any(ground_truth):
            raise ValueError("ground truth is all zero, so its NMSE is undefined")

    if method == "srl":
        if model is None:
            raise ValueError("srl requires a forward model")
        if g.shape != model.image_shape:
            raise ValueError(f"g has shape {g.shape}, the model expects {model.image_shape}")
        blur, synthesize = model.blur, model.dictionary.synthesize
        state = np.ones(model.coeff_shape)
        step = lambda c, y: srl_step(g, model, c, cfg.lam, cfg.eps_div, y)
    else:
        if kernel is None:
            raise ValueError(f"{method} requires a convolution kernel")
        blur, synthesize = blur_operator(kernel, g.shape), None
        state = np.full(g.shape, g.mean())
        if method == "rl":
            step = lambda f, y: rl_step(g, blur, f, cfg.eps_div, y)
        else:
            step = lambda f, y: rltv_step(g, blur, f, cfg.gamma_tv, cfg.eps_div, cfg.eps_tv, y)
    if init is not None:
        init = np.array(init, dtype=np.float64)
        if init.shape != state.shape:
            raise ValueError(f"init shape {init.shape} does not match the state's {state.shape}")
        if not np.all(np.isfinite(init)) or np.any(init < 0):
            raise ValueError("init must be finite and nonnegative")
        state = init

    track_nmse = ground_truth is not None
    trace = SolverTrace(nmse=[] if track_nmse else None, oracle=(mode == "nmse_optimal"))
    best, best_err = None, np.inf

    terminated = "nmse_optimal" if trace.oracle else "max_iters"
    blurred = None  # the first step blurs its starting point itself
    for _ in range(cfg.max_iters):
        image = None  # only `blurred` is held across the step, to keep peak memory down
        new_state = step(state, blurred)
        prev_norm = float(np.linalg.norm(state))
        delta = float(np.linalg.norm(new_state - state))
        rel = delta / prev_norm if prev_norm > 0 else np.inf
        state = new_state
        image = state if synthesize is None else synthesize(state)
        blurred = blur.forward(image)
        objective = _neg_log_likelihood(g, blurred)
        if method == "srl":
            objective += cfg.lam * l1_norm(state)
        elif method == "rltv":
            objective += cfg.gamma_tv * tv_norm(state)
        trace.rel_change.append(rel)
        trace.objective.append(objective)
        if track_nmse:
            err = nmse(ground_truth, image)
            trace.nmse.append(err)
            if trace.oracle and err < best_err:
                best, best_err = (state, image), err
        if not math.isfinite(delta):
            terminated = "non_finite"
            break
        if mode == "converged" and rel < cfg.epsilon_stop:
            terminated = "converged"
            break

    if best is not None:
        state, image = best
    trace.terminated_by = terminated
    return SolverResult(image, state if method == "srl" else None, trace)
