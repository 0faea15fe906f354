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

Each step is one update, x * op*(g / op(x)) / divisor (_update), with op
the blur for RL and RLTV and the forward model for sparse RL. The blur is
what operators.blur_operator builds once per run: a ColumnFilter on N x 1
columns, a FourierFilter on 2-D images, whose round-off can leave entries
near -1e-17 where the exact product is 0, so the update clamps at 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .core import (
    EPS_DIV,
    as_image,
    floor_zeros,
    l1_norm,
    log_inner,
    log_inner_with,
    require_shape,
)
from .metrics import nmse_against
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
        for name in ("lam", "gamma_tv", "eps_div", "eps_tv"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
        if not isinstance(self.max_iters, (int, np.integer)):
            raise ValueError(f"max_iters must be an integer, got {self.max_iters!r}")
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

    Its records are 1-D float64 arrays, whatever sequence built them;
    `objective` is empty only for traces built by hand, `nmse` None when no
    ground truth was supplied. `terminated_by` is one of converged,
    max_iters, nmse_optimal, or non_finite (the step size came out NaN or
    infinite; the offending iterate is the last one recorded).
    """

    rel_change: np.ndarray = ()
    objective: np.ndarray = ()
    nmse: np.ndarray | None = None
    terminated_by: str = ""
    oracle: bool = False

    def __post_init__(self):
        self.rel_change = np.asarray(self.rel_change, dtype=np.float64)
        self.objective = np.asarray(self.objective, dtype=np.float64)
        if self.nmse is not None:
            self.nmse = np.asarray(self.nmse, dtype=np.float64)

    @property
    def n_iters(self) -> int:
        return len(self.rel_change)

    def write_csv(self, path) -> None:
        # Python floats format to the same text as numpy scalars, and faster.
        rel, objective = self.rel_change.tolist(), self.objective.tolist()
        nmse = [] if self.nmse is None else self.nmse.tolist()
        with open(path, "w") as fh:
            fh.write("iter,objective,rel_change,nmse\n")
            for i in range(self.n_iters):
                obj = f"{objective[i]:.12g}" if i < len(objective) else ""
                err = f"{nmse[i]:.12g}" if i < len(nmse) else ""
                fh.write(f"{i + 1},{obj},{rel[i]:.12g},{err}\n")


@dataclass
class SolverResult:
    estimate: np.ndarray
    coefficients: np.ndarray | None
    trace: SolverTrace


# ---------------------------------------------------------------------------
# Objectives
# ---------------------------------------------------------------------------


def _neg_log_likelihood(g_log, blurred: np.ndarray) -> float:
    # <1, y> - <g, log y> for the blurred model y, where g_log(y) = <g, log y>.
    return float(blurred.sum()) - g_log(blurred)


def ml_objective(g, kernel: ConvKernel | Blur, f) -> float:
    """Negative Poisson log-likelihood <1, Hf> - <g, log Hf> (constants dropped).

    With a normalized kernel the first term equals the l1 norm of f.
    Returns +inf when g is positive somewhere the blurred model vanishes.
    """
    f = np.asarray(f, dtype=np.float64)
    return _neg_log_likelihood(partial(log_inner, g), blur_operator(kernel, f.shape).forward(f))


def map_objective(g, model: ForwardModel, c, lam: float) -> float:
    """Penalized objective <1, Ac> - <g, log Ac> + lam * ||c||_1."""
    return _neg_log_likelihood(partial(log_inner, g), model.forward(c)) + lam * l1_norm(c)


# ---------------------------------------------------------------------------
# Single multiplicative updates; `blurred` may pass in the iterate's blurred
# model, whose buffer the step consumes: it is overwritten with the ratio
# g / blurred. `kernel` may also be the operator that blur_operator built.
# ---------------------------------------------------------------------------


def _update(op, g, x, divisor, eps_div: float, blurred) -> np.ndarray:
    """x * op*{ g / op{x} } / divisor clamped at 0; g / op{x} is formed in
    the buffer of `blurred` (op{x} when None)."""
    blurred = op.forward(x) if blurred is None else blurred
    g = require_shape(g, blurred.shape)
    out = op.adjoint(np.divide(g, floor_zeros(blurred, eps_div), out=blurred))
    out *= x / divisor
    return np.maximum(out, 0.0, out=out)


def rl_step(g, kernel: ConvKernel | Blur, f, eps_div: float = EPS_DIV, blurred=None) -> np.ndarray:
    """One RL update: f * H*{ g / H{f} } (pointwise product and ratio)."""
    f = np.asarray(f, dtype=np.float64)
    return _update(blur_operator(kernel, f.shape), g, f, 1.0, eps_div, blurred)


def srl_step(
    g, model: ForwardModel, c, lam: float, eps_div: float = EPS_DIV, blurred=None, weight=None
) -> np.ndarray:
    """One sparse-RL update: A*{ g / A{c} } * c / (v + lam).

    Multiplicative in c, so exact zeros stay exactly zero. `blurred` may
    pass in A{c}, a float64 array that the step consumes: g / A{c} is
    formed in its buffer. `weight` may pass in v + lam with its zeros
    floored to eps_div, constant for a run, in model.column_sums' compact
    form or any form that broadcasts to c. g, c and the model are left
    untouched.
    """
    c = np.asarray(c, dtype=np.float64)
    if weight is None:
        weight = floor_zeros(model.column_sums + lam, eps_div)
    return _update(model, g, c, weight, eps_div, blurred)


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
    return _update(blur_operator(kernel, f.shape), g, f, denom, eps_div, blurred)


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------

METHODS = ("rl", "srl", "rltv")


def _norm(x: np.ndarray) -> float:
    # What np.linalg.norm(x) computes, bit for bit, without its Python layers.
    x = x.ravel(order="K")
    return math.sqrt(x.dot(x))


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
    estimate's (g's) shape. The trace's per-iteration records are float64 arrays.
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
        evaluate = model.evaluate
        state = np.ones(model.coeff_shape)
        weight = floor_zeros(model.column_sums + cfg.lam, cfg.eps_div)
        step = lambda c, y: srl_step(g, model, c, cfg.lam, cfg.eps_div, y, weight)
    else:
        if kernel is None:
            raise ValueError(f"{method} requires a convolution kernel")
        blur = blur_operator(kernel, g.shape)
        evaluate = lambda f: (f, blur.forward(f))
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

    track_nmse, oracle = ground_truth is not None, mode == "nmse_optimal"
    # Lists append faster than indexed writes; SolverTrace makes them arrays.
    rel_changes, objectives, errors = [], [], ([] if track_nmse else None)
    best, best_err = None, np.inf
    # Per-run constants: the data's support and the truth's energy.
    g_log = log_inner_with(g)
    error = nmse_against(ground_truth) if track_nmse else None

    terminated = "nmse_optimal" if oracle else "max_iters"
    blurred = None  # the first step blurs its starting point itself
    for _ in range(cfg.max_iters):
        image = None  # only `blurred` is held across the step, to keep peak memory down
        new_state = step(state, blurred)
        prev_norm = _norm(state)
        delta = _norm(new_state - state)
        # A multiplicative step never leaves a zero state: a fixed point, not an infinite step.
        rel = delta / prev_norm if prev_norm > 0 else (0.0 if delta == 0 else math.inf)
        state = new_state
        image, blurred = evaluate(state)
        objective = _neg_log_likelihood(g_log, blurred)
        if method == "srl":
            # l1_norm without its sign check: the step clamps at 0.
            objective += cfg.lam * float(state.sum())
        elif method == "rltv":
            objective += cfg.gamma_tv * tv_norm(state)
        rel_changes.append(rel)
        objectives.append(objective)
        if track_nmse:
            err = error(image)
            errors.append(err)
            if oracle and err < best_err:
                best, best_err = (state, image), err
        if not math.isfinite(delta):
            terminated = "non_finite"
            break
        if mode == "converged" and rel < cfg.epsilon_stop:
            terminated = "converged"
            break

    if best is not None:
        state, image = best
    trace = SolverTrace(rel_changes, objectives, errors, terminated, oracle)
    return SolverResult(image, state if method == "srl" else None, trace)
