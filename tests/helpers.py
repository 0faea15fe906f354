"""Shared test utilities, and oracles that only the tests call."""

import os

import numpy as np
from scipy import stats

from poisson_deconv.core import EPS_DIV, as_image, log_inner, require_same_shape, safe_div
from poisson_deconv.io import save_matrix_text, save_pgm


def poisson_gof_pvalue(draws, mean):
    """Chi-square goodness-of-fit p-value against the Poisson pmf.

    Bins are merged from both ends until every expected count is at
    least 5, with the upper tail folded into the last bin.
    """
    n = draws.size
    max_k = int(draws.max())
    observed = np.bincount(draws.astype(int), minlength=max_k + 1).astype(float)
    expected = stats.poisson.pmf(np.arange(max_k + 1), mean) * n
    expected[-1] += n - expected.sum()
    while len(expected) > 2 and expected[-1] < 5.0:
        expected[-2] += expected[-1]
        observed[-2] += observed[-1]
        expected = expected[:-1]
        observed = observed[:-1]
    while len(expected) > 2 and expected[0] < 5.0:
        expected[1] += expected[0]
        observed[1] += observed[0]
        expected = expected[1:]
        observed = observed[1:]
    chi2 = float(np.sum((observed - expected) ** 2 / expected))
    return float(stats.chi2.sf(chi2, df=len(expected) - 1))


def inner(a: np.ndarray, b: np.ndarray) -> float:
    """Standard inner product: sum of the elementwise products."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    require_same_shape(a, b)
    return float(np.dot(a.ravel(), b.ravel()))


def weighted_l1(c, w) -> float:
    """Weighted l1 norm sum(w_i * c_i) of nonnegative c with weights w >= 0."""
    c = np.asarray(c, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    require_same_shape(c, w)
    if np.any(c < 0) or np.any(w < 0):
        raise ValueError("weighted_l1 expects nonnegative inputs")
    # Same pairwise summation as l1_norm so unit weights reproduce it exactly.
    return float(np.sum(w * c))


def map_objective_weighted(g, model, c, lam: float) -> float:
    """The penalized objective written as a (v + lam)-weighted l1 norm minus the log term.

    Uses the model's precomputed column sums instead of summing the
    forward image, so it is an independent evaluation path from
    map_objective; the two must agree to rounding.
    """
    ac = model.forward(c)
    return weighted_l1(c, model.v + lam) - log_inner(g, ac)


def gradient_map(g, model, c, lam: float, eps_div: float = EPS_DIV) -> np.ndarray:
    """Gradient of the penalized objective: v - A*{g / Ac} + lam * sign(c).

    sign(0) = 0 by convention; for nonnegative coefficients the sign is
    simply the indicator of the support.
    """
    c = np.asarray(c, dtype=np.float64)
    ac = model.forward(c)
    ratio = safe_div(np.asarray(g, dtype=np.float64), ac, eps_div)
    return model.v - model.adjoint(ratio) + lam * np.sign(c)


def save_image(path, img: np.ndarray) -> None:
    """Save an image as PGM (by extension) or matrix text."""
    img = as_image(img)
    if os.fspath(path).lower().endswith(".pgm"):
        save_pgm(path, img)
    else:
        save_matrix_text(path, img)
