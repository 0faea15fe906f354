"""Shared test utilities, and oracles that only the tests call."""

import os

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy import ndimage, stats

from poisson_deconv.core import EPS_DIV, as_image, floor_zeros, log_inner, require_shape
from poisson_deconv.io import save_matrix_text, save_pgm
from poisson_deconv.metrics import SSIM_K1, SSIM_K2, SSIM_WINDOW
from poisson_deconv.operators import ConvKernel


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
    b = require_shape(b, a.shape)
    return float(np.dot(a.ravel(), b.ravel()))


def weighted_l1(c, w) -> float:
    """Weighted l1 norm sum(w_i * c_i) of nonnegative c with weights w >= 0."""
    c = np.asarray(c, dtype=np.float64)
    w = require_shape(w, c.shape)
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
    ratio = np.asarray(g, dtype=np.float64) / floor_zeros(ac, eps_div)
    return model.v - model.adjoint(ratio) + lam * np.sign(c)


def save_image(path, img: np.ndarray) -> None:
    """Save an image as PGM (by extension) or matrix text."""
    img = as_image(img)
    if os.fspath(path).lower().endswith(".pgm"):
        save_pgm(path, img)
    else:
        save_matrix_text(path, img)


def identity_kernel() -> ConvKernel:
    return ConvKernel(np.ones((1, 1)))


def raw_spline_taps(j: int) -> np.ndarray:
    """Cubic B-spline taps at dyadic scale 2^j before spline_generator's
    unit-norm scaling: the unit cubic spline [1, 4, 1]/6 convolved with four
    boxes of 2^j ones, times 2^(-3j), so they sum to 2^j."""
    b = np.array([1.0, 4.0, 1.0]) / 6.0
    for _ in range(4):
        b = np.convolve(b, np.ones(2**j))
    return b * 2.0 ** (-3 * j)


class IdentityDictionary:
    """Trivial dictionary whose coefficients are the image itself: each atom
    is one unit pixel, so every atom sums to 1."""

    def __init__(self, shape: tuple[int, int]):
        self.image_shape = (int(shape[0]), int(shape[1]))
        self.coeff_shape = self.image_shape
        self.atom_sums = np.ones((1, 1))

    def synthesize(self, c) -> np.ndarray:
        c = np.asarray(c, dtype=np.float64)
        if c.shape != self.coeff_shape:
            raise ValueError("coefficient shape mismatch")
        return c.copy()

    def adjoint(self, f) -> np.ndarray:
        f = np.asarray(f, dtype=np.float64)
        if f.shape != self.image_shape:
            raise ValueError("image shape mismatch")
        return f.copy()


def fft_transfer(kernels, shape) -> np.ndarray:
    """(J, rows, cols // 2 + 1) complex transfer functions built the direct
    way: each kernel's taps wrapped onto the image grid, centre tap at pixel
    (0, 0), and the full 2-D real FFT of that image."""
    rows, cols = shape
    out = []
    for k in kernels:
        k = np.asarray(k, dtype=np.float64)
        psf = np.zeros((rows, cols))
        kr, kc = k.shape
        psf[np.ix_((np.arange(kr) - kr // 2) % rows, (np.arange(kc) - kc // 2) % cols)] = k
        out.append(np.fft.rfft2(psf))
    return np.stack(out)


def spline_synthesize_direct(c, generators) -> np.ndarray:
    """Spline-pyramid synthesis as direct separable ndimage passes: plane j
    convolved with b_j along rows, then columns, summed over the planes."""
    out = np.zeros(c.shape[1:])
    for plane, b in zip(c, generators):
        tmp = ndimage.convolve1d(plane, b, axis=0, mode="wrap")
        out += ndimage.convolve1d(tmp, b, axis=1, mode="wrap")
    return out


def spline_adjoint_direct(f, generators) -> np.ndarray:
    """Adjoint of spline_synthesize_direct: one correlation plane per level."""
    out = np.empty((len(generators), *f.shape))
    for i, b in enumerate(generators):
        tmp = ndimage.correlate1d(f, b, axis=0, mode="wrap")
        out[i] = ndimage.correlate1d(tmp, b, axis=1, mode="wrap")
    return out


def ssim_window_stack(f_true, f_hat) -> float:
    """SSIM from (rows - 7, cols - 7, 8, 8) sliding-window stacks averaged
    by numpy: the summation order metrics.ssim reproduces bit for bit."""
    a = np.asarray(f_true, dtype=np.float64)
    b = np.asarray(f_hat, dtype=np.float64)
    peak = max(float(a.max()), float(b.max()))
    if peak <= 0.0:
        return 1.0
    c1 = (SSIM_K1 * peak) ** 2
    c2 = (SSIM_K2 * peak) ** 2
    wa = sliding_window_view(a, (SSIM_WINDOW, SSIM_WINDOW))
    wb = sliding_window_view(b, (SSIM_WINDOW, SSIM_WINDOW))
    mu_a = wa.mean(axis=(2, 3))
    mu_b = wb.mean(axis=(2, 3))
    var_a = (wa * wa).mean(axis=(2, 3)) - mu_a * mu_a
    var_b = (wb * wb).mean(axis=(2, 3)) - mu_b * mu_b
    cov = (wa * wb).mean(axis=(2, 3)) - mu_a * mu_b
    num = (2.0 * mu_a * mu_b + c1) * (2.0 * cov + c2)
    den = (mu_a * mu_a + mu_b * mu_b + c1) * (var_a + var_b + c2)
    return float(np.mean(num / den))
