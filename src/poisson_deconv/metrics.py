"""Reconstruction quality measures and trial averaging.

NMSE is the squared Frobenius error normalized by the squared Frobenius
norm of the truth. SSIM is the standard structural similarity index over
8x8 uniform sliding windows with stabilization constants tied to the
shared dynamic range of the two images (the reported parameters are
echoed in the metrics CSV header so results stay comparable).

SSIM's window means are separable sums that add in the order numpy's
pairwise `mean(axis=(2, 3))` over a `sliding_window_view` stack does, so
the scores are those of that stack bit for bit: along each row, three
dyadic doublings p[:, :-w] + p[:, w:] for w = 1, 2, 4 (numpy's 8-way
tree ((x0+x1)+(x2+x3))+((x4+x5)+(x6+x7))); down the columns, the 8 row
results in order; then a division by 64. An image exactly 8 wide is one
contiguous run of 64 values per window, which numpy sums with 8 strided
accumulators: the columns first, then the row tree. A call holds about 8
image-sized arrays, where the stack took 64 image copies per moment.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .core import require_same_shape

SSIM_WINDOW = 8
SSIM_K1 = 0.01
SSIM_K2 = 0.03


def nmse(f_true, f_hat) -> float:
    """||f_true - f_hat||_F^2 / ||f_true||_F^2 for a single trial."""
    f_true = np.asarray(f_true, dtype=np.float64)
    f_hat = np.asarray(f_hat, dtype=np.float64)
    require_same_shape(f_true, f_hat)
    return nmse_against(f_true)(f_hat)


def nmse_against(f_true) -> Callable[[np.ndarray], float]:
    """f_hat -> nmse(f_true, f_hat) with ||f_true||_F^2 computed once, for
    scoring many estimates against one truth (bit-identical results)."""
    f_true = np.asarray(f_true, dtype=np.float64)
    denom = float(np.sum(f_true * f_true))
    if denom == 0.0:
        raise ValueError("nmse undefined for an all-zero ground truth")

    def error(f_hat: np.ndarray) -> float:
        require_same_shape(f_true, f_hat)
        diff = f_true - f_hat
        return float((diff * diff).sum()) / denom

    return error


def _window_means(x: np.ndarray) -> np.ndarray:
    """Means over every 8x8 window of x, (rows - 7, cols - 7), summed as
    the module docstring sets out."""
    n = x.shape[0] - SSIM_WINDOW + 1

    def down(p):
        s = p[:n].copy()
        for k in range(1, SSIM_WINDOW):
            s += p[k : k + n]
        return s

    def across(p):
        for w in (1, 2, 4):
            p = p[:, :-w] + p[:, w:]
        return p

    s = across(down(x)) if x.shape[1] == SSIM_WINDOW else down(across(x))
    s /= SSIM_WINDOW * SSIM_WINDOW
    return s


def ssim(f_true, f_hat) -> float:
    """Mean local structural similarity over 8x8 sliding windows.

    Local means, variances, and covariance are moment estimates over each
    window; the constants are C1 = (K1 L)^2 and C2 = (K2 L)^2 with L the
    maximum value across both images, making the measure symmetric in its
    arguments. Two identical images score exactly 1.
    """
    a = np.asarray(f_true, dtype=np.float64)
    b = np.asarray(f_hat, dtype=np.float64)
    require_same_shape(a, b)
    if a.ndim != 2:
        raise ValueError(f"ssim needs 2-D images, got ndim={a.ndim}")
    if a.shape[0] < SSIM_WINDOW or a.shape[1] < SSIM_WINDOW:
        raise ValueError(f"image {a.shape} smaller than the {SSIM_WINDOW}x{SSIM_WINDOW} window")
    peak = max(float(a.max()), float(b.max()))
    if peak <= 0.0:
        return 1.0
    c1 = (SSIM_K1 * peak) ** 2
    c2 = (SSIM_K2 * peak) ** 2
    mu_a = _window_means(a)
    mu_b = _window_means(b)
    var_a = _window_means(a * a) - mu_a * mu_a
    var_b = _window_means(b * b) - mu_b * mu_b
    cov = _window_means(a * b) - mu_a * mu_b
    num = (2.0 * mu_a * mu_b + c1) * (2.0 * cov + c2)
    den = (mu_a * mu_a + mu_b * mu_b + c1) * (var_a + var_b + c2)
    return float(np.mean(num / den))


def average_trials(values) -> tuple[float, float]:
    """Sample mean and standard error, summed compensated so the mean is
    order-independent. A single value has standard error 0."""
    vals = [float(v) for v in values]
    if not vals:
        raise ValueError("cannot average an empty list of trials")
    n = len(vals)
    mean = math.fsum(vals) / n
    if n == 1:
        return mean, 0.0
    var = math.fsum((v - mean) ** 2 for v in vals) / (n - 1)
    return mean, math.sqrt(var / n)


@dataclass(frozen=True)
class MetricReport:
    """Aggregated per-method scores; ssim fields are None for 1-D signals."""

    method: str
    n_trials: int
    nmse_mean: float
    nmse_stderr: float
    ssim_mean: float | None
    ssim_stderr: float | None
    oracle: bool

    CSV_HEADER = "method,n_trials,nmse_mean,nmse_stderr,ssim_mean,ssim_stderr,oracle"

    def csv_row(self) -> str:
        s_mean = "" if self.ssim_mean is None else f"{self.ssim_mean:.12g}"
        s_err = "" if self.ssim_stderr is None else f"{self.ssim_stderr:.12g}"
        return (
            f"{self.method},{self.n_trials},{self.nmse_mean:.12g},"
            f"{self.nmse_stderr:.12g},{s_mean},{s_err},{str(self.oracle).lower()}"
        )
