"""Ground-truth synthesis, Poisson sampling, and reproducible trial streams.

Test signals are synthesized from sparse nonnegative coefficient vectors
so they are exactly representable in their dictionary; measured data is
an independent Poisson draw at every pixel of the blurred intensity.
Every trial owns its own deterministically derived random stream, so a
whole experiment is a pure function of (spec, seed).
"""

from __future__ import annotations

import numpy as np
from scipy import ndimage

from .operators import ConvKernel, conv_forward, spline_generators


def rng_for_trial(seed: int, trial: int) -> np.random.Generator:
    """Deterministic, trial-indexed stream: (seed, trial) hashes to one
    independent generator; distinct trials never share a sequence."""
    if trial < 0:
        raise ValueError("trial index must be nonnegative")
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(trial,)))


def poisson_sample(intensity, rng: np.random.Generator) -> np.ndarray:
    """Independent Poisson draw per pixel with mean equal to the intensity.

    Counts come back integer-valued but stored as float64.
    """
    intensity = np.asarray(intensity, dtype=np.float64)
    if np.any(intensity < 0) or not np.all(np.isfinite(intensity)):
        raise ValueError("Poisson intensities must be finite and nonnegative")
    return rng.poisson(intensity).astype(np.float64)


def synth_sparse_signal(
    dictionary,
    kernel: ConvKernel,
    peak: float,
    rng: np.random.Generator,
    fraction_range: tuple[float, float] = (0.015, 0.03),
    scale_blurred: bool = True,
):
    """Random sparse nonnegative coefficients and their synthesized signal.

    The support fraction is drawn uniformly from `fraction_range`, support
    indices are chosen without replacement, and values are uniform on
    (0, 1]. Coefficients and signal are then rescaled together so the
    blurred signal's maximum equals `peak` (set `scale_blurred` False to
    pin the unblurred maximum instead). Returns (c_true, f_true).
    """
    if peak <= 0:
        raise ValueError("peak must be positive")
    lo, hi = fraction_range
    if not 0.0 < lo <= hi <= 0.1:
        raise ValueError("fraction_range must be ordered within (0, 0.1]")
    dim = int(np.prod(dictionary.coeff_shape))
    fraction = float(rng.uniform(lo, hi))
    k = int(round(fraction * dim))
    if k == 0:
        raise ValueError(
            f"support fraction {fraction} rounds to zero nonzeros for dim {dim}"
        )
    support = rng.choice(dim, size=k, replace=False)
    c = np.zeros(dim)
    c[support] = 1.0 - rng.uniform(0.0, 1.0, size=k)  # uniform on (0, 1]
    c = c.reshape(dictionary.coeff_shape)
    f = dictionary.synthesize(c)
    reference = conv_forward(kernel, f) if scale_blurred else f
    ref_max = float(reference.max())
    if ref_max <= 0:
        raise ValueError("synthesized signal vanished; cannot scale to peak")
    c = c * (peak / ref_max)
    # Re-synthesize so the returned signal is bit-exactly representable.
    return c, dictionary.synthesize(c)


def scale_to_snr(f, target_snr_db: float) -> np.ndarray:
    """Rescale a nonnegative image so Poisson sampling yields the target SNR.

    With noise power equal to total intensity, SNR(alpha) =
    10 log10(alpha * sum(f^2) / sum(f)); the unique exact solution is
    alpha = 10^(target/10) * sum(f) / sum(f^2).
    """
    f = np.asarray(f, dtype=np.float64)
    if np.any(f < 0):
        raise ValueError("image must be nonnegative")
    total = float(f.sum())
    energy = float(np.sum(f * f))
    if total == 0.0 or energy == 0.0:
        raise ValueError("cannot scale an all-zero image to a target SNR")
    alpha = 10.0 ** (target_snr_db / 10.0) * total / energy
    return alpha * f


def snr_db(intensity) -> float:
    """SNR in dB of Poisson data at the given intensity image."""
    intensity = np.asarray(intensity, dtype=np.float64)
    total = float(intensity.sum())
    energy = float(np.sum(intensity * intensity))
    if total == 0.0:
        raise ValueError("SNR undefined for an all-zero intensity")
    return 10.0 * np.log10(energy / total)


def make_phantom(rows: int = 128, cols: int = 128) -> np.ndarray:
    """Deterministic piecewise-smooth test image on a dark background.

    The smooth part is synthesized from a sparse, fixed set of positive
    B-spline atoms at four dyadic scales clustered inside a central
    ellipse (so it is genuinely sparse in a multiscale smooth dictionary,
    the regime the sparse solver targets); on top sit two sharp-edged
    elliptical plateaus and one rectangular bar, whose flat interiors and
    clean boundaries are the regime the TV prior targets.
    """
    if rows < 32 or cols < 32:
        raise ValueError("phantom needs at least 32x32 pixels")
    generators = spline_generators(4)
    rng = np.random.default_rng(97531)  # fixed: the phantom is a constant
    c = np.zeros((len(generators), rows, cols))

    def place(level, count, amp_lo, amp_hi):
        placed = 0
        while placed < count:
            r = int(rng.integers(0, rows))
            q = int(rng.integers(0, cols))
            if ((r / rows - 0.5) / 0.38) ** 2 + ((q / cols - 0.5) / 0.40) ** 2 <= 1.0:
                c[level, r, q] += rng.uniform(amp_lo, amp_hi)
                placed += 1

    place(3, 8, 1.0, 1.8)
    place(2, 12, 0.5, 1.0)
    place(1, 14, 0.3, 0.7)
    place(0, 10, 0.2, 0.5)
    # The SplineDictionary synthesis, as direct separable passes: an FFT
    # would leave round-off where the phantom is exactly 0.
    img = np.zeros((rows, cols))
    for plane, b in zip(c, generators):
        tmp = ndimage.convolve1d(plane, b, axis=0, mode="wrap")
        img += ndimage.convolve1d(tmp, b, axis=1, mode="wrap")
    peak = float(img.max())
    y, x = np.mgrid[0:rows, 0:cols]
    y = y / rows
    x = x / cols
    img[(y - 0.32) ** 2 + (x - 0.67) ** 2 <= 0.12**2] += 0.45 * peak
    img[(y - 0.66) ** 2 + (x - 0.30) ** 2 <= 0.07**2] += 0.40 * peak
    img[(y > 0.70) & (y < 0.80) & (x > 0.50) & (x < 0.80)] += 0.40 * peak
    return np.maximum(img, 0.0)
