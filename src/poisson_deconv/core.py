"""Nonnegative array primitives shared by the solvers and operators.

Images are 2-D float64 arrays of event-count intensities; 1-D signals are
stored as N-by-1 images so a single code path serves both. Representation
coefficients keep whatever shape their dictionary defines (flat vector,
per-level planes, or per-patch rows) and the helpers here are
shape-agnostic. Everything is treated as an immutable value: no function
in this module mutates its arguments.

Importing the package fixes glibc malloc's mmap and trim thresholds for
the process (see _steady_heap), so the solver loops run at one speed
whatever the process allocated before them.
"""

from __future__ import annotations

import ctypes
import math
from collections.abc import Callable

import numpy as np

_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3  # mallopt parameters, <malloc.h>


def _steady_heap() -> None:
    """Pin glibc's mmap threshold at its dynamic cap (32 MiB) and the trim
    threshold at twice that, where glibc's own rule ends up once the
    process has freed a 32 MiB block.

    From their start values (128 KiB each) glibc maps every larger
    request afresh and trims the heap top, raising both only after the
    process frees a larger mapped block. The solver loops allocate and
    free several arrays of 128 KiB or more per iteration, so their speed
    hung on the largest array freed before them: a 128^2 spline SRL solve
    took up to 68,000 minor page faults and about 1.2x the time when
    nothing large had been freed, and 15 faults after a 7.1 MiB free. Other
    C libraries (musl, macOS) have no such thresholds and are left alone.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    mallopt(_M_TRIM_THRESHOLD, 64 << 20)


_steady_heap()

#: Floor substituted for an exactly-zero denominator in pointwise ratios.
#: Zero numerators still map to zero, so 0/0 -> 0 and x/0 -> x/EPS_DIV.
EPS_DIV = 1e-12


def as_image(a, name: str = "image") -> np.ndarray:
    """Validate and return `a` as a 2-D nonnegative float64 array.

    1-D input is reshaped to a single column. Raises ValueError on
    negative or non-finite entries, or on more than two dimensions.
    """
    arr = np.asarray(a, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr[:, np.newaxis]
    if arr.ndim != 2:
        raise ValueError(f"{name} must be 1-D or 2-D, got ndim={arr.ndim}")
    if arr.size == 0:
        raise ValueError(f"{name} must be non-empty")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    if np.any(arr < 0):
        raise ValueError(f"{name} contains negative entries")
    return arr


def require_same_shape(a: np.ndarray, b: np.ndarray) -> None:
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")


def floor_zeros(den: np.ndarray, eps: float = EPS_DIV) -> np.ndarray:
    """`den` with its exact zeros replaced by `eps`: what safe_div divides by.

    Returns `den` itself when it holds no zero.
    """
    den = np.asarray(den, dtype=np.float64)
    # Without a zero to floor, skip the mask and the copy np.where would make.
    return den if den.all() else np.where(den == 0.0, eps, den)


def safe_div(num: np.ndarray, den: np.ndarray, eps: float = EPS_DIV) -> np.ndarray:
    """Pointwise num/den with exact zeros in `den` floored to `eps`.

    A zero numerator over a zero denominator yields 0; a positive
    numerator over a zero denominator yields num/eps. Nonzero
    denominators are never altered.
    """
    num = np.asarray(num, dtype=np.float64)
    den = np.asarray(den, dtype=np.float64)
    require_same_shape(num, den)
    return num / floor_zeros(den, eps)


def log_inner(g: np.ndarray, x: np.ndarray) -> float:
    """Sum of g * log(x) under the 0*log(0) = 0 convention.

    Entries where g == 0 contribute nothing regardless of x. If any
    entry has g > 0 while x <= 0 the sum is -inf (reported, not raised),
    which makes the objectives that subtract this term come out +inf.
    """
    g = np.asarray(g, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    require_same_shape(g, x)
    return log_inner_with(g)(x)


def log_inner_with(g: np.ndarray) -> Callable[[np.ndarray], float]:
    """x -> log_inner(g, x) for float64 arrays x of g's shape, with the
    support g > 0 and its values found once: the same elements are summed
    in the same order, so the result is bit-identical."""
    g = np.asarray(g, dtype=np.float64)
    mask = g > 0.0
    weights = g[mask]

    def inner(x: np.ndarray) -> float:
        x = x[mask]
        if (x <= 0.0).any():
            return -math.inf
        return float((weights * np.log(x)).sum())

    return inner


def l1_norm(c) -> float:
    """l1 norm of a nonnegative array: the plain sum of its entries."""
    c = np.asarray(c, dtype=np.float64)
    if np.any(c < 0):
        raise ValueError("l1_norm expects nonnegative coefficients")
    return float(np.sum(c))
