"""File formats: matrix text, binary PGM with a scale sidecar, and atom files.

Matrix text is the interchange format wherever a matrix crosses a file
boundary: first line `rows cols`, then `rows` lines of `cols`
space-separated decimal reals (12 significant digits on write). Images can
also round-trip through binary PGM (P5, maxval 255 or 65535) with the
linear scaling recorded in a sidecar `<name>.scale` holding `min max`.
Atom files hold a patch dictionary: header `patch_rows patch_cols
num_atoms stride`, then one atom per line, row-major.
"""

from __future__ import annotations

import math
import os
import warnings

import numpy as np

from .core import as_image


def save_matrix_text(path, a: np.ndarray) -> None:
    a = np.asarray(a, dtype=np.float64)
    if a.ndim == 1:
        a = a[:, np.newaxis]
    if a.ndim != 2:
        raise ValueError("matrix text format holds 2-D arrays")
    with open(path, "w") as fh:
        fh.write(f"{a.shape[0]} {a.shape[1]}\n")
        for row in a:
            fh.write(" ".join(f"{v:.12g}" for v in row) + "\n")


def _read_table(path, fields: str) -> tuple[list[int], np.ndarray]:
    """A text file's header, one positive integer per name in `fields`, and
    its body as a 2-D array. An empty body gives an empty array and no
    loadtxt warning, so the caller's shape check is the one message."""
    with open(path) as fh:
        header = fh.readline().split()
        try:
            values = [int(v) for v in header]
        except ValueError:
            values = []
        if len(values) != len(fields.split()) or min(values) < 1:
            raise ValueError(f"{path}: malformed header, expected positive integers '{fields}'")
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            return values, np.loadtxt(fh, dtype=np.float64, ndmin=2)


def load_matrix_text(path) -> np.ndarray:
    (rows, cols), data = _read_table(path, "rows cols")
    if data.shape != (rows, cols):
        raise ValueError(
            f"{path}: header says {rows}x{cols} but body is {data.shape[0]}x{data.shape[1]}"
        )
    return data


def _scale_path(path) -> str:
    return f"{os.fspath(path)}.scale"


def save_pgm(path, img: np.ndarray, maxval: int = 65535) -> None:
    """Write a nonnegative image as binary PGM plus a `<name>.scale` sidecar.

    Pixel values are mapped linearly from [min, max] onto [0, maxval];
    the sidecar records `min max` so loading can undo the scaling.
    """
    if maxval not in (255, 65535):
        raise ValueError("maxval must be 255 or 65535")
    img = as_image(img)
    lo, hi = float(img.min()), float(img.max())
    span = hi - lo
    if span > 0:
        quantized = np.rint((img - lo) / span * maxval)
    else:
        quantized = np.zeros_like(img)
    dtype = np.dtype(">u2") if maxval == 65535 else np.dtype("u1")
    with open(path, "wb") as fh:
        fh.write(f"P5\n{img.shape[1]} {img.shape[0]}\n{maxval}\n".encode("ascii"))
        fh.write(quantized.astype(dtype).tobytes())
    with open(_scale_path(path), "w") as fh:
        fh.write(f"{lo:.12g} {hi:.12g}\n")


def load_pgm(path) -> np.ndarray:
    """Read a binary PGM written by save_pgm, applying its sidecar scaling.

    Without a sidecar the raw pixel values are returned as floats. A header
    without positive integer dimensions, or a sidecar other than two finite
    numbers `min max` with min <= max, raises a ValueError naming the file.
    """
    with open(path, "rb") as fh:
        magic = fh.readline().strip()
        if magic != b"P5":
            raise ValueError(f"{path}: not a binary PGM (P5) file")
        fields = []
        while len(fields) < 3:
            line = fh.readline()
            if not line:
                raise ValueError(f"{path}: truncated PGM header")
            text = line.decode("ascii", errors="replace")
            text = text.split("#", 1)[0]
            fields.extend(text.split())
        try:
            cols, rows, maxval = (int(v) for v in fields[:3])
        except ValueError:
            cols = rows = maxval = 0
        if cols < 1 or rows < 1:
            raise ValueError(
                f"{path}: malformed PGM header, expected positive integers 'width height maxval'"
            )
        if maxval not in (255, 65535):
            raise ValueError(f"{path}: unsupported maxval {maxval}")
        dtype = np.dtype(">u2") if maxval == 65535 else np.dtype("u1")
        raw = np.frombuffer(fh.read(rows * cols * dtype.itemsize), dtype=dtype)
        if raw.size != rows * cols:
            raise ValueError(f"{path}: truncated pixel data")
    img = raw.reshape(rows, cols).astype(np.float64)
    scale_file = _scale_path(path)
    if os.path.exists(scale_file):
        with open(scale_file) as fh:
            scale = fh.read().split()
        try:
            lo, hi = (float(v) for v in scale)
        except ValueError:  # a wrong count or a non-number
            lo = hi = math.nan
        if not (math.isfinite(lo) and math.isfinite(hi) and lo <= hi):
            raise ValueError(
                f"{scale_file}: malformed scale sidecar, expected finite 'min max', min <= max"
            )
        img = img / maxval * (hi - lo) + lo
    return img


def load_image(path) -> np.ndarray:
    """Load an image from matrix text or PGM, enforcing nonnegativity."""
    path = os.fspath(path)
    with open(path, "rb") as fh:
        magic = fh.read(2)
    if magic == b"P5":
        img = load_pgm(path)
    else:
        img = load_matrix_text(path)
    return as_image(img, name=path)


def save_atoms(path, atoms: np.ndarray, stride: int) -> None:
    """Write patch atoms: header `patch_rows patch_cols num_atoms stride`.

    Rejects what load_atoms would refuse to read back: an empty atom set,
    a stride below 1, and negative or non-finite atom values.
    """
    atoms = np.asarray(atoms, dtype=np.float64)
    if atoms.ndim != 3 or 0 in atoms.shape:
        raise ValueError("atoms must have shape (num_atoms, patch_rows, patch_cols), none 0")
    if int(stride) < 1:
        raise ValueError(f"stride must be at least 1, got {stride}")
    if not np.all(np.isfinite(atoms)) or np.any(atoms < 0):
        raise ValueError("atoms must be finite and nonnegative")
    n_atoms, pr, pc = atoms.shape
    with open(path, "w") as fh:
        fh.write(f"{pr} {pc} {n_atoms} {int(stride)}\n")
        for atom in atoms.reshape(n_atoms, pr * pc):
            fh.write(" ".join(f"{v:.12g}" for v in atom) + "\n")


def load_atoms(path) -> tuple[np.ndarray, int]:
    """Read a patch atom file, rejecting negative or non-finite entries.
    Returns (atoms, stride)."""
    (pr, pc, n_atoms, stride), data = _read_table(path, "patch_rows patch_cols num_atoms stride")
    if data.shape != (n_atoms, pr * pc):
        raise ValueError(
            f"{path}: expected {n_atoms} atoms of {pr * pc} values, got {data.shape}"
        )
    if not np.all(np.isfinite(data)):
        raise ValueError(f"{path}: non-finite atom values")
    if np.any(data < 0):
        raise ValueError(f"{path}: negative atom values")
    return data.reshape(n_atoms, pr, pc), stride
