"""Blur operator, synthesis dictionaries, and the composed forward model.

The blur is a circular (periodic) convolution with a nonnegative mask; its
adjoint is convolution with the spatially reversed mask. Three overcomplete
dictionaries map nonnegative coefficients to images:

* shifted Haar boxes at a few dyadic widths, for 1-D piecewise-constant
  signals (coefficients are one flat vector, level blocks concatenated);
* separable cubic B-spline pyramids, for 2-D images (coefficients are J
  planes the size of the image);
* a file-loaded set of nonnegative patch atoms applied on a regular grid
  of overlapping, circularly wrapped patches (coefficients are one row of
  atom weights per patch position).

Composing blur with synthesis gives the forward model used by the sparse
solver, along with its column-sum vector v (the adjoint applied to the
all-ones image).

Under periodic boundaries the blur and the shift-invariant dictionaries
are circulant, each fully described by its kernels, so each is one
precomputed filter taking one kernel or a list of J level kernels. On 2-D
images, where the DFT diagonalizes them, that is a pointwise multiply by
a transfer function (FourierFilter: the 2-D blur and the spline pyramid).
On N x 1 columns, where a short sum beats an FFT pair, it is a gather and
a dot product over a precomputed table of wrapped indices (ColumnFilter:
the 1-D blur and the Haar boxes). The only direct convolutions here are
conv_forward and conv_adjoint. The data path (simulate) uses them, the
Haar gathers and make_phantom's own direct spline synthesis, never an
FFT, so it keeps exact zeros.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy import ndimage

_NORM_TOL = 1e-12


@dataclass(frozen=True)
class ConvKernel:
    """Nonnegative convolution mask with odd-sized support.

    `taps` is 2-D; kernels for 1-D signals use a single column. When
    `normalized` is set the taps sum to one within 1e-12.
    """

    taps: np.ndarray
    normalized: bool = False

    def __post_init__(self):
        taps = self.taps
        if taps.ndim != 2:
            raise ValueError("kernel taps must be 2-D (use a column for 1-D)")
        if any(s % 2 == 0 for s in taps.shape):
            raise ValueError(f"kernel dimensions must be odd, got {taps.shape}")
        if np.any(taps < 0) or not np.all(np.isfinite(taps)):
            raise ValueError("kernel taps must be finite and nonnegative")
        if self.normalized and abs(float(taps.sum()) - 1.0) > _NORM_TOL:
            raise ValueError("kernel flagged normalized but taps do not sum to 1")


def make_kernel(taps, normalize: bool = True) -> ConvKernel:
    """Build a ConvKernel from raw taps, normalizing their sum to 1 by default."""
    taps = np.asarray(taps, dtype=np.float64)
    if taps.ndim == 1:
        taps = taps[:, np.newaxis]
    total = float(taps.sum())
    if normalize:
        if total <= 0:
            raise ValueError("cannot normalize a kernel with nonpositive sum")
        taps = taps / total
    return ConvKernel(taps=taps, normalized=normalize)


def gaussian_kernel_1d(cutoff: float) -> ConvKernel:
    """Normalized Gaussian blur with its -3 dB cutoff at `cutoff` rad/sample.

    The amplitude response exp(-sigma^2 w^2 / 2) equals 2^(-1/2) at the
    cutoff, giving sigma = sqrt(ln 2) / cutoff. Taps are truncated at
    ceil(4 sigma) and renormalized (mass loss before renormalization is
    below 1e-4).
    """
    if not 0.0 < cutoff < math.pi:
        raise ValueError(f"cutoff must lie in (0, pi), got {cutoff}")
    sigma = math.sqrt(math.log(2.0)) / cutoff
    half = math.ceil(4.0 * sigma)
    n = np.arange(-half, half + 1, dtype=np.float64)
    taps = np.exp(-0.5 * (n / sigma) ** 2)
    return make_kernel(taps, normalize=True)


def inverse_quadratic_kernel(half_width: int = 7) -> ConvKernel:
    """Normalized 2-D mask 1/(i^2 + j^2 + 1) on the square [-half, half]^2."""
    if half_width < 0:
        raise ValueError("half_width must be nonnegative")
    n = np.arange(-half_width, half_width + 1, dtype=np.float64)
    taps = 1.0 / (n[:, np.newaxis] ** 2 + n[np.newaxis, :] ** 2 + 1.0)
    return make_kernel(taps, normalize=True)


def _check_fits(kernel: ConvKernel, x: np.ndarray) -> None:
    if kernel.taps.shape[0] > x.shape[0] or kernel.taps.shape[1] > x.shape[1]:
        raise ValueError(
            f"kernel {kernel.taps.shape} larger than image {x.shape}"
        )


def conv_forward(kernel: ConvKernel, x: np.ndarray) -> np.ndarray:
    """Circular convolution of `x` with the kernel (centered taps)."""
    x = np.asarray(x, dtype=np.float64)
    _check_fits(kernel, x)
    return ndimage.convolve(x, kernel.taps, mode="wrap")


def conv_adjoint(kernel: ConvKernel, y: np.ndarray) -> np.ndarray:
    """Adjoint of conv_forward: convolution with the spatially reversed taps."""
    y = np.asarray(y, dtype=np.float64)
    _check_fits(kernel, y)
    return ndimage.correlate(y, kernel.taps, mode="wrap")


def _checked(x, shape) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.shape != shape:
        raise ValueError(f"input shape {x.shape} does not match {shape}")
    return x


def _shift_table(n: int, reach: int) -> np.ndarray:
    """Read-only n x (2 reach + 1) view whose column reach + s holds
    (i + s) mod n over rows i, for |s| <= reach.

    Gather tables are column selections of it: one short modulo, where a
    modulo per table entry cost most of a 1-D model's set-up.
    """
    wrapped = np.arange(-reach, n + reach) % n
    step = wrapped.itemsize
    table = np.ndarray((n, 2 * reach + 1), wrapped.dtype, wrapped, strides=(step, step))
    table.flags.writeable = False
    return table


def _spectrum(x: np.ndarray) -> np.ndarray:
    # rfft2 over the last two axes, the column pass in place: one complex array.
    spec = np.fft.rfft(x, axis=-1)
    return np.fft.fft(spec, axis=-2, out=spec)


def _image(spec: np.ndarray, cols: int) -> np.ndarray:
    # Inverse of _spectrum; overwrites `spec`.
    return np.fft.irfft(np.fft.ifft(spec, axis=-2, out=spec), n=cols, axis=-1)


def _level_kernels(taps, shape) -> tuple[int, list[np.ndarray]]:
    """(J, kernels) for one kernel (J = 0) or a list of J level kernels,
    each checked to be odd-sized and to fit `shape`."""
    levels = len(taps) if isinstance(taps, list) else 0
    kernels = [np.asarray(k, dtype=np.float64) for k in (taps if levels else [taps])]
    for k in kernels:
        if k.ndim != 2 or any(s % 2 == 0 for s in k.shape):
            raise ValueError(f"kernel dimensions must be odd, got {k.shape}")
        if k.shape[0] > shape[0] or k.shape[1] > shape[1]:
            raise ValueError(f"kernel {k.shape} larger than image {shape}")
    return levels, kernels


class FourierFilter:
    """Centred 2-D taps applied circularly by multiplying with a precomputed
    transfer function, the DFT of the taps wrapped onto the image grid.

    `taps` is one odd-sized 2-D kernel, or a list of J of them (one per
    dictionary level); `shape` is the image shape, which no kernel may
    exceed. For one kernel, forward and adjoint match conv_forward and
    conv_adjoint. For a list, forward maps J coefficient planes to the sum
    of their convolutions and adjoint maps an image to its J correlations.
    The transfer function is stored real when every kernel is
    centrosymmetric to rounding. Results match the direct passes to rounding, so an
    entry that is exactly zero there can come out near +-1e-17 here; callers
    that need nonnegativity clamp.
    """

    def __init__(self, taps, shape: tuple[int, int]):
        rows, cols = int(shape[0]), int(shape[1])
        self.levels, kernels = _level_kernels(taps, (rows, cols))
        # Centrosymmetric taps have a real transfer function. Asymmetry at
        # the rounding level (the level-2 cubic B-spline is one ulp off) adds
        # an imaginary part far below the FFT's own error, so it is dropped.
        symmetric = all(
            np.abs(k - k[::-1, ::-1]).max() <= 4 * np.finfo(np.float64).eps * np.abs(k).max()
            for k in kernels
        )
        spectra = []
        for k in kernels:
            kr, kc = k.shape
            # Centre tap at pixel (0, 0), the rest wrapped around the edges.
            psf = np.zeros((rows, cols))
            psf[np.ix_((np.arange(kr) - kr // 2) % rows, (np.arange(kc) - kc // 2) % cols)] = k
            spectra.append(_spectrum(psf))
        transfer = np.stack([t.real for t in spectra] if symmetric else spectra)
        self.image_shape = (rows, cols)
        self.input_shape = (self.levels, rows, cols) if self.levels else self.image_shape
        self.transfer = transfer if self.levels else transfer[0]
        self._adjoint_transfer = self.transfer if symmetric else np.conj(self.transfer)

    def forward(self, x) -> np.ndarray:
        spec = _spectrum(_checked(x, self.input_shape))
        spec *= self.transfer
        return _image(spec.sum(axis=0) if self.levels else spec, self.image_shape[1])

    def adjoint(self, y) -> np.ndarray:
        spec = _spectrum(_checked(y, self.image_shape))
        # One kernel multiplies in place; J levels broadcast to J spectra.
        spec = np.multiply(spec, self._adjoint_transfer, out=None if self.levels else spec)
        return _image(spec, self.image_shape[1])


class ColumnFilter:
    """Centred taps applied circularly to an N x 1 column as gathers and
    dot products over precomputed tables of wrapped indices.

    `taps` and `shape` are as for FourierFilter, with column kernels and an
    N x 1 image shape: forward and adjoint match conv_forward and
    conv_adjoint to rounding. For J levels, forward maps (J, N, 1)
    coefficients to the sum of their convolutions in one gather and one
    dot product, and adjoint returns the J correlations from one gather
    and one dot product per level (so a non-finite entry reaches no other
    level). As in ndimage, taps at or below machine epsilon are left out,
    so every output sums only the products inside its own footprint: exact
    zeros stay exact and a non-finite entry spreads no further.
    """

    def __init__(self, taps, shape: tuple[int, int]):
        rows, cols = int(shape[0]), int(shape[1])
        if cols != 1:
            raise ValueError(f"a ColumnFilter serves N x 1 images, got {shape}")
        self.levels, kernels = _level_kernels(taps, (rows, cols))
        self.image_shape = (rows, 1)
        self.input_shape = (self.levels, rows, 1) if self.levels else self.image_shape
        # All levels' taps in one vector. conv_forward sums taps[t] x[i + s]
        # with shift s = half - t, and conv_adjoint the same with -s; level
        # j's coefficients start at j * rows of the flat input.
        sizes = [k.shape[0] for k in kernels]
        ends = list(itertools.accumulate(sizes))
        taps = np.concatenate(kernels)[:, 0]
        kept = np.flatnonzero(np.abs(taps) > np.finfo(np.float64).eps)
        level = np.searchsorted(ends, kept, side="right")
        shifts = np.array([end - size // 2 - 1 for end, size in zip(ends, sizes)])[level] - kept
        reach = max(sizes) // 2
        table = _shift_table(rows, reach)
        self._taps = taps[kept]
        self._forward_idx = np.ascontiguousarray(table[:, reach + shifts] + rows * level)
        self._adjoint_idx = np.ascontiguousarray(table[:, reach - shifts])
        # The adjoint's level blocks: the kept taps before each level's end.
        bounds = np.searchsorted(kept, ends).tolist()
        self._blocks = [(slice(a, b), self._taps[a:b]) for a, b in zip([0] + bounds, bounds)]

    def forward(self, x) -> np.ndarray:
        flat = _checked(x, self.input_shape).ravel()
        return (flat[self._forward_idx] @ self._taps)[:, np.newaxis]

    def adjoint(self, y) -> np.ndarray:
        gathered = _checked(y, self.image_shape).ravel()[self._adjoint_idx]
        if not self.levels:
            return (gathered @ self._taps)[:, np.newaxis]
        # One dot product per level, so a non-finite entry reaches no other level.
        out = np.concatenate([gathered[:, cols] @ w for cols, w in self._blocks])
        return out.reshape(self.input_shape)


#: The operators blur_operator builds, each applying one kernel to one image shape.
Blur = ColumnFilter | FourierFilter


def blur_operator(kernel: ConvKernel | Blur, shape) -> Blur:
    """The blur to iterate with on images of `shape`.

    A single column gets a ColumnFilter: at N=128 with 13 taps one pass
    took 4-6 us, against 14-21 us for conv_forward and 29-49 us for a
    FourierFilter (2-vCPU Xeon host, three runs). Any wider image gets a
    FourierFilter. An operator already built is returned as it is.
    """
    if isinstance(kernel, Blur):
        return kernel
    if shape[1] == 1:
        return ColumnFilter(kernel.taps, shape)
    return FourierFilter(kernel.taps, shape)


# ---------------------------------------------------------------------------
# Dictionaries. Each exposes image_shape, coeff_shape, synthesize and adjoint;
# synthesize maps nonnegative coefficients to a nonnegative image and adjoint
# is its exact transpose.
# ---------------------------------------------------------------------------


class HaarBoxDictionary:
    """Unit-norm rectangular boxes of dyadic widths at every circular shift.

    Level j contributes the N circular shifts of a causal box with 2^j
    entries of height 2^(-j/2) (unit l2 norm). Coefficients form one flat
    vector of length N * len(levels), level blocks in the given order,
    index k within a block selecting the shift.
    """

    def __init__(self, n: int, levels=(2, 3, 4, 5)):
        if n < 2:
            raise ValueError("signal length must be at least 2")
        levels = tuple(int(j) for j in levels)
        max_level = int(math.floor(math.log2(n))) - 1
        for j in levels:
            if j < 0 or j > max_level:
                raise ValueError(
                    f"level {j} outside valid range [0, {max_level}] for n={n}"
                )
        if len(set(levels)) != len(levels):
            raise ValueError("duplicate levels")
        self.n = int(n)
        self.levels = levels
        self.image_shape = (self.n, 1)
        self.coeff_shape = (self.n * len(levels),)
        # Level j's causal box as a centred kernel: 2^j - 1 zero taps, then
        # 2^j taps of 2^(-j/2).
        boxes = []
        for j in levels:
            box = np.zeros((2 ** (j + 1) - 1, 1))
            box[2**j - 1 :] = 2.0 ** (-j / 2.0)
            boxes.append(box)
        self._filter = ColumnFilter(boxes, self.image_shape)

    def synthesize(self, c) -> np.ndarray:
        c = np.asarray(c, dtype=np.float64)
        if c.shape != self.coeff_shape:
            raise ValueError(
                f"coefficient shape {c.shape} does not match {self.coeff_shape}"
            )
        return self._filter.forward(c.reshape(self._filter.input_shape))

    def adjoint(self, f) -> np.ndarray:
        return self._filter.adjoint(f).ravel()


def spline_generator(j: int, normalized: bool = True) -> np.ndarray:
    """1-D cubic B-spline taps at dyadic scale 2^j, length 2^(j+2) - 1.

    Computed by convolving four ones-vectors of length 2^j with the unit
    cubic spline [1, 4, 1]/6 and scaling by 2^(-3j); the raw taps sum to
    2^j. With `normalized` the taps are rescaled to unit l2 norm.
    """
    if j < 0:
        raise ValueError("scale index must be nonnegative")
    box = np.ones(2**j)
    b = box
    for _ in range(3):
        b = np.convolve(b, box)
    b = np.convolve(b, np.array([1.0, 4.0, 1.0]) / 6.0) * 2.0 ** (-3 * j)
    if normalized:
        b = b / np.linalg.norm(b)
    return b


def spline_generators(n_levels: int, normalized: bool = True) -> list[np.ndarray]:
    if n_levels < 1:
        raise ValueError("need at least one scale")
    return [spline_generator(j, normalized) for j in range(n_levels)]


class SplineDictionary:
    """Shift-invariant 2-D dictionary of separable cubic B-splines.

    Scale j uses the tensor-product kernel B_j[n, m] = b_j[n] b_j[m] at
    every integer translation under periodic boundaries, so an N-by-M
    image carries J coefficient planes of size N-by-M. Synthesis is the
    sum over scales of the circular convolution of each plane with B_j,
    applied through one FourierFilter over the J kernels; the synthesized
    image is clamped at 0 against FFT round-off.
    """

    def __init__(self, shape: tuple[int, int], n_levels: int):
        self.generators = spline_generators(n_levels)
        self._filter = FourierFilter([np.outer(b, b) for b in self.generators], shape)
        self.image_shape = self._filter.image_shape
        self.n_levels = int(n_levels)
        self.coeff_shape = self._filter.input_shape

    def synthesize(self, c) -> np.ndarray:
        image = self._filter.forward(c)
        return np.maximum(image, 0.0, out=image)

    def adjoint(self, f) -> np.ndarray:
        return self._filter.adjoint(f)


class PatchDictionary:
    """Nonnegative patch atoms applied on a regular grid of patch positions.

    Patches start at every multiple of `stride` along each axis and wrap
    circularly, so the stride must divide both image dimensions and may
    not exceed the patch size (every pixel must be covered). Synthesis
    sums each patch's atom combination into the image and divides by the
    per-pixel overlap count, so a constant coefficient field synthesizes
    a flat image; the adjoint reverses that composition exactly (divide
    by overlap, extract patches, correlate with the atoms).
    """

    def __init__(
        self,
        atoms: np.ndarray,
        stride: int | None,
        image_shape: tuple[int, int],
    ):
        atoms = np.asarray(atoms, dtype=np.float64)
        if atoms.ndim != 3:
            raise ValueError("atoms must have shape (num_atoms, patch_rows, patch_cols)")
        if np.any(atoms < 0) or not np.all(np.isfinite(atoms)):
            raise ValueError("atoms must be finite and nonnegative")
        n_atoms, pr, pc = atoms.shape
        rows, cols = int(image_shape[0]), int(image_shape[1])
        stride = pr // 2 if stride is None else int(stride)
        if stride < 1:
            raise ValueError("stride must be positive")
        if stride > pr or stride > pc:
            raise ValueError("stride larger than patch leaves pixels uncovered")
        if rows % stride or cols % stride:
            raise ValueError(
                f"stride {stride} must divide image dimensions {image_shape}"
            )
        if pr > rows or pc > cols:
            raise ValueError("patch larger than image")
        self.atoms = atoms
        self.patch_shape = (pr, pc)
        self.stride = stride
        self.image_shape = (rows, cols)
        n_pos_r, n_pos_c = rows // stride, cols // stride
        self.n_patches = n_pos_r * n_pos_c
        self.coeff_shape = (self.n_patches, n_atoms)
        self._atoms_flat = atoms.reshape(n_atoms, pr * pc)

        r0 = np.arange(n_pos_r) * stride
        c0 = np.arange(n_pos_c) * stride
        rr = (r0[:, np.newaxis] + np.arange(pr)[np.newaxis, :]) % rows
        cc = (c0[:, np.newaxis] + np.arange(pc)[np.newaxis, :]) % cols
        # Flat gather/scatter table: (n_patches, pr*pc) indices into image.ravel().
        flat = (
            rr[:, np.newaxis, :, np.newaxis] * cols + cc[np.newaxis, :, np.newaxis, :]
        )
        self._flat_idx = flat.reshape(self.n_patches, pr * pc)
        self._overlap = np.bincount(
            self._flat_idx.ravel(), minlength=rows * cols
        ).astype(np.float64)
        if np.any(self._overlap == 0):
            raise ValueError("patch grid leaves pixels uncovered")

    def synthesize(self, c) -> np.ndarray:
        c = np.asarray(c, dtype=np.float64)
        if c.shape != self.coeff_shape:
            raise ValueError(
                f"coefficient shape {c.shape} does not match {self.coeff_shape}"
            )
        patches = c @ self._atoms_flat
        flat = np.bincount(
            self._flat_idx.ravel(),
            weights=patches.ravel(),
            minlength=self.image_shape[0] * self.image_shape[1],
        )
        return (flat / self._overlap).reshape(self.image_shape)

    def adjoint(self, f) -> np.ndarray:
        f = np.asarray(f, dtype=np.float64)
        if f.shape != self.image_shape:
            raise ValueError(f"image shape {f.shape} does not match {self.image_shape}")
        weighted = (f.ravel() / self._overlap)[self._flat_idx]
        return weighted @ self._atoms_flat.T


class ForwardModel:
    """Composed measurement map A = H o Phi: dictionary synthesis followed
    by blur, where `blur` is the blur_operator for the image shape.

    Precomputes v, the adjoint applied to the all-ones image, which the
    sparse solver uses as its denominator weight. v is nonnegative by
    construction and strictly positive whenever every atom retains a
    positive sample under the blur.
    """

    def __init__(self, kernel: ConvKernel, dictionary):
        self.kernel = kernel
        self.dictionary = dictionary
        self.image_shape = dictionary.image_shape
        self.coeff_shape = dictionary.coeff_shape
        self.blur = blur_operator(kernel, self.image_shape)
        if isinstance(self.blur, FourierFilter):
            # The blur's adjoint maps the ones image to the constant tap sum;
            # filling that in skips a transform whose temporaries would set
            # the peak memory of a large model's set-up.
            self.v = dictionary.adjoint(np.full(self.image_shape, float(kernel.taps.sum())))
        else:
            self.v = self.adjoint(np.ones(self.image_shape))
        if np.any(self.v < 0):
            raise ValueError("adjoint of the ones image came out negative")

    def forward(self, c) -> np.ndarray:
        return self.blur.forward(self.dictionary.synthesize(c))

    def adjoint(self, y) -> np.ndarray:
        return self.dictionary.adjoint(self.blur.adjoint(y))


__all__ = [
    "Blur",
    "ColumnFilter",
    "ConvKernel",
    "ForwardModel",
    "FourierFilter",
    "HaarBoxDictionary",
    "PatchDictionary",
    "SplineDictionary",
    "blur_operator",
    "conv_adjoint",
    "conv_forward",
    "gaussian_kernel_1d",
    "inverse_quadratic_kernel",
    "make_kernel",
    "spline_generator",
    "spline_generators",
]
