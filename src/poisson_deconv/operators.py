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
all-ones image), in closed form: the blur's tap sum times each atom's
pixel sum, which every dictionary keeps as `atom_sums`, so building a
model runs no adjoint pass. For the spline dictionary on 2-D images,
where both factors are diagonal in the DFT basis, the model is evaluated
there in one trip each way: J transforms of the coefficients into one
summed spectrum, then one inverse for the image (clamped at 0) and one
for the blurred model (from the unclamped sum); the adjoint takes one
transform of its input and J inverses. An SRL iteration at J = 4 takes
11 plane transforms this way, against 14 through image space. The Haar
and patch models compose blur and synthesis plainly.

Under periodic boundaries the blur and the shift-invariant dictionaries
are circulant, each fully described by its kernels. On 2-D images, where
the DFT diagonalizes them, each is a pointwise multiply by a precomputed
transfer function (FourierFilter, over one kernel or a list of J level
kernels: the 2-D blur and the spline pyramid). That transfer function
is the taps' own separable DFT, a real matmul or two over the tap
offsets, so building one runs no image-size FFT. On N x 1 columns, where
a short sum beats an FFT pair, the blur is one kernel applied as a gather
and a dot product over a precomputed table of wrapped indices
(ColumnFilter), and the Haar boxes are dyadic running sums: a box of
width 2w is two boxes of width w, w apart (HaarBoxDictionary). The patch
dictionary, which no DFT diagonalizes, is shift-invariant on its grid of
stride x stride blocks: each pass is a few dense matmuls of the
coefficients or image blocks with the atoms' blocks, plus slice adds
(PatchDictionary). The direct convolutions, conv_forward, conv_adjoint
and the 1-D passes of the data path's spline synthesis, are numpy
shift-and-add loops over one circularly padded, flattened copy: one
scaled contiguous slice per tap, summed in scipy.ndimage's order, so
every output byte is what ndimage gives (numpy is the only runtime
dependency). The data path (simulate) uses them and the Haar running
sums, never an FFT, so it keeps exact zeros.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import require_shape

_EPS = np.finfo(np.float64).eps  # C's DBL_EPSILON, ndimage's footprint threshold


@dataclass(frozen=True)
class ConvKernel:
    """Nonnegative convolution mask with odd-sized support, the operators'
    one kernel type and the one check of their taps: `taps`, kept as float64,
    is 2-D (a single column for 1-D signals), finite and nonnegative.
    """

    taps: np.ndarray

    def __post_init__(self):
        taps = np.asarray(self.taps, dtype=np.float64)
        object.__setattr__(self, "taps", taps)
        if taps.ndim != 2:
            raise ValueError("kernel taps must be 2-D (use a column for 1-D)")
        if any(s % 2 == 0 for s in taps.shape):
            raise ValueError(f"kernel dimensions must be odd, got {taps.shape}")
        if np.any(taps < 0) or not np.all(np.isfinite(taps)):
            raise ValueError("kernel taps must be finite and nonnegative")


def make_kernel(taps) -> ConvKernel:
    """Build a ConvKernel from raw taps, normalizing their sum to 1."""
    taps = np.asarray(taps, dtype=np.float64)
    if taps.ndim == 1:
        taps = taps[:, np.newaxis]
    total = float(taps.sum())
    if total <= 0:
        raise ValueError("cannot normalize a kernel with nonpositive sum")
    return ConvKernel(taps / total)


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
    return make_kernel(taps)


def inverse_quadratic_kernel(half_width: int = 7) -> ConvKernel:
    """Normalized 2-D mask 1/(i^2 + j^2 + 1) on the square [-half, half]^2."""
    if half_width < 0:
        raise ValueError("half_width must be nonnegative")
    n = np.arange(-half_width, half_width + 1, dtype=np.float64)
    taps = 1.0 / (n[:, np.newaxis] ** 2 + n[np.newaxis, :] ** 2 + 1.0)
    return make_kernel(taps)


def _wrap_padded(x: np.ndarray, hr: int, hc: int) -> tuple[np.ndarray, int]:
    """`x` extended circularly by hr rows and hc columns on each side, as one
    flat array, and its row width: window tap (a, b) of output (i, j) is
    entry (i * width + j) + (a * width + b), so each tap reads one slice."""
    rows, cols = x.shape
    if hr:  # one take per padded axis: a 2-D fancy index cost 3-10 times more
        x = x.take(np.arange(-hr, rows + hr) % rows, axis=0)
    if hc:
        x = x.take(np.arange(-hc, cols + hc) % cols, axis=1)
    return x.ravel(), cols + 2 * hc


def _correlate(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """ndimage.correlate(x, w, mode="wrap") bit for bit, for an odd-sized w.

    As ndimage sums: from 0, one product per tap in raster order, taps at
    or below DBL_EPSILON left out. Each tap scales one contiguous slice of
    the padded rows; the pad columns are dropped at the end.
    """
    rows, cols = x.shape
    kr, kc = w.shape
    flat, width = _wrap_padded(x, kr // 2, kc // 2)
    n = rows * width - (kc - 1)  # the last row's pad columns need no sum
    kept = np.flatnonzero(np.abs(w) > _EPS)
    out = np.zeros(rows * width)
    acc, tmp = out[:n], np.empty(n)
    for off, t in zip((kept // kc * width + kept % kc).tolist(), w.ravel()[kept].tolist()):
        np.multiply(flat[off : off + n], t, out=tmp)
        acc += tmp
    return np.ascontiguousarray(out.reshape(rows, width)[:, :cols])


def _correlate1d(x: np.ndarray, w: np.ndarray, axis: int) -> np.ndarray:
    """ndimage.correlate1d(x, w, axis, mode="wrap") bit for bit, for a 2-D x
    and odd-length w symmetric to DBL_EPSILON, as every spline generator is
    (the level-2 cubic B-spline is one ulp off); other weights raise.

    As ndimage's symmetric branch sums: the centre product, then each
    pair's sum times its left weight, farthest pair first. The layout is
    _correlate's.
    """
    rows, cols = x.shape
    h = len(w) // 2
    if any(abs(w[h + k] - w[h - k]) > _EPS for k in range(1, h + 1)):
        raise ValueError("weights must be symmetric")
    flat, width = _wrap_padded(x, h if axis == 0 else 0, h if axis == 1 else 0)
    step = width if axis == 0 else 1
    n = rows * width - (width - cols)
    out = np.empty(rows * width)
    acc, tmp = out[:n], np.empty(n)
    tap = lambda k: flat[k * step : k * step + n]
    np.multiply(tap(h), w[h], out=acc)
    for k in range(h):
        np.add(tap(k), tap(2 * h - k), out=tmp)
        tmp *= w[k]
        acc += tmp
    return np.ascontiguousarray(out.reshape(rows, width)[:, :cols])


def conv_forward(kernel: ConvKernel, x: np.ndarray) -> np.ndarray:
    """Circular convolution of `x` with the kernel (centered taps)."""
    x = np.asarray(x, dtype=np.float64)
    return _correlate(x, _kernel(kernel, x.shape)[::-1, ::-1])


def conv_adjoint(kernel: ConvKernel, y: np.ndarray) -> np.ndarray:
    """Adjoint of conv_forward: convolution with the spatially reversed taps."""
    y = np.asarray(y, dtype=np.float64)
    return _correlate(y, _kernel(kernel, y.shape))


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


def _kernel(kernel: ConvKernel, shape) -> np.ndarray:
    """The kernel's taps, checked to fit an image of `shape`. A ConvKernel's
    taps were checked when it was made; raw taps are made a ConvKernel."""
    k = (kernel if isinstance(kernel, ConvKernel) else ConvKernel(kernel)).taps
    if k.shape[0] > shape[0] or k.shape[1] > shape[1]:
        raise ValueError(f"kernel {k.shape} larger than image {shape}")
    return k


def _dft_tables(n: int, n_freq: int, half: int) -> tuple[np.ndarray, np.ndarray]:
    """cos and sin of 2 pi u t / n, frequencies u < n_freq down the rows and
    tap offsets t = -half..half across. The phase index u t is reduced mod n
    in integers and looked up in one period of n angles: the same bits as
    cos and sin taken per entry, 2-3 times faster."""
    phase = np.arange(n_freq)[:, np.newaxis] * np.arange(-half, half + 1) % n
    angle = np.arange(n) * (2.0 * np.pi / n)
    return np.cos(angle)[phase], np.sin(angle)[phase]


class FourierFilter:
    """A ConvKernel applied circularly by multiplying with a precomputed
    transfer function, the DFT of its centred taps wrapped onto the image grid.

    `kernel` is one ConvKernel, or a list of J of them (one per dictionary
    level); `shape` is the image shape, which no kernel may exceed. For one
    kernel, forward and adjoint match conv_forward and conv_adjoint. For a
    list, forward maps J coefficient planes to the sum of their convolutions
    and adjoint maps an image to its J correlations. The transfer function
    is stored real when every kernel is centrosymmetric to rounding. Results
    match the direct passes to rounding, so an entry that is exactly zero
    there can come out near +-1e-17 here; callers that need nonnegativity
    clamp.

    The transfer function is the taps' own separable DFT, T = E_r K E_c^T,
    where E_r holds exp(-2 pi i u t / rows) over all row frequencies u and
    tap offsets t, and E_c the same over the rfft's cols // 2 + 1 column
    frequencies; no image-size FFT runs at build. Writing E = C - iS, the
    real part is one real matmul, [C_r K | S_r K] [C_c | -S_c]^T, and the
    imaginary part, kept only for asymmetric taps, is
    -[S_r K | C_r K] [C_c | S_c]^T. Its cost grows with the kernel: at
    512^2 (2-vCPU Xeon, one BLAS thread, medians of 200 builds) 15 x 15
    taps build in 0.32 ms against 1.5 ms for the FFT of the wrapped taps
    and 63 x 63 in 1.25 against 1.55 ms, but 511 x 511 take 17.3 against
    3.2 ms; at 128^2, 127 x 127 take 0.51 against 0.18 ms. Every preset
    kernel is 31 x 31 or smaller.
    """

    def __init__(self, kernel: ConvKernel | list[ConvKernel], shape: tuple[int, int]):
        rows, cols = int(shape[0]), int(shape[1])
        self.levels = len(kernel) if isinstance(kernel, list) else 0
        kernels = [_kernel(k, (rows, cols)) for k in (kernel if self.levels else [kernel])]
        # Centrosymmetric taps have a real transfer function. Asymmetry at
        # the rounding level (the level-2 cubic B-spline is one ulp off) adds
        # an imaginary part far below the FFT's own error, so it is dropped.
        symmetric = all(
            np.abs(k - k[::-1, ::-1]).max() <= 4 * np.finfo(np.float64).eps * np.abs(k).max()
            for k in kernels
        )
        # The widest level's tables, sliced about offset 0 for the others.
        hr = max(k.shape[0] for k in kernels) // 2
        hc = max(k.shape[1] for k in kernels) // 2
        cos_r, sin_r = _dft_tables(rows, rows, hr)
        cos_c, sin_c = _dft_tables(cols, cols // 2 + 1, hc)
        real = np.empty((len(kernels), rows, cols // 2 + 1))
        imag = None if symmetric else np.empty_like(real)
        for level, k in enumerate(kernels):
            r = slice(hr - k.shape[0] // 2, hr + k.shape[0] // 2 + 1)
            c = slice(hc - k.shape[1] // 2, hc + k.shape[1] // 2 + 1)
            ck, sk = cos_r[:, r] @ k, sin_r[:, r] @ k
            cc, sc = cos_c[:, c], sin_c[:, c]
            np.matmul(np.hstack((ck, sk)), np.hstack((cc, -sc)).T, out=real[level])
            if imag is not None:
                np.matmul(np.hstack((sk, ck)), np.hstack((cc, sc)).T, out=imag[level])
        transfer = real if symmetric else real - 1j * imag
        self.image_shape = (rows, cols)
        self.input_shape = (self.levels, rows, cols) if self.levels else self.image_shape
        self.transfer = transfer if self.levels else transfer[0]
        self._adjoint_transfer = self.transfer if symmetric else np.conj(self.transfer)

    def _check_then(self, then) -> None:
        if then is not None and (then.levels or then.image_shape != self.image_shape):
            raise ValueError(f"`then` must be one kernel on images of shape {self.image_shape}")

    def forward(self, x, then: FourierFilter | None = None):
        """The filtered image; with `then`, a one-kernel FourierFilter on the
        same image shape, the pair (image, then.forward(image)) from the
        image's one spectrum, one plane transform fewer than two calls."""
        self._check_then(then)
        spec = _spectrum(require_shape(x, self.input_shape))
        spec *= self.transfer
        if self.levels:
            spec = spec.sum(axis=0)
        cols = self.image_shape[1]
        if then is None:
            return _image(spec, cols)
        after = _image(spec * then.transfer, cols)
        return _image(spec, cols), after

    def adjoint(self, y, then: FourierFilter | None = None) -> np.ndarray:
        """The adjoint; with `then` as for forward, the adjoint of the pair's
        second part, self.adjoint(then.adjoint(y)), from one spectrum of y,
        two plane transforms fewer than two calls."""
        self._check_then(then)
        spec = _spectrum(require_shape(y, self.image_shape))
        if then is not None:
            spec *= then._adjoint_transfer
        # One kernel multiplies in place; J levels broadcast to J spectra.
        spec = np.multiply(spec, self._adjoint_transfer, out=None if self.levels else spec)
        return _image(spec, self.image_shape[1])


class ColumnFilter:
    """A single-column ConvKernel applied circularly to an N x 1 column as a
    gather and a dot product over a precomputed table of wrapped indices.

    forward and adjoint match conv_forward and conv_adjoint to rounding. As
    there, taps at or below machine epsilon are left out, so every
    output sums only the products inside its own footprint: exact zeros
    stay exact and a non-finite entry spreads no further.
    """

    def __init__(self, kernel: ConvKernel, shape: tuple[int, int]):
        rows, cols = int(shape[0]), int(shape[1])
        if cols != 1:
            raise ValueError(f"a ColumnFilter serves N x 1 images, got {shape}")
        taps = _kernel(kernel, (rows, cols))[:, 0]
        self.image_shape = (rows, 1)
        # conv_forward sums taps[t] x[i + s] with shift s = half - t, and
        # conv_adjoint the same with -s.
        kept = np.flatnonzero(np.abs(taps) > _EPS)
        reach = taps.size // 2
        table = _shift_table(rows, reach)
        self._taps = taps[kept]
        self._forward_idx = np.ascontiguousarray(table[:, 2 * reach - kept])
        self._adjoint_idx = np.ascontiguousarray(table[:, kept])

    def forward(self, x) -> np.ndarray:
        flat = require_shape(x, self.image_shape).ravel()
        return (flat[self._forward_idx] @ self._taps)[:, np.newaxis]

    def adjoint(self, y) -> np.ndarray:
        flat = require_shape(y, self.image_shape).ravel()
        return (flat[self._adjoint_idx] @ self._taps)[:, np.newaxis]


#: The operators blur_operator builds, each applying one kernel to one image shape.
Blur = ColumnFilter | FourierFilter


def blur_operator(kernel: ConvKernel | Blur, shape) -> Blur:
    """The blur to iterate with on images of `shape`.

    A single column gets a ColumnFilter: at N=128 with 13 taps one pass
    took 3.9-4.1 us, against 11-13 us for a bare rfft/irfft pair, 27-33 us
    for a FourierFilter and 32-45 us for conv_forward (2-vCPU Xeon host,
    timeit best of 5 x 2000 calls, three processes). Any wider image gets
    a FourierFilter. An operator already built is returned as it is.
    """
    if isinstance(kernel, Blur):
        return kernel
    if shape[1] == 1:
        return ColumnFilter(kernel, shape)
    return FourierFilter(kernel, shape)


# ---------------------------------------------------------------------------
# Dictionaries. Each exposes image_shape, coeff_shape, atom_sums, synthesize
# and adjoint; synthesize maps nonnegative coefficients to a nonnegative image
# and adjoint is its exact transpose. atom_sums holds each atom's pixel sum,
# cut to length 1 along the axes of coeff_shape over which it shifts.
# ---------------------------------------------------------------------------


class HaarBoxDictionary:
    """Unit-norm rectangular boxes of dyadic widths at every circular shift.

    Level j contributes the N circular shifts of a causal box with 2^j
    entries of height 2^(-j/2) (unit l2 norm). Coefficients form one flat
    vector of length N * len(levels), level blocks in the given order,
    index k within a block selecting the shift.

    Both passes are dyadic running sums over one circularly extended copy,
    N + W - 1 entries long for the widest box W: a sum of width 2w is two
    sums of width w, w apart. Only sums of nonnegative terms and one
    scaling are formed, so exact zeros stay exact and an inf stays in its
    footprint.
    """

    def __init__(self, n: int, levels=(2, 3, 4, 5)):
        if n < 2:
            raise ValueError("signal length must be at least 2")
        levels = tuple(int(j) for j in levels)
        if not levels:
            raise ValueError("at least one level is required")
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
        widest = max(levels)
        span = np.arange(n + 2**widest - 1)
        block = {j: b for b, j in enumerate(levels)}
        self._scale = 2.0 ** (-np.array(levels)[:, np.newaxis] / 2.0)
        self.atom_sums = np.repeat(2.0 ** (np.array(levels) / 2.0), n)  # 2^j entries of 2^(-j/2)
        # Synthesis: each block extended circularly to the left, so entry
        # i + W - 1 ends pixel i's sums; the widest block first, then per
        # narrower width a doubling and that width's block, if any.
        self._synth_idx = (span - 2**widest + 1) % n + n * np.arange(len(levels))[:, np.newaxis]
        self._synth_first = block[widest]
        self._synth_steps = [(2**j, block.get(j)) for j in range(widest - 1, -1, -1)]
        # Adjoint: the image extended circularly to the right, so entry k
        # starts shift k's sums; per width from 1 up, the doubling that
        # reaches it, then that width's block, if any.
        self._adjoint_idx = span % n
        self._adjoint_steps = [
            (2 ** (j - 1) if j else 0, block.get(j), 2.0 ** (-j / 2.0)) for j in range(widest + 1)
        ]

    def synthesize(self, c) -> np.ndarray:
        blocks = require_shape(c, self.coeff_shape)[self._synth_idx]
        blocks *= self._scale
        out = blocks[self._synth_first]
        for width, b in self._synth_steps:
            out = out[width:] + out[:-width]
            if b is not None:
                out += blocks[b, -out.size :]
        return out[:, np.newaxis]

    def adjoint(self, f) -> np.ndarray:
        sums = require_shape(f, self.image_shape).ravel()[self._adjoint_idx]
        out = np.empty((len(self.levels), self.n))
        for shift, b, scale in self._adjoint_steps:
            if shift:
                sums = sums[:-shift] + sums[shift:]
            if b is not None:
                np.multiply(sums[: self.n], scale, out=out[b])
        return out.ravel()


def spline_generator(j: int) -> np.ndarray:
    """1-D cubic B-spline taps of unit l2 norm at dyadic scale 2^j, length
    2^(j+2) - 1: four ones-vectors of length 2^j convolved with the unit
    cubic spline [1, 4, 1]/6 and scaled by 2^(-3j) (taps summing to 2^j),
    then rescaled to unit norm.
    """
    if j < 0:
        raise ValueError("scale index must be nonnegative")
    box = np.ones(2**j)
    b = box
    for _ in range(3):
        b = np.convolve(b, box)
    b = np.convolve(b, np.array([1.0, 4.0, 1.0]) / 6.0) * 2.0 ** (-3 * j)
    return b / np.linalg.norm(b)


def spline_generators(n_levels: int) -> list[np.ndarray]:
    if n_levels < 1:
        raise ValueError("need at least one scale")
    return [spline_generator(j) for j in range(n_levels)]


class SplineDictionary:
    """Shift-invariant 2-D dictionary of separable cubic B-splines.

    Scale j uses the tensor-product kernel B_j[n, m] = b_j[n] b_j[m] at
    every integer translation under periodic boundaries, so an N-by-M
    image carries J coefficient planes of size N-by-M. Synthesis is the
    sum over scales of the circular convolution of each plane with B_j,
    applied through one FourierFilter over the J kernels; the synthesized
    image is clamped at 0 against FFT round-off. B_j sums to (sum b_j)^2.
    """

    def __init__(self, shape: tuple[int, int], n_levels: int):
        self.generators = spline_generators(n_levels)
        self._filter = FourierFilter([ConvKernel(np.outer(b, b)) for b in self.generators], shape)
        self.image_shape = self._filter.image_shape
        self.n_levels = int(n_levels)
        self.coeff_shape = self._filter.input_shape
        self.atom_sums = np.array([b.sum() ** 2 for b in self.generators]).reshape(-1, 1, 1)

    def synthesize(self, c, blur: FourierFilter | None = None):
        """The image; with `blur`, a FourierFilter on the image shape, the
        pair (image, blurred image) from one summed spectrum, where the
        image is clamped but the blur acts on the unclamped sum."""
        out = self._filter.forward(c, blur)
        image = out if blur is None else out[0]
        np.maximum(image, 0.0, out=image)
        return out

    def adjoint(self, f, blur: FourierFilter | None = None) -> np.ndarray:
        """The adjoint; with `blur`, that of blur after synthesis."""
        return self._filter.adjoint(f, blur)


def _sub_atoms(atoms: np.ndarray, stride: int) -> np.ndarray:
    """(qr, qc, K, s^2) array: the K atoms zero-padded to qr x qc blocks of
    s x s pixels (s the stride), block (qi, qj) of every atom flattened."""
    n_atoms, pr, pc = atoms.shape
    s = stride
    qr, qc = -(-pr // s), -(-pc // s)
    padded = np.zeros((n_atoms, qr * s, qc * s))
    padded[:, :pr, :pc] = atoms
    blocks = padded.reshape(n_atoms, qr, s, qc, s).transpose(1, 3, 0, 2, 4)
    return blocks.reshape(qr, qc, n_atoms, s * s)


class PatchDictionary:
    """Nonnegative patch atoms applied on a regular grid of patch positions.

    Patches start at every multiple of `stride` along each axis and wrap
    circularly, so the stride must divide both image dimensions and may
    not exceed the patch size (every pixel must be covered). Synthesis
    sums each patch's atom combination into the image and divides by the
    per-pixel overlap count, so a constant coefficient field synthesizes
    a flat image; the adjoint reverses that composition exactly (divide
    by overlap, extract patches, correlate with the atoms).

    Both passes work on the image as an R x C grid of s x s blocks (s the
    stride), on which the dictionary is shift-invariant: patch (a, b)
    covers blocks (a + qi, b + qj) mod the grid for qi < qr = ceil(pr / s),
    qj < qc = ceil(pc / s), with the matching block of each zero-padded
    atom, its sub-atom. A pixel's overlap count depends only on its place
    in its block, so the sub-atoms come divided by it. Synthesis adds one
    matmul of the coefficients with each sub-atom into a block buffer
    qr - 1 and qc - 1 blocks longer, folds the overhang back and copies
    the blocks to image layout. The adjoint copies the image into a block
    buffer extended circularly the same way and sums one matmul of each
    shifted window with its transposed sub-atom. No table of patch
    indices is kept and no patch-sized array is formed. Every output is a
    sum of nonnegative products, so exact zeros stay exact.
    """

    def __init__(self, atoms: np.ndarray, stride: int, image_shape: tuple[int, int]):
        atoms = np.asarray(atoms, dtype=np.float64)
        if atoms.ndim != 3:
            raise ValueError("atoms must have shape (num_atoms, patch_rows, patch_cols)")
        if np.any(atoms < 0) or not np.all(np.isfinite(atoms)):
            raise ValueError("atoms must be finite and nonnegative")
        if not np.any(atoms):
            raise ValueError(f"atoms {atoms.shape} hold no positive entry, so every model is 0")
        n_atoms, pr, pc = atoms.shape
        rows, cols = int(image_shape[0]), int(image_shape[1])
        stride = int(stride)
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
        self._grid = (n_pos_r, n_pos_c)
        # On the circular grid every block is covered alike, so a pixel's
        # overlap count depends only on its place in the block: the number
        # of sub-atom footprints there. Dividing the sub-atoms by it moves
        # the overlap division into both passes' matmuls.
        overlap = _sub_atoms(np.ones((1, pr, pc)), stride).sum(axis=(0, 1, 2))
        if not overlap.all():
            raise ValueError("patch grid leaves pixels uncovered")
        self._sub = _sub_atoms(atoms, stride) / overlap
        self.atom_sums = self._sub.sum(axis=(0, 1, 3))[np.newaxis]
        # The adjoint's batched matmuls ran 0.4 against 0.7 ms at 512^2 on
        # contiguous transposes rather than transposed views.
        self._sub_t = np.ascontiguousarray(self._sub.swapaxes(2, 3))

    def synthesize(self, c) -> np.ndarray:
        c = require_shape(c, self.coeff_shape)
        (nr, nc), (qr, qc) = self._grid, self._sub.shape[:2]
        s = self.stride
        buf = np.zeros((nr + qr - 1, nc + qc - 1, s * s))
        term = np.empty((nr, nc, s * s))
        # Descending offsets add each interior pixel's patches in ascending
        # patch order, as a loop over the patches would.
        for qi in range(qr - 1, -1, -1):
            for qj in range(qc - 1, -1, -1):
                np.matmul(c, self._sub[qi, qj], out=term.reshape(self.n_patches, s * s))
                buf[qi : qi + nr, qj : qj + nc] += term
        buf[: qr - 1] += buf[nr:]
        buf[:nr, : qc - 1] += buf[:nr, nc:]
        image = buf[:nr, :nc].reshape(nr, nc, s, s).swapaxes(1, 2).reshape(self.image_shape)
        # At stride 1 the reshape is a view into the buffer; return an image of its own.
        return np.ascontiguousarray(image)

    def adjoint(self, f) -> np.ndarray:
        f = require_shape(f, self.image_shape)
        (nr, nc), (qr, qc) = self._grid, self._sub.shape[:2]
        s = self.stride
        ext = np.empty((nr + qr - 1, nc + qc - 1, s * s))
        ext[:nr, :nc] = f.reshape(nr, s, nc, s).swapaxes(1, 2).reshape(nr, nc, s * s)
        del f  # frees an input no caller holds, such as the blur's adjoint in ForwardModel
        ext[nr:, :nc] = ext[: qr - 1, :nc]
        ext[:, nc:] = ext[:, : qc - 1]
        out = np.matmul(ext[:nr, :nc], self._sub_t[0, 0])
        term = np.empty_like(out)
        for qi, qj in np.ndindex(qr, qc):
            if qi or qj:
                out += np.matmul(ext[qi : qi + nr, qj : qj + nc], self._sub_t[qi, qj], out=term)
        return out.reshape(self.coeff_shape)


class ForwardModel:
    """Composed measurement map A = H o Phi: dictionary synthesis followed
    by blur, where `blur` is the blur_operator for the image shape.

    A SplineDictionary, always under a FourierFilter blur, takes the fused
    DFT path the module docstring counts (its methods take the blur);
    other models compose plainly.

    v, the adjoint applied to the all-ones image, is the sparse solver's
    denominator weight. The blur's adjoint maps that image to the constant
    tap sum, so v is the tap sum times the dictionary's `atom_sums`, with
    no adjoint pass: nonnegative, and positive for each atom with a
    positive entry when some tap is. `column_sums` holds it with one value
    per atom or spline level (Haar's flat level blocks stay whole); `v` is
    a read-only broadcast view of it over coeff_shape.
    """

    def __init__(self, kernel: ConvKernel, dictionary):
        self.kernel = kernel
        self.dictionary = dictionary
        self.image_shape = dictionary.image_shape
        self.coeff_shape = dictionary.coeff_shape
        self.blur = blur_operator(kernel, self.image_shape)
        # A spline level's 3 x 3 or wider kernel needs an image at least 3
        # columns wide, so the blur here is always a FourierFilter.
        self._fused = isinstance(dictionary, SplineDictionary)
        self.column_sums = float(kernel.taps.sum()) * dictionary.atom_sums

    @property
    def v(self) -> np.ndarray:
        """The column sums over coeff_shape: a read-only broadcast view."""
        return np.broadcast_to(self.column_sums, self.coeff_shape)

    def evaluate(self, c) -> tuple[np.ndarray, np.ndarray]:
        """(image, Ac): the synthesized image and the blurred model."""
        if self._fused:
            return self.dictionary.synthesize(c, self.blur)
        image = self.dictionary.synthesize(c)
        return image, self.blur.forward(image)

    def forward(self, c) -> np.ndarray:
        return self.evaluate(c)[1]

    def adjoint(self, y) -> np.ndarray:
        if self._fused:
            return self.dictionary.adjoint(y, self.blur)
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
