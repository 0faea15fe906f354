"""Blur operator, dictionaries, and forward-model contracts.

Every adjoint is checked against an independently coded dense or
direct-summation oracle, not against the implementation's own pieces.
"""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import ndimage

from helpers import (
    IdentityDictionary,
    fft_transfer,
    identity_kernel,
    inner,
    raw_spline_taps,
    spline_adjoint_direct,
    spline_synthesize_direct,
)
from poisson_deconv.operators import (
    ColumnFilter,
    ConvKernel,
    ForwardModel,
    FourierFilter,
    HaarBoxDictionary,
    PatchDictionary,
    SplineDictionary,
    _correlate1d,
    blur_operator,
    conv_adjoint,
    conv_forward,
    gaussian_kernel_1d,
    inverse_quadratic_kernel,
    make_kernel,
    spline_generator,
    spline_generators,
)
from poisson_deconv.simulate import make_phantom, poisson_sample
from poisson_deconv.solvers import SolverConfig, run_solver, srl_step


def circ_conv_oracle(x, taps):
    """Direct-summation centered circular convolution (reference path)."""
    rows, cols = x.shape
    hr, hc = taps.shape[0] // 2, taps.shape[1] // 2
    out = np.zeros_like(x)
    for n in range(rows):
        for m in range(cols):
            acc = 0.0
            for u in range(-hr, hr + 1):
                for v in range(-hc, hc + 1):
                    acc += taps[u + hr, v + hc] * x[(n - u) % rows, (m - v) % cols]
            out[n, m] = acc
    return out


class TestKernelConstruction:
    def test_even_dimensions_rejected(self):
        with pytest.raises(ValueError):
            make_kernel(np.ones((2, 3)))

    def test_negative_taps_rejected(self):
        with pytest.raises(ValueError):
            make_kernel(np.array([1.0, -0.1, 1.0]))

    def test_normalization(self):
        k = make_kernel(np.array([1.0, 2.0, 1.0]))
        assert abs(k.taps.sum() - 1.0) < 1e-12


class TestGaussianKernel:
    def test_sigma_from_cutoff(self):
        """exp(-sigma^2 w^2 / 2) = 2^(-1/2) at w = 0.2*pi gives sigma ~ 1.32505."""
        sigma = math.sqrt(math.log(2.0)) / (0.2 * math.pi)
        assert abs(sigma - 1.3250518175969843) < 1e-12
        k = gaussian_kernel_1d(0.2 * math.pi)
        half = k.taps.shape[0] // 2
        assert half == math.ceil(4.0 * sigma)
        # Tap profile matches exp(-n^2 / (2 sigma^2)) after normalization.
        n = np.arange(-half, half + 1)
        expected = np.exp(-0.5 * (n / sigma) ** 2)
        expected /= expected.sum()
        np.testing.assert_allclose(k.taps[:, 0], expected, rtol=1e-12)

    def test_minus_3db_at_cutoff(self):
        """The discrete frequency response sits at ~2^(-1/2) at the cutoff."""
        cutoff = 0.2 * math.pi
        k = gaussian_kernel_1d(cutoff)
        half = k.taps.shape[0] // 2
        n = np.arange(-half, half + 1)
        response = float(np.sum(k.taps[:, 0] * np.cos(cutoff * n)))
        assert abs(response - 2 ** (-0.5)) < 2e-3

    def test_sum_and_symmetry(self):
        for cutoff in (0.1, 0.2 * math.pi, 1.5):
            k = gaussian_kernel_1d(cutoff)
            assert abs(k.taps.sum() - 1.0) < 1e-12
            np.testing.assert_array_equal(k.taps, k.taps[::-1])

    def test_cutoff_out_of_range(self):
        for bad in (0.0, -1.0, math.pi):
            with pytest.raises(ValueError):
                gaussian_kernel_1d(bad)


class TestInverseQuadraticKernel:
    def test_tap_formula(self):
        """Taps are 1/(i^2+j^2+1) up to the common normalization."""
        k = inverse_quadratic_kernel()
        assert k.taps.shape == (15, 15)
        i = np.arange(-7, 8)
        raw = 1.0 / (i[:, None] ** 2 + i[None, :] ** 2 + 1.0)
        assert raw[7, 7] == 1.0
        assert raw[14, 14] == 1.0 / 99.0
        np.testing.assert_allclose(k.taps, raw / raw.sum(), rtol=1e-14)
        assert abs(k.taps.sum() - 1.0) < 1e-12

    def test_center_to_corner_ratio_survives_normalization(self):
        k = inverse_quadratic_kernel()
        assert abs(k.taps[7, 7] / k.taps[0, 0] - 99.0) < 1e-9


class TestCircularConvolution:
    def test_identity_kernel(self):
        rng = np.random.default_rng(0)
        x = rng.random((9, 7))
        np.testing.assert_array_equal(conv_forward(identity_kernel(), x), x)

    def test_normalized_kernel_fixes_ones(self):
        rng = np.random.default_rng(1)
        k = make_kernel(rng.random((5, 3)))
        ones = np.ones((12, 10))
        np.testing.assert_allclose(conv_forward(k, ones), ones, rtol=0, atol=1e-12)
        np.testing.assert_allclose(conv_adjoint(k, ones), ones, rtol=0, atol=1e-12)

    def test_matches_direct_summation_oracle(self):
        rng = np.random.default_rng(2)
        x = rng.random((11, 8))
        k = make_kernel(rng.random((5, 5)))
        np.testing.assert_allclose(
            conv_forward(k, x), circ_conv_oracle(x, k.taps), rtol=1e-13, atol=1e-13
        )

    def test_adjoint_is_reversed_kernel(self):
        rng = np.random.default_rng(3)
        y = rng.random((10, 9))
        k = make_kernel(rng.random((3, 5)))
        np.testing.assert_allclose(
            conv_adjoint(k, y), circ_conv_oracle(y, k.taps[::-1, ::-1]),
            rtol=1e-13, atol=1e-13,
        )

    def test_adjoint_identity(self):
        """<Hx, y> = <x, H*y> for random kernels and images."""
        rng = np.random.default_rng(4)
        for _ in range(20):
            x = rng.random((13, 6))
            y = rng.random((13, 6))
            k = ConvKernel(rng.random((5, 3)))  # taps that keep their own sum
            lhs = inner(conv_forward(k, x), y)
            rhs = inner(x, conv_adjoint(k, y))
            bound = 1e-10 * np.linalg.norm(x) * np.linalg.norm(y)
            assert abs(lhs - rhs) < max(bound, 1e-12)

    def test_circular_shift_wraps(self):
        taps = np.zeros((3, 1))
        taps[2, 0] = 1.0  # shift down by one, wrapping the last row to the top
        k = ConvKernel(taps)
        x = np.arange(8.0).reshape(4, 2)
        np.testing.assert_array_equal(conv_forward(k, x), np.roll(x, 1, axis=0))

    def test_kernel_larger_than_image_rejected(self):
        k = make_kernel(np.ones((5, 5)))
        with pytest.raises(ValueError):
            conv_forward(k, np.ones((3, 3)))

    def test_positivity_preserved(self):
        rng = np.random.default_rng(5)
        k = make_kernel(rng.random((3, 3)))
        x = rng.random((8, 8))
        assert np.all(conv_forward(k, x) >= 0)


def haar_dense_matrix(n, levels):
    """Explicit synthesis matrix: columns are shifted unit-norm boxes."""
    cols = []
    for j in levels:
        width = 2**j
        box = np.zeros(n)
        box[:width] = 2.0 ** (-j / 2.0)
        for k in range(n):
            cols.append(np.roll(box, k))
    return np.array(cols).T  # n x (n * len(levels))


@st.composite
def haar_cases(draw):
    """A random signal length and a nonempty set of valid levels in any order."""
    n = draw(st.integers(2, 64))
    max_level = int(math.floor(math.log2(n))) - 1
    levels = draw(st.lists(st.integers(0, max_level), min_size=1, unique=True))
    return n, tuple(levels), draw(st.integers(0, 2**32 - 1))


def _assert_impulse_confined(out, footprint, value):
    """Outside its footprint an impulse leaves exact zeros; inside, the
    value's sign (a positive number, or inf) and no NaN."""
    assert np.all(out[~footprint] == 0.0)
    assert np.all(out[footprint] > 0.0)
    assert np.all(np.isinf(out[footprint]) == np.isinf(value))


class TestHaarBoxDictionary:
    def test_dictionary_size(self):
        d = HaarBoxDictionary(128, (2, 3, 4, 5))
        assert d.coeff_shape == (512,)

    def test_boxes_have_unit_norm(self):
        phi = haar_dense_matrix(64, (0, 2, 5))
        np.testing.assert_allclose(np.linalg.norm(phi, axis=0), 1.0, rtol=1e-12)
        # 2^j entries of height 2^(-j/2) per box.
        assert np.count_nonzero(phi[:, 64 + 3]) == 4
        assert phi[:, 64].max() == 0.5

    def test_level_zero_is_identity(self):
        d = HaarBoxDictionary(16, (0,))
        rng = np.random.default_rng(6)
        c = rng.random(16)
        np.testing.assert_array_equal(d.synthesize(c)[:, 0], c)
        f = rng.random((16, 1))
        np.testing.assert_array_equal(d.adjoint(f), f[:, 0])

    def test_matches_dense_matrix(self):
        """Synthesis and adjoint agree with the explicit 128x512 matrix."""
        n, levels = 128, (2, 3, 4, 5)
        d = HaarBoxDictionary(n, levels)
        phi = haar_dense_matrix(n, levels)
        rng = np.random.default_rng(7)
        for _ in range(5):
            c = rng.random(d.coeff_shape[0])
            f = rng.random((n, 1))
            dense_synth = phi @ c
            np.testing.assert_allclose(
                d.synthesize(c)[:, 0], dense_synth,
                rtol=1e-10, atol=1e-10 * np.abs(dense_synth).max(),
            )
            dense_adj = phi.T @ f[:, 0]
            np.testing.assert_allclose(
                d.adjoint(f), dense_adj,
                rtol=1e-10, atol=1e-10 * np.abs(dense_adj).max(),
            )

    @settings(max_examples=40, deadline=None)
    @given(haar_cases())
    def test_gathers_match_dense_matrix(self, case):
        n, levels, seed = case
        d = HaarBoxDictionary(n, levels)
        phi = haar_dense_matrix(n, levels)
        rng = np.random.default_rng(seed)
        c = rng.random(d.coeff_shape)
        f = rng.random(d.image_shape)
        _close(d.synthesize(c), phi @ c[:, np.newaxis])
        _close(d.adjoint(f), phi.T @ f[:, 0])
        lhs, rhs = inner(d.synthesize(c), f), inner(c, d.adjoint(f))
        assert abs(lhs - rhs) <= 1e-13 * max(1.0, abs(lhs))

    @settings(max_examples=40, deadline=None)
    @given(haar_cases(), st.integers(0, 2**16), st.sampled_from([1.0, np.inf]))
    def test_impulse_stays_in_its_footprint(self, case, where, value):
        n, levels, _ = case
        d = HaarBoxDictionary(n, levels)
        phi = haar_dense_matrix(n, levels)
        q = where % phi.shape[1]
        c = np.zeros(d.coeff_shape)
        c[q] = value
        _assert_impulse_confined(d.synthesize(c)[:, 0], phi[:, q] > 0, value)
        p = where % n
        f = np.zeros(d.image_shape)
        f[p] = value
        _assert_impulse_confined(d.adjoint(f), phi[p] > 0, value)

    def test_level_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            HaarBoxDictionary(16, (0, 4))  # max level is floor(log2 16) - 1 = 3

    def test_empty_level_set_rejected(self):
        with pytest.raises(ValueError, match="at least one level is required"):
            HaarBoxDictionary(16, ())

    def test_coefficient_shape_checked(self):
        d = HaarBoxDictionary(16, (1, 2))
        with pytest.raises(ValueError):
            d.synthesize(np.ones(16))


class TestSplineGenerators:
    def test_scale_zero_is_unit_cubic_spline(self):
        b0 = raw_spline_taps(0)
        np.testing.assert_allclose(b0, np.array([1.0, 4.0, 1.0]) / 6.0, rtol=1e-15)
        b0n = spline_generator(0)
        np.testing.assert_allclose(
            b0n, np.array([1.0, 4.0, 1.0]) / np.sqrt(18.0), rtol=1e-14
        )

    def test_lengths(self):
        assert [len(b) for b in spline_generators(4)] == [3, 7, 15, 31]

    def test_raw_mass_doubles_per_scale(self):
        """Unnormalized taps sum to 2^j (direct summation), and the
        generators are those taps scaled to unit norm."""
        for j in range(5):
            raw = raw_spline_taps(j)
            assert abs(float(raw.sum()) - 2.0**j) < 1e-12 * 2.0**j
            np.testing.assert_allclose(spline_generator(j), raw / np.linalg.norm(raw), rtol=1e-13)

    def test_unit_l2_norm_and_symmetry(self):
        for j in range(4):
            b = spline_generator(j)
            assert abs(np.linalg.norm(b) - 1.0) < 1e-12
            np.testing.assert_allclose(b, b[::-1], rtol=1e-13)


def spline_synth_oracle(c, generators):
    """Direct 2-D circular-convolution synthesis, summed per scale."""
    levels, rows, cols = c.shape
    out = np.zeros((rows, cols))
    for j in range(levels):
        b = generators[j]
        kernel2d = np.outer(b, b)
        out += circ_conv_oracle(c[j], kernel2d)
    return out


class TestSplineDictionary:
    def test_coefficient_count(self):
        d = SplineDictionary((16, 24), 3)
        assert d.coeff_shape == (3, 16, 24)

    def test_impulse_response_is_tensor_kernel(self):
        d = SplineDictionary((32, 32), 3)
        for j in range(3):
            c = np.zeros(d.coeff_shape)
            c[j, 16, 16] = 1.0
            f = d.synthesize(c)
            b = d.generators[j]
            half = len(b) // 2
            expected = np.zeros((32, 32))
            expected[16 - half : 16 + half + 1, 16 - half : 16 + half + 1] = np.outer(b, b)
            np.testing.assert_allclose(f, expected, rtol=0, atol=1e-14)

    def test_matches_direct_summation_oracle(self):
        d = SplineDictionary((16, 16), 3)
        rng = np.random.default_rng(8)
        c = rng.random(d.coeff_shape)
        np.testing.assert_allclose(
            d.synthesize(c), spline_synth_oracle(c, d.generators), rtol=1e-12, atol=1e-12
        )

    def test_adjoint_identity_against_oracle(self):
        """<Phi c, f> = <c, Phi* f> with the synthesis side from the oracle."""
        d = SplineDictionary((16, 16), 3)
        rng = np.random.default_rng(9)
        for _ in range(5):
            c = rng.random(d.coeff_shape)
            f = rng.random((16, 16))
            lhs = inner(spline_synth_oracle(c, d.generators), f)
            rhs = inner(c, d.adjoint(f))
            assert abs(lhs - rhs) < 1e-10 * abs(lhs)

    def test_plane_count_checked(self):
        d = SplineDictionary((16, 16), 2)
        with pytest.raises(ValueError):
            d.synthesize(np.ones((3, 16, 16)))

    def test_too_small_image_rejected(self):
        with pytest.raises(ValueError):
            SplineDictionary((8, 8), 3)  # widest generator has 15 taps


def patch_positions(stride, image_shape):
    """Top-left corners of the patches, in coefficient row order."""
    rows, cols = image_shape
    return [(r, c) for r in range(0, rows, stride) for c in range(0, cols, stride)]


def patch_overlap_loop(patch_shape, stride, image_shape):
    """Per-pixel count of the patches covering it, by explicit loops."""
    rows, cols = image_shape
    overlap = np.zeros(image_shape)
    for r0, c0 in patch_positions(stride, image_shape):
        for i in range(patch_shape[0]):
            for j in range(patch_shape[1]):
                overlap[(r0 + i) % rows, (c0 + j) % cols] += 1.0
    return overlap


def patch_dense_matrix(atoms, stride, image_shape):
    """Column for coefficient (p, a): atom a scattered at patch p, divided
    by the overlap count, all built with explicit loops."""
    n_atoms, pr, pc = atoms.shape
    rows, cols = image_shape
    pos = patch_positions(stride, image_shape)
    overlap = patch_overlap_loop((pr, pc), stride, image_shape)
    mat = np.zeros((rows * cols, len(pos) * n_atoms))
    for p, (r0, c0) in enumerate(pos):
        for a in range(n_atoms):
            img = np.zeros(image_shape)
            for i in range(pr):
                for j in range(pc):
                    img[(r0 + i) % rows, (c0 + j) % cols] += atoms[a, i, j]
            mat[:, p * n_atoms + a] = (img / overlap).ravel()
    return mat


@st.composite
def patch_cases(draw):
    """(n_atoms, patch shape, stride, image shape, seed): a grid of 1-4
    stride blocks each way and patches from one block to the whole image,
    so square or not, with pr % stride anything."""
    stride = draw(st.integers(1, 4))
    rows, cols = (stride * draw(st.integers(1, 4)) for _ in range(2))
    patch = (draw(st.integers(stride, rows)), draw(st.integers(stride, cols)))
    return draw(st.integers(1, 3)), patch, stride, (rows, cols), draw(st.integers(0, 2**32 - 1))


# Stride 1; pr % s != 0 on both axes; a patch as large as a non-square
# image; a single atom on one block that is the whole image.
PATCH_EXAMPLES = [
    (2, (3, 2), 1, (4, 5), 1),
    (3, (4, 5), 3, (9, 6), 2),
    (2, (8, 12), 4, (8, 12), 3),
    (1, (3, 3), 3, (3, 3), 4),
]


def _with_patch_examples(*rest):
    def decorate(test):
        for case in PATCH_EXAMPLES:
            test = example(case, *rest)(test)
        return test
    return decorate


class TestPatchDictionary:
    def _atoms(self, rng, n_atoms=8, size=4):
        return rng.random((n_atoms, size, size))

    @settings(max_examples=40, deadline=None)
    @given(patch_cases())
    @_with_patch_examples()
    def test_passes_match_dense_matrix(self, case):
        n_atoms, patch, stride, shape, seed = case
        rng = np.random.default_rng(seed)
        atoms = rng.random((n_atoms, *patch))
        d = PatchDictionary(atoms, stride, shape)
        mat = patch_dense_matrix(atoms, stride, shape)
        c = rng.random(d.coeff_shape)
        f = rng.random(shape)
        _close(d.synthesize(c), (mat @ c.ravel()).reshape(shape))
        _close(d.adjoint(f), (mat.T @ f.ravel()).reshape(d.coeff_shape))
        lhs, rhs = inner(d.synthesize(c), f), inner(c, d.adjoint(f))
        assert abs(lhs - rhs) <= 1e-13 * max(1.0, abs(lhs))

    @settings(max_examples=40, deadline=None)
    @given(patch_cases())
    @_with_patch_examples()
    def test_overlap_counts_match_loop(self, case):
        """Under one flat atom, patch p alone synthesizes 1 / overlap on its
        footprint, and every pixel lies in some footprint."""
        _, patch, stride, shape, _ = case
        d = PatchDictionary(np.ones((1, *patch)), stride, shape)
        overlap = patch_overlap_loop(patch, stride, shape)
        seen = np.zeros(shape, dtype=bool)
        for p in range(d.n_patches):
            c = np.zeros(d.coeff_shape)
            c[p] = 1.0
            out = d.synthesize(c)
            footprint = out > 0
            np.testing.assert_array_equal(np.rint(1.0 / out[footprint]), overlap[footprint])
            seen |= footprint
        assert seen.all()

    @settings(max_examples=40, deadline=None)
    @given(patch_cases(), st.integers(0, 2**16))
    @_with_patch_examples(7)
    def test_impulse_stays_in_its_footprint(self, case, where):
        """A one-hot coefficient synthesizes exact zeros off its patch's
        footprint, and a one-hot pixel reaches only the coefficients of
        the patches that cover it."""
        n_atoms, patch, stride, shape, seed = case
        atoms = np.random.default_rng(seed).random((n_atoms, *patch)) + 0.5
        d = PatchDictionary(atoms, stride, shape)
        mat = patch_dense_matrix(atoms, stride, shape)
        q = where % mat.shape[1]
        c = np.zeros(d.coeff_shape)
        c.flat[q] = 1.0
        _assert_impulse_confined(d.synthesize(c).ravel(), mat[:, q] > 0, 1.0)
        p = where % mat.shape[0]
        f = np.zeros(shape)
        f.flat[p] = 1.0
        _assert_impulse_confined(d.adjoint(f).ravel(), mat[p] > 0, 1.0)

    def test_single_patch_reproduces_atom(self):
        rng = np.random.default_rng(10)
        atoms = self._atoms(rng, n_atoms=5)
        d = PatchDictionary(atoms, stride=4, image_shape=(4, 4))
        c = np.zeros(d.coeff_shape)
        c[0, 3] = 1.0
        np.testing.assert_allclose(d.synthesize(c), atoms[3], rtol=1e-15)

    def test_matches_dense_matrix(self):
        """8x8 image, 4x4 patches, 8 atoms, stride 4: dense-oracle equality."""
        rng = np.random.default_rng(11)
        atoms = self._atoms(rng)
        d = PatchDictionary(atoms, stride=4, image_shape=(8, 8))
        mat = patch_dense_matrix(atoms, 4, (8, 8))
        for _ in range(5):
            c = rng.random(d.coeff_shape)
            f = rng.random((8, 8))
            dense_synth = (mat @ c.ravel()).reshape(8, 8)
            np.testing.assert_allclose(
                d.synthesize(c), dense_synth, rtol=1e-10, atol=1e-12
            )
            dense_adj = (mat.T @ f.ravel()).reshape(d.coeff_shape)
            np.testing.assert_allclose(d.adjoint(f), dense_adj, rtol=1e-10, atol=1e-12)

    def test_overlapping_stride_dense_equality(self):
        rng = np.random.default_rng(12)
        atoms = self._atoms(rng, n_atoms=6)
        d = PatchDictionary(atoms, stride=2, image_shape=(8, 8))
        mat = patch_dense_matrix(atoms, 2, (8, 8))
        c = rng.random(d.coeff_shape)
        np.testing.assert_allclose(
            d.synthesize(c), (mat @ c.ravel()).reshape(8, 8), rtol=1e-10, atol=1e-12
        )

    def test_overcompleteness_factor(self):
        """512 atoms on 16x16 patches give a factor of 2 per segment."""
        rng = np.random.default_rng(13)
        atoms = rng.random((512, 16, 16))
        d = PatchDictionary(atoms, stride=8, image_shape=(64, 64))
        n_atoms, pr, pc = atoms.shape
        assert n_atoms / (pr * pc) == 2.0
        assert d.coeff_shape == (64, 512)

    def test_constant_coefficients_make_flat_image(self):
        """Overlap normalization: a constant field over one flat atom is flat."""
        atoms = np.ones((1, 4, 4))
        d = PatchDictionary(atoms, stride=2, image_shape=(8, 8))
        f = d.synthesize(np.full(d.coeff_shape, 3.0))
        np.testing.assert_allclose(f, 3.0 * np.ones((8, 8)), rtol=1e-14)

    def test_negative_atoms_rejected(self):
        with pytest.raises(ValueError):
            PatchDictionary(-np.ones((2, 4, 4)), stride=4, image_shape=(8, 8))

    @pytest.mark.parametrize(
        "atoms", [np.zeros((0, 4, 4)), np.zeros((2, 4, 4))], ids=["empty", "zero"]
    )
    def test_atom_set_without_a_positive_entry_rejected(self, atoms):
        """No atom set that makes every model zero: SRL would run out its
        iterations at an infinite objective and return an all-zero image."""
        with pytest.raises(ValueError, match="no positive entry"):
            PatchDictionary(atoms, stride=4, image_shape=(8, 8))

    def test_bad_stride_rejected(self):
        atoms = np.ones((2, 4, 4))
        with pytest.raises(ValueError):
            PatchDictionary(atoms, stride=3, image_shape=(8, 8))  # 3 does not divide 8
        with pytest.raises(ValueError):
            PatchDictionary(atoms, stride=8, image_shape=(8, 8))  # gaps in coverage


class TestForwardModel:
    def _models(self, rng):
        haar = ForwardModel(
            make_kernel(rng.random(5)), HaarBoxDictionary(32, (1, 2, 3))
        )
        spline = ForwardModel(
            make_kernel(rng.random((5, 5))), SplineDictionary((16, 16), 2)
        )
        patch = ForwardModel(
            make_kernel(rng.random((3, 3))),
            PatchDictionary(rng.random((8, 4, 4)), 2, (8, 8)),
        )
        return {"haar": haar, "spline": spline, "patch": patch}

    def test_identity_composition_is_identity(self):
        d = HaarBoxDictionary(16, (0,))
        m = ForwardModel(identity_kernel(), d)
        rng = np.random.default_rng(14)
        c = rng.random(16)
        np.testing.assert_array_equal(m.forward(c)[:, 0], c)

    def test_adjoint_identity_all_dictionaries(self):
        """<Ac, y> = <c, A*y> for every dictionary kind."""
        rng = np.random.default_rng(15)
        for name, m in self._models(rng).items():
            for _ in range(10):
                c = rng.random(m.coeff_shape)
                y = rng.random(m.image_shape)
                lhs = inner(m.forward(c), y)
                rhs = inner(c, m.adjoint(y))
                bound = 1e-10 * np.linalg.norm(m.forward(c)) * np.linalg.norm(y)
                assert abs(lhs - rhs) < bound, name

    def test_column_sums_strictly_positive(self):
        rng = np.random.default_rng(16)
        for name, m in self._models(rng).items():
            assert np.all(m.v > 0), name

    def test_positivity_preserved(self):
        rng = np.random.default_rng(17)
        for name, m in self._models(rng).items():
            c = rng.random(m.coeff_shape)
            assert np.all(m.forward(c) >= 0), name

    def test_identity_dictionary(self):
        d = IdentityDictionary((4, 4))
        rng = np.random.default_rng(18)
        c = rng.random((4, 4))
        np.testing.assert_array_equal(d.synthesize(c), c)
        np.testing.assert_array_equal(d.adjoint(c), c)


def _full_column_sums(model):
    """v as one full coefficient array: the adjoint of the ones image, with
    a FourierFilter blur's adjoint of ones filled in as its constant tap sum
    (the FFT would add its own rounding of that constant)."""
    if isinstance(model.blur, FourierFilter):
        return model.dictionary.adjoint(np.full(model.image_shape, float(model.kernel.taps.sum())))
    return model.adjoint(np.ones(model.image_shape))


def _assert_compact_v_exact(model):
    """v is a read-only broadcast view of column_sums over coeff_shape and
    within 4 ulp per entry of the full adjoint of ones."""
    v = model.v
    assert v.shape == model.coeff_shape and not v.flags.writeable
    assert np.shares_memory(v, model.column_sums)
    np.testing.assert_array_max_ulp(v, _full_column_sums(model), maxulp=4)


class TestCompactColumnSums:
    """v is the blur's tap sum times each atom's pixel sum, kept as one value
    per atom or spline level and broadcast read-only over the coefficient
    grid; it matches the full adjoint of the ones image to 4 ulp."""

    @pytest.mark.parametrize("shape", [(128, 128), (64, 96)])
    def test_spline_one_value_per_level(self, shape):
        model = ForwardModel(inverse_quadratic_kernel(), SplineDictionary(shape, 4))
        assert model.column_sums.shape == (4, 1, 1)
        _assert_compact_v_exact(model)

    def test_patch_512_one_value_per_atom(self):
        atoms = np.random.default_rng(1).uniform(0.0, 1.0, (16, 8, 8))
        model = ForwardModel(inverse_quadratic_kernel(), PatchDictionary(atoms, 4, (512, 512)))
        assert model.column_sums.shape == (1, 16)
        _assert_compact_v_exact(model)

    def test_patch_one_value_per_atom_where_the_adjoint_rounds_unevenly(self):
        """11 atoms of 72 x 86 at stride 4 on 88 x 88: the patch adjoint's
        last grid columns come out one ulp off on the constant image, but
        the closed form still keeps one value per atom. SRL runs on that
        weight: one step keeps its weighted mass and a short solve stays
        finite."""
        atoms = np.random.default_rng(2).uniform(0.0, 1.0, (11, 72, 86))
        model = ForwardModel(inverse_quadratic_kernel(), PatchDictionary(atoms, 4, (88, 88)))
        assert model.column_sums.shape == (1, 11)
        _assert_compact_v_exact(model)
        rng = np.random.default_rng(3)
        g = poisson_sample(rng.random(model.image_shape) * 20.0, rng)
        c = srl_step(g, model, np.ones(model.coeff_shape), 0.1)
        mass = inner(c, model.v + 0.1)
        assert abs(mass - g.sum()) <= 1e-12 * g.sum()
        res = run_solver("srl", g, model=model, config=SolverConfig(lam=0.1, max_iters=3))
        assert res.trace.n_iters == 3 and res.trace.terminated_by == "max_iters"
        assert np.all(np.isfinite(res.coefficients)) and np.all(np.isfinite(res.estimate))

    @pytest.mark.parametrize("n", [32, 128])
    def test_haar_stays_flat(self, n):
        """Haar's level blocks sit end to end in one flat vector, which no
        broadcast can express, so its column sums stay one flat array."""
        model = ForwardModel(gaussian_kernel_1d(0.2 * math.pi), HaarBoxDictionary(n, (1, 2, 3)))
        assert model.column_sums.shape == model.coeff_shape
        _assert_compact_v_exact(model)

    @settings(max_examples=40, deadline=None)
    @given(patch_cases())
    @_with_patch_examples()
    def test_patch_cases(self, case):
        """Under the largest inverse-quadratic blur (up to 15 x 15) that fits."""
        n_atoms, patch, stride, shape, seed = case
        atoms = np.random.default_rng(seed).random((n_atoms, *patch))
        half = min(7, (min(shape) - 1) // 2)
        model = ForwardModel(inverse_quadratic_kernel(half), PatchDictionary(atoms, stride, shape))
        _assert_compact_v_exact(model)

    @pytest.mark.parametrize("n,rows", [(128, 1), (128, 5), (40, 8)])
    def test_patch_columns_under_a_column_blur(self, n, rows):
        atoms = np.random.default_rng(n + rows).random((3, rows, 1))
        model = ForwardModel(gaussian_kernel_1d(0.2 * math.pi), PatchDictionary(atoms, 1, (n, 1)))
        assert isinstance(model.blur, ColumnFilter)
        _assert_compact_v_exact(model)

    def test_a_v_off_by_one_part_in_1e12_fails_the_check(self, monkeypatch):
        model = ForwardModel(inverse_quadratic_kernel(), SplineDictionary((32, 32), 2))
        monkeypatch.setattr(model, "column_sums", model.column_sums * (1.0 + 1e-12))
        with pytest.raises(AssertionError):
            _assert_compact_v_exact(model)

    def test_building_a_model_runs_no_adjoint(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("adjoint called while building a model")

        for cls in (
            ColumnFilter,
            FourierFilter,
            HaarBoxDictionary,
            IdentityDictionary,
            PatchDictionary,
            SplineDictionary,
        ):
            monkeypatch.setattr(cls, "adjoint", refuse)
        atoms = np.random.default_rng(20).random((3, 4, 4))
        column = gaussian_kernel_1d(0.2 * math.pi)
        models = [
            ForwardModel(column, HaarBoxDictionary(32, (1, 2))),
            ForwardModel(column, IdentityDictionary((32, 1))),
            ForwardModel(identity_kernel(), IdentityDictionary((8, 8))),
            ForwardModel(inverse_quadratic_kernel(2), SplineDictionary((24, 20), 3)),
            ForwardModel(inverse_quadratic_kernel(2), PatchDictionary(atoms, 2, (16, 16))),
        ]
        assert [type(m.blur) for m in models] == [ColumnFilter] * 2 + [FourierFilter] * 3
        assert all(np.all(m.v > 0) for m in models)


def _ownership_cases():
    """{name: (pass, input)} for every pass that must leave its input as it
    found it, on both blur kinds and every dictionary."""
    rng = np.random.default_rng(19)
    kernel2d = inverse_quadratic_kernel(2)
    column = gaussian_kernel_1d(0.2 * math.pi)
    spline = SplineDictionary((24, 20), 3)
    levels, blur = spline._filter, FourierFilter(kernel2d, (24, 20))
    cases = {
        "FourierFilter.adjoint": (blur.adjoint, rng.random((24, 20))),
        "FourierFilter.adjoint[levels]": (levels.adjoint, rng.random((24, 20))),
        "FourierFilter.adjoint[then]": (lambda y: levels.adjoint(y, blur), rng.random((24, 20))),
    }
    models = {
        "fused_spline": ForwardModel(kernel2d, spline),
        "patch": ForwardModel(kernel2d, PatchDictionary(rng.random((4, 4, 4)), 2, (16, 12))),
        "patch_stride_1": ForwardModel(kernel2d, PatchDictionary(rng.random((2, 3, 2)), 1, (6, 5))),
        "patch_column": ForwardModel(column, PatchDictionary(rng.random((2, 4, 1)), 1, (32, 1))),
        "haar": ForwardModel(column, HaarBoxDictionary(64)),
    }
    for name, m in models.items():
        d = m.dictionary
        cases[f"ForwardModel.adjoint[{name}]"] = (m.adjoint, rng.random(m.image_shape))
        cases[f"ForwardModel.evaluate[{name}]"] = (m.evaluate, rng.random(m.coeff_shape))
        if isinstance(d, PatchDictionary):
            cases[f"PatchDictionary.adjoint[{name}]"] = (d.adjoint, rng.random(d.image_shape))
            cases[f"PatchDictionary.synthesize[{name}]"] = (d.synthesize, rng.random(d.coeff_shape))
    return cases


@pytest.mark.parametrize("name", list(_ownership_cases()))
def test_passes_leave_their_input_untouched(name):
    """The operators read their input and never write it: only a solver
    step's documented `blurred=` buffer is ever overwritten."""
    fn, x = _ownership_cases()[name]
    before = x.copy()
    fn(x)
    assert x.tobytes() == before.tobytes()


@st.composite
def fused_cases(draw):
    """A spline model with 1-4 levels on a random shape (odd or even sides)
    under a random odd blur kernel, symmetric or not (an asymmetric kernel
    has a complex transfer function), with coefficients and an image."""
    n_levels = draw(st.integers(1, 4))
    least = len(spline_generator(n_levels - 1))
    rows, cols = draw(st.integers(least, least + 9)), draw(st.integers(least, least + 9))
    kr = draw(st.integers(0, min(3, (rows - 1) // 2))) * 2 + 1
    kc = draw(st.integers(0, min(3, (cols - 1) // 2))) * 2 + 1
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    taps = rng.random((kr, kc))
    if draw(st.booleans()):
        taps = (taps + taps[::-1, ::-1]) / 2.0
    model = ForwardModel(make_kernel(taps), SplineDictionary((rows, cols), n_levels))
    return model, rng.random(model.coeff_shape), rng.random(model.image_shape)


class TestFusedSplineModel:
    """A spline model under a 2-D blur evaluates A and A* in the DFT basis;
    checked against the direct ndimage spline passes and conv_forward."""

    @settings(max_examples=40, deadline=None)
    @given(fused_cases())
    def test_matches_direct_spline_then_blur(self, case):
        model, c, y = case
        generators, kernel = model.dictionary.generators, model.kernel
        tol = dict(rtol=1e-12, atol=1e-12)
        image, blurred = model.evaluate(c)
        direct = spline_synthesize_direct(c, generators)
        np.testing.assert_allclose(image, direct, **tol)
        np.testing.assert_allclose(blurred, conv_forward(kernel, direct), **tol)
        np.testing.assert_allclose(
            model.adjoint(y), spline_adjoint_direct(conv_adjoint(kernel, y), generators), **tol
        )
        # One definition of A: forward and synthesis give the pair's bits.
        np.testing.assert_array_equal(model.forward(c), blurred)
        np.testing.assert_array_equal(model.dictionary.synthesize(c), image)

    @settings(max_examples=40, deadline=None)
    @given(fused_cases())
    def test_adjoint_identity(self, case):
        model, c, y = case
        lhs, rhs = inner(model.forward(c), y), inner(c, model.adjoint(y))
        assert abs(lhs - rhs) <= 1e-13 * abs(lhs)

    def test_pair_filter_must_be_one_kernel_on_the_same_shape(self):
        d = SplineDictionary((16, 16), 2)
        for blur in (FourierFilter(ConvKernel(np.ones((3, 3))), (16, 18)), d._filter):
            with pytest.raises(ValueError, match="one kernel"):
                d.synthesize(np.ones(d.coeff_shape), blur)
            with pytest.raises(ValueError, match="one kernel"):
                d.adjoint(np.ones(d.image_shape), blur)


@st.composite
def filter_cases(draw):
    """A random image shape, a random odd kernel that fits it (symmetric or
    not), and the image and its adjoint-side partner."""
    rows = draw(st.integers(1, 24))
    cols = draw(st.integers(2, 24))
    kr = draw(st.integers(0, (rows - 1) // 2)) * 2 + 1
    kc = draw(st.integers(0, (cols - 1) // 2)) * 2 + 1
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    taps = rng.random((kr, kc))
    if draw(st.booleans()):
        taps = (taps + taps[::-1, ::-1]) / 2.0
    return taps, rng.random((rows, cols)), rng.random((rows, cols))


def _close(a, b):
    np.testing.assert_allclose(a, b, rtol=1e-13, atol=1e-13 * max(1.0, np.abs(b).max()))


def _transfer_cases():
    """{name: (kernel or list of kernels, image shape)} on odd, even and mixed
    image sizes: a symmetric blur, asymmetric taps (a complex transfer
    function), the spline levels that fit, and random taps as large as the
    image."""
    rng = np.random.default_rng(24)
    cases = {}
    for shape in [(5, 7), (24, 20), (100, 37), (511, 513), (512, 512)]:
        largest = tuple(n - 1 + n % 2 for n in shape)  # the largest odd sizes that fit
        name = "x".join(map(str, shape))
        half = min(7, (min(shape) - 1) // 2)
        cases[f"{name}-symmetric"] = (inverse_quadratic_kernel(half), shape)
        asymmetric = rng.random((min(9, largest[0]), min(5, largest[1])))
        cases[f"{name}-asymmetric"] = (ConvKernel(asymmetric), shape)
        levels = [np.outer(b, b) for b in spline_generators(4) if len(b) <= min(shape)]
        cases[f"{name}-spline"] = ([ConvKernel(k) for k in levels], shape)
        cases[f"{name}-image-size"] = (ConvKernel(rng.random(largest)), shape)
    return cases


def _assert_transfer_close(filt, kernels):
    """Each level's transfer function within 8 eps times its tap sum of the
    FFT of its taps wrapped onto the image grid, its imaginary part included."""
    taps = [k.taps for k in kernels]
    want = fft_transfer(taps, filt.image_shape)
    for got, w, k in zip(filt.transfer.reshape(want.shape), want, taps):
        assert np.abs(got - w).max() <= 8 * _EPS * k.sum()


class TestFourierFilter:
    """The transfer-function path against the direct ndimage passes."""

    @settings(max_examples=60, deadline=None)
    @given(filter_cases())
    @example((np.arange(1.0, 50.0).reshape(7, 7), np.ones((7, 9)), np.eye(7, 9)))
    @example((np.arange(1.0, 36.0).reshape(5, 7), np.ones((6, 7)), np.eye(6, 7)))
    def test_single_kernel_matches_direct(self, case):
        taps, x, y = case
        filt = FourierFilter(ConvKernel(taps), x.shape)
        symmetric = np.array_equal(taps, taps[::-1, ::-1])
        assert (filt.transfer.dtype.kind == "f") == symmetric
        _close(filt.forward(x), ndimage.convolve(x, taps, mode="wrap"))
        _close(filt.adjoint(y), ndimage.correlate(y, taps, mode="wrap"))
        lhs, rhs = inner(filt.forward(x), y), inner(x, filt.adjoint(y))
        assert abs(lhs - rhs) <= 1e-13 * max(1.0, abs(lhs))

    @settings(max_examples=30, deadline=None)
    @given(
        st.integers(15, 28), st.integers(15, 28), st.integers(1, 3),
        st.integers(0, 2**32 - 1),
    )
    def test_spline_levels_match_dictionary(self, rows, cols, n_levels, seed):
        """A levelled filter over the spline kernels, and the dictionary that
        owns one, against the direct separable passes."""
        rng = np.random.default_rng(seed)
        d = SplineDictionary((rows, cols), n_levels)
        filt = FourierFilter([ConvKernel(np.outer(b, b)) for b in d.generators], (rows, cols))
        c = rng.random(d.coeff_shape)
        y = rng.random(d.image_shape)
        for synthesize, adjoint in ((filt.forward, filt.adjoint), (d.synthesize, d.adjoint)):
            _close(synthesize(c), spline_synthesize_direct(c, d.generators))
            _close(adjoint(y), spline_adjoint_direct(y, d.generators))
        lhs, rhs = inner(filt.forward(c), y), inner(c, filt.adjoint(y))
        assert abs(lhs - rhs) <= 1e-13 * max(1.0, abs(lhs))

    @pytest.mark.parametrize("name", list(_transfer_cases()))
    def test_transfer_matches_the_fft_of_the_wrapped_taps(self, name):
        kernel, shape = _transfer_cases()[name]
        filt = FourierFilter(kernel, shape)
        kernels = kernel if isinstance(kernel, list) else [kernel]
        assert (filt.transfer.dtype.kind == "c") == name.endswith(("asymmetric", "image-size"))
        _assert_transfer_close(filt, kernels)

    def test_spline_levels_share_the_widest_tables(self):
        """J = 4 levels on 40 x 36: the narrower levels read slices of the
        31-tap level's tables, and level 2, whose taps are one ulp off
        symmetric, still gets a real transfer function."""
        d = SplineDictionary((40, 36), 4)
        kernels = [ConvKernel(np.outer(b, b)) for b in d.generators]
        assert not np.array_equal(kernels[2].taps, kernels[2].taps[::-1, ::-1])
        assert d._filter.transfer.dtype == np.float64 and d._filter.transfer.shape == (4, 40, 19)
        _assert_transfer_close(d._filter, kernels)

    def test_building_runs_no_fft(self, monkeypatch):
        """Building a filter, a spline dictionary or a 2-D model calls no
        np.fft function; with np.fft back, what was built blurs as
        conv_forward does."""

        def refuse(*args, **kwargs):
            raise AssertionError("np.fft called while building an operator")

        for name in np.fft.__all__:
            monkeypatch.setattr(np.fft, name, refuse)
        rng = np.random.default_rng(25)
        kernel = inverse_quadratic_kernel(3)
        filt = FourierFilter(kernel, (24, 20))
        spline = SplineDictionary((24, 20), 3)
        models = [
            ForwardModel(kernel, spline),
            ForwardModel(kernel, PatchDictionary(rng.random((3, 4, 4)), 2, (24, 20))),
        ]
        monkeypatch.undo()
        x = rng.random((24, 20))
        _close(filt.forward(x), conv_forward(kernel, x))
        c = rng.random(spline.coeff_shape)
        _close(spline.synthesize(c), spline_synthesize_direct(c, spline.generators))
        for m in models:
            image, blurred = m.evaluate(rng.random(m.coeff_shape))
            _close(blurred, conv_forward(kernel, image))

    def test_model_matches_direct_composition(self):
        rng = np.random.default_rng(40)
        kernel = make_kernel(rng.random((5, 3)))
        spline = SplineDictionary((16, 12), 2)
        patch = PatchDictionary(rng.random((3, 4, 4)), 2, (8, 12))
        # (dictionary, direct synthesis, direct adjoint); the patch passes are direct.
        cases = [
            (
                spline,
                lambda c: spline_synthesize_direct(c, spline.generators),
                lambda f: spline_adjoint_direct(f, spline.generators),
            ),
            (patch, patch.synthesize, patch.adjoint),
        ]
        for d, synthesize, adjoint in cases:
            m = ForwardModel(kernel, d)
            c = rng.random(m.coeff_shape)
            y = rng.random(m.image_shape)
            _close(m.forward(c), conv_forward(kernel, synthesize(c)))
            _close(m.adjoint(y), adjoint(conv_adjoint(kernel, y)))
            _close(m.v, adjoint(conv_adjoint(kernel, np.ones(m.image_shape))))

    def test_kernel_larger_than_image_rejected(self):
        with pytest.raises(ValueError, match="larger than image"):
            FourierFilter(ConvKernel(np.ones((5, 3))), (4, 8))

    @pytest.mark.parametrize("bad", [math.nan, -1.0])
    def test_nan_and_negative_taps_rejected(self, bad):
        """Raw taps meet ConvKernel's checks, alone or as one level of a list."""
        taps = np.ones((3, 3))
        taps[1, 2] = bad
        for kernel in (taps, [ConvKernel(np.ones((3, 3))), taps]):
            with pytest.raises(ValueError, match="finite and nonnegative"):
                FourierFilter(kernel, (8, 8))

    def test_input_shape_checked(self):
        filt = FourierFilter([ConvKernel(np.ones((3, 3)))] * 2, (6, 6))
        with pytest.raises(ValueError, match="does not match"):
            filt.forward(np.ones((6, 6)))
        with pytest.raises(ValueError, match="does not match"):
            filt.adjoint(np.ones((2, 6, 6)))


def dense_column_blur(taps, n):
    """Explicit n x n circulant matrix of conv_forward on an n x 1 column."""
    half = len(taps) // 2
    dense = np.zeros((n, n))
    for i in range(n):
        for t, w in enumerate(taps):
            dense[i, (i + half - t) % n] += w
    return dense


@st.composite
def column_cases(draw):
    """A random column length, an odd kernel no longer than it with some
    taps exactly zero, and a column for each side of the filter."""
    n = draw(st.integers(1, 40))
    k = draw(st.integers(0, (n - 1) // 2)) * 2 + 1
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    taps = rng.random(k) * (rng.random(k) < 0.7)
    return taps, rng.random((n, 1)), rng.random((n, 1))


class TestColumnFilter:
    """The N x 1 gather path against ndimage and a dense circulant matrix."""

    @settings(max_examples=60, deadline=None)
    @given(column_cases())
    @example((np.arange(1.0, 10.0), np.ones((9, 1)), np.eye(9, 1)))
    def test_matches_direct_and_dense(self, case):
        taps, x, y = case
        n = x.shape[0]
        filt = ColumnFilter(ConvKernel(taps[:, np.newaxis]), (n, 1))
        dense = dense_column_blur(taps, n)
        _close(filt.forward(x), ndimage.convolve(x, taps[:, np.newaxis], mode="wrap"))
        _close(filt.adjoint(y), ndimage.correlate(y, taps[:, np.newaxis], mode="wrap"))
        _close(filt.forward(x), dense @ x)
        _close(filt.adjoint(y), dense.T @ y)
        lhs, rhs = inner(filt.forward(x), y), inner(x, filt.adjoint(y))
        assert abs(lhs - rhs) <= 1e-13 * max(1.0, abs(lhs))

    @settings(max_examples=40, deadline=None)
    @given(column_cases(), st.integers(0, 2**16), st.sampled_from([1.0, np.inf]))
    def test_impulse_stays_in_its_footprint(self, case, where, value):
        taps, x, _ = case
        n = x.shape[0]
        filt = ColumnFilter(ConvKernel(taps[:, np.newaxis]), (n, 1))
        dense = dense_column_blur(taps, n)
        impulse = np.zeros((n, 1))
        impulse[where % n] = value
        _assert_impulse_confined(filt.forward(impulse)[:, 0], dense[:, where % n] > 0, value)
        _assert_impulse_confined(filt.adjoint(impulse)[:, 0], dense[where % n] > 0, value)

    def test_single_columns_get_the_column_filter(self):
        """N x 1 signals, alone or under a model, are blurred by a ColumnFilter
        and build no transfer function; wider images get a FourierFilter."""
        kernel = gaussian_kernel_1d(0.2 * math.pi)
        filt = blur_operator(kernel, (128, 1))
        assert isinstance(filt, ColumnFilter) and blur_operator(filt, (128, 1)) is filt
        assert isinstance(ForwardModel(kernel, HaarBoxDictionary(128)).blur, ColumnFilter)
        filt = blur_operator(kernel, (128, 2))
        assert isinstance(filt, FourierFilter) and blur_operator(filt, (128, 2)) is filt

    @pytest.mark.parametrize("bad", [math.nan, -1.0])
    def test_nan_and_negative_taps_rejected(self, bad):
        """Negative taps would blur a column of ones to -3."""
        with pytest.raises(ValueError, match="finite and nonnegative"):
            ColumnFilter(np.full((3, 1), bad), (8, 1))

    def test_bad_shapes_rejected(self):
        with pytest.raises(ValueError, match="larger than image"):
            ColumnFilter(ConvKernel(np.ones((5, 1))), (4, 1))
        with pytest.raises(ValueError, match="larger than image"):
            blur_operator(make_kernel(np.ones((3, 3))), (8, 1))
        with pytest.raises(ValueError, match="N x 1"):
            ColumnFilter(ConvKernel(np.ones((3, 1))), (8, 2))
        with pytest.raises(ValueError, match="does not match"):
            ColumnFilter(ConvKernel(np.ones((3, 1))), (8, 1)).forward(np.ones(8))


_EPS = np.finfo(np.float64).eps


@st.composite
def direct_cases(draw):
    """An image of 1-40 x 1-40 (N x 1 included) with negative entries and
    signed zeros, and an odd kernel up to the image's size whose taps mix
    ordinary values, exact zeros, taps at or below DBL_EPSILON (which
    ndimage leaves out) and taps just above it (which it keeps)."""
    rows, cols = draw(st.integers(1, 40)), draw(st.integers(1, 40))
    kr = draw(st.integers(0, (rows - 1) // 2)) * 2 + 1
    kc = draw(st.integers(0, (cols - 1) // 2)) * 2 + 1
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    special = np.array([0.0, _EPS / 2, _EPS, np.nextafter(_EPS, 1.0)])
    taps = np.where(rng.random((kr, kc)) < 0.3, rng.choice(special, (kr, kc)), rng.random((kr, kc)))
    x = rng.standard_normal((rows, cols))
    x[rng.random(x.shape) < 0.2] = 0.0
    x[rng.random(x.shape) < 0.2] = -0.0
    return taps, x


@st.composite
def correlate1d_cases(draw):
    """An image of 1-40 x 1-40, odd nonnegative weights, possibly longer
    than the image, and their kind: symmetric, one ulp off symmetric (where
    ndimage still takes its symmetric branch) or asymmetric (at least 3
    long, its end weights 1 apart)."""
    rows, cols = draw(st.integers(1, 40)), draw(st.integers(1, 40))
    kind = draw(st.sampled_from(["symmetric", "one ulp off", "asymmetric"]))
    length = draw(st.integers(1 if kind == "asymmetric" else 0, 20)) * 2 + 1
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    w = rng.random(length)
    if kind == "asymmetric":
        w[0] += 1.0
    else:
        w = (w + w[::-1]) / 2.0
    if kind == "one ulp off":
        k = draw(st.integers(0, length - 1))
        w[k] = np.nextafter(w[k], 2.0)
    x = rng.standard_normal((rows, cols))
    x[rng.random(x.shape) < 0.2] = -0.0
    return w, x, kind


def _same_bytes(a, b):
    assert a.shape == b.shape and a.dtype == b.dtype
    assert a.tobytes() == b.tobytes()


class TestDirectPassesMatchNdimage:
    """The numpy direct passes sum in ndimage's order, so every byte, signed
    zeros included, is ndimage's."""

    @settings(max_examples=150, deadline=None)
    @given(direct_cases())
    @example((np.arange(1.0, 10.0).reshape(3, 3), np.arange(-4.5, 4.0).reshape(3, 3)))
    @example((np.full((5, 1), _EPS), -np.zeros((5, 1))))
    def test_conv_forward_and_adjoint(self, case):
        taps, x = case
        kernel = ConvKernel(taps)
        _same_bytes(conv_forward(kernel, x), ndimage.convolve(x, taps, mode="wrap"))
        _same_bytes(conv_adjoint(kernel, x), ndimage.correlate(x, taps, mode="wrap"))

    @settings(max_examples=60, deadline=None)
    @given(direct_cases(), st.integers(0, 2**16))
    def test_inf_impulse_stays_in_its_footprint(self, case, where):
        taps, x = case
        kernel = ConvKernel(taps)
        impulse = np.zeros(x.shape)
        impulse.flat[where % x.size] = 1.0
        for direct, oracle in ((conv_forward, ndimage.convolve), (conv_adjoint, ndimage.correlate)):
            footprint = oracle(impulse, taps, mode="wrap") > 0.0
            out = direct(kernel, np.where(impulse > 0.0, np.inf, 0.0))
            _same_bytes(out, oracle(np.where(impulse > 0.0, np.inf, 0.0), taps, mode="wrap"))
            assert np.all(out[~footprint] == 0.0) and np.all(np.isposinf(out[footprint]))

    @settings(max_examples=150, deadline=None)
    @given(correlate1d_cases(), st.sampled_from([0, 1]))
    def test_correlate1d(self, case, axis):
        """Every spline generator is symmetric to DBL_EPSILON, so only
        ndimage's symmetric branch is kept; other weights raise."""
        w, x, kind = case
        if kind == "asymmetric":
            with pytest.raises(ValueError, match="symmetric"):
                _correlate1d(x, w, axis)
        else:
            _same_bytes(_correlate1d(x, w, axis), ndimage.correlate1d(x, w, axis=axis, mode="wrap"))


class TestDataPathKeepsExactZeros:
    """The data path stays direct: a single bright pixel leaves every value
    outside its footprint exactly zero (an FFT would leave round-off there,
    and the Poisson sampler draws differently for a zero and a 1e-17 mean)."""

    def test_conv_forward(self):
        rng = np.random.default_rng(41)
        kernel = make_kernel(rng.random((5, 3)))
        x = np.zeros((20, 16))
        x[3, 14] = 1.0
        out = conv_forward(kernel, x)
        footprint = np.zeros(x.shape, dtype=bool)
        footprint[np.ix_(np.arange(1, 6) % 20, np.arange(13, 16) % 16)] = True
        assert np.all(out[~footprint] == 0.0) and np.all(out[footprint] > 0.0)

    def test_spline_synthesize(self):
        """make_phantom synthesizes its spline part directly: outside the
        ellipse that holds the spline atoms, widened by the widest atom's
        half-width (the plateaus and the bar lie inside it), it is exactly 0,
        and its bytes are pinned."""
        digests = {
            (128, 128): "a904d819951ec28ffe0831e4a7ab29ae6450dea7f692d3de14ecf0560d69ee78",
            (64, 96): "5656eae82edf119fc6655b530400386896ca0add8c86b44a245c41bfd0a24722",
            (512, 512): "0177343688707c0362431acf05971ed4bebd073e9952768ae579c0d008d19ca2",
        }
        half = len(spline_generator(3)) // 2
        for (rows, cols), digest in digests.items():
            img = make_phantom(rows, cols)
            r, q = np.mgrid[0:rows, 0:cols]
            ellipse = ((r / rows - 0.5) / 0.38) ** 2 + ((q / cols - 0.5) / 0.40) ** 2 <= 1.0
            support = ndimage.maximum_filter(ellipse, size=2 * half + 1, mode="wrap")
            assert np.count_nonzero(~support) > 40
            assert np.all(img[~support] == 0.0)
            assert hashlib.sha256(img.tobytes()).hexdigest() == digest

    def test_haar_synthesize(self):
        d = HaarBoxDictionary(32, (1, 3))
        c = np.zeros(d.coeff_shape)
        c[32 + 30] = 1.0  # the width-8 box starting at pixel 30, wrapping to 5
        out = d.synthesize(c)
        footprint = np.zeros(d.image_shape, dtype=bool)
        footprint[np.arange(30, 38) % 32] = True
        assert np.all(out[~footprint] == 0.0) and np.all(out[footprint] > 0.0)
