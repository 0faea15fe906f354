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
    identity_kernel,
    inner,
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
    blur_operator,
    conv_adjoint,
    conv_forward,
    gaussian_kernel_1d,
    inverse_quadratic_kernel,
    make_kernel,
    spline_generator,
    spline_generators,
)
from poisson_deconv.simulate import make_phantom


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

    def test_normalized_flag_is_checked(self):
        with pytest.raises(ValueError):
            ConvKernel(taps=np.full((3, 1), 0.5), normalized=True)

    def test_normalization(self):
        k = make_kernel(np.array([1.0, 2.0, 1.0]))
        assert abs(k.taps.sum() - 1.0) < 1e-12
        assert k.normalized


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
            k = make_kernel(rng.random((5, 3)), normalize=False)
            lhs = inner(conv_forward(k, x), y)
            rhs = inner(x, conv_adjoint(k, y))
            bound = 1e-10 * np.linalg.norm(x) * np.linalg.norm(y)
            assert abs(lhs - rhs) < max(bound, 1e-12)

    def test_circular_shift_wraps(self):
        taps = np.zeros((3, 1))
        taps[2, 0] = 1.0  # shift down by one, wrapping the last row to the top
        k = ConvKernel(taps=taps, normalized=True)
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

    def test_coefficient_shape_checked(self):
        d = HaarBoxDictionary(16, (1, 2))
        with pytest.raises(ValueError):
            d.synthesize(np.ones(16))


class TestSplineGenerators:
    def test_scale_zero_is_unit_cubic_spline(self):
        b0 = spline_generator(0, normalized=False)
        np.testing.assert_allclose(b0, np.array([1.0, 4.0, 1.0]) / 6.0, rtol=1e-15)
        b0n = spline_generator(0)
        np.testing.assert_allclose(
            b0n, np.array([1.0, 4.0, 1.0]) / np.sqrt(18.0), rtol=1e-14
        )

    def test_lengths(self):
        assert [len(b) for b in spline_generators(4)] == [3, 7, 15, 31]

    def test_raw_mass_doubles_per_scale(self):
        """Unnormalized taps sum to 2^j (direct summation)."""
        for j in range(5):
            total = float(spline_generator(j, normalized=False).sum())
            assert abs(total - 2.0**j) < 1e-12 * 2.0**j

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


def patch_dense_matrix(atoms, stride, image_shape):
    """Column for coefficient (p, a): atom a scattered at patch p, divided
    by the overlap count, all built with explicit loops."""
    n_atoms, pr, pc = atoms.shape
    rows, cols = image_shape
    pos = [
        (r, c)
        for r in range(0, rows, stride)
        for c in range(0, cols, stride)
    ]
    overlap = np.zeros(image_shape)
    for r0, c0 in pos:
        for i in range(pr):
            for j in range(pc):
                overlap[(r0 + i) % rows, (c0 + j) % cols] += 1.0
    mat = np.zeros((rows * cols, len(pos) * n_atoms))
    for p, (r0, c0) in enumerate(pos):
        for a in range(n_atoms):
            img = np.zeros(image_shape)
            for i in range(pr):
                for j in range(pc):
                    img[(r0 + i) % rows, (c0 + j) % cols] += atoms[a, i, j]
            mat[:, p * n_atoms + a] = (img / overlap).ravel()
    return mat


class TestPatchDictionary:
    def _atoms(self, rng, n_atoms=8, size=4):
        return rng.random((n_atoms, size, size))

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

    def test_bad_stride_rejected(self):
        atoms = np.ones((2, 4, 4))
        with pytest.raises(ValueError):
            PatchDictionary(atoms, stride=3, image_shape=(8, 8))  # 3 does not divide 8
        with pytest.raises(ValueError):
            PatchDictionary(atoms, stride=8, image_shape=(8, 8))  # gaps in coverage

    def test_default_stride_is_half_patch(self):
        d = PatchDictionary(np.ones((2, 4, 4)), stride=None, image_shape=(8, 8))
        assert d.stride == 2


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


class TestFourierFilter:
    """The transfer-function path against the direct ndimage passes."""

    @settings(max_examples=60, deadline=None)
    @given(filter_cases())
    @example((np.arange(1.0, 50.0).reshape(7, 7), np.ones((7, 9)), np.eye(7, 9)))
    @example((np.arange(1.0, 36.0).reshape(5, 7), np.ones((6, 7)), np.eye(6, 7)))
    def test_single_kernel_matches_direct(self, case):
        taps, x, y = case
        filt = FourierFilter(taps, x.shape)
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
        filt = FourierFilter([np.outer(b, b) for b in d.generators], (rows, cols))
        c = rng.random(d.coeff_shape)
        y = rng.random(d.image_shape)
        for synthesize, adjoint in ((filt.forward, filt.adjoint), (d.synthesize, d.adjoint)):
            _close(synthesize(c), spline_synthesize_direct(c, d.generators))
            _close(adjoint(y), spline_adjoint_direct(y, d.generators))
        lhs, rhs = inner(filt.forward(c), y), inner(c, filt.adjoint(y))
        assert abs(lhs - rhs) <= 1e-13 * max(1.0, abs(lhs))

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
            FourierFilter(np.ones((5, 3)), (4, 8))

    def test_input_shape_checked(self):
        filt = FourierFilter([np.ones((3, 3))] * 2, (6, 6))
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


@st.composite
def levelled_column_cases(draw):
    """A random column length, 1-4 odd level kernels no longer than it with
    some taps exactly zero, J coefficient columns and an image column."""
    n = draw(st.integers(1, 40))
    n_levels = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kernels = []
    for _ in range(n_levels):
        k = draw(st.integers(0, (n - 1) // 2)) * 2 + 1
        kernels.append(rng.random(k) * (rng.random(k) < 0.7))
    return kernels, rng.random((n_levels, n, 1)), rng.random((n, 1))


class TestColumnFilter:
    """The N x 1 gather path against ndimage and a dense circulant matrix."""

    @settings(max_examples=60, deadline=None)
    @given(column_cases())
    @example((np.arange(1.0, 10.0), np.ones((9, 1)), np.eye(9, 1)))
    def test_matches_direct_and_dense(self, case):
        taps, x, y = case
        n = x.shape[0]
        filt = ColumnFilter(taps[:, np.newaxis], (n, 1))
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
        filt = ColumnFilter(taps[:, np.newaxis], (n, 1))
        dense = dense_column_blur(taps, n)
        impulse = np.zeros((n, 1))
        impulse[where % n] = value
        _assert_impulse_confined(filt.forward(impulse)[:, 0], dense[:, where % n] > 0, value)
        _assert_impulse_confined(filt.adjoint(impulse)[:, 0], dense[where % n] > 0, value)

    @settings(max_examples=60, deadline=None)
    @given(levelled_column_cases())
    def test_levels_match_direct_per_level(self, case):
        kernels, c, y = case
        n = y.shape[0]
        filt = ColumnFilter([k[:, np.newaxis] for k in kernels], (n, 1))
        assert filt.input_shape == c.shape
        direct = sum(
            ndimage.convolve(plane, k[:, np.newaxis], mode="wrap") for plane, k in zip(c, kernels)
        )
        _close(filt.forward(c), direct)
        correlations = [ndimage.correlate(y, k[:, np.newaxis], mode="wrap") for k in kernels]
        _close(filt.adjoint(y), np.stack(correlations))
        lhs, rhs = inner(filt.forward(c), y), inner(c, filt.adjoint(y))
        assert abs(lhs - rhs) <= 1e-13 * max(1.0, abs(lhs))

    @settings(max_examples=40, deadline=None)
    @given(levelled_column_cases(), st.integers(0, 2**16), st.sampled_from([1.0, np.inf]))
    def test_levels_keep_an_impulse_in_its_footprint(self, case, where, value):
        """An impulse in one level's coefficients stays in that kernel's
        footprint; an impulse in the image stays in each level's."""
        kernels, c, y = case
        n = y.shape[0]
        filt = ColumnFilter([k[:, np.newaxis] for k in kernels], (n, 1))
        dense = [dense_column_blur(k, n) for k in kernels]
        level, p = where % len(kernels), where % n
        impulse = np.zeros(c.shape)
        impulse[level, p] = value
        _assert_impulse_confined(filt.forward(impulse)[:, 0], dense[level][:, p] > 0, value)
        impulse = np.zeros(y.shape)
        impulse[p] = value
        footprint = np.stack([d[p] > 0 for d in dense])
        _assert_impulse_confined(filt.adjoint(impulse)[..., 0], footprint, value)

    def test_single_columns_get_the_column_filter(self):
        """N x 1 signals, alone or under a model, are blurred by a ColumnFilter
        and build no transfer function; wider images get a FourierFilter."""
        kernel = gaussian_kernel_1d(0.2 * math.pi)
        filt = blur_operator(kernel, (128, 1))
        assert isinstance(filt, ColumnFilter) and blur_operator(filt, (128, 1)) is filt
        assert isinstance(ForwardModel(kernel, HaarBoxDictionary(128)).blur, ColumnFilter)
        filt = blur_operator(kernel, (128, 2))
        assert isinstance(filt, FourierFilter) and blur_operator(filt, (128, 2)) is filt

    def test_bad_shapes_rejected(self):
        with pytest.raises(ValueError, match="larger than image"):
            ColumnFilter(np.ones((5, 1)), (4, 1))
        with pytest.raises(ValueError, match="larger than image"):
            blur_operator(make_kernel(np.ones((3, 3))), (8, 1))
        with pytest.raises(ValueError, match="N x 1"):
            ColumnFilter(np.ones((3, 1)), (8, 2))
        with pytest.raises(ValueError, match="does not match"):
            ColumnFilter(np.ones((3, 1)), (8, 1)).forward(np.ones(8))


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
