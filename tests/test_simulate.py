"""Signal synthesis, Poisson sampling, SNR scaling, and trial streams."""

import math
import tracemalloc

import numpy as np
import pytest

from helpers import poisson_gof_pvalue
from poisson_deconv.operators import (
    ForwardModel,
    HaarBoxDictionary,
    SplineDictionary,
    conv_forward,
    gaussian_kernel_1d,
    inverse_quadratic_kernel,
)
from poisson_deconv.simulate import (
    make_phantom,
    poisson_sample,
    rng_for_trial,
    scale_to_snr,
    snr_db,
    synth_sparse_signal,
)


class TestPoissonSampler:
    def test_zero_intensity_gives_zero(self):
        rng = np.random.default_rng(0)
        out = poisson_sample(np.zeros((50, 50)), rng)
        assert np.all(out == 0.0)

    def test_sample_mean_at_seven(self):
        """Mean of 1e5 draws at intensity 7 lands within +-0.05."""
        rng = np.random.default_rng(1)
        draws = poisson_sample(np.full((100000, 1), 7.0), rng)
        assert abs(draws.mean() - 7.0) < 0.05

    def test_variance_matches_mean_at_32(self):
        rng = np.random.default_rng(2)
        draws = poisson_sample(np.full((100000, 1), 32.0), rng)
        assert abs(draws.var() - 32.0) < 0.05 * 32.0

    def test_integer_valued_floats(self):
        rng = np.random.default_rng(3)
        out = poisson_sample(np.full((100, 100), 3.7), rng)
        assert out.dtype == np.float64
        np.testing.assert_array_equal(out, np.round(out))

    def test_negative_intensity_rejected(self):
        with pytest.raises(ValueError):
            poisson_sample(np.array([[-1.0]]), np.random.default_rng(0))

    def test_goodness_of_fit_smoke(self):
        """Chi-square GOF at intensity 5 (full sweep lives in acceptance)."""
        rng = np.random.default_rng(4)
        draws = poisson_sample(np.full(100000, 5.0), rng)
        assert poisson_gof_pvalue(draws, 5.0) > 0.001


class TestSparseSignalSynthesis:
    def _setup(self):
        kernel = gaussian_kernel_1d(0.2 * math.pi)
        dictionary = HaarBoxDictionary(128, (2, 3, 4, 5))
        return kernel, dictionary

    def test_support_size_range(self):
        """1.5-3% of 512 coefficients: between 8 and 15 nonzeros."""
        kernel, dictionary = self._setup()
        for t in range(30):
            c, _ = synth_sparse_signal(dictionary, kernel, 256.0, rng_for_trial(5, t))
            k = np.count_nonzero(c)
            assert 8 <= k <= 15

    def test_blurred_peak_hits_target(self):
        kernel, dictionary = self._setup()
        c, f = synth_sparse_signal(dictionary, kernel, 256.0, rng_for_trial(6, 0))
        blurred = conv_forward(kernel, f)
        assert abs(blurred.max() - 256.0) < 1e-12 * 256.0

    def test_unblurred_peak_mode(self):
        kernel, dictionary = self._setup()
        _, f = synth_sparse_signal(
            dictionary, kernel, 32.0, rng_for_trial(6, 1), scale_blurred=False
        )
        assert abs(f.max() - 32.0) < 1e-12 * 32.0

    def test_signal_exactly_representable(self):
        """f_true is bit-identical to synthesizing its own coefficients."""
        kernel, dictionary = self._setup()
        c, f = synth_sparse_signal(dictionary, kernel, 256.0, rng_for_trial(7, 0))
        np.testing.assert_array_equal(f, dictionary.synthesize(c))
        assert np.all(c >= 0) and np.all(f >= 0)

    def test_spline_signal_exactly_zero_off_its_footprint(self):
        """One coefficient on a 2-level spline dictionary: the signal is
        positive on the atom's square footprint and exactly 0 elsewhere, so
        the Poisson draws there are exact zeros too."""
        dictionary = SplineDictionary((24, 20), 2)
        c, f = synth_sparse_signal(
            dictionary, inverse_quadratic_kernel(2), 50.0, rng_for_trial(3, 0),
            fraction_range=(0.001, 0.001),
        )
        (level, r, q), = np.argwhere(c)
        half = len(dictionary.generators[level]) // 2
        footprint = np.zeros(f.shape, dtype=bool)
        rows = np.arange(r - half, r + half + 1) % 24
        cols = np.arange(q - half, q + half + 1) % 20
        footprint[np.ix_(rows, cols)] = True
        assert np.all(f[~footprint] == 0.0) and np.all(f[footprint] > 0.0)

    def test_values_in_unit_interval_before_scaling(self):
        kernel, dictionary = self._setup()
        c, f = synth_sparse_signal(dictionary, kernel, 256.0, rng_for_trial(8, 0))
        vals = c[c > 0]
        assert np.all(vals > 0)

    def test_zero_support_rejected(self):
        kernel, dictionary = self._setup()
        with pytest.raises(ValueError):
            synth_sparse_signal(
                dictionary, kernel, 256.0, rng_for_trial(9, 0),
                fraction_range=(1e-6, 1e-6),
            )

    def test_fraction_cap_rejected(self):
        kernel, dictionary = self._setup()
        with pytest.raises(ValueError):
            synth_sparse_signal(
                dictionary, kernel, 256.0, rng_for_trial(9, 0),
                fraction_range=(0.05, 0.2),
            )


class TestSnrScaling:
    def test_flat_image_closed_form(self):
        """A flat image at 15 dB must sit at 10^(15/10) ~ 31.62 counts."""
        flat = np.full((20, 20), 3.0)
        scaled = scale_to_snr(flat, 15.0)
        np.testing.assert_allclose(scaled, 10.0 ** 1.5, rtol=1e-12)
        assert abs(snr_db(scaled) - 15.0) < 1e-12

    def test_doubling_adds_three_db(self):
        rng = np.random.default_rng(10)
        f = rng.random((16, 16)) + 0.1
        assert abs(snr_db(2.0 * f) - snr_db(f) - 10.0 * math.log10(2.0)) < 1e-10

    def test_output_nonnegative_and_exact(self):
        rng = np.random.default_rng(11)
        f = rng.random((8, 8))
        scaled = scale_to_snr(f, 12.5)
        assert np.all(scaled >= 0)
        assert abs(snr_db(scaled) - 12.5) < 1e-10

    def test_zero_image_rejected(self):
        with pytest.raises(ValueError):
            scale_to_snr(np.zeros((4, 4)), 15.0)


class TestTrialStreams:
    def test_same_key_same_stream(self):
        a = rng_for_trial(123, 7).random(1000)
        b = rng_for_trial(123, 7).random(1000)
        np.testing.assert_array_equal(a, b)

    def test_adjacent_trials_uncorrelated(self):
        """|corr| < 0.01 between trial streams over 1e5 uniforms."""
        a = rng_for_trial(123, 0).random(100000)
        b = rng_for_trial(123, 1).random(100000)
        rho = np.corrcoef(a, b)[0, 1]
        assert abs(rho) < 0.01

    def test_different_seeds_differ(self):
        a = rng_for_trial(1, 0).random(10)
        b = rng_for_trial(2, 0).random(10)
        assert not np.array_equal(a, b)

    def test_negative_trial_rejected(self):
        with pytest.raises(ValueError):
            rng_for_trial(1, -1)


class TestPhantom:
    def test_properties(self):
        img = make_phantom(128, 128)
        assert img.shape == (128, 128)
        assert np.all(img >= 0)
        assert img.max() > img.min()

    def test_deterministic(self):
        np.testing.assert_array_equal(make_phantom(64, 64), make_phantom(64, 64))

    def test_usable_in_forward_model(self):
        from poisson_deconv.operators import inverse_quadratic_kernel

        img = make_phantom(64, 64)
        blurred = conv_forward(inverse_quadratic_kernel(), img)
        assert np.all(blurred >= 0)

    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            make_phantom(16, 16)

    def test_dark_background_and_sharp_edges(self):
        """Dark background plus a plateau whose boundary is a clean jump."""
        img = make_phantom(128, 128)
        assert np.quantile(img, 0.1) < 0.05 * img.max()
        inside = img[91, 70:100]  # first row inside the bar plateau
        outside = img[88, 70:100]  # two rows above its edge
        assert (inside - outside).mean() > 0.25 * img.max()

    def test_256_call_peaks_below_4_5_mib(self):
        """One level plane at a time, with masks from open grids: 3.7 MiB
        traced (0.5 MiB per image-sized array), where a four-plane
        coefficient stack and full index grids took 5.2 MiB."""
        tracemalloc.start()
        try:
            make_phantom(256, 256)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4.5 * 2**20, f"{peak / 2**20:.2f} MiB"
