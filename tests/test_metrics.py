"""NMSE, SSIM, and trial averaging."""

import tracemalloc

import numpy as np
import pytest
from helpers import ssim_window_stack
from hypothesis import example, given, settings
from hypothesis import strategies as st

from poisson_deconv.metrics import MetricReport, average_trials, nmse, ssim


class TestNmse:
    def test_identity_is_zero(self):
        rng = np.random.default_rng(0)
        f = rng.random((8, 8))
        assert nmse(f, f) == 0.0

    def test_zero_estimate_is_one(self):
        rng = np.random.default_rng(1)
        f = rng.random((8, 8)) + 0.1
        assert abs(nmse(f, np.zeros_like(f)) - 1.0) < 1e-14

    def test_doubling_is_one(self):
        """||f - 2f||^2 = ||f||^2."""
        rng = np.random.default_rng(2)
        f = rng.random((8, 8))
        assert abs(nmse(f, 2.0 * f) - 1.0) < 1e-14

    def test_permutation_invariance(self):
        rng = np.random.default_rng(3)
        f = rng.random((6, 6))
        g = rng.random((6, 6))
        perm = rng.permutation(36)
        before = nmse(f, g)
        after = nmse(f.ravel()[perm].reshape(6, 6), g.ravel()[perm].reshape(6, 6))
        assert abs(before - after) < 1e-14

    def test_zero_truth_rejected(self):
        with pytest.raises(ValueError):
            nmse(np.zeros((4, 4)), np.ones((4, 4)))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            nmse(np.ones((4, 4)), np.ones((4, 5)))


class TestSsim:
    def test_identical_images_score_one(self):
        rng = np.random.default_rng(4)
        f = rng.random((32, 32)) * 100.0
        assert ssim(f, f) == 1.0

    def test_monotone_degradation(self):
        """More noise scores lower."""
        rng = np.random.default_rng(5)
        f = rng.random((32, 32)) * 10.0
        small = f + rng.uniform(0, 0.5, f.shape)
        large = f + rng.uniform(0, 5.0, f.shape)
        assert ssim(f, large) < ssim(f, small) < 1.0

    def test_symmetry(self):
        rng = np.random.default_rng(6)
        a = rng.random((24, 24))
        b = rng.random((24, 24))
        assert abs(ssim(a, b) - ssim(b, a)) < 1e-14

    def test_range(self):
        rng = np.random.default_rng(7)
        a = rng.random((16, 16))
        b = rng.random((16, 16))
        assert -1.0 <= ssim(a, b) <= 1.0

    def test_image_smaller_than_window_rejected(self):
        with pytest.raises(ValueError):
            ssim(np.ones((4, 4)), np.ones((4, 4)))

    @pytest.mark.parametrize("shape", [(64,), (9, 9, 9)])
    def test_non_2d_rejected(self, shape):
        with pytest.raises(ValueError, match="2-D"):
            ssim(np.ones(shape), np.ones(shape))

    def test_all_zero_pair(self):
        assert ssim(np.zeros((16, 16)), np.zeros((16, 16))) == 1.0


@st.composite
def ssim_pairs(draw):
    """Two images of 8-60 x 8-60, exactly 8 wide or high half the time
    each way, each random with values spread over 1e-3..1e4, random with
    many exact zeros, constant, or all zero."""
    rows = draw(st.one_of(st.just(8), st.integers(8, 60)))
    cols = draw(st.one_of(st.just(8), st.integers(8, 60)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def image(kind):
        if kind == "zero":
            return np.zeros((rows, cols))
        if kind == "constant":
            return np.full((rows, cols), 10.0 ** rng.uniform(-3, 4))
        x = rng.random((rows, cols)) * 10.0 ** rng.uniform(-3, 4, (rows, cols))
        if kind == "sparse":
            x[rng.random(x.shape) < 0.6] = 0.0
        return x

    kinds = st.sampled_from(["random", "sparse", "constant", "zero"])
    return image(draw(kinds)), image(draw(kinds))


def _random_pair(rows, cols, seed=0):
    return tuple(np.random.default_rng(seed).random((2, rows, cols)) * 100.0)


class TestSsimWindowSums:
    """metrics.ssim adds in the order of numpy's mean over a stack of
    sliding windows, so its score is the stack's to the last bit."""

    @settings(max_examples=300, deadline=None)
    @given(ssim_pairs())
    @example(_random_pair(8, 8))
    @example(_random_pair(8, 60))
    @example(_random_pair(60, 8))
    @example((np.zeros((9, 8)), np.full((9, 8), 3.0)))
    def test_matches_window_stack_bitwise(self, pair):
        a, b = pair
        assert ssim(a, b).hex() == ssim_window_stack(a, b).hex()

    def test_256_call_peaks_below_6_mib(self):
        """About 8 image-sized arrays (0.5 MiB each), where a window stack
        holds 64 copies of the image per moment (32.6 MiB traced)."""
        a, b = _random_pair(256, 256, seed=9)
        tracemalloc.start()
        try:
            ssim(a, b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6 * 2**20, f"{peak / 2**20:.1f} MiB"


class TestAverageTrials:
    def test_singleton(self):
        assert average_trials([3.0]) == (3.0, 0.0)

    def test_constant_list(self):
        assert average_trials([1.0, 1.0, 1.0, 1.0]) == (1.0, 0.0)

    def test_two_values(self):
        mean, err = average_trials([0.0, 2.0])
        assert mean == 1.0 and err == 1.0

    def test_order_independent(self):
        rng = np.random.default_rng(8)
        vals = list(rng.random(500) * 1e6)
        m1, _ = average_trials(vals)
        m2, _ = average_trials(vals[::-1])
        assert abs(m1 - m2) < 1e-12 * abs(m1)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            average_trials([])


class TestMetricReport:
    def test_csv_row(self):
        r = MetricReport("srl", 20, 0.007, 0.0001, 0.89, 0.002, oracle=False)
        row = r.csv_row()
        assert row.startswith("srl,20,0.007,0.0001,0.89,0.002,false")

    def test_blank_ssim_fields(self):
        r = MetricReport("rl", 50, 0.03, 0.001, None, None, oracle=True)
        assert r.csv_row() == "rl,50,0.03,0.001,,,true"
