"""Elementwise algebra, division/log policies, inner products, and the
process's heap policy."""

import ctypes
import math
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

import poisson_deconv
from helpers import inner, weighted_l1
from poisson_deconv.core import (
    EPS_DIV,
    as_image,
    l1_norm,
    log_inner,
    safe_div,
)


class TestDivisionPolicy:
    def test_plain_ratio_and_zero_over_zero(self):
        """div([1,0],[2,0]) -> [0.5, 0]: zero numerators survive a zero denominator."""
        out = safe_div(np.array([1.0, 0.0]), np.array([2.0, 0.0]))
        np.testing.assert_array_equal(out, [0.5, 0.0])

    def test_positive_over_zero_hits_floor(self):
        out = safe_div(np.array([3.0]), np.array([0.0]))
        assert out[0] == 3.0 / EPS_DIV

    def test_nonzero_denominators_untouched(self):
        rng = np.random.default_rng(7)
        a = rng.random((5, 4))
        b = rng.random((5, 4)) + 0.1
        np.testing.assert_array_equal(safe_div(a, b), a / b)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            safe_div(np.ones(3), np.ones(4))

    def test_closure_on_nonnegative_inputs(self):
        """add/mul/scalar-mul/safe_div on nonnegative arrays stay nonnegative."""
        rng = np.random.default_rng(11)
        for _ in range(50):
            a = rng.random((6, 5)) * rng.choice([0.0, 1.0], size=(6, 5))
            b = rng.random((6, 5)) * rng.choice([0.0, 1.0], size=(6, 5))
            assert np.all(a + b >= 0)
            assert np.all(a * b >= 0)
            assert np.all(2.5 * a >= 0)
            assert np.all(safe_div(a, b) >= 0)


class TestElementwiseExamples:
    def test_mul(self):
        np.testing.assert_array_equal(
            np.array([1.0, 2.0]) * np.array([3.0, 4.0]), [3.0, 8.0]
        )

    def test_log_identity_points(self):
        np.testing.assert_allclose(np.log([1.0, math.e]), [0.0, 1.0], rtol=0, atol=1e-15)


class TestLogInner:
    def test_zero_weight_masks_zero_argument(self):
        """0 * log 0 = 0: masked entries contribute nothing."""
        g = np.array([0.0, 2.0])
        x = np.array([0.0, 1.0])
        assert log_inner(g, x) == 0.0

    def test_positive_weight_on_zero_is_minus_inf(self):
        assert log_inner(np.array([1.0]), np.array([0.0])) == -math.inf

    def test_matches_direct_sum(self):
        rng = np.random.default_rng(3)
        g = rng.random((4, 4))
        x = rng.random((4, 4)) + 0.5
        np.testing.assert_allclose(log_inner(g, x), np.sum(g * np.log(x)), rtol=1e-14)


class TestInnerProduct:
    def test_ones_with_ones(self):
        assert inner(np.ones((2, 2)), np.ones((2, 2))) == 4.0

    def test_pair(self):
        assert inner(np.array([1.0, 2.0]), np.array([3.0, 4.0])) == 11.0

    def test_inner_with_ones_is_l1_for_nonnegative(self):
        rng = np.random.default_rng(5)
        x = rng.random((7, 3))
        np.testing.assert_allclose(inner(x, np.ones_like(x)), l1_norm(x), rtol=1e-14)

    def test_symmetry_and_positivity(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            x = rng.normal(size=(5, 5))
            y = rng.normal(size=(5, 5))
            assert inner(x, y) == inner(y, x)
            assert inner(x, x) >= 0.0

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            inner(np.ones((2, 2)), np.ones((2, 3)))


class TestNorms:
    def test_l1_of_zeros(self):
        assert l1_norm(np.zeros(3)) == 0.0

    def test_weighted_example(self):
        assert weighted_l1(np.array([1.0, 2.0]), np.array([3.0, 1.0])) == 5.0

    def test_unit_weights_reduce_to_l1_exactly(self):
        rng = np.random.default_rng(13)
        for _ in range(25):
            c = rng.random(40)
            assert weighted_l1(c, np.ones_like(c)) == l1_norm(c)

    def test_negative_inputs_rejected(self):
        with pytest.raises(ValueError):
            l1_norm(np.array([-1.0]))
        with pytest.raises(ValueError):
            weighted_l1(np.array([1.0]), np.array([-1.0]))


class TestAsImage:
    def test_column_promotion(self):
        img = as_image([1.0, 2.0, 3.0])
        assert img.shape == (3, 1)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            as_image(np.array([[1.0, -0.5]]))

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            as_image(np.array([[np.nan]]))

    def test_3d_rejected(self):
        with pytest.raises(ValueError):
            as_image(np.zeros((2, 2, 2)))


@pytest.mark.skipif(
    not hasattr(ctypes.CDLL(None), "mallopt"), reason="glibc malloc thresholds only"
)
def test_freed_half_mib_arrays_reuse_heap_pages():
    """In a fresh interpreter that imports the package, rounds that allocate
    and free six 512 KiB arrays (a 128^2 spline SRL iteration's temporaries)
    reuse the same heap pages: with glibc's start thresholds each round
    maps or regrows them and faults them in again."""
    script = textwrap.dedent(
        """
        import resource
        import numpy as np
        import poisson_deconv
        def round_():
            arrays = [np.ones(1 << 16) for _ in range(6)]
            del arrays
        round_()
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        for _ in range(20):
            round_()
        print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
        """
    )
    src = os.path.dirname(os.path.dirname(poisson_deconv.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert int(done.stdout) < 100, f"{done.stdout.strip()} minor faults over 20 rounds"
