"""Power-map and phrase-composition behavior.

Covers the exact identity at exponent 1, oddness, scaling, frozen
reference values, Jacobian-vs-finite-difference agreement, and the
bitwise mean identity of uniform composition.
"""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from phrasegram.composition import (
    CompositionConfig,
    compose_rows,
    sigma,
    sigma_jacobian_diag,
)

# frozen 40-digit mpmath evaluations of 0.5**1.5 and 1.5 * 0.5**0.5
PHI_HALF_1P5 = 0.3535533905932737622
PHI_PRIME_HALF_1P5 = 1.0606601717798212866


def power(x: float, alpha: float) -> float:
    """sigma at one point, as a Python float."""
    return float(sigma(np.array([x]), alpha)[0])


def power_prime(x: float, alpha: float) -> float:
    return float(sigma_jacobian_diag(np.array([x]), alpha)[0])


class TestPowerMap:
    def test_identity_at_one_is_exact(self):
        rng = np.random.default_rng(7)
        for x in rng.normal(size=100):
            assert power(x, 1.0) == x

    def test_square_values(self):
        assert power(2.0, 2.0) == 4.0
        assert power(-2.0, 2.0) == -4.0
        assert power(-1.7, 2.0) == pytest.approx(-2.89, rel=1e-15)
        assert power(0.0, 2.0) == 0.0

    def test_frozen_fractional_exponent(self):
        assert power(0.5, 1.5) == pytest.approx(PHI_HALF_1P5, rel=1e-15)
        assert power(-0.5, 1.5) == pytest.approx(-PHI_HALF_1P5, rel=1e-15)
        assert power_prime(0.5, 1.5) == pytest.approx(PHI_PRIME_HALF_1P5, rel=1e-15)

    def test_derivative_at_zero(self):
        assert power_prime(0.0, 1.0) == 1.0
        assert power_prime(0.0, 2.0) == 0.0
        assert power_prime(0.0, 1.5) == 0.0

    @given(
        st.floats(min_value=-100.0, max_value=100.0),
        st.sampled_from([1.0, 1.5, 2.0, 3.0]),
    )
    def test_oddness(self, x, alpha):
        assert power(-x, alpha) == -power(x, alpha)

    @given(
        st.floats(min_value=0.01, max_value=50.0),
        st.floats(min_value=0.1, max_value=4.0),
        st.sampled_from([1.0, 1.5, 2.0]),
    )
    def test_positive_scaling(self, x, scale, alpha):
        # sigma(s*x) = s**alpha * sigma(x) for s > 0
        assert math.isclose(
            power(scale * x, alpha), scale**alpha * power(x, alpha), rel_tol=1e-12
        )


class TestSigma:
    def test_alpha_one_copies_bitwise(self):
        rng = np.random.default_rng(11)
        v = rng.normal(size=64)
        out = sigma(v, 1.0)
        assert np.array_equal(out, v)
        out[0] = 999.0  # must be a copy, not a view
        assert v[0] != 999.0

    def test_oddness_on_random_vectors(self):
        rng = np.random.default_rng(13)
        for alpha in (1.0, 1.5, 2.0):
            for _ in range(1000):
                v = rng.normal(size=8) * rng.choice([0.01, 1.0, 100.0])
                np.testing.assert_array_equal(sigma(-v, alpha), -sigma(v, alpha))

    def test_matches_scalar_map(self):
        rng = np.random.default_rng(17)
        v = rng.normal(size=20)
        for alpha in (1.0, 1.5, 2.0):
            expected = np.array([math.copysign(abs(x) ** alpha, x) for x in v])
            np.testing.assert_allclose(sigma(v, alpha), expected, rtol=1e-15)

    def test_jacobian_matches_finite_difference(self):
        rng = np.random.default_rng(19)
        eps = 1e-5
        for alpha in (1.0, 1.5, 2.0):
            for _ in range(50):
                # stay away from the |x| -> 0 kink of the alpha > 1 derivative
                v = rng.uniform(0.1, 1.5, size=6) * rng.choice([-1.0, 1.0], size=6)
                numeric = (sigma(v + eps, alpha) - sigma(v - eps, alpha)) / (2 * eps)
                analytic = sigma_jacobian_diag(v, alpha)
                err = np.abs(analytic - numeric) / np.maximum(np.abs(numeric), 1e-12)
                assert err.max() < 1e-4

    def test_jacobian_at_alpha_one_is_ones(self):
        v = np.array([-3.0, 0.0, 5.0])
        np.testing.assert_array_equal(sigma_jacobian_diag(v, 1.0), np.ones(3))


class TestUniformComposition:
    def test_mean_identity_bitwise_at_alpha_one(self):
        rng = np.random.default_rng(23)
        for n in (1, 2, 3, 5, 9):
            matrix = rng.normal(size=(n, 12))
            composed = compose_rows(matrix, list(range(n)), 1.0)
            w = 1.0 / n
            expected = w * matrix[0].copy()
            for v in matrix[1:]:
                expected += w * v
            assert np.array_equal(composed, expected)

    def test_close_to_numpy_mean(self):
        rng = np.random.default_rng(29)
        matrix = rng.normal(size=(7, 30))
        composed = compose_rows(matrix, list(range(7)), 1.0)
        np.testing.assert_allclose(composed, matrix.mean(axis=0), rtol=1e-13)

    def test_singleton_is_sigma(self):
        rng = np.random.default_rng(31)
        matrix = rng.normal(size=(1, 10))
        for alpha in (1.0, 2.0):
            np.testing.assert_array_equal(
                compose_rows(matrix, [0], alpha), sigma(matrix[0], alpha)
            )

    def test_compose_rows_matches_left_to_right_sum(self):
        rng = np.random.default_rng(37)
        matrix = rng.normal(size=(8, 6))
        ids = [3, 1, 3, 7]
        for alpha in (1.0, 1.5):
            expected = 0.25 * sigma(matrix[3], alpha)
            for i in ids[1:]:
                expected += 0.25 * sigma(matrix[i], alpha)
            assert np.array_equal(compose_rows(matrix, ids, alpha), expected)

    def test_weights_sum_to_one(self):
        # n copies of one row compose back to that row, up to n roundings
        row = np.array([[1.0, -2.0, 0.5]])
        for n in range(1, 12):
            np.testing.assert_allclose(
                compose_rows(row, [0] * n, 1.0), row[0], rtol=n * np.finfo(float).eps
            )

    def test_permutation_invariance_up_to_rounding(self):
        rng = np.random.default_rng(41)
        matrix = rng.normal(size=(4, 16))
        a = compose_rows(matrix, [0, 1, 2, 3], 1.5)
        b = compose_rows(matrix, [3, 2, 1, 0], 1.5)
        np.testing.assert_allclose(a, b, rtol=1e-12)


class TestValidation:
    def test_empty_phrase_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            compose_rows(np.zeros((2, 3)), [], 1.0)

    def test_alpha_below_one_rejected(self):
        with pytest.raises(ValueError, match="alpha"):
            CompositionConfig(alpha=0.5)
