import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anderson_lab.errors import NonFinite
from anderson_lab.linalg import (
    anderson_coefficients,
    min_norm_lstsq,
    operator_norm_2,
    spectral_radius,
    stacked_anderson_coefficients,
)


class TestMinNormLstsq:
    def test_hand_oracle_tall_column(self):
        # normal equation x = -(R^T R)^-1 R^T rhs gives -1/2
        R = np.array([[1.0], [-1.0]])
        coeffs, info = min_norm_lstsq(R, np.array([1.0, 0.0]))
        assert coeffs.shape == (1,)
        assert abs(coeffs[0] - (-0.5)) < 1e-14
        assert info.numerical_rank == 1

    def test_zero_matrix_gives_zero(self):
        coeffs, info = min_norm_lstsq(np.zeros((3, 2)), np.array([1.0, 2.0, 3.0]))
        assert np.all(coeffs == 0.0)
        assert info.numerical_rank == 0
        assert info.tolerance_used > 0

    def test_identity(self):
        coeffs, _ = min_norm_lstsq(np.eye(2), np.array([3.0, 4.0]))
        np.testing.assert_allclose(coeffs, [-3.0, -4.0], atol=1e-14)

    def test_normal_equations_full_rank(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            R = rng.standard_normal((6, 3))
            rhs = rng.standard_normal(6)
            coeffs, info = min_norm_lstsq(R, rhs)
            assert info.numerical_rank == 3
            resid = R.T @ (R @ coeffs + rhs)
            bound = 1e-10 * operator_norm_2(R) * np.linalg.norm(rhs)
            assert np.linalg.norm(resid) <= bound

    def test_minimum_norm_in_rank_deficient_case(self):
        rng = np.random.default_rng(1)
        u = rng.standard_normal(4)
        R = np.outer(u, [1.0, 2.0, -1.0])  # rank 1, null space dim 2
        rhs = rng.standard_normal(4)
        coeffs, info = min_norm_lstsq(R, rhs)
        assert info.numerical_rank == 1
        _, _, Vt = np.linalg.svd(R)
        for w in Vt[1:]:
            assert np.linalg.norm(coeffs) <= np.linalg.norm(coeffs + w) + 1e-14

    def test_convexity_probe(self):
        rng = np.random.default_rng(2)
        R = rng.standard_normal((5, 3))
        rhs = rng.standard_normal(5)
        coeffs, _ = min_norm_lstsq(R, rhs)
        obj = np.linalg.norm(R @ coeffs + rhs)
        for _ in range(100):
            delta = rng.standard_normal(3)
            delta *= 1e-3 / np.linalg.norm(delta)
            assert obj <= np.linalg.norm(R @ (coeffs + delta) + rhs) + 1e-12

    def test_rejects_non_finite(self):
        with pytest.raises(NonFinite):
            min_norm_lstsq(np.array([[np.nan]]), np.array([1.0]))
        with pytest.raises(NonFinite):
            min_norm_lstsq(np.eye(2), np.array([np.inf, 0.0]))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            min_norm_lstsq(np.eye(2), np.array([1.0, 2.0, 3.0]))


class TestSpectralRadius:
    def test_upper_triangular(self):
        M = np.array([[2.0 / 3.0, 0.25], [0.0, 1.0 / 3.0]])
        assert abs(spectral_radius(M) - 2.0 / 3.0) < 1e-10

    def test_zero(self):
        assert spectral_radius(np.zeros((3, 3))) == 0.0

    def test_diagonal(self):
        assert abs(spectral_radius(np.diag([0.9, -0.9, 0.3])) - 0.9) < 1e-12

    def test_bounded_by_operator_norm(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            M = rng.standard_normal((4, 4))
            assert spectral_radius(M) <= operator_norm_2(M) + 1e-10


class TestOperatorNorm:
    def test_identity(self):
        assert abs(operator_norm_2(np.eye(5)) - 1.0) < 1e-14

    def test_diagonal(self):
        assert abs(operator_norm_2(np.diag([3.0, -4.0])) - 4.0) < 1e-14

    def test_nilpotent_shift(self):
        assert abs(operator_norm_2(np.array([[0.0, 1.0], [0.0, 0.0]])) - 1.0) < 1e-14


class TestAndersonCoefficients:
    def test_matches_lstsq_when_informative(self):
        rng = np.random.default_rng(4)
        R = rng.standard_normal((4, 2))
        r = rng.standard_normal(4)
        beta, info = anderson_coefficients(R, r)
        expected, _ = min_norm_lstsq(R, r)
        np.testing.assert_allclose(beta, expected, atol=1e-14)
        assert info.numerical_rank == 2

    def test_degenerate_columns_give_zero(self):
        r = np.array([1.0, -2.0])
        beta, info = anderson_coefficients(np.zeros((2, 3)), r)
        assert np.all(beta == 0.0)
        assert info.numerical_rank == 0

    def test_degeneracy_is_relative_to_residual(self):
        # columns tiny in absolute terms but large relative to r must be used
        scale = 1e-18
        R = scale * np.array([[1.0], [0.0]])
        r = scale * np.array([1.0, 1.0])
        beta, info = anderson_coefficients(R, r)
        assert info.numerical_rank == 1
        assert abs(beta[0] - (-1.0)) < 1e-12

    def test_empty_window(self):
        beta, info = anderson_coefficients(np.zeros((3, 0)), np.ones(3))
        assert beta.shape == (0,)
        assert info.numerical_rank == 0


def _mixed_stack(seed, S, n, m):
    """S slices of (R, r) cycling through random, repeated-column and zero-column R."""
    rng = np.random.default_rng(seed)
    scales = 10.0 ** rng.uniform(-8, 8, S)
    R = rng.standard_normal((S, n, m)) * scales[:, None, None]
    r = rng.standard_normal((S, n)) * scales[:, None]
    kind = np.arange(S) % 3
    R[kind == 1] = R[kind == 1][:, :, :1]  # every column equal: rank 1
    R[kind == 2] = 0.0                     # degenerate step: beta = 0
    return R, r


class TestStackedAndersonCoefficients:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), S=st.integers(1, 12),
           n=st.integers(1, 7), m=st.integers(1, 5),
           rank_tol_scale=st.sampled_from([1.0, 10.0]))
    def test_matches_2d_solve_per_slice(self, seed, S, n, m, rank_tol_scale):
        R, r = _mixed_stack(seed, S, n, m)
        coeffs, ranks = stacked_anderson_coefficients(R, r, rank_tol_scale=rank_tol_scale)
        assert coeffs.shape == (S, m) and ranks.shape == (S,)
        for i in range(S):
            expected, info = anderson_coefficients(R[i], r[i], rank_tol_scale=rank_tol_scale)
            assert ranks[i] == info.numerical_rank
            tol = 1e-14 * max(1.0, float(np.max(np.abs(expected), initial=0.0)))
            np.testing.assert_allclose(coeffs[i], expected, rtol=0, atol=tol)

    def test_kinds_give_expected_ranks(self):
        R, r = _mixed_stack(0, 6, 5, 3)
        _, ranks = stacked_anderson_coefficients(R, r)
        np.testing.assert_array_equal(ranks, [3, 1, 0, 3, 1, 0])

    def test_degeneracy_is_relative_to_residual(self):
        # tiny columns are used when r is as tiny, and dropped when r is not
        R = np.array([[[1e-18], [0.0]], [[1e-18], [0.0]]])
        r = np.array([[1e-18, 1e-18], [1.0, 1.0]])
        coeffs, ranks = stacked_anderson_coefficients(R, r)
        assert abs(coeffs[0, 0] + 1.0) < 1e-12 and ranks[0] == 1
        assert coeffs[1, 0] == 0.0 and ranks[1] == 0

    def test_empty_window(self):
        coeffs, ranks = stacked_anderson_coefficients(np.zeros((4, 3, 0)), np.ones((4, 3)))
        assert coeffs.shape == (4, 0)
        np.testing.assert_array_equal(ranks, 0)

    def test_rejects_non_finite_and_bad_shapes(self):
        R, r = _mixed_stack(1, 3, 2, 1)
        R[2, 0, 0] = np.nan
        with pytest.raises(NonFinite):
            stacked_anderson_coefficients(R, r)
        with pytest.raises(NonFinite):
            stacked_anderson_coefficients(np.zeros((1, 2, 1)), np.array([[np.inf, 0.0]]))
        with pytest.raises(ValueError):
            stacked_anderson_coefficients(np.zeros((2, 1)), np.zeros(2))
        with pytest.raises(ValueError):
            stacked_anderson_coefficients(np.zeros((2, 3, 1)), np.zeros((2, 2)))
