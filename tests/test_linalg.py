import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anderson_lab import linalg
from anderson_lab.errors import NonFinite, SingularA
from anderson_lab.linalg import (
    _stacked_solve,
    anderson_coefficients,
    check_nonsingular,
    min_norm_lstsq,
    operator_norm_2,
    rank_tolerance,
    spectral_radius,
)

EPS = np.finfo(float).eps


class TestRankTolerance:
    def test_scales_with_the_larger_dimension_and_sigma_max(self):
        assert rank_tolerance(3, 5, 2.0) == (5 * EPS) * 2.0
        np.testing.assert_array_equal(rank_tolerance(200, 3, np.array([1.0, 0.5, 0.0])),
                                      [200 * EPS, 100 * EPS, 200 * EPS])

    def test_zero_sigma_max_falls_back_to_the_scale(self):
        assert rank_tolerance(4, 2, 0.0) == 4 * EPS

    def test_min_norm_lstsq_cuts_at_it(self):
        s = np.array([1.0, 2.0 * EPS, 3.0 * EPS])  # 2 x 3: the cut-off is 3 eps
        coeffs, info = min_norm_lstsq(np.diag(s)[:2], np.ones(2))
        assert info.numerical_rank == 1 and info.tolerance_used == 3 * EPS
        np.testing.assert_array_equal(coeffs, [-1.0, 0.0, 0.0])


class TestChunks:
    @settings(max_examples=200, deadline=None)
    @given(rows=st.integers(0, 3000), floats_per_row=st.integers(1, 2 * linalg.CHUNK_FLOATS))
    def test_slices_cover_the_rows_once_in_order(self, rows, floats_per_row):
        slices = linalg.chunks(rows, floats_per_row)
        assert [i for s in slices for i in range(rows)[s]] == list(range(rows))
        size = max(1, linalg.CHUNK_FLOATS // floats_per_row)
        assert all(0 < s.stop - s.start <= size for s in slices)

    def test_no_rows_give_no_slice(self):
        assert linalg.chunks(0, 1) == [] and linalg.chunks(0, 10 * linalg.CHUNK_FLOATS) == []


class TestCheckNonsingular:
    @pytest.mark.parametrize("s_max", [0.5, 1e4])
    def test_raises_at_the_threshold_and_passes_one_ulp_above(self, s_max):
        # sigma_min <= 1e-12 * max(sigma_max, 1) is singular
        threshold = 1e-12 * max(s_max, 1.0)
        with pytest.raises(SingularA, match=r"^A = I - M is numerically singular \(sigma_min = "):
            check_nonsingular(np.diag([s_max, threshold]))
        above = np.nextafter(threshold, np.inf)
        np.testing.assert_array_equal(check_nonsingular(np.diag([s_max, above])),
                                      [s_max, above])


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

    def test_non_square_raises(self):
        with pytest.raises(ValueError, match="square matrix"):
            spectral_radius(np.zeros((2, 3)))

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


def _cut(n, m, r):
    """The degenerate-step cut-off of a slice, max(n, m) eps ||r||, as the stacked solve takes it."""
    return max(n, m) * EPS * np.sqrt(np.vecdot(r, r))


def _largest_column_norm(R):
    return np.max(np.linalg.norm(R, axis=0))


def _largest_singular_value(R):
    return np.linalg.svd(R[None], full_matrices=False)[1][0, 0]


def _slice_at_ratio(rng, n, m, measure, ratio, ulps=None):
    """(R, r) with measure(R) at ratio * cut(r), or exactly ulps ulps from it as floats compute it.

    r is a random direction u scaled by t = measure(R) / (ratio * cut(u)).
    For an exact target, t walks in steps of one ulp, and R and u are
    redrawn, until the product lands on it (a product with ratio skips some
    floats, so a given R may have no r).
    """
    for _ in range(50):
        R = rng.standard_normal((n, m))
        value = measure(R)
        u = rng.standard_normal(n)
        t = value / (ratio * _cut(n, m, u))
        if ulps is None:
            return R, t * u
        for step in range(-64, 65):
            scale = t
            for _ in range(abs(step)):
                scale = np.nextafter(scale, np.inf * step)
            target = ratio * _cut(n, m, scale * u)
            for _ in range(abs(ulps)):
                target = np.nextafter(target, np.inf * ulps)
            if value == target:
                return R, scale * u
    raise AssertionError(f"no slice at {ratio} cut {ulps:+d} ulps")


def _screening_band(seed, n, m):
    """Slices around the two thresholds of the degenerate-step rule, one R and r each.

    Their largest column norm lies at 0.5, 1 (exactly, and 1 ulp either
    side), 1.5, 2 sqrt(m) (exactly, and 1 ulp either side) and 3 sqrt(m)
    times the cut-off; their largest singular value at 2 sqrt(m) times it
    (exactly, and 1 ulp either side).
    """
    rng = np.random.default_rng(seed)
    band = [(_largest_column_norm, ratio, ulps)
            for ratio, ulps in ((0.5, None), (1.0, -1), (1.0, 0), (1.0, 1), (1.5, None),
                                (2.0 * np.sqrt(m), -1), (2.0 * np.sqrt(m), 0),
                                (2.0 * np.sqrt(m), 1), (3.0 * np.sqrt(m), None))]
    band += [(_largest_singular_value, 2.0 * np.sqrt(m), ulps) for ulps in (-1, 0, 1)]
    slices = [_slice_at_ratio(rng, n, m, *spec) for spec in band]
    return np.array([R for R, _ in slices]), np.array([r for _, r in slices])


def _assert_slices_match_2d_solve(R, r, solve=_stacked_solve):
    """Stacked-solve (R, r) with solve; assert each slice equals the 2-D solve bit for bit.

    The rank and the signs of zeros must match too.
    """
    coeffs, ranks = solve(R, r)
    for i in range(len(R)):
        expected, info = anderson_coefficients(R[i], r[i])
        assert ranks[i] == info.numerical_rank
        np.testing.assert_array_equal(coeffs[i], expected)
        np.testing.assert_array_equal(np.signbit(coeffs[i]), np.signbit(expected))
    return coeffs, ranks


class TestStackedAndersonCoefficients:
    """The stacked solve gives each slice the 2-D anderson_coefficients, bit for bit."""

    @pytest.mark.parametrize("n", [2, 200])
    @pytest.mark.parametrize("m", range(1, 7))
    def test_screening_band_matches_2d_solve(self, n, m):
        R, r = _screening_band(1000 * n + m, n, m)
        # the stack as a whole, each slice alone, and the slices below the cut-off alone
        stacks = [np.arange(len(R))] + [[i] for i in range(len(R))] + [[0, 1, 2]]
        for idx in stacks:
            _assert_slices_match_2d_solve(R[idx], r[idx])
        # the rule drops slices 0-2 (at most the cut-off) and keeps the rest
        _, ranks = _stacked_solve(R, r)
        assert np.all(ranks[:3] == 0) and np.all(ranks[3:] == min(n, m))

    @pytest.mark.parametrize("n,m", [(2, 1), (2, 3), (200, 1), (200, 6)])
    @pytest.mark.parametrize("scale", [1e-163, 1e-160, 1e-155, 1e-150, 1e-145, 1e-140, 1e-130])
    def test_underflow_range_matches_2d_solve(self, n, m, scale):
        # below ~1.5e-154 the squares in the column norms underflow, and below
        # ~1e-162 they flush to 0; the SVD, which rescales, does neither
        rng = np.random.default_rng(n + m)
        R = scale * rng.standard_normal((4, n, m))
        r = scale * rng.standard_normal((4, n)) * np.array([[1.0], [1e-3], [1e3], [0.0]])
        _assert_slices_match_2d_solve(R, r)

    def test_flushed_column_norms_give_a_degenerate_step(self):
        # the column norm computes to 0 <= cut, although ||R||_2 is 1.4e-163 > 0
        R = np.full((1, 2, 1), 1e-163)
        r = np.full((1, 2), 1e-163)
        coeffs, ranks = _stacked_solve(R, r)
        assert ranks[0] == 0 and coeffs[0, 0] == 0.0
        _assert_slices_match_2d_solve(R, r)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), S=st.integers(1, 12),
           n=st.integers(1, 7), m=st.integers(1, 6))
    def test_matches_2d_solve_per_slice(self, seed, S, n, m):
        R, r = _mixed_stack(seed, S, n, m)
        coeffs, ranks = _assert_slices_match_2d_solve(R, r)
        assert coeffs.shape == (S, m) and ranks.shape == (S,)

    def test_kinds_give_expected_ranks(self):
        R, r = _mixed_stack(0, 6, 5, 3)
        _, ranks = _stacked_solve(R, r)
        np.testing.assert_array_equal(ranks, [3, 1, 0, 3, 1, 0])

    def test_degeneracy_is_relative_to_residual(self):
        # tiny columns are used when r is as tiny, and dropped when r is not
        R = np.array([[[1e-18], [0.0]], [[1e-18], [0.0]]])
        r = np.array([[1e-18, 1e-18], [1.0, 1.0]])
        coeffs, ranks = _stacked_solve(R, r)
        assert abs(coeffs[0, 0] + 1.0) < 1e-12 and ranks[0] == 1
        assert coeffs[1, 0] == 0.0 and ranks[1] == 0


class TestStackedSolveFastPath:
    """The unchecked kernel solves a stack of informative full-rank slices with the SVD alone."""

    @staticmethod
    def _full_rank(n, m, S=6):
        rng = np.random.default_rng(100 * n + m)
        scales = 10.0 ** rng.uniform(-100, 100, S)
        return (rng.standard_normal((S, n, m)) * scales[:, None, None],
                rng.standard_normal((S, n)) * scales[:, None])

    @pytest.mark.parametrize("n,m", [(5, 2), (200, 6), (3, 3), (1, 1), (2, 5), (1, 4)])
    def test_matches_2d_solve_with_ranks_min_n_m(self, n, m):
        R, r = self._full_rank(n, m)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(linalg, "rank_tolerance", None)  # which only the slow path calls
            fast = _stacked_solve(R, r)
        _, ranks = _assert_slices_match_2d_solve(R, r, lambda R, r: fast)
        np.testing.assert_array_equal(ranks, min(n, m))

    @pytest.mark.parametrize("n,m", [(5, 2), (200, 6), (3, 3), (2, 5)])
    @pytest.mark.parametrize("kind", ["rank_deficient", "degenerate"])
    def test_one_other_slice_takes_the_slow_path_and_keeps_the_others(self, n, m, kind):
        R, r = self._full_rank(n, m)
        fast, _ = _stacked_solve(R, r)
        odd = R[2].copy()
        odd[:] = odd[:, :1] if kind == "rank_deficient" else 0.0  # rank 1, or beta = 0
        stack_R, stack_r = np.insert(R, 2, odd, axis=0), np.insert(r, 2, r[2], axis=0)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(linalg, "min_norm_lstsq", None)  # the slow path reuses the stack's SVD
            result = _stacked_solve(stack_R, stack_r)
        coeffs, ranks = _assert_slices_match_2d_solve(stack_R, stack_r, lambda R, r: result)
        assert ranks[2] == (1 if kind == "rank_deficient" else 0)
        others = np.delete(coeffs, 2, axis=0)
        assert others.tobytes() == fast.tobytes()
