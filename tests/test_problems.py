import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anderson_lab.augmented import psi_apply
from anderson_lab.errors import EvalError, SingularA
from anderson_lab.linalg import spectral_radius
from anderson_lab.problems import (
    AffineSpec,
    load_affine_json,
    make_affine,
    problem_from_id,
    problem_linear_2x2,
    problem_linear_200,
    problem_nonlinear_2x2,
    problem_scalar,
)

ALL_PROBLEMS = [
    problem_linear_2x2,
    problem_nonlinear_2x2,
    lambda: problem_linear_200(-0.3, 0.3, -0.3),
    problem_scalar,
]


def _central_diff_jacobian(problem, x, h=1e-6):
    n = problem.dim
    J = np.empty((n, n))
    for j in range(n):
        e = np.zeros(n)
        e[j] = h
        J[:, j] = (problem.q(x + e) - problem.q(x - e)) / (2 * h)
    return J


@pytest.mark.parametrize("factory", ALL_PROBLEMS)
def test_residual_vanishes_at_fixed_point(factory):
    p = factory()
    assert np.linalg.norm(p.residual(p.known_fixed_point)) <= 1e-12


@pytest.mark.parametrize("factory", ALL_PROBLEMS)
def test_jacobian_matches_central_differences(factory):
    p = factory()
    rng = np.random.default_rng(11)
    for _ in range(10):
        x = p.known_fixed_point + 0.1 * rng.standard_normal(p.dim)
        J = p.jacobian(x)
        J_fd = _central_diff_jacobian(p, x)
        scale = max(1.0, np.abs(J).max())
        assert np.abs(J - J_fd).max() <= 1e-6 * scale


def test_affine_difference_identity():
    p = problem_linear_2x2()
    M = p.affine.M
    rng = np.random.default_rng(12)
    for _ in range(20):
        x, y = rng.standard_normal(2), rng.standard_normal(2)
        np.testing.assert_allclose(p.q(x) - p.q(y), M @ (x - y), atol=1e-14)


class TestMakeAffine:
    def test_scalar_geometric(self):
        p = make_affine(AffineSpec(M=[[0.5]], b=[1.0]))
        np.testing.assert_allclose(p.known_fixed_point, [2.0], atol=1e-14)

    def test_shift_matrix(self):
        p = make_affine(AffineSpec(M=[[0.0, 1.0], [0.0, 0.0]], b=[1.0, 1.0]))
        np.testing.assert_allclose(p.known_fixed_point, [2.0, 1.0], atol=1e-14)

    def test_singular(self):
        with pytest.raises(SingularA):
            make_affine(AffineSpec(M=np.eye(2), b=np.zeros(2)))

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            AffineSpec(M=np.eye(2), b=np.zeros(3))

    @pytest.mark.parametrize("M, b", [([[np.nan]], [0.0]), ([[0.5]], [np.inf]),
                                      ([[np.inf, 0.0], [0.0, 0.5]], [0.0, 0.0])])
    def test_non_finite_spec_is_rejected(self, M, b):
        with pytest.raises(ValueError, match="^M and b must be finite$"):
            AffineSpec(M=M, b=b)

    @pytest.mark.parametrize("M", [[[[0.5]]], np.zeros((2, 2, 2))])
    def test_m_that_is_not_a_matrix_is_rejected(self, M):
        with pytest.raises(ValueError, match="square matrix"):
            AffineSpec(M=M, b=np.zeros(len(M)))


class TestLinear2x2:
    def test_q_hand_value(self):
        p = problem_linear_2x2()
        np.testing.assert_allclose(
            p.q(np.array([0.2, 0.1])),
            [2.0 / 3.0 * 0.2 + 0.25 * 0.1, 0.1 / 3.0],
            atol=1e-15,
        )

    def test_fixed_point_is_origin(self):
        p = problem_linear_2x2()
        np.testing.assert_allclose(p.q(np.zeros(2)), np.zeros(2), atol=0)
        np.testing.assert_allclose(p.known_fixed_point, np.zeros(2), atol=1e-15)

    def test_spectral_radius(self):
        p = problem_linear_2x2()
        assert abs(spectral_radius(p.affine.M) - 2.0 / 3.0) < 1e-12


class TestNonlinear2x2:
    def test_fixed_point(self):
        p = problem_nonlinear_2x2()
        np.testing.assert_allclose(p.q(np.zeros(2)), np.zeros(2), atol=0)

    def test_jacobian_at_fixed_point(self):
        p = problem_nonlinear_2x2()
        J = p.jacobian(np.zeros(2))
        np.testing.assert_allclose(J, 0.5 * np.eye(2), atol=1e-15)
        assert abs(spectral_radius(J) - 0.5) < 1e-12

    def test_q_hand_value(self):
        p = problem_nonlinear_2x2()
        np.testing.assert_allclose(p.q(np.ones(2)), [1.5, 1.0], atol=1e-15)


class TestLinear200:
    def test_spectral_radius(self):
        for lams in [(-0.3, 0.3, -0.3), (-0.9, 0.7, -0.7)]:
            p = problem_linear_200(*lams)
            assert abs(spectral_radius(p.affine.M) - 0.9) < 1e-12

    def test_diagonal_endpoints(self):
        p = problem_linear_200(0.3, -0.3, -0.3)
        d = np.diag(p.affine.M)
        assert d[4] == 0.29325
        assert d[199] == 0.03

    def test_off_diagonal_entry(self):
        p = problem_linear_200(0.3, -0.3, -0.3)
        e2 = np.zeros(200)
        e2[1] = 1.0
        expected = np.zeros(200)
        expected[0] = 1.0
        expected[1] = 0.3
        np.testing.assert_allclose(p.q(e2), expected, atol=0)

    def test_rejects_bad_lambda(self):
        with pytest.raises(ValueError):
            problem_linear_200(1.0, 0.0, 0.0)

    @settings(max_examples=60, deadline=None)
    @given(lams=st.tuples(*[st.floats(-0.999, 0.999)] * 3), seed=st.integers(0, 2**32 - 1),
           shape=st.sampled_from([(), (1,), (7,), (3, 5)]),
           exponents=st.tuples(st.integers(-325, 300), st.integers(-325, 300)))
    def test_q_is_the_dense_matvec_bit_for_bit(self, lams, seed, shape, exponents):
        # q applies M in O(n); each row must equal M x + b as the dense
        # matvec computes it, the sign of a zero included, and q of its row alone
        p = problem_linear_200(*lams)
        rng = np.random.default_rng(seed)
        lo, hi = sorted(exponents)
        X = rng.choice([-1.0, 1.0], shape + (200,)) * 10.0 ** rng.uniform(lo, hi, shape + (200,))
        X[rng.random(X.shape) < 0.1] = 0.0
        X[rng.random(X.shape) < 0.1] = -0.0
        Q = p.q(X)
        assert Q.tobytes() == ((p.affine.M @ X[..., None])[..., 0] + p.affine.b).tobytes()
        for idx in np.ndindex(shape):
            assert Q[idx].tobytes() == p.q(X[idx]).tobytes()


class TestScalar:
    def test_golden_ratio_fixed_point(self):
        p = problem_scalar()
        phi = (1 + np.sqrt(5)) / 2
        np.testing.assert_allclose(p.q(np.array([phi])), [phi], atol=1e-15)

    def test_derivative_magnitude(self):
        p = problem_scalar()
        J = p.jacobian(p.known_fixed_point)
        assert abs(abs(J[0, 0]) - 2.0 / (3.0 + np.sqrt(5.0))) < 1e-12

    def test_hand_value(self):
        p = problem_scalar()
        np.testing.assert_allclose(p.q(np.array([1.0])), [2.0], atol=0)

    def test_eval_error_at_zero(self):
        p = problem_scalar()
        with pytest.raises(EvalError):
            p.q(np.array([0.0]))

    def test_jacobian_eval_error_at_zero(self):
        with pytest.raises(EvalError, match="undefined at x = 0"):
            problem_scalar().jacobian(np.array([0.0]))


class TestProblemIds:
    def test_known_ids(self):
        for pid, dim in [("linear2x2", 2), ("nonlinear2x2", 2),
                         ("linear200", 200), ("scalar", 1)]:
            assert problem_from_id(pid).dim == dim

    def test_linear200_with_lambdas(self):
        p = problem_from_id("linear200:-0.9,0.7,-0.7")
        assert np.diag(p.affine.M)[1] == -0.9

    def test_unknown_id(self):
        with pytest.raises(ValueError):
            problem_from_id("nosuch")

    def test_affine_json(self, tmp_path):
        path = tmp_path / "aff.json"
        path.write_text(json.dumps({"M": [[0.5, 0.0], [0.0, 0.25]], "b": [1.0, 3.0]}))
        p = load_affine_json(str(path))
        np.testing.assert_allclose(p.known_fixed_point, [2.0, 4.0], atol=1e-14)
        p2 = problem_from_id(f"affine:{path}")
        np.testing.assert_allclose(p2.known_fixed_point, [2.0, 4.0], atol=1e-14)

    def test_linear200_needs_three_lambdas(self):
        with pytest.raises(ValueError, match="exactly three lambdas"):
            problem_from_id("linear200:1,2")

    def test_linear200_rejects_nan_lambda(self):
        with pytest.raises(ValueError, match=r"^\|l2\| must be < 1, got nan$"):
            problem_from_id("linear200:nan,0.1,0.1")

    @pytest.mark.parametrize("pid", ["linear2x2", "nonlinear2x2", "scalar", "linear200",
                                     "linear200:-0.9,0.7,-0.7", "affine"])
    def test_every_id_has_its_fixed_point_and_jacobian(self, pid, affine_id):
        # deriv-hist differentiates at q'(x*) with no check of its own
        p = problem_from_id(affine_id if pid == "affine" else pid)
        assert p.known_fixed_point is not None and p.jacobian is not None
        assert p.jacobian(p.known_fixed_point).shape == (p.dim, p.dim)

    def test_affine_json_bad_document(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"M": [[0.5]]}))
        with pytest.raises(ValueError):
            load_affine_json(str(path))


@pytest.fixture(scope="module")
def affine_id(tmp_path_factory):
    path = tmp_path_factory.mktemp("affine") / "aff.json"
    path.write_text(json.dumps({"M": [[0.5, 0.25, 0.0], [0.0, -0.3, 0.1], [0.2, 0.0, 0.4]],
                                "b": [1.0, -2.0, 0.5]}))
    return f"affine:{path}"


class TestBatchContract:
    """q maps (..., n) to (..., n) row by row, each row bitwise q of its point."""

    @pytest.mark.parametrize("pid", ["linear2x2", "nonlinear2x2", "scalar", "linear200",
                                     "linear200:-0.9,0.7,-0.7", "affine"])
    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), B=st.integers(1, 6), m=st.integers(0, 3),
           S=st.integers(1, 4), scale=st.sampled_from([1e-3, 1.0, 1e3]))
    def test_batch_equals_each_point(self, pid, affine_id, seed, B, m, S, scale):
        p = problem_from_id(affine_id if pid == "affine" else pid)
        rng = np.random.default_rng(seed)
        for shape in ((B, p.dim), (m + 1, S, p.dim)):
            X = scale * rng.uniform(-1.0, 1.0, shape)
            Q = p.q(X)
            assert Q.shape == X.shape
            for idx in np.ndindex(shape[:-1]):
                assert Q[idx].tobytes() == p.q(X[idx]).tobytes()

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), shape=st.sampled_from([(1,), (5,), (3, 4)]))
    def test_scalar_error_rows_are_the_zero_rows(self, seed, shape):
        rng = np.random.default_rng(seed)
        zero = rng.random(shape) < 0.3
        zero.flat[0] = True
        X = np.where(zero, 0.0, rng.uniform(0.5, 2.0, shape))[..., None]
        message = r"^q\(x\) = 1 \+ 1/x is undefined at x = 0$"
        with pytest.raises(EvalError, match=message) as exc:
            problem_scalar().q(X)
        assert exc.value.rows.shape == shape
        np.testing.assert_array_equal(exc.value.rows, zero)

    def test_psi_apply_on_scalar_stack_with_zero_block_raises(self):
        Z = np.full((4, 3, 1), 1.5)
        Z[2, 1, 0] = 0.0
        with pytest.raises(EvalError):
            psi_apply(problem_scalar(), Z)
