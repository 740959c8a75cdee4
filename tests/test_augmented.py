import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from anderson_lab import accelerators, linalg
from anderson_lab.accelerators import AccelConfig, aa_run, aa_step
from anderson_lab.augmented import (
    beta_hat,
    beta_of_z,
    build_D,
    directional_derivative,
    directional_derivative_fd,
    discontinuity_probe_beta,
    lipschitz_bound_linear_m1,
    lipschitz_bound_nonlinear_m1,
    psi_apply,
)
from anderson_lab.errors import MissingJacobian, NonFinite, SingularA
from anderson_lab.problems import (
    AffineSpec,
    make_affine,
    problem_linear_2x2,
    problem_nonlinear_2x2,
    problem_scalar,
)


class TestAugmentedState:
    def test_rejects_bad_length(self):
        # an augmented state is an (m+1, n) block array; a flat stacked vector
        # or a state with m = 0 is rejected
        p = problem_linear_2x2()
        for z in [np.arange(5.0), np.arange(4.0), np.arange(2.0).reshape(1, 2)]:
            with pytest.raises(ValueError):
                psi_apply(p, z)
            with pytest.raises(ValueError):
                beta_of_z(p, z)


class TestBuildD:
    def test_equal_blocks_zero(self):
        z = np.tile([1.0, -1.0], (3, 1))  # m = 2
        assert np.all(build_D(z) == 0.0)

    def test_m1_difference(self):
        np.testing.assert_array_equal(build_D([[2.0, 3.0], [1.0, 1.0]]), [[1.0], [2.0]])

    def test_m2_hand_value(self):
        z = [[1.0, 0.0], [0.0, 0.0], [0.0, 1.0]]
        np.testing.assert_array_equal(build_D(z), [[1.0, 1.0], [0.0, -1.0]])

    def test_stack_rows_equal_single_states(self):
        Z = np.random.default_rng(3).standard_normal((5, 4, 2))
        D = build_D(Z)
        assert D.shape == (5, 2, 3)
        for i in range(5):
            assert D[i].tobytes() == build_D(Z[i]).tobytes()


class TestBetaOfZ:
    def test_zero_at_stacked_fixed_point(self):
        p = problem_linear_2x2()
        z = np.tile(p.known_fixed_point, (2, 1))
        assert np.all(beta_of_z(p, z) == 0.0)

    def test_limit_minus_one_when_old_block_unperturbed(self):
        p = problem_linear_2x2()
        d1 = np.array([0.3, -0.4])
        for eps in (1e-2, 1e-4):
            z = np.array([eps * d1, [0.0, 0.0]])
            beta = beta_of_z(p, z)
            assert abs(beta[0] + 1.0) <= 1e-3

    def test_limit_zero_when_new_block_unperturbed(self):
        p = problem_linear_2x2()
        d2 = np.array([0.3, -0.4])
        for eps in (1e-2, 1e-4):
            z = np.array([[0.0, 0.0], eps * d2])
            assert abs(beta_of_z(p, z)[0]) <= 1e-12


class TestPsiApply:
    @pytest.mark.parametrize("factory,m", [
        (problem_linear_2x2, 1), (problem_linear_2x2, 3),
        (problem_nonlinear_2x2, 1), (problem_nonlinear_2x2, 2),
        (problem_scalar, 1),
    ])
    def test_fixed_point(self, factory, m):
        p = factory()
        z_star = np.tile(p.known_fixed_point, (m + 1, 1))
        out = psi_apply(p, z_star)
        assert out.shape == z_star.shape
        assert np.linalg.norm(out - z_star) <= 1e-12

    def test_shift_structure_exact(self):
        p = problem_nonlinear_2x2()
        rng = np.random.default_rng(8)
        z = rng.uniform(-0.2, 0.2, (3, 2))
        out = psi_apply(p, z)
        np.testing.assert_array_equal(out[1:], z[:-1])

    def test_diagonal_non_fixed_point_takes_fp_step(self):
        p = problem_linear_2x2()
        x = np.array([0.2, 0.1])
        z = np.tile(x, (3, 1))  # m = 2
        out = psi_apply(p, z)
        np.testing.assert_allclose(out[0], p.q(x), atol=0)

    @pytest.mark.parametrize("factory,m", [(problem_linear_2x2, 1),
                                           (problem_nonlinear_2x2, 2)])
    def test_consistency_with_aa_step(self, factory, m):
        p = factory()
        tr = aa_run(p, np.array([0.2, 0.1]), AccelConfig(window_m=m, max_iters=m + 4,
                                                         stop_tol=0.0))
        history = tr.iterates[-(m + 1):]
        x_next, _, _ = aa_step(p, history)
        out = psi_apply(p, history[::-1])
        # Psi and aa_step share one update: equal bit for bit
        assert out[0].tobytes() == x_next.tobytes()

    def test_iterating_psi_reproduces_aa_run(self):
        p = problem_nonlinear_2x2()
        m = 2
        tr = aa_run(p, np.array([0.2, 0.1]), AccelConfig(window_m=m, max_iters=12,
                                                         stop_tol=0.0))
        z = tr.iterates[m::-1]
        for k in range(m, 12):
            z = psi_apply(p, z)
            assert z[0].tobytes() == tr.iterates[k + 1].tobytes()

    def test_stack_shape_checked(self):
        p = problem_linear_2x2()
        for shape in [(4,),          # 1-D
                      (1, 2),        # m = 0
                      (3, 1, 2),     # a stack with m = 0
                      (2, 3, 2, 2),  # 4-D
                      (2, 3),        # block size != n
                      (3, 2, 3)]:    # a stack with block size != n
            with pytest.raises(ValueError):
                psi_apply(p, np.zeros(shape))
            with pytest.raises(ValueError):
                beta_of_z(p, np.zeros(shape))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("block", [0, 1])
    def test_non_finite_block_raises_non_finite(self, bad, block):
        # an Inf block's residual is Inf - Inf: NaN, with no warning
        Z = np.random.default_rng(4).uniform(-1.0, 1.0, (5, 3, 2))
        Z[3, block, 1] = bad
        for f in (psi_apply, beta_of_z):
            for p, z in ((problem_linear_2x2(), Z), (problem_nonlinear_2x2(), Z[3])):
                with pytest.raises(NonFinite):
                    f(p, z)
        with pytest.raises(NonFinite):
            aa_step(problem_linear_2x2(), Z[3, ::-1])  # the same history, oldest first

    def test_finite_residuals_whose_difference_overflows_raise_non_finite(self):
        p = make_affine(AffineSpec(M=np.zeros((2, 2)), b=np.zeros(2)))  # r(x) = x
        z = np.array([[1.5e308, 1.0], [-1.5e308, 1.0]])
        for f in (psi_apply, beta_of_z, lambda p, z: aa_step(p, z[::-1])):
            with pytest.raises(NonFinite):
                f(p, z)

    def test_residual_norm_overflow_raises_non_finite(self):
        # finite residuals whose norm overflows fail the run loop's stop
        # rule; the same state scaled down has beta = 1
        p = problem_linear_2x2()
        z = np.array([[1e200, 1.0], [2e200, 1.0]])
        assert beta_of_z(p, z * 2.0 ** -665).tolist() == [1.0]
        for f in (psi_apply, beta_of_z, lambda p, z: aa_step(p, z[::-1])):
            with pytest.raises(NonFinite):
                f(p, z)


def _lifted_map_problem(seed, n, affine):
    """A random affine problem with rho(M) < 1, or nonlinear2x2 (n = 2)."""
    if not affine:
        return problem_nonlinear_2x2()
    rng = np.random.default_rng(seed)
    M = rng.standard_normal((n, n))
    M *= rng.uniform(0.1, 0.95) / np.max(np.abs(np.linalg.eigvals(M)))
    return make_affine(AffineSpec(M=M, b=rng.standard_normal(n)))


class TestLiftedMapProperties:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.sampled_from([1, 2, 5]),
           m=st.integers(1, 4), S=st.integers(1, 6), affine=st.booleans())
    def test_stack_rows_equal_single_states(self, seed, n, m, S, affine):
        p = _lifted_map_problem(seed, n, affine)
        rng = np.random.default_rng(seed + 1)
        scale = 10.0 ** rng.uniform(-8, 0, (S, 1, 1))
        Z = p.known_fixed_point + scale * rng.standard_normal((S, m + 1, p.dim))
        Z[0, 1:] = Z[0, 0]            # a diagonal state: beta = 0
        Z[-1, -1] = Z[-1, -2]         # a repeated old block: R loses rank
        psi, beta = psi_apply(p, Z), beta_of_z(p, Z)
        assert psi.shape == Z.shape and beta.shape == (S, m)
        for i in range(S):
            assert psi[i].tobytes() == psi_apply(p, Z[i]).tobytes()
            assert beta[i].tobytes() == beta_of_z(p, Z[i]).tobytes()

    @pytest.mark.parametrize("n, m, affine", [(2, 1, True), (2, 3, False), (200, 2, True)])
    def test_stack_beyond_one_chunk_equals_single_states(self, monkeypatch, n, m, affine):
        # a budget of 3 states per chunk splits 10 states into 3 + 3 + 3 + 1
        p = _lifted_map_problem(5, n, affine)
        Z = p.known_fixed_point + 0.1 * np.random.default_rng(6).standard_normal((10, m + 1, n))
        monkeypatch.setattr(linalg, "CHUNK_FLOATS", 5 * (m + 1) * n * 3)
        chunks = []
        update = accelerators._aa_update
        with monkeypatch.context() as patch:
            patch.setattr(accelerators, "_aa_update",
                          lambda q_hist, r_hist: chunks.append(len(q_hist[-1]))
                          or update(q_hist, r_hist))
            psi = psi_apply(p, Z)
        beta = beta_of_z(p, Z)
        assert chunks == [3, 3, 3, 1]
        for i in range(len(Z)):
            assert psi[i].tobytes() == psi_apply(p, Z[i]).tobytes()
            assert beta[i].tobytes() == beta_of_z(p, Z[i]).tobytes()

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 5), m=st.integers(1, 4))
    def test_fixes_exact_fixed_point(self, seed, n, m):
        # dyadic M and an integer x* make q(x*) = x* exact in floating point
        rng = np.random.default_rng(seed)
        M = rng.integers(-7, 8, (n, n)) / 8.0
        assume(np.linalg.svd(np.eye(n) - M, compute_uv=False)[-1] > 1e-6)
        x_star = rng.integers(-8, 9, n).astype(float)
        p = make_affine(AffineSpec(M=M, b=x_star - M @ x_star))
        z_star = np.tile(x_star, (m + 1, 1))
        assert np.array_equal(psi_apply(p, z_star), z_star)
        assert np.array_equal(beta_of_z(p, z_star), np.zeros(m))


@pytest.mark.parametrize("factory",
                         [problem_linear_2x2, problem_nonlinear_2x2, problem_scalar])
@pytest.mark.parametrize("m", [1, 3])
def test_empty_stack_gives_empty_results(factory, m):
    # no states, directions, h or eps: empty arrays of the documented shapes,
    # and no warning (the suite turns warnings into errors)
    p = factory()
    n = p.dim
    M = p.jacobian(p.known_fixed_point)
    Z = np.empty((0, m + 1, n))
    d = np.ones((m + 1, n))
    z_star = np.tile(p.known_fixed_point, (m + 1, 1))
    deriv = directional_derivative(M, Z)
    results = {"psi_apply": (psi_apply(p, Z), Z.shape),
               "beta_of_z": (beta_of_z(p, Z), (0, m)),
               "beta_hat": (beta_hat(np.eye(n) - M, Z), (0, m)),
               "value": (deriv.value, Z.shape),
               "derivative beta_hat": (deriv.beta_hat, (0, m)),
               "D": (deriv.D, (0, n, m)),
               "fd": (directional_derivative_fd(p, d, []), Z.shape),
               "probe": (discontinuity_probe_beta(p, z_star, [d, -d, 2 * d], []), (3, 0, m)),
               "probe without directions": (discontinuity_probe_beta(p, z_star, [], [1e-3, 1e-6]),
                                            (0, 2, m))}
    for name, (got, shape) in results.items():
        assert got.shape == shape and got.dtype == np.float64, name
    assert deriv.formula_rank_ok.shape == (0,) and deriv.formula_rank_ok.dtype == bool


def _ray_case(seed, n, m):
    """A nonsingular n x n A and one (m+1, n) direction, its entries 0 or of magnitude in [2^-20, 2].

    Some directions repeat the newest block (a zero column of D(d)) or have
    a zero newest block.
    """
    rng = np.random.default_rng(seed)
    M = rng.standard_normal((n, n))
    A = np.eye(n) - rng.uniform(0.1, 0.95) * M / np.max(np.abs(np.linalg.eigvals(M)))
    d = rng.choice([-1.0, 1.0], (m + 1, n)) * np.exp2(rng.uniform(-20.0, 1.0, (m + 1, n)))
    d[rng.random((m + 1, n)) < 0.1] = 0.0
    kind = rng.integers(4)
    if kind == 1:
        d[-1] = d[0]
    elif kind == 2:
        d[0] = 0.0
    return A, d


class TestBetaHat:
    def test_equal_blocks_give_zero(self):
        A = np.array([[1.5, 0.2], [0.0, 0.8]])
        assert np.all(beta_hat(A, [[0.3, 0.4], [0.3, 0.4]]) == 0.0)

    def test_old_block_zero_gives_minus_one(self):
        A = np.array([[1.5, 0.2], [0.0, 0.8]])
        np.testing.assert_allclose(beta_hat(A, [[0.3, 0.4], [0.0, 0.0]]), [-1.0], atol=1e-14)

    def test_scalar_closed_form(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            d1, d2 = rng.standard_normal(2)
            if abs(d1 - d2) < 1e-3:
                continue
            bh = beta_hat(np.array([[0.7]]), [[d1], [d2]])
            assert abs(bh[0] - (-d1 / (d1 - d2))) < 1e-12

    def test_m1_rayleigh_quotient_form(self):
        A = np.array([[1.2, -0.3], [0.1, 0.9]])
        rng = np.random.default_rng(10)
        d1, d2 = rng.standard_normal(2), rng.standard_normal(2)
        bh = beta_hat(A, [d1, d2])
        diff = d1 - d2
        expected = -(d1 @ A.T @ A @ diff) / (diff @ A.T @ A @ diff)
        assert abs(bh[0] - expected) < 1e-12

    def test_singular_A_rejected(self):
        with pytest.raises(SingularA):
            beta_hat(np.array([[0.0]]), [[1.0], [0.0]])

    @pytest.mark.parametrize("c", [1.0, 1e-150, 1e150, 1e153, 2.0 ** -600, 1e-170, 1e160, 1e200])
    def test_every_scale_of_d_gives_the_value_of_its_ray(self, c):
        # unscaled, the degenerate-step rule's sums of squares underflow
        # (2^-600, 1e-170) or overflow (1e160, 1e200), and beta_hat read 0
        A = np.eye(2) - problem_linear_2x2().affine.M
        d = np.array([[1.0, 1.0], [-1.0, 3.0]])
        assert abs(beta_hat(A, d)[0] - 0.2522) < 1e-4
        np.testing.assert_allclose(beta_hat(A, c * d), beta_hat(A, d), rtol=1e-14)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 4), m=st.integers(1, 4),
           i=st.integers(0, 1000), j=st.integers(-1000, 1000))
    def test_power_of_two_scales_keep_the_bits(self, seed, n, m, i, j):
        # 2^i A and 2^j d are exact, and beta_hat depends on the ray and on A
        # up to scale
        A, d = _ray_case(seed, n, m)
        assert np.ldexp(np.ldexp(d, j), -j).tobytes() == d.tobytes()
        assert beta_hat(np.ldexp(A, i), np.ldexp(d, j)).tobytes() == beta_hat(A, d).tobytes()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("block", [0, 1])
    def test_non_finite_direction_raises_non_finite(self, bad, block):
        # A's zero entry times an Inf in entry 0 is NaN, with numpy's
        # "invalid value" warning unless beta_hat checks d first
        M = problem_linear_2x2().affine.M
        d = np.random.default_rng(4).uniform(-1.0, 1.0, (5, 3, 2))
        d[3, block, 0] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for direction in (d, d[3]):
                with pytest.raises(NonFinite):
                    beta_hat(np.eye(2) - M, direction)
                with pytest.raises(NonFinite):
                    directional_derivative(M, direction)

    def test_direction_whose_differences_overflow_keeps_its_ray(self):
        # at face value d_{m+1} - d_m is 2.75 * 2^1023, beyond the largest float
        A = np.eye(2) - problem_linear_2x2().affine.M
        d = np.array([[1.5, -0.75], [-1.25, 1.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert beta_hat(A, np.ldexp(d, 1023)).tobytes() == beta_hat(A, d).tobytes()


class TestDirectionalDerivative:
    def test_scalar_distinct_blocks(self):
        M = np.array([[0.5]])  # a = 1 - 0.5
        res = directional_derivative(M, [[0.7], [0.2]])
        np.testing.assert_allclose(res.value, [[0.0], [0.7]], atol=1e-14)
        assert res.formula_rank_ok

    def test_scalar_equal_blocks(self):
        m0 = 0.25
        a = 1.0 - m0
        delta = 0.6
        res = directional_derivative(np.array([[m0]]), [[delta], [delta]])
        np.testing.assert_allclose(res.value, [[(1 - a) * delta], [delta]], atol=1e-14)
        assert not res.formula_rank_ok

    def test_zero_new_block_full_rank(self):
        p = problem_linear_2x2()
        M = p.affine.M
        res = directional_derivative(M, [[0.0, 0.0], [0.4, -0.3]])
        assert np.all(res.beta_hat == 0.0)
        np.testing.assert_allclose(res.value[0], [0.0, 0.0], atol=1e-14)

    def test_homogeneity(self):
        p = problem_linear_2x2()
        M = p.affine.M
        rng = np.random.default_rng(13)
        for _ in range(20):
            d = rng.standard_normal((2, 2))
            r1 = directional_derivative(M, d)
            r2 = directional_derivative(M, 3.5 * d)
            np.testing.assert_allclose(r2.value, 3.5 * r1.value, atol=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 4), m=st.integers(1, 4),
           j=st.integers(-900, 900))
    def test_homogeneity_is_exact_at_powers_of_two(self, seed, n, m, j):
        A, d = _ray_case(seed, n, m)
        M = np.eye(n) - A
        value = directional_derivative(M, d).value
        assert (directional_derivative(M, np.ldexp(d, j)).value.tobytes()
                == np.ldexp(value, j).tobytes())

    def test_direction_whose_differences_overflow_gives_a_finite_value(self):
        # at face value d_{m+1} - d_m is 2.75 * 2^1023, beyond the largest
        # float; the value is 2^1023 times the value at d
        M = problem_linear_2x2().affine.M
        d = np.array([[1.5, -0.75], [-1.25, 1.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value = directional_derivative(M, np.ldexp(d, 1023)).value
        assert value.tobytes() == np.ldexp(directional_derivative(M, d).value, 1023).tobytes()
        np.testing.assert_allclose(value, [[1.356e307, 2.381e306], [1.348e308, -6.741e307]],
                                   rtol=1e-3)

    def test_stack_matches_single_directions(self):
        M = problem_nonlinear_2x2().jacobian(np.zeros(2))
        rng = np.random.default_rng(17)
        for m in (1, 2, 3):
            blocks = rng.standard_normal((9, m + 1, 2))
            blocks[1, 1] = blocks[1, 0]                    # D(d) loses rank
            blocks[2] = 0.0                                # zero direction
            blocks[3, 1:] = blocks[3, 0]                   # diagonal direction
            stacked = directional_derivative(M, blocks)
            assert stacked.value.shape == (9, m + 1, 2)
            assert stacked.formula_rank_ok.shape == (9,)
            A = np.eye(2) - M
            np.testing.assert_allclose(beta_hat(A, blocks), stacked.beta_hat, rtol=0, atol=0)
            for i in range(9):
                alone = directional_derivative(M, blocks[i])
                np.testing.assert_allclose(stacked.value[i], alone.value, rtol=0, atol=1e-14)
                np.testing.assert_allclose(stacked.beta_hat[i], alone.beta_hat,
                                           rtol=0, atol=1e-14)
                assert stacked.formula_rank_ok[i] == alone.formula_rank_ok
            # at m = 3 > n, row 1 keeps rank 2 = min(n, m), the largest rank
            assert stacked.formula_rank_ok[1] == (m == 3)
            assert not stacked.formula_rank_ok[2:4].any()

    @staticmethod
    def _eager_rank_ok(blocks):
        """rank D(d) == min(n, m) for one (m+1, n) direction, with the cut-off restated."""
        D = (blocks[0] - blocks[1:]).T
        n, m = D.shape
        sv = np.linalg.svd(D, compute_uv=False)
        tol = max(n, m) * np.finfo(float).eps * (sv[0] if sv[0] > 0 else 1.0)
        return int(np.count_nonzero(sv > tol)) == min(n, m)

    @pytest.mark.parametrize("n,m", [(1, 1), (2, 1), (2, 3), (3, 2)])
    def test_lazy_rank_flag_is_the_eager_rule(self, n, m):
        rng = np.random.default_rng(10 * n + m)
        M = 0.5 * rng.standard_normal((n, n)) / np.sqrt(n)
        blocks = rng.standard_normal((6, m + 1, n))
        blocks[1, 1] = blocks[1, 0]                    # a zero column of D(d)
        blocks[2] = 0.0                                # zero direction
        blocks[3, 1:] = blocks[3, 0]                   # diagonal direction
        blocks[4, 1:] = blocks[4, 0] + 1e-3 * blocks[4, 1:2]  # parallel columns
        eager = [self._eager_rank_ok(b) for b in blocks]
        stacked = directional_derivative(M, blocks)
        assert "formula_rank_ok" not in stacked.__dict__
        assert stacked.formula_rank_ok.dtype == bool
        assert stacked.formula_rank_ok.tolist() == eager
        assert stacked.formula_rank_ok is stacked.formula_rank_ok  # computed once
        for b, ok in zip(blocks, eager):
            alone = directional_derivative(M, b)
            assert alone.value.shape == (m + 1, n)
            assert "formula_rank_ok" not in alone.__dict__
            assert alone.formula_rank_ok is ok

    def test_stack_shape_checked(self):
        M = problem_linear_2x2().affine.M
        # a 2-D array is one direction, m = 3
        assert directional_derivative(M, np.zeros((4, 2))).value.shape == (4, 2)
        for shape in [(4,),          # 1-D
                      (1, 2),        # m = 0
                      (4, 1, 2),     # a stack with m = 0
                      (2, 4, 2, 2),  # 4-D
                      (4, 3),        # block size != n
                      (4, 2, 3)]:    # a stack with block size != n
            with pytest.raises(ValueError):
                directional_derivative(M, np.zeros(shape))
            with pytest.raises(ValueError):
                beta_hat(np.eye(2) - M, np.zeros(shape))

    def test_non_differentiability_certificate(self):
        # no single matrix J reproduces the derivative on all three directions
        M = np.array([[0.5]])
        a = 0.5
        d1 = 1.0
        v_new = directional_derivative(M, [[d1], [0.0]]).value
        v_diag = directional_derivative(M, [[d1], [d1]]).value
        v_old = directional_derivative(M, [[0.0], [d1]]).value
        # linearity would force v_old = v_diag - v_new
        gap = np.linalg.norm(v_old - (v_diag - v_new))
        assert abs(gap - (1 - a) * d1) <= 1e-12
        assert gap > 1e-12


class TestFiniteDifference:
    def test_affine_exact_and_h_independent(self):
        p = problem_linear_2x2()
        M = p.affine.M
        rng = np.random.default_rng(14)
        for _ in range(10):
            d = rng.standard_normal((2, 2))
            closed = directional_derivative(M, d).value
            fd = directional_derivative_fd(p, d, [1e-2, 1e-4, 1e-6])
            assert fd.shape == (3, 2, 2)
            for est in fd:
                assert np.linalg.norm(est - closed) <= 1e-10

    def test_nonlinear_first_order_slope(self):
        p = problem_nonlinear_2x2()
        M = p.jacobian(p.known_fixed_point)
        rng = np.random.default_rng(15)
        hs = np.array([1e-3, 1e-4, 1e-5, 1e-6])
        for m in (1, 2, 3, 4):
            errs = np.zeros(len(hs))
            for _ in range(10):
                d = rng.standard_normal((m + 1, 2))
                d /= np.linalg.norm(d)
                res = directional_derivative(M, d)
                assert res.formula_rank_ok
                fd = directional_derivative_fd(p, d, hs)
                errs = np.maximum(errs, [np.linalg.norm(e - res.value) for e in fd])
            slope = np.polyfit(np.log(hs), np.log(errs), 1)[0]
            assert 0.8 <= slope <= 1.2

    def test_zero_direction(self):
        p = problem_linear_2x2()
        assert np.all(directional_derivative_fd(p, np.zeros((2, 2)), [1e-3]) == 0.0)

    def test_requires_positive_h(self):
        p = problem_linear_2x2()
        d = np.array([[1.0, 0.0], [0.0, 0.0]])
        with pytest.raises(ValueError):
            directional_derivative_fd(p, d, [-1e-3])
        with pytest.raises(ValueError):
            directional_derivative_fd(p, d[None], [1e-3])  # one direction, not a stack

    def test_requires_known_fixed_point(self):
        p = replace(problem_linear_2x2(), known_fixed_point=None)
        with pytest.raises(ValueError, match="needs a known x"):
            directional_derivative_fd(p, np.array([[1.0, 0.0], [0.0, 0.0]]), [1e-3])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_requires_finite_h_before_evaluating(self, bad):
        calls = []
        base = problem_linear_2x2()
        p = replace(base, q=lambda x: calls.append(1) or base.q(x))
        d = np.array([[1.0, 0.0], [0.0, 0.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="finite"):
                directional_derivative_fd(p, d, [1e-3, bad])
        assert not calls


class TestLipschitzBounds:
    def test_linear_identity(self):
        assert abs(lipschitz_bound_linear_m1(np.eye(3)) - 1.0) < 1e-14

    def test_linear_two_identity(self):
        assert abs(lipschitz_bound_linear_m1(2 * np.eye(2)) - 3.0) < 1e-14

    def test_linear_empirical(self):
        p = problem_linear_2x2()
        L = lipschitz_bound_linear_m1(p.affine.A)
        z_star = np.tile(p.known_fixed_point, (2, 1))
        rng = np.random.default_rng(16)
        for _ in range(500):
            d = rng.standard_normal((2, 2)) * 10.0 ** rng.uniform(-6, 1)
            lhs = np.linalg.norm(psi_apply(p, z_star + d) - z_star)
            assert lhs <= L * np.linalg.norm(d) * (1 + 1e-10)

    def test_nonlinear_hand_value(self):
        p = problem_nonlinear_2x2()
        assert abs(lipschitz_bound_nonlinear_m1(p, c_r=0.5) - 9.0) < 1e-12
        assert abs(lipschitz_bound_nonlinear_m1(p) - 9.0) < 1e-12  # default c_r

    @pytest.mark.parametrize("c_r", [np.nan, 0.0, -1.0])
    def test_nonlinear_requires_positive_c_r(self, c_r):
        with pytest.raises(ValueError):
            lipschitz_bound_nonlinear_m1(problem_nonlinear_2x2(), c_r=c_r)

    @pytest.mark.parametrize("problem", [
        problem_nonlinear_2x2(), problem_scalar(),
        make_affine(AffineSpec(M=np.random.default_rng(3).standard_normal((5, 5)) / 4,
                               b=np.ones(5)))])
    def test_nonlinear_default_is_the_two_svd_value(self, problem):
        # the smallest singular value of r'(x*) and ||r'(x*)||, each from its own SVD
        r_prime = np.eye(problem.dim) - problem.jacobian(problem.known_fixed_point)
        c_r = float(np.linalg.svd(r_prime, compute_uv=False)[-1])
        expected = 3.0 + (4.0 + 4.0 / c_r) * linalg.operator_norm_2(r_prime)
        got = lipschitz_bound_nonlinear_m1(problem)
        assert np.float64(got).tobytes() == np.float64(expected).tobytes()

    def test_nonlinear_large_cr_limit(self):
        p = problem_nonlinear_2x2()
        L = lipschitz_bound_nonlinear_m1(p, c_r=1e12)
        assert abs(L - (3.0 + 4.0 * 0.5)) < 1e-9

    def test_nonlinear_requires_jacobian(self):
        p = problem_nonlinear_2x2()
        bare = type(p)(dim=2, q=p.q, jacobian=None, known_fixed_point=p.known_fixed_point)
        with pytest.raises(MissingJacobian):
            lipschitz_bound_nonlinear_m1(bare)


@pytest.mark.parametrize("s_max", [0.5, 1e4])
def test_every_layer_applies_the_one_nonsingularity_rule(s_max):
    # M = diag(1 - s_max, 1 - s_min) with s_min around 1e-12 * max(s_max, 1):
    # make_affine, beta_hat and the affine Lipschitz bound raise exactly when
    # check_nonsingular raises on A = I - M, as rounded
    threshold = 1e-12 * max(s_max, 1.0)
    outcomes = set()
    for factor in (0.99, 0.999, 0.9999, 1.0, 1.0001, 1.001, 1.01):
        spec = AffineSpec(M=np.diag([1.0 - s_max, 1.0 - factor * threshold]), b=np.zeros(2))
        try:
            linalg.check_nonsingular(spec.A)
            singular = False
        except SingularA:
            singular = True
        outcomes.add(singular)
        layers = (lambda: make_affine(spec),
                  lambda: beta_hat(spec.A, [[1.0, 0.5], [0.2, -0.3]]),
                  lambda: lipschitz_bound_linear_m1(spec.A))
        for layer in layers:
            if singular:
                with pytest.raises(SingularA):
                    layer()
            else:
                layer()
    assert outcomes == {False, True}


class TestDiscontinuityProbes:
    def test_limits_at_fixed_point(self):
        p = problem_linear_2x2()
        z_star = np.tile(p.known_fixed_point, (2, 1))
        d_new = [[0.3, -0.4], [0.0, 0.0]]
        d_old = [[0.0, 0.0], [0.3, -0.4]]
        eps = [1e-2, 1e-3, 1e-4]
        table = discontinuity_probe_beta(p, z_star, [d_new, d_old], eps)
        assert table.shape == (2, 3, 1)
        for beta in table[0]:
            assert abs(beta[0] + 1.0) <= 1e-3
        for beta in table[1]:
            assert abs(beta[0]) <= 1e-12

    def test_unbounded_growth_at_non_fixed_diagonal(self):
        p = problem_linear_2x2()
        x = np.array([0.2, 0.1])
        z0 = np.tile(x, (2, 1))
        d = [[0.0, 0.0], [1.0, 0.0]]
        table = discontinuity_probe_beta(p, z0, [d], [1e-3, 1e-6])
        b_coarse, b_fine = abs(table[0][0][0]), abs(table[0][1][0])
        assert b_fine >= 10.0 * b_coarse

    def test_diagonal_direction_gives_zero_beta(self):
        p = problem_linear_2x2()
        z_star = np.tile(p.known_fixed_point, (2, 1))
        d = [[0.3, -0.4], [0.3, -0.4]]
        table = discontinuity_probe_beta(p, z_star, [d], [1e-1, 1e-3, 1e-6])
        for beta in table[0]:
            assert np.all(beta == 0.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_A_raises_non_finite_in_every_layer(bad):
    # unchecked, a NaN entry reaches numpy's SVD (LinAlgError) and an Inf one
    # fails later, on R or M; check_nonsingular rejects both first
    A = np.array([[1.0, 0.0], [bad, 0.5]])
    layers = (lambda: beta_hat(A, [[1.0, 0.5], [0.2, -0.3]]),
              lambda: directional_derivative(np.eye(2) - A, [[1.0, 0.5], [0.2, -0.3]]),
              lambda: lipschitz_bound_linear_m1(A))
    for layer in layers:
        with pytest.raises(NonFinite, match="^A contains non-finite entries$"):
            layer()
