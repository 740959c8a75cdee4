import itertools
import os
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anderson_lab import accelerators, linalg
from anderson_lab.accelerators import (
    AccelConfig,
    IterationTrace,
    aa_full_window_vs_gmres_check,
    aa_run,
    aa_step,
    gmres_run,
    run_batch,
    run_scheme,
)
from anderson_lab.errors import (AndersonLabError, Breakdown, Diverged, EvalError, NonFinite,
                                 StagnationDetected)
from anderson_lab.linalg import _stacked_solve
from anderson_lab.problems import (
    AffineSpec,
    FixedPointProblem,
    make_affine,
    problem_from_id,
    problem_linear_2x2,
    problem_linear_200,
    problem_nonlinear_2x2,
    problem_scalar,
)


class TestAccelConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            AccelConfig(window_m=-1)
        with pytest.raises(ValueError):
            AccelConfig(max_iters=0)
        with pytest.raises(ValueError):
            AccelConfig(stop_tol=-1.0)
        with pytest.raises(ValueError):
            AccelConfig(stop_tol=float("nan"))
        AccelConfig(stop_tol=0.0)  # 0 disables the residual stop


class TestFpRun:
    def test_first_step_hand_value(self):
        p = problem_linear_2x2()
        tr = run_scheme(p, np.array([0.2, 0.1]),
                        AccelConfig(window_m=0, max_iters=1, stop_tol=0.0))
        np.testing.assert_allclose(
            tr.iterates[1], [2.0 / 3.0 * 0.2 + 0.25 * 0.1, 0.1 / 3.0], atol=1e-15)

    def test_start_at_fixed_point(self):
        p = problem_linear_2x2()
        tr = run_scheme(p, np.zeros(2), AccelConfig(window_m=0, max_iters=50))
        assert len(tr) == 1
        assert tr.converged

    def test_sigma_approaches_spectral_radius(self):
        p = problem_linear_2x2()
        tr = run_scheme(p, np.array([0.2, 0.1]),
                        AccelConfig(window_m=0, max_iters=100, stop_tol=0.0))
        assert abs(tr.sigma_k[100] - 2.0 / 3.0) < 0.01

    def test_linear_error_propagation(self):
        p = problem_linear_2x2()
        M = p.affine.M
        tr = run_scheme(p, np.array([0.2, 0.1]),
                        AccelConfig(window_m=0, max_iters=10, stop_tol=0.0))
        for k in range(10):
            e_k = tr.iterates[k] - p.known_fixed_point
            e_next = tr.iterates[k + 1] - p.known_fixed_point
            np.testing.assert_allclose(e_next, M @ e_k, atol=1e-15)

    def test_divergence_guard(self):
        p = make_affine(AffineSpec(M=[[2.0]], b=[0.0]))
        with pytest.raises(Diverged) as exc_info:
            run_scheme(p, np.array([1.0]), AccelConfig(window_m=0, max_iters=200, stop_tol=0.0))
        tr = exc_info.value.trace
        # the trace ends with the iterate that left the guard ball
        assert tr.error_norms[-1] > 1e12 and len(tr.iterates) == len(tr)

    def test_start_outside_guard_ball_diverges_at_k0(self):
        p = make_affine(AffineSpec(M=[[0.5]], b=[0.0]))
        for x0 in (2e12, 1e200):  # beyond ~1e154 the squared norm overflows, with no warning
            with pytest.raises(Diverged) as exc_info:
                run_scheme(p, np.array([x0]), AccelConfig(window_m=1))
            assert len(exc_info.value.trace) == 1


class TestNonFiniteResidual:
    @staticmethod
    def _nan_below(threshold):
        # q(x) = x / 2, but NaN once x drops below threshold
        return FixedPointProblem(
            dim=1, q=lambda x: 0.5 * x + np.where(x[..., :1] < threshold, np.nan, 0.0),
            known_fixed_point=np.zeros(1))

    @pytest.mark.parametrize("cfg", [
        AccelConfig(window_m=0, max_iters=50, stop_tol=0.0),
        AccelConfig(window_m=1, max_iters=50, stop_tol=0.0),
        AccelConfig(window_m=1, restart=True, max_iters=50, stop_tol=0.0),
    ])
    def test_raises_with_partial_trace(self, cfg):
        # FP reaches 0.25 and AA(1) takes the exact secant step to 0 at k = 2
        with pytest.raises(NonFinite) as exc_info:
            run_scheme(self._nan_below(0.3), np.array([1.0]), cfg)
        tr = exc_info.value.trace
        assert len(tr) == 3
        assert np.all(np.isfinite(tr.residual_norms[:2]))
        assert np.isnan(tr.residual_norms[2])
        assert len(tr.beta) == len(tr.rank) == 2

    def test_nan_at_start(self):
        with pytest.raises(NonFinite) as exc_info:
            run_scheme(self._nan_below(2.0), np.array([1.0]), AccelConfig(window_m=0, max_iters=5))
        assert len(exc_info.value.trace) == 1


class TestAaStep:
    def test_empty_history_rejected(self):
        with pytest.raises(ValueError):
            aa_step(problem_linear_2x2(), [])

    def test_single_entry_is_fp_step(self):
        p = problem_linear_2x2()
        x0 = np.array([0.2, 0.1])
        x1, beta, _ = aa_step(p, [x0])
        np.testing.assert_allclose(x1, p.q(x0), atol=0)
        assert beta.shape == (0,)

    def test_equal_residuals_degenerate_to_fp(self):
        p = problem_linear_2x2()
        x = np.array([0.2, 0.1])
        x_next, beta, rank = aa_step(p, [x, x])
        np.testing.assert_allclose(x_next, p.q(x), atol=0)
        assert np.all(beta == 0.0)
        assert rank == 0

    def test_orthogonal_residuals_hand_value(self):
        # residuals [0,1] then [1,0]: beta = -r_k.(r_k - r_{k-1}) / ||r_k - r_{k-1}||^2
        p = make_affine(AffineSpec(M=0.5 * np.eye(2), b=np.zeros(2)))
        x_prev = np.array([0.0, 2.0])   # r = [0, 1]
        x_k = np.array([2.0, 0.0])      # r = [1, 0]
        x_next, beta, _ = aa_step(p, [x_prev, x_k])
        assert abs(beta[0] - (-0.5)) < 1e-14
        expected = p.q(x_k) + beta[0] * (p.q(x_k) - p.q(x_prev))
        np.testing.assert_allclose(x_next, expected, atol=1e-14)

    def test_optimality_over_beta_zero(self):
        p = problem_linear_2x2()
        rng = np.random.default_rng(5)
        hist = [rng.standard_normal(2) for _ in range(3)]
        _, beta, _ = aa_step(p, hist)
        # column j of R pairs the newest residual with the one j + 1 steps older
        res = [x - p.q(x) for x in hist]
        r = res[-1]
        R = np.column_stack([r - res[-2 - j] for j in range(len(hist) - 1)])
        assert beta.shape == (2,)
        assert np.linalg.norm(r + R @ beta) <= np.linalg.norm(r) + 1e-12


def _widths(tr):
    """The window of each kept step of tr: the count of non-NaN entries of its beta row."""
    return np.count_nonzero(~np.isnan(tr.beta), axis=1).tolist()


def _single_and_batch_row(problem, x0, cfg):
    """run_scheme from x0, and the row of x0 in a run_batch of 3 rows keeping every iterate."""
    X0 = np.array([[-0.1, 0.05], x0, [0.3, -0.2]])
    return run_scheme(problem, x0, cfg), run_batch(problem, X0, cfg, keep=cfg.max_iters + 1)[1]


class TestAaRun:
    def test_window_discipline(self):
        p = problem_linear_2x2()
        m = 3
        for tr in _single_and_batch_row(p, np.array([0.2, 0.1]),
                                        AccelConfig(window_m=m, max_iters=10, stop_tol=0.0)):
            assert tr.beta.shape == (10, m)
            assert _widths(tr) == [min(k, m) for k in range(10)]

    def test_forced_beta_zero_reproduces_fp_bitwise(self, monkeypatch):
        # a huge eps makes every column of R negligible next to ||r||, so the
        # degenerate-step rule gives beta = 0 on every step
        monkeypatch.setattr(linalg, "_EPS", 1e30 * linalg._EPS)
        p = problem_linear_2x2()
        x0 = np.array([0.21, -0.13])
        cfg = AccelConfig(window_m=2, max_iters=40, stop_tol=0.0)
        tr_aa = aa_run(p, x0, cfg)
        assert not np.any(tr_aa.rank) and not np.any(tr_aa.beta[~np.isnan(tr_aa.beta)])
        tr_fp = run_scheme(p, x0, AccelConfig(window_m=0, max_iters=40, stop_tol=0.0))
        assert len(tr_aa) == len(tr_fp)
        for a, b in zip(tr_aa.iterates, tr_fp.iterates):
            assert np.array_equal(a, b)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.sampled_from([1, 2, 5]),
           m=st.integers(1, 4), restart=st.booleans())
    def test_zero_coefficients_reproduce_fp_bitwise(self, seed, n, m, restart):
        spec, rng = _random_contraction(seed, n)
        p = make_affine(spec)
        x0 = rng.uniform(-1.0, 1.0, n)
        cfg = AccelConfig(window_m=m, restart=restart, max_iters=30, stop_tol=0.0)
        tr_fp = run_scheme(p, x0, replace(cfg, window_m=0, restart=False))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(accelerators, "_stacked_solve",
                       lambda R, r: (np.zeros(R.shape[::2]), np.zeros(len(R), dtype=int)))
            tr_aa = run_scheme(p, x0, cfg)
        assert any(_widths(tr_aa))
        assert len(tr_aa) == len(tr_fp)
        for a, b in zip(tr_aa.iterates, tr_fp.iterates):
            assert np.array_equal(a, b)
        np.testing.assert_array_equal(tr_aa.residual_norms, tr_fp.residual_norms)

    def test_diagonal_affine_converges(self):
        p = make_affine(AffineSpec(M=np.diag([0.5, 0.5]), b=np.array([1.0, -1.0])))
        tr = aa_run(p, np.array([3.0, 7.0]), AccelConfig(window_m=1, max_iters=50, stop_tol=1e-12))
        assert tr.converged
        assert tr.residual_norms[-1] <= 1e-12

    def test_beta_oscillates_on_linear_2x2(self):
        p = problem_linear_2x2()
        tr = aa_run(p, np.array([0.2, 0.1]), AccelConfig(window_m=1, max_iters=100, stop_tol=0.0))
        tail = tr.beta[50:100, 0]
        assert max(tail) - min(tail) > 0.05

    def test_trace_alignment(self):
        p = problem_linear_2x2()
        tr = aa_run(p, np.array([0.2, 0.1]), AccelConfig(window_m=1, max_iters=20, stop_tol=0.0))
        assert len(tr.beta) == len(tr.rank) == len(tr.iterates) - 1
        assert np.isnan(tr.sigma_k[0])
        for k in range(1, len(tr)):
            assert abs(tr.sigma_k[k] - tr.error_norms[k] ** (1.0 / k)) < 1e-15


def _old_sigma_k(errs):
    """The formulas the traces used to store, on the error norms as a list of floats."""
    errs = [float(e) for e in errs]
    nan = float("nan")
    sigma = [e ** (1.0 / k) if k else nan for k, e in enumerate(errs)]
    ratios = [e / p if p > 0.0 else nan for p, e in zip([nan] + errs, errs)]
    return sigma, ratios


def _bits(values):
    return np.asarray(values, dtype=float).tobytes()


class TestIterationTrace:
    @given(st.lists(st.floats(min_value=0.0, allow_nan=False), max_size=30),
           st.booleans())
    @settings(max_examples=100, deadline=None)
    def test_derived_sequences_equal_the_old_formulas_bitwise(self, errs, as_array):
        norms = np.array(errs, dtype=float) if as_array else errs
        tr = IterationTrace(residual_norms=list(errs), error_norms=norms)
        sigma, ratios = _old_sigma_k(errs)
        assert _bits(tr.sigma_k) == _bits(sigma)
        assert _bits(tr.error_ratios) == _bits(ratios)
        assert tr.sigma_k is tr.sigma_k and tr.error_ratios is tr.error_ratios  # cached

    def test_root_error_is_python_pow_bitwise(self):
        # float_power's float64 loop calls the C library's pow, as float **
        # does; a numpy whose float_power takes a SIMD pow fails here first
        rng = np.random.default_rng(31)
        N = 1_000_000
        e = 10.0 ** rng.uniform(-323.0, 300.0, N)
        e[: N // 4] = rng.random(N // 4)
        k = rng.integers(0, 1 << 12, N)
        k[: N // 8] = rng.integers(0, 201, N // 8)
        edges = [0.0, 5e-324, 1e-320, 2.2250738585072014e-308, 1e-308, 1.0, 1e300,
                 1.7976931348623157e308, np.inf, np.nan]
        e = np.concatenate([e, np.repeat(edges, 6)])
        k = np.concatenate([k, np.tile([0, 1, 2, 3, 100, 10**6], len(edges))])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = accelerators.root_error(e, k)
        nan = float("nan")
        expected = [x ** (1.0 / j) if j else nan for x, j in zip(e.tolist(), k.tolist())]
        assert got.tobytes() == np.array(expected).tobytes()
        assert np.isnan(got[k == 0]).all()

    def test_unknown_error_norms_give_nan(self):
        # an unknown x* makes every error norm NaN, and so every sigma and ratio
        tr = IterationTrace(residual_norms=[1.0, 0.5], error_norms=np.full(2, np.nan))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert len(tr.sigma_k) == len(tr.error_ratios) == 2
            assert np.isnan(tr.sigma_k).all() and np.isnan(tr.error_ratios).all()



def _secant_iterates(problem, x0, n_steps):
    """Secant method on f(x) = x - q(x), seeded like AA(1).

    A zero secant denominator falls back to the plain update q(x_k), matching
    the accelerator's degenerate-step rule.
    """
    f = lambda x: float(problem.residual(np.array([x]))[0])
    xs = [float(x0), float(problem.q(np.array([x0]))[0])]
    for _ in range(n_steps - 1):
        fk, fp = f(xs[-1]), f(xs[-2])
        if fk == fp:
            xs.append(float(problem.q(np.array([xs[-1]]))[0]))
        else:
            xs.append(xs[-1] - fk * (xs[-1] - xs[-2]) / (fk - fp))
    return xs


class TestSecantEquivalence:
    def test_scalar_aa1_matches_secant(self):
        p = problem_scalar()
        tr = aa_run(p, np.array([0.5]), AccelConfig(window_m=1, max_iters=15, stop_tol=0.0))
        secant = _secant_iterates(p, 0.5, 15)
        for k in range(len(tr)):
            aa_x = tr.iterates[k][0]
            assert abs(aa_x - secant[k]) <= 1e-10 * (1.0 + abs(secant[k]))


class TestRestartedRun:
    def test_requires_window(self):
        with pytest.raises(ValueError):
            run_scheme(problem_linear_2x2(), np.zeros(2),
                       AccelConfig(window_m=0, restart=True))

    def test_no_restart_boundary_equals_windowed(self):
        p = problem_linear_2x2()
        x0 = np.array([0.2, 0.1])
        n = 20
        tr_r = run_scheme(p, x0, AccelConfig(window_m=n + 1, restart=True,
                                             max_iters=n, stop_tol=0.0))
        tr_w = aa_run(p, x0, AccelConfig(window_m=n + 1, max_iters=n, stop_tol=0.0))
        for a, b in zip(tr_r.iterates, tr_w.iterates):
            assert np.array_equal(a, b)

    def test_restart_cycle_structure(self):
        # m=2 cycles: FP-like step (empty beta), then windows 1 and 2
        p = problem_linear_2x2()
        for tr in _single_and_batch_row(p, np.array([0.2, 0.1]), AccelConfig(
                window_m=2, restart=True, max_iters=9, stop_tol=0.0)):
            assert _widths(tr) == [0, 1, 2, 0, 1, 2, 0, 1, 2]


@pytest.mark.parametrize("problem_id", ["linear2x2", "nonlinear2x2", "linear200:-0.9,0.7,-0.7"])
@pytest.mark.parametrize("restart", [False, True])
@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_coefficients_solve_the_newest_first_difference_columns(problem_id, restart, m):
    # an independent reference for the history order: column j of R is
    # r_k - r_{k-1-j}, the newest residual minus the one j + 1 steps older,
    # built from the kept iterates alone; on linear2x2, m >= n makes slices
    # rank deficient, which the min_norm_lstsq path solves
    p = problem_from_id(problem_id)
    x0 = np.random.default_rng(m).uniform(-0.1, 0.1, p.dim)
    tr = run_scheme(p, x0, AccelConfig(window_m=m, restart=restart, max_iters=30, stop_tol=0.0))
    r = tr.iterates - p.q(tr.iterates)
    widths = _widths(tr)
    assert max(widths) == m
    for k, w in enumerate(widths):
        R = np.column_stack([r[k] - r[k - 1 - j] for j in range(w)]) if w else np.empty((p.dim, 0))
        beta, info = linalg.anderson_coefficients(R, r[k])
        assert beta.tobytes() == tr.beta[k, :w].tobytes(), (k, w)
        assert info.numerical_rank == tr.rank[k], (k, w)


class TestRunScheme:
    def test_dispatch(self):
        p = problem_linear_2x2()
        x0 = np.array([0.2, 0.1])
        fp = run_scheme(p, x0, AccelConfig(window_m=0, max_iters=5, stop_tol=0.0))
        aa = run_scheme(p, x0, AccelConfig(window_m=1, max_iters=5, stop_tol=0.0))
        rs = run_scheme(p, x0, AccelConfig(window_m=1, restart=True, max_iters=5, stop_tol=0.0))
        assert fp.beta.shape == (5, 0) and not np.any(fp.rank)
        assert _widths(aa)[1] == 1
        assert len(rs) == 6

    def test_max_iters_of_a_billion_gives_the_trace_of_100(self):
        # AA(1) from x0 converges at step 30: a step log sized by max_iters
        # would ask for 10**9 steps of memory up front
        p, x0 = problem_linear_2x2(), np.array([0.2, 0.1])
        short = run_scheme(p, x0, AccelConfig(window_m=1, max_iters=100))
        long = run_scheme(p, x0, AccelConfig(window_m=1, max_iters=10**9))
        assert len(short) == 31 and short.converged and long.converged
        for name in ("iterates", "residual_norms", "error_norms", "beta", "rank"):
            a, b = getattr(short, name), getattr(long, name)
            assert a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _gmres_min_residual_bruteforce(A, b, x0, k):
    """min ||r0 - sum_i c_i A^{i+1} r0|| over the degree-k residual polynomial."""
    r0 = b - A @ x0
    cols = []
    v = r0
    for _ in range(k):
        v = A @ v
        cols.append(v)
    K = np.column_stack(cols)
    c, *_ = np.linalg.lstsq(K, r0, rcond=None)
    return float(np.linalg.norm(r0 - K @ c))


class TestGmres:
    def test_start_at_solution(self):
        p = problem_linear_2x2()
        tr = gmres_run(p, np.zeros(2), AccelConfig(max_iters=10))
        assert len(tr) == 1
        assert tr.converged

    def test_sigma_k_is_derived_from_the_error_norms(self):
        p = problem_linear_200(-0.3, 0.3, -0.3)
        x0 = np.random.default_rng(3).uniform(-1.0, 1.0, 200)
        tr = gmres_run(p, x0, AccelConfig(max_iters=30, stop_tol=0.0))
        errs = [float(np.linalg.norm(p.known_fixed_point - x)) for x in tr.iterates]
        assert tr.error_norms.tolist() == errs
        assert np.isnan(tr.sigma_k[0])
        assert tr.sigma_k[1:] == [e ** (1.0 / k) for k, e in enumerate(errs) if k]
        assert _bits(tr.error_ratios) == _bits(_old_sigma_k(errs)[1])

    def test_finite_termination(self):
        p = problem_linear_2x2()
        tr = gmres_run(p, np.array([0.2, 0.1]), AccelConfig(max_iters=10, stop_tol=0.0))
        assert tr.residual_norms[min(2, len(tr) - 1)] <= 1e-10

    def test_residuals_nonincreasing(self):
        p = problem_linear_200(-0.3, 0.3, -0.3)
        rng = np.random.default_rng(6)
        x0 = rng.uniform(-1, 1, 200)
        tr = gmres_run(p, x0, AccelConfig(max_iters=30, stop_tol=0.0))
        res = tr.residual_norms
        for k in range(1, len(res)):
            assert res[k] <= res[k - 1] * (1 + 1e-12) + 1e-14 * res[0]

    @pytest.mark.parametrize("x0, error", [([np.nan, 0.1], NonFinite),
                                           ([1e200, 1e200], Diverged)])
    def test_failure_at_start_raises_with_partial_trace(self, x0, error):
        # the second start is outside the divergence guard ball, as FP and AA
        # report it, and its residual norm overflows to Inf without a warning
        with pytest.raises(error) as exc_info:
            gmres_run(problem_linear_2x2(), np.array(x0), AccelConfig(max_iters=10))
        tr = exc_info.value.trace
        assert len(tr) == 1 and len(tr.iterates) == 1
        assert not np.isfinite(tr.residual_norms[0])

    def test_divergence_guard_is_tested_on_every_iterate(self):
        # at n = 1 the first GMRES step jumps from x0 = 0 to x* = 2e13
        p = make_affine(AffineSpec(M=[[0.5]], b=[1e13]))
        with pytest.raises(Diverged, match="exceeded 1e\\+12") as exc_info:
            gmres_run(p, np.zeros(1), AccelConfig(max_iters=10))
        tr = exc_info.value.trace
        assert len(tr) == 2 and abs(tr.iterates[-1][0]) > 1e12

    def test_requires_affine_problem(self):
        with pytest.raises(ValueError):
            gmres_run(problem_scalar(), np.array([0.5]), AccelConfig(max_iters=5))

    def test_matches_bruteforce_polynomial_minimization(self):
        p = problem_linear_2x2()
        x0 = np.array([0.2, 0.1])
        tr = gmres_run(p, x0, AccelConfig(max_iters=2, stop_tol=0.0))
        A, b = p.affine.A, p.affine.b
        for k in (1, 2):
            if k < len(tr):
                expected = _gmres_min_residual_bruteforce(A, b, x0, k)
                assert abs(tr.residual_norms[k] - expected) < 1e-10


# M has an eigenvalue within ~2e-11 of 1 (found by a search over random 2 x 2
# problems): from BREAKDOWN_X0 the second Arnoldi vector is zero while the
# residual is still ~1e-8, a happy breakdown before convergence
BREAKDOWN_SPEC = AffineSpec(M=[[0.9072367523944367, -0.0157785950950866],
                               [0.047109366426820676, 1.0080130831477414]],
                            b=[0.009867914309511578, 0.04660923129893535])
BREAKDOWN_X0 = [0.8296357793171745, 0.26364256770818373]


@np.errstate(over="ignore")
def _gmres_loop_reference(problem, x0, cfg):
    """Dense GMRES from x0 as one scalar loop: the arithmetic gmres_batch keeps for each row.

    Returns the iterates, residual norms, converged flag and failure (or None).
    """
    A, b = problem.affine.A, problem.affine.b
    n = A.shape[0]
    iterates, res = [x0], [float(np.linalg.norm(b - A @ x0))]

    def stopped():
        if np.linalg.norm(iterates[-1]) > accelerators.DIVERGENCE_GUARD:
            return Diverged("||x_k|| exceeded 1e+12")
        if not res[-1] < np.inf:
            return NonFinite(f"residual norm is {res[-1]} at k = {len(res) - 1}")
        return None

    if (failure := stopped()) or res[0] <= cfg.stop_tol:
        return iterates, res, failure is None, failure
    max_k = min(cfg.max_iters, n)
    V, H = np.zeros((n, max_k + 1)), np.zeros((max_k + 1, max_k))
    cs, sn, g = np.zeros(max_k), np.zeros(max_k), np.zeros(max_k + 1)
    g[0] = res[0]
    V[:, 0] = (b - A @ x0) / res[0]
    for k in range(max_k):
        w = A @ V[:, k]
        for j in range(k + 1):
            H[j, k] = V[:, j] @ w
            w -= H[j, k] * V[:, j]
        hkk = float(np.linalg.norm(w))
        H[k + 1, k] = hkk
        happy = hkk <= 1e-14 * max(1.0, float(np.linalg.norm(A @ V[:, k])))
        if not happy:
            V[:, k + 1] = w / hkk
        for j in range(k):
            t = cs[j] * H[j, k] + sn[j] * H[j + 1, k]
            H[j + 1, k] = -sn[j] * H[j, k] + cs[j] * H[j + 1, k]
            H[j, k] = t
        denom = float(np.hypot(H[k, k], H[k + 1, k]))
        cs[k], sn[k] = H[k, k] / denom, H[k + 1, k] / denom
        H[k, k], H[k + 1, k] = denom, 0.0
        g[k + 1] = -sn[k] * g[k]
        g[k] = cs[k] * g[k]
        y = np.linalg.solve(np.triu(H[:k + 1, :k + 1]), g[:k + 1])
        iterates.append(x0 + V[:, :k + 1] @ y)
        res.append(float(np.linalg.norm(b - A @ iterates[-1])))
        if (failure := stopped()) or res[-1] <= cfg.stop_tol:
            return iterates, res, failure is None, failure
        if happy:
            if res[-1] <= 1e-10 * max(1.0, res[0]):
                return iterates, res, True, None
            return iterates, res, False, Breakdown(
                "Arnoldi produced a zero vector before convergence")
    return iterates, res, False, None


def _assert_gmres_row_matches_single_run(row, problem, x0, cfg, keep):
    """A gmres_batch row equals gmres_run from x0, and the scalar reference loop, bit for bit.

    The row holds the first keep iterates.
    """
    try:
        tr = gmres_run(problem, x0, cfg)
        failure = None
    except AndersonLabError as exc:
        tr, failure = exc.trace, exc
    iterates, res, converged, ref_failure = _gmres_loop_reference(problem, x0, cfg)
    assert type(ref_failure) is type(failure) and str(ref_failure) == str(failure)
    assert converged == tr.converged and _bits(res) == _bits(tr.residual_norms)
    assert np.array(iterates).tobytes() == np.array(tr.iterates).tobytes()
    errs = [float(np.linalg.norm(problem.known_fixed_point - x)) for x in iterates]
    assert _bits(errs) == _bits(tr.error_norms)
    assert type(row.failure) is type(failure) and str(row.failure) == str(failure)
    assert row.converged == tr.converged
    assert _bits(row.residual_norms) == _bits(tr.residual_norms)
    assert _bits(row.error_norms) == _bits(tr.error_norms)
    assert row.x_star_norm == tr.x_star_norm
    expected = np.array(tr.iterates[:keep])
    assert np.array(row.iterates).shape == expected.shape
    assert np.array(row.iterates).tobytes() == expected.tobytes()


class TestGmresBatch:
    def test_happy_breakdown_before_convergence_raises_with_partial_trace(self):
        with pytest.raises(Breakdown, match="zero vector") as exc_info:
            gmres_run(make_affine(BREAKDOWN_SPEC), np.array(BREAKDOWN_X0),
                      AccelConfig(max_iters=10))
        tr = exc_info.value.trace
        assert len(tr) == 3 and len(tr.iterates) == 3 and not tr.converged
        assert 1e-10 < tr.residual_norms[-1] < 1e-6

    def test_traces_keep_no_beta_and_no_rank(self):
        # GMRES solves no AA update, so a rank of 0 would be a made-up value
        p = problem_linear_200(-0.9, 0.7, -0.7)
        cfg = AccelConfig(max_iters=60)
        X0 = np.random.default_rng(4).uniform(-0.25, 0.25, (3, 200))
        traces = [gmres_run(p, X0[0], cfg), *accelerators.gmres_batch(p, X0, cfg, keep=11)]
        assert [len(tr.iterates) for tr in traces] == [len(traces[0]), 11, 11, 11]
        for tr in traces:
            assert tr.beta.shape == (0, 0) and tr.rank.shape == (0,)

    def test_batch_of_one_is_gmres_run(self):
        p = problem_linear_200(-0.9, 0.7, -0.7)
        cfg = AccelConfig(max_iters=60)
        for x0 in np.random.default_rng(3).uniform(-0.25, 0.25, (3, 200)):
            row = accelerators.gmres_batch(p, x0[None], cfg, keep=cfg.max_iters + 1)[0]
            _assert_gmres_row_matches_single_run(row, p, x0, cfg, cfg.max_iters + 1)

    @pytest.mark.parametrize("chunk_size", [None, 1, 3])
    @pytest.mark.parametrize("keep", [0, 4, 61])
    def test_rows_equal_single_runs_bitwise(self, monkeypatch, chunk_size, keep):
        # each batch mixes rows that converge with a start beyond the guard
        # (Diverged) and a NaN start (NonFinite); linear200's row 5 starts at
        # x* = 0 and converges at k = 0.  The 2 x 2 rows end in happy
        # breakdowns, converged at stop_tol = 0 or, for BREAKDOWN_X0 of its
        # own problem, with Breakdown; at stop_tol = 1e-6 its happy step's
        # residual, 1.3e-8, converges instead, as stop_tol comes before the
        # rounding test and Breakdown.  With the diagonal M, x* plus an error
        # on d coordinates has a residual in an invariant subspace of
        # dimension d, so that row stops at step d, between generic rows that
        # run on to step 6
        rng = np.random.default_rng(11)
        diagonal = make_affine(AffineSpec(M=np.diag([-0.8, -0.5, -0.1, 0.3, 0.6, 0.9]),
                                          b=[0.3, -0.7, 0.5, 0.1, -0.2, 0.9]))
        X0_diagonal = np.random.default_rng(5).uniform(-1.0, 1.0, (11, 6))
        for i, support in {0: [1], 3: [0, 2, 5], 5: [3, 4], 7: [0, 1, 3, 5], 8: [4],
                           10: [2, 5]}.items():
            error = np.zeros(6)
            error[support] = X0_diagonal[i, support]
            X0_diagonal[i] = diagonal.known_fixed_point + error
        X0_linear200 = rng.uniform(-0.25, 0.25, (7, 200))
        X0_linear200[5] = 0.0
        X0_2x2 = rng.uniform(-0.25, 0.25, (7, 2))
        X0_breakdown = np.vstack([rng.uniform(-1.0, 1.0, (6, 2)), BREAKDOWN_X0])
        breakdown = make_affine(BREAKDOWN_SPEC)
        cases = [(problem_linear_200(-0.9, 0.7, -0.7), AccelConfig(max_iters=60),
                  X0_linear200, None),
                 (problem_linear_2x2(), AccelConfig(max_iters=10, stop_tol=0.0), X0_2x2, None),
                 (diagonal, AccelConfig(max_iters=10, stop_tol=0.0), X0_diagonal,
                  [2, 7, 1, 4, 1, 3, 7, 5, 2, 7, 3]),
                 (breakdown, AccelConfig(max_iters=10), X0_breakdown, None),
                 (breakdown, AccelConfig(max_iters=10, stop_tol=1e-6), X0_breakdown.copy(), None)]
        last_rows = []
        for problem, cfg, X0, lengths in cases:
            X0[2] *= 1e13
            X0[4, 0] = np.nan
            max_k = min(cfg.max_iters, problem.dim)
            if chunk_size is not None:
                monkeypatch.setattr(linalg, "CHUNK_FLOATS",
                                    (problem.dim + max_k) * (max_k + 1) * chunk_size)
                assert linalg.chunks(len(X0), (problem.dim + max_k) * (max_k + 1))[0] == \
                    slice(0, chunk_size)
            batch = accelerators.gmres_batch(problem, X0, cfg, keep=keep)
            assert len(batch) == len(X0)
            if lengths is not None:
                assert [len(tr) for tr in batch] == lengths
            if problem.dim == 200:
                assert len(batch[5]) == 1 and batch[5].converged
            assert isinstance(batch[2].failure, Diverged)
            assert isinstance(batch[4].failure, NonFinite)
            for row, x0 in zip(batch, X0):
                _assert_gmres_row_matches_single_run(row, problem, x0, cfg, keep)
            last_rows.append(batch[-1])
        assert isinstance(last_rows[-2].failure, Breakdown) and len(last_rows[-2]) == 3
        assert last_rows[-1].converged and last_rows[-1].failure is None
        assert len(last_rows[-1]) == 3

    def test_traces_do_not_share_memory_with_the_starts(self):
        X0 = np.array([[0.2, 0.1], [-0.1, 0.05]])
        x0 = X0[0].copy()
        cfg = AccelConfig(window_m=2, max_iters=10)
        p = problem_linear_2x2()
        traces = [*accelerators.gmres_batch(p, X0, cfg, keep=3), *run_batch(p, X0, cfg, keep=3),
                  gmres_run(p, x0, cfg), run_scheme(p, x0, cfg)]
        X0[:] = x0[:] = 7.0
        for tr, start in zip(traces, [[0.2, 0.1], [-0.1, 0.05]] * 2 + [[0.2, 0.1]] * 2):
            assert tr.iterates[0].tolist() == start

    def test_rejects_bad_input(self):
        cfg = AccelConfig(max_iters=5)
        with pytest.raises(ValueError, match="affine"):
            accelerators.gmres_batch(problem_scalar(), np.full((1, 1), 0.5), cfg)
        for X0 in (np.zeros(2), np.zeros((3, 1)), np.zeros((0, 2))):
            with pytest.raises(ValueError, match="shape"):
                accelerators.gmres_batch(problem_linear_2x2(), X0, cfg)
        with pytest.raises(ValueError, match="keep"):
            accelerators.gmres_batch(problem_linear_2x2(), np.zeros((1, 2)), cfg, keep=-1)


def _check_traces(problem, x0, k_max):
    """AA(k_max) and GMRES traces from x0 over k_max steps, with no stopping test."""
    cfg = AccelConfig(window_m=k_max, max_iters=k_max, stop_tol=0.0)
    return aa_run(problem, x0, cfg), gmres_run(problem, x0, cfg)


class TestGmresCorrespondence:
    def test_linear_2x2_small_kmax(self):
        p = problem_linear_2x2()
        x0 = np.array([0.2, 0.1])
        dev = aa_full_window_vs_gmres_check(p, *_check_traces(p, x0, 2), k_max=2)
        assert dev <= 1e-8

    def test_linear_200_instance(self):
        p = problem_linear_200(-0.3, 0.3, -0.3)
        rng = np.random.default_rng(7)
        x0 = rng.uniform(-1, 1, 200)
        dev = aa_full_window_vs_gmres_check(p, *_check_traces(p, x0, 10), k_max=10)
        assert dev <= 1e-6

    @pytest.mark.parametrize("max_iters, stop_tol", [(60, 1e-3), (5, 0.0)])
    def test_traces_shorter_than_k_max_compare_the_steps_run(self, max_iters, stop_tol):
        p = problem_linear_200(-0.3, 0.3, -0.3)
        x0 = np.random.default_rng(7).uniform(-1, 1, 200)
        cfg = AccelConfig(window_m=60, max_iters=max_iters, stop_tol=stop_tol)
        aa_tr, gmres_tr = aa_run(p, x0, cfg), gmres_run(p, x0, cfg)
        steps = min(len(aa_tr), len(gmres_tr)) - 1
        assert 0 < steps < 10
        assert aa_full_window_vs_gmres_check(p, aa_tr, gmres_tr, k_max=10) == \
            aa_full_window_vs_gmres_check(p, *_check_traces(p, x0, steps), k_max=steps)

    @pytest.mark.parametrize("keep", [2, 3])
    def test_batch_traces_compare_the_steps_kept(self, keep):
        # the traces run 10 steps but keep the first keep - 1 of them
        p = problem_linear_200(-0.3, 0.3, -0.3)
        X0 = np.random.default_rng(7).uniform(-1, 1, (2, 200))
        cfg = AccelConfig(window_m=10, max_iters=10, stop_tol=0.0)
        kept = zip(run_batch(p, X0, cfg, keep=keep),
                   accelerators.gmres_batch(p, X0, cfg, keep=keep))
        for x0, (aa_tr, gmres_tr) in zip(X0, kept):
            assert len(aa_tr) == len(gmres_tr) == 11 and len(aa_tr.iterates) == keep
            full = _check_traces(p, x0, keep - 1)
            assert aa_full_window_vs_gmres_check(p, aa_tr, gmres_tr, k_max=10) == \
                aa_full_window_vs_gmres_check(p, *full, k_max=keep - 1) <= 1e-6

    def test_trace_without_iterates_is_rejected(self):
        p = problem_linear_2x2()
        x0 = np.array([0.2, 0.1])
        cfg = AccelConfig(window_m=2, max_iters=2, stop_tol=0.0)
        with pytest.raises(ValueError, match="iterates"):
            aa_full_window_vs_gmres_check(p, run_batch(p, x0[None], cfg)[0],
                                          gmres_run(p, x0, cfg), k_max=2)

    def test_does_not_rebuild_the_problem(self, monkeypatch):
        # M, b and x* come from the problem, so make_affine is never called
        p = problem_linear_200(-0.3, 0.3, -0.3)

        def rebuild(*args, **kwargs):
            raise AssertionError("make_affine called")

        monkeypatch.setattr(accelerators, "make_affine", rebuild)
        x0 = np.random.default_rng(7).uniform(-1, 1, 200)
        tr = gmres_run(p, x0, AccelConfig(max_iters=30, stop_tol=0.0))
        assert tr.error_norms is not None and len(tr) == 31
        assert aa_full_window_vs_gmres_check(p, *_check_traces(p, x0, 10), k_max=10) <= 1e-6

    def test_stagnation_detected(self):
        # A = I - M is a rotation by 90 degrees: r0 is orthogonal to A r0 and
        # the first GMRES step makes no progress
        M = np.array([[1.0, -1.0], [1.0, 1.0]])
        spec = AffineSpec(M=M, b=np.zeros(2))
        p, x0 = make_affine(spec), np.array([1.0, 0.0])
        with pytest.raises(StagnationDetected):
            aa_full_window_vs_gmres_check(p, *_check_traces(p, x0, 2), k_max=2)

    @pytest.mark.parametrize("res, message", [
        ([1.0, 0.5, 0.5, 0.1], "at step 1 (5.000e-01 -> 5.000e-01)"),
        # a NaN compares as no stall; the first stall is reported
        ([1.0, np.nan, 0.5, 0.6, 0.7], "at step 2 (5.000e-01 -> 6.000e-01)"),
    ])
    def test_stagnation_names_the_first_stalled_step(self, res, message):
        p = problem_linear_2x2()
        iterates = np.zeros((len(res), 2))
        with pytest.raises(StagnationDetected) as exc:
            aa_full_window_vs_gmres_check(p, IterationTrace(iterates=iterates),
                                          IterationTrace(iterates=iterates,
                                                         residual_norms=np.array(res)), k_max=10)
        assert str(exc.value) == "GMRES residual did not strictly decrease " + message


def _assert_row_matches_single_run(batch, i, problem, x0, cfg):
    """Row i of a run_batch result equals run_scheme from x0 bit for bit."""
    try:
        tr = run_scheme(problem, x0, cfg)
        failure = None
    except AndersonLabError as exc:
        tr, failure = exc.trace, exc
    row = batch[i]
    assert type(row.failure) is type(failure)
    assert len(row) == len(tr)
    # assert_array_equal compares floats exactly and NaN equal to NaN
    np.testing.assert_array_equal(row.residual_norms, tr.residual_norms)
    np.testing.assert_array_equal(row.error_norms, tr.error_norms)
    np.testing.assert_array_equal(row.sigma_k, tr.sigma_k)
    if failure is None:
        assert row.converged == tr.converged


def _assert_kept_betas(row, tr, keep):
    """A run_batch row with keep holds the beta and rank of its single run tr, bit for bit.

    Those produced its kept iterates: max(0, min(keep, len) - 1) steps, whose
    beta rows are the single run's first columns, keep - 1 at most; the
    columns left out are NaN.
    """
    kept, width = max(0, min(keep, len(tr)) - 1), min(tr.beta.shape[1], max(keep - 1, 0))
    assert row.beta.shape == (kept, width) and row.rank.shape == (kept,)
    assert row.beta.tobytes() == tr.beta[:kept, :width].tobytes()
    assert np.isnan(tr.beta[:kept, width:]).all()
    assert row.rank.dtype == tr.rank.dtype and row.rank.tobytes() == tr.rank[:kept].tobytes()


def _random_contraction(seed, n):
    """Affine spec with a random M scaled to rho(M) < 1 and a random b."""
    rng = np.random.default_rng(seed)
    M = rng.standard_normal((n, n))
    M *= rng.uniform(0.1, 0.95) / np.max(np.abs(np.linalg.eigvals(M)))
    return AffineSpec(M=M, b=rng.standard_normal(n)), rng


def _logged_steps(monkeypatch, problem):
    """problem with the run loop's q calls and AA updates logged in order.

    The log gets ("q", rows) for each q call and ("update", rows, mk) for
    each update of mk columns (history length mk + 1).
    """
    log = []
    update = accelerators._aa_update

    def logged_update(q_hist, r_hist):
        log.append(("update", len(q_hist[-1]), len(q_hist) - 1))
        return update(q_hist, r_hist)

    def logged_q(X):
        log.append(("q", len(X)))
        return problem.q(X)

    monkeypatch.setattr(accelerators, "_aa_update", logged_update)
    return replace(problem, q=logged_q), log


def _chunked_step(log):
    """True when some step of the log makes more than one update call (a chunked update)."""
    return any(a[0] == b[0] == "update" for a, b in zip(log, log[1:]))


STEP_LOG_RSS = """
import resource
import numpy as np
from anderson_lab.accelerators import AccelConfig, run_batch
from anderson_lab.problems import AffineSpec, make_affine
problem = make_affine(AffineSpec(M=np.diag([0.999, 0.5]), b=np.zeros(2)))
X0 = np.random.default_rng(0).uniform(-1.0, 1.0, (1000, 2))
cfg = AccelConfig(window_m=0, max_iters=2000, stop_tol=0.0)
start = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
traces = run_batch(problem, X0, cfg)
peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
assert [len(tr) for tr in traces] == [2001] * 1000
print((peak - start) * 1024)  # ru_maxrss is in KiB
"""

# AA(6)'s memory over 8 steps of 2000 rows at n = 200 with stop_tol = 0
WIDE_BATCH_RSS = """
import resource
import numpy as np
from anderson_lab.accelerators import AccelConfig, run_batch
from anderson_lab.problems import problem_from_id
problem = problem_from_id("linear200")
X0 = np.random.default_rng(0).uniform(-0.25, 0.25, (2000, 200))
start = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
traces = run_batch(problem, X0, AccelConfig(window_m=6, max_iters=8, stop_tol=0.0))
peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
assert [len(tr) for tr in traces] == [9] * 2000
print((peak - start) * 1024)  # ru_maxrss is in KiB
"""


# psi_apply on 10000 linear200 states at m = 3, a 61 MiB stack
LIFTED_MAP_RSS = """
import resource
import numpy as np
from anderson_lab.augmented import psi_apply
from anderson_lab.problems import problem_from_id
problem = problem_from_id("linear200:-0.9,0.7,-0.7")
Z = np.random.default_rng(0).uniform(-1.0, 1.0, (10000, 4, 200))
start = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
assert psi_apply(problem, Z).shape == Z.shape
peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print((peak - start) * 1024)  # ru_maxrss is in KiB
"""


def _rss_growth(script: str) -> int:
    """The ru_maxrss growth in bytes that script prints, run in a fresh interpreter."""
    src = str(Path(accelerators.__file__).resolve().parents[1])
    path = [src, os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [src]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path), OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                          capture_output=True, text=True, timeout=120)
    return int(proc.stdout)


class TestRunBatch:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.sampled_from([1, 2, 5]),
           m=st.integers(0, 4), restart=st.booleans(), B=st.integers(1, 8),
           stop_tol=st.sampled_from([0.0, 1e-10]))
    def test_matches_single_runs_bitwise(self, seed, n, m, restart, B, stop_tol):
        spec, rng = _random_contraction(seed, n)
        problem = make_affine(spec)
        X0 = rng.uniform(-1.0, 1.0, (B, n))
        # restart needs a window: m = 0 runs plain FP
        cfg = AccelConfig(window_m=m, restart=restart and m >= 1, max_iters=40,
                          stop_tol=stop_tol)
        batch = run_batch(problem, X0, cfg)
        assert len(batch) == B
        for i in range(B):
            _assert_row_matches_single_run(batch, i, problem, X0[i], cfg)

    # the step log's tables start with room for STEPS0 steps and double: with
    # max_iters = 40, rows stop on both sides of 16 and 32 (at STEPS0 = 16),
    # and keep is 0, inside the first room, beyond it or beyond every row
    @pytest.mark.parametrize("keep", [0, 1, accelerators._Steps.STEPS0 // 2,
                                      accelerators._Steps.STEPS0 + 1,
                                      2 * accelerators._Steps.STEPS0 + 5, 45])
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.sampled_from([1, 2, 5]),
           m=st.integers(0, 4), restart=st.booleans(), B=st.integers(1, 8),
           nan_below=st.sampled_from([None, -0.5]))
    def test_kept_iterates_equal_single_runs_bitwise(self, seed, n, m, restart, B, keep,
                                                     nan_below):
        spec, rng = _random_contraction(seed, n)
        problem = make_affine(spec)
        if nan_below is not None:  # rows that reach x_1 < nan_below fail with NonFinite
            affine = problem
            problem = replace(affine, q=lambda x: np.where(
                np.asarray(x)[..., :1] < nan_below, np.nan, affine.q(x)))
        X0 = rng.uniform(-1.0, 1.0, (B, n))
        X0[rng.random(B) < 0.25] *= 1e13  # rows that start outside the guard: Diverged
        at_x_star = rng.random(B) < 0.25
        X0[at_x_star] = problem.known_fixed_point  # rows that stop at k = 0
        cfg = AccelConfig(window_m=m, restart=restart and m >= 1, max_iters=40)
        batch = run_batch(problem, X0, cfg, keep=keep)
        assert all(len(batch[i]) == 1 for i in np.flatnonzero(at_x_star))
        assert all(tr.iterates.shape == (0, n) and tr.beta.shape == (0, 0)
                   and tr.rank.shape == (0,) for tr in run_batch(problem, X0, cfg))
        for i in range(B):
            try:
                tr = run_scheme(problem, X0[i], cfg)
            except AndersonLabError as exc:
                tr = exc.trace
            expected = np.array(tr.iterates[:keep])
            assert np.array(batch[i].iterates).shape == expected.shape
            assert np.array(batch[i].iterates).tobytes() == expected.tobytes()
            assert np.array_equal(batch[i].iterates, expected)
            _assert_kept_betas(batch[i], tr, keep)

    def test_beta_width_is_capped_at_the_kept_steps(self):
        # the window, 10**6, is wider than the 10 kept steps can use
        problem = problem_from_id("linear200")
        X0 = np.random.default_rng(9).uniform(-0.25, 0.25, (3, problem.dim))
        cfg = AccelConfig(window_m=10**6, max_iters=20, stop_tol=0.0)
        for tr in run_batch(problem, X0, cfg, keep=11):
            assert len(tr) == 21 and tr.beta.shape == (10, 10) and tr.rank.shape == (10,)

    def test_step_log_memory_follows_the_steps_taken(self):
        # FP on M = diag(0.999, 0.5) with stop_tol = 0: 1000 rows run all
        # 2000 steps.  The step log holds 16 bytes (two norms) per row-step;
        # the bound leaves room for one doubling of its tables
        assert _rss_growth(STEP_LOG_RSS) <= 32 * 1000 * 2000

    def test_wide_batch_memory_is_its_histories(self):
        # every running row holds its 7 q and 7 r history entries, 2 n 7
        # floats, and the update's temporaries stay within CHUNK_FLOATS.  The
        # bound adds six (B, n) arrays (the iterates, the next ones and the
        # norms' temporaries) and 4 CHUNK_FLOATS; an unchunked update (R, Q
        # and U of every row) or a copy of the histories exceeds it
        B, n = 2000, 200
        histories = 2 * n * 7 * B
        assert _rss_growth(WIDE_BATCH_RSS) <= 8 * (histories + 6 * B * n + 4 * linalg.CHUNK_FLOATS)

    def test_lifted_map_memory_is_its_output(self):
        # the lifted map steps its states in chunks as the run loop steps its
        # rows, each chunk evaluating q and its residuals on its own.  The
        # bound holds the output stack, the new newest blocks twice (the
        # chunks' and their join) and 4 CHUNK_FLOATS; q and the residuals
        # of the whole stack at once exceed it
        S, m, n = 10000, 3, 200
        assert _rss_growth(LIFTED_MAP_RSS) <= 8 * (S * (m + 1) * n + 2 * S * n
                                                  + 4 * linalg.CHUNK_FLOATS)

    def test_keep_must_not_be_negative(self):
        with pytest.raises(ValueError):
            run_batch(problem_linear_2x2(), np.zeros((1, 2)), AccelConfig(), keep=-1)

    @pytest.mark.parametrize("cfg", [AccelConfig(window_m=0), AccelConfig(window_m=1)])
    def test_norm_lists_are_floats_equal_to_single_runs(self, cfg):
        problem = problem_linear_2x2()
        # row 0 starts at x* and stops at k = 0; the others stop at other k
        X0 = np.array([problem.known_fixed_point, [1e-9, 0.0], [0.0, 1e-6], [3.0, -2.0]])
        batch = run_batch(problem, X0, cfg)
        assert len(batch[0]) == 1
        assert len({len(tr) for tr in batch}) == len(batch)
        for x0, tr in zip(X0, batch):
            for norms in (tr.residual_norms, tr.error_norms):
                assert norms.dtype == np.float64 and norms.ndim == 1
            single = run_scheme(problem, x0, cfg)
            assert _bits(tr.residual_norms) == _bits(single.residual_norms)
            assert _bits(tr.error_norms) == _bits(single.error_norms)

    @pytest.mark.parametrize("cfg", [
        AccelConfig(window_m=0, max_iters=100),
        # under the huge eps below every AA step is the FP step, which diverges
        AccelConfig(window_m=2, max_iters=100),
    ])
    def test_diverging_rows_fail_alone(self, cfg, monkeypatch):
        monkeypatch.setattr(linalg, "_EPS", 1e30 * linalg._EPS)
        problem = make_affine(AffineSpec(M=np.diag([2.0, 0.5]), b=np.zeros(2)))
        X0 = np.array([[0.0, 1.0], [1e-3, 0.5], [0.0, -0.3], [2.0, 2.0], [0.0, 0.7]])
        batch = run_batch(problem, X0, cfg)
        for i, x0 in enumerate(X0):
            if x0[0] != 0.0:
                assert isinstance(batch[i].failure, Diverged)
            else:
                assert batch[i].failure is None and batch[i].converged
            _assert_row_matches_single_run(batch, i, problem, x0, cfg)

    def test_non_affine_failures_stay_per_init(self):
        # q(x) = x / 2, NaN below 0.3: 0.2 is NaN at once, 0.5 after one step
        # and 1.0 after the secant step to 0; the scalar map fails at x = 0
        nan_below = TestNonFiniteResidual._nan_below(0.3)
        X0 = np.array([[1.0], [0.2], [0.5]])
        cfg = AccelConfig(window_m=1, max_iters=50, stop_tol=0.0)
        batch = run_batch(nan_below, X0, cfg)
        assert [type(tr.failure) for tr in batch] == [NonFinite] * 3
        for i, x0 in enumerate(X0):
            _assert_row_matches_single_run(batch, i, nan_below, x0, cfg)
        # -1.0 fails after one step (q(-1) = 0), 0.0 at once
        X0 = np.array([[1.0], [0.0], [2.0], [-1.0]])
        cfg = AccelConfig(window_m=1, max_iters=20)
        scalar = run_batch(problem_scalar(), X0, cfg)
        assert scalar[0].failure is None and scalar[0].converged
        assert isinstance(scalar[1].failure, EvalError)
        assert scalar[2].failure is None and scalar[2].converged
        assert isinstance(scalar[3].failure, EvalError)
        assert [len(scalar[i].residual_norms) for i in (1, 3)] == [1, 2]
        for i, x0 in enumerate(X0):
            _assert_row_matches_single_run(scalar, i, problem_scalar(), x0, cfg)

    def test_error_without_rows_fails_every_running_row(self):
        # q(x) = x / 2, but an EvalError without a row mask once any x < 0.3
        def q(x):
            if np.any(x < 0.3):
                raise EvalError("below 0.3")
            return 0.5 * x

        p = FixedPointProblem(dim=1, q=q, known_fixed_point=np.zeros(1))
        # FP from 0.5 reaches 0.25 at k = 1, which fails the other rows too
        batch = run_batch(p, np.array([[1.0], [0.5], [100.0]]), AccelConfig(window_m=0))
        assert [str(tr.failure) for tr in batch] == ["below 0.3"] * 3
        assert all(len(tr) == 2 and np.isnan(tr.residual_norms[-1]) for tr in batch)

    def test_non_affine_batch_makes_one_solve_per_step(self, monkeypatch):
        solves = []

        def counted(*args, **kwargs):
            solves.append(1)
            return _stacked_solve(*args, **kwargs)

        monkeypatch.setattr(accelerators, "_stacked_solve", counted)
        X0 = np.random.default_rng(5).uniform(-0.25, 0.25, (50, 2))
        cfg = AccelConfig(window_m=3, max_iters=100)
        batch = run_batch(problem_nonlinear_2x2(), X0, cfg)
        assert all(tr.converged for tr in batch)
        assert 0 < len(solves) <= cfg.max_iters

    def test_rows_independent_of_batch_size(self, monkeypatch):
        problem = problem_linear_2x2()
        X0 = np.random.default_rng(3).uniform(-0.25, 0.25, (300, 2))
        sample = range(0, 300, 23)
        for cfg, keep in itertools.product(
                (AccelConfig(window_m=0), AccelConfig(window_m=1),
                 AccelConfig(window_m=2, restart=True)), (0, 5)):
            alone = {i: run_scheme(problem, X0[i], cfg) for i in sample}
            # a budget that fits 160 rows at window 0, 80 at window 1 and 53 at
            # window 2; one that fits 20, 10 and 6; and the default, which
            # chunks nothing.  Restarted AA(2) chunks its updates across its
            # restarts at k = 3 and 6
            for budget in (5 * 2 * 1 * 160, 5 * 2 * 1 * 20, None):
                with monkeypatch.context() as patch:
                    if budget is not None:
                        patch.setattr(linalg, "CHUNK_FLOATS", budget)
                    logged, log = _logged_steps(patch, problem)
                    batch = run_batch(logged, X0, cfg, keep=keep)
                assert len(batch) == 300
                assert log[0] == ("q", 300)  # every row takes step 0 together
                if budget is not None:
                    assert _chunked_step(log)
                for i in sample:
                    np.testing.assert_array_equal(alone[i].residual_norms,
                                                  batch[i].residual_norms)
                    np.testing.assert_array_equal(alone[i].error_norms, batch[i].error_norms)
                    assert alone[i].converged == batch[i].converged
                    assert len(batch[i].iterates) == min(keep, len(alone[i]))
                    np.testing.assert_array_equal(alone[i].iterates[:keep], batch[i].iterates)
                    _assert_kept_betas(batch[i], alone[i], keep)

    @pytest.mark.parametrize("problem_id, B, cfg, budget", [
        ("linear2x2", 300, AccelConfig(window_m=1), 5 * 2 * 1 * 20),
        ("linear2x2", 300, AccelConfig(window_m=2, restart=True), 5 * 2 * 1 * 20),
        # the AA(inf) batch of the krylov-200 benchmark command
        ("linear200", 50, AccelConfig(window_m=60, max_iters=60), None),
        ("linear200", 20, AccelConfig(window_m=3, max_iters=30), 5 * 200 * 3 * 7),
    ])
    def test_multi_row_steps_fit_the_budget(self, monkeypatch, problem_id, B, cfg, budget):
        if budget is not None:
            monkeypatch.setattr(linalg, "CHUNK_FLOATS", budget)
        problem = problem_from_id(problem_id)
        X0 = np.random.default_rng(4).uniform(-0.25, 0.25, (B, problem.dim))
        logged, log = _logged_steps(monkeypatch, problem)
        batch = run_batch(logged, X0, cfg)
        assert all(tr.converged for tr in batch)
        updates = [entry[1:] for entry in log if entry[0] == "update"]
        assert max(rows for rows, _ in updates) > 1
        for rows, mk in updates:
            assert rows == 1 or 5 * problem.dim * (mk + 1) * rows <= linalg.CHUNK_FLOATS

    @pytest.mark.parametrize("problem_id, B, cfg, exact", [
        ("linear200:-0.9,0.7,-0.7", 10, AccelConfig(window_m=6), False),
        ("linear200:-0.9,0.7,-0.7", 10, AccelConfig(window_m=6, restart=True), False),
        ("linear2x2", 200, AccelConfig(window_m=0), False),
        ("linear2x2", 200, AccelConfig(window_m=1), False),
        ("linear200:-0.9,0.7,-0.7", 10, AccelConfig(window_m=6), True),
        ("linear2x2", 200, AccelConfig(window_m=1), True),
    ])
    def test_batch_within_the_budget_runs_as_one_cohort(self, monkeypatch, problem_id, B, cfg,
                                                        exact):
        # the sizes of the msweep-200 and spectra-2x2 benchmark commands, with
        # the default budget or one the full window's footprint just fits
        problem = problem_from_id(problem_id)
        if exact:
            monkeypatch.setattr(linalg, "CHUNK_FLOATS", 5 * problem.dim * (cfg.window_m + 1) * B)
        X0 = np.random.default_rng(5).uniform(-0.25, 0.25, (B, problem.dim))
        logged, log = _logged_steps(monkeypatch, problem)
        batch = run_batch(logged, X0, cfg)
        q_rows = [rows for event, rows, *_ in log if event == "q"]
        assert q_rows[0] == B
        assert len(q_rows) == max(map(len, batch))  # one q call per step
        assert q_rows == sorted(q_rows, reverse=True)
        # and one update call, unchunked, between two q calls
        assert [event for event, *_ in log].count("update") == len(q_rows) - 1

    def test_failures_across_splits_equal_single_runs(self, monkeypatch):
        # q = 1 + 1/x raises EvalError on the rows at 0: 0 at once, -1 after
        # one step; 1e13 is outside the guard (Diverged at k = 0) and 1e-13
        # steps out of it (Diverged at k = 1)
        problem = problem_scalar()
        X0 = np.array([1.0, 0.0, 2.0, -1.0, 1e13, 3.0, 1e-13, 0.5, -1.0, 0.0,
                       1e13, 1e-13, 0.25, 5.0, 0.0, -1.0])[:, None]
        # update chunks of 4 rows at window 0 and 2 at window 1: the rows
        # that stay after a mask's rows fail are spread over several chunks
        monkeypatch.setattr(linalg, "CHUNK_FLOATS", 5 * 1 * 1 * 4)
        for cfg in (AccelConfig(window_m=0, max_iters=60), AccelConfig(window_m=1, max_iters=20),
                    AccelConfig(window_m=2, restart=True, max_iters=20)):
            batch = run_batch(problem, X0, cfg)
            assert {type(tr.failure) for tr in batch} == {type(None), EvalError, Diverged}
            for i, x0 in enumerate(X0):
                _assert_row_matches_single_run(batch, i, problem, x0, cfg)

    def test_unknown_fixed_point_gives_nan_error_columns(self, monkeypatch):
        # q(x) = x / 2 without its fixed point: every error-based value is NaN,
        # with no warning, and every row equals its single run, its update
        # chunked or not
        problem = FixedPointProblem(dim=2, q=lambda x: 0.5 * x)
        X0 = np.random.default_rng(6).uniform(-1.0, 1.0, (12, 2))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for cfg, budget in itertools.product(
                    (AccelConfig(window_m=0), AccelConfig(window_m=1),
                     AccelConfig(window_m=2, restart=True)),
                    (None, 5 * 2 * 1 * 3)):  # the default, and one that fits 3 rows at k = 0
                with monkeypatch.context() as patch:
                    if budget is not None:
                        patch.setattr(linalg, "CHUNK_FLOATS", budget)
                    logged, log = _logged_steps(patch, problem)
                    batch = run_batch(logged, X0, cfg)
                assert log[0] == ("q", 12)
                for i, (x0, tr) in enumerate(zip(X0, batch)):
                    _assert_row_matches_single_run(batch, i, problem, x0, cfg)
                    assert tr.failure is None and tr.converged
                    assert tr.error_norms.dtype == np.float64
                    assert tr.error_norms.shape == (len(tr),) and np.isnan(tr.error_norms).all()
                    assert len(tr.sigma_k) == len(tr.error_ratios) == len(tr)
                    assert np.isnan(tr.sigma_k).all() and np.isnan(tr.error_ratios).all()
                    assert type(tr.x_star_norm) is float and np.isnan(tr.x_star_norm)

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            run_batch(problem_linear_2x2(), np.zeros(2), AccelConfig())
        with pytest.raises(ValueError):
            run_batch(problem_linear_2x2(), np.zeros((3, 1)), AccelConfig())
