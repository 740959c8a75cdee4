import itertools
from dataclasses import replace

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
from anderson_lab.errors import (AndersonLabError, Diverged, EvalError, NonFinite,
                                 StagnationDetected)
from anderson_lab.linalg import stacked_anderson_coefficients
from anderson_lab.problems import (
    AffineSpec,
    FixedPointProblem,
    make_affine,
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
        assert len(tr.betas) == 2

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
        x1, beta = aa_step(p, [x0])
        np.testing.assert_allclose(x1, p.q(x0), atol=0)
        assert beta.beta.shape == (0,)

    def test_equal_residuals_degenerate_to_fp(self):
        p = problem_linear_2x2()
        x = np.array([0.2, 0.1])
        x_next, beta = aa_step(p, [x, x])
        np.testing.assert_allclose(x_next, p.q(x), atol=0)
        assert np.all(beta.beta == 0.0)
        assert beta.rank == 0

    def test_orthogonal_residuals_hand_value(self):
        # residuals [0,1] then [1,0]: beta = -r_k.(r_k - r_{k-1}) / ||r_k - r_{k-1}||^2
        p = make_affine(AffineSpec(M=0.5 * np.eye(2), b=np.zeros(2)))
        x_prev = np.array([0.0, 2.0])   # r = [0, 1]
        x_k = np.array([2.0, 0.0])      # r = [1, 0]
        x_next, beta = aa_step(p, [x_prev, x_k])
        assert abs(beta.beta[0] - (-0.5)) < 1e-14
        expected = p.q(x_k) + beta.beta[0] * (p.q(x_k) - p.q(x_prev))
        np.testing.assert_allclose(x_next, expected, atol=1e-14)

    def test_optimality_over_beta_zero(self):
        p = problem_linear_2x2()
        rng = np.random.default_rng(5)
        hist = [rng.standard_normal(2) for _ in range(3)]
        _, beta = aa_step(p, hist)
        assert beta.ls_objective <= beta.residual_norm_before + 1e-12


class TestAaRun:
    def test_window_discipline(self):
        p = problem_linear_2x2()
        m = 3
        tr = aa_run(p, np.array([0.2, 0.1]), AccelConfig(window_m=m, max_iters=10, stop_tol=0.0))
        for k, beta in enumerate(tr.betas):
            assert beta.beta.shape == (min(k, m),)

    def test_forced_beta_zero_reproduces_fp_bitwise(self, monkeypatch):
        # a huge eps makes every column of R negligible next to ||r||, so the
        # degenerate-step rule gives beta = 0 on every step
        monkeypatch.setattr(linalg, "_EPS", 1e30 * linalg._EPS)
        p = problem_linear_2x2()
        x0 = np.array([0.21, -0.13])
        cfg = AccelConfig(window_m=2, max_iters=40, stop_tol=0.0)
        tr_aa = aa_run(p, x0, cfg)
        assert all(b.rank == 0 and not np.any(b.beta) for b in tr_aa.betas)
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
            mp.setattr(accelerators, "stacked_anderson_coefficients",
                       lambda R, r: (np.zeros(R.shape[::2]), np.zeros(len(R), dtype=int)))
            tr_aa = run_scheme(p, x0, cfg)
        assert any(b.beta.size for b in tr_aa.betas)
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
        tail = [b.beta[0] for b in tr.betas[50:100]]
        assert max(tail) - min(tail) > 0.05

    def test_trace_alignment(self):
        p = problem_linear_2x2()
        tr = aa_run(p, np.array([0.2, 0.1]), AccelConfig(window_m=1, max_iters=20, stop_tol=0.0))
        assert len(tr.betas) == len(tr.iterates) - 1
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

    def test_no_error_norms_gives_none(self):
        tr = IterationTrace(residual_norms=[1.0, 0.5])
        assert tr.sigma_k is None and tr.error_ratios is None



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
        tr = run_scheme(p, np.array([0.2, 0.1]),
                        AccelConfig(window_m=2, restart=True, max_iters=9, stop_tol=0.0))
        sizes = [b.beta.shape[0] for b in tr.betas]
        assert sizes == [0, 1, 2, 0, 1, 2, 0, 1, 2]


class TestRunScheme:
    def test_dispatch(self):
        p = problem_linear_2x2()
        x0 = np.array([0.2, 0.1])
        fp = run_scheme(p, x0, AccelConfig(window_m=0, max_iters=5, stop_tol=0.0))
        aa = run_scheme(p, x0, AccelConfig(window_m=1, max_iters=5, stop_tol=0.0))
        rs = run_scheme(p, x0, AccelConfig(window_m=1, restart=True, max_iters=5, stop_tol=0.0))
        assert all(b.beta.size == 0 for b in fp.betas)
        assert aa.betas[1].beta.size == 1
        assert len(rs) == 6


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
        assert tr.error_norms == errs
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


def _random_contraction(seed, n):
    """Affine spec with a random M scaled to rho(M) < 1 and a random b."""
    rng = np.random.default_rng(seed)
    M = rng.standard_normal((n, n))
    M *= rng.uniform(0.1, 0.95) / np.max(np.abs(np.linalg.eigvals(M)))
    return AffineSpec(M=M, b=rng.standard_normal(n)), rng


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

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.sampled_from([1, 2, 5]),
           m=st.integers(0, 4), restart=st.booleans(), B=st.integers(1, 8),
           keep=st.integers(1, 45), nan_below=st.sampled_from([None, -0.5]))
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
        cfg = AccelConfig(window_m=m, restart=restart and m >= 1, max_iters=40)
        batch = run_batch(problem, X0, cfg, keep=keep)
        assert all(tr.iterates == [] for tr in run_batch(problem, X0, cfg))
        for i in range(B):
            try:
                tr = run_scheme(problem, X0[i], cfg)
            except AndersonLabError as exc:
                tr = exc.trace
            expected = np.array(tr.iterates[:keep])
            assert np.array(batch[i].iterates).shape == expected.shape
            assert np.array(batch[i].iterates).tobytes() == expected.tobytes()
            assert np.array_equal(batch[i].iterates, expected)

    def test_keep_must_not_be_negative(self):
        with pytest.raises(ValueError):
            run_batch(problem_linear_2x2(), np.zeros((1, 2)), AccelConfig(), keep=-1)

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
            return stacked_anderson_coefficients(*args, **kwargs)

        monkeypatch.setattr(accelerators, "stacked_anderson_coefficients", counted)
        X0 = np.random.default_rng(5).uniform(-0.25, 0.25, (50, 2))
        cfg = AccelConfig(window_m=3, max_iters=100)
        batch = run_batch(problem_nonlinear_2x2(), X0, cfg)
        assert all(tr.converged for tr in batch)
        assert 0 < len(solves) <= cfg.max_iters

    def test_rows_independent_of_batch_size(self, monkeypatch):
        problem = problem_linear_2x2()
        X0 = np.random.default_rng(3).uniform(-0.25, 0.25, (1000, 2))
        # rows per chunk: all 1000 in one (None), or ragged chunks of 333 and 7
        for chunk, cfg, keep in itertools.product(
                (None, 333, 7), (AccelConfig(window_m=0), AccelConfig(window_m=1),
                                 AccelConfig(window_m=2, restart=True)), (0, 5)):
            with monkeypatch.context() as patch:
                if chunk is not None:
                    patch.setattr(linalg, "CHUNK_FLOATS", 5 * 2 * (cfg.window_m + 1) * chunk)
                    assert accelerators.rows_per_chunk(2, cfg.window_m) == chunk
                batch = run_batch(problem, X0, cfg, keep=keep)
                assert len(batch) == 1000
                for i in range(0, 1000, 97):
                    alone = run_batch(problem, X0[i:i + 1], cfg, keep=keep)[0]
                    np.testing.assert_array_equal(alone.residual_norms, batch[i].residual_norms)
                    np.testing.assert_array_equal(alone.error_norms, batch[i].error_norms)
                    assert alone.converged == batch[i].converged
                    assert len(batch[i].iterates) == min(keep, len(alone))
                    np.testing.assert_array_equal(alone.iterates, batch[i].iterates)

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            run_batch(problem_linear_2x2(), np.zeros(2), AccelConfig())
        with pytest.raises(ValueError):
            run_batch(problem_linear_2x2(), np.zeros((3, 1)), AccelConfig())
