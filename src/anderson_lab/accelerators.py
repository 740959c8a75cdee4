"""Iterative schemes: plain fixed-point, windowed/restarted AA(m), dense GMRES.

All runs record an IterationTrace whose sequences are aligned by iteration
index k.  Error-based quantities (error norms, sigma_k, error ratios) are only
recorded when the problem knows its fixed point; the stopping test always uses
the residual norm, which is available for any problem.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .errors import Breakdown, Diverged, NonFinite, StagnationDetected
from .linalg import anderson_coefficients
from .problems import AffineSpec, FixedPointProblem, make_affine

DIVERGENCE_GUARD = 1e12


@dataclass(frozen=True)
class AccelConfig:
    """Run parameters; window_m = 0 means the plain fixed-point iteration."""

    window_m: int = 1
    restart: bool = False
    max_iters: int = 100
    stop_tol: float = 1e-12
    rank_tol_scale: float = 1.0

    def __post_init__(self):
        if self.window_m < 0:
            raise ValueError("window_m must be >= 0")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if self.stop_tol <= 0 and self.stop_tol != 0.0:
            raise ValueError("stop_tol must be positive (or exactly 0 to disable)")
        if self.rank_tol_scale <= 0:
            raise ValueError("rank_tol_scale must be positive")


@dataclass(frozen=True)
class BetaSolution:
    """Least-squares coefficients of one AA step plus diagnostics."""

    beta: np.ndarray
    residual_norm_before: float
    ls_objective: float
    rank: int


@dataclass
class IterationTrace:
    """Per-iteration record of one run.

    betas[k] is the coefficient solution used to produce iterates[k + 1]; the
    list is one shorter than the iterate list.  sigma_k[0] and error_ratios[0]
    are NaN by convention.
    """

    iterates: list = field(default_factory=list)
    residual_norms: list = field(default_factory=list)
    error_norms: Optional[list] = None
    sigma_k: Optional[list] = None
    error_ratios: Optional[list] = None
    betas: list = field(default_factory=list)
    x_star_norm: Optional[float] = None
    converged: bool = False

    def __len__(self) -> int:
        return len(self.iterates)


def _trace_for(problem: FixedPointProblem) -> IterationTrace:
    tr = IterationTrace()
    if problem.known_fixed_point is not None:
        tr.error_norms = []
        tr.sigma_k = []
        tr.error_ratios = []
        tr.x_star_norm = float(np.linalg.norm(problem.known_fixed_point))
    return tr


def _record(tr: IterationTrace, problem: FixedPointProblem, x: np.ndarray, r_norm: float) -> None:
    k = len(tr.iterates)
    tr.iterates.append(x)
    tr.residual_norms.append(r_norm)
    if tr.error_norms is not None:
        err = float(np.linalg.norm(problem.known_fixed_point - x))
        tr.error_norms.append(err)
        tr.sigma_k.append(err ** (1.0 / k) if k >= 1 else float("nan"))
        if k >= 1 and tr.error_norms[k - 1] > 0.0:
            tr.error_ratios.append(err / tr.error_norms[k - 1])
        else:
            tr.error_ratios.append(float("nan"))


def _record_finite(tr: IterationTrace, problem: FixedPointProblem, x: np.ndarray,
                   r: np.ndarray) -> None:
    """_record, then raise NonFinite with the trace if ||r|| is NaN or Inf.

    The divergence guard cannot catch a NaN iterate, because NaN > bound is False.
    """
    r_norm = float(np.linalg.norm(r))
    _record(tr, problem, x, r_norm)
    if not math.isfinite(r_norm):
        raise NonFinite(f"residual norm is {r_norm} at k = {len(tr) - 1}", trace=tr)


def _aa_next(q_hist: Sequence[np.ndarray], r_hist: Sequence[np.ndarray],
             rank_tol_scale: float) -> tuple[np.ndarray, BetaSolution]:
    """One AA update from cached q/r values, oldest first, newest last."""
    qk = q_hist[-1]
    rk = r_hist[-1]
    mk = len(q_hist) - 1
    if mk == 0:
        beta = BetaSolution(
            beta=np.zeros(0),
            residual_norm_before=float(np.linalg.norm(rk)),
            ls_objective=float(np.linalg.norm(rk)),
            rank=0,
        )
        return qk.copy(), beta
    # column i (0-based) pairs with lag i+1
    R = np.stack([rk - r_hist[-2 - i] for i in range(mk)], axis=1)
    Q = np.stack([qk - q_hist[-2 - i] for i in range(mk)], axis=1)
    coeffs, info = anderson_coefficients(R, rk, rank_tol_scale=rank_tol_scale)
    x_next = qk + Q @ coeffs
    beta = BetaSolution(
        beta=coeffs,
        residual_norm_before=float(np.linalg.norm(rk)),
        ls_objective=float(np.linalg.norm(rk + R @ coeffs)),
        rank=info.numerical_rank,
    )
    return x_next, beta


def aa_step(
    problem: FixedPointProblem,
    history: Sequence[np.ndarray],
    rank_tol_scale: float = 1.0,
) -> tuple[np.ndarray, BetaSolution]:
    """One AA update from the last min(k, m) + 1 iterates (newest last)."""
    if not len(history):
        raise ValueError("history must contain at least the current iterate")
    xs = [np.asarray(x, dtype=float) for x in history]
    q_hist = [problem.q(x) for x in xs]
    r_hist = [x - qx for x, qx in zip(xs, q_hist)]
    return _aa_next(q_hist, r_hist, rank_tol_scale)


def _run_windowed(
    problem: FixedPointProblem,
    x0: np.ndarray,
    cfg: AccelConfig,
    restart: bool,
) -> IterationTrace:
    x = np.asarray(x0, dtype=float)
    if x.shape != (problem.dim,):
        raise ValueError(f"x0 must have shape ({problem.dim},)")
    m = cfg.window_m
    tr = _trace_for(problem)

    qx = problem.q(x)
    r = x - qx
    _record_finite(tr, problem, x, r)

    q_hist = [qx]
    r_hist = [r]
    windowed_since_restart = 0

    for _ in range(cfg.max_iters):
        if tr.residual_norms[-1] <= cfg.stop_tol:
            tr.converged = True
            break
        x_next, beta = _aa_next(q_hist, r_hist, cfg.rank_tol_scale)
        if np.linalg.norm(x_next) > DIVERGENCE_GUARD:
            raise Diverged(f"||x_k|| exceeded {DIVERGENCE_GUARD:g}", trace=tr)
        tr.betas.append(beta)
        qx = problem.q(x_next)
        r = x_next - qx
        _record_finite(tr, problem, x_next, r)

        if beta.beta.size:
            windowed_since_restart += 1
        if restart and windowed_since_restart >= m:
            # restart the entire AA(m) iteration every m (accelerated) steps
            q_hist = [qx]
            r_hist = [r]
            windowed_since_restart = 0
        else:
            q_hist.append(qx)
            r_hist.append(r)
            if len(q_hist) > m + 1:
                q_hist.pop(0)
                r_hist.pop(0)
    else:
        tr.converged = tr.residual_norms[-1] <= cfg.stop_tol

    return tr


def fp_run(problem: FixedPointProblem, x0: np.ndarray, cfg: AccelConfig) -> IterationTrace:
    """Plain fixed-point iteration x_{k+1} = q(x_k)."""
    return _run_windowed(problem, x0, AccelConfig(
        window_m=0, restart=False, max_iters=cfg.max_iters,
        stop_tol=cfg.stop_tol, rank_tol_scale=cfg.rank_tol_scale), restart=False)


def aa_run(problem: FixedPointProblem, x0: np.ndarray, cfg: AccelConfig) -> IterationTrace:
    """Windowed AA(m) with growing-then-sliding window of size min(k, m)."""
    return _run_windowed(problem, x0, cfg, restart=False)


def aa_restarted_run(problem: FixedPointProblem, x0: np.ndarray, cfg: AccelConfig) -> IterationTrace:
    """Restarted AA(m): the history is cleared after every m-th windowed step.

    Each cycle is one plain-FP-like step followed by m steps whose windows grow
    from 1 to m, mirroring restarted GMRES(m) in the linear case.
    """
    if cfg.window_m < 1:
        raise ValueError("restarted AA needs window_m >= 1")
    return _run_windowed(problem, x0, cfg, restart=True)


def run_scheme(problem: FixedPointProblem, x0: np.ndarray, cfg: AccelConfig) -> IterationTrace:
    """Dispatch on (window_m, restart): FP, windowed AA, or restarted AA."""
    if cfg.window_m == 0:
        return fp_run(problem, x0, cfg)
    if cfg.restart:
        return aa_restarted_run(problem, x0, cfg)
    return aa_run(problem, x0, cfg)


def gmres_run(spec: AffineSpec, x0: np.ndarray, cfg: AccelConfig) -> IterationTrace:
    """Full-memory dense GMRES on (I - M) x = b, tracing the iterates.

    Modified Gram-Schmidt Arnoldi with Givens rotations on the Hessenberg
    least-squares problem; the iterate is reconstructed every step so the
    trace lines up with the other schemes.
    """
    A = spec.A
    b = spec.b
    n = A.shape[0]
    x0 = np.asarray(x0, dtype=float)
    problem = make_affine(spec)
    tr = _trace_for(problem)

    r0 = b - A @ x0
    beta0 = float(np.linalg.norm(r0))
    _record(tr, problem, x0, beta0)
    if beta0 <= cfg.stop_tol:
        tr.converged = True
        return tr

    max_k = min(cfg.max_iters, n)
    V = np.zeros((n, max_k + 1))
    H = np.zeros((max_k + 1, max_k))
    cs = np.zeros(max_k)
    sn = np.zeros(max_k)
    g = np.zeros(max_k + 1)
    g[0] = beta0
    V[:, 0] = r0 / beta0

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

        # apply accumulated Givens rotations to the new column
        for j in range(k):
            t = cs[j] * H[j, k] + sn[j] * H[j + 1, k]
            H[j + 1, k] = -sn[j] * H[j, k] + cs[j] * H[j + 1, k]
            H[j, k] = t
        denom = float(np.hypot(H[k, k], H[k + 1, k]))
        cs[k] = H[k, k] / denom
        sn[k] = H[k + 1, k] / denom
        H[k, k] = denom
        H[k + 1, k] = 0.0
        g[k + 1] = -sn[k] * g[k]
        g[k] = cs[k] * g[k]

        y = np.linalg.solve(np.triu(H[: k + 1, : k + 1]), g[: k + 1])
        xk = x0 + V[:, : k + 1] @ y
        _record(tr, problem, xk, float(np.linalg.norm(b - A @ xk)))

        if tr.residual_norms[-1] <= cfg.stop_tol:
            tr.converged = True
            return tr
        if happy:
            # happy breakdown means the Krylov space became invariant; if the
            # residual is not already at rounding level something is wrong
            if tr.residual_norms[-1] <= 1e-10 * max(1.0, beta0):
                tr.converged = True
                return tr
            raise Breakdown("Arnoldi produced a zero vector before convergence")

    tr.converged = tr.residual_norms[-1] <= cfg.stop_tol
    return tr


def aa_full_window_vs_gmres_check(spec: AffineSpec, x0: np.ndarray, k_max: int) -> float:
    """max_k || x^AA_{k+1} - q(x^GMRES_k) || for unbounded-window AA, k < k_max.

    Raises StagnationDetected when the GMRES residuals do not strictly
    decrease over the compared range (the correspondence is undefined there).
    """
    problem = make_affine(spec)
    gmres_tr = gmres_run(spec, x0, AccelConfig(window_m=1, max_iters=k_max, stop_tol=0.0))
    k_used = min(k_max, len(gmres_tr) - 1)
    res = gmres_tr.residual_norms
    for k in range(k_used):
        if res[k + 1] >= res[k]:
            raise StagnationDetected(
                f"GMRES residual did not strictly decrease at step {k} "
                f"({res[k]:.3e} -> {res[k + 1]:.3e})"
            )
    aa_tr = aa_run(problem, x0, AccelConfig(window_m=k_max, max_iters=k_used, stop_tol=0.0))
    dev = 0.0
    for k in range(k_used):
        dev = max(dev, float(np.linalg.norm(
            aa_tr.iterates[k + 1] - problem.q(gmres_tr.iterates[k]))))
    return dev
