"""Iterative schemes: plain fixed-point, windowed/restarted AA(m), dense GMRES.

All runs record an IterationTrace whose sequences are aligned by iteration
index k.  Error-based quantities (error norms, sigma_k, error ratios) are only
recorded when the problem knows its fixed point; the stopping test always uses
the residual norm, which is available for any problem.  FP and AA(m) share one
loop, which runs a batch of initial conditions in lockstep (run_batch); a
single run is its batch of one.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from .errors import AndersonLabError, Breakdown, Diverged, NonFinite, StagnationDetected
# anderson_coefficients and make_affine are unused here but stay bound:
# perfbench/tracer.py patches accelerators.anderson_coefficients and
# accelerators.make_affine by name
from .linalg import anderson_coefficients, chunk_rows, stacked_anderson_coefficients  # noqa: F401
from .problems import FixedPointProblem, make_affine  # noqa: F401

DIVERGENCE_GUARD = 1e12


@dataclass(frozen=True)
class AccelConfig:
    """Run parameters; window_m = 0 means the plain fixed-point iteration."""

    window_m: int = 1
    restart: bool = False
    max_iters: int = 100
    stop_tol: float = 1e-12

    def __post_init__(self):
        if self.window_m < 0:
            raise ValueError("window_m must be >= 0")
        if self.restart and self.window_m < 1:
            raise ValueError("restarted AA needs window_m >= 1")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if not self.stop_tol >= 0:  # NaN included
            raise ValueError("stop_tol must be positive (or exactly 0 to disable)")


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
    list is one shorter than the iterate list.  sigma_k and error_ratios are
    derived from error_norms on first read (None without them), NaN at k = 0
    by convention.  failure is the error that stopped the run, or None; the
    trace then ends with the iterate that stopped it.  Traces of a batch run
    (run_batch) have no betas, and iterates only when the run kept them.
    """

    iterates: list = field(default_factory=list)
    residual_norms: list = field(default_factory=list)
    error_norms: Optional[list] = None
    betas: list = field(default_factory=list)
    x_star_norm: Optional[float] = None
    converged: bool = False
    failure: Optional[AndersonLabError] = None

    def __len__(self) -> int:
        return len(self.residual_norms)

    @cached_property
    def sigma_k(self) -> Optional[list]:
        """sigma_k = ||x_k - x*||^(1/k), the root-averaged error."""
        if self.error_norms is None:
            return None
        errs = np.asarray(self.error_norms, dtype=float).tolist()
        return [e ** (1.0 / k) if k else float("nan") for k, e in enumerate(errs)]

    @cached_property
    def error_ratios(self) -> Optional[list]:
        """||x_k - x*|| / ||x_{k-1} - x*||, NaN where the previous error is 0."""
        if self.error_norms is None:
            return None
        errs = np.asarray(self.error_norms, dtype=float).tolist()
        nan = float("nan")
        return [e / p if p > 0.0 else nan for p, e in zip([nan, *errs], errs)]


def _norms(V: np.ndarray) -> np.ndarray:
    """Norms along the last axis, each bitwise equal to np.linalg.norm of its row."""
    return np.sqrt(np.vecdot(V, V))


def _aa_update(q_hist: list, r_hist: list) -> tuple:
    """One AA update for a batch, from cached q and r histories, oldest first.

    Each history entry is a (B, n) array; with mk + 1 entries the update
    solves B least-squares problems of mk columns with one stacked SVD.
    Returns the next iterates (B, n), the coefficients (B, mk), the numerical
    ranks (B,) and the residual differences R (B, n, mk), whose column j pairs
    the newest residual with the one j + 1 steps older.  mk = 0 is the plain
    fixed-point step, which solves nothing: coefficients, ranks and R are None.
    """
    qk, rk = q_hist[-1], r_hist[-1]
    mk = len(q_hist) - 1
    if not mk:
        return qk.copy(), None, None, None
    R = np.empty(rk.shape + (mk,))
    Q = np.empty(R.shape)
    for j in range(mk):
        np.subtract(rk, r_hist[-2 - j], out=R[..., j])
        np.subtract(qk, q_hist[-2 - j], out=Q[..., j])
    coeffs, ranks = stacked_anderson_coefficients(R, rk)
    return qk + (Q @ coeffs[..., None])[..., 0], coeffs, ranks, R


def rows_per_chunk(n: int, window: int) -> int:
    """Rows per chunk of a batch that _aa_update steps at dimension n with windows up to window.

    A row holds its window + 1 q and r history entries, R, Q and the SVD's U:
    5 n (window + 1) floats of the shared budget linalg.CHUNK_FLOATS.
    """
    return chunk_rows(5 * n * (window + 1))


def _beta_solution(r_norm: float, r: np.ndarray, R, coeffs, ranks) -> BetaSolution:
    """BetaSolution of an AA update of a batch of one, whose residual r (n,) has norm r_norm."""
    if R is None:
        return BetaSolution(beta=np.zeros(0), residual_norm_before=r_norm,
                            ls_objective=r_norm, rank=0)
    return BetaSolution(beta=coeffs[0], residual_norm_before=r_norm,
                        ls_objective=float(_norms(r + R[0] @ coeffs[0])), rank=int(ranks[0]))


def aa_step(problem: FixedPointProblem,
            history: Sequence[np.ndarray]) -> tuple[np.ndarray, BetaSolution]:
    """One AA update from the last min(k, m) + 1 iterates (newest last)."""
    if not len(history):
        raise ValueError("history must contain at least the current iterate")
    X = np.asarray(history, dtype=float)
    Qx = problem.q(X)
    Rx = X - Qx
    x_next, coeffs, ranks, R = _aa_update(list(Qx[:, None]), list(Rx[:, None]))
    return x_next[0], _beta_solution(float(_norms(Rx[-1])), Rx[-1], R, coeffs, ranks)


def _x_star_norm(problem: FixedPointProblem) -> Optional[float]:
    x_star = problem.known_fixed_point
    return None if x_star is None else float(np.linalg.norm(x_star))


@np.errstate(over="ignore")  # a norm beyond ~1e154 is Inf, which the stop test fails
def _iterate(problem: FixedPointProblem, X: np.ndarray, cfg: AccelConfig,
             keep: int = 0, betas: Optional[list] = None) -> list[IterationTrace]:
    """FP, windowed or restarted AA(m) from every row of X, in lockstep.

    Each step evaluates q once on the running rows (once more on the others
    when q raised for some of them) and solves all their least-squares
    problems with one stacked SVD.  The history length depends on the step
    count alone, so the running rows share it.  Every iterate is recorded,
    then tested once; a row stops, in this order of priority, when
    it is outside the divergence guard ball (Diverged), when q raised on it
    (q's error) or its residual norm is NaN/Inf (NonFinite), or when its
    residual norm is at most stop_tol (converged).  The other rows go on.

    Returns the IterationTrace of each row, with its first keep iterates.
    When betas is a list, it receives the BetaSolution of each step of a
    single-row X.
    """
    B = X.shape[0]
    m = cfg.window_m
    x_star = problem.known_fixed_point
    if x_star is not None:
        x_star = x_star[None]  # a (1, n) row subtracts from X faster than (n,)
    converged = np.zeros(B, dtype=bool)
    failures = [None] * B
    rows = np.arange(B)  # batch index of each running row
    step_rows, step_res, step_err, step_x = [], [], [], []

    def record(X):
        q_errors = {}  # running-row index -> the error q raised there
        try:
            Qx = problem.q(X)
        except AndersonLabError as exc:
            # the rows of q's mask (every row without one) fail with NaN, and
            # q runs once more on the others
            bad = np.full(len(X), True) if exc.rows is None else np.asarray(exc.rows, bool)
            q_errors = dict.fromkeys(np.flatnonzero(bad).tolist(), exc)
            Qx = np.full(X.shape, np.nan)
            if not bad.all():
                Qx[~bad] = problem.q(X[~bad])
        Rx = X - Qx
        step_rows.append(rows)
        if len(step_x) < keep:
            step_x.append(X)
        step_res.append(_norms(Rx))
        if x_star is not None:
            step_err.append(_norms(x_star - X))
        return Qx, Rx, step_res[-1], _norms(X), q_errors

    Qx, Rx, rn, xn, q_errors = record(X)
    q_hist, r_hist = [Qx], [Rx]
    for k in range(cfg.max_iters + 1):
        # the one stop test: a row of q's error has a NaN residual, so it
        # fails the residual tests as NaN/Inf does.  The ufunc reductions are
        # the cheapest whole-batch tests, which matters at B = 1.
        if not (np.minimum.reduce(rn) > cfg.stop_tol and np.maximum.reduce(rn) < np.inf
                and np.maximum.reduce(xn) <= DIVERGENCE_GUARD):
            out = xn > DIVERGENCE_GUARD
            failed = out | ~(rn < np.inf)
            for j in np.flatnonzero(failed):
                failures[rows[j]] = (
                    Diverged(f"||x_k|| exceeded {DIVERGENCE_GUARD:g}") if out[j]
                    else q_errors.get(j) or NonFinite(f"residual norm is {rn[j]} at k = {k}"))
            done = rn <= cfg.stop_tol
            converged[rows[done & ~failed]] = True
            going = ~(failed | done)
            rows = rows[going]
            q_hist = [a[going] for a in q_hist]
            r_hist = [a[going] for a in r_hist]
        if k == cfg.max_iters or not rows.size:
            break

        # every residual in the history has a finite norm, so R is finite
        X, coeffs, ranks, R = _aa_update(q_hist, r_hist)
        if betas is not None:
            betas.append(_beta_solution(float(rn[0]), r_hist[-1][0], R, coeffs, ranks))
        Qx, Rx, rn, xn, q_errors = record(X)

        if cfg.restart and len(q_hist) == m + 1:
            # the step just taken had a full window: restart the entire AA(m)
            # iteration, which happens every m (accelerated) steps
            q_hist, r_hist = [Qx], [Rx]
        else:
            q_hist.append(Qx)
            r_hist.append(Rx)
            if len(q_hist) > m + 1:
                q_hist.pop(0)
                r_hist.pop(0)

    # a row leaves the batch for good, so its steps are a prefix of all steps:
    # sorting the step-major records of the first n_steps steps by row (stably)
    # lines up each row's records
    def by_row(n_steps):
        ids = np.concatenate(step_rows[:n_steps])
        order = np.argsort(ids, kind="stable")
        ends = np.cumsum(np.bincount(ids, minlength=B))[:-1]
        return lambda values: np.split(np.concatenate(values)[order], ends)

    per_row = by_row(len(step_rows))
    res = per_row(step_res)
    errs = per_row(step_err) if x_star is not None else [None] * B
    kept = by_row(len(step_x))(step_x) if keep else [()] * B
    x_star_norm = _x_star_norm(problem)
    return [IterationTrace(iterates=list(x), residual_norms=r.tolist(),
                           error_norms=None if e is None else e.tolist(),
                           x_star_norm=x_star_norm, converged=c, failure=f)
            for x, r, e, c, f in zip(kept, res, errs, converged.tolist(), failures)]


def run_batch(problem: FixedPointProblem, X0: np.ndarray, cfg: AccelConfig,
              keep: int = 0) -> list[IterationTrace]:
    """run_scheme from every row of X0 (B, n): one IterationTrace per row, without betas.

    The rows run in lockstep, in chunks of rows_per_chunk(n, window_m) rows,
    so that a batch's memory stays bounded whatever B is.  An error in q
    (EvalError) fails only the rows it was raised on, and a trace's failure
    is the error that stopped its row (not raised).  Every row equals its
    single-init run bit for bit.  Each trace keeps the row's first keep
    iterates; keep = 0 keeps none.
    """
    X = np.asarray(X0, dtype=float)
    if X.ndim != 2 or X.shape[1] != problem.dim or not len(X):
        raise ValueError(f"X0 must have shape (B, {problem.dim}) with B >= 1")
    if keep < 0:
        raise ValueError("keep must be >= 0")
    chunk = rows_per_chunk(problem.dim, cfg.window_m)
    return [tr for start in range(0, len(X), chunk)
            for tr in _iterate(problem, X[start:start + chunk], cfg, keep)]


def run_scheme(problem: FixedPointProblem, x0: np.ndarray, cfg: AccelConfig) -> IterationTrace:
    """One trajectory from x0, traced with its iterates and coefficients.

    window_m = 0 gives the plain fixed-point iteration x_{k+1} = q(x_k);
    window_m = m >= 1 gives AA(m) with a growing-then-sliding window of size
    min(k, m).  With restart, the history is cleared after every m-th
    windowed step, so each cycle is one plain-FP-like step followed by m
    steps whose windows grow from 1 to m, mirroring restarted GMRES(m) in the
    linear case.  A failure (Diverged, NonFinite or q's error) carries the
    partial trace, up to and including the iterate that stopped the run.
    """
    x = np.asarray(x0, dtype=float)
    if x.shape != (problem.dim,):
        raise ValueError(f"x0 must have shape ({problem.dim},)")
    betas = []
    tr = _iterate(problem, x[None], cfg, cfg.max_iters + 1, betas)[0]
    tr.betas = betas
    if tr.failure is not None:
        tr.failure.trace = tr
        raise tr.failure
    return tr


def aa_run(problem: FixedPointProblem, x0: np.ndarray, cfg: AccelConfig) -> IterationTrace:
    """Windowed AA(m): run_scheme without restart."""
    return run_scheme(problem, x0, replace(cfg, restart=False))


@np.errstate(over="ignore")  # a norm beyond ~1e154 is Inf, which the guard or stop test fails
def gmres_run(problem: FixedPointProblem, x0: np.ndarray, cfg: AccelConfig) -> IterationTrace:
    """Full-memory dense GMRES on (I - M) x = b of an affine problem, tracing the iterates.

    Modified Gram-Schmidt Arnoldi with Givens rotations on the Hessenberg
    least-squares problem; the iterate is reconstructed every step so the
    trace lines up with the other schemes.  Each recorded iterate is tested
    as in the run loop: Diverged when it is outside the divergence guard
    ball, else NonFinite when its residual norm is NaN or Inf.  Either error
    carries the trace up to and including the offending row.
    """
    if problem.affine is None:
        raise ValueError("gmres requires an affine problem")
    A = problem.affine.A
    b = problem.affine.b
    n = A.shape[0]
    x0 = np.asarray(x0, dtype=float)
    x_star = problem.known_fixed_point
    iterates, res = [], []

    def trace(converged: bool) -> IterationTrace:
        errs = None if x_star is None else [float(np.linalg.norm(x_star - x)) for x in iterates]
        return IterationTrace(iterates=iterates, residual_norms=res, error_norms=errs,
                              x_star_norm=_x_star_norm(problem), converged=converged)

    def record(x, r_norm):
        iterates.append(x)
        res.append(r_norm)
        if _norms(x) > DIVERGENCE_GUARD:
            raise Diverged(f"||x_k|| exceeded {DIVERGENCE_GUARD:g}", trace=trace(False))
        if not r_norm < np.inf:  # NaN included
            raise NonFinite(f"residual norm is {r_norm} at k = {len(res) - 1}",
                            trace=trace(False))

    r0 = b - A @ x0
    beta0 = float(np.linalg.norm(r0))
    record(x0, beta0)
    if beta0 <= cfg.stop_tol:
        return trace(True)

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
        record(xk, float(np.linalg.norm(b - A @ xk)))

        if res[-1] <= cfg.stop_tol:
            return trace(True)
        if happy:
            # happy breakdown means the Krylov space became invariant; if the
            # residual is not already at rounding level something is wrong
            if res[-1] <= 1e-10 * max(1.0, beta0):
                return trace(True)
            raise Breakdown("Arnoldi produced a zero vector before convergence")

    return trace(res[-1] <= cfg.stop_tol)


def aa_full_window_vs_gmres_check(problem: FixedPointProblem, aa_trace: IterationTrace,
                                  gmres_trace: IterationTrace, k_max: int) -> float:
    """max_k || x^AA_{k+1} - q(x^GMRES_k) || for k < min(k_max, steps of either trace).

    aa_trace (unbounded-window AA) and gmres_trace start from the same x0 and
    carry their iterates (ValueError otherwise; a run_batch trace without keep
    has none).  Raises StagnationDetected when the GMRES residuals do not
    strictly decrease over the compared range (the correspondence is undefined
    there).
    """
    if not (aa_trace.iterates and gmres_trace.iterates):
        raise ValueError("the AA-vs-GMRES check needs traces with their iterates")
    res = gmres_trace.residual_norms
    K = max(0, min(k_max, len(gmres_trace) - 1, len(aa_trace) - 1))
    for k in range(K):
        if res[k + 1] >= res[k]:
            raise StagnationDetected(
                f"GMRES residual did not strictly decrease at step {k} "
                f"({res[k]:.3e} -> {res[k + 1]:.3e})"
            )
    dev = _norms(np.asarray(aa_trace.iterates)[1:K + 1]
                 - problem.q(np.asarray(gmres_trace.iterates)[:K]))
    return float(dev.max(initial=0.0))
