"""Iterative schemes: plain fixed-point, windowed/restarted AA(m), dense GMRES.

All runs record an IterationTrace whose sequences are aligned by iteration
index k.  Error-based quantities (error norms, sigma_k, error ratios) are only
recorded when the problem knows its fixed point; the stopping test always uses
the residual norm, which is available for any problem.  FP and AA(m) share one
loop, which runs a batch of initial conditions in lockstep (run_batch); a
single run is its batch of one.  GMRES likewise runs in lockstep
(gmres_batch), and gmres_run is its batch of one.
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


def root_error(e: float, k: int) -> float:
    """e^(1/k), the root-averaged error of error norm e at step k; NaN at k = 0."""
    return e ** (1.0 / k) if k else float("nan")


@dataclass
class IterationTrace:
    """Per-iteration record of one run.

    A trace holds the residual and error norms of every iterate as 1-D
    float arrays and, as step-major arrays, its first keep iterates (kept, n)
    (a single run keeps all) and the beta (kept - 1, w) and rank (kept - 1,)
    of the updates that produced them: beta[k] produced iterates[k + 1], NaN
    beyond its window, w = min(m, keep - 1), and FP has w = 0 and ranks 0
    (GMRES: both empty).  sigma_k and error_ratios are lists derived from
    error_norms on first read (None without them), NaN at k = 0 by
    convention; sigma_at(k) evaluates sigma at a single k with root_error,
    the one sigma formula.  failure is the error that stopped the run, or
    None; the trace then ends with the iterate that stopped it.
    """

    iterates: np.ndarray = field(default_factory=lambda: np.empty((0, 0)))
    residual_norms: np.ndarray = field(default_factory=lambda: np.empty(0))
    error_norms: Optional[np.ndarray] = None
    beta: np.ndarray = field(default_factory=lambda: np.empty((0, 0)))
    rank: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=int))
    x_star_norm: Optional[float] = None
    converged: bool = False
    failure: Optional[AndersonLabError] = None

    def __len__(self) -> int:
        return len(self.residual_norms)

    def sigma_at(self, k: int) -> float:
        """sigma_k = ||x_k - x*||^(1/k), the root-averaged error, at one k of error_norms."""
        return root_error(float(self.error_norms[k]), k)

    @cached_property
    def sigma_k(self) -> Optional[list]:
        """sigma_at(k) for every k."""
        if self.error_norms is None:
            return None
        errs = np.asarray(self.error_norms, dtype=float).tolist()
        return list(map(root_error, errs, range(len(errs))))

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
    solves B least-squares problems of mk columns with one stacked SVD, whose
    column j pairs the newest residual with the one j + 1 steps older.
    Returns the next iterates (B, n), the coefficients (B, mk) and the
    numerical ranks (B,).  mk = 0 is the plain fixed-point step, which solves
    nothing: no coefficients, rank 0.
    """
    qk, rk = q_hist[-1], r_hist[-1]
    mk = len(q_hist) - 1
    if not mk:
        return qk.copy(), np.zeros((len(qk), 0)), np.zeros(len(qk), dtype=int)
    R = np.empty(rk.shape + (mk,))
    Q = np.empty(R.shape)
    for j in range(mk):
        np.subtract(rk, r_hist[-2 - j], out=R[..., j])
        np.subtract(qk, q_hist[-2 - j], out=Q[..., j])
    coeffs, ranks = stacked_anderson_coefficients(R, rk)
    return qk + (Q @ coeffs[..., None])[..., 0], coeffs, ranks


def rows_per_chunk(n: int, window: int) -> int:
    """Rows that _aa_update may step at once at dimension n with windows up to window.

    A row holds its window + 1 q and r history entries, R, Q and the SVD's U:
    5 n (window + 1) floats of the shared budget linalg.CHUNK_FLOATS.  The
    run loop splits its running rows above it, at the window of the coming
    update, and the lifted map steps its states in chunks of it.
    """
    return chunk_rows(5 * n * (window + 1))


def aa_step(problem: FixedPointProblem,
            history: Sequence[np.ndarray]) -> tuple[np.ndarray, np.ndarray, int]:
    """One AA update from the last min(k, m) + 1 iterates (newest last): x_next, beta, rank."""
    if not len(history):
        raise ValueError("history must contain at least the current iterate")
    X = np.asarray(history, dtype=float)
    Qx = problem.q(X)
    Rx = X - Qx
    x_next, coeffs, ranks = _aa_update(list(Qx[:, None]), list(Rx[:, None]))
    return x_next[0], coeffs[0], int(ranks[0])


class _Steps:
    """The step-major log of a lockstep batch of B rows: its records, stop test and traces.

    Record s holds the batch index of each row that ran it (rows[s]), their
    residual norms (res[s]) and, with a known x*, their error norms (err[s]).
    The kept steps (each row's first keep) are logged the same way: iterates
    (kept_rows, iterates) and their updates (solved_rows, beta NaN-padded to
    width, rank).  failures and converged say how each row stopped.
    """

    def __init__(self, problem: FixedPointProblem, B: int, keep: int, stop_tol: float, m: int):
        self.x_star = problem.known_fixed_point
        if self.x_star is not None:
            self.x_star = self.x_star[None]  # a (1, n) row subtracts from X faster than (n,)
        self.keep, self.stop_tol = keep, stop_tol
        self.width = min(m, max(keep - 1, 0))
        self.converged = np.zeros(B, dtype=bool)
        self.failures = [None] * B
        self.rows, self.res, self.err = [], [], []
        no_rows = np.empty(0, dtype=int)  # each kept log starts with an empty record to join
        self.kept_rows, self.iterates = [no_rows], [np.empty((0, problem.dim))]
        self.solved_rows, self.beta, self.rank = [no_rows], [np.empty((0, self.width))], [no_rows]

    def record(self, X: np.ndarray, rn: np.ndarray, rows: np.ndarray, k: int,
               q_errors: dict) -> Optional[np.ndarray]:
        """Records iterate k of the running rows (batch indices rows) and tests it once.

        A row stops, in this order of priority, when it is outside the
        divergence guard ball (Diverged), when q raised on it (q_errors, by
        running-row index) or its residual norm rn is NaN/Inf (NonFinite), or
        when rn is at most stop_tol (converged).  Returns the mask of the
        rows that stop, or None when none does.
        """
        self.rows.append(rows)
        if k < self.keep:
            self.kept_rows.append(rows)
            self.iterates.append(X)
        self.res.append(rn)
        if self.x_star is not None:
            self.err.append(_norms(self.x_star - X))
        xn = _norms(X)
        # a row of q's error has a NaN residual, so it fails the residual
        # tests as NaN/Inf does.  The ufunc reductions are the cheapest
        # whole-batch tests, which matters at B = 1.
        if (np.minimum.reduce(rn) > self.stop_tol and np.maximum.reduce(rn) < np.inf
                and np.maximum.reduce(xn) <= DIVERGENCE_GUARD):
            return None
        out = xn > DIVERGENCE_GUARD
        failed = out | ~(rn < np.inf)  # NaN included
        for j in np.flatnonzero(failed):
            self.failures[rows[j]] = (
                Diverged(f"||x_k|| exceeded {DIVERGENCE_GUARD:g}") if out[j]
                else q_errors.get(j) or NonFinite(f"residual norm is {rn[j]} at k = {k}"))
        done = ~failed & (rn <= self.stop_tol)
        self.converged[rows[done]] = True
        return failed | done

    def record_update(self, rows: np.ndarray, k: int, coeffs: np.ndarray,
                      ranks: np.ndarray) -> None:
        """Keeps the coefficients and ranks of the update that gave iterate k of rows, if kept."""
        if k < self.keep:
            self.solved_rows.append(rows)
            self.beta.append(np.full((len(rows), self.width), np.nan))
            self.beta[-1][:, :coeffs.shape[1]] = coeffs
            self.rank.append(ranks)

    def traces(self) -> list[IterationTrace]:
        """The IterationTrace of each row, from its records."""
        B = len(self.failures)

        def by_row(ids, *logs):
            """The span of each row in the sorted records, and each log's records sorted by row."""
            # a row runs in one cohort at a time and records its steps in order, so
            # sorting the records by row (stably) lines up each row's records
            ids = np.concatenate(ids)
            order = np.argsort(ids, kind="stable")
            ends = np.cumsum(np.bincount(ids, minlength=B)).tolist()
            for log in logs:  # joined in place, so the step arrays go before the sorted copy
                log[:] = [np.concatenate(log)]
            return list(zip([0, *ends], ends)), [log[0][order] for log in logs]

        def parts(column, spans):
            # an empty column (nothing kept) gives every row the same empty array
            return [column[a:b] for a, b in spans] if len(column) else [column] * B

        spans, (res, *err) = by_row(self.rows, self.res, *([self.err] if self.err else []))
        errs = parts(err[0], spans) if err else [None] * B
        kept, (iterates,) = by_row(self.kept_rows, self.iterates)
        solved, (beta, rank) = by_row(self.solved_rows, self.beta, self.rank)
        x_star_norm = None if self.x_star is None else float(np.linalg.norm(self.x_star))
        return [IterationTrace(iterates=x, residual_norms=r, error_norms=e, beta=bt, rank=rk,
                               x_star_norm=x_star_norm, converged=c, failure=f)
                for x, r, e, bt, rk, c, f in zip(
                    parts(iterates, kept), parts(res, spans), errs,
                    parts(beta, solved), parts(rank, solved),
                    self.converged.tolist(), self.failures)]


@np.errstate(over="ignore")  # a norm beyond ~1e154 is Inf, which the stop test fails
def _iterate(problem: FixedPointProblem, X: np.ndarray, cfg: AccelConfig,
             keep: int = 0) -> list[IterationTrace]:
    """FP, windowed or restarted AA(m) from every row of X, in lockstep.

    Each step evaluates q once on the running rows (once more on the others
    when q raised for some of them) and solves all their least-squares
    problems with one stacked SVD.  The history length depends on the step
    count alone, so the running rows share it.  Every iterate is recorded
    and tested once by the step log (_Steps.record); the rows it stops leave
    the batch, and the other rows go on.

    Memory stays bounded whatever the batch size: before each q evaluation,
    while the running rows are more than rows_per_chunk allows at the
    history length of the coming update, they are split in two halves (each
    with a copy of its histories).  One runs on, and the other resumes from
    that step once it has stopped.  A batch within that budget runs as one.

    Returns the IterationTrace of each row, with its first keep iterates and
    the coefficients and ranks that produced them.
    """
    B, n = X.shape
    m = cfg.window_m
    steps = _Steps(problem, B, keep, cfg.stop_tol, m)
    # cohorts set aside: (step k, batch index of each row, iterate k, q and r
    # histories before step k)
    waiting = [(0, np.arange(B), X, [], [])]
    while waiting:
        k, rows, X, q_hist, r_hist = waiting.pop()
        while True:
            # the step just taken had a full window: restart the entire AA(m)
            # iteration, which happens every m (accelerated) steps
            restarting = cfg.restart and len(q_hist) == m + 1
            # the window of the coming update.  A single row never splits, so
            # it skips the test, which single runs pay for at every step
            if len(rows) > 1 and len(rows) > rows_per_chunk(
                    n, 0 if restarting else min(len(q_hist), m)):
                # set both halves aside, each with its own copy of the
                # histories; the first runs on next
                h = len(rows) // 2
                waiting += [(k, rows[s], X[s], [a[s].copy() for a in q_hist],
                             [a[s].copy() for a in r_hist]) for s in (np.s_[h:], np.s_[:h])]
                break
            q_errors = {}  # running-row index -> the error q raised there
            try:
                Qx = problem.q(X)
            except AndersonLabError as exc:
                # the rows of q's mask (every row without one) fail with NaN,
                # and q runs once more on the others
                bad = np.full(len(X), True) if exc.rows is None else np.asarray(exc.rows, bool)
                q_errors = dict.fromkeys(np.flatnonzero(bad).tolist(), exc)
                Qx = np.full(X.shape, np.nan)
                if not bad.all():
                    Qx[~bad] = problem.q(X[~bad])
            Rx = X - Qx
            stop = steps.record(X, _norms(Rx), rows, k, q_errors)
            if restarting:
                q_hist, r_hist = [Qx], [Rx]
            else:
                q_hist.append(Qx)
                r_hist.append(Rx)
                if len(q_hist) > m + 1:
                    q_hist.pop(0)
                    r_hist.pop(0)
            if stop is not None:
                going = ~stop
                rows = rows[going]
                q_hist = [a[going] for a in q_hist]
                r_hist = [a[going] for a in r_hist]
            if k == cfg.max_iters or not rows.size:
                break

            # every residual in the history has a finite norm, so R is finite
            X, coeffs, ranks = _aa_update(q_hist, r_hist)
            k += 1
            steps.record_update(rows, k, coeffs, ranks)

    return steps.traces()


def _batch_starts(problem: FixedPointProblem, X0: np.ndarray, keep: int) -> np.ndarray:
    """The starts X0 as a (B, n) float array; ValueError for another shape or keep < 0."""
    X = np.asarray(X0, dtype=float)
    if X.ndim != 2 or X.shape[1] != problem.dim or not len(X):
        raise ValueError(f"X0 must have shape (B, {problem.dim}) with B >= 1")
    if keep < 0:
        raise ValueError("keep must be >= 0")
    return X


def run_batch(problem: FixedPointProblem, X0: np.ndarray, cfg: AccelConfig,
              keep: int = 0) -> list[IterationTrace]:
    """run_scheme from every row of X0 (B, n): one IterationTrace per row.

    The rows run in lockstep as one batch, split only while the history the
    running rows hold would outgrow the budget of rows_per_chunk, so that
    memory stays bounded whatever B is.  An error in q (EvalError) fails only
    the rows it was raised on, and a trace's failure is the error that
    stopped its row (not raised).  Every row equals its single-init run bit
    for bit.  Each trace keeps the row's first keep iterates and the
    coefficients and ranks that produced them; keep = 0 keeps none.
    """
    return _iterate(problem, _batch_starts(problem, X0, keep), cfg, keep)


def _batch_of_one(batch, problem: FixedPointProblem, x0: np.ndarray,
                  cfg: AccelConfig) -> IterationTrace:
    """The trace of batch (run_batch or gmres_batch) from x0 alone with every iterate kept.

    A failure is raised with the trace, up to and including the iterate that
    stopped the run.
    """
    tr = batch(problem, np.asarray(x0, dtype=float)[None], cfg, cfg.max_iters + 1)[0]
    if tr.failure is not None:
        tr.failure.trace = tr
        raise tr.failure
    return tr


def run_scheme(problem: FixedPointProblem, x0: np.ndarray, cfg: AccelConfig) -> IterationTrace:
    """One trajectory from x0 with its iterates and coefficients: run_batch's batch of one.

    window_m = 0 gives the plain fixed-point iteration x_{k+1} = q(x_k);
    window_m = m >= 1 gives AA(m) with a growing-then-sliding window of size
    min(k, m).  With restart, the history is cleared after every m-th
    windowed step, so each cycle is one plain-FP-like step followed by m
    steps whose windows grow from 1 to m, mirroring restarted GMRES(m) in the
    linear case.  A failure (Diverged, NonFinite or q's error) is raised with
    the partial trace.
    """
    return _batch_of_one(run_batch, problem, x0, cfg)


def aa_run(problem: FixedPointProblem, x0: np.ndarray, cfg: AccelConfig) -> IterationTrace:
    """Windowed AA(m): run_scheme without restart."""
    return run_scheme(problem, x0, replace(cfg, restart=False))


def gmres_rows_per_chunk(n: int, max_k: int) -> int:
    """Rows per chunk of a GMRES batch at dimension n with up to max_k Arnoldi steps.

    A row holds its basis V, n (max_k + 1) floats, and its Hessenberg matrix
    H, (max_k + 1) max_k floats, of the shared budget linalg.CHUNK_FLOATS.
    """
    return chunk_rows((n + max_k) * (max_k + 1))


@np.errstate(over="ignore")  # a norm beyond ~1e154 is Inf, which the guard or stop test fails
def _gmres(problem: FixedPointProblem, X0: np.ndarray, cfg: AccelConfig,
           keep: int) -> list[IterationTrace]:
    """Dense GMRES from every row of X0, in lockstep; see gmres_batch.

    Each step makes one stacked matvec, the MGS and Givens loops and one
    stacked triangular solve for all running rows.  Every row keeps the
    arithmetic of a run of its own: a gemv per row, strided dot products,
    and products and differences as separate operations.  Every iterate is
    recorded and tested by the step log (_Steps.record), as in the run
    loop, and stopped rows leave the batch as there, by boolean indexing of
    every per-row array.
    """
    A = problem.affine.A
    b = problem.affine.b
    B, n = X0.shape
    steps = _Steps(problem, B, keep, cfg.stop_tol, 0)
    rows = np.arange(B)  # batch index of each running row
    R0 = b - (A @ X0[..., None])[..., 0]
    beta0 = _norms(R0)
    stop = steps.record(X0, beta0, rows, 0, {})
    if stop is not None:
        going = ~stop
        rows, X0, R0, beta0 = rows[going], X0[going], R0[going], beta0[going]
    max_k = min(cfg.max_iters, n)
    # V keeps the basis vectors as columns, as a single run's (n, max_k + 1)
    # array does, so that its dot products see the same strides.  The
    # Hessenberg columns H[k] (max_k + 1, B), the rotations and g, whose
    # layout changes no value, put the batch axis last for cheap indexing.
    V = np.zeros((len(rows), n, max_k + 1))
    V[:, :, 0] = R0 / beta0[:, None]
    H = np.zeros((max_k, max_k + 1, len(rows)))
    cs, sn = np.zeros((2, max_k, len(rows)))
    g = np.zeros((max_k + 1, len(rows)))
    g[0] = beta0

    for k in range(max_k):
        if not rows.size:
            break
        h = H[k]
        w = (A @ V[:, :, k, None])[..., 0]
        Av_norm = _norms(w)
        for j in range(k + 1):
            vj = V[:, :, j]
            h[j] = np.vecdot(vj, w)
            w -= h[j, :, None] * vj
        hkk = _norms(w)
        h[k + 1] = hkk
        # fmax, as Python's max, takes 1.0 over a NaN norm
        happy = hkk <= 1e-14 * np.fmax(1.0, Av_norm)
        np.divide(w, hkk[:, None], out=V[:, :, k + 1], where=~happy[:, None])

        # apply accumulated Givens rotations to the new column
        for j in range(k):
            t = cs[j] * h[j] + sn[j] * h[j + 1]
            h[j + 1] = -sn[j] * h[j] + cs[j] * h[j + 1]
            h[j] = t
        denom = np.hypot(h[k], h[k + 1])
        cs[k] = h[k] / denom
        sn[k] = h[k + 1] / denom
        h[k] = denom
        h[k + 1] = 0.0
        g[k + 1] = -sn[k] * g[k]
        g[k] = cs[k] * g[k]

        # each row's H[:k+1, :k+1] is upper triangular: each subdiagonal
        # entry was zeroed by its rotation, and nothing below it is written
        y = np.linalg.solve(H[:k + 1, :k + 1].T, g[:k + 1].T[..., None])
        X = X0 + (V[:, :, :k + 1] @ y)[..., 0]
        rn = _norms(b - (A @ X[..., None])[..., 0])
        stop = steps.record(X, rn, rows, k + 1, {})

        # happy breakdown means the Krylov space became invariant; if the
        # residual is not already at rounding level something is wrong.
        # beta0 is finite, so maximum is Python's max
        going = ~happy
        if stop is not None:
            happy &= ~stop
            going &= ~stop
        at_rounding = happy & (rn <= 1e-10 * np.maximum(1.0, beta0))
        steps.converged[rows[at_rounding]] = True
        for j in np.flatnonzero(happy & ~at_rounding):
            steps.failures[rows[j]] = Breakdown(
                "Arnoldi produced a zero vector before convergence")
        if not going.all():
            rows, X0, beta0, V = rows[going], X0[going], beta0[going], V[going]
            H, cs, sn, g = H[..., going], cs[:, going], sn[:, going], g[:, going]

    return steps.traces()


def gmres_batch(problem: FixedPointProblem, X0: np.ndarray, cfg: AccelConfig,
                keep: int = 0) -> list[IterationTrace]:
    """Full-memory dense GMRES on (I - M) x = b from every row of X0 (B, n) of an affine problem.

    Modified Gram-Schmidt Arnoldi with Givens rotations on the Hessenberg
    least-squares problem; the iterate is reconstructed every step so the
    traces line up with the other schemes.  Each recorded iterate goes
    through the stop test that both lockstep loops share (_Steps.record).
    A happy breakdown (a zero Arnoldi vector) then ends a row as converged
    when its residual is at rounding level, and with Breakdown otherwise.
    A trace's failure is the error that stopped its row (not raised).  A
    problem without an affine form raises ValueError.

    The rows run in lockstep, one chunk of gmres_rows_per_chunk(n, max_k)
    rows with max_k = min(max_iters, n) after another, each with its own
    Arnoldi bases, and every row equals its single-init run bit for bit.
    Each trace keeps the row's first keep iterates; its beta and rank are empty.
    """
    if problem.affine is None:
        raise ValueError("gmres requires an affine problem")
    X = _batch_starts(problem, X0, keep)
    chunk = gmres_rows_per_chunk(problem.dim, min(cfg.max_iters, problem.dim))
    return [tr for start in range(0, len(X), chunk)
            for tr in _gmres(problem, X[start:start + chunk], cfg, keep)]


def gmres_run(problem: FixedPointProblem, x0: np.ndarray, cfg: AccelConfig) -> IterationTrace:
    """gmres_batch's batch of one from x0, traced with its iterates.

    A failure (Diverged, NonFinite or Breakdown) is raised with the partial
    trace.
    """
    return _batch_of_one(gmres_batch, problem, x0, cfg)


def aa_full_window_vs_gmres_check(problem: FixedPointProblem, aa_trace: IterationTrace,
                                  gmres_trace: IterationTrace, k_max: int) -> float:
    """max_k || x^AA_{k+1} - q(x^GMRES_k) || for k < K.

    K = min(k_max, steps kept by either trace): a trace keeping i iterates
    (all of them, or its first keep) has kept i - 1 steps.  aa_trace
    (unbounded-window AA) and gmres_trace start from the same x0 and carry
    their iterates (ValueError otherwise; a batch trace with keep = 0 has
    none).  Raises StagnationDetected when the GMRES residuals do not
    strictly decrease over the compared range (the correspondence is
    undefined there).
    """
    if not (len(aa_trace.iterates) and len(gmres_trace.iterates)):
        raise ValueError("the AA-vs-GMRES check needs traces with their iterates")
    res = gmres_trace.residual_norms
    K = max(0, min(k_max, len(aa_trace.iterates) - 1, len(gmres_trace.iterates) - 1))
    for k in range(K):
        if res[k + 1] >= res[k]:
            raise StagnationDetected(
                f"GMRES residual did not strictly decrease at step {k} "
                f"({res[k]:.3e} -> {res[k + 1]:.3e})"
            )
    dev = _norms(aa_trace.iterates[1:K + 1] - problem.q(gmres_trace.iterates[:K]))
    return float(dev.max(initial=0.0))
