"""Iterative schemes: plain fixed-point, windowed/restarted AA(m), dense GMRES.

All runs record an IterationTrace whose sequences are aligned by iteration
index k.  Error-based quantities (error norms, sigma_k, error ratios) are NaN
where the problem does not know its fixed point; the stopping test always
uses the residual norm, which is available for any problem.  FP and AA(m)
share one loop over a batch of initial conditions in lockstep (run_batch),
GMRES has its own (gmres_batch), and a single run is a batch of one.  Every
row of both loops ends in the step log's one stop test (_Steps.record).
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
from .linalg import _stacked_solve, anderson_coefficients, chunks  # noqa: F401
from .problems import FixedPointProblem, make_affine  # noqa: F401

DIVERGENCE_GUARD = 1e12
ERROR_FLOOR_SCALE = 1e-14  # iterations past this error level are rounding noise
TAIL_WINDOW = 20  # usable iterations over which sigma_tail_max is taken


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


def root_error(e, k) -> np.ndarray:
    """e^(1/k) elementwise, the root-averaged error of error norms e at steps k; NaN where k = 0.

    float_power calls the C library's pow, as Python's float ** does, so each
    entry is e ** (1.0 / k) bit for bit; np.power may differ in the last bit.
    """
    k = np.asarray(k)
    return np.where(k > 0, np.float_power(e, 1.0 / np.maximum(k, 1)), np.nan)


@dataclass
class IterationTrace:
    """Per-iteration record of one run.

    A trace holds the residual and error norms of every iterate as 1-D
    float arrays, the error norms NaN where x* is unknown (as is x_star_norm),
    and its first keep iterates (kept, n) (a single run keeps all) with the
    beta (kept - 1, w) and rank (kept - 1,) of the updates that produced
    them: beta[k] produced iterates[k + 1], NaN beyond its window,
    w = min(m, keep - 1), and FP has w = 0 and ranks 0 (GMRES: both empty).
    A run's arrays are views of its row of its batch's step log (_Steps).
    sigma_k and error_ratios are lists derived from error_norms on first
    read, NaN at k = 0 by convention and wherever the error norms are;
    sigma_k uses root_error, the one sigma formula.  failure is the error
    that stopped the run, or None; the trace then ends with its iterate.
    """

    iterates: np.ndarray = field(default_factory=lambda: np.empty((0, 0)))
    residual_norms: np.ndarray = field(default_factory=lambda: np.empty(0))
    error_norms: np.ndarray = field(default_factory=lambda: np.empty(0))
    beta: np.ndarray = field(default_factory=lambda: np.empty((0, 0)))
    rank: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=int))
    x_star_norm: float = 0.0
    converged: bool = False
    failure: Optional[AndersonLabError] = None

    def __len__(self) -> int:
        return len(self.residual_norms)

    @cached_property
    def sigma_k(self) -> list:
        """sigma_k = ||x_k - x*||^(1/k), the root-averaged error, for every k."""
        return root_error(self.error_norms, np.arange(len(self.error_norms))).tolist()

    @cached_property
    def error_ratios(self) -> list:
        """||x_k - x*|| / ||x_{k-1} - x*||, NaN where the previous error is 0 or NaN."""
        errs = np.asarray(self.error_norms, dtype=float).tolist()
        nan = float("nan")
        return [e / p if p > 0.0 else nan for p, e in zip([nan, *errs], errs)]


def _norms(V: np.ndarray) -> np.ndarray:
    """Norms along the last axis, each bitwise equal to np.linalg.norm of its row."""
    return np.sqrt(np.vecdot(V, V))


def _aa_update(q_hist, r_hist) -> tuple:
    """One AA update for a batch, from cached q and r histories, newest first.

    Each history is a list of (B, n) arrays or a (mk + 1, B, n) array, the
    newest entry at [0].  The update solves B least-squares problems of mk
    columns with one stacked SVD, whose column j pairs the newest residual
    with the one j + 1 steps older, at [1 + j].  Returns the next iterates
    (B, n), the coefficients (B, mk) and the numerical ranks (B,).  mk = 0 is
    the plain fixed-point step, which solves nothing: no coefficients, rank
    0.  Every residual must have a finite norm, so that R and r are finite:
    the solve is linalg's unchecked kernel.
    """
    qk, rk = q_hist[0], r_hist[0]
    mk = len(q_hist) - 1
    if not mk:
        return qk.copy(), np.zeros((len(qk), 0)), np.zeros(len(qk), dtype=int)
    R = np.empty(rk.shape + (mk,))
    Q = np.empty(R.shape)
    for j in range(mk):
        np.subtract(rk, r_hist[1 + j], out=R[..., j])
        np.subtract(qk, q_hist[1 + j], out=Q[..., j])
    coeffs, ranks = _stacked_solve(R, rk)
    return qk + (Q @ coeffs[..., None])[..., 0], coeffs, ranks


def _joined(parts: list) -> tuple:
    """_aa_update's triples of the chunks of a batch's rows, joined in row order.

    The AA update steps its rows in linalg.chunks of 5 n (window + 1) floats
    a row: the window + 1 q and r history entries, R, Q and the SVD's U.  The
    chunks change no value: each row's stacked solve is independent of the others.
    """
    return parts[0] if len(parts) == 1 else tuple(np.concatenate(p) for p in zip(*parts))


def aa_step(problem: FixedPointProblem,
            history: Sequence[np.ndarray]) -> tuple[np.ndarray, np.ndarray, int]:
    """One AA update from the last min(k, m) + 1 iterates (newest last): x_next, beta, rank."""
    if not len(history):
        raise ValueError("history must contain at least the current iterate")
    x_next, coeffs, ranks = _update_at(problem, np.asarray(history, dtype=float)[None, ::-1])
    return x_next[0], coeffs[0], int(ranks[0])


def _update_at(problem: FixedPointProblem, blocks: np.ndarray) -> tuple:
    """_aa_update of each history of the stack blocks (S, k + 1, n), newest block first.

    The update of aa_step and of the lifted map.  Each chunk of states
    (linalg.chunks; one empty chunk when S = 0) is laid out as a history of
    the run loop, (k + 1, rows, n) newest first, and evaluates q, its
    residuals and the update on its own.  The run loop's stop rule holds
    for every residual: NonFinite unless its norm is below Inf (not NaN),
    which also keeps R and r finite.  ValueError when the blocks are not of
    the problem's dimension.
    """
    def update(s):
        X = np.ascontiguousarray(blocks[s].transpose(1, 0, 2))  # (k + 1, rows, n)
        Qx = problem.q(X)
        Rx = X - Qx
        if not (_norms(Rx) < np.inf).all():
            raise NonFinite("a residual norm of the history is not finite")
        return _aa_update(Qx, Rx)

    S, k1, n = blocks.shape
    if n != problem.dim:
        raise ValueError("state block size does not match problem dimension")
    with np.errstate(over="ignore", invalid="ignore"):
        return _joined([update(s) for s in chunks(S, 5 * n * k1) or [slice(0)]])


def _grown(table: np.ndarray, size: int) -> np.ndarray:
    """A copy of table with size steps (axis 1), the new ones unset."""
    out = np.empty(table.shape[:1] + (size,) + table.shape[2:], table.dtype)
    out[:, :table.shape[1]] = table
    return out


def last_usable(e: np.ndarray, k: np.ndarray, x_star_norm: float | Sequence[float]) -> tuple:
    """Each row's last TAIL_WINDOW usable error norms in the table e and their steps.

    e (rows, steps) holds error norms, NaN where a row has none, and k (which
    broadcasts to e) their steps, each row's in increasing order; x_star_norm
    is ||x*|| per row, or one for all.  An error at step k is usable when
    k >= 1 and it is above the rounding floor ERROR_FLOOR_SCALE (1 + ||x*||),
    so never NaN.  Returns (e, k), both (rows, TAIL_WINDOW), oldest first
    with the newest in the last column, and NaN and 0 where a row has fewer.
    """
    k = np.broadcast_to(k, e.shape)
    usable = (k >= 1) & (e > ERROR_FLOOR_SCALE * (1.0 + np.reshape(x_star_norm, (-1, 1))))
    # each entry's slot in its row's tail: TAIL_WINDOW - 1 at the newest usable error
    seen = np.cumsum(usable, axis=1)
    slot = seen + (TAIL_WINDOW - 1 - seen[:, -1:])
    tail = usable & (slot >= 0)
    rows, slots = np.nonzero(tail)[0], slot[tail]
    tail_e = np.full((len(e), TAIL_WINDOW), np.nan)
    tail_k = np.zeros(tail_e.shape, dtype=int)
    tail_e[rows, slots], tail_k[rows, slots] = e[tail], k[tail]
    return tail_e, tail_k


class _Steps:
    """A lockstep batch's step log: tables indexed by (row, step), the stop test, the traces.

    Iterate k of row i has its norms at res[i, k] and err[i, k - k0] (NaN
    where x* is unknown) for k < length[i]: max_k + 1, or less where the
    stop test (or the loop) stopped the row.  A kept step (k < keep) has
    iterates[i, k], and the update that gave it beta[i, k - 1] (NaN beyond
    its window) and rank[i, k - 1], solved[i] of them.  No table is sized by
    max_iters or pre-filled: each step axis starts at STEPS0 and doubles
    when a step does not fit.  With log, k0 is 0.  rows holds the batch
    index of each running row, in order; record drops the rows that stop.

    Without log, the step log keeps no residual norms and no traces: err is
    a window of WINDOW steps from k0, NaN where a row has not recorded a
    step.  The steps only increase, and the step past the window's end
    folds the window into each row's tail, its last TAIL_WINDOW usable
    errors (last_usable; empty at first), empties it and moves k0 to that
    step.
    """

    STEPS0 = 16
    WINDOW = 32  # a sweep's window: each fold rereads the tails, which 16 steps do too often

    def __init__(self, problem: FixedPointProblem, B: int, keep: int, m: int, max_k: int,
                 log: bool = True):
        # x* as a (1, n) row, which subtracts from X faster than (n,); numpy
        # casts None (x* unknown) to NaN, so the row is NaN then
        self.x_star = np.full((1, problem.dim), problem.known_fixed_point, dtype=float)
        self.x_star_norm = float(np.linalg.norm(self.x_star))
        self.zero_star = not self.x_star.any()  # every entry +-0 (NaN is not)
        self.keep, self.log, self.k0 = keep, log, 0
        self.rows = np.arange(B)
        self.converged = np.zeros(B, dtype=bool)
        self.failures = [None] * B
        self.length, self.solved = np.full(B, max_k + 1), np.zeros(B, dtype=int)
        if log:
            self.res, self.err = np.empty((2, B, self.STEPS0))
        else:
            self.err = np.full((B, self.WINDOW), np.nan)
            self.tail_e, self.tail_k = np.empty((B, 0)), np.empty((B, 0), dtype=int)
        kept = min(keep, self.STEPS0)
        self.iterates = np.empty((B, kept, problem.dim))
        self.beta = np.empty((B, max(kept - 1, 0), min(m, max(keep - 1, 0))))
        self.rank = np.empty(self.beta.shape[:2], dtype=int)

    def record(self, X: np.ndarray, rn: np.ndarray, k: int, errors: dict,
               tol: float | np.ndarray, update: Sequence = ()) -> Optional[np.ndarray]:
        """Records iterate k of the running rows and the update that gave it, and tests it once.

        The norms go to the tables, without log the error norm to the window;
        update is that update's (coefficients, ranks), none at k = 0 or for
        GMRES, and goes to beta and rank with the iterate where it is kept.

        A row stops, in this order of priority, when it is outside the
        divergence guard ball (Diverged), when errors (by running-row index)
        holds the error that ends it (q's error, or GMRES's Breakdown), when
        its residual norm rn is NaN/Inf (NonFinite), or when rn is at most
        tol, a scalar or one per row (converged).  The rows that stop leave
        rows.  Returns the mask of the running rows that go on, or None when
        every one does.
        """
        rows = self.rows
        # where x* is exactly zero, (+-0 - x)^2 = x^2 makes the error norm ||x||
        # bit for bit, which the divergence guard reads too
        e = _norms(X) if self.zero_star else _norms(self.x_star - X)
        if self.log:
            if k >= self.res.shape[1]:  # one table at a time, which lowers the peak
                self.res = _grown(self.res, 2 * k)
                self.err = _grown(self.err, 2 * k)
            self.res[:, k][rows] = rn
        elif k - self.k0 == self.err.shape[1]:
            self._fold()
            self.k0 = k
        self.err[:, k - self.k0][rows] = e
        if k < self.keep:
            if k >= self.iterates.shape[1]:
                size = min(2 * k, self.keep)
                self.iterates = _grown(self.iterates, size)
                self.beta, self.rank = _grown(self.beta, size - 1), _grown(self.rank, size - 1)
            self.iterates[:, k][rows] = X
            if update:
                coeffs, ranks = update
                self.beta[:, k - 1, :coeffs.shape[1]][rows] = coeffs
                if coeffs.shape[1] < self.beta.shape[2]:  # NaN beyond the window
                    self.beta[:, k - 1, coeffs.shape[1]:][rows] = np.nan
                self.rank[:, k - 1][rows] = ranks
                self.solved[rows] = k
        xn = e if self.zero_star else _norms(X)
        # the ufunc reductions are the cheapest whole-batch tests, which
        # matters at B = 1
        if (not errors and np.logical_and.reduce(rn > tol) and np.maximum.reduce(rn) < np.inf
                and np.maximum.reduce(xn) <= DIVERGENCE_GUARD):
            return None
        out = xn > DIVERGENCE_GUARD
        failed = out | ~(rn < np.inf)  # NaN included
        if errors:
            failed[list(errors)] = True
        for j in np.flatnonzero(failed):
            self.failures[rows[j]] = (
                Diverged(f"||x_k|| exceeded {DIVERGENCE_GUARD:g}") if out[j]
                else errors.get(j) or NonFinite(f"residual norm is {rn[j]} at k = {k}"))
        done = ~failed & (rn <= tol)
        self.converged[rows[done]] = True
        going = ~(failed | done)
        self.length[rows[~going]] = k + 1
        self.rows = rows[going]
        return going

    def _fold(self) -> None:
        """Folds the window of error norms into the tails and empties it."""
        steps = np.broadcast_to(self.k0 + np.arange(self.err.shape[1]), self.err.shape)
        self.tail_e, self.tail_k = last_usable(np.concatenate([self.tail_e, self.err], axis=1),
                                               np.concatenate([self.tail_k, steps], axis=1),
                                               self.x_star_norm)
        self.err.fill(np.nan)

    def tails(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(e, k, converged, failed): each row's tail (last_usable), stop-test flag and failure."""
        self._fold()
        return (self.tail_e, self.tail_k, self.converged,
                np.array([f is not None for f in self.failures], dtype=bool))

    def traces(self) -> list[IterationTrace]:
        """The IterationTrace of each row, whose arrays are views of its rows of the tables."""
        return [IterationTrace(iterates=self.iterates[i, :min(n, self.keep)],
                               residual_norms=self.res[i, :n], error_norms=self.err[i, :n],
                               beta=self.beta[i, :s], rank=self.rank[i, :s],
                               x_star_norm=self.x_star_norm, converged=c, failure=f)
                for i, (n, s, c, f) in enumerate(zip(self.length.tolist(), self.solved.tolist(),
                                                     self.converged.tolist(), self.failures))]


@np.errstate(over="ignore")  # a norm beyond ~1e154 is Inf, which the stop test fails
def _iterate(problem: FixedPointProblem, X0: np.ndarray, cfg: AccelConfig, keep: int = 0,
             log: bool = True) -> _Steps:
    """FP, windowed or restarted AA(m) from every row of X0, in lockstep: the step log.

    See run_batch.  Without log, the step log keeps only a window of error
    norms and each row's tail (_Steps.tails), which the sweeps estimate from.

    Every running row takes step k together: q is evaluated once on them
    (once more on the others when q raised for some of them), the step log
    records every iterate and the update that gave it at its row and step
    and tests it once (_Steps.record), and one update (_aa_update, on the
    histories themselves when linalg.chunks gives one chunk, else chunk by
    chunk of rows: _joined) solves all their least-squares problems.  The
    history length depends on the step count alone, so the running rows
    share it.  The rows the stop test stops leave the batch, and the other
    rows go on.
    """
    X = _batch_starts(problem, X0, keep)
    m = cfg.window_m
    steps = _Steps(problem, len(X), keep, m, cfg.max_iters, log)
    q_hist, r_hist = [], []  # q and r of the running rows, newest first
    k, update = 0, ()
    while True:
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
        going = steps.record(X, _norms(Rx), k, q_errors, cfg.stop_tol, update)
        # push q and r with the m newest older entries; after a full window
        # restarted AA(m) keeps none, so it restarts every m (accelerated) steps
        keep_old = 0 if cfg.restart and len(q_hist) == m + 1 else m
        q_hist, r_hist = [Qx, *q_hist[:keep_old]], [Rx, *r_hist[:keep_old]]
        if going is not None:
            q_hist = [a[going] for a in q_hist]
            r_hist = [a[going] for a in r_hist]
        if k == cfg.max_iters or not steps.rows.size:
            return steps

        # every residual in the history has a finite norm (_aa_update)
        parts = chunks(len(steps.rows), 5 * problem.dim * len(q_hist))
        X, *update = (_aa_update(q_hist, r_hist) if len(parts) == 1 else
                      _joined([_aa_update([a[s] for a in q_hist], [a[s] for a in r_hist])
                               for s in parts]))
        k += 1


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

    The rows run in lockstep, every running row taking each step together;
    each running row holds its q and r histories, 2 n (window + 1) floats,
    and the update steps them in chunks (linalg.chunks), whose
    temporaries stay within linalg.CHUNK_FLOATS.  An error in q (EvalError)
    fails only the rows it was raised on, and a trace's failure is the error
    that stopped its row (not raised).  Every row equals its single-init run
    bit for bit.  Each trace keeps the row's first
    keep iterates and the coefficients and ranks that produced them (none at
    keep = 0), as views of the batch's step log, which holds B times the
    longest row's steps.
    """
    return _iterate(problem, X0, cfg, keep).traces()


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


@np.errstate(over="ignore")  # a norm beyond ~1e154 is Inf, which the guard or stop test fails
def _gmres(problem: FixedPointProblem, X0: np.ndarray, cfg: AccelConfig,
           keep: int) -> list[IterationTrace]:
    """Dense GMRES from every row of X0, in lockstep; see gmres_batch.

    Each step makes one stacked matvec, the MGS and Givens loops and one
    stacked triangular solve for all running rows.  Every row keeps the
    arithmetic of a run of its own: a gemv per row, strided dot products,
    and products and differences as separate operations.  As in the run
    loop, the step log records and tests every iterate, x0 included, at the
    top of the loop, and stopped rows leave the batch there, by boolean
    indexing of every per-row array.
    """
    A = problem.affine.A
    b = problem.affine.b
    B, n = X0.shape
    max_k = min(cfg.max_iters, n)
    steps = _Steps(problem, B, keep, 0, max_k)
    R0 = b - (A @ X0[..., None])[..., 0]
    X = X0
    rn = beta0 = _norms(R0)
    # V keeps the basis vectors as columns, as the tests' scalar reference
    # loop (_gmres_loop_reference) keeps them in its (n, max_k + 1) array,
    # so that its dot products see the same strides.  The Hessenberg
    # columns H[k] (max_k + 1, B), the rotations and g, whose layout changes
    # no value, put the batch axis last for cheap indexing.
    V = np.zeros((B, n, max_k + 1))
    with np.errstate(divide="ignore", invalid="ignore"):  # a zero, NaN or Inf beta0 stops at k = 0
        V[:, :, 0] = R0 / beta0[:, None]
    H = np.zeros((max_k, max_k + 1, B))
    cs, sn = np.zeros((2, max_k, B))
    g = np.zeros((max_k + 1, B))
    g[0] = beta0
    errors, tol = {}, cfg.stop_tol

    for k in range(max_k + 1):
        going = steps.record(X, rn, k, errors, tol)
        if going is not None:
            X0, beta0, V = X0[going], beta0[going], V[going]
            H, cs, sn, g = H[..., going], cs[:, going], sn[:, going], g[:, going]
        if k == max_k or not steps.rows.size:
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

        # happy breakdown means the Krylov space became invariant, so the row
        # stops: converged at rounding level (or stop_tol), else Breakdown
        # if its residual is finite.  beta0 is finite, so maximum is Python's max
        errors, tol = {}, cfg.stop_tol
        if happy.any():
            tol = np.where(happy, np.maximum(tol, 1e-10 * np.maximum(1.0, beta0)), tol)
            errors = {j: Breakdown("Arnoldi produced a zero vector before convergence")
                      for j in np.flatnonzero(happy & (rn > tol) & (rn < np.inf)).tolist()}

    return steps.traces()


def gmres_batch(problem: FixedPointProblem, X0: np.ndarray, cfg: AccelConfig,
                keep: int = 0) -> list[IterationTrace]:
    """Full-memory dense GMRES on (I - M) x = b from every row of X0 (B, n) of an affine problem.

    Modified Gram-Schmidt Arnoldi with Givens rotations on the Hessenberg
    least-squares problem; the iterate is reconstructed every step so the
    traces line up with the other schemes, and goes through the run loop's
    stop test.  A happy breakdown (a zero Arnoldi vector) ends a row there:
    converged when its residual is at most max(stop_tol, 1e-10 max(1,
    ||r_0||)), the rounding level, and with Breakdown when it is above.
    A trace's failure is the error that stopped its row (not raised).  A
    problem without an affine form raises ValueError.

    The rows run in lockstep, chunk by chunk (linalg.chunks): a row holds
    its Arnoldi basis V, n (max_k + 1) floats, and Hessenberg matrix H,
    (max_k + 1) max_k floats, with max_k = min(max_iters, n).  Every row
    equals its single-init run bit for bit.
    Each trace keeps the row's first keep iterates; its beta and rank are empty.
    """
    if problem.affine is None:
        raise ValueError("gmres requires an affine problem")
    X = _batch_starts(problem, X0, keep)
    max_k = min(cfg.max_iters, problem.dim)
    return [tr for s in chunks(len(X), (problem.dim + max_k) * (max_k + 1))
            for tr in _gmres(problem, X[s], cfg, keep)]


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
    stalls = np.flatnonzero(res[1:K + 1] >= res[:K])  # the steps k with res[k + 1] >= res[k]
    if stalls.size:
        k = stalls[0]
        raise StagnationDetected(f"GMRES residual did not strictly decrease at step {k} "
                                 f"({res[k]:.3e} -> {res[k + 1]:.3e})")
    dev = _norms(aa_trace.iterates[1:K + 1] - problem.q(gmres_trace.iterates[:K]))
    return float(dev.max(initial=0.0))
