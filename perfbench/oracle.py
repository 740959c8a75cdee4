"""Reference outputs for the benchmark workloads, computed without the package.

This is a frozen, self-contained restatement of the arithmetic the package
performed when the benchmark was defined: the same numpy calls on the same
shapes in the same order, so it reproduces that commit's CSV values bit for
bit at any seed (the stored references under reference/ check this at two
seeds).  The correctness gate compares the program against it within
gate.TOL, so a later speed-up may reorder arithmetic by a few ulps but may not
change results.  It deliberately shares no code with src/.
"""

from __future__ import annotations

import numpy as np

_EPS = np.finfo(float).eps
DIVERGENCE_GUARD = 1e12
STOP_TOL = 1e-12
TAIL_WINDOW = 20
ERROR_FLOOR = 1e-14  # times (1 + ||x*||); x* = 0 for every workload problem


class Failed(Exception):
    """A trajectory the package would report as a failed estimate."""


def linear2x2() -> np.ndarray:
    return np.array([[2.0 / 3.0, 1.0 / 4.0], [0.0, 1.0 / 3.0]])


def linear200(l2: float, l3: float, l4: float) -> np.ndarray:
    M = np.diag(np.concatenate([[0.9, l2, l3, l4], np.linspace(0.29325, 0.03, 196)]))
    M[0, 1] = 1.0
    return M


def sample_inits(box: np.ndarray, n_inits: int, seed: int) -> np.ndarray:
    u = np.random.default_rng(seed).random((n_inits, box.shape[0]))
    return box[:, 0] + u * (box[:, 1] - box[:, 0])


def coefficients(R: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Min-norm beta of ||r + R beta||, with the relative degenerate-step rule."""
    m = R.shape[1]
    scale = max(R.shape) * _EPS
    if float(np.max(np.linalg.norm(R, axis=0))) <= scale * float(np.linalg.norm(r)):
        return np.zeros(m)
    U, s, Vt = np.linalg.svd(R, full_matrices=False)
    tol = scale * s[0] or scale
    rank = int(np.count_nonzero(s > tol))
    if rank == 0:
        return np.zeros(m)
    return -Vt[:rank].T @ ((U[:, :rank].T @ r) / s[:rank])


class Trajectory:
    """Error norms, sigma_k and residual norms of one run, x* = 0."""

    def __init__(self):
        self.errs: list[float] = []
        self.sigmas: list[float] = []
        self.resids: list[float] = []
        self.converged = False

    def record(self, x: np.ndarray, resid: float) -> None:
        k = len(self.errs)
        err = float(np.linalg.norm(x))
        self.errs.append(err)
        self.sigmas.append(err ** (1.0 / k) if k >= 1 else float("nan"))
        self.resids.append(resid)


def anderson(M: np.ndarray, x0: np.ndarray, m: int, restart: bool,
             max_iters: int, stop_tol: float) -> tuple[Trajectory, list[np.ndarray]]:
    """FP (m = 0), windowed or restarted AA(m) on q(x) = M x + 0; (trace, iterates).

    The package adds b = 0 to M x; keeping the addition keeps signed zeros equal.
    """
    b = np.zeros(M.shape[0])
    tr = Trajectory()
    x = x0
    qx = M @ x + b
    r = x - qx
    tr.record(x, float(np.linalg.norm(r)))
    iterates = [x]
    q_hist, r_hist = [qx], [r]
    since_restart = 0
    for _ in range(max_iters):
        if tr.resids[-1] <= stop_tol:
            tr.converged = True
            break
        qk, rk = q_hist[-1], r_hist[-1]
        mk = len(q_hist) - 1
        if mk == 0:
            x = qk.copy()
        else:
            R = np.stack([rk - r_hist[-2 - i] for i in range(mk)], axis=1)
            Q = np.stack([qk - q_hist[-2 - i] for i in range(mk)], axis=1)
            x = qk + Q @ coefficients(R, rk)
        if np.linalg.norm(x) > DIVERGENCE_GUARD:
            raise Failed("diverged")
        qx = M @ x + b
        r = x - qx
        tr.record(x, float(np.linalg.norm(r)))
        iterates.append(x)
        since_restart += mk > 0
        if restart and since_restart >= m:
            q_hist, r_hist, since_restart = [qx], [r], 0
        else:
            q_hist.append(qx)
            r_hist.append(r)
            if len(q_hist) > m + 1:
                q_hist.pop(0)
                r_hist.pop(0)
    else:
        tr.converged = tr.resids[-1] <= stop_tol
    return tr, iterates


def r_factor(tr: Trajectory) -> tuple[float, float, bool]:
    """(sigma_final, sigma_tail_max, converged); Failed if nothing is usable."""
    usable = [k for k in range(1, len(tr.errs)) if tr.errs[k] > ERROR_FLOOR]
    if not usable:
        raise Failed("no usable iterations")
    tail = usable[-TAIL_WINDOW:]
    cauchy = len(usable) >= 2 and abs(tr.sigmas[usable[-1]] - tr.sigmas[usable[-2]]) <= 1e-3
    return (float(tr.sigmas[usable[-1]]), float(max(tr.sigmas[k] for k in tail)),
            bool(tr.converged or cauchy))


def _estimates(M, inits, m, restart, max_iters=100):
    out = []
    for x0 in inits:
        try:
            out.append(r_factor(anderson(M, x0, m, restart, max_iters, STOP_TOL)[0]))
        except Failed:
            out.append(None)
    return out


def gmres(M: np.ndarray, x0: np.ndarray, max_iters: int,
          stop_tol: float) -> tuple[Trajectory, list[np.ndarray]]:
    """Dense MGS-Arnoldi GMRES with Givens rotations on (I - M) x = 0."""
    n = M.shape[0]
    A = np.eye(n) - M
    b = np.zeros(n)
    tr = Trajectory()
    r0 = b - A @ x0
    beta0 = float(np.linalg.norm(r0))
    tr.record(x0, beta0)
    iterates = [x0]
    if beta0 <= stop_tol:
        return tr, iterates
    max_k = min(max_iters, n)
    V = np.zeros((n, max_k + 1))
    H = np.zeros((max_k + 1, max_k))
    cs, sn, g = np.zeros(max_k), np.zeros(max_k), np.zeros(max_k + 1)
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
        tr.record(xk, float(np.linalg.norm(b - A @ xk)))
        iterates.append(xk)
        if tr.resids[-1] <= stop_tol:
            return tr, iterates
        if happy:
            if tr.resids[-1] <= 1e-10 * max(1.0, beta0):
                return tr, iterates
            raise Failed("Arnoldi breakdown")
    return tr, iterates


def sweep_tables(M: np.ndarray, box: np.ndarray, n_inits: int, seed: int, m: int) -> dict:
    """sweep.csv and histogram.csv rows of `sweep --scheme aa` at n <= 4."""
    inits = sample_inits(box, n_inits, seed)
    sweep_rows, hist_rows = [], []
    for label, mm in (("fp", 0), (f"aa({m})", m)):
        ests = _estimates(M, inits, mm, False)
        for i, est in enumerate(ests):
            tail = [None, None, False] if est is None else list(est)
            sweep_rows.append([i, *inits[i], label, mm, *tail])
        counts, edges = np.histogram(np.array([e[0] for e in ests if e is not None]), bins=40)
        hist_rows += [[label, float(lo), float(hi), int(c)]
                      for lo, hi, c in zip(edges[:-1], edges[1:], counts)]
    coords = [f"x0_{i}" for i in range(M.shape[0])]
    return {
        "sweep.csv": ("sweep v1", ["init_id", *coords, "scheme", "m", "sigma_final",
                                   "sigma_tail_max", "converged"], sweep_rows),
        "histogram.csv": ("histogram v1", ["scheme", "bin_lo", "bin_hi", "count"], hist_rows),
    }


def derivnorm_tables(M: np.ndarray, m: int, n_samples: int, seed: int) -> dict:
    """derivnorms.csv: norms of the lifted map's derivative at z* on random directions."""
    n = M.shape[0]
    A = np.eye(n) - M
    rng = np.random.default_rng(seed)
    rows = []
    for i in range(n_samples):
        blocks = rng.standard_normal((m + 1, n))
        blocks /= np.linalg.norm(blocks, axis=1, keepdims=True)
        D = blocks[0][:, None] - blocks[1:].T
        bh = coefficients(A @ D, A @ blocks[0])
        value = np.concatenate([M @ (blocks[0] + D @ bh), blocks[:-1].ravel()])
        rows.append([i, float(np.linalg.norm(value))])
    return {"derivnorms.csv": ("derivnorms v1", ["sample_id", "norm"], rows)}


def msweep_tables(M: np.ndarray, m_values, n_inits: int, seed: int) -> dict:
    """msweep.csv: worst sigma_final per (m, windowed/restarted), box [-1, 1]^n."""
    inits = sample_inits(np.tile([-1.0, 1.0], (M.shape[0], 1)), n_inits, seed)
    rows = []
    for m in m_values:
        for scheme, restart in (("windowed", False), ("restarted", True)):
            finals = [e[0] for e in _estimates(M, inits, m, restart) if e is not None]
            rows.append([m, scheme, max(finals) if finals else float("nan")])
    return {"msweep.csv": ("msweep v1", ["m", "scheme", "worst_sigma"], rows)}


def gmres_compare_tables(M: np.ndarray, m: int, k_max: int, iters: int,
                         n_inits: int, seed: int) -> dict:
    """gmres_compare_{traces,deviation}.csv for `gmres-compare --scheme aa`."""
    inits = sample_inits(np.tile([-0.25, 0.25], (M.shape[0], 1)), n_inits, seed)
    b = np.zeros(M.shape[0])
    trace_rows, dev_rows = [], []
    for i, x0 in enumerate(inits):
        for label, (tr, _) in (
            (f"aa({m})", anderson(M, x0, m, False, iters, STOP_TOL)),
            ("aa_inf", anderson(M, x0, iters, False, iters, STOP_TOL)),
            ("gmres", gmres(M, x0, iters, STOP_TOL)),
        ):
            trace_rows += [[i, label, k, tr.sigmas[k], tr.resids[k]]
                           for k in range(len(tr.errs))]
        g_tr, g_x = gmres(M, x0, k_max, 0.0)
        k_used = min(k_max, len(g_x) - 1)
        if any(g_tr.resids[k + 1] >= g_tr.resids[k] for k in range(k_used)):
            dev_rows.append([i, None, True])
            continue
        _, a_x = anderson(M, x0, k_max, False, k_used, 0.0)
        dev = 0.0
        for k in range(k_used):
            dev = max(dev, float(np.linalg.norm(a_x[k + 1] - (M @ g_x[k] + b))))
        dev_rows.append([i, dev, False])
    return {
        "gmres_compare_traces.csv": ("gmres_compare_traces v1",
                                     ["init_id", "scheme", "k", "sigma_k", "resid_norm"],
                                     trace_rows),
        "gmres_compare_deviation.csv": ("gmres_compare_deviation v1",
                                        ["init_id", "deviation", "stagnated"], dev_rows),
    }
