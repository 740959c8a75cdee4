"""Convergence-factor estimation and Monte-Carlo experiment drivers."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

# run_scheme is unused here but stays bound: perfbench/tracer.py patches
# analysis.run_scheme by name
from .accelerators import (  # noqa: F401
    AccelConfig, IterationTrace, root_error, run_batch, run_scheme)
from .augmented import directional_derivative
from .errors import InsufficientData
from .linalg import chunk_rows, spectral_radius
from .problems import FixedPointProblem

ERROR_FLOOR_SCALE = 1e-14  # iterations past this error level are rounding noise
SWEEP_BINS = 40  # bins of a sweep's sigma_final histograms
TAIL_WINDOW = 20  # usable iterations over which sigma_tail_max is taken
DERIV_BINS = 60  # bins of the derivative-norm histogram


@dataclass(frozen=True)
class RFactorEstimate:
    """Finite-k proxies for the root-linear convergence factor, one row per run.

    estimate_r_factors gives columns, arrays of float64, float64, int and
    bool with a row per trace; a row without an estimate holds NaN, NaN, 0
    and False.  estimate_r_factor gives the one row as Python scalars.
    """

    sigma_final: np.ndarray
    sigma_tail_max: np.ndarray
    k_used: np.ndarray
    converged: np.ndarray


def scheme_label(cfg: AccelConfig) -> str:
    if cfg.window_m == 0:
        return "fp"
    kind = "aa_restarted" if cfg.restart else "aa"
    return f"{kind}({cfg.window_m})"


def estimate_r_factor(trace: IterationTrace) -> RFactorEstimate:
    """Estimate the r-linear factor from the trace's sigma_k sequence.

    sigma_final is sigma at the last usable iteration; sigma_tail_max is the
    max over the final TAIL_WINDOW usable iterations, a limsup proxy robust to
    the oscillation of sigma_k.  Iterations whose error is below the rounding
    floor 1e-14 * (1 + ||x*||) are excluded.  This is estimate_r_factors'
    batch of one, which raises InsufficientData where that has no estimate.
    """
    est = estimate_r_factors([trace])
    if not est.k_used[0]:
        raise InsufficientData("failed run, unknown x* or no usable iteration above the floor")
    return RFactorEstimate(*(column[0].item() for column in vars(est).values()))


@np.errstate(invalid="ignore")  # inf - inf between two infinite sigmas is NaN, not Cauchy
def estimate_r_factors(traces: Sequence[IterationTrace]) -> RFactorEstimate:
    """estimate_r_factor of every trace at once, as columns with a row per trace.

    A trace that failed or has no usable iteration gets no estimate; NaN
    error norms (x* unknown) are never usable.  The last TAIL_WINDOW usable
    iterations of every trace are found at once, on the joined error norms
    of all traces.  sigma is evaluated with root_error, the one sigma
    formula, only where the estimate can read it: at the newest two usable
    iterations, and where np.power, which may differ from it in the last
    bit, comes within a relative 1e-12 of its trace's tail maximum.  The
    exact maximum is so always among them.
    """
    n = len(traces)
    est = RFactorEstimate(sigma_final=np.full(n, np.nan), sigma_tail_max=np.full(n, np.nan),
                          k_used=np.zeros(n, dtype=int), converged=np.zeros(n, dtype=bool))
    # a failed trace has no usable iteration
    errs = [np.empty(0) if tr.failure is not None else np.asarray(tr.error_norms, dtype=float)
            for tr in traces]
    lens = np.array(list(map(len, errs)), dtype=int)
    if not lens.sum():
        return est
    e = np.concatenate(errs)
    ends = np.cumsum(lens)
    owner = np.repeat(np.arange(n), lens)  # the trace of each entry
    k = np.arange(len(e)) - (ends - lens)[owner]
    floor = np.array([ERROR_FLOOR_SCALE * (1.0 + tr.x_star_norm) for tr in traces])
    usable = (e > floor[owner]) & (k > 0)
    # the usable iterations of its trace at or after each entry: 1 at the newest
    seen = np.concatenate(([0], np.cumsum(usable)))
    newer = seen[ends][owner] - seen[:-1]
    tail = np.flatnonzero(usable & (newer <= TAIL_WINDOW))
    if not tail.size:
        return est
    # the tails, grouped by trace and oldest first
    e, k, owner, newer = e[tail], k[tail], owner[tail], newer[tail]
    oldest = np.diff(owner, prepend=-1) != 0
    group = np.cumsum(oldest) - 1
    approx = np.power(e, 1.0 / k)
    top = np.maximum.reduceat(approx, np.flatnonzero(oldest))
    exact = np.flatnonzero((newer <= 2) | (approx >= top[group] * (1.0 - 1e-12)))
    sigma = np.array(list(map(root_error, e[exact].tolist(), k[exact].tolist())))
    # each group's newest entry is exact and its last; the one before is its
    # second newest when the group has two
    firsts = np.flatnonzero(np.diff(group[exact], prepend=-1))
    lasts = np.append(firsts[1:], len(exact)) - 1
    rows = owner[exact][lasts]
    est.sigma_final[rows] = sigma[lasts]
    est.sigma_tail_max[rows] = np.maximum.reduceat(sigma, firsts)
    est.k_used[rows] = k[exact][lasts]
    cauchy = (lasts > firsts) & (np.abs(sigma[lasts] - sigma[lasts - 1]) <= 1e-3)
    est.converged[rows] = cauchy | [traces[i].converged for i in rows.tolist()]
    return est


@dataclass
class SweepReport:
    """Aggregate of one Monte-Carlo sweep over random initial conditions."""

    inits: np.ndarray  # (n_inits, n)
    estimates: dict    # scheme label -> RFactorEstimate, a row per init


def worst_case_rho(problem: FixedPointProblem) -> Optional[float]:
    """rho(q'(x*)), the worst-case FP factor, when the Jacobian is available."""
    if problem.known_fixed_point is None or problem.jacobian is None:
        return None
    return spectral_radius(problem.jacobian(problem.known_fixed_point))


def sample_inits(box: np.ndarray, n_inits: int, seed: int) -> np.ndarray:
    """n_inits points uniform in the axis-aligned box (n, 2), one master seed."""
    box = np.atleast_2d(np.asarray(box, dtype=float))
    rng = np.random.default_rng(seed)
    u = rng.random((n_inits, box.shape[0]))
    return box[:, 0] + u * (box[:, 1] - box[:, 0])


def bin_counts(values: np.ndarray, bins: int) -> tuple[np.ndarray, np.ndarray]:
    """(bin_edges, counts): np.histogram(values, bins) for finite values of any spread.

    A spread too narrow for bins + 1 distinct edges is widened by 0.5 on each
    side, as np.histogram widens zero spread.
    """
    lo, hi = (values.min(), values.max()) if values.size else (0.0, 1.0)
    if np.any(np.diff(np.linspace(lo, hi, bins + 1)) <= 0.0):
        lo, hi = lo - 0.5, hi + 0.5
    counts, edges = np.histogram(values, bins=bins, range=(lo, hi))
    return edges, counts


def monte_carlo_sweep(
    problem: FixedPointProblem,
    schemes: Sequence[AccelConfig],
    box: np.ndarray,
    n_inits: int,
    seed: int,
) -> SweepReport:
    """Run every scheme from every random init; deterministic given the seed.

    Each scheme runs all inits through one run_batch call and estimates
    their factors with one estimate_r_factors call.  Per-run failures
    (divergence, evaluation errors, too few usable iterations) are rows
    without an estimate rather than aborting the sweep.
    """
    if n_inits < 1:
        raise ValueError("n_inits must be >= 1")
    inits = sample_inits(box, n_inits, seed)
    return SweepReport(inits=inits, estimates={
        scheme_label(cfg): estimate_r_factors(run_batch(problem, inits, cfg)) for cfg in schemes})


def derivative_norm_samples(M: np.ndarray, m: int, n_samples: int, seed: int) -> np.ndarray:
    """Norms of the closed-form directional derivative over random directions.

    Each of the m+1 blocks of a direction is an independent isotropic unit
    vector (normalized standard normals in R^n), the random analogue of a
    polar grid per block.  Normalizing the whole stacked vector instead caps
    the observed norms at 1 for the 2x2 benchmark and misses the spike of
    values above it.

    Directions are drawn and differentiated in chunks of at most
    linalg.CHUNK_FLOATS direction entries.  The draws come from one generator
    in sample order, so sample i is the same for every n_samples.
    """
    M = np.atleast_2d(np.asarray(M, dtype=float))
    n = M.shape[0]
    rng = np.random.default_rng(seed)
    chunk = chunk_rows((m + 1) * n)
    norms = np.empty(n_samples)
    for start in range(0, n_samples, chunk):
        stop = min(start + chunk, n_samples)
        blocks = rng.standard_normal((stop - start, m + 1, n))
        blocks /= np.linalg.norm(blocks, axis=2, keepdims=True)
        value = directional_derivative(M, blocks).value
        norms[start:stop] = np.linalg.norm(value.reshape(stop - start, -1), axis=1)
    return norms


@dataclass(frozen=True)
class MSweepRow:
    m: int
    scheme: str  # "windowed" | "restarted"
    worst_sigma: float


def m_sweep(
    problem: FixedPointProblem,
    m_values: Sequence[int],
    n_inits: int,
    seed: int,
    box: np.ndarray | None = None,
    max_iters: int = 100,
    stop_tol: float = 1e-12,
) -> list[MSweepRow]:
    """Worst-case sigma_final per (m, windowed/restarted) over random inits.

    One sweep runs every distinct scheme; there is a row per requested pair, in order.
    """
    if box is None:
        box = np.tile([-1.0, 1.0], (problem.dim, 1))
    cfgs = [AccelConfig(window_m=m, restart=restart, max_iters=max_iters, stop_tol=stop_tol)
            for m in m_values for restart in (False, True)]
    report = monte_carlo_sweep(problem, list(dict.fromkeys(cfgs)), box, n_inits, seed)
    # the largest sigma_final of the runs with an estimate, NaN when there is none
    return [MSweepRow(m=cfg.window_m, scheme="restarted" if cfg.restart else "windowed",
                      worst_sigma=float(np.fmax.reduce(
                          report.estimates[scheme_label(cfg)].sigma_final, initial=np.nan)))
            for cfg in cfgs]
