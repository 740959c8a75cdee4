"""Convergence-factor estimation and Monte-Carlo experiment drivers."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

# run_scheme is unused here but stays bound: perfbench/tracer.py patches
# analysis.run_scheme by name
from .accelerators import (  # noqa: F401
    TAIL_WINDOW, AccelConfig, IterationTrace, _iterate, last_usable, root_error, run_scheme)
from .augmented import directional_derivative
from .errors import InsufficientData
from .linalg import chunks, spectral_radius
from .problems import FixedPointProblem

SWEEP_BINS = 40  # bins of a sweep's sigma_final histograms
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
    max over the final 20 usable iterations, a limsup proxy robust to the
    oscillation of sigma_k.  Iterations whose error is at or below the
    rounding floor 1e-14 * (1 + ||x*||) are excluded (accelerators.last_usable).
    This is estimate_r_factors' batch of one, which raises InsufficientData
    where that has no estimate.
    """
    est = estimate_r_factors([trace])
    if not est.k_used[0]:
        raise InsufficientData("failed run, unknown x* or no usable iteration above the floor")
    return RFactorEstimate(*(column[0].item() for column in vars(est).values()))


@np.errstate(invalid="ignore")  # inf - inf between two infinite sigmas is NaN, not Cauchy
def _estimates(e: np.ndarray, k: np.ndarray, converged: np.ndarray,
               failed: np.ndarray) -> RFactorEstimate:
    """The estimate of every row of the tails e and k, the estimator's one core.

    e and k (N, 20) hold a run's last usable error norms and their steps
    k >= 1, oldest first with the newest in the last column, and NaN and 0
    where it has none (accelerators.last_usable); converged and failed (N,) are
    the stop test's flag and whether the run failed.  A failed run has no
    estimate.  sigma is root_error, the one sigma formula, of every entry.
    """
    k = np.where(failed[:, None], 0, k)
    sigma = root_error(e, k)
    cauchy = np.abs(sigma[:, -1] - sigma[:, -2]) <= 1e-3
    return RFactorEstimate(sigma_final=sigma[:, -1], sigma_tail_max=np.fmax.reduce(sigma, axis=1),
                           k_used=k[:, -1], converged=(k[:, -1] > 0) & (cauchy | converged))


def estimate_r_factors(traces: Sequence[IterationTrace]) -> RFactorEstimate:
    """estimate_r_factor of every trace at once, as columns with a row per trace.

    A trace that failed or has no usable iteration gets no estimate; NaN
    error norms (x* unknown) are never usable.  Each linalg.chunks chunk of
    traces pads its error norms with NaN into one table, whose tails
    last_usable finds, as a sweep's run loop finds them.
    """
    lengths = [len(tr.error_norms) for tr in traces]
    e, k = np.full((len(traces), TAIL_WINDOW), np.nan), np.zeros((len(traces), TAIL_WINDOW), int)
    for s in chunks(len(traces), max([1, *lengths])):
        chunk = traces[s]
        errs = np.full((len(chunk), max(lengths[s])), np.nan)
        for row, tr in enumerate(chunk):
            errs[row, :len(tr.error_norms)] = tr.error_norms
        e[s], k[s] = last_usable(errs, np.arange(errs.shape[1]), [tr.x_star_norm for tr in chunk])
    return _estimates(e, k, np.array([tr.converged for tr in traces], dtype=bool),
                      np.array([tr.failure is not None for tr in traces], dtype=bool))


@dataclass
class SweepReport:
    """Aggregate of one Monte-Carlo sweep over random initial conditions."""

    inits: np.ndarray  # (n_inits, n)
    estimates: dict    # scheme label -> RFactorEstimate, a row per init


def worst_case_rho(problem: FixedPointProblem) -> float:
    """rho(q'(x*)), the worst-case FP factor; NaN where x* or the Jacobian is missing."""
    if problem.known_fixed_point is None or problem.jacobian is None:
        return float("nan")
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

    Each scheme runs all inits as one batch of the run loop, which keeps a
    window of error norms and each run's tail, no full step log, and
    estimates their factors from the tails at once: the estimates of
    estimate_r_factors(run_batch(...)), bit for bit.  Per-run failures
    (divergence, evaluation errors, too few usable iterations) are rows
    without an estimate rather than aborting the sweep.
    """
    if n_inits < 1:
        raise ValueError("n_inits must be >= 1")
    inits = sample_inits(box, n_inits, seed)
    return SweepReport(inits=inits, estimates={
        scheme_label(cfg): _estimates(*_iterate(problem, inits, cfg, log=False).tails())
        for cfg in schemes})


def derivative_norm_samples(M: np.ndarray, m: int, n_samples: int, seed: int) -> np.ndarray:
    """Norms of the closed-form directional derivative over random directions.

    Each of the m+1 blocks of a direction is an independent isotropic unit
    vector (normalized standard normals in R^n), the random analogue of a
    polar grid per block.  Normalizing the whole stacked vector instead caps
    the observed norms at 1 for the 2x2 benchmark and misses the spike of
    values above it.

    Directions are drawn and differentiated in linalg.chunks of at most
    linalg.CHUNK_FLOATS direction entries.  The draws come from one generator
    in sample order, so sample i is the same for every n_samples.
    """
    M = np.atleast_2d(np.asarray(M, dtype=float))
    n = M.shape[0]
    rng = np.random.default_rng(seed)
    norms = np.empty(n_samples)
    for s in chunks(n_samples, (m + 1) * n):
        blocks = rng.standard_normal((s.stop - s.start, m + 1, n))
        blocks /= np.linalg.norm(blocks, axis=2, keepdims=True)
        value = directional_derivative(M, blocks).value
        norms[s] = np.linalg.norm(value.reshape(len(blocks), -1), axis=1)
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
