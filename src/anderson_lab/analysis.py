"""Convergence-factor estimation and Monte-Carlo experiment drivers."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import Optional, Sequence

import numpy as np

# run_scheme is unused here but stays bound: perfbench/tracer.py patches
# analysis.run_scheme by name
from .accelerators import AccelConfig, IterationTrace, run_batch, run_scheme  # noqa: F401
from .augmented import directional_derivative
from .errors import AndersonLabError, InsufficientData
from .linalg import chunk_rows, spectral_radius
from .problems import FixedPointProblem

ERROR_FLOOR_SCALE = 1e-14  # iterations past this error level are rounding noise
SWEEP_BINS = 40  # bins of a sweep's sigma_final histograms
TAIL_WINDOW = 20  # usable iterations over which sigma_tail_max is taken
DERIV_BINS = 60  # bins of the derivative-norm histogram


@dataclass(frozen=True)
class RFactorEstimate:
    """Finite-k proxy for the root-linear convergence factor of one run."""

    sigma_final: float
    sigma_tail_max: float
    k_used: int
    converged: bool


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
    floor 1e-14 * (1 + ||x*||) are excluded.  sigma is evaluated only at the
    last TAIL_WINDOW usable iterations, found by scanning the error norms
    from the end.
    """
    errs = trace.error_norms
    if errs is None:
        raise InsufficientData("trace has no error norms (fixed point unknown)")
    floor = ERROR_FLOOR_SCALE * (1.0 + (trace.x_star_norm or 0.0))
    # the last TAIL_WINDOW usable iterations, newest first
    tail = list(islice((k for k in range(len(errs) - 1, 0, -1) if errs[k] > floor),
                       TAIL_WINDOW))
    if not tail:
        raise InsufficientData("no usable iterations above the rounding floor")
    sigma = [trace.sigma_at(k) for k in tail]
    cauchy = len(sigma) >= 2 and abs(sigma[0] - sigma[1]) <= 1e-3
    return RFactorEstimate(
        sigma_final=sigma[0],
        sigma_tail_max=max(sigma),
        k_used=tail[0],
        converged=bool(trace.converged or cauchy),
    )


@dataclass
class SweepReport:
    """Aggregate of one Monte-Carlo sweep over random initial conditions."""

    seed: int
    inits: np.ndarray  # (n_inits, n)
    estimates: dict    # scheme label -> list[RFactorEstimate | None] per init
    histograms: dict   # scheme label -> (bin_edges, counts)


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

    Each scheme runs all inits through one run_batch call.  Per-run failures
    (divergence, evaluation errors, too few usable iterations) are recorded
    as None entries rather than aborting the sweep.
    """
    if n_inits < 1:
        raise ValueError("n_inits must be >= 1")
    inits = sample_inits(box, n_inits, seed)

    estimates: dict[str, list] = {}
    for cfg in schemes:
        per_init = []
        for tr in run_batch(problem, inits, cfg):
            est = None
            if tr.failure is None:
                try:
                    est = estimate_r_factor(tr)
                except AndersonLabError:
                    pass
            per_init.append(est)
        estimates[scheme_label(cfg)] = per_init

    histograms = {}
    for label, per_init in estimates.items():
        finals = np.array([e.sigma_final for e in per_init if e is not None])
        histograms[label] = bin_counts(finals, SWEEP_BINS)
    return SweepReport(seed=seed, inits=inits, estimates=estimates, histograms=histograms)


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
    rows = []
    for cfg in cfgs:
        finals = [e.sigma_final for e in report.estimates[scheme_label(cfg)] if e is not None]
        rows.append(MSweepRow(m=cfg.window_m, scheme="restarted" if cfg.restart else "windowed",
                              worst_sigma=max(finals) if finals else float("nan")))
    return rows
