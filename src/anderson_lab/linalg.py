"""Rank-aware dense linear algebra kernel.

Everything here is a pure function on small dense arrays.  The least-squares
solve goes through an explicit SVD so that the minimum-norm solution of
rank-deficient problems is returned, with the numerical rank reported back to
the caller.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NonConvergence, NonFinite

_EPS = np.finfo(float).eps


@dataclass(frozen=True)
class RankInfo:
    """Diagnostics of one pseudo-inverse solve."""

    numerical_rank: int
    singular_values: np.ndarray
    tolerance_used: float


def _check_finite(name: str, a: np.ndarray) -> None:
    if not np.all(np.isfinite(a)):
        raise NonFinite(f"{name} contains non-finite entries")


def min_norm_lstsq(
    R: np.ndarray, rhs: np.ndarray, rank_tol_scale: float = 1.0
) -> tuple[np.ndarray, RankInfo]:
    """Minimum-norm minimizer of ||R x + rhs||_2.

    Singular values sigma_i <= rank_tol_scale * max(n, m) * eps * sigma_max are
    treated as zero, so the result is the pseudo-inverse solution -pinv(R) rhs
    also in the rank-deficient case.
    """
    R = np.atleast_2d(np.asarray(R, dtype=float))
    rhs = np.asarray(rhs, dtype=float).ravel()
    _check_finite("R", R)
    _check_finite("rhs", rhs)
    if R.shape[0] != rhs.shape[0]:
        raise ValueError(f"shape mismatch: R is {R.shape}, rhs has length {rhs.shape[0]}")

    U, s, Vt = np.linalg.svd(R, full_matrices=False)
    smax = s[0] if s.size else 0.0
    tol = rank_tol_scale * max(R.shape) * _EPS * smax
    if tol == 0.0:
        tol = rank_tol_scale * max(R.shape) * _EPS
    rank = int(np.count_nonzero(s > tol))
    if rank == 0:
        coeffs = np.zeros(R.shape[1])
    else:
        coeffs = -Vt[:rank].T @ ((U[:, :rank].T @ rhs) / s[:rank])
    return coeffs, RankInfo(numerical_rank=rank, singular_values=s, tolerance_used=tol)


def spectral_radius(M: np.ndarray) -> float:
    """max |lambda_i| over the eigenvalues of a square matrix."""
    M = np.atleast_2d(np.asarray(M, dtype=float))
    _check_finite("M", M)
    if M.shape[0] != M.shape[1]:
        raise ValueError("spectral_radius needs a square matrix")
    try:
        lam = np.linalg.eigvals(M)
    except np.linalg.LinAlgError as exc:
        raise NonConvergence(f"eigensolve failed: {exc}") from exc
    return float(np.max(np.abs(lam))) if lam.size else 0.0


def operator_norm_2(M: np.ndarray) -> float:
    """Largest singular value (spectral norm)."""
    M = np.atleast_2d(np.asarray(M, dtype=float))
    _check_finite("M", M)
    s = np.linalg.svd(M, compute_uv=False)
    return float(s[0]) if s.size else 0.0


def anderson_coefficients(
    R: np.ndarray, r: np.ndarray, rank_tol_scale: float = 1.0
) -> tuple[np.ndarray, RankInfo]:
    """Acceleration coefficients beta = -pinv(R) r with the degenerate-step rule.

    When every column of R is numerically zero relative to ||r|| the
    least-squares problem carries no usable information and beta = 0 is
    returned (the step degenerates to a plain fixed-point update).  The rule
    must stay relative: near convergence the columns and r shrink together and
    the quotient stays well-scaled.
    """
    R = np.atleast_2d(np.asarray(R, dtype=float))
    r = np.asarray(r, dtype=float).ravel()
    _check_finite("R", R)
    _check_finite("r", r)
    m = R.shape[1]
    r_norm = float(np.linalg.norm(r))
    col_max = float(np.max(np.linalg.norm(R, axis=0))) if m else 0.0
    tol = rank_tol_scale * max(R.shape) * _EPS * r_norm
    if m == 0 or col_max <= tol:
        info = RankInfo(
            numerical_rank=0,
            singular_values=np.zeros(min(R.shape)),
            tolerance_used=max(tol, _EPS),
        )
        return np.zeros(m), info
    return min_norm_lstsq(R, r, rank_tol_scale=rank_tol_scale)


def stacked_anderson_coefficients(
    R: np.ndarray, r: np.ndarray, rank_tol_scale: float = 1.0
) -> tuple[np.ndarray, np.ndarray]:
    """anderson_coefficients for each slice of a stack, with one stacked SVD.

    R has shape (S, n, m) and r shape (S, n).  Returns the (S, m) coefficients
    and the (S,) numerical ranks.  Every slice follows the rules of the 2-D
    function exactly: the relative degenerate-step rule (beta = 0, rank 0),
    the rank cut-off rank_tol_scale * max(n, m) * eps * sigma_max with its
    fallback when sigma_max = 0, and the minimum-norm solution beyond it.
    """
    R = np.asarray(R, dtype=float)
    r = np.asarray(r, dtype=float)
    if R.ndim != 3 or r.shape != R.shape[:2]:
        raise ValueError(f"need R of shape (S, n, m) and r of shape (S, n), "
                         f"got {R.shape} and {r.shape}")
    _check_finite("R", R)
    _check_finite("r", r)
    S, n, m = R.shape
    if m == 0:
        return np.zeros((S, 0)), np.zeros(S, dtype=int)
    scale = rank_tol_scale * max(n, m) * _EPS
    col_max = np.max(np.linalg.norm(R, axis=1), axis=1)
    informative = col_max > scale * np.linalg.norm(r, axis=1)

    U, s, Vt = np.linalg.svd(R, full_matrices=False)
    tol = scale * s[:, 0]
    tol[tol == 0.0] = scale
    kept = (s > tol[:, None]) & informative[:, None]
    Ur = np.einsum("sij,si->sj", U, r)
    w = np.divide(Ur, s, out=np.zeros_like(Ur), where=kept)
    coeffs = -np.einsum("sji,sj->si", Vt, w)
    return coeffs, np.count_nonzero(kept, axis=1)
