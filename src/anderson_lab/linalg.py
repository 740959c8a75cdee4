"""Rank-aware dense linear algebra kernel.

Everything here is a pure function on small dense arrays.  The least-squares
solve goes through an explicit SVD so that the minimum-norm solution of
rank-deficient problems is returned, with the numerical rank reported back to
the caller.  One stacked solve, _stacked_solve, serves every AA update and
beta_hat; it checks nothing, so each caller checks its inputs at its own edge.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NonConvergence, NonFinite, SingularA

_EPS = np.finfo(float).eps
# floats per chunk of a stacked computation (derivative samples, the AA update's
# rows, GMRES rows): a chunk's temporaries stay at tens of MB whatever n and m are
CHUNK_FLOATS = 1 << 18


def chunks(rows: int, floats_per_row: int) -> list[slice]:
    """Slices of up to max(1, CHUNK_FLOATS // floats_per_row) rows covering range(rows) in order."""
    size = max(1, CHUNK_FLOATS // floats_per_row)
    return [slice(start, min(start + size, rows)) for start in range(rows)[::size]]


@dataclass(frozen=True)
class RankInfo:
    """Diagnostics of one pseudo-inverse solve."""

    numerical_rank: int
    tolerance_used: float


def _check_finite(name: str, a: np.ndarray) -> None:
    if not np.all(np.isfinite(a)):
        raise NonFinite(f"{name} contains non-finite entries")


def rank_tolerance(n: int, m: int, sigma_max):
    """The rank cut-off of an n x m matrix: max(n, m) * eps * sigma_max.

    Singular values at or below it count as zero; when sigma_max = 0 the
    cut-off is max(n, m) * eps.  sigma_max may be an array (one cut-off per
    matrix of a stack); a scalar gives a 0-d array.
    """
    scale = max(n, m) * _EPS
    tol = np.asarray(scale * sigma_max)
    tol[tol == 0.0] = scale
    return tol


def min_norm_lstsq(R: np.ndarray, rhs: np.ndarray) -> tuple[np.ndarray, RankInfo]:
    """Minimum-norm minimizer of ||R x + rhs||_2.

    Singular values at or below rank_tolerance are treated as zero, so the
    result is the pseudo-inverse solution -pinv(R) rhs also in the
    rank-deficient case.
    """
    R = np.atleast_2d(np.asarray(R, dtype=float))
    rhs = np.asarray(rhs, dtype=float).ravel()
    _check_finite("R", R)
    _check_finite("rhs", rhs)
    if R.shape[0] != rhs.shape[0]:
        raise ValueError(f"shape mismatch: R is {R.shape}, rhs has length {rhs.shape[0]}")

    U, s, Vt = np.linalg.svd(R, full_matrices=False)
    tol = float(rank_tolerance(*R.shape, s[0] if s.size else 0.0))
    rank = int(np.count_nonzero(s > tol))
    if rank == 0:
        coeffs = np.zeros(R.shape[1])
    else:
        coeffs = -Vt[:rank].T @ ((U[:, :rank].T @ rhs) / s[:rank])
    return coeffs, RankInfo(numerical_rank=rank, tolerance_used=tol)


def check_nonsingular(A: np.ndarray) -> np.ndarray:
    """The singular values of A = I - M, largest first; NonFinite or SingularA if A is not usable.

    The one rule for a singular I - M: sigma_min <= 1e-12 * max(sigma_max, 1),
    which bounds cond(A), the factor the affine Lipschitz bound multiplies.
    """
    _check_finite("A", A)
    s = np.linalg.svd(A, compute_uv=False)
    if s[-1] <= 1e-12 * max(s[0], 1.0):
        raise SingularA(f"A = I - M is numerically singular (sigma_min = {s[-1]:.3e})")
    return s


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


def anderson_coefficients(R: np.ndarray, r: np.ndarray) -> tuple[np.ndarray, RankInfo]:
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
    tol = max(R.shape) * _EPS * r_norm
    if m == 0 or col_max <= tol:
        return np.zeros(m), RankInfo(numerical_rank=0, tolerance_used=max(tol, _EPS))
    return min_norm_lstsq(R, r)


def _stacked_solve(R: np.ndarray, r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """anderson_coefficients of each slice of a stack, with one stacked SVD, unchecked.

    Its contract, which its callers check: R is a finite float (S, n, m)
    stack with m >= 1 and r a finite (S, n) stack.  Returns the (S, m)
    coefficients and the (S,) numerical ranks, each slice bit for bit equal
    to the 2-D function's.  The products
    are stacked matmuls and ||r|| is sqrt(r . r), the operations the 2-D
    function runs on one slice; the column norms, computed only where the
    largest singular value leaves the degenerate-step rule open, are those of
    np.linalg.norm; and a rank-deficient slice is solved again by
    min_norm_lstsq, which sums over the kept singular directions only.  A
    stack whose slices are all informative and of full rank skips these
    steps: it is solved with no more than the SVD and the two products.
    """
    S, n, m = R.shape
    U, s, Vt = np.linalg.svd(R, full_matrices=False)
    # the degenerate-step rule: a slice is informative when its largest
    # column norm exceeds cut.  ||R||_2 >= that norm >= ||R||_2 / sqrt(m), so
    # s[0] > 2 sqrt(m) cut decides it (the 2 covers the SVD's rounding) where
    # the column norms are computed to rounding: s[0] >= 1e-140 puts an entry
    # of the largest column above s[0] / sqrt(n m), whose square does not
    # underflow (the SVD rescales, R * R does not).  Only the other slices
    # compute their column norms, as np.linalg.norm(R, axis=1) computes them
    cut = max(n, m) * _EPS * np.sqrt(np.vecdot(r, r))
    informative = (s[:, 0] > 2.0 * np.sqrt(m) * cut) & (s[:, 0] >= 1e-140)
    Ur = np.matmul(U.transpose(0, 2, 1), r[..., None])[..., 0]
    # every slice informative and of full rank: s is sorted, so a last value
    # above rank_tolerance's cut-off keeps every one
    if (informative & (s[:, -1] > max(n, m) * _EPS * s[:, 0])).all():
        coeffs = np.matmul(-Vt.transpose(0, 2, 1), (Ur / s)[..., None])[..., 0]
        return coeffs, np.full(S, s.shape[1])
    unsure = np.flatnonzero(~informative)
    if unsure.size:
        Ru = R[unsure]
        informative[unsure] = np.sqrt(np.add.reduce(Ru * Ru, axis=1)).max(axis=1) > cut[unsure]

    tol = rank_tolerance(n, m, s[:, 0])
    kept = (s > tol[:, None]) & informative[:, None]
    w = np.divide(Ur, s, out=np.zeros_like(Ur), where=kept)
    coeffs = np.matmul(-Vt.transpose(0, 2, 1), w[..., None])[..., 0]
    ranks = kept.sum(axis=1)
    for i in np.flatnonzero((ranks > 0) & (ranks < s.shape[1])):
        coeffs[i] = min_norm_lstsq(R[i], r[i])[0]
    return coeffs, ranks
