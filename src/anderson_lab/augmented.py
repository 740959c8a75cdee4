"""The lifted AA(m) iteration map on stacked states z in R^{n(m+1)}.

One application of the lifted map performs one AA(m) step on the newest block
and shifts the rest down, so iterating it reproduces the windowed accelerator
once the window is full.  The module also provides the coefficient map beta(z),
its limiting coefficients along rays at the fixed point, closed-form
directional derivatives there, one-sided finite-difference estimates, and the
Lipschitz bounds that can be checked against sampled perturbations.  beta_hat
(so the derivative) and the affine Lipschitz bound check A = I - M by the rule
make_affine builds by, linalg.check_nonsingular; beta_hat checks its
directions and calls linalg's one stacked solve (_stacked_solve) itself.

A state z = (z_{m+1}, ..., z_1), a direction d and a derivative value are each
an (m+1, n) float array of blocks, newest first: row 0 is z_{m+1}.  Every
function that takes one also takes a stack (S, m+1, n) of them, S >= 0, and
gives results of the same leading shape.  psi_apply and beta_of_z take the
run loop's update per chunk of states (accelerators._update_at).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .accelerators import _update_at
from .errors import MissingJacobian
from .linalg import (_check_finite, _stacked_solve, check_nonsingular, operator_norm_2,
                     rank_tolerance)
# anderson_coefficients is unused here but stays bound: perfbench/tracer.py
# patches augmented.anderson_coefficients by name
from .linalg import anderson_coefficients  # noqa: F401
from .problems import FixedPointProblem


@dataclass(frozen=True)
class DirectionalDerivativeResult:
    """A derivative at one direction, or at each direction of a stack."""

    value: np.ndarray  # d's shape
    beta_hat: np.ndarray
    D: np.ndarray  # the difference matrices D(d) of the scaled directions it was built from

    @cached_property
    def formula_rank_ok(self) -> bool | np.ndarray:
        """D(d) has the largest numerical rank, min(n, m), per sample; computed on first read."""
        n, m = self.D.shape[-2:]
        sv = np.linalg.svd(self.D, compute_uv=False)
        tol = rank_tolerance(n, m, sv[..., 0])
        ok = np.count_nonzero(sv > tol[..., None], axis=-1) == min(n, m)
        return ok if ok.ndim else bool(ok)


def build_D(z) -> np.ndarray:
    """Difference matrices with columns z_{m+1} - z_j, j = m, ..., 1.

    (n, m) for one (m+1, n) state, (S, n, m) for an (S, m+1, n) stack.
    """
    z = np.asarray(z, dtype=float)
    return z[..., 0, :, None] - np.swapaxes(z[..., 1:, :], -1, -2)


def _stack(z) -> tuple[np.ndarray, tuple[int, ...]]:
    """z as an (S, m+1, n) stack, and z's leading shape: () for one state, (S,) for a stack."""
    blocks = np.asarray(z, dtype=float)
    if blocks.ndim not in (2, 3) or blocks.shape[-2] < 2 or blocks.shape[-1] < 1:
        raise ValueError(f"a state is (m+1, n) and a stack (S, m+1, n), with m >= 1, "
                         f"got {blocks.shape}")
    return blocks.reshape((-1,) + blocks.shape[-2:]), blocks.shape[:-2]


def _unit_scaled(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each x[i] times 2^-e[i], the power of two that puts its largest entry in [0.5, 1), and e."""
    # x is (S, rows, cols); the column-major copy lets the max run along S, not row by row
    e = np.frexp(np.abs(x, order="F").max(axis=(1, 2)))[1]
    return np.ldexp(x, -e[:, None, None]), e


def beta_of_z(problem: FixedPointProblem, z) -> np.ndarray:
    """Coefficient map beta(z) = -pinv(R(z)) r(z_{m+1}), minimum-norm: (m,) per state."""
    blocks, lead = _stack(z)
    coeffs = _update_at(problem, blocks)[1]
    return coeffs.reshape(lead + coeffs.shape[1:])


def psi_apply(problem: FixedPointProblem, z) -> np.ndarray:
    """One application of the lifted AA(m) map: the image of each state, z's shape."""
    blocks, lead = _stack(z)
    x_next = _update_at(problem, blocks)[0]
    out = np.concatenate([x_next[:, None], blocks[:, :-1]], axis=1)
    return out.reshape(lead + out.shape[1:])


def beta_hat(A: np.ndarray, d) -> np.ndarray:
    """Limiting coefficients along the ray z* + h d: -pinv(A D(d)) A d_{m+1}, (m,) per direction.

    A is checked once for the whole stack, by linalg.check_nonsingular, and
    a NaN or Inf direction raises NonFinite.  beta_hat depends on the ray
    and on A up to scale, so each is scaled, exactly, by the power of two
    that puts its largest entry in [0.5, 1): the degenerate-step rule's sums
    of squares then neither overflow nor underflow at any scale of A or d.
    """
    A = np.asarray(A, dtype=float)
    check_nonsingular(A)
    blocks, lead = _stack(d)
    _check_finite("d", blocks)
    blocks, A = _unit_scaled(blocks)[0], _unit_scaled(A[None])[0][0]
    coeffs, _ = _stacked_solve(A @ build_D(blocks), blocks[:, 0] @ A.T)
    return coeffs.reshape(lead + coeffs.shape[1:])


def directional_derivative(M: np.ndarray, d) -> DirectionalDerivativeResult:
    """Closed-form directional derivative of the lifted map at its fixed point.

    The first block is M (d_{m+1} + D(d) beta_hat) and the remaining blocks
    shift down.  formula_rank_ok, computed on first read, records whether
    D(d) has the largest numerical rank, min(n, m).  For affine maps the
    formula is valid regardless.  For nonlinear maps it is guaranteed there:
    pinv is continuous where the rank stays the same, and the largest rank
    survives the O(h) nonlinear terms.

    value has d's shape; beta_hat is (m,) and formula_rank_ok a bool per
    direction, with d's leading shape.  The value and D are computed on the
    directions as beta_hat scales them, and the value, homogeneous in d, is
    scaled back exactly, so no step overflows where the value does not.
    """
    M = np.atleast_2d(np.asarray(M, dtype=float))
    n = M.shape[0]
    blocks, lead = _stack(d)
    if blocks.shape[2] != n:
        raise ValueError("direction block size does not match M")
    blocks, e = _unit_scaled(blocks)
    bh = beta_hat(np.eye(n) - M, blocks)
    D = build_D(blocks)
    first = (blocks[:, 0] + (D @ bh[:, :, None])[:, :, 0]) @ M.T
    value = np.ldexp(np.concatenate([first[:, None], blocks[:, :-1]], axis=1), e[:, None, None])
    return DirectionalDerivativeResult(value=value.reshape(lead + value.shape[1:]),
                                       beta_hat=bh.reshape(lead + bh.shape[1:]),
                                       D=D.reshape(lead + D.shape[1:]))


def directional_derivative_fd(problem: FixedPointProblem, d, h_sequence) -> np.ndarray:
    """One-sided finite-difference estimates (Psi(z* + h d) - z*) / h at one direction d.

    Returns a (len(h_sequence), m+1, n) array, one estimate per h.
    """
    if problem.known_fixed_point is None:
        raise ValueError("finite differencing at the fixed point needs a known x*")
    d = np.asarray(d, dtype=float)
    if d.ndim != 2:
        raise ValueError(f"d is one (m+1, n) direction, got shape {d.shape}")
    h = np.asarray(h_sequence, dtype=float)[:, None, None]
    if not np.all((h > 0) & (h < np.inf)):  # NaN included
        raise ValueError("h must be positive (one-sided limit) and finite")
    z_star = np.tile(problem.known_fixed_point, (len(d), 1))
    return (psi_apply(problem, z_star + h * d) - z_star) / h


def lipschitz_bound_linear_m1(A: np.ndarray) -> float:
    """Global bound (||A^-1|| ||A|| + 1) ||I - A|| + 1 for the affine lifted map."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    s = check_nonsingular(A)
    norm_A = float(s[0])
    norm_Ainv = float(1.0 / s[-1])
    norm_M = operator_norm_2(np.eye(A.shape[0]) - A)
    return (norm_Ainv * norm_A + 1.0) * norm_M + 1.0


def lipschitz_bound_nonlinear_m1(problem: FixedPointProblem,
                                 c_r: float | None = None) -> float:
    """Local bound 3 + (4 + 4/c_r) ||I - q'(x*)|| for the nonlinear lifted map.

    c_r defaults to the smallest singular value of r'(x*) = I - q'(x*), its
    role being a lower bound on the singular values of r' near x*.  One SVD
    of r' gives both it and ||r'||.
    """
    if problem.known_fixed_point is None or problem.jacobian is None:
        raise MissingJacobian("need a known fixed point and an analytic jacobian")
    r_prime = np.eye(problem.dim) - problem.jacobian(problem.known_fixed_point)
    _check_finite("r'(x*)", r_prime)
    s = np.linalg.svd(r_prime, compute_uv=False)
    c_r = float(s[-1]) if c_r is None else c_r
    if not c_r > 0:  # NaN included
        raise ValueError("c_r must be positive")
    return 3.0 + (4.0 + 4.0 / c_r) * float(s[0])


def discontinuity_probe_beta(problem: FixedPointProblem, z0, directions,
                             eps_sequence) -> np.ndarray:
    """beta(z0 + eps * d) for each probe direction d and each eps: (directions, eps, m).

    z0 is one (m+1, n) state and directions a sequence of (m+1, n) arrays.
    Returns raw tables only; limit claims belong to the caller, asserted
    against explicit eps sequences.
    """
    eps = np.asarray(eps_sequence, dtype=float)[:, None, None]
    d = np.reshape(np.asarray(directions, dtype=float), (-1, 1) + np.shape(z0))
    z = np.asarray(z0, dtype=float) + eps * d
    betas = beta_of_z(problem, z.reshape((-1,) + z.shape[2:]))
    return betas.reshape(z.shape[:2] + betas.shape[1:])
