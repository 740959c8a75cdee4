"""The lifted AA(m) iteration map on stacked states z in R^{n(m+1)}.

One application of the lifted map performs one AA(m) step on the newest block
and shifts the rest down, so iterating it reproduces the windowed accelerator
once the window is full.  The module also provides the coefficient map beta(z),
its limiting coefficients along rays at the fixed point, closed-form
directional derivatives there, one-sided finite-difference estimates, and the
Lipschitz bounds that can be checked against sampled perturbations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import MissingJacobian, SingularA
from .linalg import anderson_coefficients, operator_norm_2, stacked_anderson_coefficients
from .problems import FixedPointProblem

_EPS = np.finfo(float).eps


@dataclass(frozen=True)
class AugmentedState:
    """Stacked vector (z_{m+1}, z_m, ..., z_1), newest block first."""

    stacked: np.ndarray
    block_dim: int

    def __post_init__(self):
        stacked = np.asarray(self.stacked, dtype=float).ravel()
        object.__setattr__(self, "stacked", stacked)
        n = self.block_dim
        if n < 1 or stacked.size % n != 0 or stacked.size // n < 2:
            raise ValueError(
                f"stacked length {stacked.size} must be n*(m+1) with m >= 1, n = {n}"
            )

    @property
    def m(self) -> int:
        return self.stacked.size // self.block_dim - 1

    def blocks(self) -> np.ndarray:
        """(m+1, n) array; row 0 is the newest block z_{m+1}."""
        return self.stacked.reshape(self.m + 1, self.block_dim)

    @staticmethod
    def from_blocks(blocks) -> "AugmentedState":
        blocks = np.atleast_2d(np.asarray(blocks, dtype=float))
        return AugmentedState(stacked=blocks.ravel(), block_dim=blocks.shape[1])

    @staticmethod
    def at_point(x: np.ndarray, m: int) -> "AugmentedState":
        """Diagonal state with all m+1 blocks equal to x."""
        x = np.asarray(x, dtype=float).ravel()
        return AugmentedState.from_blocks(np.tile(x, (m + 1, 1)))


@dataclass(frozen=True)
class Direction(AugmentedState):
    """A perturbation direction in the augmented space."""

    unit_norm: bool = False

    def __post_init__(self):
        super().__post_init__()
        if self.unit_norm and abs(np.linalg.norm(self.stacked) - 1.0) > 1e-12:
            raise ValueError("unit_norm direction must have norm 1 within 1e-12")

    @staticmethod
    def from_blocks(blocks, unit_norm: bool = False) -> "Direction":
        blocks = np.atleast_2d(np.asarray(blocks, dtype=float))
        return Direction(stacked=blocks.ravel(), block_dim=blocks.shape[1],
                         unit_norm=unit_norm)


@dataclass(frozen=True)
class DirectionalDerivativeResult:
    """One derivative, or a stack of them with a leading sample axis."""

    value: np.ndarray
    beta_hat: np.ndarray
    formula_rank_ok: bool | np.ndarray


def build_D(state: AugmentedState) -> np.ndarray:
    """n x m difference matrix with columns z_{m+1} - z_j, j = m, ..., 1."""
    return _stacked_D(state.blocks()[None])[0]


def _stacked_D(blocks: np.ndarray) -> np.ndarray:
    """(S, n, m) difference matrices of an (S, m+1, n) block stack."""
    return blocks[:, 0, :, None] - blocks[:, 1:].transpose(0, 2, 1)


def _direction_stack(d) -> tuple[np.ndarray, bool]:
    """(S, m+1, n) block stack of d, and whether d is a single Direction."""
    if isinstance(d, AugmentedState):
        return d.blocks()[None], True
    blocks = np.asarray(d, dtype=float)
    if blocks.ndim != 3 or blocks.shape[1] < 2 or blocks.shape[2] < 1:
        raise ValueError(f"a direction stack has shape (S, m+1, n) with m >= 1, "
                         f"got {blocks.shape}")
    return blocks, False


def beta_of_z(problem: FixedPointProblem, z: AugmentedState,
              rank_tol_scale: float = 1.0) -> np.ndarray:
    """Coefficient map beta(z) = -pinv(R(z)) r(z_{m+1}), minimum-norm."""
    blocks = z.blocks()
    if blocks.shape[1] != problem.dim:
        raise ValueError("state block size does not match problem dimension")
    r = np.stack([problem.residual(blk) for blk in blocks])
    R = r[0][:, None] - r[1:].T
    coeffs, _ = anderson_coefficients(R, r[0], rank_tol_scale=rank_tol_scale)
    return coeffs


def psi_apply(problem: FixedPointProblem, z: AugmentedState,
              rank_tol_scale: float = 1.0) -> AugmentedState:
    """One application of the lifted AA(m) map."""
    blocks = z.blocks()
    q_vals = np.stack([problem.q(blk) for blk in blocks])
    r_vals = blocks - q_vals
    R = r_vals[0][:, None] - r_vals[1:].T
    Q = q_vals[0][:, None] - q_vals[1:].T
    coeffs, _ = anderson_coefficients(R, r_vals[0], rank_tol_scale=rank_tol_scale)
    new_first = q_vals[0] + Q @ coeffs
    return AugmentedState.from_blocks(np.vstack([new_first, blocks[:-1]]))


def _check_nonsingular(A: np.ndarray) -> None:
    s = np.linalg.svd(A, compute_uv=False)
    if s[-1] <= 1e-12 * max(s[0], 1.0):
        raise SingularA("A = I - M is numerically singular")


def beta_hat(A: np.ndarray, d, rank_tol_scale: float = 1.0) -> np.ndarray:
    """Limiting coefficients along the ray z* + h d: -pinv(A D(d)) A d_{m+1}.

    d is one Direction, giving an (m,) array, or an (S, m+1, n) stack of
    direction blocks, giving (S, m); A is checked once either way.
    """
    A = np.asarray(A, dtype=float)
    _check_nonsingular(A)
    blocks, single = _direction_stack(d)
    coeffs, _ = stacked_anderson_coefficients(
        A @ _stacked_D(blocks), blocks[:, 0] @ A.T, rank_tol_scale=rank_tol_scale)
    return coeffs[0] if single else coeffs


def directional_derivative(M: np.ndarray, d) -> DirectionalDerivativeResult:
    """Closed-form directional derivative of the lifted map at its fixed point.

    The first block is M (d_{m+1} + D(d) beta_hat) and the remaining blocks
    shift down.  formula_rank_ok records whether D(d) has full numerical rank;
    for affine maps the formula is valid regardless, for nonlinear maps it is
    only guaranteed in the full-rank case.

    d is one Direction or an (S, m+1, n) stack of direction blocks; for a
    stack, value is (S, n(m+1)), beta_hat (S, m) and formula_rank_ok (S,).
    """
    M = np.atleast_2d(np.asarray(M, dtype=float))
    n = M.shape[0]
    blocks, single = _direction_stack(d)
    S, m = blocks.shape[0], blocks.shape[1] - 1
    if blocks.shape[2] != n:
        raise ValueError("direction block size does not match M")
    bh = beta_hat(np.eye(n) - M, blocks)
    D = _stacked_D(blocks)
    first = (blocks[:, 0] + (D @ bh[:, :, None])[:, :, 0]) @ M.T
    value = np.concatenate([first, blocks[:, :-1].reshape(S, m * n)], axis=1)

    sv = np.linalg.svd(D, compute_uv=False)
    tol = max(n, m) * _EPS * sv[:, 0]
    rank_ok = np.count_nonzero(sv > tol[:, None], axis=1) == m
    if single:
        return DirectionalDerivativeResult(value=value[0], beta_hat=bh[0],
                                           formula_rank_ok=bool(rank_ok[0]))
    return DirectionalDerivativeResult(value=value, beta_hat=bh, formula_rank_ok=rank_ok)


def directional_derivative_fd(problem: FixedPointProblem, d: Direction,
                              h_sequence) -> list[np.ndarray]:
    """One-sided finite-difference estimates (Psi(z* + h d) - z*) / h."""
    if problem.known_fixed_point is None:
        raise ValueError("finite differencing at the fixed point needs a known x*")
    z_star = AugmentedState.at_point(problem.known_fixed_point, d.m)
    out = []
    for h in h_sequence:
        if h <= 0:
            raise ValueError("h must be positive (one-sided limit)")
        z = AugmentedState(stacked=z_star.stacked + h * d.stacked, block_dim=d.block_dim)
        out.append((psi_apply(problem, z).stacked - z_star.stacked) / h)
    return out


def lipschitz_bound_linear_m1(A: np.ndarray) -> float:
    """Global bound (||A^-1|| ||A|| + 1) ||I - A|| + 1 for the affine lifted map."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    _check_nonsingular(A)
    n = A.shape[0]
    norm_A = operator_norm_2(A)
    norm_Ainv = operator_norm_2(np.linalg.inv(A))
    norm_M = operator_norm_2(np.eye(n) - A)
    return (norm_Ainv * norm_A + 1.0) * norm_M + 1.0


def lipschitz_bound_nonlinear_m1(problem: FixedPointProblem,
                                 c_r: float | None = None) -> float:
    """Local bound 3 + (4 + 4/c_r) ||I - q'(x*)|| for the nonlinear lifted map.

    c_r defaults to the smallest singular value of r'(x*) = I - q'(x*), its
    role being a lower bound on the singular values of r' near x*.
    """
    if problem.known_fixed_point is None or problem.jacobian is None:
        raise MissingJacobian("need a known fixed point and an analytic jacobian")
    J = problem.jacobian(problem.known_fixed_point)
    r_prime = np.eye(problem.dim) - J
    if c_r is None:
        c_r = float(np.linalg.svd(r_prime, compute_uv=False)[-1])
    if c_r <= 0:
        raise ValueError("c_r must be positive")
    return 3.0 + (4.0 + 4.0 / c_r) * operator_norm_2(r_prime)


def discontinuity_probe_beta(problem: FixedPointProblem, z0: AugmentedState,
                             directions, eps_sequence) -> list[list[np.ndarray]]:
    """beta(z0 + eps * d) tabulated over eps for each probe direction.

    Returns raw tables only; limit claims belong to the caller, asserted
    against explicit eps sequences.
    """
    table = []
    for d in directions:
        row = []
        for eps in eps_sequence:
            z = AugmentedState(stacked=z0.stacked + eps * d.stacked,
                               block_dim=z0.block_dim)
            row.append(beta_of_z(problem, z))
        table.append(row)
    return table
