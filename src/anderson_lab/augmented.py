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

from .accelerators import _aa_update, rows_per_chunk
from .errors import MissingJacobian, SingularA
from .linalg import operator_norm_2, rank_tolerance, stacked_anderson_coefficients
# anderson_coefficients is unused here but stays bound: perfbench/tracer.py
# patches augmented.anderson_coefficients by name
from .linalg import anderson_coefficients  # noqa: F401
from .problems import FixedPointProblem


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

    @classmethod
    def from_blocks(cls, blocks):
        """A cls from an (m+1, n) block array, newest first."""
        blocks = np.atleast_2d(np.asarray(blocks, dtype=float))
        return cls(stacked=blocks.ravel(), block_dim=blocks.shape[1])

    @staticmethod
    def at_point(x: np.ndarray, m: int) -> "AugmentedState":
        """Diagonal state with all m+1 blocks equal to x."""
        x = np.asarray(x, dtype=float).ravel()
        return AugmentedState.from_blocks(np.tile(x, (m + 1, 1)))


class Direction(AugmentedState):
    """A perturbation direction in the augmented space."""


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


def _block_stack(z) -> tuple[np.ndarray, bool]:
    """(S, m+1, n) block stack of z, and whether z is a single AugmentedState."""
    if isinstance(z, AugmentedState):
        return z.blocks()[None], True
    blocks = np.asarray(z, dtype=float)
    if blocks.ndim != 3 or blocks.shape[1] < 2 or blocks.shape[2] < 1:
        raise ValueError(f"a block stack has shape (S, m+1, n) with m >= 1, "
                         f"got {blocks.shape}")
    return blocks, False


def _lifted_update(problem: FixedPointProblem,
                   blocks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The AA update of every state of a block stack: new newest blocks (S, n), beta (S, m).

    Block 0 of a state is its newest iterate, so the history the update reads
    (oldest first) is the blocks reversed.  The states go in chunks of
    rows_per_chunk(n, m) states, as the run loop's batches do.
    """
    S, m1, n = blocks.shape
    if n != problem.dim:
        raise ValueError("state block size does not match problem dimension")
    x_next, coeffs = np.empty((S, n)), np.empty((S, m1 - 1))
    chunk = rows_per_chunk(n, m1 - 1)
    for start in range(0, S, chunk):
        part = slice(start, start + chunk)
        # (m+1, s, n), oldest block first; contiguous so that every product in
        # the update runs as in the batched run loop
        X = np.ascontiguousarray(blocks[part, ::-1].transpose(1, 0, 2))
        Qx = problem.q(X)
        x_next[part], coeffs[part], _, _ = _aa_update(list(Qx), list(X - Qx))
    return x_next, coeffs


def beta_of_z(problem: FixedPointProblem, z) -> np.ndarray:
    """Coefficient map beta(z) = -pinv(R(z)) r(z_{m+1}), minimum-norm.

    z is one AugmentedState, giving an (m,) array, or an (S, m+1, n) stack of
    state blocks (block 0 newest), giving (S, m).
    """
    blocks, single = _block_stack(z)
    coeffs = _lifted_update(problem, blocks)[1]
    return coeffs[0] if single else coeffs


def psi_apply(problem: FixedPointProblem, z):
    """One application of the lifted AA(m) map.

    z is one AugmentedState, giving an AugmentedState, or an (S, m+1, n) stack
    of state blocks (block 0 newest), giving the (S, m+1, n) stack of images.
    """
    blocks, single = _block_stack(z)
    x_next = _lifted_update(problem, blocks)[0]
    out = np.concatenate([x_next[:, None], blocks[:, :-1]], axis=1)
    return AugmentedState.from_blocks(out[0]) if single else out


def _check_nonsingular(A: np.ndarray) -> np.ndarray:
    """The singular values of A, largest first; SingularA if A is numerically singular."""
    s = np.linalg.svd(A, compute_uv=False)
    if s[-1] <= 1e-12 * max(s[0], 1.0):
        raise SingularA("A = I - M is numerically singular")
    return s


def beta_hat(A: np.ndarray, d) -> np.ndarray:
    """Limiting coefficients along the ray z* + h d: -pinv(A D(d)) A d_{m+1}.

    d is one Direction, giving an (m,) array, or an (S, m+1, n) stack of
    direction blocks, giving (S, m); A is checked once either way.
    """
    A = np.asarray(A, dtype=float)
    _check_nonsingular(A)
    blocks, single = _block_stack(d)
    coeffs, _ = stacked_anderson_coefficients(A @ _stacked_D(blocks), blocks[:, 0] @ A.T)
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
    blocks, single = _block_stack(d)
    S, m = blocks.shape[0], blocks.shape[1] - 1
    if blocks.shape[2] != n:
        raise ValueError("direction block size does not match M")
    bh = beta_hat(np.eye(n) - M, blocks)
    D = _stacked_D(blocks)
    first = (blocks[:, 0] + (D @ bh[:, :, None])[:, :, 0]) @ M.T
    value = np.concatenate([first, blocks[:, :-1].reshape(S, m * n)], axis=1)

    sv = np.linalg.svd(D, compute_uv=False)
    tol = rank_tolerance(n, m, sv[:, 0])
    rank_ok = np.count_nonzero(sv > tol[:, None], axis=1) == m
    if single:
        return DirectionalDerivativeResult(value=value[0], beta_hat=bh[0],
                                           formula_rank_ok=bool(rank_ok[0]))
    return DirectionalDerivativeResult(value=value, beta_hat=bh, formula_rank_ok=rank_ok)


def directional_derivative_fd(problem: FixedPointProblem, d: Direction,
                              h_sequence) -> list[np.ndarray]:
    """One-sided finite-difference estimates (Psi(z* + h d) - z*) / h, one per h."""
    if problem.known_fixed_point is None:
        raise ValueError("finite differencing at the fixed point needs a known x*")
    h = np.asarray(h_sequence, dtype=float)[:, None, None]
    if np.any(h <= 0):
        raise ValueError("h must be positive (one-sided limit)")
    z_star = AugmentedState.at_point(problem.known_fixed_point, d.m).blocks()
    est = (psi_apply(problem, z_star + h * d.blocks()) - z_star) / h
    return list(est.reshape(len(h), -1))


def lipschitz_bound_linear_m1(A: np.ndarray) -> float:
    """Global bound (||A^-1|| ||A|| + 1) ||I - A|| + 1 for the affine lifted map."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    s = _check_nonsingular(A)
    norm_A = float(s[0])
    norm_Ainv = float(1.0 / s[-1])
    norm_M = operator_norm_2(np.eye(A.shape[0]) - A)
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
    eps = np.asarray(eps_sequence, dtype=float)[:, None, None]
    z = np.stack([z0.blocks() + eps * d.blocks() for d in directions])
    betas = beta_of_z(problem, z.reshape((-1,) + z.shape[2:]))
    return [list(row) for row in betas.reshape(len(z), len(eps), -1)]
