"""Registry of fixed-point problems x = q(x).

Contains the standard test problems used by the experiment commands plus a
generic affine constructor and a JSON loader for user-supplied affine maps.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import EvalError, SingularA

Vector = np.ndarray


@dataclass(frozen=True)
class AffineSpec:
    """q(x) = M x + b with I - M nonsingular."""

    M: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        M = np.atleast_2d(np.asarray(self.M, dtype=float))
        b = np.asarray(self.b, dtype=float).ravel()
        if M.ndim != 2 or M.shape[0] != M.shape[1] or M.shape[0] != b.shape[0]:
            raise ValueError("M must be a square matrix matching the length of b")
        object.__setattr__(self, "M", M)
        object.__setattr__(self, "b", b)

    @property
    def A(self) -> np.ndarray:
        return np.eye(self.M.shape[0]) - self.M


@dataclass(frozen=True)
class FixedPointProblem:
    """Evaluator bundle for one fixed-point iteration.

    q must be pure and map a batch (..., n) of points to (..., n) row by row,
    each row bitwise equal to q of its point alone; where q is undefined it
    raises EvalError with rows, the mask of the points it cannot evaluate.
    jacobian, when present, returns the n x n Jacobian of q at one point.
    affine carries the (M, b) data for problems that are exactly affine,
    which unlocks the GMRES comparison path.
    """

    dim: int
    q: Callable[[Vector], Vector]
    jacobian: Optional[Callable[[Vector], np.ndarray]] = None
    known_fixed_point: Optional[Vector] = None
    label: str = ""
    affine: Optional[AffineSpec] = field(default=None, repr=False)

    def residual(self, x: Vector) -> Vector:
        """r(x) = x - q(x); zero exactly at fixed points."""
        return np.asarray(x, dtype=float) - self.q(x)


def make_affine(spec: AffineSpec, label: str = "affine") -> FixedPointProblem:
    """Fixed-point problem for q(x) = M x + b with x* = (I - M)^-1 b."""
    n = spec.M.shape[0]
    A = spec.A
    smin = np.linalg.svd(A, compute_uv=False)[-1]
    if smin <= 1e-12:
        raise SingularA(f"I - M is numerically singular (sigma_min = {smin:.3e})")
    x_star = np.linalg.solve(A, spec.b)
    M, b = spec.M, spec.b

    def q(x):
        # a batch (..., n); each row equals M @ x + b bitwise
        return (M @ np.asarray(x, dtype=float)[..., None])[..., 0] + b

    return FixedPointProblem(
        dim=n,
        q=q,
        jacobian=lambda x: M.copy(),
        known_fixed_point=x_star,
        label=label,
        affine=spec,
    )


def problem_linear_2x2() -> FixedPointProblem:
    """2x2 linear iteration with eigenvalues 2/3 and 1/3 and fixed point 0."""
    M = np.array([[2.0 / 3.0, 1.0 / 4.0], [0.0, 1.0 / 3.0]])
    return make_affine(AffineSpec(M=M, b=np.zeros(2)), label="linear2x2")


def problem_nonlinear_2x2() -> FixedPointProblem:
    """Nonlinear 2x2 iteration with fixed point (0, 0) and rho(q'(x*)) = 1/2."""

    def q(x):
        x = np.asarray(x, dtype=float)
        x0, x1 = x[..., 0], x[..., 1]
        return np.stack([0.5 * (x0 + x0 ** 2 + x1 ** 2), 0.5 * (x1 + x0 ** 2)], axis=-1)

    def jac(x):
        x = np.asarray(x, dtype=float)
        return np.array([[x[0] + 0.5, x[1]], [x[0], 0.5]])

    return FixedPointProblem(
        dim=2,
        q=q,
        jacobian=jac,
        known_fixed_point=np.zeros(2),
        label="nonlinear2x2",
    )


def problem_linear_200(l2: float, l3: float, l4: float) -> FixedPointProblem:
    """200-dim linear iteration: rho(M) = 0.9, one off-diagonal entry m_12 = 1.

    Diagonal slots hold (0.9, l2, l3, l4) followed by 196 values spaced
    uniformly (both endpoints included) from 0.29325 down to 0.03.  The slot
    ordering is fixed for reproducibility; it does not affect the spectrum.
    """
    for name, lam in (("l2", l2), ("l3", l3), ("l4", l4)):
        if not abs(lam) < 1.0:  # NaN included
            raise ValueError(f"|{name}| must be < 1, got {lam}")
    diag = np.concatenate(
        [[0.9, l2, l3, l4], np.linspace(0.29325, 0.03, 196)]
    )
    M = np.diag(diag)
    M[0, 1] = 1.0
    return make_affine(
        AffineSpec(M=M, b=np.zeros(200)),
        label=f"linear200(l2={l2},l3={l3},l4={l4})",
    )


def problem_scalar() -> FixedPointProblem:
    """Scalar iteration q(x) = 1 + 1/x with fixed point (1 + sqrt(5))/2."""

    def q(x):
        x = np.asarray(x, dtype=float)
        zero = x[..., 0] == 0.0
        if zero.any():
            raise EvalError("q(x) = 1 + 1/x is undefined at x = 0", rows=zero)
        return 1.0 + 1.0 / x

    def jac(x):
        x = np.asarray(x, dtype=float)
        if x[0] == 0.0:
            raise EvalError("q'(x) = -1/x^2 is undefined at x = 0")
        return np.array([[-1.0 / x[0] ** 2]])

    phi = (1.0 + np.sqrt(5.0)) / 2.0
    return FixedPointProblem(
        dim=1,
        q=q,
        jacobian=jac,
        known_fixed_point=np.array([phi]),
        label="scalar",
    )


def load_affine_json(path: str) -> FixedPointProblem:
    """Affine problem from a JSON document {"M": [[...]], "b": [...]}."""
    with open(path) as fh:
        doc = json.load(fh)
    try:
        M = np.asarray(doc["M"], dtype=float)
        b = np.asarray(doc["b"], dtype=float)
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"bad affine JSON file {path!r}: {exc}") from exc
    # json parses NaN and Infinity; they would give x* = NaN
    if not (np.all(np.isfinite(M)) and np.all(np.isfinite(b))):
        raise ValueError(f"bad affine JSON file {path!r}: M and b must be finite")
    return make_affine(AffineSpec(M=M, b=b), label=f"affine:{path}")


# Default lambdas match the AA(inf)-vs-GMRES comparison instance.
_LINEAR200_DEFAULT = (-0.3, 0.3, -0.3)


def problem_from_id(problem_id: str) -> FixedPointProblem:
    """Resolve a CLI problem id.

    Supported ids: "linear2x2", "nonlinear2x2", "scalar", "linear200",
    "linear200:<l2>,<l3>,<l4>" and "affine:<json file>".
    """
    if problem_id == "linear2x2":
        return problem_linear_2x2()
    if problem_id == "nonlinear2x2":
        return problem_nonlinear_2x2()
    if problem_id == "scalar":
        return problem_scalar()
    if problem_id == "linear200":
        return problem_linear_200(*_LINEAR200_DEFAULT)
    if problem_id.startswith("linear200:"):
        parts = problem_id.split(":", 1)[1].split(",")
        if len(parts) != 3:
            raise ValueError("linear200 takes exactly three lambdas: linear200:l2,l3,l4")
        return problem_linear_200(*(float(p) for p in parts))
    if problem_id.startswith("affine:"):
        return load_affine_json(problem_id.split(":", 1)[1])
    raise ValueError(f"unknown problem id {problem_id!r}")
