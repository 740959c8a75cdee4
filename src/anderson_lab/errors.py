"""Exception types shared across the package."""


class AndersonLabError(Exception):
    """Base class for all package-specific errors.

    Carries the partial trace recorded up to the failure, when available.
    An error raised by q may carry rows, a boolean mask over the leading axes
    of q's batch marking the points q failed on; without one, every point fails.
    """

    def __init__(self, message, trace=None, rows=None):
        super().__init__(message)
        self.trace = trace
        self.rows = rows


class NonFinite(AndersonLabError):
    """An input, or a residual of an iteration, contains NaN or Inf entries."""


class NonConvergence(AndersonLabError):
    """A dense eigensolve failed to converge."""


class SingularA(AndersonLabError):
    """The matrix I - M (or A) is numerically singular."""


class EvalError(AndersonLabError):
    """A fixed-point map could not be evaluated at the given point."""


class Diverged(AndersonLabError):
    """An iteration left the divergence guard ball (||x_k|| > 1e12)."""


class MissingJacobian(AndersonLabError):
    """An operation requires an analytic Jacobian the problem does not have."""


class StagnationDetected(AndersonLabError):
    """GMRES residuals did not strictly decrease, so the AA comparison is undefined."""


class Breakdown(AndersonLabError):
    """Arnoldi produced a zero vector before the residual tolerance was met."""


class InsufficientData(AndersonLabError):
    """A trace does not contain enough usable iterations for estimation."""
