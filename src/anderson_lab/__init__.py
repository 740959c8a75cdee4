"""Anderson acceleration for fixed-point iterations.

Windowed and restarted AA(m), the lifted iteration map on stacked states with
closed-form directional derivatives and Lipschitz bounds, a dense GMRES
baseline, and Monte-Carlo convergence-factor experiments.
"""

from .accelerators import (
    AccelConfig,
    IterationTrace,
    aa_full_window_vs_gmres_check,
    aa_run,
    aa_step,
    gmres_batch,
    gmres_run,
    run_batch,
    run_scheme,
)
from .analysis import (
    MSweepRow,
    RFactorEstimate,
    SweepReport,
    derivative_norm_samples,
    estimate_r_factor,
    estimate_r_factors,
    m_sweep,
    monte_carlo_sweep,
    sample_inits,
    worst_case_rho,
)
from .augmented import (
    DirectionalDerivativeResult,
    beta_hat,
    beta_of_z,
    build_D,
    directional_derivative,
    directional_derivative_fd,
    discontinuity_probe_beta,
    lipschitz_bound_linear_m1,
    lipschitz_bound_nonlinear_m1,
    psi_apply,
)
from .errors import (
    AndersonLabError,
    Breakdown,
    Diverged,
    EvalError,
    InsufficientData,
    MissingJacobian,
    NonConvergence,
    NonFinite,
    SingularA,
    StagnationDetected,
)
from .linalg import (
    RankInfo,
    anderson_coefficients,
    min_norm_lstsq,
    operator_norm_2,
    spectral_radius,
)
from .problems import (
    AffineSpec,
    FixedPointProblem,
    load_affine_json,
    make_affine,
    problem_from_id,
    problem_linear_2x2,
    problem_linear_200,
    problem_nonlinear_2x2,
    problem_scalar,
)

__version__ = "0.1.0"
