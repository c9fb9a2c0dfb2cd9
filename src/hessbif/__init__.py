"""Radial k-Hessian bifurcation toolkit: shooting, branch tracing, predicates."""

from .core import (
    EigenvalueResult,
    LimitClass,
    NonlinearitySpec,
    ProblemSpec,
    classify_limits,
    gamma_k_membership,
    registry,
    sk_from_radial,
)
from .errors import (
    AtFoldError,
    HessbifError,
    InvalidInputError,
    LimitConflictError,
    NumericalFailureError,
    OutOfTableError,
    TracingFailureError,
    UnclassifiableLimitError,
)
from .shooting import (
    RadialProfile,
    first_eigenvalue,
    integrate_profile,
    lambda_at_amplitude,
    profile_admissible,
    self_consistency_residual,
    solve_lambda,
)
from .branch import (
    AsymptoteEstimate,
    Branch,
    BranchPoint,
    Fold,
    TheoremPrediction,
    VerificationReport,
    asymptote_estimates,
    count_solutions,
    detect_folds,
    predicted_interval,
    solution_amplitudes,
    trace_branch,
    verify_predictions,
)
from .system import (
    NonlinearitySpec2,
    PowerPairResult,
    SystemBranchPoint,
    SystemSpec,
    confirm_coupled_eigenvalue,
    integrate_system,
    power_pair_constant,
    solve_system_shooting,
    system_apriori_monitor,
    system_boundary_values,
    trace_system_branch,
)
from .plotting import render_branches_svg

__version__ = "0.1.0"
