"""hopfkit: locating and validating Hopf bifurcations in two-field systems.

The package verifies the spectral hypotheses of the bifurcation, solves the
extended (phase-augmented) system for the bifurcation data, and continues
the emerging branch of periodic orbits, all over a shared Fourier-in-time /
finite-difference-in-space discretisation.
"""

from .config import (
    ConfigError,
    RunConfig,
    build_problem,
    load_config,
    parse_config,
)
from .linear_periodic import ResonantForcingError, solve_periodic_full
from .problem import (
    ConvergenceError,
    ProblemDef,
    ResonanceError,
    linearization_matrix,
)
from .reaction_diffusion import (
    ExampleConfig,
    exact_branch_state,
    exact_branch_trajectory,
    make_problem,
    reference_eigenvector,
)
from .solver import (
    BranchPoint,
    BranchResult,
    CrossingDecomposition,
    CurvatureFit,
    ExtendedSolution,
    JacobianCertificate,
    SymmetryReport,
    check_branch_symmetry,
    continue_branch,
    decompose_crossing_term,
    fit_branch_curvature,
    initial_extended_state,
    solve_extended,
    verify_jacobian_nonsingular,
)
from .spectral import (
    EigenPair,
    HypothesisReport,
    SpectralDecomposition,
    build_projection,
    check_simplicity,
    crossing_speed,
    eigenpair_near,
    resolvent_scan,
    run_hypothesis_checks,
)
from .trajectory import (
    AmplitudeFunctional,
    ComplexStateVector,
    PeriodicTrajectory,
    StateVector,
    build_amplitude_functional,
    single_harmonic,
    trajectory_from_samples,
    zero_trajectory,
)

__version__ = "0.1.0"

__all__ = [
    "AmplitudeFunctional",
    "BranchPoint",
    "BranchResult",
    "ComplexStateVector",
    "ConfigError",
    "ConvergenceError",
    "CrossingDecomposition",
    "CurvatureFit",
    "EigenPair",
    "ExampleConfig",
    "ExtendedSolution",
    "HypothesisReport",
    "JacobianCertificate",
    "PeriodicTrajectory",
    "ProblemDef",
    "ResonanceError",
    "ResonantForcingError",
    "RunConfig",
    "SpectralDecomposition",
    "StateVector",
    "SymmetryReport",
    "build_amplitude_functional",
    "build_problem",
    "build_projection",
    "check_branch_symmetry",
    "check_simplicity",
    "continue_branch",
    "crossing_speed",
    "decompose_crossing_term",
    "eigenpair_near",
    "exact_branch_state",
    "exact_branch_trajectory",
    "fit_branch_curvature",
    "initial_extended_state",
    "linearization_matrix",
    "load_config",
    "make_problem",
    "parse_config",
    "reference_eigenvector",
    "resolvent_scan",
    "run_hypothesis_checks",
    "single_harmonic",
    "solve_extended",
    "solve_periodic_full",
    "trajectory_from_samples",
    "verify_jacobian_nonsingular",
    "zero_trajectory",
    "__version__",
]
