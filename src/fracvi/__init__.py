"""Discrete embeddings and variational integrators for classical,
asymmetric, and fractional Lagrangian systems."""

from .grids import (
    MINUS,
    PLUS,
    DomainError,
    Grid,
    ResidualField,
    ShiftedSequence,
    Trajectory,
    inf_norm,
    make_grid,
    read_trajectory_csv,
    restrict,
    sample,
    write_trajectory_csv,
)
from .fracops import (
    check_discrete_frac_ibp,
    check_discrete_ibp,
    delta_alpha_minus,
    delta_alpha_plus,
    delta_minus,
    delta_plus,
    discrete_velocity,
    discrete_velocity_alpha,
    gauss_quadrature,
    gl_coefficients,
    rl_monomial_derivative,
    seq_delta,
)
from .lagrangians import (
    Lagrangian,
    builtin_problem,
    discrete_functional,
    free_particle,
    functional_gradient,
    harmonic_oscillator,
    mechanical,
    pendulum,
)
from .schemes import (
    CoherenceReport,
    SchemeFamily,
    SchemeKind,
    assemble_residual,
    coherence_report,
    newton_friction_direct,
)
from .solver import (
    BVPProblem,
    NewtonConfig,
    NewtonConvergenceError,
    NewtonDiagnostics,
    SingularMatrixError,
    linear_initial_guess,
    lu_solve,
    march,
    march_direct_classical,
    solve_bvp_newton,
)

__version__ = "0.1.0"
