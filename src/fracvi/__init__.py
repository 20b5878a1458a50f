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
from .diffops import (
    check_discrete_ibp,
    delta_minus,
    delta_plus,
    discrete_velocity,
    gauss_quadrature,
    seq_delta,
)
from .fracops import (
    check_discrete_frac_ibp,
    delta_alpha_minus,
    delta_alpha_plus,
    discrete_velocity_alpha,
    gl_coefficients,
    rl_monomial_derivative,
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
    residual_asymmetric_direct,
    residual_direct_classical,
    residual_direct_fractional,
    residual_vi_classical,
    residual_vi_fractional,
)
from .solver import (
    BVPProblem,
    NewtonConfig,
    NewtonConvergenceError,
    NewtonDiagnostics,
    SingularMatrixError,
    linear_initial_guess,
    lu_solve,
    march_direct_classical,
    solve_bvp_newton,
)

__version__ = "0.1.0"
