"""Exact Gaussian states of the damped (Caldirola-Kanai) harmonic oscillator.

The package has two layers that deliberately do not share numerics: a
closed-form layer (:mod:`ckstates.modes`, :mod:`ckstates.states`,
:mod:`ckstates.observables`) built on complex mode functions of the
classical damped equation of motion, and an independent numerical oracle
(:mod:`ckstates.oracle`) that re-derives every claim from sampled wave
functions by quadrature, finite differences, and Crank-Nicolson
propagation.  :func:`ckstates.oracle.validate` cross-checks the two.
"""

from .modes import (
    ModeValue,
    NotUnderdampedError,
    PhysicalParams,
    SqueezeParams,
    WronskianError,
    make_params,
    mode_u0,
    mode_u_rphi,
    special_squeeze,
    squeeze_from_mode,
    wronskian,
)
from .observables import (
    AngleGamma,
    TimeAverage,
    UncertaintyRecord,
    hamiltonian_expectation,
    sigma0,
    theta_gamma,
    uncertainty_product,
    uncertainty_time_avg,
)
from .oracle import (
    REPORT_VERSION,
    BoundaryLeakError,
    Check,
    GridSpec,
    Moments,
    ReportEntry,
    ToleranceConfig,
    ValidationReport,
    apply_annihilation,
    apply_creation,
    crank_nicolson_evolve,
    default_schedule,
    make_grid,
    moments,
    schrodinger_residual,
    validate,
)
from .states import (
    GaussCoeffs,
    StateSpec,
    alpha_from_point,
    coherent_trajectory,
    eval_coherent_state,
    eval_number_state,
    gauss_coeffs,
    hermite,
)

__version__ = REPORT_VERSION

__all__ = [
    "__version__",
    # modes
    "NotUnderdampedError",
    "WronskianError",
    "PhysicalParams",
    "SqueezeParams",
    "ModeValue",
    "make_params",
    "mode_u0",
    "mode_u_rphi",
    "wronskian",
    "squeeze_from_mode",
    "special_squeeze",
    # states
    "GaussCoeffs",
    "StateSpec",
    "hermite",
    "gauss_coeffs",
    "eval_number_state",
    "eval_coherent_state",
    "coherent_trajectory",
    "alpha_from_point",
    # observables
    "AngleGamma",
    "UncertaintyRecord",
    "TimeAverage",
    "theta_gamma",
    "sigma0",
    "uncertainty_product",
    "uncertainty_time_avg",
    "hamiltonian_expectation",
    # oracle
    "REPORT_VERSION",
    "BoundaryLeakError",
    "GridSpec",
    "Moments",
    "ToleranceConfig",
    "Check",
    "ReportEntry",
    "ValidationReport",
    "make_grid",
    "moments",
    "apply_annihilation",
    "apply_creation",
    "schrodinger_residual",
    "crank_nicolson_evolve",
    "default_schedule",
    "validate",
]
