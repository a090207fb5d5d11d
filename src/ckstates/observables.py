"""Closed-form observables of the Gaussian state families.

All expressions follow from the second moments of the exact states, in
the frame mode (v, w) of u_{r phi} and s = e^{gamma t/2} (:mod:`ckstates.modes`),

    <q^2> = hbar |v|^2 (2n + 1) / s^2,
    <p^2> = hbar m0^2 |w|^2 (2n + 1) s^2,

which give the uncertainty product hbar m0 |v| |w| (2n + 1), free of s:

    dq dp = (hbar/2) sec(theta_gamma/2)
            sqrt([cosh 2r + sinh 2r cos(2 omega t + phi)]
                 [cosh 2r - sinh 2r cos(2 omega t + phi + theta_gamma)])
            (2n + 1),

where the damping angle theta_gamma has sin(theta_gamma/2) = k =
gamma/(2 omega0) and sec(theta_gamma/2) = omega0/omega, both read from one
exactly formed half-angle pair (:func:`_half_angle`).  At r = 0 the
bracket product is identically 1 and the product is the constant
(hbar/2) sigma0 (2n + 1) with sigma0 = (1 - k^2)^{-1/2}: the
pseudo-stationary ground state saturates that value at all times.  For
r > 0 with damping the product oscillates and at isolated phases drops
below the sigma0 value.  Its minimum over a period is

    F = (hbar/2)(2n + 1)                                if tanh 2r >= k,
    F = (hbar/2) sigma0 (cosh 2r - k sinh 2r)(2n + 1)   otherwise,

so the Heisenberg floor (hbar/2)(2n + 1) is attained at isolated times as
soon as tanh 2r >= k; see :class:`UncertaintyRecord`.  The sigma0 value
stays a lower bound for the period average, not for the product itself.
"""

import math
from dataclasses import dataclass

import numpy as np

from .modes import (
    PhysicalParams,
    SqueezeParams,
    _as_time,
    _envelope,
    _modulus,
    _sin,
    mode_u_rphi,
)
from .states import MAX_N

__all__ = [
    "UncertaintyRecord",
    "TimeAverage",
    "theta_gamma",
    "sigma0",
    "uncertainty_product",
    "uncertainty_time_avg",
    "hamiltonian_expectation",
]

# Trapezoid samples of one period in uncertainty_time_avg.
TIME_AVG_SAMPLES = 4097


@dataclass(frozen=True)
class UncertaintyRecord:
    """Uncertainties of one state at one time or at an array of times.

    ``bound`` stores the zero-squeezing value (hbar/2) sigma0 (2n + 1),
    which the r = 0 family attains exactly at all times.  It is not a
    floor for squeezed states: for r > 0 with damping the product dips
    below ``bound`` at isolated phases, down to the floor F of the module
    docstring, which equals the Heisenberg floor (hbar/2)(2n + 1) once
    tanh 2r >= gamma/(2 omega0).  The record therefore reports, and does
    not enforce, product >= bound.  ``dq``, ``dp``, ``product`` and ``t``
    are floats, or arrays of one shape; ``bound`` is always a float.
    """

    dq: float | np.ndarray
    dp: float | np.ndarray
    product: float | np.ndarray
    bound: float
    t: float | np.ndarray


@dataclass(frozen=True)
class TimeAverage:
    """Uncertainty product averaged over one period T = pi/omega.

    ``numeric`` is the trapezoid average of the closed-form product and is
    authoritative.  ``closed_form`` is the compact ground-state expression
    (hbar/2) sec(theta_gamma/2) (cosh^2 r - (cos theta_gamma / 2) sinh^2 r);
    it is exact at r = 0 but deviates from the true average of the
    square-root form for r > 0, so the gap is reported rather than
    asserted.  ``closed_form`` is None for n > 0, where no compact form is
    defined.
    """

    numeric: float
    closed_form: float | None


def _half_angle(params: PhysicalParams) -> tuple[float, float]:
    """sin and cos of theta_gamma/2: k = gamma/(2 omega0) and sqrt((1 - k)(1 + k)).

    1 - k is formed as (2 omega0 - gamma)/(2 omega0), whose difference is exact for
    gamma >= omega0 (Sterbenz), so both hold to a few ulp up to critical damping.
    """
    two_omega0 = 2.0 * params.omega0
    below = (two_omega0 - params.gamma) / two_omega0
    above = (two_omega0 + params.gamma) / two_omega0
    return params.gamma / two_omega0, math.sqrt(below * above)


def theta_gamma(params: PhysicalParams) -> float:
    """Damping angle theta_gamma in [0, pi): twice the atan2 of :func:`_half_angle`."""
    return 2.0 * math.atan2(*_half_angle(params))


def sigma0(params: PhysicalParams) -> float:
    """Uncertainty scale sigma0 = sec(theta_gamma/2) = (1 - gamma^2/4 omega0^2)^{-1/2} >= 1.

    One over the cosine of :func:`_half_angle`.
    """
    return 1.0 / _half_angle(params)[1]


def _product(params: PhysicalParams, n: int, mode):
    """dq dp = hbar m0 |v| |w| (2n + 1) of the n-th state on ``mode``."""
    return params.hbar * (2 * n + 1) * params.m0 * _modulus(mode.v) * _modulus(mode.w)


def uncertainty_product(
    params: PhysicalParams, n: int, squeeze: SqueezeParams, t: float | np.ndarray
) -> UncertaintyRecord:
    """Uncertainties dq, dp and their product for the n-th squeezed state.

    ``t`` is a float or an ndarray.  dq and dp are the mode moduli scaled by
    s^{-1} and s; the product, from the moduli alone, equals the bracket
    closed form quoted in the module docstring to rounding.

    Raises
    ------
    ArithmeticError
        If s overflows (OverflowError) or falls below the smallest normal
        double.
    """
    if not (0 <= n <= MAX_N):
        raise ValueError(f"number index must be in [0, {MAX_N}], got {n}")
    mode = mode_u_rphi(params, squeeze, t)
    s = _envelope(0.5 * params.gamma * mode.t)
    scale = math.sqrt(params.hbar * (2 * n + 1))
    dq = scale * _modulus(mode.v) / s
    dp = scale * params.m0 * _modulus(mode.w) * s
    bound = 0.5 * params.hbar * sigma0(params) * (2 * n + 1)
    product = _product(params, n, mode)
    return UncertaintyRecord(dq=dq, dp=dp, product=product, bound=bound, t=mode.t)


def uncertainty_time_avg(
    params: PhysicalParams, n: int, squeeze: SqueezeParams
) -> TimeAverage:
    """Average the uncertainty product over one period T = pi/omega.

    The product hbar m0 |v| |w| (2n + 1) depends on time only through
    2 omega t + phi, so T = pi/omega is its exact period.  The trapezoid
    rule with ``TIME_AVG_SAMPLES`` samples resolves the integrand far below
    the comparison tolerances.
    """
    if not (0 <= n <= MAX_N):
        raise ValueError(f"number index must be in [0, {MAX_N}], got {n}")
    period = math.pi / params.omega
    ts = np.linspace(0.0, period, TIME_AVG_SAMPLES)
    values = _product(params, n, mode_u_rphi(params, squeeze, ts))
    numeric = float(np.trapezoid(values, ts) / period)
    closed_form = None
    if n == 0:
        angle = theta_gamma(params)
        closed_form = 0.5 * params.hbar * sigma0(params) * (
            math.cosh(squeeze.r) ** 2
            - 0.5 * math.cos(angle) * math.sinh(squeeze.r) ** 2
        )
    return TimeAverage(numeric=numeric, closed_form=closed_form)


def hamiltonian_expectation(
    params: PhysicalParams, n: int, squeeze: SqueezeParams, t: float | np.ndarray
) -> float | np.ndarray:
    """Energy expectation of the n-th squeezed state.

    <H> = (hbar omega / 2) sec^2(theta_gamma/2)
          [cosh 2r + sinh 2r sin(theta_gamma/2)
                     sin(2 omega t + phi + theta_gamma/2)] (2n + 1).

    ``t`` is a float or an ndarray.  sec^2 and sin of theta_gamma/2 are read
    from :func:`_half_angle`, the phase from their atan2.  Constant in t at
    r = 0 with value (hbar omega0^2)/(2 omega) (2n + 1).
    """
    if not (0 <= n <= MAX_N):
        raise ValueError(f"number index must be in [0, {MAX_N}], got {n}")
    t = _as_time(t)
    sin_half, cos_half = _half_angle(params)
    sec2 = 1.0 / cos_half**2
    phase = 2.0 * params.omega * t + squeeze.phi + math.atan2(sin_half, cos_half)
    modulation = math.cosh(2.0 * squeeze.r) + math.sinh(2.0 * squeeze.r) * sin_half * _sin(phase)
    return 0.5 * params.hbar * params.omega * sec2 * modulation * (2 * n + 1)
