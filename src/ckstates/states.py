"""Exact wave functions built on the mode functions.

Every state here is an exact solution of the time-dependent Schroedinger
equation for the Caldirola-Kanai Hamiltonian.  Number states take the
Gaussian-times-Hermite form

    Psi_n(q, t) = (2^n n!)^{-1/2} (A/sqrt(pi))^{1/2} e^{-i Theta (n + 1/2)}
                  H_n(A q) e^{-B q^2},

with coefficients from the frame mode (v, w) of u_{r phi} and s = e^{gamma t/2}:

    A = s / (sqrt(2 hbar) |v|),
    B = c A^2,  c = -i m0 v w*,
    Theta = omega t - arg(cosh r + sinh r e^{i(2 omega t + phi)}).

Theta is -arg(v) without its 2 pi jumps, so Psi_n is continuous in t.

The Wronskian makes Re c = 1/2; states use e^{-c (A q)^2}, so s never meets q^2.

Coherent states are rigid displacements of the ground Gaussian along the
classical trajectory (q_c(t), p_c(t)), carrying the extra plane-wave factor
e^{i p_c q / hbar} and a global phase fixed so the displaced state remains
an exact Schroedinger solution.  :func:`coherent_trajectory` gives that
path as the real damped map of its anchor (q_c, p_c) at t0, which the
state's means follow whatever its squeeze.
"""

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .modes import PhysicalParams, SqueezeParams, _envelope, mode_u_rphi

__all__ = [
    "GaussCoeffs",
    "StateSpec",
    "hermite",
    "gauss_coeffs",
    "eval_number_state",
    "eval_coherent_state",
    "coherent_trajectory",
]

# Upward Hermite recurrence stays within double-precision range for
# |A q| <= 8 up to this order.
MAX_N = 32


@dataclass(frozen=True)
class GaussCoeffs:
    """Gaussian coefficients (A, B, Theta) at one instant.

    ``A`` is the inverse length scale, ``c`` the dimensionless width with
    Re(c) = 1/2, ``B`` = c A^2 the complex width, ``theta`` the mode phase
    -arg(u_{r phi}) on the continuous branch of :func:`gauss_coeffs`.
    """

    A: float
    c: complex
    theta: float

    @property
    def B(self) -> complex:
        return self.c * self.A**2


@dataclass(frozen=True)
class StateSpec:
    """Which state to evaluate: number index or coherent displacement.

    ``kind`` is "number" (uses ``n``) or "coherent" (uses ``q_c``, ``p_c``,
    the finite position/momentum expectation values at evaluation time).
    Both kinds carry squeeze parameters.
    """

    kind: str
    squeeze: SqueezeParams
    n: int = 0
    q_c: float = 0.0
    p_c: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in ("number", "coherent"):
            raise ValueError(f"unknown state kind {self.kind!r}")
        if self.kind == "number":
            _check_index(self.n)
        _check_anchor(q_c=self.q_c, p_c=self.p_c)

    @classmethod
    def number(cls, n: int, squeeze: SqueezeParams) -> "StateSpec":
        return cls(kind="number", squeeze=squeeze, n=n)

    @classmethod
    def coherent(cls, q_c: float, p_c: float, squeeze: SqueezeParams) -> "StateSpec":
        return cls(kind="coherent", squeeze=squeeze, q_c=q_c, p_c=p_c)


def _check_index(n: int) -> None:
    if not (0 <= n <= MAX_N):
        raise ValueError(f"number index must be in [0, {MAX_N}], got {n}")


def _check_anchor(**values: float) -> None:
    for name, value in values.items():
        if not math.isfinite(value):
            raise ValueError(f"coherent {name} must be finite, got {value}")


def hermite(n: int, x):
    """Physicists' Hermite polynomial H_n by the three-term recurrence.

    Parameters
    ----------
    n : int
        Order, 0 <= n <= 32.
    x : float or ndarray
        Evaluation points.

    Returns
    -------
    float or ndarray
        H_n(x), matching the shape of ``x``.
    """
    if not (0 <= n <= MAX_N):
        raise ValueError(f"hermite order must be in [0, {MAX_N}], got {n}")
    arr = np.asarray(x, dtype=float)
    if n == 0:
        return 1.0 if arr.ndim == 0 else np.ones_like(arr)
    # From H_1 = 2x, with the scalar H_0 = 1, the bits of H_0 = 1, H_{-1} = 0.
    h_prev, h = 1.0, 2.0 * arr
    for k in range(1, n):
        h_prev, h = h, 2.0 * arr * h - 2.0 * k * h_prev
    return float(h) if arr.ndim == 0 else h


def gauss_coeffs(params: PhysicalParams, squeeze: SqueezeParams, t: float) -> GaussCoeffs:
    """Gaussian coefficients (A, B, Theta) of the state family at time t.

    Theta = omega t - arg(cosh r + sinh r e^{i(2 omega t + phi)}) is the
    jump-free representative of -arg(u), equal to the principal value
    modulo 2 pi; the bracket keeps a positive real part, so no unwrapping
    state is needed.  The branch matters because e^{-i Theta (n + 1/2)}
    changes sign with a 2 pi jump of Theta.
    """
    mode = mode_u_rphi(params, squeeze, t)
    # sqrt(2 hbar) without the product 2 hbar, which overflows above
    # 8.99e307.  Halving is exact for hbar >= 1 and doubling below it, so
    # both forms have the bits of the correctly rounded sqrt(2 hbar).
    h = params.hbar
    root_2hbar = 2.0 * math.sqrt(0.5 * h) if h >= 1.0 else math.sqrt(2.0 * h)
    a_coeff = _envelope(0.5 * params.gamma * t) / (root_2hbar * abs(mode.v))
    # c = -i m0 v w*, with Re c = m0 Im(v w*) = 1/2, whose terms are O(e^{2r}).
    width = complex(0.5, -params.m0 * (mode.v * mode.w.conjugate()).real)
    bracket = math.cosh(squeeze.r) + math.sinh(squeeze.r) * cmath.exp(
        1j * (2.0 * params.omega * t + squeeze.phi)
    )
    # atan2 rather than cmath.phase: the latter raises OverflowError when the
    # angle underflows to zero (a subnormal imaginary part, e.g. phi = 5e-324).
    theta = params.omega * t - math.atan2(bracket.imag, bracket.real)
    return GaussCoeffs(A=a_coeff, c=width, theta=theta)


def eval_number_state(params: PhysicalParams, spec: StateSpec, t: float, q):
    """Evaluate the squeezed number state Psi_n(q, t, r, phi).

    For r = 0 this is the pseudo-stationary family: eigenstates of the
    invariant number operator whose density decays with the damping
    envelope.  ``q`` may be a scalar or an array.
    """
    if spec.kind != "number":
        raise ValueError(f"expected a number-state spec, got kind {spec.kind!r}")
    coeffs = gauss_coeffs(params, spec.squeeze, t)
    n = spec.n
    norm = (2.0**n * math.factorial(n)) ** -0.5 * (coeffs.A / math.sqrt(math.pi)) ** 0.5
    phase = cmath.exp(-1j * coeffs.theta * (n + 0.5))
    x = coeffs.A * np.asarray(q, dtype=float)
    psi = norm * phase * hermite(n, x) * np.exp(-coeffs.c * x**2)
    return complex(psi) if x.ndim == 0 else psi


def eval_coherent_state(params: PhysicalParams, spec: StateSpec, t: float, q):
    """Evaluate the coherent state displaced to (q_c, p_c) at time t.

    The wave function is

        Psi = (A/sqrt(pi))^{1/2} F e^{-i Theta/2}
              e^{-c (A (q - q_c))^2} e^{i p_c q / hbar},

    with the global phase F = exp(-i p_c q_c / (2 hbar)) fixed by the
    displacement-operator factorization; this is the unique unimodular
    choice for which the displaced state solves the Schroedinger equation
    exactly (checked by the residual oracle).
    """
    if spec.kind != "coherent":
        raise ValueError(f"expected a coherent-state spec, got kind {spec.kind!r}")
    coeffs = gauss_coeffs(params, spec.squeeze, t)
    q_c, p_c = spec.q_c, spec.p_c
    front = (
        (coeffs.A / math.sqrt(math.pi)) ** 0.5
        * cmath.exp(-1j * p_c * q_c / (2.0 * params.hbar))
        * cmath.exp(-1j * coeffs.theta / 2.0)
    )
    qa = np.asarray(q, dtype=float)
    x = coeffs.A * (qa - q_c)
    # Samples where x^2 or c x^2 would overflow (the same products scaled by
    # 2^-1026 reach 1/4) lie so far from q_c that the Gaussian is 0 there;
    # they are squared as 0 and set to 0.  The product stays one expression:
    # numpy forms it in place in a temporary, which near underflow rounds
    # differently from a product into a new array.
    scaled = np.minimum(np.square(x * 2.0**-513), 1.0)
    near = max(1.0, abs(coeffs.c.imag)) * scaled < 0.25
    x2 = np.square(x, out=np.zeros_like(x), where=near)
    psi = front * np.exp(-coeffs.c * x2) * np.exp(1j * p_c * qa / params.hbar)
    psi = np.where(near, psi, 0.0)
    return complex(psi) if qa.ndim == 0 else psi


def coherent_trajectory(
    params: PhysicalParams, q_c: float, p_c: float, t0: float, t: float | np.ndarray
) -> tuple[float, float, float] | tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Means (q_c, p_c) at ``t`` of the coherent state whose means are
    (q_c, p_c) at ``t0``, and their classical energy.

    H(t0 + dt) with mass m0 is H(dt) with mass m = m0 e^{gamma t0}, so the
    path is the damped classical map of the anchor, which does not depend
    on the squeeze.  With c = cos(omega dt), s = sin(omega dt),
    k = gamma/(2 omega) and e = e^{gamma dt/2}:

        q = [q_c (c + k s) + (p_c/(m omega)) s] / e,
        p = [p_c (c - k s) - m q_c (omega0^2/omega) s] e,

    which give (q_c, p_c) back exactly at t = t0 (a zero may lose its sign).
    The energy e^{-gamma t} p^2/(2 m0) + (m0 omega0^2/2) e^{gamma t} q^2 is
    ((p / (sqrt(m) e))^2 + (omega0 sqrt(m) e q)^2) / 2.  ``t`` is a float or
    an ndarray, and so is each value.  A value outside the double range
    raises ArithmeticError, whatever the caller's numpy error state.
    """
    _check_anchor(q_c=q_c, p_c=p_c, t0=t0)
    t = np.asarray(t, dtype=float)
    with np.errstate(over="raise", divide="raise", invalid="raise"):
        # A numpy scalar, so that an overflow below raises.
        m = np.float64(params.m0) * _envelope(params.gamma * t0)
        dt = t - t0
        c, s = np.cos(params.omega * dt), np.sin(params.omega * dt)
        k = params.gamma / (2.0 * params.omega)
        e = _envelope(0.5 * params.gamma * dt)
        q = (q_c * (c + k * s) + p_c / (m * params.omega) * s) / e
        p = (p_c * (c - k * s) - m * q_c * (params.omega0**2 / params.omega) * s) * e
        scale = np.sqrt(m) * e
        energy = 0.5 * np.square(p / scale) + 0.5 * np.square(params.omega0 * scale * q)
    if t.ndim == 0:
        return float(q), float(p), float(energy)
    return q, p, energy
