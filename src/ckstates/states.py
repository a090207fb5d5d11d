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
an exact Schroedinger solution.
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
    "alpha_from_point",
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
    the desired position/momentum expectation values at evaluation time).
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
        if self.kind == "number" and not (0 <= self.n <= MAX_N):
            raise ValueError(f"number index must be in [0, {MAX_N}], got {self.n}")

    @classmethod
    def number(cls, n: int, squeeze: SqueezeParams) -> "StateSpec":
        return cls(kind="number", squeeze=squeeze, n=n)

    @classmethod
    def coherent(cls, q_c: float, p_c: float, squeeze: SqueezeParams) -> "StateSpec":
        return cls(kind="coherent", squeeze=squeeze, q_c=q_c, p_c=p_c)


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
    h_prev = np.zeros_like(arr)
    h = np.ones_like(arr)
    for k in range(n):
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
    a_coeff = _envelope(0.5 * params.gamma * t) / (math.sqrt(2.0 * params.hbar) * abs(mode.v))
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
    params: PhysicalParams,
    squeeze: SqueezeParams,
    alpha: complex,
    t: float | np.ndarray,
) -> tuple[float, float] | tuple[np.ndarray, np.ndarray]:
    """Classical phase-space point carried by the coherent state ``alpha``.

    q_c = sqrt(hbar) (alpha u + alpha* u*) = 2 sqrt(hbar) Re(alpha v) / s and
    p_c = sqrt(hbar) m0 e^{gamma t} (alpha u' + alpha* u'*) = 2 sqrt(hbar) m0 Re(alpha w) s.
    The eigenvalue alpha is a constant of motion, so one alpha traces the
    full damped trajectory.  ``t`` is a float or an ndarray; so are q_c
    and p_c.
    """
    mode = mode_u_rphi(params, squeeze, t)
    s = _envelope(0.5 * params.gamma * mode.t)
    alpha = complex(alpha)
    sq = math.sqrt(params.hbar)
    q_c = sq * 2.0 * (alpha.real * mode.v.real - alpha.imag * mode.v.imag) / s
    p_c = sq * params.m0 * 2.0 * (alpha.real * mode.w.real - alpha.imag * mode.w.imag) * s
    return q_c, p_c


def alpha_from_point(
    params: PhysicalParams, squeeze: SqueezeParams, q_c: float, p_c: float, t: float
) -> complex:
    """Invert :func:`coherent_trajectory`: the eigenvalue whose trajectory
    passes through (q_c, p_c) at time t.

    alpha = (i/sqrt(hbar)) (u* p_c - m0 e^{gamma t} u'* q_c)
    = (i/sqrt(hbar)) (v* p_c / s - m0 w* q_c s); the Wronskian
    normalization makes this map exactly inverse to the trajectory.
    """
    mode = mode_u_rphi(params, squeeze, t)
    s = _envelope(0.5 * params.gamma * t)
    return (
        1j
        / math.sqrt(params.hbar)
        * (mode.v.conjugate() * (p_c / s) - params.m0 * mode.w.conjugate() * (q_c * s))
    )
