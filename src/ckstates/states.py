"""Exact wave functions built on the mode functions.

Every state here is an exact solution of the time-dependent Schroedinger
equation for the Caldirola-Kanai Hamiltonian.  Number states take the
Gaussian-times-Hermite form

    Psi_n(q, t) = (2^n n!)^{-1/2} (A/sqrt(pi))^{1/2} e^{-i Theta (n + 1/2)}
                  H_n(A q) e^{-B q^2},

with coefficients derived from the mode u_{r phi}(t):

    A = 1/sqrt(2 hbar |u|^2),
    B = -i m0 e^{gamma t} u'* / (2 hbar u*),
    Theta = -arg(u).

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
    "MAX_N",
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

    ``A`` is the inverse length scale with A^2 = 2 Re(B) (normalization
    identity), ``B`` the complex width, ``theta`` the mode phase
    -arg(u_{r phi}) (principal value or the continuous representative,
    depending on how the coefficients were built).  Re(B) > 0 for every
    admissible state; the record does not enforce it so that the
    fault-injection path used by the validation suite stays representable.
    """

    A: float
    B: complex
    theta: float
    t: float


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


def gauss_coeffs(
    params: PhysicalParams,
    squeeze: SqueezeParams,
    t: float,
    *,
    theta_mode: str = "principal",
    flip_b_sign: bool = False,
) -> GaussCoeffs:
    """Gaussian coefficients (A, B, Theta) of the state family at time t.

    Parameters
    ----------
    theta_mode : {"principal", "continuous"}
        "principal" reduces Theta = -arg(u) to (-pi, pi].  "continuous"
        returns the jump-free representative
        Theta = omega t - arg(cosh r + sinh r e^{i(2 omega t + phi)}),
        equal to the principal value modulo 2 pi; the bracket keeps a
        positive real part, so no unwrapping state is needed.  Time-series
        consumers (Schroedinger residual, phase-sensitive sweeps) need the
        continuous branch because e^{-i Theta (n + 1/2)} is branch-sensitive
        for half-integer multipliers.
    flip_b_sign : bool
        Fault-injection hook for the validation suite's negative control;
        flips B -> -B, which destroys normalizability.
    """
    mode = mode_u_rphi(params, squeeze, t)
    a_coeff = 1.0 / math.sqrt(2.0 * params.hbar * abs(mode.u) ** 2)
    b_coeff = (
        -1j
        * params.m0
        * _envelope(params.gamma * t)
        * mode.udot.conjugate()
        / (2.0 * params.hbar * mode.u.conjugate())
    )
    if flip_b_sign:
        b_coeff = -b_coeff
    # atan2 rather than cmath.phase: the latter raises OverflowError when the
    # angle underflows to zero (a subnormal imaginary part, e.g. phi = 5e-324).
    if theta_mode == "principal":
        theta = -math.atan2(mode.u.imag, mode.u.real)
    elif theta_mode == "continuous":
        bracket = math.cosh(squeeze.r) + math.sinh(squeeze.r) * cmath.exp(
            1j * (2.0 * params.omega * t + squeeze.phi)
        )
        theta = params.omega * t - math.atan2(bracket.imag, bracket.real)
    else:
        raise ValueError(f"unknown theta_mode {theta_mode!r}")
    return GaussCoeffs(A=a_coeff, B=b_coeff, theta=theta, t=t)


def eval_number_state(
    params: PhysicalParams,
    spec: StateSpec,
    t: float,
    q,
    *,
    theta_mode: str = "principal",
    flip_b_sign: bool = False,
):
    """Evaluate the squeezed number state Psi_n(q, t, r, phi).

    For r = 0 this is the pseudo-stationary family: eigenstates of the
    invariant number operator whose density decays with the damping
    envelope.  ``q`` may be a scalar or an array.
    """
    if spec.kind != "number":
        raise ValueError(f"expected a number-state spec, got kind {spec.kind!r}")
    coeffs = gauss_coeffs(
        params, spec.squeeze, t, theta_mode=theta_mode, flip_b_sign=flip_b_sign
    )
    n = spec.n
    norm = (2.0**n * math.factorial(n)) ** -0.5 * (coeffs.A / math.sqrt(math.pi)) ** 0.5
    phase = cmath.exp(-1j * coeffs.theta * (n + 0.5))
    qa = np.asarray(q, dtype=float)
    psi = norm * phase * hermite(n, coeffs.A * qa) * np.exp(-coeffs.B * qa**2)
    return complex(psi) if qa.ndim == 0 else psi


def eval_coherent_state(
    params: PhysicalParams,
    spec: StateSpec,
    t: float,
    q,
    *,
    theta_mode: str = "principal",
    flip_b_sign: bool = False,
):
    """Evaluate the coherent state displaced to (q_c, p_c) at time t.

    The wave function is

        Psi = (A/sqrt(pi))^{1/2} F e^{-i Theta/2}
              e^{-B (q - q_c)^2} e^{i p_c q / hbar},

    with the global phase F = exp(-i p_c q_c / (2 hbar)) fixed by the
    displacement-operator factorization; this is the unique unimodular
    choice for which the displaced state solves the Schroedinger equation
    exactly (checked by the residual oracle).
    """
    if spec.kind != "coherent":
        raise ValueError(f"expected a coherent-state spec, got kind {spec.kind!r}")
    coeffs = gauss_coeffs(
        params, spec.squeeze, t, theta_mode=theta_mode, flip_b_sign=flip_b_sign
    )
    q_c, p_c = spec.q_c, spec.p_c
    front = (
        (coeffs.A / math.sqrt(math.pi)) ** 0.5
        * cmath.exp(-1j * p_c * q_c / (2.0 * params.hbar))
        * cmath.exp(-1j * coeffs.theta / 2.0)
    )
    qa = np.asarray(q, dtype=float)
    psi = front * np.exp(-coeffs.B * (qa - q_c) ** 2) * np.exp(1j * p_c * qa / params.hbar)
    return complex(psi) if qa.ndim == 0 else psi


def coherent_trajectory(
    params: PhysicalParams,
    squeeze: SqueezeParams,
    alpha: complex,
    t: float | np.ndarray,
) -> tuple[float, float] | tuple[np.ndarray, np.ndarray]:
    """Classical phase-space point carried by the coherent state ``alpha``.

    q_c = sqrt(hbar) (alpha u + alpha* u*) and
    p_c = sqrt(hbar) m0 e^{gamma t} (alpha u' + alpha* u'*); both real.
    The eigenvalue alpha is a constant of motion, so one alpha traces the
    full damped trajectory.  ``t`` is a float or an ndarray; so are q_c
    and p_c.
    """
    mode = mode_u_rphi(params, squeeze, t)
    alpha = complex(alpha)
    sq = math.sqrt(params.hbar)
    q_c = sq * 2.0 * (alpha.real * mode.u.real - alpha.imag * mode.u.imag)
    p_c = (
        sq
        * params.m0
        * _envelope(params.gamma * mode.t)
        * 2.0
        * (alpha.real * mode.udot.real - alpha.imag * mode.udot.imag)
    )
    return q_c, p_c


def alpha_from_point(
    params: PhysicalParams, squeeze: SqueezeParams, q_c: float, p_c: float, t: float
) -> complex:
    """Invert :func:`coherent_trajectory`: the eigenvalue whose trajectory
    passes through (q_c, p_c) at time t.

    alpha = (i/sqrt(hbar)) (u* p_c - m0 e^{gamma t} u'* q_c); the Wronskian
    normalization makes this map exactly inverse to the trajectory.
    """
    mode = mode_u_rphi(params, squeeze, t)
    weight = params.m0 * _envelope(params.gamma * t)
    return (
        1j
        / math.sqrt(params.hbar)
        * (mode.u.conjugate() * p_c - weight * mode.udot.conjugate() * q_c)
    )
