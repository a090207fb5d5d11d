"""Independent numerical verification of the closed forms.

Nothing in this module trusts the closed-form moments: position moments
come from composite Simpson quadrature of sampled wave functions,
momentum moments from spectral (FFT) derivatives, coherent means from the
invariant eigenvalue alpha, time derivatives from a Richardson-extrapolated
stencil, and time evolution from a fourth-order split-step Fourier
propagator (Strang steps composed by Yoshida's triple jump), run in the
coordinate Q = e^{gamma t/2} q that maps the Caldirola-Kanai equation
exactly onto an undamped oscillator, on a grid sized from the packet's
narrowest spread in that frame.  That oscillator's Hamiltonian is
constant, and each of its two parts is an exact phase, the potential on
the grid and the kinetic energy on the FFT wavenumbers.
Agreement between these routes and the closed-form layer is what
:func:`validate` certifies.

Spatial derivatives (momentum moments, energies, ladder operators, the
Hamiltonian of the residual) and the kinetic phases of the propagator
are those of the samples' trigonometric interpolant, so their error is
the state's spectrum beyond the grid's Nyquist wavenumber.  Each check
of one state at one instant samples it once, on one grid rule
(:func:`_check_grid`) sized from the wavenumbers the state carries, its
chirp e^{-i Im B q^2} included.  Boxes leave a negligible boundary
amplitude, so the samples are periodic to that accuracy; evolution
monitors the mass near the boundary, which a packet wrapping round the
periodic box must cross.
"""

import functools
import json
import math
import numbers
from collections.abc import Callable
from dataclasses import asdict, dataclass, fields

import numpy as np

from .modes import (
    PhysicalParams,
    SqueezeParams,
    _envelope,
    _modulus,
    make_params,
    mode_u_rphi,
    special_squeeze,
    wronskian,
)
from .observables import (
    hamiltonian_expectation,
    sigma0,
    uncertainty_product,
    uncertainty_time_avg,
)
from .states import (
    StateSpec,
    coherent_trajectory,
    eval_coherent_state,
    eval_number_state,
    gauss_coeffs,
    hermite,
)

__all__ = [
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

REPORT_VERSION = "0.1.0"

MIN_GRID_POINTS = 513

# Memory cap on the derivative checks' grids (see _check_grid): benchmark
# draws need at most 32769 points; it binds from gamma/(2 omega0) ~ 0.9999.
CHECK_MAX_POINTS = 262145

# Probability mass allowed within 5 points of either boundary during
# propagation before the run is declared leaky.
BOUNDARY_LEAK_TOL = 1e-8

# Propagation cross-check grid, in the frame coordinate Q = e^{gamma t/2} q
# of cn_cross_check: the box spans 24 of the widest frame spreads over one
# period, with this many points per narrowest spread, rounded up to
# 2^k + 1 for the FFT and capped at CN_MAX_POINTS.  The frame spreads range
# over at most a factor e^{2r}, whatever the damping, so r = 0.5 gets 513
# points at every gamma.  The kinetic phases are exact on the grid's
# wavenumbers, so four points per spread leave a spectral error far below
# the split scheme's time error.
CN_POINTS_PER_SPREAD = 4
CN_MAX_POINTS = 32769

# Length of the cross-check propagation, in periods pi/omega; not a whole
# number, see cn_cross_check.
CN_PERIODS = 1.37

# Least steps per period pi/omega that crank_nicolson_evolve accepts.
_MIN_STEPS_PER_PERIOD = 100

# Steps per edge-mass check of crank_nicolson_evolve: each step keeps its
# 5 + 5 edge samples, and a block's masses are reduced in one pass.
_EDGE_BLOCK = 256


class BoundaryLeakError(RuntimeError):
    """Raised when evolved probability mass reaches the grid boundary."""


@dataclass(frozen=True)
class GridSpec:
    """Uniform position grid with an odd number of points, at least 513.

    The odd point count keeps composite Simpson quadrature exactly
    applicable, and its n - 1 intervals are one period of the spectral
    derivative.  The floor, 513, is 25 points per spread of a number state
    on :func:`make_grid`'s box, where Simpson is at rounding level.
    :func:`make_grid`, the single-instant checks' :func:`_check_grid` and
    the propagation cross-check round their counts up to 2^k + 1.
    """

    q_min: float
    q_max: float
    n_points: int

    def __post_init__(self) -> None:
        if not self.q_max > self.q_min:
            raise ValueError(f"empty grid: q_min={self.q_min}, q_max={self.q_max}")
        if not math.isfinite(self.q_max - self.q_min):
            raise ValueError(
                f"grid width leaves the double range: q_min={self.q_min}, q_max={self.q_max}"
            )
        n = self.n_points
        if not isinstance(n, numbers.Integral) or n < MIN_GRID_POINTS or n % 2 == 0:
            raise ValueError(
                f"n_points must be an odd integer >= {MIN_GRID_POINTS}; got {n!r}"
            )

    @property
    def dq(self) -> float:
        return (self.q_max - self.q_min) / (self.n_points - 1)

    def points(self) -> np.ndarray:
        return np.linspace(self.q_min, self.q_max, self.n_points)


@dataclass(frozen=True)
class Moments:
    """Quadrature moments of one sampled wave function.

    ``warning`` is set when the norm deviates from 1 by more than 1e-6,
    in which case the remaining moments are ill-conditioned.
    """

    norm: float
    q_mean: float
    q2: float
    p_mean: float
    p2: float
    energy: float
    warning: str | None = None


def _clamp_points(n_points: int) -> int:
    """Round a requested point count up to the nearest 2^k + 1, at least
    ``MIN_GRID_POINTS``: the FFT-friendly sizes of the oracle's grids."""
    m = max(n_points - 1, MIN_GRID_POINTS - 1)
    return 2 ** math.ceil(math.log2(m)) + 1


def make_grid(
    params: PhysicalParams, spec: StateSpec, t: float, n_points: int = 2049
) -> GridSpec:
    """Grid covering the state's support at time t: the CLI's
    ``wavefunction`` grid; the checks take its box (:func:`_check_grid`).

    Centered at the position expectation with half-width |q_c| + 10 sigma,
    where sigma = sqrt(2n + 1)/(A sqrt(2)) is the position spread of the
    target state (the sqrt(2n + 1) factor widens the ground-state length
    1/(A sqrt(2)) to cover excited states).  The boundary density is then
    below e^{-50}.  Point counts are clamped up to the nearest power of two
    plus one.
    """
    q_min, q_max = _box(spec, gauss_coeffs(params, spec.squeeze, t))
    return GridSpec(q_min=q_min, q_max=q_max, n_points=_clamp_points(n_points))


def _box(spec, coeffs):
    """(q_min, q_max) of :func:`make_grid`'s box for the state ``spec``
    whose Gaussian coefficients are ``coeffs``."""
    n = spec.n if spec.kind == "number" else 0
    sigma = math.sqrt(2 * n + 1) / (coeffs.A * math.sqrt(2.0))
    center = spec.q_c if spec.kind == "coherent" else 0.0
    half = abs(center) + 10.0 * sigma
    return center - half, center + half


def _check_grid(params: PhysicalParams, spec: StateSpec, t: float) -> GridSpec:
    """Grid of the single-instant checks: :func:`make_grid`'s box, dq <= pi/k_max.

    k_max = 2 |Im B| h + |p_c|/hbar + 10 sqrt(2n + 1) A/sqrt(2) sums the
    chirp's local wavenumber at the box's half-width h, the plane wave of a
    coherent state, and ten momentum spreads of |psi|.  One evaluation of
    the Gaussian coefficients serves the box and k_max.
    """
    coeffs = gauss_coeffs(params, spec.squeeze, t)
    q_min, q_max = _box(spec, coeffs)
    n = spec.n if spec.kind == "number" else 0
    width = q_max - q_min
    k_max = abs(coeffs.B.imag) * width + abs(spec.p_c) / params.hbar
    k_max += 10.0 * math.sqrt(2 * n + 1) * coeffs.A / math.sqrt(2.0)
    n_points = _clamp_points(math.ceil(width * k_max / math.pi) + 1)
    return GridSpec(q_min=q_min, q_max=q_max, n_points=min(n_points, CHECK_MAX_POINTS))


def simpson(y: np.ndarray, dx: float):
    """Composite Simpson rule along the last axis of evenly spaced samples.

    Needs an odd sample count, as every :class:`GridSpec` has.  The sum
    runs in the same order as ``scipy.integrate.simpson`` for such input,
    so the two agree bit for bit.
    """
    y = np.asarray(y)
    n = y.shape[-1]
    if n < 3 or n % 2 == 0:
        raise ValueError(f"need an odd sample count >= 3, got {n}")
    result = np.sum(y[..., 0:-2:2] + 4.0 * y[..., 1:-1:2] + y[..., 2::2], axis=-1)
    result *= dx / 3.0
    return result


def _derivative(f: np.ndarray, dq: float, order: int) -> np.ndarray:
    """``order``-th derivative of grid samples by ``numpy.fft`` (Trefethen,
    *Spectral Methods in MATLAB*, ch. 3): the n odd samples are one period
    of n - 1 points, the last the image of the first.  Odd orders drop the
    Nyquist mode, whose derivative vanishes on the grid."""
    m = f.shape[-1] - 1
    k = np.fft.fftfreq(m, d=dq / (2.0 * math.pi))
    if order % 2:
        k[m // 2] = 0.0
    d = np.fft.ifft(np.fft.fft(f[:-1]) * (1j * k) ** order)
    return np.append(d, d[:1])


def _l2(f: np.ndarray, dq: float) -> float:
    return math.sqrt(abs(float(simpson(np.abs(f) ** 2, dx=dq))))


def moments(
    params: PhysicalParams, psi: np.ndarray, grid: GridSpec, *, t: float
) -> Moments:
    """Norm and low moments of sampled psi by quadrature.

    Composite Simpson integrates |psi|^2 q^k for <q^k>, psi* (-i hbar) psi'
    for <p> and hbar^2 |psi'|^2 for <p^2> (equal by parts for periodic
    samples, with rounding that grows as the Nyquist wavenumber, not its
    square), psi' the spectral derivative.  The five integrands are stacked
    and summed in one :func:`simpson` pass, row by row, with the bits of
    five separate sums.  The energy assembles
    e^{-gamma t} <p^2>/(2 m0) + (m0 omega0^2/2) e^{gamma t} <q^2>, so ``t``
    must be the evaluation time of the samples.
    """
    q = grid.points()
    if psi.shape != q.shape:
        raise ValueError(f"samples shape {psi.shape} does not match grid {q.shape}")
    dens = np.abs(psi) ** 2
    dpsi = _derivative(psi, grid.dq, 1)
    p_density = (psi.conjugate() * (-1j * params.hbar) * dpsi).real
    integrands = np.stack((dens, dens * q, dens * q * q, p_density, np.abs(dpsi) ** 2))
    norm, q_mean, q2, p_mean, p2 = map(float, simpson(integrands, dx=grid.dq))
    p2 = params.hbar**2 * p2
    energy = math.exp(-params.gamma * t) * p2 / (2.0 * params.m0) + (
        0.5 * params.m0 * params.omega0**2 * math.exp(params.gamma * t) * q2
    )
    warning = None
    if not abs(norm - 1.0) <= 1e-6:
        warning = f"norm deviates from 1 by {abs(norm - 1.0):.3e}; moments are ill-conditioned"
    return Moments(
        norm=norm, q_mean=q_mean, q2=q2, p_mean=p_mean, p2=p2, energy=energy,
        warning=warning,
    )


def apply_annihilation(
    params: PhysicalParams,
    squeeze: SqueezeParams,
    t: float,
    psi: np.ndarray,
    grid: GridSpec,
) -> np.ndarray:
    """Apply the invariant lowering operator to sampled psi.

    a_{r phi} = (i/sqrt(hbar)) [(v*/s) (-i hbar d/dq) - m0 s w* q],
    with the frame mode (v, w) of u_{r phi}, s = e^{gamma t/2} and the
    spectral derivative.  The operator is a constant of motion, so
    a_{r phi} psi_n = sqrt(n) psi_{n-1} at every time.
    """
    return _ladder(params, squeeze, t, psi, grid, lower=True)


def apply_creation(
    params: PhysicalParams,
    squeeze: SqueezeParams,
    t: float,
    psi: np.ndarray,
    grid: GridSpec,
) -> np.ndarray:
    """Apply the invariant raising operator, the adjoint of
    :func:`apply_annihilation`."""
    return _ladder(params, squeeze, t, psi, grid, lower=False)


def _ladder(params, squeeze, t, psi, grid, lower):
    """a_{r phi} psi if ``lower``, else a_{r phi}^dagger psi, whose form
    takes v, w for v*, w* and -i for i."""
    mode = mode_u_rphi(params, squeeze, t)
    v, w = (mode.v.conjugate(), mode.w.conjugate()) if lower else (mode.v, mode.w)
    q = grid.points()
    s = math.exp(0.5 * params.gamma * t)
    pterm = -1j * params.hbar * _derivative(psi, grid.dq, 1)
    return ((1j if lower else -1j) / math.sqrt(params.hbar)) * (
        (v / s) * pterm - params.m0 * s * w * q * psi
    )


def _apply_hamiltonian(
    params: PhysicalParams, psi: np.ndarray, grid: GridSpec, t: float
) -> np.ndarray:
    q = grid.points()
    kinetic = -(params.hbar**2) * math.exp(-params.gamma * t) / (2.0 * params.m0)
    potential = 0.5 * params.m0 * params.omega0**2 * math.exp(params.gamma * t) * q * q
    return kinetic * _derivative(psi, grid.dq, 2) + potential * psi


def _sample(params, spec, t, q, flip):
    """Closed-form samples of the state ``spec`` at time t.

    ``flip`` is the negative control: the samples are multiplied by
    e^{2 B (q - q_c)^2}, which turns the Gaussian factor e^{-B (q - q_c)^2}
    into e^{+B (q - q_c)^2}, the state with B -> -B.  It is not
    normalizable and solves no Schroedinger equation, so every check that
    reads it must turn red.
    """
    evaluate = eval_number_state if spec.kind == "number" else eval_coherent_state
    psi = evaluate(params, spec, t, q)
    if flip:
        coeffs = gauss_coeffs(params, spec.squeeze, t)
        x = coeffs.A * (np.asarray(q, dtype=float) - spec.q_c)
        psi = psi * np.exp(2.0 * coeffs.c * x**2)
    return psi


def schrodinger_residual(
    params: PhysicalParams,
    spec: StateSpec,
    t: float,
    grid: GridSpec,
    *,
    flip_b_sign: bool = False,
) -> float:
    """Relative residual ||i hbar dpsi/dt - H psi||_2 / ||H psi||_2.

    The time derivative uses a 4th-order central stencil at step
    1e-4 hbar ||psi|| / ||H psi|| (the state's own time scale),
    Richardson-extrapolated once; the states' phase Theta is continuous
    in t, so all stencil samples lie on one sheet.  A coherent spec is
    the anchor of :func:`coherent_trajectory` at time t, and the stencil
    samples move along that path, so the residual probes one solution,
    the path the library gives, rather than a family of re-centered
    states; H psi is differentiated in q spectrally.  The stencils at
    delta/2 and delta share the times t +- delta (2 (delta/2) = delta
    exactly), so the state is sampled once at each of 7 distinct times.
    """
    q = grid.points()

    @functools.cache
    def psi_at(tt: float) -> np.ndarray:
        state = spec
        if spec.kind == "coherent":
            q_c, p_c, _ = coherent_trajectory(params, spec.q_c, spec.p_c, t, tt)
            state = StateSpec.coherent(q_c, p_c, spec.squeeze)
        return _sample(params, state, tt, q, flip_b_sign)

    def d4(h: float) -> np.ndarray:
        return (
            psi_at(t - 2.0 * h)
            - 8.0 * psi_at(t - h)
            + 8.0 * psi_at(t + h)
            - psi_at(t + 2.0 * h)
        ) / (12.0 * h)

    psi = psi_at(t)
    hpsi = _apply_hamiltonian(params, psi, grid, t)
    psi_norm, hpsi_norm = np.linalg.norm(psi), np.linalg.norm(hpsi)
    delta = float(1e-4 * params.hbar * psi_norm / hpsi_norm)
    if not 0.0 < delta < math.inf:
        raise ArithmeticError(
            f"residual stencil step {delta!r} is not finite and positive: "
            f"||psi|| = {float(psi_norm)!r}, ||H psi|| = {float(hpsi_norm)!r}"
        )
    dpsi_dt = (16.0 * d4(delta / 2.0) - d4(delta)) / 15.0
    residual = np.linalg.norm(1j * params.hbar * dpsi_dt - hpsi)
    return float(residual / hpsi_norm)


def solve_banded(factor: tuple, rhs: np.ndarray) -> np.ndarray:
    """Solve L x = rhs with a LAPACK ``zgttrs`` tridiagonal factor,
    overwriting ``rhs``.

    ``factor`` is ``zgttrs`` followed by the LU factor of L from
    ``zgttrf``.  The solution is written into ``rhs`` and returned; ``rhs``
    must be a contiguous complex128 vector.  Nothing in the package calls
    it since :func:`crank_nicolson_evolve` became a split-step scheme; it
    stays because ``perfbench/spans.py`` traces ``oracle.solve_banded`` by
    name.
    """
    gttrs, *lu = factor
    return gttrs(*lu, rhs, overwrite_b=1)[0]


def crank_nicolson_evolve(
    params: PhysicalParams,
    psi0: np.ndarray,
    grid: GridSpec,
    t0: float,
    t1: float,
    n_steps: int,
) -> np.ndarray:
    """Propagate samples from t0 to t1 with fourth-order split-step
    Fourier steps under the time-independent Hamiltonian of undamped
    ``params``.

    The name is kept from the Crank-Nicolson scheme this replaced; the
    scheme is now the split-operator method of M. D. Feit, J. A. Fleck Jr.
    and A. Steiger, J. Comput. Phys. 47 (1982) 412.  H = T + V splits into
    two parts that are each exact phases: V = m0 omega0^2 q^2/2 on the
    grid points, and T = hbar^2 k^2/(2 m0) on the ``numpy.fft``
    wavenumbers k of the n - 1 periodic samples, in :func:`_derivative`'s
    convention (the last grid point is the image of the first, and is
    rewritten as such).  A Strang step of length h is
    e^{-i V h/2 hbar} e^{-i T h/hbar} e^{-i V h/2 hbar}, second order;
    H. Yoshida's triple jump, Phys. Lett. A 150 (1990) 262, composes
    three of them with h = w1 dt, w0 dt, w1 dt, where
    w1 = 1/(2 - 2^{1/3}) and w0 = 1 - 2 w1, so the step's error is
    O(dt^5) and the propagation fourth order.  The two half-kicks that
    meet between substeps are one phase.  Every factor has modulus 1 and
    the FFT pair is unitary, so the norm holds to rounding.  Requires at
    least 100 steps per period pi/omega, a bound on omega dt only.
    Damped parameters are refused: :func:`cn_cross_check` propagates in
    the undamped frame.

    The boundary-leak guard covers the initial samples and every step.  In
    the periodic box a packet that wraps round crosses the boundary, so
    the guard catches it too.  Each step keeps its 5 + 5 edge samples, and
    their masses are evaluated together once per block of 256 steps and
    after the last step, so a leak raises at the end of its block, with
    the mass and time of the first step that leaked.

    Raises
    ------
    ValueError
        If ``params.gamma`` is not 0, t0 or t1 is not finite, t1 <= t0,
        the steps are too few, or ``psi0`` does not match the grid.
    BoundaryLeakError
        If probability mass within 5 points of either boundary exceeds
        1e-8 (or is nan) initially or at any step.
    """
    if params.gamma != 0.0:
        raise ValueError(
            f"crank_nicolson_evolve needs a time-independent Hamiltonian, gamma = 0; "
            f"got gamma={params.gamma}"
        )
    if not (math.isfinite(t0) and math.isfinite(t1)):
        raise ValueError(f"t0 and t1 must be finite, got t0={t0}, t1={t1}")
    if not t1 > t0:
        raise ValueError(f"need t1 > t0, got t0={t0}, t1={t1}")
    # An integer is below this floor iff below its ceiling; the floor may be inf.
    min_steps = _step_floor(params, t0, t1)
    if n_steps < min_steps:
        raise ValueError(
            f"n_steps={n_steps} is below {_MIN_STEPS_PER_PERIOD} per period pi/omega "
            f"(need >= {min_steps!r})"
        )
    psi0 = np.asarray(psi0, dtype=complex)
    if psi0.shape != (grid.n_points,):
        raise ValueError(f"samples shape {psi0.shape} does not match grid {(grid.n_points,)}")
    # Grid indices of the 5 + 5 edge samples; "wrap" maps the last point
    # onto its image, the first periodic sample.
    edge_index = np.r_[0:5, grid.n_points - 5 : grid.n_points]
    # The initial samples as the row before the first step (start = -1).
    _check_edge_mass(psi0[edge_index][None], grid.dq, t0, -1, 0.0)
    dt = (t1 - t0) / n_steps
    w1 = 1.0 / (2.0 - 2.0 ** (1.0 / 3.0))
    w0 = 1.0 - 2.0 * w1
    q = grid.points()[:-1]
    k = np.fft.fftfreq(q.size, d=grid.dq / (2.0 * math.pi))
    # -i dt V/hbar on the grid and -i dt T/hbar on the wavenumbers.
    potential = (-0.5j * dt * params.m0 * params.omega0**2 / params.hbar) * q * q
    kinetic = (-0.5j * dt * params.hbar / params.m0) * k * k
    outer_kick = np.exp(0.5 * w1 * potential)
    inner_kick = np.exp(0.5 * (w1 + w0) * potential)
    drift1, drift0 = np.exp(w1 * kinetic), np.exp(w0 * kinetic)
    substeps = ((outer_kick, drift1), (inner_kick, drift0), (inner_kick, drift1))
    psi = psi0[:-1].copy()
    edges = np.empty((_EDGE_BLOCK, edge_index.size), dtype=complex)
    for start in range(0, n_steps, _EDGE_BLOCK):
        block = edges[: min(_EDGE_BLOCK, n_steps - start)]
        for row in block:
            for kick, drift in substeps:
                psi *= kick
                np.fft.fft(psi, out=psi)
                psi *= drift
                np.fft.ifft(psi, out=psi)
            psi *= outer_kick
            psi.take(edge_index, out=row, mode="wrap")
        _check_edge_mass(block, grid.dq, t0, start, dt)
    return np.append(psi, psi[:1])


def _step_floor(params: PhysicalParams, t0: float, t1: float) -> float:
    """Least step count :func:`crank_nicolson_evolve` takes from t0 to t1."""
    return _MIN_STEPS_PER_PERIOD * (t1 - t0) / (math.pi / params.omega)


def _check_edge_mass(
    edges: np.ndarray, dq: float, t0: float, start: int, dt: float
) -> None:
    """Raise :class:`BoundaryLeakError` for the first row of ``edges`` (the
    5 + 5 edge samples after steps start + 1, start + 2, ... from t0) whose
    mass is not within ``BOUNDARY_LEAK_TOL``.  Row sums add the samples in
    order, as ``np.sum`` does for 5, so each mass has the per-step bits."""
    sq = np.abs(edges) ** 2
    mass = (sq[:, :5].sum(axis=1) + sq[:, 5:].sum(axis=1)) * dq
    leaked = np.flatnonzero(~(mass <= BOUNDARY_LEAK_TOL))
    if leaked.size:
        k = int(leaked[0])
        raise BoundaryLeakError(
            f"probability mass {mass[k]:.3e} within 5 points of the "
            f"boundary at t={t0 + (start + k + 1) * dt:.6f}; enlarge the grid"
        )


def _cn_grid(params: PhysicalParams, squeeze: SqueezeParams) -> GridSpec:
    """Grid of :func:`cn_cross_check` in the frame coordinate
    Q = e^{gamma t/2} q, from the frame spreads sqrt(hbar)|v(t)| at 257
    instants of one period: ceil(24 ``CN_POINTS_PER_SPREAD`` widest/narrowest)
    points rounded up to 2^k + 1, at least ``MIN_GRID_POINTS`` and at most
    ``CN_MAX_POINTS``."""
    ts = np.linspace(0.0, math.pi / params.omega, 257)
    spreads = math.sqrt(params.hbar) * _modulus(mode_u_rphi(params, squeeze, ts).v)
    widest = float(spreads.max())
    n_points = _clamp_points(math.ceil(24 * CN_POINTS_PER_SPREAD * widest / spreads.min()))
    return GridSpec(
        q_min=-12.0 * widest, q_max=12.0 * widest, n_points=min(CN_MAX_POINTS, n_points)
    )


def _frame_params(params: PhysicalParams) -> PhysicalParams:
    """The undamped oscillator of frequency omega that the frame of
    :func:`cn_cross_check` evolves."""
    return make_params(params.m0, 0.0, params.omega, params.hbar)


def _in_frame(
    params: PhysicalParams,
    spec: StateSpec,
    t: float,
    Q: np.ndarray,
    flip_b_sign: bool = False,
) -> np.ndarray:
    """Closed-form samples of phi(Q, t) = e^{-gamma t/4} e^{i beta Q^2}
    psi(e^{-gamma t/2} Q, t), beta = m0 gamma/(4 hbar)."""
    scale = math.exp(-0.5 * params.gamma * t)
    beta = params.m0 * params.gamma / (4.0 * params.hbar)
    psi = _sample(params, spec, t, scale * Q, flip_b_sign)
    return math.sqrt(scale) * np.exp(1j * beta * Q * Q) * psi


def cn_cross_check(
    params: PhysicalParams,
    squeeze: SqueezeParams,
    *,
    flip_b_sign: bool = False,
) -> tuple[float, float]:
    """Propagate the squeezed ground state over ``CN_PERIODS`` = 1.37
    periods pi/omega with :func:`crank_nicolson_evolve` and compare with the
    closed form.

    The propagation runs in the frame Q = e^{gamma t/2} q, where
    psi(q, t) = e^{gamma t/4} e^{-i beta Q^2} phi(Q, t), beta = m0 gamma/(4 hbar),
    maps the Caldirola-Kanai equation exactly onto the undamped oscillator
    i hbar phi_t = -hbar^2/(2 m0) phi_QQ + m0 omega^2 Q^2/2 phi: the chirp
    cancels the term i hbar (gamma/2) Q phi_Q that the dilation brings and
    the constant i hbar gamma/4 from the prefactor, and shifts the
    frequency from omega0 to omega.  The closed-form states
    at both ends are mapped into the frame pointwise, which is unitary, so
    the overlap and the norms are those of the q frame.  In the frame the
    packet's width varies by at most e^{2r} instead of narrowing by about
    e^{pi gamma/(2 omega)}, so the grid does not depend on the damping.

    The window is not a whole number of periods: over exactly one period
    the exact frame propagator is Q -> -Q times a phase, so an error of
    the closed form that multiplies the state by the same even function
    of Q at both ends (a wrong chirp sign, for one) would pass unseen.

    The box spans 24 of the widest frame spreads over the period, with
    ``CN_POINTS_PER_SPREAD`` points per narrowest spread, rounded up to
    2^k + 1 and at most ``CN_MAX_POINTS``, so the grid grows with the
    squeeze as e^{2r}.  The split scheme's time error grows slowly with r,
    so the step count is the propagator's floor, 137 or 138 steps over
    the window, at every squeeze: 513 points at r = 0.5 read a deficit of
    at most about 1e-14, and 32769 points at r = 3 about 2e-9.  A packet that already
    reaches the grid's edge at t = 0 is refused by the propagator's guard.

    Returns
    -------
    (deficit, drift)
        The fidelity deficit |1 - |<psi_closed|psi_prop>|^2| and the norm
        drift of the propagated samples.

    Raises
    ------
    BoundaryLeakError
        If the initial samples carry more than ``BOUNDARY_LEAK_TOL`` within
        5 points of either boundary, or the propagation leaks.
    """
    spec = StateSpec.number(0, squeeze)
    t1 = CN_PERIODS * math.pi / params.omega
    grid = _cn_grid(params, squeeze)
    Q = grid.points()
    phi0 = _in_frame(params, spec, 0.0, Q, flip_b_sign)
    frame = _frame_params(params)
    n_steps = math.ceil(_step_floor(frame, 0.0, t1))
    evolved = crank_nicolson_evolve(frame, phi0, grid, 0.0, t1, n_steps)
    ref = _in_frame(params, spec, t1, Q, flip_b_sign)
    overlap = complex(simpson(ref.conjugate() * evolved, dx=grid.dq))
    deficit = abs(1.0 - abs(overlap) ** 2)
    drift = abs(
        float(simpson(np.abs(evolved) ** 2, dx=grid.dq))
        - float(simpson(np.abs(phi0) ** 2, dx=grid.dq))
    )
    return deficit, drift


@dataclass(frozen=True)
class ToleranceConfig:
    """Default tolerances for the validation suite; ``dataclasses.replace``
    overrides them per run."""

    wronskian: float = 1e-12
    normalization: float = 1e-10
    residual: float = 1e-5
    moments_rel: float = 1e-8
    energy_rel: float = 1e-7
    ladder_vacuum: float = 1e-6
    ladder_step: float = 1e-5
    bogoliubov: float = 1e-6
    cn_fidelity: float = 1e-6
    cn_norm_drift: float = 1e-8
    sim_wave: float = 1e-9  # relative to max |psi_sho|
    coherent_moment: float = 1e-8
    coherent_uncertainty: float = 1e-9
    time_avg_slack: float = 1e-9  # relative to the bound

    def __post_init__(self) -> None:
        # A nan tolerance fails every comparison and a negative one every
        # entry, whatever was measured; inf and 0 are meaningful.
        for field in fields(self):
            value = getattr(self, field.name)
            if not value >= 0.0:
                raise ValueError(f"tolerance {field.name} must be >= 0, got {value!r}")


@dataclass(frozen=True)
class Check:
    """One registered verification: a named kind and its parameter tuple."""

    name: str
    args: tuple = ()


@dataclass(frozen=True)
class ReportEntry:
    """Outcome of one check at one parameter point.  Every kind measures a
    deviation or a gap, so the expected value, 0, is written, not stored."""

    check_name: str
    parameter_tuple: tuple
    measured: float
    tolerance: float
    passed: bool
    skipped: bool = False
    reason: str = ""


@dataclass(frozen=True)
class ValidationReport:
    """Deterministic collection of check outcomes.

    Entries are sorted by (check_name, stringified parameter tuple), so
    reports merge identically under any execution order.
    """

    params: dict
    entries: tuple

    @property
    def summary(self) -> dict:
        skipped = sum(1 for e in self.entries if e.skipped)
        passed = sum(1 for e in self.entries if e.passed and not e.skipped)
        return {
            "total": len(self.entries),
            "passed": passed,
            "failed": len(self.entries) - passed - skipped,
            "skipped": skipped,
        }

    @property
    def all_passed(self) -> bool:
        return self.summary["failed"] == 0

    def to_json(self) -> str:
        """Serialize to {version, params, entries, summary}.

        Floats carry 17 significant digits so serialized reports diff
        exactly across runs; non-finite values serialize as null.
        """

        def num(x: float) -> str:
            x = float(x)
            return format(x, ".17g") if math.isfinite(x) else "null"

        def one(e: ReportEntry) -> str:
            ptuple = ", ".join(
                num(v) if isinstance(v, float) else json.dumps(v)
                for v in e.parameter_tuple
            )
            return (
                "    {"
                f'"check_name": {json.dumps(e.check_name)}, '
                f'"parameter_tuple": [{ptuple}], '
                f'"measured": {num(e.measured)}, '
                '"expected": 0, '
                f'"tolerance": {num(e.tolerance)}, '
                f'"pass": {json.dumps(e.passed)}, '
                f'"skipped": {json.dumps(e.skipped)}, '
                f'"reason": {json.dumps(e.reason)}'
                "}"
            )

        params_body = ", ".join(
            f"{json.dumps(k)}: {num(v)}" for k, v in sorted(self.params.items())
        )
        s = self.summary
        summary_body = ", ".join(
            f'"{k}": {s[k]}' for k in ("total", "passed", "failed", "skipped")
        )
        entries_body = ",\n".join(one(e) for e in self.entries)
        return (
            "{\n"
            f'  "version": {json.dumps(REPORT_VERSION)},\n'
            f'  "params": {{{params_body}}},\n'
            f'  "entries": [\n{entries_body}\n  ],\n'
            f'  "summary": {{{summary_body}}}\n'
            "}"
        )

    def to_table(self) -> str:
        """Human-readable fixed-width table with a summary footer."""
        lines = [
            f"{'check':<26} {'parameters':<34} {'measured':>13} {'tolerance':>10} status"
        ]
        for e in self.entries:
            ptuple = ",".join(
                format(v, ".4g") if isinstance(v, float) else str(v)
                for v in e.parameter_tuple
            )
            status = "SKIP" if e.skipped else ("PASS" if e.passed else "FAIL")
            note = f"  {e.reason}" if e.reason and status != "PASS" else ""
            lines.append(
                f"{e.check_name:<26} {ptuple:<34} {e.measured:>13.4e} "
                f"{e.tolerance:>10.1e} {status}{note}"
            )
        s = self.summary
        lines.append(
            f"total {s['total']}  passed {s['passed']}  failed {s['failed']}  "
            f"skipped {s['skipped']}"
        )
        return "\n".join(lines)


class _Skipped(Exception):
    """Raised by a measuring function whose check does not apply at the
    run's parameters; :func:`validate` records its entries as skipped."""


def _state(kind: str, *point) -> tuple[StateSpec, float]:
    """The state and time of ("number", n, r, phi, t) or
    ("coherent", q_c, p_c, r, phi, t) check arguments."""
    *coords, r, phi, t = point
    squeeze = SqueezeParams(r=r, phi=phi)
    if kind == "coherent":
        return StateSpec.coherent(*coords, squeeze), t
    (n,) = coords
    return StateSpec(kind, squeeze, int(n)), t


def _check_samples(params, flip, spec, t):
    """Check grid of the state ``spec`` at time t, its points and the
    state's samples there, built once per single-instant check."""
    grid = _check_grid(params, spec, t)
    q = grid.points()
    return grid, q, _sample(params, spec, t, q, flip)


# Measuring functions, one per check kind: (params, flip_b_sign, *check
# args) -> the measured value of each entry the kind reports, optionally
# followed by a reason string.


def _wronskian(params, flip, r, phi, t):
    w = wronskian(params, mode_u_rphi(params, SqueezeParams(r=r, phi=phi), t))
    return abs(w - 1j)


def _normalization(params, flip, kind, *point):
    grid, _, psi = _check_samples(params, flip, *_state(kind, *point))
    return abs(float(simpson(np.abs(psi) ** 2, dx=grid.dq)) - 1.0)


def _moments_product(params, flip, n, r, phi, t):
    squeeze = SqueezeParams(r=r, phi=phi)
    grid, _, psi = _check_samples(params, flip, StateSpec.number(int(n), squeeze), t)
    m = moments(params, psi, grid, t=t)
    quad = math.sqrt(abs((m.q2 - m.q_mean**2) * (m.p2 - m.p_mean**2)))
    closed = uncertainty_product(params, int(n), squeeze, t).product
    return abs(quad - closed) / closed, m.warning or ""


def _energy(params, flip, n, r, phi, t):
    squeeze = SqueezeParams(r=r, phi=phi)
    grid, _, psi = _check_samples(params, flip, StateSpec.number(int(n), squeeze), t)
    closed = hamiltonian_expectation(params, int(n), squeeze, t)
    return abs(moments(params, psi, grid, t=t).energy - closed) / abs(closed)


def _residual(params, flip, kind, *point):
    # The residual samples its state itself, along its time stencil.
    spec, t = _state(kind, *point)
    grid = _check_grid(params, spec, t)
    return schrodinger_residual(params, spec, t, grid, flip_b_sign=flip)


def _ladder_vacuum(params, flip, r, phi, t):
    squeeze = SqueezeParams(r=r, phi=phi)
    grid, _, psi = _check_samples(params, flip, StateSpec.number(0, squeeze), t)
    lowered = apply_annihilation(params, squeeze, t, psi, grid)
    return _l2(lowered, grid.dq) / _l2(psi, grid.dq)


def _ladder_step(params, flip, n, r, phi, t):
    squeeze = SqueezeParams(r=r, phi=phi)
    grid, q, psi = _check_samples(params, flip, StateSpec.number(int(n), squeeze), t)
    below = StateSpec.number(int(n) - 1, squeeze)
    ref = math.sqrt(n) * _sample(params, below, t, q, flip)
    lowered = apply_annihilation(params, squeeze, t, psi, grid)
    return _l2(lowered - ref, grid.dq) / _l2(ref, grid.dq)


def _ladder_bogoliubov(params, flip, r, phi, t):
    squeeze = SqueezeParams(r=r, phi=phi)
    # Generic test function: an excited state of a different family, so
    # neither side of the identity degenerates to 0 or a pure ladder step.
    probe = StateSpec.number(2, SqueezeParams(r=0.3, phi=0.7))
    grid, _, psi = _check_samples(params, flip, probe, t)
    base = SqueezeParams(r=0.0, phi=0.0)
    lhs = apply_annihilation(params, squeeze, t, psi, grid)
    rhs = squeeze.mu.conjugate() * apply_annihilation(
        params, base, t, psi, grid
    ) - squeeze.nu.conjugate() * apply_creation(params, base, t, psi, grid)
    return _l2(lhs - rhs, grid.dq) / _l2(lhs, grid.dq)


def _cn(params, flip, r, phi):
    return cn_cross_check(params, SqueezeParams(r=r, phi=phi), flip_b_sign=flip)


def _sim_wave(params, flip, n):
    if params.gamma <= 0.0:
        raise _Skipped("special squeeze is undefined for gamma = 0")
    spec = StateSpec.number(int(n), special_squeeze(params))
    _, q, psi = _check_samples(params, flip, spec, 0.0)
    a0 = math.sqrt(params.m0 * params.omega / params.hbar)
    sho = (
        (2.0 ** int(n) * math.factorial(int(n))) ** -0.5
        * (a0 / math.sqrt(math.pi)) ** 0.5
        * hermite(int(n), a0 * q)
        * np.exp(-0.5 * a0**2 * q**2)
    )
    phase = np.exp(
        -1j * math.atan(params.gamma / (4.0 * params.omega)) * (int(n) + 0.5)
    )
    ref = phase * sho
    return float(np.max(np.abs(psi - ref)) / np.max(np.abs(ref)))


def _eigenvalue_path(params, squeeze, alpha, t):
    """Classical phase-space point carried by the coherent state ``alpha``.

    q_c = sqrt(hbar) (alpha u + alpha* u*) = 2 sqrt(hbar) Re(alpha v) / s and
    p_c = sqrt(hbar) m0 e^{gamma t} (alpha u' + alpha* u'*) = 2 sqrt(hbar) m0 Re(alpha w) s.
    The eigenvalue alpha is a constant of motion, so one alpha traces the
    full damped trajectory: the oracle's reference for the coherent checks,
    which name states by alpha, apart from :func:`coherent_trajectory`.
    ``t`` is a float or an ndarray; so are q_c and p_c.
    """
    mode = mode_u_rphi(params, squeeze, t)
    s = _envelope(0.5 * params.gamma * mode.t)
    alpha = complex(alpha)
    sq = math.sqrt(params.hbar)
    q_c = sq * 2.0 * (alpha.real * mode.v.real - alpha.imag * mode.v.imag) / s
    p_c = sq * params.m0 * 2.0 * (alpha.real * mode.w.real - alpha.imag * mode.w.imag) * s
    return q_c, p_c


def _coherent_moments(params, flip, alpha_re, alpha_im, r, phi, t):
    squeeze = SqueezeParams(r=r, phi=phi)
    q_c, p_c = _eigenvalue_path(params, squeeze, complex(alpha_re, alpha_im), t)
    grid, _, psi = _check_samples(params, flip, StateSpec.coherent(q_c, p_c, squeeze), t)
    m = moments(params, psi, grid, t=t)
    scale = max(1.0, abs(q_c), abs(p_c))
    return max(abs(m.q_mean - q_c), abs(m.p_mean - p_c)) / scale, m.warning or ""


def _coherent_uncertainty(params, flip, r, phi, t):
    squeeze = SqueezeParams(r=r, phi=phi)
    c = gauss_coeffs(params, squeeze, t).c
    # Width of the displaced Gaussian, straight from its exponent c (A q)^2;
    # the negative control reads the exponent of the state with B -> -B.
    if flip:
        c = -c
    from_wave = params.hbar * abs(c) / (2.0 * c.real)
    closed = uncertainty_product(params, 0, squeeze, t).product
    return abs(from_wave - closed) / closed


def _time_avg_bound(params, flip, n, r, phi):
    avg = uncertainty_time_avg(params, int(n), SqueezeParams(r=r, phi=phi)).numeric
    bound = 0.5 * params.hbar * sigma0(params) * (2 * int(n) + 1)
    return (avg - bound) / bound


def _time_avg_gap(params, flip, r, phi):
    ta = uncertainty_time_avg(params, 0, SqueezeParams(r=r, phi=phi))
    return (
        ta.numeric - ta.closed_form,
        "gap between numeric average and compact form; recorded, not asserted",
    )


def _below(measured, tolerance, *args):
    return measured < tolerance


def _time_avg_passes(measured, tolerance, n, r, phi):
    # At r = 0 the product is the constant floor itself; squeezing can
    # only raise its period average.
    if r == 0.0:
        return abs(measured) <= tolerance
    return measured >= -tolerance


@dataclass(frozen=True)
class _Kind:
    """How one check kind is measured and judged.

    ``entries`` maps each report entry the kind writes to its tolerance: a
    :class:`ToleranceConfig` field name, or a fixed number.  Each entry
    passes when ``passes(measured, tolerance, *check args)`` holds.
    """

    measure: Callable
    entries: dict
    passes: Callable = _below


_KINDS = {
    "wronskian": _Kind(_wronskian, {"wronskian": "wronskian"}),
    "normalization": _Kind(_normalization, {"normalization": "normalization"}),
    "moments_product": _Kind(_moments_product, {"moments_product": "moments_rel"}),
    "energy_closed_form": _Kind(_energy, {"energy_closed_form": "energy_rel"}),
    "residual": _Kind(_residual, {"residual": "residual"}),
    "ladder_vacuum": _Kind(_ladder_vacuum, {"ladder_vacuum": "ladder_vacuum"}),
    "ladder_step": _Kind(_ladder_step, {"ladder_step": "ladder_step"}),
    "ladder_bogoliubov": _Kind(_ladder_bogoliubov, {"ladder_bogoliubov": "bogoliubov"}),
    "cn_fidelity": _Kind(
        _cn, {"cn_fidelity": "cn_fidelity", "cn_norm_drift": "cn_norm_drift"}
    ),
    "sim_wave": _Kind(_sim_wave, {"sim_wave": "sim_wave"}),
    "coherent_moments": _Kind(_coherent_moments, {"coherent_moments": "coherent_moment"}),
    "coherent_uncertainty": _Kind(
        _coherent_uncertainty, {"coherent_uncertainty": "coherent_uncertainty"}
    ),
    "time_average_lower_bound": _Kind(
        _time_avg_bound,
        {"time_average_lower_bound": "time_avg_slack"},
        passes=_time_avg_passes,
    ),
    # Recorded, never asserted.
    "time_average_closed_form_gap": _Kind(
        _time_avg_gap,
        {"time_average_closed_form_gap": math.inf},
        passes=lambda *args: True,
    ),
}


def default_schedule(params: PhysicalParams) -> tuple:
    """Default verification schedule over documented parameter points.

    Covers every registered check family: Wronskian normalization,
    state normalization, closed-form moments and energies against
    quadrature, Schroedinger residuals, ladder algebra, split-step
    propagation, the simple-harmonic initial condition, coherent-state
    contracts, and the time-averaged uncertainty comparisons.
    """
    checks = []
    for r in (0.0, 0.5, 2.0):
        for phi, t in ((0.0, 0.3), (1.0, 2.7), (math.pi, 7.5)):
            checks.append(Check("wronskian", (r, phi, t)))
    for kind_args in (
        ("number", 0, 0.0, 0.0, 0.0),
        ("number", 1, 0.5, 1.0, 0.8),
        ("number", 4, 1.5, math.pi / 4.0, 2.1),
        ("coherent", 1.0, -0.5, 0.7, 2.0, 0.8),
    ):
        checks.append(Check("normalization", kind_args))
    for n in (0, 1, 2, 4):
        for r in (0.0, 0.5, 1.5):
            for t in (0.3, 1.1, 2.9):
                checks.append(Check("moments_product", (n, r, 1.0, t)))
    for n, r, phi, t in (
        (0, 0.0, 0.0, 0.9),
        (0, 0.6, 1.0, 0.9),
        (1, 0.0, 0.0, 2.2),
        (1, 0.6, 1.0, 0.9),
        (2, 0.3, 2.0, 0.4),
        (2, 0.6, 1.0, 2.2),
        (3, 1.0, 4.0, 1.5),
        (3, 0.6, 1.0, 2.2),
        (4, 0.3, 2.0, 1.5),
        (4, 0.6, 1.0, 0.4),
    ):
        checks.append(Check("energy_closed_form", (n, r, phi, t)))
    for args in (
        ("number", 0, 0.0, 0.0, 1.0),
        ("number", 2, 0.5, 1.0, 0.8),
        ("number", 4, 1.0, math.pi / 4.0, 1.7),
        ("coherent", 1.0, -0.5, 0.7, 2.0, 0.8),
        ("coherent", -2.0, 1.5, 0.3, 4.0, 1.9),
    ):
        checks.append(Check("residual", args))
    for r, phi in ((0.0, 0.0), (0.7, 2.0)):
        checks.append(Check("ladder_vacuum", (r, phi, 0.9)))
    for n in (1, 2, 3, 4):
        checks.append(Check("ladder_step", (n, 0.5, 1.0, 0.6)))
    checks.append(Check("ladder_bogoliubov", (0.8, 2.5, 1.2)))
    checks.append(Check("cn_fidelity", (0.5, 1.0)))
    for n in (0, 1, 2):
        checks.append(Check("sim_wave", (n,)))
    for alpha_re, alpha_im, r, phi, t in (
        (1.0, 0.5, 0.0, 0.0, 0.7),
        (-0.8, 1.2, 0.6, 2.0, 1.4),
    ):
        checks.append(Check("coherent_moments", (alpha_re, alpha_im, r, phi, t)))
    for r, phi, t in ((0.0, 0.0, 0.5), (0.6, 2.0, 1.3), (1.5, 4.0, 2.6)):
        checks.append(Check("coherent_uncertainty", (r, phi, t)))
    for r in (0.0, 0.25, 0.5, 1.0):
        checks.append(Check("time_average_lower_bound", (0, r, 1.0)))
    for r in (0.25, 0.5, 1.0):
        checks.append(Check("time_average_closed_form_gap", (r, 1.0)))
    return tuple(checks)


def validate(
    params: PhysicalParams,
    schedule=None,
    *,
    tolerances: ToleranceConfig | None = None,
    flip_b_sign: bool = False,
) -> ValidationReport:
    """Run a verification schedule and assemble the deterministic report.

    Each check is measured by its kind's function and judged by its kind's
    pass rule against the kind's tolerance; this is the one place report
    entries are made.  Failures are report entries, never exceptions: a
    check that raises writes a failed entry with the exception text for
    every entry its kind reports, and ``sim_wave`` at gamma = 0, where
    the special squeeze is undefined, is recorded as skipped.
    ``flip_b_sign`` is the negative control: every check reads its states
    with the sign of the Gaussian width B flipped (see :func:`_sample`),
    which must blow up normalizations and residuals and turn the report red.
    """
    tol = tolerances if tolerances is not None else ToleranceConfig()
    if schedule is None:
        schedule = default_schedule(params)
    entries = []
    with np.errstate(over="ignore", invalid="ignore"):
        for check in schedule:
            kind = _KINDS.get(check.name)
            if kind is None:
                raise ValueError(f"unknown check name {check.name!r}")
            limits = [
                getattr(tol, limit) if isinstance(limit, str) else limit
                for limit in kind.entries.values()
            ]
            try:
                result = kind.measure(params, flip_b_sign, *check.args)
            except _Skipped as exc:
                outcomes = [(math.nan, limit, False, True, str(exc)) for limit in limits]
            except Exception as exc:
                reason = f"{type(exc).__name__}: {exc}"
                outcomes = [(math.nan, math.nan, False, False, reason)] * len(limits)
            else:
                values = result if isinstance(result, tuple) else (result,)
                reason = ""
                if isinstance(values[-1], str):
                    values, reason = values[:-1], values[-1]
                outcomes = [
                    (value, limit, kind.passes(value, limit, *check.args), False, reason)
                    for value, limit in zip(values, limits)
                ]
            for name, (measured, limit, passed, skipped, reason) in zip(
                kind.entries, outcomes
            ):
                entries.append(ReportEntry(
                    name, check.args, measured, limit, passed, skipped, reason
                ))
    entries.sort(key=lambda e: (e.check_name, tuple(str(v) for v in e.parameter_tuple)))
    return ValidationReport(params=asdict(params), entries=tuple(entries))
