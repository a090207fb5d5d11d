"""Numerical verification layer: grids, moments, ladders, residuals, CN, reports."""

import json
import math
import os
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import simpson

from ckstates.modes import SqueezeParams, make_params
from ckstates.observables import uncertainty_product
from ckstates.states import StateSpec, eval_coherent_state, eval_number_state, gauss_coeffs
from ckstates.oracle import (
    BoundaryLeakError,
    CHECK_MAX_POINTS,
    CN_MAX_POINTS,
    CN_PERIODS,
    Check,
    GridSpec,
    REPORT_VERSION,
    ToleranceConfig,
    apply_annihilation,
    apply_creation,
    cn_cross_check,
    crank_nicolson_evolve,
    default_schedule,
    make_grid,
    moments,
    schrodinger_residual,
    validate,
    _apply_hamiltonian,
    _check_grid,
    _cn_grid,
    _derivative,
    _frame_params,
    _in_frame,
    _l2,
    simpson as oracle_simpson,
)

P_STAR = make_params(1.0, 1.2, 1.0, 1.0)
NO_SQUEEZE = SqueezeParams(0.0, 0.0)
GROUND = StateSpec.number(0, NO_SQUEEZE)


# ---------------------------------------------------------------- grids


def test_grid_spec_dq_and_points():
    grid = GridSpec(-8.0, 8.0, 1025)
    assert grid.dq == pytest.approx(16.0 / 1024.0, rel=1e-15)
    q = grid.points()
    assert q.shape == (1025,)
    assert q[0] == -8.0 and q[-1] == 8.0


def test_grid_spec_rejects_bad_bounds():
    with pytest.raises(ValueError):
        GridSpec(2.0, 2.0, 1025)
    with pytest.raises(ValueError):
        GridSpec(3.0, -3.0, 1025)


def test_grid_spec_rejects_bad_point_counts():
    with pytest.raises(ValueError):
        GridSpec(-8.0, 8.0, 1024)  # not 2^k + 1
    with pytest.raises(ValueError):
        GridSpec(-8.0, 8.0, 1000)
    with pytest.raises(ValueError):
        GridSpec(-8.0, 8.0, 257)  # below the floor


def test_make_grid_ground_state_half_width():
    # 10 position spreads; sigma^2 = 0.625 at t = 0 for the reference point.
    grid = make_grid(P_STAR, GROUND, 0.0)
    assert grid.q_max == pytest.approx(10.0 * math.sqrt(0.625), rel=1e-12)
    assert grid.q_min == -grid.q_max
    assert grid.n_points == 2049


def test_make_grid_widens_with_excitation():
    g0 = make_grid(P_STAR, GROUND, 0.0)
    g2 = make_grid(P_STAR, StateSpec.number(2, NO_SQUEEZE), 0.0)
    assert g2.q_max / g0.q_max == pytest.approx(math.sqrt(5.0), rel=1e-12)


def test_make_grid_coherent_center_and_reach():
    grid = make_grid(P_STAR, StateSpec.coherent(3.0, 0.0, NO_SQUEEZE), 0.0)
    assert (grid.q_min + grid.q_max) / 2.0 == pytest.approx(3.0, abs=1e-12)
    # half-width |q_c| + 10 sigma so the far tail stays covered
    assert grid.q_max == pytest.approx(6.0 + 10.0 * math.sqrt(0.625), rel=1e-12)


def test_make_grid_clamps_point_count():
    assert make_grid(P_STAR, GROUND, 0.0, n_points=600).n_points == 1025
    assert make_grid(P_STAR, GROUND, 0.0, n_points=10).n_points == 513


# ---------------------------------------------------------------- quadrature


@pytest.mark.parametrize("n_points", [513, 4097, 65537])
def test_simpson_matches_scipy_bit_for_bit(n_points):
    rng = np.random.default_rng(n_points)
    real = rng.standard_normal(n_points)
    cplx = real + 1j * rng.standard_normal(n_points)
    for y in (real, cplx):
        ours = oracle_simpson(y, dx=0.0123)
        theirs = simpson(y, dx=0.0123)
        assert ours.tobytes() == np.asarray(theirs).tobytes()


def test_simpson_rejects_even_sample_count():
    with pytest.raises(ValueError):
        oracle_simpson(np.ones(1024), dx=0.1)


def _loaded_in_fresh_process(imports: str, module: str) -> bool:
    import ckstates

    src = os.path.dirname(os.path.dirname(ckstates.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    code = f"import sys, {imports}; print({module!r} in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        check=True, timeout=60,
    )
    return out.stdout.strip() == "True"


def test_import_leaves_scipy_integrate_unloaded():
    assert not _loaded_in_fresh_process("ckstates", "scipy.integrate")


def test_import_leaves_scipy_linalg_unloaded():
    # Only the Crank-Nicolson propagation needs LAPACK; it imports it.
    assert not _loaded_in_fresh_process("ckstates, ckstates.cli", "scipy.linalg")


# ---------------------------------------------------------------- moments


def test_moments_ground_state():
    grid = make_grid(P_STAR, GROUND, 0.7, n_points=8193)
    psi = eval_number_state(P_STAR, GROUND, 0.7, grid.points())
    m = moments(P_STAR, psi, grid, t=0.7)
    assert abs(m.norm - 1.0) < 1e-10
    assert m.warning is None
    product = math.sqrt(m.q2 - m.q_mean**2) * math.sqrt(m.p2 - m.p_mean**2)
    assert product == pytest.approx(0.625, abs=1e-8)


def test_moments_first_excited_parity():
    grid = make_grid(P_STAR, StateSpec.number(1, NO_SQUEEZE), 0.7, n_points=8193)
    psi = eval_number_state(P_STAR, StateSpec.number(1, NO_SQUEEZE), 0.7, grid.points())
    m = moments(P_STAR, psi, grid, t=0.7)
    assert abs(m.q_mean) < 1e-10
    assert abs(m.p_mean) < 1e-10


def test_moments_warns_on_broken_normalization():
    grid = make_grid(P_STAR, GROUND, 0.7, n_points=8193)
    psi = eval_number_state(P_STAR, GROUND, 0.7, grid.points(), flip_b_sign=True)
    with np.errstate(over="ignore", invalid="ignore"):
        m = moments(P_STAR, psi, grid, t=0.7)
    assert m.warning is not None and "norm" in m.warning


def test_moments_rejects_shape_mismatch():
    grid = make_grid(P_STAR, GROUND, 0.0)
    with pytest.raises(ValueError):
        moments(P_STAR, np.zeros(7, dtype=complex), grid, t=0.0)


# gamma/(2 omega0) = 0.941: a strongly damped benchmark draw (validate seed
# 502, op 12) at which squeezed states carry a steep chirp.
P_DAMPED = make_params(
    m0=0.6945205150677389, gamma=2.7799318047529864,
    omega0=1.4773283036070404, hbar=1.7976068005949424,
)


def test_spectral_derivative_of_chirped_displaced_gaussian():
    # f = e^{-B (q - q0)^2 + i p0 q}: f' = w f and f'' = (w^2 - 2B) f with
    # w = -2B (q - q0) + i p0.  The box reaches e^{-40} of the peak; 1025
    # points put the Nyquist wavenumber above the chirp's largest local
    # wavenumber plus ten momentum spreads (911 points needed).  513 points
    # leave that band under-resolved.
    b, q0, p0 = 0.3 - 5.0j, 0.7, 3.0
    half = math.sqrt(40.0 / b.real)
    errors = {}
    for n_points in (513, 1025):
        grid = GridSpec(q0 - half, q0 + half, n_points)
        q = grid.points()
        f = np.exp(-b * (q - q0) ** 2 + 1j * p0 * q)
        w = -2.0 * b * (q - q0) + 1j * p0
        for order, exact in ((1, w * f), (2, (w * w - 2.0 * b) * f)):
            gap = np.max(np.abs(_derivative(f, grid.dq, order) - exact))
            errors[n_points, order] = gap / np.max(np.abs(exact))
    assert errors[1025, 1] <= 1e-12
    assert errors[1025, 2] <= 1e-12
    assert errors[513, 1] > 1e-7 and errors[513, 2] > 1e-7


def test_moments_converge_spectrally():
    # Uncertainty-product error of a strongly chirped state on the rule's
    # grid and on 1/2 and 1/4 of its points.  The rule puts the Nyquist
    # wavenumber ten momentum spreads out, and the moments' error is
    # quadratic in the spectrum beyond it, so half the points still sit at
    # rounding; the next halving raises the error by >= 1e3 at once, where
    # a 4th-order stencil would raise it by 16.
    squeeze = SqueezeParams(1.5, 1.0)
    spec = StateSpec.number(2, squeeze)
    exact = uncertainty_product(P_DAMPED, 2, squeeze, 0.3).product
    rule = _check_grid(P_DAMPED, spec, 0.3)
    errors = []
    for n_points in (rule.n_points, rule.n_points // 2 + 1, rule.n_points // 4 + 1):
        grid = replace(rule, n_points=n_points)
        psi = eval_number_state(P_DAMPED, spec, 0.3, grid.points())
        m = moments(P_DAMPED, psi, grid, t=0.3)
        product = math.sqrt(m.q2 - m.q_mean**2) * math.sqrt(m.p2 - m.p_mean**2)
        errors.append(abs(product - exact) / exact)
    assert rule.n_points == 8193
    assert errors[0] <= 1e-12 and errors[1] <= 1e-12
    assert errors[2] >= 1e3 * max(errors[0], errors[1])


def test_check_grid_resolves_chirp_and_covers_ten_spreads():
    # Over the default schedule's 36 moments_product points at three
    # dampings: the Nyquist wavenumber pi/dq covers the chirp's local
    # wavenumber at the box edge plus ten momentum spreads, and the box
    # reaches ten position spreads on either side.
    for ratio in (0.0, 0.6, 0.975):
        params = make_params(1.0, 2.0 * ratio, 1.0, 1.0)
        points = [c.args for c in default_schedule(params) if c.name == "moments_product"]
        assert len(points) == 36
        for n, r, phi, t in points:
            spec = StateSpec.number(n, SqueezeParams(r, phi))
            grid = _check_grid(params, spec, t)
            coeffs = gauss_coeffs(params, spec.squeeze, t)
            sigma = math.sqrt(2 * n + 1) / (coeffs.A * math.sqrt(2.0))
            half = 0.5 * (grid.q_max - grid.q_min)
            # A number state's momentum spread (of |psi|, without the
            # chirp) is (n + 1/2)/sigma.
            k_max = 2.0 * abs(coeffs.B.imag) * half + 10.0 * (n + 0.5) / sigma
            assert k_max * grid.dq <= math.pi
            assert grid.q_min <= -10.0 * sigma and grid.q_max >= 10.0 * sigma
            assert grid.n_points <= CHECK_MAX_POINTS


def test_check_grid_point_count_is_capped():
    params = make_params(1.0, 2.0 * 0.99999, 1.0, 1.0)
    spec = StateSpec.number(4, SqueezeParams(1.5, 1.0))
    assert _check_grid(params, spec, 0.3).n_points == CHECK_MAX_POINTS


# ---------------------------------------------------------------- ladder operators


def test_annihilation_kills_vacuum():
    squeeze = SqueezeParams(0.8, 2.0)
    grid = make_grid(P_STAR, StateSpec.number(0, squeeze), 0.4, n_points=8193)
    psi = eval_number_state(P_STAR, StateSpec.number(0, squeeze), 0.4, grid.points())
    assert _l2(apply_annihilation(P_STAR, squeeze, 0.4, psi, grid), grid.dq) < 1e-6


@pytest.mark.parametrize("n", [1, 2, 3])
def test_ladder_step_down(n):
    squeeze = SqueezeParams(0.8, 2.0)
    grid = make_grid(P_STAR, StateSpec.number(3, squeeze), 0.4, n_points=8193)
    q = grid.points()
    upper = eval_number_state(P_STAR, StateSpec.number(n, squeeze), 0.4, q)
    lower = eval_number_state(P_STAR, StateSpec.number(n - 1, squeeze), 0.4, q)
    got = apply_annihilation(P_STAR, squeeze, 0.4, upper, grid)
    assert _l2(got - math.sqrt(n) * lower, grid.dq) < 1e-5


def test_ladder_step_up():
    squeeze = SqueezeParams(0.8, 2.0)
    grid = make_grid(P_STAR, StateSpec.number(3, squeeze), 0.4, n_points=8193)
    q = grid.points()
    psi1 = eval_number_state(P_STAR, StateSpec.number(1, squeeze), 0.4, q)
    psi2 = eval_number_state(P_STAR, StateSpec.number(2, squeeze), 0.4, q)
    got = apply_creation(P_STAR, squeeze, 0.4, psi1, grid)
    assert _l2(got - math.sqrt(2.0) * psi2, grid.dq) < 1e-5


def test_bogoliubov_mixing_of_ladder_operators():
    # a_{r phi} = mu* a_0 - nu* a_0^dagger holds pointwise on any sampled
    # state because the relation is linear in the mode functions.
    squeeze = SqueezeParams(0.3, 0.7)
    spec = StateSpec.number(2, squeeze)
    grid = make_grid(P_STAR, spec, 0.4, n_points=8193)
    probe = eval_number_state(P_STAR, spec, 0.4, grid.points())
    lhs = apply_annihilation(P_STAR, squeeze, 0.4, probe, grid)
    rhs = squeeze.mu.conjugate() * apply_annihilation(
        P_STAR, NO_SQUEEZE, 0.4, probe, grid
    ) - squeeze.nu.conjugate() * apply_creation(P_STAR, NO_SQUEEZE, 0.4, probe, grid)
    assert _l2(lhs - rhs, grid.dq) < 1e-12


# ---------------------------------------------------------------- residuals


def test_residual_number_state():
    spec = StateSpec.number(1, SqueezeParams(0.7, 2.1))
    grid = make_grid(P_STAR, spec, 0.9, n_points=4097)
    assert schrodinger_residual(P_STAR, spec, 0.9, grid) < 1e-8


def test_residual_coherent_state():
    spec = StateSpec.coherent(1.2, -0.7, SqueezeParams(0.3, 5.5))
    grid = make_grid(P_STAR, spec, 1.1, n_points=4097)
    assert schrodinger_residual(P_STAR, spec, 1.1, grid) < 1e-8


def test_residual_detects_flipped_width():
    grid = make_grid(P_STAR, GROUND, 0.9, n_points=4097)
    with np.errstate(over="ignore", invalid="ignore"):
        residual = schrodinger_residual(P_STAR, GROUND, 0.9, grid, flip_b_sign=True)
    assert residual > 0.1


def test_residual_detects_perturbed_width():
    # Inflate Re B by 1 percent while keeping the exact phase: the family
    # no longer solves the equation of motion and the residual must rise
    # above 1e-3.  Same stencil and Richardson step as the shipped check.
    grid = make_grid(P_STAR, GROUND, 0.9, n_points=4097)
    q = grid.points()

    def psi_at(tt, factor):
        coeffs = gauss_coeffs(P_STAR, NO_SQUEEZE, tt, theta_mode="continuous")
        b = factor * coeffs.B.real + 1j * coeffs.B.imag
        amp = (2.0 * b.real / math.pi) ** 0.25
        return amp * np.exp(-1j * coeffs.theta / 2.0) * np.exp(-b * q * q)

    def residual_for(factor):
        def d4(h):
            return (
                psi_at(0.9 - 2.0 * h, factor)
                - 8.0 * psi_at(0.9 - h, factor)
                + 8.0 * psi_at(0.9 + h, factor)
                - psi_at(0.9 + 2.0 * h, factor)
            ) / (12.0 * h)

        delta = 1e-4 / P_STAR.omega
        dpsi_dt = (16.0 * d4(delta / 2.0) - d4(delta)) / 15.0
        hpsi = _apply_hamiltonian(P_STAR, psi_at(0.9, factor), grid, 0.9)
        return float(
            np.linalg.norm(1j * P_STAR.hbar * dpsi_dt - hpsi) / np.linalg.norm(hpsi)
        )

    assert residual_for(1.0) < 1e-6
    assert residual_for(1.01) > 1e-3


# ---------------------------------------------------------------- Crank-Nicolson


def test_cn_round_trip_fidelity():
    period = math.pi / P_STAR.omega
    half = 1.2 * 10.0 * math.sqrt(0.625)
    grid = GridSpec(-half, half, 8193)
    Q = grid.points()
    psi0 = _in_frame(P_STAR, GROUND, 0.0, Q)
    evolved = crank_nicolson_evolve(_frame_params(P_STAR), psi0, grid, 0.0, period, 1000)
    ref = _in_frame(P_STAR, GROUND, period, Q)
    overlap = complex(simpson(ref.conjugate() * evolved, dx=grid.dq))
    assert abs(1.0 - abs(overlap) ** 2) < 1e-6
    drift = abs(
        float(simpson(np.abs(evolved) ** 2, dx=grid.dq))
        - float(simpson(np.abs(psi0) ** 2, dx=grid.dq))
    )
    assert drift < 1e-8


def test_cn_second_order_in_time():
    # Fidelity deficit is the squared orthogonal error, so halving dt
    # shrinks it by at least 4x once above the spatial floor (observed
    # ratio 16.0 on the sized 2049-point grid).  The 1.37-period window
    # takes 1000 and 2000 steps per period.
    squeeze = SqueezeParams(0.5, 1.0)
    deficits = [cn_cross_check(P_STAR, squeeze, n_steps)[0] for n_steps in (1370, 2740)]
    assert deficits[0] / deficits[1] > 3.5
    assert deficits[1] < 1e-7


def test_cn_fourth_order_in_space():
    # The Numerov Laplacian has a 4th-order error, so the deficit (its
    # square) shrinks by about 256x when dq halves; a 3-point Laplacian
    # gives about 16x.  8000 steps put the time error well below both.
    # The frame packet is resolved to that time floor on the cross-check
    # grid, so the box is 4x as wide (observed ratio 262).
    squeeze = SqueezeParams(0.5, 1.0)
    spec = StateSpec.number(0, squeeze)
    period = math.pi / P_STAR.omega
    box = _cn_grid(P_STAR, squeeze)
    deficits = []
    for n_points in (513, 1025):
        grid = GridSpec(4.0 * box.q_min, 4.0 * box.q_max, n_points)
        Q = grid.points()
        psi0 = _in_frame(P_STAR, spec, 0.0, Q)
        evolved = crank_nicolson_evolve(_frame_params(P_STAR), psi0, grid, 0.0, period, 8000)
        ref = _in_frame(P_STAR, spec, period, Q)
        overlap = complex(simpson(ref.conjugate() * evolved, dx=grid.dq))
        deficits.append(abs(1.0 - abs(overlap) ** 2))
    assert deficits[0] / deficits[1] >= 64.0


def test_cn_grid_sized_from_narrowest_spread():
    # In the frame Q = e^{gamma t/2} q the spreads range over e^{2r}
    # whatever the damping, so the point count depends on r alone:
    # ceil(24 * 16 * e^{2r}) rounded up to 2^k + 1, at most CN_MAX_POINTS.
    for gamma in (0.0, 1.2, 1.8, 1.95):
        params = make_params(1.0, gamma, 1.0, 1.0)
        assert _cn_grid(params, SqueezeParams(0.5, 1.0)).n_points == 2049
        assert _cn_grid(params, SqueezeParams(1.0, 1.0)).n_points == 4097
        assert _cn_grid(params, SqueezeParams(3.0, 1.0)).n_points == CN_MAX_POINTS
    assert CN_MAX_POINTS == 32769


def test_cn_frame_resolves_strong_damping():
    # In q the packet narrows about 650x (gamma/(2 omega0) = 0.9) and
    # 1e6x (0.975) within a period; in the frame it keeps its width, so
    # the deficit stays at the undamped level.  5480 steps over the
    # 1.37-period window are 4000 per period (deficit 3.9e-11 at each gamma).
    squeeze = SqueezeParams(0.5, 1.0)
    for gamma in (0.0, 1.8, 1.95):
        deficit, drift, _ = cn_cross_check(make_params(1.0, gamma, 1.0, 1.0), squeeze, 5480)
        assert deficit < 1e-10
        assert drift < 1e-11


def test_cn_frame_matches_closed_form_mid_period():
    # Over a whole period pi/omega the undamped oscillator only reflects
    # Q -> -Q, which any even factor survives; at 0.37 of a period the
    # frame map must be exactly right for the frame evolution to match.
    squeeze = SqueezeParams(0.5, 1.0)
    spec = StateSpec.number(0, squeeze)
    for gamma in (1.2, 1.8):
        params = make_params(1.0, gamma, 1.0, 1.0)
        t1 = 0.37 * math.pi / params.omega
        grid = _cn_grid(params, squeeze)
        Q = grid.points()
        phi0 = _in_frame(params, spec, 0.0, Q)
        evolved = crank_nicolson_evolve(_frame_params(params), phi0, grid, 0.0, t1, 2000)
        ref = _in_frame(params, spec, t1, Q)
        overlap = complex(simpson(ref.conjugate() * evolved, dx=grid.dq))
        assert abs(1.0 - abs(overlap) ** 2) < 1e-10
        assert abs(float(simpson(np.abs(ref) ** 2, dx=grid.dq)) - 1.0) < 1e-12


def test_cn_undamped_coherent_orbit_closes():
    # One full period at gamma = 0 returns the packet to its starting
    # point.  The position mean closes to stencil accuracy; the momentum
    # mean carries the 2nd-order time error (4.2e-5 at this step count,
    # shrinking by 4x per step doubling), so its gate is looser.
    params = make_params(1.0, 0.0, 1.0, 1.0)
    q_c0 = 1.131370849898476
    spec = StateSpec.coherent(q_c0, 0.0, NO_SQUEEZE)
    grid = GridSpec(-9.7, 9.7, 8193)
    psi0 = eval_coherent_state(params, spec, 0.0, grid.points())
    evolved = crank_nicolson_evolve(params, psi0, grid, 0.0, 2.0 * math.pi, 2400)
    m = moments(params, evolved, grid, t=2.0 * math.pi)
    assert abs(m.q_mean - q_c0) < 1e-7
    assert abs(m.p_mean) < 1e-4
    assert abs(m.norm - 1.0) < 1e-10


def test_cn_raises_on_boundary_leak():
    # A 3-sigma box cannot contain the tails; the edge-mass monitor must
    # abort instead of silently reflecting probability.
    sigma = math.sqrt(0.625)
    grid = GridSpec(-3.0 * sigma, 3.0 * sigma, 513)
    psi0 = _in_frame(P_STAR, GROUND, 0.0, grid.points())
    with pytest.raises(BoundaryLeakError):
        crank_nicolson_evolve(_frame_params(P_STAR), psi0, grid, 0.0, 0.1, 40)


def test_cn_rejects_coarse_stepping():
    params = _frame_params(P_STAR)
    grid = GridSpec(-8.0, 8.0, 513)
    psi0 = eval_number_state(params, GROUND, 0.0, grid.points())
    with pytest.raises(ValueError, match="below 1000 per period"):
        crank_nicolson_evolve(params, psi0, grid, 0.0, 0.5, 10)
    with pytest.raises(ValueError, match="t1 > t0"):
        crank_nicolson_evolve(params, psi0, grid, 0.5, 0.5, 100)


def test_cn_refuses_damped_params():
    # Only the undamped frame has the constant Hamiltonian that is factored once.
    grid = GridSpec(-8.0, 8.0, 513)
    psi0 = eval_number_state(P_STAR, GROUND, 0.0, grid.points())
    with pytest.raises(ValueError, match="gamma"):
        crank_nicolson_evolve(P_STAR, psi0, grid, 0.0, 0.5, 1000)


def test_cn_equals_per_step_solve_banded_bit_for_bit():
    # Reference: the bands of L written out and scipy's solve_banded, which
    # refactors L at every step.  Factoring once must not move one bit.
    from scipy.linalg import solve_banded

    params = _frame_params(P_STAR)
    squeeze = SqueezeParams(0.5, 1.0)
    grid = _cn_grid(P_STAR, squeeze)
    Q = grid.points()
    t1 = CN_PERIODS * math.pi / params.omega
    n_steps = 1370
    phi0 = _in_frame(P_STAR, StateSpec.number(0, squeeze), 0.0, Q)
    half = 0.5 * t1 / n_steps
    kin = half * params.hbar / (2.0 * params.m0 * grid.dq**2)
    pot12 = (params.m0 * params.omega0**2 / (24.0 * params.hbar)) * Q * Q
    ab = np.empty((3, Q.size), dtype=complex)
    ab.real[0] = ab.real[2] = 1.0 / 12.0
    ab.real[1] = 10.0 / 12.0
    ab.imag[0] = ab.imag[2] = pot12 * half - kin
    ab.imag[1] = ab.imag[0] * 10.0 + 12.0 * kin
    psi = phi0
    for _ in range(n_steps):
        rhs = ab[1].conjugate() * psi
        side = ab[0].conjugate() * psi
        rhs[:-1] += side[1:]
        rhs[1:] += side[:-1]
        psi = solve_banded((1, 1), ab, rhs)
    evolved = crank_nicolson_evolve(params, phi0, grid, 0.0, t1, n_steps)
    assert grid.n_points == 2049
    assert evolved.tobytes() == psi.tobytes()


# ---------------------------------------------------------------- tolerances


def test_tolerance_override():
    tol = ToleranceConfig()
    bumped = tol.override(residual=1e-2, wronskian=1e-9)
    assert bumped.residual == 1e-2
    assert bumped.wronskian == 1e-9
    assert tol.residual == 1e-5  # original untouched
    assert "cn_fidelity" in ToleranceConfig.field_names()


def test_tolerance_override_rejects_unknown_name():
    with pytest.raises(TypeError):
        ToleranceConfig().override(no_such_tolerance=1.0)


# ---------------------------------------------------------------- validate


def test_validate_empty_schedule():
    report = validate(P_STAR, schedule=())
    assert report.entries == ()
    assert report.all_passed
    assert report.summary == {"total": 0, "passed": 0, "failed": 0, "skipped": 0}


def test_validate_small_green_schedule():
    schedule = (
        Check("wronskian", (0.5, 1.0, 0.3)),
        Check("normalization", ("number", 1, 0.5, 1.0, 0.3)),
        Check("residual", ("number", 0, 0.0, 0.0, 0.9)),
    )
    report = validate(P_STAR, schedule=schedule)
    assert report.all_passed
    assert report.summary["total"] == 3
    assert report.version == REPORT_VERSION


# gamma/(2 omega0) = 0.975: a strongly damped benchmark draw (validate seed
# 503, op 13).
P_DAMPED_975 = make_params(
    m0=0.8165545768528125, gamma=2.0823284482561224,
    omega0=1.0681611180438588, hbar=0.5647343601964355,
)


@pytest.mark.parametrize("params", [P_DAMPED_975, P_DAMPED], ids=["0.975", "0.941"])
def test_validate_derivative_checks_pass_at_strong_damping(params):
    # Squeezed states chirp steeply here; a grid sized from |psi| alone
    # leaves the chirp unresolved and these entries over their tolerances.
    schedule = tuple(
        c for c in default_schedule(params)
        if c.name in ("moments_product", "ladder_step")
        or (c.name == "residual" and c.args[0] == "number")
    )
    report = validate(params, schedule=schedule)
    assert report.summary == {"total": 43, "passed": 43, "failed": 0, "skipped": 0}


# Where each entry kind takes its tolerance from, written out here rather
# than read from the oracle; None is the fixed infinite tolerance of the
# recorded, never asserted, closed-form gap.
TOLERANCE_FIELD = {
    "wronskian": "wronskian",
    "normalization": "normalization",
    "moments_product": "moments_rel",
    "energy_closed_form": "energy_rel",
    "residual": "residual",
    "ladder_vacuum": "ladder_vacuum",
    "ladder_step": "ladder_step",
    "ladder_bogoliubov": "bogoliubov",
    "cn_fidelity": "cn_fidelity",
    "cn_norm_drift": "cn_norm_drift",
    "sim_wave": "sim_wave",
    "coherent_moments": "coherent_moment",
    "coherent_uncertainty": "coherent_uncertainty",
    "time_average_lower_bound": "time_avg_slack",
    "time_average_closed_form_gap": None,
}


def test_validate_routes_each_tolerance_to_its_entries():
    names = ToleranceConfig.field_names()
    assert sorted(f for f in TOLERANCE_FIELD.values() if f) == sorted(names)
    # A distinct value per field, so an entry judged by another field shows.
    tolerances = ToleranceConfig().override(
        **{name: (k + 1) * 1e-3 for k, name in enumerate(names)}
    )
    first = {}
    for check in default_schedule(P_STAR):
        first.setdefault(check.name, check)
    report = validate(P_STAR, schedule=tuple(first.values()), tolerances=tolerances)
    assert sorted(e.check_name for e in report.entries) == sorted(TOLERANCE_FIELD)
    for e in report.entries:
        field = TOLERANCE_FIELD[e.check_name]
        expected = math.inf if field is None else getattr(tolerances, field)
        assert e.tolerance == expected, e.check_name
        # Every kind measures a deviation or a gap from 0.
        assert e.expected == 0.0, e.check_name


def test_validate_skips_sim_wave_without_damping():
    undamped = make_params(1.0, 0.0, 1.0, 1.0)
    report = validate(undamped, schedule=(Check("sim_wave", (1,)),))
    (entry,) = report.entries
    assert entry.skipped and not entry.passed
    assert math.isnan(entry.measured)
    assert entry.tolerance == 1e-9
    assert entry.reason == "special squeeze is undefined for gamma = 0"
    assert report.all_passed  # skips are not failures
    assert report.summary["skipped"] == 1


def test_validate_raising_check_fails_every_entry_of_its_kind():
    # The flipped width leaks through the CN boundary at once; cn_fidelity
    # reports two entries, so both must record the failure.
    schedule = (Check("cn_fidelity", (0.5, 1.0, 4000)),)
    report = validate(P_STAR, schedule=schedule, flip_b_sign=True)
    assert [e.check_name for e in report.entries] == ["cn_fidelity", "cn_norm_drift"]
    for e in report.entries:
        assert not e.passed and not e.skipped
        assert math.isnan(e.measured)
        assert e.reason.startswith("BoundaryLeakError: probability mass")
    assert report.summary == {"total": 2, "passed": 0, "failed": 2, "skipped": 0}


def test_validate_rejects_unknown_check():
    with pytest.raises(ValueError):
        validate(P_STAR, schedule=(Check("no_such_check", ()),))


def test_validate_flip_control_turns_red():
    schedule = (
        Check("normalization", ("number", 0, 0.0, 0.0, 0.3)),
        Check("residual", ("number", 0, 0.0, 0.0, 0.9)),
    )
    report = validate(P_STAR, schedule=schedule, flip_b_sign=True)
    assert not report.all_passed
    assert report.summary["failed"] == 2


def test_validate_records_runner_exception_as_failure():
    # n above the supported band raises inside the runner; the report
    # must absorb it as a failed entry rather than propagate.
    schedule = (Check("normalization", ("number", 99, 0.0, 0.0, 0.3)),)
    report = validate(P_STAR, schedule=schedule)
    entry = report.entries[0]
    assert not entry.passed and not entry.skipped
    assert "ValueError" in entry.reason
    assert not report.all_passed


def test_report_json_round_trip_and_determinism():
    schedule = (
        Check("wronskian", (0.5, 1.0, 0.3)),
        Check("normalization", ("number", 1, 0.5, 1.0, 0.3)),
    )
    first = validate(P_STAR, schedule=schedule)
    second = validate(P_STAR, schedule=schedule)
    assert first.to_json() == second.to_json()
    payload = json.loads(first.to_json())
    assert payload["version"] == REPORT_VERSION
    assert payload["params"]["gamma"] == 1.2
    assert len(payload["entries"]) == 2
    entry = payload["entries"][0]
    for key in ("check_name", "parameter_tuple", "measured", "tolerance", "pass"):
        assert key in entry


def test_report_table_footer():
    report = validate(P_STAR, schedule=(Check("wronskian", (0.0, 0.0, 0.0)),))
    lines = report.to_table().splitlines()
    assert lines[-1].split() == ["total", "1", "passed", "1", "failed", "0", "skipped", "0"]
