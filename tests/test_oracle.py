"""Numerical verification layer: grids, moments, ladders, residuals, CN, reports."""

import json
import math
import os
import subprocess
import sys
from collections import Counter
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import simpson

from ckstates import oracle
from ckstates.modes import SqueezeParams, make_params, special_squeeze
from ckstates.observables import uncertainty_product
from ckstates.states import (
    StateSpec,
    coherent_trajectory,
    eval_coherent_state,
    eval_number_state,
    gauss_coeffs,
)
from ckstates.oracle import (
    BOUNDARY_LEAK_TOL,
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
    _EDGE_BLOCK,
    _check_grid,
    _cn_grid,
    _derivative,
    _frame_params,
    _in_frame,
    _l2,
    _sample,
    _state,
    simpson as oracle_simpson,
)

P_STAR = make_params(1.0, 1.2, 1.0, 1.0)
NO_SQUEEZE = SqueezeParams(0.0, 0.0)
GROUND = StateSpec.number(0, NO_SQUEEZE)


# ---------------------------------------------------------------- grids


def test_grid_spec_dq_and_points():
    # Any odd count from the floor, a power of two plus one or not.
    for n_points in (1025, 1045):
        grid = GridSpec(-8.0, 8.0, n_points)
        assert grid.dq == pytest.approx(16.0 / (n_points - 1), rel=1e-15)
        q = grid.points()
        assert q.shape == (n_points,)
        assert q[0] == -8.0 and q[-1] == 8.0


def test_grid_spec_rejects_bad_bounds():
    with pytest.raises(ValueError):
        GridSpec(2.0, 2.0, 1025)
    with pytest.raises(ValueError):
        GridSpec(3.0, -3.0, 1025)
    for q_min, q_max in ((-math.inf, math.inf), (0.0, math.inf), (-1e308, 1e308)):
        with pytest.raises(ValueError, match="grid width leaves the double range"):
            GridSpec(q_min, q_max, 1025)


def test_grid_spec_rejects_bad_point_counts():
    for n_points in (1024, 1000):  # even
        with pytest.raises(ValueError, match="odd integer"):
            GridSpec(-8.0, 8.0, n_points)
    with pytest.raises(ValueError, match=">= 513"):
        GridSpec(-8.0, 8.0, 257)  # below the floor
    with pytest.raises(ValueError, match="got 1045.0"):
        GridSpec(-8.0, 8.0, 1045.0)  # odd in value, but no integer


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


def _run_fresh(code: str) -> str:
    """Standard output of ``code`` run by a fresh interpreter that imports
    this checkout's package."""
    import ckstates

    src = os.path.dirname(os.path.dirname(ckstates.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        check=True, timeout=60,
    )
    return out.stdout.strip()


def _loaded_in_fresh_process(imports: str, module: str) -> bool:
    return _run_fresh(f"import sys, {imports}; print({module!r} in sys.modules)") == "True"


def test_import_leaves_scipy_integrate_unloaded():
    assert not _loaded_in_fresh_process("ckstates", "scipy.integrate")


def test_import_leaves_scipy_linalg_unloaded():
    assert not _loaded_in_fresh_process("ckstates, ckstates.cli", "scipy.linalg")


def test_validate_loads_no_scipy():
    # scipy is a test dependency only: a whole validate run, the propagation
    # cross-check included, must not load any part of it.
    code = (
        "import sys\n"
        "from ckstates import make_params, validate\n"
        "assert validate(make_params(1, 1.2, 1, 1)).all_passed\n"
        "print(sorted(n for n in sys.modules if n.partition('.')[0] == 'scipy'))"
    )
    assert _run_fresh(code) == "[]"


def test_import_loads_nothing_beyond_numpy_and_the_standard_library():
    # Start-up time is import time: an eager scipy or mpmath import would
    # add a third-party package here.
    code = (
        "import sys, numpy\n"
        "def tops(): return {name.partition('.')[0] for name in sys.modules}\n"
        "before = tops()\n"
        "import ckstates, ckstates.cli\n"
        "print(sorted(tops() - before - {'ckstates'} - set(sys.stdlib_module_names)))"
    )
    assert _run_fresh(code) == "[]"


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
    with np.errstate(over="ignore", invalid="ignore"):
        psi = _sample(P_STAR, GROUND, 0.7, grid.points(), True)
        m = moments(P_STAR, psi, grid, t=0.7)
    assert m.warning is not None and "norm" in m.warning


@pytest.mark.parametrize("n", [0, 3])
def test_moments_on_an_odd_grid_that_is_no_power_of_two(n):
    # 1045 points, no power of two plus one: the spectral
    # derivative runs over 1044 samples and still matches the closed form
    # (observed 1.1e-14 at n = 0 and 6.4e-16 at n = 3).
    squeeze = SqueezeParams(0.5, 1.0)
    spec = StateSpec.number(n, squeeze)
    grid = replace(make_grid(P_STAR, spec, 0.7), n_points=1045)
    psi = eval_number_state(P_STAR, spec, 0.7, grid.points())
    m = moments(P_STAR, psi, grid, t=0.7)
    product = math.sqrt((m.q2 - m.q_mean**2) * (m.p2 - m.p_mean**2))
    closed = uncertainty_product(P_STAR, n, squeeze, 0.7).product
    assert abs(product - closed) / closed < 1e-12


def test_moments_rejects_shape_mismatch():
    grid = make_grid(P_STAR, GROUND, 0.0)
    with pytest.raises(ValueError):
        moments(P_STAR, np.zeros(7, dtype=complex), grid, t=0.0)


def _five_sums(params, psi, grid):
    """The (norm, <q>, <q^2>, <p>, <p^2>) sums of :func:`moments`, each by
    its own simpson call: the reference for the stacked single call."""
    q = grid.points()
    dens = np.abs(psi) ** 2
    conj = psi.conjugate()
    dpsi = _derivative(psi, grid.dq, 1)
    return (
        float(oracle_simpson(dens, dx=grid.dq)),
        float(oracle_simpson(dens * q, dx=grid.dq)),
        float(oracle_simpson(dens * q * q, dx=grid.dq)),
        float(oracle_simpson((conj * (-1j * params.hbar) * dpsi).real, dx=grid.dq)),
        params.hbar**2 * float(oracle_simpson(np.abs(dpsi) ** 2, dx=grid.dq)),
    )


@pytest.mark.parametrize("n_points", [513, 1025, 8193, 32769])
def test_moments_equal_five_separate_sums_bit_for_bit(n_points):
    spec = StateSpec.coherent(1.2, -0.7, SqueezeParams(0.9, 2.0))
    grid = replace(make_grid(P_STAR, spec, 0.3), n_points=n_points)
    rng = np.random.default_rng(n_points)
    noise = rng.standard_normal(n_points) + 1j * rng.standard_normal(n_points)
    for psi in (eval_coherent_state(P_STAR, spec, 0.3, grid.points()), noise):
        m = moments(P_STAR, psi, grid, t=0.3)
        got = (m.norm, m.q_mean, m.q2, m.p_mean, m.p2)
        assert [x.hex() for x in got] == [x.hex() for x in _five_sums(P_STAR, psi, grid)]


def test_moments_sum_in_one_simpson_call(monkeypatch):
    grid = make_grid(P_STAR, GROUND, 0.7)
    psi = eval_number_state(P_STAR, GROUND, 0.7, grid.points())
    calls = _counted(monkeypatch, "simpson")
    moments(P_STAR, psi, grid, t=0.7)
    assert len(calls) == 1 and calls[0][0].shape == (5, grid.n_points)


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
    # Over the default schedule's 36 moments_product, 4 normalization and
    # (with damping) 3 sim_wave states at three dampings: the Nyquist
    # wavenumber pi/dq covers the chirp's local wavenumber at the box edge,
    # a coherent state's plane wave and ten momentum spreads, and the box
    # reaches ten position spreads on either side of the state's centre.
    for ratio in (0.0, 0.6, 0.975):
        params = make_params(1.0, 2.0 * ratio, 1.0, 1.0)
        states = []
        for check in default_schedule(params):
            if check.name == "moments_product":
                n, r, phi, t = check.args
                states.append((StateSpec.number(n, SqueezeParams(r, phi)), t))
            elif check.name == "normalization":
                states.append(_state(*check.args))
            elif check.name == "sim_wave" and ratio > 0.0:
                states.append((StateSpec.number(check.args[0], special_squeeze(params)), 0.0))
        assert len(states) == (43 if ratio > 0.0 else 40)
        for spec, t in states:
            grid = _check_grid(params, spec, t)
            coeffs = gauss_coeffs(params, spec.squeeze, t)
            # spec.n is 0 for a coherent state, and spec.q_c, spec.p_c 0
            # for a number state.
            sigma = math.sqrt(2 * spec.n + 1) / (coeffs.A * math.sqrt(2.0))
            half = 0.5 * (grid.q_max - grid.q_min)
            # A number state's momentum spread (of |psi|, without the
            # chirp) is (n + 1/2)/sigma.
            k_max = 2.0 * abs(coeffs.B.imag) * half + 10.0 * (spec.n + 0.5) / sigma
            k_max += abs(spec.p_c) / params.hbar
            assert k_max * grid.dq <= math.pi
            assert grid.q_min <= spec.q_c - 10.0 * sigma
            assert grid.q_max >= spec.q_c + 10.0 * sigma
            assert grid.n_points <= CHECK_MAX_POINTS


def test_check_grid_point_count_is_capped():
    params = make_params(1.0, 2.0 * 0.99999, 1.0, 1.0)
    spec = StateSpec.number(4, SqueezeParams(1.5, 1.0))
    assert _check_grid(params, spec, 0.3).n_points == CHECK_MAX_POINTS


def _counted(monkeypatch, name: str) -> list:
    """Replace ``oracle.<name>`` with a wrapper that records each call's
    arguments in the returned list."""
    calls = []
    original = getattr(oracle, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(oracle, name, counted)
    return calls


@pytest.mark.parametrize("gamma", [0.0, 1.2])
def test_validate_makes_no_make_grid_call(monkeypatch, gamma):
    # Every single-instant check takes _check_grid's grid; make_grid is the
    # grid of the CLI's wavefunction table only.
    calls = _counted(monkeypatch, "make_grid")
    assert validate(make_params(1.0, gamma, 1.0, 1.0)).all_passed
    assert calls == []


def test_check_grid_evaluates_the_gaussian_coefficients_once(monkeypatch):
    calls = _counted(monkeypatch, "gauss_coeffs")
    for spec in (
        StateSpec.number(3, SqueezeParams(0.6, 1.0)),
        StateSpec.coherent(1.0, -0.5, SqueezeParams(0.7, 2.0)),
    ):
        calls.clear()
        _check_grid(P_DAMPED, spec, 0.8)
        assert len(calls) == 1


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
        coeffs = gauss_coeffs(P_STAR, NO_SQUEEZE, tt)
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

        psi = psi_at(0.9, factor)
        hpsi = _apply_hamiltonian(P_STAR, psi, grid, 0.9)
        delta = 1e-4 * P_STAR.hbar * np.linalg.norm(psi) / np.linalg.norm(hpsi)
        dpsi_dt = (16.0 * d4(delta / 2.0) - d4(delta)) / 15.0
        return float(
            np.linalg.norm(1j * P_STAR.hbar * dpsi_dt - hpsi) / np.linalg.norm(hpsi)
        )

    assert residual_for(1.0) < 1e-6
    assert residual_for(1.01) > 1e-3


def _nine_sample_residual(params, spec, t, grid):
    """schrodinger_residual with its two stencils sampled apart, 1 + 4 + 4
    samples: the reference for the shared-sample stencil."""
    q = grid.points()

    def psi_at(tt):
        state = spec
        if spec.kind == "coherent":
            q_c, p_c, _ = coherent_trajectory(params, spec.q_c, spec.p_c, t, tt)
            state = StateSpec.coherent(q_c, p_c, spec.squeeze)
        return _sample(params, state, tt, q, False)

    def d4(h):
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
    dpsi_dt = (16.0 * d4(delta / 2.0) - d4(delta)) / 15.0
    return float(np.linalg.norm(1j * params.hbar * dpsi_dt - hpsi) / hpsi_norm)


@pytest.mark.parametrize(
    "spec, t",
    [
        (StateSpec.number(2, SqueezeParams(0.5, 1.0)), 0.8),
        (StateSpec.coherent(-2.0, 1.5, SqueezeParams(0.3, 4.0)), 1.9),
    ],
    ids=["number", "coherent"],
)
def test_residual_samples_seven_stencil_times_once(monkeypatch, spec, t):
    grid = _check_grid(P_STAR, spec, t)
    reference = _nine_sample_residual(P_STAR, spec, t, grid)
    calls = _counted(monkeypatch, "_sample")
    assert schrodinger_residual(P_STAR, spec, t, grid).hex() == reference.hex()
    assert len(calls) == 7


# gamma/(2 omega0) = 0.965, a drawn point where the coherent (-2, 1.5) entry
# turns its phase fastest.
P_DAMPED_965 = make_params(
    m0=1.0678095464283202, gamma=3.61395078915318,
    omega0=1.8733478849413852, hbar=1.103930756419824,
)


@pytest.mark.parametrize(
    "params",
    [
        P_DAMPED_965,
        make_params(
            m0=1.2791164400927502, gamma=3.1010318641584855,
            omega0=1.5997950009066826, hbar=0.7045252258459043,
        ),
    ],
    ids=["0.965", "0.969"],
)
def test_residual_step_follows_the_state(params):
    # The coherent entry at (-2, 1.5) turns its phase about 1e4 times faster
    # than omega here: a step fixed at 1e-4/omega left residuals of 8e-5 and
    # 1e-3, over the 1e-5 tolerance.
    schedule = tuple(c for c in default_schedule(params) if c.name == "residual")
    report = validate(params, schedule=schedule)
    assert report.summary == {"total": 5, "passed": 5, "failed": 0, "skipped": 0}


def test_residual_refuses_a_stencil_step_that_is_no_number():
    # The negative control's coherent state overflows here, so ||psi|| and
    # ||H psi|| are no numbers and neither is the stencil step; the residual
    # says so before it samples the path at a nan time.
    schedule = (Check("residual", ("coherent", -2.0, 1.5, 0.3, 4.0, 1.9)),)
    (entry,) = validate(P_DAMPED_965, schedule=schedule, flip_b_sign=True).entries
    assert not entry.passed
    assert entry.reason.startswith(
        "ArithmeticError: residual stencil step nan is not finite and positive"
    )


# ---------------------------------------------------------------- propagation


def test_cn_round_trip_fidelity():
    period = math.pi / P_STAR.omega
    half = 1.2 * 10.0 * math.sqrt(0.625)
    grid = GridSpec(-half, half, 8193)
    Q = grid.points()
    psi0 = _in_frame(P_STAR, GROUND, 0.0, Q)
    evolved = crank_nicolson_evolve(_frame_params(P_STAR), psi0, grid, 0.0, period, 250)
    ref = _in_frame(P_STAR, GROUND, period, Q)
    overlap = complex(simpson(ref.conjugate() * evolved, dx=grid.dq))
    assert abs(1.0 - abs(overlap) ** 2) < 1e-6
    drift = abs(
        float(simpson(np.abs(evolved) ** 2, dx=grid.dq))
        - float(simpson(np.abs(psi0) ** 2, dx=grid.dq))
    )
    assert drift < 1e-8


@pytest.fixture
def cn_step_counts(monkeypatch):
    """The step counts of every crank_nicolson_evolve call the oracle makes."""
    counts = []
    evolve = oracle.crank_nicolson_evolve

    def recording(params, psi0, grid, t0, t1, n_steps):
        counts.append(n_steps)
        return evolve(params, psi0, grid, t0, t1, n_steps)

    monkeypatch.setattr(oracle, "crank_nicolson_evolve", recording)
    return counts


def _floor_steps(params):
    """The propagator's least step count over the cross-check's window."""
    t1 = CN_PERIODS * math.pi / params.omega
    return math.ceil(oracle._step_floor(_frame_params(params), 0.0, t1))


def test_cn_fourth_order_in_time():
    # The fidelity deficit is the squared orthogonal error, so halving dt
    # divides it by about 2^8 = 256; a second-order step gives 16.  The
    # 1.37-period window takes 100 and 200 steps per period.  The squeezed
    # ground state reads near the deficit's rounding floor (~1e-13) there,
    # so the state is the n = 8 number state at r = 1.5, whose time error
    # is larger, on twice the cross-check's box (observed 3.2e-10 ->
    # 1.1e-12, 300x).
    squeeze = SqueezeParams(1.5, 1.0)
    spec = StateSpec.number(8, squeeze)
    t1 = CN_PERIODS * math.pi / P_STAR.omega
    box = _cn_grid(P_STAR, squeeze)
    grid = GridSpec(2.0 * box.q_min, 2.0 * box.q_max, 4097)
    Q = grid.points()
    phi0 = _in_frame(P_STAR, spec, 0.0, Q)
    ref = _in_frame(P_STAR, spec, t1, Q)
    deficits = []
    for n_steps in (137, 274):
        evolved = crank_nicolson_evolve(_frame_params(P_STAR), phi0, grid, 0.0, t1, n_steps)
        overlap = complex(simpson(ref.conjugate() * evolved, dx=grid.dq))
        deficits.append(abs(1.0 - abs(overlap) ** 2))
    assert deficits[0] / deficits[1] > 128.0
    assert deficits[1] < 1e-7


def test_cn_matches_the_exact_exponential_of_its_generator():
    # Against exp(-i t H) of the dense spectral Hamiltonian of the 512
    # periodic samples, H = F^-1 diag(k^2/2) F + diag(q^2/2), whose kinetic
    # and potential parts the split steps exponentiate exactly, so no
    # spatial error enters: the splitting error alone falls as dt^4
    # (observed 16.0x per halving, 3.0e-7 at 50 steps), and every factor
    # is unitary, so the norm holds at every step count.  H is Hermitian,
    # so its exponential is taken by eigendecomposition.  A moving packet
    # keeps the time error above the box's own content in the stiff modes.
    from scipy.linalg import eigh

    params = make_params(1.0, 0.0, 1.0, 1.0)
    grid = GridSpec(-8.0, 8.0, 513)
    q = grid.points()
    k = np.fft.fftfreq(q.size - 1, d=grid.dq / (2.0 * math.pi))
    kinetic = np.fft.ifft(0.5 * k[:, None] ** 2 * np.fft.fft(np.eye(k.size), axis=0), axis=0)
    energies, modes = eigh(kinetic + np.diag(0.5 * q[:-1] ** 2))
    psi0 = math.pi**-0.25 * np.exp(-0.5 * q * q + 2j * q)
    t1 = 0.5 * math.pi
    exact = modes @ (np.exp(-1j * t1 * energies) * (modes.conj().T @ psi0[:-1]))
    # Relative errors in the Euclidean norm of the periodic samples, which
    # a unitary step keeps.
    norm0 = np.linalg.norm(psi0[:-1])
    errors = []
    for n_steps in (50, 100, 200):
        evolved = crank_nicolson_evolve(params, psi0, grid, 0.0, t1, n_steps)
        assert evolved[-1] == evolved[0]
        errors.append(np.linalg.norm(evolved[:-1] - exact) / norm0)
        assert abs(np.linalg.norm(evolved[:-1]) / norm0 - 1.0) < 1e-13
    assert errors[0] < 1e-6
    for coarse, fine in zip(errors, errors[1:]):
        assert 12.0 < coarse / fine < 20.0


def test_cn_grid_sized_from_narrowest_spread():
    # In the frame Q = e^{gamma t/2} q the spreads range over e^{2r}
    # whatever the damping, so the point count depends on r alone:
    # ceil(24 * 4 * e^{2r}), from 257 sampled spreads, rounded up to
    # 2^k + 1, at least 513 and at most CN_MAX_POINTS.
    for gamma in (0.0, 1.2, 1.8, 1.95):
        params = make_params(1.0, gamma, 1.0, 1.0)
        assert _cn_grid(params, SqueezeParams(0.0, 1.0)).n_points == 513
        assert _cn_grid(params, SqueezeParams(0.5, 1.0)).n_points == 513
        assert _cn_grid(params, SqueezeParams(1.0, 1.0)).n_points == 1025
        assert _cn_grid(params, SqueezeParams(2.0, 1.0)).n_points == 8193
        assert _cn_grid(params, SqueezeParams(3.0, 1.0)).n_points == CN_MAX_POINTS
    assert CN_MAX_POINTS == 32769


def test_cn_frame_resolves_strong_damping():
    # In q the packet narrows about 650x (gamma/(2 omega0) = 0.9) and
    # 1e6x (0.975) within a period; in the frame it keeps its width, so
    # the deficit stays at the undamped level: the 137 steps over the
    # 1.37-period window give at most 1.1e-14 at each damping.
    squeeze = SqueezeParams(0.5, 1.0)
    for gamma in (0.0, 1.8, 1.95):
        deficit, drift = cn_cross_check(make_params(1.0, gamma, 1.0, 1.0), squeeze)
        assert deficit < 1e-10
        assert drift < 1e-11


def test_cn_larger_squeeze_passes_with_more_steps(cn_step_counts):
    # The grid grows with e^{2r}, and the split scheme's time error slowly:
    # at r = 1.5 (2049 points) the floor of 100 steps per period reads
    # 4.4e-12.
    squeeze = SqueezeParams(1.5, 1.0)
    deficit, drift = cn_cross_check(P_STAR, squeeze)
    assert cn_step_counts == [_floor_steps(P_STAR)]
    assert deficit < ToleranceConfig().cn_fidelity
    assert drift < ToleranceConfig().cn_norm_drift


def test_cn_strongest_squeeze_passes_on_the_capped_grid():
    # r = 3 on 32769 points, the cap, reads 1.8e-9 at the floor's 137 steps.
    deficit, drift = cn_cross_check(P_STAR, SqueezeParams(3.0, 1.0))
    assert deficit < 1e-8
    assert drift < ToleranceConfig().cn_norm_drift


@pytest.mark.parametrize("gamma", [0.0, 1.95])
@pytest.mark.parametrize("r", [0.25, 0.5, 1.0])
def test_cn_step_count_meets_its_deficit(cn_step_counts, r, gamma):
    # The cross-check takes the propagator's floor, 100 steps per period
    # (137 over the window, 138 where 1.37 periods round up), at every
    # squeeze, and that meets a 1e-11 deficit: observed at most 5.1e-13,
    # at r = 1.
    params = make_params(1.0, gamma, 1.0, 1.0)
    deficit, _ = cn_cross_check(params, SqueezeParams(r, 1.0))
    assert cn_step_counts == [_floor_steps(params)]
    assert cn_step_counts[0] in (137, 138)
    assert deficit < 1e-11


@settings(max_examples=20, deadline=None)
@given(
    m0=st.floats(math.log(0.5), math.log(2.0)).map(math.exp),
    omega0=st.floats(math.log(0.5), math.log(2.0)).map(math.exp),
    hbar=st.floats(math.log(0.5), math.log(2.0)).map(math.exp),
    damping=st.floats(0.0, 0.975),
    r=st.floats(0.0, 2.0),
    phi=st.floats(0.0, 2.0 * math.pi, exclude_max=True),
)
def test_cn_cross_check_over_the_parameter_domain(m0, omega0, hbar, damping, r, phi):
    # The benchmark's ranges, squeeze up to r = 2 (8193 points): the deficit
    # grows as e^{4r} or so and reads about 3e-11 at r = 2.
    params = make_params(m0, 2.0 * omega0 * damping, omega0, hbar)
    deficit, drift = cn_cross_check(params, SqueezeParams(r, phi))
    assert deficit < 1e-9
    assert drift < 1e-12


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
        evolved = crank_nicolson_evolve(_frame_params(params), phi0, grid, 0.0, t1, 100)
        ref = _in_frame(params, spec, t1, Q)
        overlap = complex(simpson(ref.conjugate() * evolved, dx=grid.dq))
        assert abs(1.0 - abs(overlap) ** 2) < 1e-10
        assert abs(float(simpson(np.abs(ref) ** 2, dx=grid.dq)) - 1.0) < 1e-12


def test_cn_undamped_coherent_orbit_closes():
    # One full period at gamma = 0 returns the packet to its starting
    # point.  The position mean closes to rounding (5e-13); the momentum
    # mean carries the fourth-order time error (1.2e-8 at 500 steps, 4.6e-7
    # at 200), so its gate is looser.
    params = make_params(1.0, 0.0, 1.0, 1.0)
    q_c0 = 1.131370849898476
    spec = StateSpec.coherent(q_c0, 0.0, NO_SQUEEZE)
    grid = GridSpec(-9.7, 9.7, 8193)
    psi0 = eval_coherent_state(params, spec, 0.0, grid.points())
    evolved = crank_nicolson_evolve(params, psi0, grid, 0.0, 2.0 * math.pi, 500)
    m = moments(params, evolved, grid, t=2.0 * math.pi)
    assert abs(m.q_mean - q_c0) < 1e-7
    assert abs(m.p_mean) < 1e-4
    assert abs(m.norm - 1.0) < 1e-10


def test_cn_raises_on_boundary_leak():
    # A 3-sigma box cannot contain the tails; the edge-mass monitor must
    # abort instead of silently wrapping probability round the box.
    sigma = math.sqrt(0.625)
    grid = GridSpec(-3.0 * sigma, 3.0 * sigma, 513)
    psi0 = _in_frame(P_STAR, GROUND, 0.0, grid.points())
    with pytest.raises(BoundaryLeakError, match=r"at t=0\.000000;"):
        crank_nicolson_evolve(_frame_params(P_STAR), psi0, grid, 0.0, 0.1, 40)


def test_cn_catches_a_packet_boosted_across_the_seam():
    # The box is periodic, so a packet whose orbit (amplitude 10) leaves
    # [-6, 6] would come back in through the far side.  Its centre reaches
    # the seam at t = asin(0.6) = 0.6435; the guard must stop it earlier,
    # when its front carries mass onto the edge samples.
    params = make_params(1.0, 0.0, 1.0, 1.0)
    grid = GridSpec(-6.0, 6.0, 1025)
    psi0 = eval_coherent_state(params, StateSpec.coherent(0.0, 10.0, NO_SQUEEZE), 0.0, grid.points())
    with pytest.raises(BoundaryLeakError) as excinfo:
        crank_nicolson_evolve(params, psi0, grid, 0.0, 1.0, 400)
    t_leak = float(excinfo.value.args[0].rpartition("t=")[2].partition(";")[0])
    assert 0.0 < t_leak < math.asin(0.6)
    # Unguarded, the same steps carry the packet round: at t = 1 its orbit
    # is at 10 sin 1 = 8.4, which the box shows at 8.4 - 12 = -3.6.
    for psi, _ in _per_step_cn(params, psi0, grid, 0.0, 1.0, 400):
        pass
    density = np.abs(psi) ** 2
    assert simpson(density * (grid.points() < 0.0), dx=grid.dq) > 0.99


def test_cn_rejects_coarse_stepping():
    params = _frame_params(P_STAR)
    grid = GridSpec(-8.0, 8.0, 513)
    psi0 = eval_number_state(params, GROUND, 0.0, grid.points())
    with pytest.raises(ValueError, match="below 100 per period"):
        crank_nicolson_evolve(params, psi0, grid, 0.0, 0.5, 10)
    with pytest.raises(ValueError, match="t1 > t0"):
        crank_nicolson_evolve(params, psi0, grid, 0.5, 0.5, 100)


def test_cn_accepts_the_ceiling_of_its_step_floor():
    params = _frame_params(P_STAR)
    grid = GridSpec(-8.0, 8.0, 513)
    psi0 = eval_number_state(params, GROUND, 0.0, grid.points())
    floor = 100.0 * 0.5 / (math.pi / params.omega)
    ceiling = math.ceil(floor)
    assert ceiling > floor
    crank_nicolson_evolve(params, psi0, grid, 0.0, 0.5, ceiling)
    with pytest.raises(ValueError, match="below 100 per period"):
        crank_nicolson_evolve(params, psi0, grid, 0.0, 0.5, ceiling - 1)


@pytest.mark.parametrize("t0, t1", [(-1e308, 1e308), (0.0, 1e306), (0.0, 1e307)])
def test_cn_rejects_a_finite_window_whose_step_floor_overflows(t0, t1):
    # 100 (t1 - t0)/period is inf for the first and last windows, whose
    # ceiling is no integer, and about 2.5e307 for the middle one.
    params = _frame_params(P_STAR)
    grid = GridSpec(-8.0, 8.0, 513)
    psi0 = eval_number_state(params, GROUND, 0.0, grid.points())
    with pytest.raises(ValueError, match="below 100 per period") as excinfo:
        crank_nicolson_evolve(params, psi0, grid, t0, t1, 10**6)
    assert "\n" not in str(excinfo.value)


@pytest.mark.parametrize("t0, t1", [(0.0, math.inf), (-math.inf, 0.0)])
def test_cn_rejects_infinite_window(t0, t1):
    params = _frame_params(P_STAR)
    grid = GridSpec(-8.0, 8.0, 513)
    psi0 = eval_number_state(params, GROUND, 0.0, grid.points())
    with pytest.raises(ValueError, match="t0 and t1 must be finite"):
        crank_nicolson_evolve(params, psi0, grid, t0, t1, 1000)


def test_cn_refuses_damped_params():
    # Only the undamped frame has the constant Hamiltonian whose parts are
    # exponentiated once.
    grid = GridSpec(-8.0, 8.0, 513)
    psi0 = eval_number_state(P_STAR, GROUND, 0.0, grid.points())
    with pytest.raises(ValueError, match="gamma"):
        crank_nicolson_evolve(P_STAR, psi0, grid, 0.0, 0.5, 1000)


def _per_step_cn(params, psi0, grid, t0, t1, n_steps):
    """Reference propagation: each step is Yoshida's triple jump of Strang
    steps, its seven factors applied one at a time, the potential phases on
    the n - 1 periodic grid points and the kinetic phases between an FFT and
    its inverse.  Yields the n samples, the last the image of the first, and
    the time after each step."""
    q = grid.points()[:-1]
    dt = (t1 - t0) / n_steps
    w1 = 1.0 / (2.0 - 2.0 ** (1.0 / 3.0))
    w0 = 1.0 - 2.0 * w1
    k = np.fft.fftfreq(q.size, d=grid.dq / (2.0 * math.pi))
    potential = (-0.5j * dt * params.m0 * params.omega0**2 / params.hbar) * q * q
    kinetic = (-0.5j * dt * params.hbar / params.m0) * k * k
    half_kick_1 = np.exp(0.5 * w1 * potential)
    joint_kick = np.exp(0.5 * (w1 + w0) * potential)
    psi = np.asarray(psi0, dtype=complex)[:-1]
    for step in range(n_steps):
        psi = psi * half_kick_1
        psi = np.fft.ifft(np.fft.fft(psi) * np.exp(w1 * kinetic))
        psi = psi * joint_kick
        psi = np.fft.ifft(np.fft.fft(psi) * np.exp(w0 * kinetic))
        psi = psi * joint_kick
        psi = np.fft.ifft(np.fft.fft(psi) * np.exp(w1 * kinetic))
        psi = psi * half_kick_1
        yield np.append(psi, psi[:1]), t0 + (step + 1) * dt


def test_cn_equals_per_step_solve_banded_bit_for_bit():
    # Precomputed phases and in-place transforms must not move one bit
    # against the per-factor loop, whether the steps end inside an
    # edge-mass block, on its end or just past it.
    params = _frame_params(P_STAR)
    squeeze = SqueezeParams(0.5, 1.0)
    grid = _cn_grid(P_STAR, squeeze)
    Q = grid.points()
    phi0 = _in_frame(P_STAR, StateSpec.number(0, squeeze), 0.0, Q)
    phi0_bytes = phi0.tobytes()
    assert grid.n_points == 513
    # At least 100 steps per period in each window.
    for n_steps, periods in (
        (137, CN_PERIODS),
        (_EDGE_BLOCK - 1, 0.25),
        (_EDGE_BLOCK, 0.25),
        (_EDGE_BLOCK + 1, 0.25),
    ):
        t1 = periods * math.pi / params.omega
        for psi, _ in _per_step_cn(params, phi0, grid, 0.0, t1, n_steps):
            pass
        evolved = crank_nicolson_evolve(params, phi0, grid, 0.0, t1, n_steps)
        assert evolved.tobytes() == psi.tobytes()
        assert phi0.tobytes() == phi0_bytes
        assert not np.shares_memory(evolved, phi0)


def _first_leak(params, psi0, grid, t0, t1, n_steps):
    """Step index and message of the first leak under the per-step guard's
    formula, evaluated after every step."""
    steps = _per_step_cn(params, psi0, grid, t0, t1, n_steps)
    for k, (psi, t) in enumerate(steps):
        edge_mass = (
            float(np.sum(np.abs(psi[:5]) ** 2) + np.sum(np.abs(psi[-5:]) ** 2))
            * grid.dq
        )
        if not edge_mass <= BOUNDARY_LEAK_TOL:
            return k, (
                f"probability mass {edge_mass:.3e} within 5 points of the "
                f"boundary at t={t:.6f}; enlarge the grid"
            )
    raise AssertionError("no leak")


def test_cn_leak_reports_the_first_offending_step():
    # A coherent packet launched towards the right wall first leaks near
    # step 300, inside the second edge-mass block; the steps end in the
    # third block, or in the second when that block is the last, partial one.
    params = _frame_params(P_STAR)
    grid = GridSpec(-6.0, 6.0, 513)
    spec = StateSpec.coherent(1.0, 3.0, NO_SQUEEZE)
    psi0 = eval_coherent_state(params, spec, 0.0, grid.points())
    dt = 1.0 / 1800
    for n_steps in (2 * _EDGE_BLOCK + 100, _EDGE_BLOCK + 100):
        t1 = n_steps * dt
        first, expected = _first_leak(params, psi0, grid, 0.0, t1, n_steps)
        assert _EDGE_BLOCK < first < min(2 * _EDGE_BLOCK, n_steps) - 1
        with pytest.raises(BoundaryLeakError) as excinfo:
            crank_nicolson_evolve(params, psi0, grid, 0.0, t1, n_steps)
        assert str(excinfo.value) == expected

    # A nan sample is no mass within the tolerance.
    psi0 = eval_number_state(params, GROUND, 0.0, grid.points())
    psi0[grid.n_points // 2] = math.nan
    with pytest.raises(BoundaryLeakError, match="probability mass nan"):
        crank_nicolson_evolve(params, psi0, grid, 0.0, 0.5, 612)


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
    names = [f.name for f in fields(ToleranceConfig)]
    assert sorted(f for f in TOLERANCE_FIELD.values() if f) == sorted(names)
    # A distinct value per field, so an entry judged by another field shows.
    tolerances = replace(
        ToleranceConfig(), **{name: (k + 1) * 1e-3 for k, name in enumerate(names)}
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


def test_tolerance_config_refuses_nan_and_negative_values():
    for value in (math.nan, -1.0, -1e-300):
        with pytest.raises(ValueError, match=r"^tolerance residual must be >= 0, got"):
            replace(ToleranceConfig(), residual=value)
    # inf records without judging, and 0 fails every nonzero measurement.
    assert replace(ToleranceConfig(), residual=math.inf).residual == math.inf
    assert replace(ToleranceConfig(), residual=0.0).residual == 0.0


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


@pytest.mark.parametrize("units", [{"m0": 1e200}, {"hbar": 1e50}], ids=["m0", "hbar"])
def test_sim_wave_and_time_average_measures_are_unit_free(units):
    # sim_wave reads max|psi - psi_sho| / max|psi_sho| and the time average
    # (average - bound)/bound, so dimensionless tolerances judge them in any
    # units; in absolute terms they read 2.6e34 to 7e34 at m0 = 1e200 and
    # -1.04e34 at hbar = 1e50.
    params = make_params(**{"m0": 1.0, "gamma": 1.2, "omega0": 1.0, "hbar": 1.0, **units})
    schedule = tuple(
        c for c in default_schedule(params)
        if c.name in ("sim_wave", "time_average_lower_bound")
    )
    report = validate(params, schedule=schedule)
    assert report.summary == {"total": 7, "passed": 7, "failed": 0, "skipped": 0}


def test_validate_raising_check_fails_every_entry_of_its_kind():
    # The flipped width already leaks at t = 0, which the propagator
    # refuses before its first step; cn_fidelity reports two entries, so
    # both must record the failure.
    schedule = (Check("cn_fidelity", (0.5, 1.0)),)
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


def test_flip_b_sign_negates_width():
    # The control's ground state is e^{+B q^2}: its density grows like
    # e^{+A^2 q^2} away from q = 0, where the state's decays like e^{-A^2 q^2}.
    squeeze = SqueezeParams(0.3, 1.0)
    spec = StateSpec.number(0, squeeze)
    q = np.linspace(0.0, 4.0, 9)
    x2 = (gauss_coeffs(P_STAR, squeeze, 0.7).A * q) ** 2
    plain = _sample(P_STAR, spec, 0.7, q, False)
    assert np.array_equal(plain, eval_number_state(P_STAR, spec, 0.7, q))
    with np.errstate(over="ignore", invalid="ignore"):
        flipped = _sample(P_STAR, spec, 0.7, q, True)
    assert x2[-1] > 10.0
    for psi, sign in ((plain, -1.0), (flipped, 1.0)):
        density = np.abs(psi) ** 2
        np.testing.assert_allclose(density / density[0], np.exp(sign * x2), rtol=1e-12)


def test_flip_control_passes_only_the_width_blind_checks():
    # Wronskians and period averages read no sampled state, and the
    # Bogoliubov identity holds for any psi; every other entry must turn red.
    report = validate(P_STAR, flip_b_sign=True)
    green = Counter(e.check_name for e in report.entries if e.passed)
    assert green == {
        "wronskian": 9,
        "time_average_lower_bound": 4,
        "time_average_closed_form_gap": 3,
        "ladder_bogoliubov": 1,
    }
    assert report.summary == {"total": 88, "passed": 17, "failed": 71, "skipped": 0}


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


def test_report_json_writes_expected_zero_and_version():
    # Neither is stored in the report; to_json writes both, for passed,
    # skipped and failed entries alike.
    first = {}
    for check in default_schedule(P_STAR):
        first.setdefault(check.name, check)
    flipped = validate(
        P_STAR, schedule=(Check("normalization", ("number", 1, 0.5, 1.0, 0.3)),),
        flip_b_sign=True,
    )
    assert not flipped.all_passed
    skipped = validate(make_params(1.0, 0.0, 1.0, 1.0), schedule=(Check("sim_wave", (1,)),))
    for report in (validate(P_STAR, schedule=tuple(first.values())), skipped, flipped):
        text = report.to_json()
        payload = json.loads(text)
        assert payload["version"] == "0.1.0" == REPORT_VERSION
        assert len(payload["entries"]) == len(report.entries) > 0
        assert text.count('"expected": 0, ') == len(report.entries)
        for entry in payload["entries"]:
            assert type(entry["expected"]) is int and entry["expected"] == 0


def test_report_table_footer():
    report = validate(P_STAR, schedule=(Check("wronskian", (0.0, 0.0, 0.0)),))
    lines = report.to_table().splitlines()
    assert lines[-1].split() == ["total", "1", "passed", "1", "failed", "0", "skipped", "0"]
