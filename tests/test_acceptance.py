"""Acceptance gates: one test and one printed verdict line per contract.

Each test prints ``PASS``/``FAIL`` with the measured figure so a verbose
run doubles as a summary table.  The lower-bound gate checks the tight
floor F of the squeezed product: (hbar/2)(2n + 1) once tanh 2r >=
gamma/(2 omega0), else (hbar/2) sigma0 (cosh 2r - (gamma/2 omega0) sinh 2r)
(2n + 1).  The damped value (hbar/2) sigma0 is attained at r = 0; squeezed
states dip below it, and the gate confirms the dip by quadrature.
"""

import cmath
import json
import math
import time

import numpy as np
from scipy.integrate import simpson

from ckstates import oracle
from ckstates.cli import main as cli_main
from ckstates.modes import (
    ModeValue,
    PhysicalParams,
    SqueezeParams,
    make_params,
    mode_u_rphi,
    special_squeeze,
    squeeze_from_mode,
    wronskian,
)
from ckstates.observables import (
    hamiltonian_expectation,
    sigma0,
    theta_gamma,
    uncertainty_product,
    uncertainty_time_avg,
)
from ckstates.states import (
    StateSpec,
    eval_coherent_state,
    eval_number_state,
    gauss_coeffs,
    hermite,
)
from ckstates.oracle import (
    apply_annihilation,
    apply_creation,
    cn_cross_check,
    default_schedule,
    make_grid,
    moments,
    schrodinger_residual,
    _cn_grid,
    _eigenvalue_path,
    _l2,
    _sample,
)

RNG_SEED = 20260813
P_STAR = make_params(1.0, 1.2, 1.0, 1.0)
NO_SQUEEZE = SqueezeParams(0.0, 0.0)

# Documented property lattice for bound and minimization sweeps.
LATTICE_GAMMAS = (0.0, 0.4, 1.2, 1.8)
LATTICE_R = (0.0, 0.25, 0.5, 1.0, 2.0)
LATTICE_PHI = (0.0, math.pi / 4.0, 1.0, math.pi, 5.0)


def _verdict(name: str, ok: bool, detail: str) -> bool:
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    return ok


def test_01_wronskian_invariance():
    rng = np.random.default_rng(RNG_SEED)
    worst = 0.0
    for _ in range(200):
        gamma = float(rng.uniform(0.0, 1.9))
        r = float(rng.uniform(0.0, 3.0))
        phi = float(rng.uniform(0.0, 2.0 * math.pi))
        t = float(rng.uniform(0.0, 10.0))
        params = make_params(1.0, gamma, 1.0, 1.0)
        mode = mode_u_rphi(params, SqueezeParams(r, phi), t)
        worst = max(worst, abs(wronskian(params, mode) - 1j))
    ok = worst < 1e-12
    detail = f"max |W - i| = {worst:.3e} over 200 random modes (tol 1e-12)"
    assert _verdict("wronskian invariance", ok, detail), detail


def test_02_product_constancy_at_reference_point():
    period = math.pi / P_STAR.omega
    times = np.linspace(0.0, 2.0 * period, 64, endpoint=False)
    products = [
        uncertainty_product(P_STAR, 0, NO_SQUEEZE, float(t)).product for t in times
    ]
    deviation = max(abs(p - 0.625) for p in products)
    half = theta_gamma(P_STAR) / 2.0
    forms_gap = abs(
        1.0 / math.cos(half)
        - 1.0 / math.sqrt(1.0 - P_STAR.gamma**2 / (4.0 * P_STAR.omega0**2))
    )
    floor = 0.5 * P_STAR.hbar * sigma0(P_STAR)
    ok = deviation < 1e-10 and forms_gap < 1e-12 and abs(floor - 0.625) < 1e-15
    detail = (
        f"max |product - 0.625| = {deviation:.3e} at 64 times (tol 1e-10); "
        f"sigma0 closed forms differ by {forms_gap:.3e} (tol 1e-12)"
    )
    assert _verdict("unsqueezed product constancy", ok, detail), detail


def _tight_floor(params: PhysicalParams, r: float) -> float:
    """min over t of dq dp for n = 0, from gamma, omega0, hbar and r alone.

    With k = sin(theta_gamma/2) = gamma/(2 omega0), sigma0 = (1 - k^2)^{-1/2}
    and z = sin(2 omega t + phi + theta_gamma/2), the bracket product is
    1 - k^2 + (z sinh 2r + k cosh 2r)^2.  Over z in [-1, 1] it reaches
    1 - k^2 when tanh 2r >= k, giving the Heisenberg value hbar/2;
    otherwise its minimum sits at z = -1 and equals (cosh 2r - k sinh 2r)^2.
    Higher n scale the floor by 2n + 1.
    """
    k = params.gamma / (2.0 * params.omega0)
    c2, s2 = math.cosh(2.0 * r), math.sinh(2.0 * r)
    scale = 1.0 if math.tanh(2.0 * r) >= k else (c2 - k * s2) / math.sqrt(1.0 - k * k)
    return 0.5 * params.hbar * scale


def test_03_damped_floor_as_lower_bound():
    # The true floor F of the squeezed product is (a) a lower bound at every
    # lattice sample and (b) met by the sampled minimum of each (gamma, r);
    # (c) at r = 0 the product equals the damped floor (hbar/2) sigma0; and
    # (d) the quadrature oracle confirms the dip below (hbar/2) sigma0 at the
    # deepest sample.  Ratios are independent of n, so n = 0 decides them.
    worst_bound = math.inf
    worst_tightness = 0.0
    worst_equality = 0.0
    worst_ratio = math.inf
    witness = None
    for gamma in LATTICE_GAMMAS:
        params = make_params(1.0, gamma, 1.0, 1.0)
        damped = 0.5 * params.hbar * sigma0(params)
        period = math.pi / params.omega
        for r in LATTICE_R:
            floor = _tight_floor(params, r)
            lowest = math.inf
            for phi in LATTICE_PHI:
                squeeze = SqueezeParams(r, phi)
                for t in np.linspace(0.0, period, 32, endpoint=False):
                    product = uncertainty_product(params, 0, squeeze, float(t)).product
                    worst_bound = min(worst_bound, product / floor - 1.0)
                    lowest = min(lowest, product)
                    if r == 0.0:
                        worst_equality = max(worst_equality, abs(product / damped - 1.0))
                    if product / damped < worst_ratio:
                        worst_ratio = product / damped
                        witness = (params, squeeze, float(t), product, damped)
            worst_tightness = max(worst_tightness, lowest / floor - 1.0)
    params, squeeze, t, closed, damped = witness
    spec = StateSpec.number(0, squeeze)
    grid = make_grid(params, spec, t, n_points=65537)
    m = moments(params, eval_number_state(params, spec, t, grid.points()), grid, t=t)
    quad = math.sqrt(m.q2 - m.q_mean**2) * math.sqrt(m.p2 - m.p_mean**2)
    oracle_gap = abs(quad - closed) / closed
    ok = (
        worst_bound >= -1e-12
        and worst_tightness < 1e-3
        and worst_equality < 1e-12
        and oracle_gap < 1e-8
        and quad < damped
    )
    detail = (
        f"min product / F - 1 = {worst_bound:.1e} (tol -1e-12), max sampled "
        f"minimum / F - 1 = {worst_tightness:.1e} (tol 1e-3), r=0 gap to "
        f"(hbar/2) sigma0 = {worst_equality:.1e} (tol 1e-12); min product / "
        f"((hbar/2) sigma0) = {worst_ratio:.6f} at gamma={params.gamma}, "
        f"r={squeeze.r}, phi={squeeze.phi:.4f}, t={t:.4f}, where quadrature "
        f"gives {quad:.11f} (gap {oracle_gap:.1e}, tol 1e-8) below "
        f"(hbar/2) sigma0 = {damped:.4f}"
    )
    assert _verdict("damped floor as lower bound", ok, detail), detail


def test_04_closed_form_vs_quadrature_products():
    start = time.perf_counter()
    worst = 0.0
    for n in (0, 1, 2, 4):
        for r in (0.0, 0.5, 1.5):
            squeeze = SqueezeParams(r, 0.9)
            spec = StateSpec.number(n, squeeze)
            for t in (0.2, 1.0, 2.4):
                grid = make_grid(P_STAR, spec, t, n_points=65537)
                psi = eval_number_state(P_STAR, spec, t, grid.points())
                m = moments(P_STAR, psi, grid, t=t)
                quad = math.sqrt(m.q2 - m.q_mean**2) * math.sqrt(m.p2 - m.p_mean**2)
                closed = uncertainty_product(P_STAR, n, squeeze, t).product
                worst = max(worst, abs(closed - quad) / closed)
    elapsed = time.perf_counter() - start
    ok = worst < 1e-8 and elapsed < 30.0
    detail = (
        f"max relative gap = {worst:.3e} over 36 states (tol 1e-8), "
        f"{elapsed:.1f} s (limit 30 s)"
    )
    assert _verdict("closed form vs quadrature", ok, detail), detail


def test_05_schrodinger_residuals():
    number_points = (
        (0, 0.0, 0.0, 0.9),
        (1, 0.7, 2.1, 0.9),
        (2, 0.3, 4.0, 1.7),
        (3, 1.0, 1.0, 0.5),
        (4, 1.2, 5.5, 2.3),
    )
    worst = 0.0
    for n, r, phi, t in number_points:
        spec = StateSpec.number(n, SqueezeParams(r, phi))
        grid = make_grid(P_STAR, spec, t, n_points=4097)
        worst = max(worst, schrodinger_residual(P_STAR, spec, t, grid))
    for q_c, p_c, r, phi, t in (
        (1.2, -0.7, 0.3, 5.5, 1.1),
        (-0.8, 1.5, 0.8, 2.0, 0.6),
    ):
        spec = StateSpec.coherent(q_c, p_c, SqueezeParams(r, phi))
        grid = make_grid(P_STAR, spec, t, n_points=4097)
        worst = max(worst, schrodinger_residual(P_STAR, spec, t, grid))
    ok = worst < 1e-5
    detail = f"max relative residual = {worst:.3e} at 7 states (tol 1e-5)"
    assert _verdict("equation-of-motion residuals", ok, detail), detail


def test_06_crank_nicolson_cross_check(monkeypatch):
    # At the default schedule's squeeze, which validate runs; the check
    # takes the propagator's floor of 100 steps per period, recorded here
    # to be printed with the grid.
    (args,) = [c.args for c in default_schedule(P_STAR) if c.name == "cn_fidelity"]
    squeeze = SqueezeParams(*args)
    steps = []
    evolve = oracle.crank_nicolson_evolve

    def recording(params, psi0, grid, t0, t1, n_steps):
        steps.append(n_steps)
        return evolve(params, psi0, grid, t0, t1, n_steps)

    monkeypatch.setattr(oracle, "crank_nicolson_evolve", recording)
    start = time.perf_counter()
    deficit, drift = cn_cross_check(P_STAR, squeeze)
    elapsed = time.perf_counter() - start
    (n_steps,) = steps
    ok = deficit <= 1e-6 and drift < 1e-8 and elapsed < 60.0
    detail = (
        f"fidelity deficit = {deficit:.3e} (tol 1e-6), norm drift = "
        f"{drift:.3e} (tol 1e-8), {_cn_grid(P_STAR, squeeze).n_points} points, "
        f"{n_steps} steps, "
        f"{elapsed:.1f} s (limit 60 s)"
    )
    assert _verdict("grid evolution cross-check", ok, detail), detail


def test_07_simple_harmonic_initial_condition():
    # At t = 0 with the special squeeze the state is the static oscillator
    # eigenfunction at the shifted frequency omega, times the constant
    # phase exp(-i arctan(gamma / 4 omega) (n + 1/2)).
    squeeze = special_squeeze(P_STAR)
    a0 = math.sqrt(P_STAR.m0 * P_STAR.omega / P_STAR.hbar)
    worst = 0.0
    for n in (0, 1, 2):
        spec = StateSpec.number(n, squeeze)
        grid = make_grid(P_STAR, spec, 0.0, n_points=4097)
        q = grid.points()
        psi = eval_number_state(P_STAR, spec, 0.0, q)
        sho = (
            (2.0**n * math.factorial(n)) ** -0.5
            * (a0 / math.sqrt(math.pi)) ** 0.5
            * hermite(n, a0 * q)
            * np.exp(-0.5 * a0**2 * q**2)
        )
        phase = np.exp(
            -1j * math.atan(P_STAR.gamma / (4.0 * P_STAR.omega)) * (n + 0.5)
        )
        worst = max(worst, float(np.max(np.abs(psi - phase * sho))))
    ok = worst < 1e-9
    detail = (
        f"max pointwise gap to phased oscillator eigenfunctions = "
        f"{worst:.3e} for n in 0..2 (tol 1e-9)"
    )
    assert _verdict("static-oscillator initial condition", ok, detail), detail


def test_08_ladder_algebra():
    squeeze = SqueezeParams(0.8, 2.0)
    grid = make_grid(P_STAR, StateSpec.number(4, squeeze), 0.4, n_points=8193)
    q = grid.points()
    states = [
        eval_number_state(P_STAR, StateSpec.number(k, squeeze), 0.4, q)
        for k in range(5)
    ]
    vacuum = _l2(apply_annihilation(P_STAR, squeeze, 0.4, states[0], grid), grid.dq)
    worst_step = 0.0
    for n in (1, 2, 3, 4):
        lowered = apply_annihilation(P_STAR, squeeze, 0.4, states[n], grid)
        worst_step = max(
            worst_step, _l2(lowered - math.sqrt(n) * states[n - 1], grid.dq)
        )
    probe = eval_number_state(
        P_STAR, StateSpec.number(2, SqueezeParams(0.3, 0.7)), 0.4, q
    )
    mixed = SqueezeParams(0.3, 0.7)
    lhs = apply_annihilation(P_STAR, mixed, 0.4, probe, grid)
    rhs = mixed.mu.conjugate() * apply_annihilation(
        P_STAR, NO_SQUEEZE, 0.4, probe, grid
    ) - mixed.nu.conjugate() * apply_creation(P_STAR, NO_SQUEEZE, 0.4, probe, grid)
    bogo = _l2(lhs - rhs, grid.dq)
    ok = vacuum < 1e-6 and worst_step < 1e-5 and bogo < 1e-6
    detail = (
        f"|a psi_0| = {vacuum:.3e} (tol 1e-6), max step defect = "
        f"{worst_step:.3e} (tol 1e-5), mixing identity = {bogo:.3e} (tol 1e-6)"
    )
    assert _verdict("ladder algebra", ok, detail), detail


def test_09_coherent_state_contracts():
    rng = np.random.default_rng(RNG_SEED)
    worst_mean = 0.0
    worst_product = 0.0
    for _ in range(10):
        alpha = complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))
        r = float(rng.uniform(0.0, 1.2))
        phi = float(rng.uniform(0.0, 2.0 * math.pi))
        t = float(rng.uniform(0.0, 3.0))
        squeeze = SqueezeParams(r, phi)
        q_c, p_c = _eigenvalue_path(P_STAR, squeeze, alpha, t)
        spec = StateSpec.coherent(q_c, p_c, squeeze)
        grid = make_grid(P_STAR, spec, t, n_points=16385)
        psi = eval_coherent_state(P_STAR, spec, t, grid.points())
        m = moments(P_STAR, psi, grid, t=t)
        scale = max(1.0, abs(q_c), abs(p_c))
        worst_mean = max(
            worst_mean, abs(m.q_mean - q_c) / scale, abs(m.p_mean - p_c) / scale
        )
        coeffs = gauss_coeffs(P_STAR, squeeze, t)
        width_product = (
            P_STAR.hbar * abs(coeffs.B) / (2.0 * coeffs.B.real)
        )
        ground = uncertainty_product(P_STAR, 0, squeeze, t).product
        worst_product = max(worst_product, abs(width_product - ground))
    ok = worst_mean < 1e-8 and worst_product < 1e-9
    detail = (
        f"max scaled first-moment gap = {worst_mean:.3e} (tol 1e-8), max "
        f"uncertainty gap to the n=0 state = {worst_product:.3e} (tol 1e-9) "
        f"at 10 random points"
    )
    assert _verdict("coherent-state contracts", ok, detail), detail


def test_10_energy_expectation():
    rng = np.random.default_rng(RNG_SEED)
    worst = 0.0
    for _ in range(10):
        n = int(rng.integers(0, 3))
        r = float(rng.uniform(0.0, 1.2))
        phi = float(rng.uniform(0.0, 2.0 * math.pi))
        t = float(rng.uniform(0.0, 2.5))
        squeeze = SqueezeParams(r, phi)
        spec = StateSpec.number(n, squeeze)
        grid = make_grid(P_STAR, spec, t, n_points=65537)
        psi = eval_number_state(P_STAR, spec, t, grid.points())
        m = moments(P_STAR, psi, grid, t=t)
        closed = hamiltonian_expectation(P_STAR, n, squeeze, t)
        worst = max(worst, abs(m.energy - closed) / closed)
    period = math.pi / P_STAR.omega
    times = np.linspace(0.0, period, 513)
    best = None
    for n in (0, 1, 2):
        for r in LATTICE_R:
            avg = float(
                np.trapezoid(
                    [
                        hamiltonian_expectation(P_STAR, n, SqueezeParams(r, 0.0), float(t))
                        for t in times
                    ],
                    times,
                )
                / period
            )
            if best is None or avg < best[0]:
                best = (avg, n, r)
    ok = worst < 1e-7 and best[1] == 0 and best[2] == 0.0
    detail = (
        f"max relative energy gap = {worst:.3e} at 10 random states (tol 1e-7); "
        f"time-averaged energy minimized at n={best[1]}, r={best[2]}"
    )
    assert _verdict("energy expectation", ok, detail), detail


def test_11_time_averaged_product():
    floor = 0.5 * P_STAR.hbar * sigma0(P_STAR)
    records = {
        r: uncertainty_time_avg(P_STAR, 0, SqueezeParams(r, 0.0)) for r in (0.0, 0.25, 0.5, 1.0)
    }
    equality_gap = abs(records[0.0].numeric - floor)
    bound_ok = all(rec.numeric >= floor - 1e-9 for rec in records.values())
    gap_lines = []
    for r in (0.25, 0.5, 1.0):
        rec = records[r]
        gap_lines.append(
            f"r={r}: numeric - closed form = {rec.numeric - rec.closed_form:+.6e}"
        )
    ok = bound_ok and equality_gap < 1e-9
    detail = (
        f"averages stay above (hbar/2) sigma0 - 1e-9 with equality at r=0 "
        f"(gap {equality_gap:.1e}); recorded deviations: " + "; ".join(gap_lines)
    )
    assert _verdict("time-averaged product", ok, detail), detail


def test_12_flipped_width_negative_control(tmp_path, capsys):
    grid = make_grid(P_STAR, StateSpec.number(0, NO_SQUEEZE), 0.9, n_points=4097)
    with np.errstate(over="ignore", invalid="ignore"):
        residual = schrodinger_residual(
            P_STAR, StateSpec.number(0, NO_SQUEEZE), 0.9, grid, flip_b_sign=True
        )
        psi = _sample(P_STAR, StateSpec.number(0, NO_SQUEEZE), 0.9, grid.points(), True)
        norm = float(simpson(np.abs(psi) ** 2, dx=grid.dq))
    norm_broken = not abs(norm - 1.0) <= 1e-6
    report_path = tmp_path / "flipped.json"
    rc = cli_main(
        ["validate", "--flip-b-sign", "--format", "json", "--out", str(report_path)]
    )
    capsys.readouterr()
    payload = json.loads(report_path.read_text(encoding="utf-8"))
    ok = residual > 0.1 and norm_broken and rc == 1 and payload["summary"]["failed"] > 0
    detail = (
        f"flipped-width residual = {residual:.3f} (> 0.1), norm = {norm:.3e} "
        f"(broken), suite exit code = {rc} (want 1) with "
        f"{payload['summary']['failed']} failed checks"
    )
    assert _verdict("flipped-width negative control", ok, detail), detail


def test_13_general_gaussian_is_squeezed_state():
    # The paper's second claim: every normalizable symmetric Gaussian
    # e^{-B q^2} (Re B > 0) at a time t is a squeezed ground state.  The
    # mode it implies has A^2 = 2 Re B; in the frame, with s = e^{gamma t/2},
    # |v| = s/(A sqrt(2 hbar)) and w*/v* = 2 i hbar B/(m0 s^2); the phase
    # of v is free and becomes the state's global phase.  squeeze_from_mode
    # recovers (r, phi) and the squeezed ground state must be the
    # normalized Gaussian.
    rng = np.random.default_rng(RNG_SEED)
    worst_gap = 0.0
    worst_modulus = 0.0
    for gamma in LATTICE_GAMMAS:
        params = make_params(1.0, gamma, 1.0, 1.0)
        for _ in range(25):
            b = complex(rng.uniform(0.1, 3.0), rng.uniform(-3.0, 3.0))
            t = float(rng.uniform(0.0, 3.0))
            arg_v = float(rng.uniform(0.0, 2.0 * math.pi))
            a = math.sqrt(2.0 * b.real)
            s = math.exp(0.5 * params.gamma * t)
            v = s * cmath.exp(1j * arg_v) / (a * math.sqrt(2.0 * params.hbar))
            ratio = 2j * params.hbar * b / (params.m0 * s * s)
            w = (v.conjugate() * ratio).conjugate()
            squeeze = squeeze_from_mode(params, ModeValue(v=v, w=w, t=t))
            sigma = 1.0 / (a * math.sqrt(2.0))
            q = np.linspace(-10.0 * sigma, 10.0 * sigma, 2049)
            psi = eval_number_state(params, StateSpec.number(0, squeeze), t, q)
            gaussian = (a / math.sqrt(math.pi)) ** 0.5 * np.exp(-b * q * q)
            phase = psi[1024] / gaussian[1024]
            worst_modulus = max(worst_modulus, abs(abs(phase) - 1.0))
            gap = np.max(np.abs(psi - phase * gaussian)) / np.max(np.abs(gaussian))
            worst_gap = max(worst_gap, float(gap))
    ok = worst_gap < 1e-11 and worst_modulus < 1e-12
    detail = (
        f"max pointwise gap to e^(-B q^2) up to a global phase = {worst_gap:.3e} "
        f"(tol 1e-11), max ||phase| - 1| = {worst_modulus:.1e} (tol 1e-12) "
        f"over 100 drawn widths"
    )
    assert _verdict("general Gaussian is a squeezed state", ok, detail), detail
