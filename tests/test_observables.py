"""Closed-form observables: damping angle, uncertainty products, energies."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ckstates.modes import SqueezeParams, make_params
from ckstates.observables import (
    hamiltonian_expectation,
    sigma0,
    theta_gamma,
    uncertainty_product,
    uncertainty_time_avg,
)

P_STAR = make_params(1.0, 1.2, 1.0, 1.0)

# Documented property lattice.
LATTICE_GAMMAS = (0.0, 0.4, 1.2, 1.8)
LATTICE_R = (0.0, 0.25, 0.5, 1.0, 2.0)
LATTICE_PHI = (0.0, math.pi / 4.0, 1.0, math.pi, 5.0)


def _lattice_times(params, n_per_period=32):
    period = math.pi / params.omega
    return np.linspace(0.0, period, n_per_period, endpoint=False)


def test_theta_gamma_frozen_values():
    assert theta_gamma(P_STAR) == pytest.approx(1.2870022175865686, abs=1e-15)
    assert theta_gamma(make_params(1.0, 0.0, 1.0, 1.0)) == 0.0


@given(omega0=st.floats(1e-100, 1e100), damping=st.floats(0.0, 0.999))
@example(omega0=1.0, damping=0.0)
@settings(max_examples=200, deadline=None)
def test_theta_gamma_is_a_float_in_range(omega0, damping):
    theta = theta_gamma(make_params(1.0, 2.0 * omega0 * damping, omega0, 1.0))
    assert type(theta) is float
    assert 0.0 <= theta < math.pi


@given(gamma=st.floats(0.0, 1.9))
@settings(max_examples=60, deadline=None)
def test_sec_half_angle_is_frequency_ratio(gamma):
    params = make_params(1.0, gamma, 1.0, 1.0)
    half = theta_gamma(params) / 2.0
    assert 1.0 / math.cos(half) == pytest.approx(params.omega0 / params.omega, rel=1e-12)
    assert sigma0(params) == pytest.approx(params.omega0 / params.omega, rel=1e-12)


def test_sigma0_reference_value():
    assert sigma0(P_STAR) == pytest.approx(1.25, abs=1e-15)
    assert sigma0(make_params(1.0, 0.0, 1.0, 1.0)) == pytest.approx(1.0, abs=1e-15)


# (omega0, least 1 - k): omega0 = 1, omega0 off powers of two, and the two
# ends of the scale, where make_params refuses omega^2 below the smallest
# normal double, so the 1e-150 sweep stops at 1 - k = 1e-7.
NEAR_CRITICAL = ((1.0, 1e-16), (1.3, 1e-16), (0.7, 1e-16), (1e-150, 1e-7), (1e150, 1e-16))


@pytest.mark.parametrize("omega0, least", NEAR_CRITICAL)
def test_sigma0_and_theta_gamma_near_critical_damping_match_mpmath(omega0, least):
    # References from the definitions sigma0 = (1 - gamma^2/4 omega0^2)^{-1/2}
    # and theta_gamma = 2 asin(gamma/2 omega0), at 50 digits on the double
    # inputs; both functions must hold 4 ulp up to gamma = 2 omega0 (1 - 1e-16).
    gammas = {2.0 * omega0 * (1.0 - d) for d in np.logspace(math.log10(least), math.log10(0.3), 120)}
    checked = 0
    with mpmath.workdps(50):
        for gamma in sorted(g for g in gammas if g < 2.0 * omega0):
            params = make_params(1.0, gamma, omega0, 1.0)
            k = mpmath.mpf(gamma) / (2 * mpmath.mpf(omega0))
            for got, exact in (
                (sigma0(params), 1 / mpmath.sqrt(1 - k**2)),
                (theta_gamma(params), 2 * mpmath.asin(k)),
            ):
                assert abs(got - exact) <= 4 * math.ulp(float(exact)), (gamma, got, exact)
            checked += 1
    assert checked >= 100


def test_zero_squeeze_product_is_constant():
    sq = SqueezeParams(0.0, 0.0)
    for t in np.linspace(0.0, 4.0 * math.pi / P_STAR.omega, 64):
        rec = uncertainty_product(P_STAR, 0, sq, float(t))
        assert abs(rec.product - 0.625) < 1e-12
        assert rec.bound == pytest.approx(0.625, abs=1e-15)


@given(
    gamma=st.floats(0.0, 1.9),
    r=st.floats(0.0, 2.0),
    phi=st.floats(0.0, 2.0 * math.pi, exclude_max=True),
    t=st.floats(0.0, 6.0),
    n=st.integers(0, 8),
)
@settings(max_examples=100, deadline=None)
def test_product_scales_as_2n_plus_1(gamma, r, phi, t, n):
    params = make_params(1.0, gamma, 1.0, 1.0)
    sq = SqueezeParams(r=r, phi=phi)
    base = uncertainty_product(params, 0, sq, t)
    rec = uncertainty_product(params, n, sq, t)
    assert rec.product == pytest.approx((2 * n + 1) * base.product, rel=1e-13)


@given(
    gamma=st.floats(0.0, 1.9),
    r=st.floats(0.0, 2.0),
    phi=st.floats(0.0, 2.0 * math.pi, exclude_max=True),
    t=st.floats(0.0, 6.0),
)
@settings(max_examples=100, deadline=None)
def test_product_matches_bracket_closed_form(gamma, r, phi, t):
    # Independent transcription of the two-bracket closed form.
    params = make_params(1.0, gamma, 1.0, 1.0)
    theta = theta_gamma(params)
    arg = 2.0 * params.omega * t + phi
    c2, s2 = math.cosh(2.0 * r), math.sinh(2.0 * r)
    closed = (
        0.5
        * sigma0(params)
        * math.sqrt((c2 + s2 * math.cos(arg)) * (c2 - s2 * math.cos(arg + theta)))
    )
    rec = uncertainty_product(params, 0, SqueezeParams(r=r, phi=phi), t)
    assert rec.product == pytest.approx(closed, rel=1e-11)


def test_undamped_reduction():
    # gamma = 0: product = (hbar/2) sqrt(cosh^2 2r - sinh^2 2r cos^2(2 w t + phi)).
    params = make_params(1.0, 0.0, 1.0, 1.0)
    for r in (0.0, 0.7, 1.5):
        for t in (0.0, 0.4, 1.9):
            rec = uncertainty_product(params, 0, SqueezeParams(r, 1.0), t)
            arg = 2.0 * t + 1.0
            ref = 0.5 * math.sqrt(
                math.cosh(2 * r) ** 2 - math.sinh(2 * r) ** 2 * math.cos(arg) ** 2
            )
            assert rec.product == pytest.approx(ref, rel=1e-12)


def test_heisenberg_floor_on_lattice():
    # The unconditional floor (hbar/2)(2n+1) holds everywhere.
    for gamma in LATTICE_GAMMAS:
        params = make_params(1.0, gamma, 1.0, 1.0)
        for r in LATTICE_R:
            for phi in LATTICE_PHI:
                sq = SqueezeParams(r, phi)
                for t in _lattice_times(params):
                    rec = uncertainty_product(params, 0, sq, float(t))
                    assert rec.product >= 0.5 * (1.0 - 1e-12)


def test_squeezing_dips_below_zero_squeeze_value():
    # With damping, r > 0 states drop below (hbar/2) sigma0 at isolated
    # phases; the record reports the bound without enforcing it.
    sq = SqueezeParams(2.0, 1.0)
    ts = np.linspace(0.0, math.pi / P_STAR.omega, 512)
    ratios = [
        uncertainty_product(P_STAR, 0, sq, float(t)).product / 0.625 for t in ts
    ]
    assert min(ratios) < 0.99


def test_time_average_equality_at_zero_squeeze():
    ta = uncertainty_time_avg(P_STAR, 0, SqueezeParams(0.0, 0.0))
    assert ta.numeric == pytest.approx(0.625, abs=1e-12)
    assert ta.closed_form == pytest.approx(0.625, abs=1e-15)


def test_time_average_exceeds_zero_squeeze_value():
    for r in (0.25, 0.5, 1.0, 2.0):
        ta = uncertainty_time_avg(P_STAR, 0, SqueezeParams(r, 1.0))
        assert ta.numeric > 0.625


def test_time_average_closed_form_only_for_ground_state():
    ta = uncertainty_time_avg(P_STAR, 1, SqueezeParams(0.3, 0.0))
    assert ta.closed_form is None
    assert ta.numeric == pytest.approx(
        3.0 * uncertainty_time_avg(P_STAR, 0, SqueezeParams(0.3, 0.0)).numeric,
        rel=1e-12,
    )


def test_energy_reference_values():
    # (P*, r=0, n=0): hbar omega0^2 / (2 omega) = 0.625, constant in t.
    sq = SqueezeParams(0.0, 0.0)
    for t in (0.0, 0.7, 3.1):
        assert hamiltonian_expectation(P_STAR, 0, sq, t) == pytest.approx(
            0.625, abs=1e-13
        )
    undamped = make_params(1.0, 0.0, 1.0, 1.0)
    assert hamiltonian_expectation(undamped, 0, sq, 0.0) == pytest.approx(0.5)


@given(n=st.integers(0, 6), t=st.floats(0.0, 5.0))
@settings(max_examples=60, deadline=None)
def test_energy_scales_as_2n_plus_1(n, t):
    sq = SqueezeParams(0.8, 2.0)
    base = hamiltonian_expectation(P_STAR, 0, sq, t)
    assert hamiltonian_expectation(P_STAR, n, sq, t) == pytest.approx(
        (2 * n + 1) * base, rel=1e-13
    )


def test_time_averaged_energy_minimized_at_ground():
    period = math.pi / P_STAR.omega
    ts = np.linspace(0.0, period, 513)

    def avg_energy(n, r):
        values = [
            hamiltonian_expectation(P_STAR, n, SqueezeParams(r, 1.0), float(t))
            for t in ts
        ]
        return np.trapezoid(values, ts) / period

    reference = avg_energy(0, 0.0)
    for n in (0, 1, 2):
        for r in LATTICE_R:
            if n == 0 and r == 0.0:
                continue
            assert avg_energy(n, r) > reference


def test_index_bounds():
    sq = SqueezeParams(0.0, 0.0)
    with pytest.raises(ValueError):
        uncertainty_product(P_STAR, 33, sq, 0.0)
    with pytest.raises(ValueError):
        hamiltonian_expectation(P_STAR, -1, sq, 0.0)
