"""Wave functions: coefficients, Hermite recurrence, number and coherent states."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import eval_hermite

from ckstates.modes import SqueezeParams, make_params
from ckstates.states import (
    MAX_N,
    StateSpec,
    alpha_from_point,
    coherent_trajectory,
    eval_coherent_state,
    eval_number_state,
    gauss_coeffs,
    hermite,
)

P_STAR = make_params(1.0, 1.2, 1.0, 1.0)

gammas = st.floats(0.0, 1.9)
radii = st.floats(0.0, 2.0)
phases = st.floats(0.0, 2.0 * math.pi, exclude_max=True)
times = st.floats(0.0, 6.0)


@pytest.mark.parametrize("n", [0, 1, 2, 5, 11, 32])
def test_hermite_matches_reference(n):
    x = np.linspace(-6.0, 6.0, 201)
    ref = eval_hermite(n, x)
    ours = hermite(n, x)
    scale = np.max(np.abs(ref))
    assert np.max(np.abs(ours - ref)) < 1e-9 * scale


def test_hermite_scalar_and_bounds():
    assert hermite(3, 0.5) == pytest.approx(8 * 0.5**3 - 12 * 0.5)
    with pytest.raises(ValueError):
        hermite(MAX_N + 1, 0.0)
    with pytest.raises(ValueError):
        hermite(-1, 0.0)


@given(gamma=gammas, r=radii, phi=phases, t=times)
@settings(max_examples=80, deadline=None)
def test_normalization_identity(gamma, r, phi, t):
    # A^2 = 2 Re B ties the prefactor to the Gaussian width.
    params = make_params(1.0, gamma, 1.0, 1.0)
    coeffs = gauss_coeffs(params, SqueezeParams(r=r, phi=phi), t)
    assert coeffs.A**2 == pytest.approx(2.0 * coeffs.B.real, rel=1e-10)
    assert coeffs.B.real > 0.0


@given(gamma=gammas, r=radii, phi=phases, t=times)
@settings(max_examples=80, deadline=None)
# A subnormal phi makes the angle of u and of the bracket underflow to zero.
@example(gamma=0.0, r=1.0, phi=5e-324, t=0.0)
@example(gamma=0.0, r=1.5, phi=5e-324, t=0.0)
def test_theta_branches_agree_mod_2pi(gamma, r, phi, t):
    params = make_params(1.0, gamma, 1.0, 1.0)
    sq = SqueezeParams(r=r, phi=phi)
    principal = gauss_coeffs(params, sq, t, theta_mode="principal").theta
    continuous = gauss_coeffs(params, sq, t, theta_mode="continuous").theta
    k = (continuous - principal) / (2.0 * math.pi)
    assert abs(k - round(k)) < 1e-9


def test_continuous_theta_is_jump_free():
    sq = SqueezeParams(r=1.5, phi=2.0)
    ts = np.linspace(0.0, 12.0, 4001)
    thetas = np.array(
        [gauss_coeffs(P_STAR, sq, float(t), theta_mode="continuous").theta for t in ts]
    )
    # max slope of Theta is bounded by omega (1 + coth... ) ~ a few omega;
    # any branch jump would show up as ~2 pi across one sample.
    assert np.max(np.abs(np.diff(thetas))) < 0.1


def test_flip_b_sign_negates_width():
    coeffs = gauss_coeffs(P_STAR, SqueezeParams(0.3, 1.0), 0.7, flip_b_sign=True)
    assert coeffs.B.real < 0.0


def test_state_spec_validation():
    sq = SqueezeParams(0.0, 0.0)
    with pytest.raises(ValueError):
        StateSpec(kind="thermal", squeeze=sq)
    with pytest.raises(ValueError):
        StateSpec.number(MAX_N + 1, sq)
    with pytest.raises(ValueError):
        eval_number_state(P_STAR, StateSpec.coherent(1.0, 0.0, sq), 0.0, 0.0)
    with pytest.raises(ValueError):
        eval_coherent_state(P_STAR, StateSpec.number(0, sq), 0.0, 0.0)


@pytest.mark.parametrize("n", [0, 1, 3])
@pytest.mark.parametrize("r, phi, t", [(0.0, 0.0, 0.0), (0.8, 2.0, 1.3)])
def test_number_state_normalized(n, r, phi, t):
    spec = StateSpec.number(n, SqueezeParams(r, phi))
    coeffs = gauss_coeffs(P_STAR, spec.squeeze, t)
    half = 10.0 * math.sqrt(2 * n + 1) / coeffs.A
    q = np.linspace(-half, half, 20001)
    psi = eval_number_state(P_STAR, spec, t, q)
    norm = np.trapezoid(np.abs(psi) ** 2, q)
    assert norm == pytest.approx(1.0, abs=1e-10)


def test_number_states_orthogonal():
    sq = SqueezeParams(0.5, 1.0)
    q = np.linspace(-14.0, 14.0, 20001)
    psi1 = eval_number_state(P_STAR, StateSpec.number(1, sq), 0.9, q)
    psi3 = eval_number_state(P_STAR, StateSpec.number(3, sq), 0.9, q)
    overlap = np.trapezoid(psi1.conjugate() * psi3, q)
    assert abs(overlap) < 1e-10


def test_ground_state_peak_density():
    spec = StateSpec.number(0, SqueezeParams(0.0, 0.0))
    psi0 = eval_number_state(P_STAR, spec, 0.0, 0.0)
    # |Psi(0)|^2 = A / sqrt(pi) with A = sqrt(2 m0 omega / (2 hbar)) here.
    assert abs(psi0) ** 2 == pytest.approx(math.sqrt(0.8 / math.pi), rel=1e-14)


@given(
    gamma=gammas,
    r=radii,
    phi=phases,
    t=times,
    are=st.floats(-2.0, 2.0),
    aim=st.floats(-2.0, 2.0),
)
@settings(max_examples=80, deadline=None)
def test_trajectory_alpha_round_trip(gamma, r, phi, t, are, aim):
    params = make_params(1.0, gamma, 1.0, 1.0)
    sq = SqueezeParams(r=r, phi=phi)
    alpha = complex(are, aim)
    q_c, p_c = coherent_trajectory(params, sq, alpha, t)
    back = alpha_from_point(params, sq, q_c, p_c, t)
    assert back == pytest.approx(alpha, abs=1e-9)


def test_trajectory_damped_envelope():
    # One full mode period multiplies the trajectory by e^{-gamma T / 2}.
    sq = SqueezeParams(0.4, 2.0)
    period = 2.0 * math.pi / P_STAR.omega
    q1, p1 = coherent_trajectory(P_STAR, sq, 0.9 + 0.3j, 0.6)
    q2, _ = coherent_trajectory(P_STAR, sq, 0.9 + 0.3j, 0.6 + period)
    assert q2 == pytest.approx(q1 * math.exp(-P_STAR.gamma * period / 2.0), rel=1e-12)


def test_coherent_state_mean_position():
    sq = SqueezeParams(0.3, 1.0)
    spec = StateSpec.coherent(1.7, -0.8, sq)
    q = np.linspace(-16.0, 20.0, 30001)
    psi = eval_coherent_state(P_STAR, spec, 1.1, q)
    dens = np.abs(psi) ** 2
    assert np.trapezoid(dens, q) == pytest.approx(1.0, abs=1e-10)
    assert np.trapezoid(dens * q, q) == pytest.approx(1.7, abs=1e-9)


def test_coherent_reduces_to_ground_state_at_origin():
    sq = SqueezeParams(0.5, 2.0)
    q = np.linspace(-6.0, 6.0, 501)
    coh = eval_coherent_state(P_STAR, StateSpec.coherent(0.0, 0.0, sq), 0.8, q)
    ground = eval_number_state(P_STAR, StateSpec.number(0, sq), 0.8, q)
    assert np.max(np.abs(coh - ground)) < 1e-12
