"""Mode functions: Wronskian normalization, squeeze maps, parameter checks."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ckstates.modes import (
    ModeValue,
    NotUnderdampedError,
    SqueezeParams,
    WronskianError,
    make_params,
    mode_u0,
    mode_u_rphi,
    special_squeeze,
    squeeze_from_mode,
    wronskian,
)

P_STAR = make_params(1.0, 1.2, 1.0, 1.0)

gammas = st.floats(0.0, 1.9)
radii = st.floats(0.0, 3.0)
phases = st.floats(0.0, 2.0 * math.pi, exclude_max=True)
times = st.floats(0.0, 10.0)


def test_make_params_derives_omega():
    assert P_STAR.omega == pytest.approx(0.8, abs=1e-15)


@pytest.mark.parametrize(
    "m0, gamma, omega0, hbar",
    [(-1.0, 0.1, 1.0, 1.0), (1.0, -0.1, 1.0, 1.0), (1.0, 0.1, 0.0, 1.0), (1.0, 0.1, 1.0, 0.0)],
)
def test_make_params_rejects_bad_constants(m0, gamma, omega0, hbar):
    with pytest.raises(ValueError):
        make_params(m0, gamma, omega0, hbar)


@pytest.mark.parametrize(
    "m0, gamma, omega0, hbar",
    [
        (math.nan, 0.1, 1.0, 1.0),
        (math.inf, 0.1, 1.0, 1.0),
        (1.0, math.nan, 1.0, 1.0),
        (1.0, 0.1, math.inf, 1.0),
        (1.0, 0.1, 1.0, math.nan),
    ],
)
def test_make_params_rejects_non_finite_constants(m0, gamma, omega0, hbar):
    with pytest.raises(ValueError, match="finite"):
        make_params(m0, gamma, omega0, hbar)


@pytest.mark.parametrize(
    "omega0, gamma",
    [(1e-160, 1e-160), (1e-160, 0.0), (1e-300, 0.0), (1e-150, 2e-150 * (1.0 - 1e-10))],
)
def test_make_params_rejects_subnormal_omega_squared(omega0, gamma):
    # omega0^2 - gamma^2/4 below the smallest normal double has lost its
    # precision: at (1e-160, 1e-160) omega would be 4e-6 off.
    with pytest.raises(ValueError, match="underflows the normal double range"):
        make_params(1.0, gamma, omega0, 1.0)
    # The smallest normal omega^2 is accepted.
    assert make_params(1.0, 0.0, 1.5e-154, 1.0).omega == 1.5e-154


def test_make_params_rejects_overdamped():
    with pytest.raises(NotUnderdampedError):
        make_params(1.0, 2.0, 1.0, 1.0)
    with pytest.raises(NotUnderdampedError):
        make_params(1.0, 3.7, 1.0, 1.0)


def test_squeeze_params_wrap_and_validate():
    assert SqueezeParams(r=0.5, phi=2.0 * math.pi + 1.0).phi == pytest.approx(1.0)
    assert SqueezeParams(r=0.5, phi=-1.0).phi == pytest.approx(2.0 * math.pi - 1.0)
    with pytest.raises(ValueError):
        SqueezeParams(r=-0.1, phi=0.0)
    with pytest.raises(ValueError):
        SqueezeParams(r=0.1, phi=math.inf)
    for r in (math.nan, math.inf):
        with pytest.raises(ValueError):
            SqueezeParams(r=r, phi=0.0)


@given(r=radii, phi=phases)
@settings(max_examples=60, deadline=None)
def test_bogoliubov_normalization(r, phi):
    sq = SqueezeParams(r=r, phi=phi)
    assert abs(sq.mu) ** 2 - abs(sq.nu) ** 2 == pytest.approx(1.0, abs=1e-9)


def test_mode_u0_at_origin():
    mode = mode_u0(P_STAR, 0.0)
    assert mode.v == pytest.approx(1.0 / math.sqrt(2.0 * 0.8), abs=1e-15)
    assert mode.w == pytest.approx(complex(-0.6, -0.8) * mode.v, abs=1e-15)


@given(gamma=gammas, r=radii, phi=phases, t=times)
@settings(max_examples=150, deadline=None)
def test_wronskian_is_i(gamma, r, phi, t):
    params = make_params(1.0, gamma, 1.0, 1.0)
    mode = mode_u_rphi(params, SqueezeParams(r=r, phi=phi), t)
    assert abs(wronskian(params, mode) - 1j) < 1e-12


@given(gamma=gammas, r=st.floats(0.0, 2.5), phi=phases, t=st.floats(0.0, 6.0))
@settings(max_examples=80, deadline=None)
def test_squeeze_from_mode_round_trip(gamma, r, phi, t):
    params = make_params(1.0, gamma, 1.0, 1.0)
    sq = SqueezeParams(r=r, phi=phi)
    rec = squeeze_from_mode(params, mode_u_rphi(params, sq, t))
    assert rec.r == pytest.approx(sq.r, abs=1e-8)
    if r > 1e-6:
        # Phase distance on the circle.
        d = abs(cmath.exp(1j * rec.phi) - cmath.exp(1j * sq.phi))
        assert d < 1e-8


def test_squeeze_from_mode_gauge_at_zero_squeeze():
    rec = squeeze_from_mode(P_STAR, mode_u0(P_STAR, 1.3))
    assert rec.r == pytest.approx(0.0, abs=1e-12)
    assert rec.phi == 0.0


def test_squeeze_from_mode_rejects_denormalized_mode():
    mode = mode_u0(P_STAR, 0.7)
    bad = ModeValue(v=1.1 * mode.v, w=1.1 * mode.w, t=mode.t)
    with pytest.raises(WronskianError):
        squeeze_from_mode(P_STAR, bad)


def test_squeeze_from_mode_refuses_array_mode():
    mode = mode_u_rphi(P_STAR, SqueezeParams(0.5, 1.0), np.array([0.3, 1.0]))
    with pytest.raises(ValueError, match="one instant"):
        squeeze_from_mode(P_STAR, mode)


def test_special_squeeze_values():
    sq = special_squeeze(P_STAR)
    # cosh 2r0 = 1 + gamma^2 / (8 omega^2)
    assert math.cosh(2.0 * sq.r) == pytest.approx(1.0 + 1.44 / (8.0 * 0.64), rel=1e-15)
    # pi-shifted branch: tan phi0 = 4 omega / gamma with cos phi0 < 0
    assert math.tan(sq.phi) == pytest.approx(4.0 * 0.8 / 1.2, rel=1e-12)
    assert math.pi < sq.phi < 1.5 * math.pi
    # frozen representative values
    assert sq.r == pytest.approx(0.36672460423013675, abs=1e-14)
    assert sq.phi == pytest.approx(4.3536183101141175, abs=1e-13)


def test_special_squeeze_needs_damping():
    with pytest.raises(ValueError):
        special_squeeze(make_params(1.0, 0.0, 1.0, 1.0))


@given(gamma=st.floats(0.05, 1.9))
@settings(max_examples=60, deadline=None)
def test_special_squeeze_identities(gamma):
    params = make_params(1.0, gamma, 1.0, 1.0)
    sq = special_squeeze(params)
    # sinh r0 = gamma / (4 omega) and |cos phi0| = tanh r0 follow from the
    # cosh 2r0 closed form; they make the t = 0 Gaussian width real.
    assert math.sinh(sq.r) == pytest.approx(gamma / (4.0 * params.omega), rel=1e-12)
    assert abs(math.cos(sq.phi)) == pytest.approx(math.tanh(sq.r), rel=1e-12)
