"""Array-aware closed forms: an array of times gives, element by element, the
same bits as one call per time and as the formulas written one time at a
time in Python complex arithmetic, and a float time gives Python scalars."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ckstates.modes import SqueezeParams, make_params, mode_u0, mode_u_rphi, wronskian
from ckstates.observables import hamiltonian_expectation, uncertainty_product
from ckstates.states import coherent_trajectory

P_STAR = make_params(1.0, 1.2, 1.0, 1.0)

draws = dict(
    gamma=st.floats(0.0, 1.95),
    r=st.floats(0.0, 3.0),
    phi=st.floats(0.0, 2.0 * math.pi, exclude_max=True),
    n=st.integers(0, 32),
    t0=st.floats(-20.0, 20.0),
    span=st.floats(0.1, 40.0),
    alpha_re=st.floats(-3.0, 3.0),
    alpha_im=st.floats(-3.0, 3.0),
)


def reference(params, n, squeeze, alpha, t):
    """u0, u0', u, u', dq, dp and (q_c, p_c) at one float time, in
    Python complex arithmetic: the bits the tables were built from."""
    u0 = (
        math.exp(-params.gamma * t / 2.0)
        / math.sqrt(2.0 * params.m0 * params.omega)
        * cmath.exp(-1j * params.omega * t)
    )
    udot0 = complex(-params.gamma / 2.0, -params.omega) * u0
    mu = math.cosh(squeeze.r)
    nu = cmath.exp(1j * squeeze.phi) * math.sinh(squeeze.r)
    u, udot = mu * u0 + nu * u0.conjugate(), mu * udot0 + nu * udot0.conjugate()
    scale = math.sqrt(params.hbar * (2 * n + 1))
    weight = math.exp(params.gamma * t)
    sq = math.sqrt(params.hbar)
    return {
        "u0": u0,
        "udot0": udot0,
        "u": u,
        "udot": udot,
        "dq": scale * abs(u),
        "dp": scale * params.m0 * weight * abs(udot),
        "q_c": sq * 2.0 * (alpha * u).real,
        "p_c": sq * params.m0 * weight * 2.0 * (alpha * udot).real,
    }


def same_bits(array, scalars) -> bool:
    """The array holds exactly the scalars, signed zeros included."""
    expected = np.array(scalars, dtype=array.dtype)
    return array.shape == expected.shape and array.tobytes() == expected.tobytes()


@given(**draws)
@settings(max_examples=40, deadline=None)
def test_array_call_equals_scalar_calls(gamma, r, phi, n, t0, span, alpha_re, alpha_im):
    params = make_params(1.0, gamma, 1.0, 1.0)
    squeeze = SqueezeParams(r, phi)
    alpha = complex(alpha_re, alpha_im)
    # 257 times, with t = 0 among them so signed zeros are exercised.
    ts = np.concatenate(([0.0], np.linspace(t0, t0 + span, 256)))
    scalar_ts = ts.tolist()

    for mode_fn in (mode_u0, lambda p, t: mode_u_rphi(p, squeeze, t)):
        whole = mode_fn(params, ts)
        one_by_one = [mode_fn(params, t) for t in scalar_ts]
        assert same_bits(whole.u, [m.u for m in one_by_one])
        assert same_bits(whole.udot, [m.udot for m in one_by_one])
        assert same_bits(whole.t, scalar_ts)
        w = wronskian(params, whole)
        assert same_bits(w, [wronskian(params, m) for m in one_by_one])

    rec = uncertainty_product(params, n, squeeze, ts)
    recs = [uncertainty_product(params, n, squeeze, t) for t in scalar_ts]
    for field in ("dq", "dp", "product", "t"):
        assert same_bits(getattr(rec, field), [getattr(x, field) for x in recs])
    assert all(x.bound == rec.bound for x in recs)

    energy = hamiltonian_expectation(params, n, squeeze, ts)
    assert same_bits(energy, [hamiltonian_expectation(params, n, squeeze, t) for t in scalar_ts])

    q_c, p_c = coherent_trajectory(params, squeeze, alpha, ts)
    points = [coherent_trajectory(params, squeeze, alpha, t) for t in scalar_ts]
    assert same_bits(q_c, [q for q, _ in points])
    assert same_bits(p_c, [p for _, p in points])

    ref = [reference(params, n, squeeze, alpha, t) for t in scalar_ts]
    u0 = mode_u0(params, ts)
    squeezed = mode_u_rphi(params, squeeze, ts)
    got = {
        "u0": u0.u,
        "udot0": u0.udot,
        "u": squeezed.u,
        "udot": squeezed.udot,
        "dq": rec.dq,
        "dp": rec.dp,
        "q_c": q_c,
        "p_c": p_c,
    }
    for key, values in got.items():
        assert same_bits(values, [x[key] for x in ref]), key


@pytest.mark.parametrize("t", [0.7, np.float64(0.7), 2, np.array(0.7)])
def test_scalar_time_gives_python_scalars(t):
    squeeze = SqueezeParams(0.5, 1.0)
    for mode in (mode_u0(P_STAR, t), mode_u_rphi(P_STAR, squeeze, t)):
        assert type(mode.u) is complex and type(mode.udot) is complex
        assert type(mode.t) is float
    rec = uncertainty_product(P_STAR, 1, squeeze, t)
    for value in (rec.dq, rec.dp, rec.product, rec.bound, rec.t):
        assert type(value) is float
    # A numpy scalar here would turn comparisons into np.bool_, which the
    # JSON report cannot serialize.
    assert type(rec.product < rec.bound) is bool
    assert type(hamiltonian_expectation(P_STAR, 1, squeeze, t)) is float
    q_c, p_c = coherent_trajectory(P_STAR, squeeze, 0.3 - 0.2j, t)
    assert type(q_c) is float and type(p_c) is float


def test_array_time_gives_arrays_of_its_shape():
    ts = np.linspace(0.0, 3.0, 12).reshape(3, 4)
    squeeze = SqueezeParams(0.5, 1.0)
    mode = mode_u_rphi(P_STAR, squeeze, ts)
    assert mode.u.shape == mode.udot.shape == ts.shape
    assert mode.u.dtype == complex
    rec = uncertainty_product(P_STAR, 0, squeeze, ts)
    assert rec.product.shape == ts.shape and type(rec.bound) is float
    assert hamiltonian_expectation(P_STAR, 0, squeeze, ts).shape == ts.shape
    assert all(x.shape == ts.shape for x in coherent_trajectory(P_STAR, squeeze, 1.0, ts))


@pytest.mark.parametrize("t", [-600.0, -1000.0])
def test_subnormal_envelope_raises(t):
    # e^{gamma t} is subnormal at t = -600 and 0 at t = -1000 (gamma = 1.2),
    # which would print dp = 0 where dq dp is 0.625.
    squeeze = SqueezeParams(0.0, 0.0)
    with pytest.raises(ArithmeticError, match="underflows"):
        uncertainty_product(P_STAR, 0, squeeze, t)
    with pytest.raises(ArithmeticError, match="underflows"):
        uncertainty_product(P_STAR, 0, squeeze, np.array([0.0, t]))
    with pytest.raises(ArithmeticError, match="underflows"):
        coherent_trajectory(P_STAR, squeeze, 1.0, t)


def test_envelope_overflow_stays_overflow_error():
    with pytest.raises(OverflowError):
        uncertainty_product(P_STAR, 0, SqueezeParams(0.0, 0.0), np.array([0.0, 600.0]))
