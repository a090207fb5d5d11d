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
    qc=st.floats(-3.0, 3.0),
    pc=st.floats(-3.0, 3.0),
)


def reference(params, n, squeeze, anchor, t):
    """v0, w0, v, w, dq, dp, dq dp, and the coherent path through ``anchor``
    = (qc, pc, t0) with its classical energy, at one float time, in Python
    arithmetic: the bits the tables are built from."""
    v0 = 1.0 / math.sqrt(2.0 * params.m0 * params.omega) * cmath.exp(-1j * params.omega * t)
    w0 = complex(-params.gamma / 2.0, -params.omega) * v0
    mu = math.cosh(squeeze.r)
    nu = cmath.exp(1j * squeeze.phi) * math.sinh(squeeze.r)
    v, w = mu * v0 + nu * v0.conjugate(), mu * w0 + nu * w0.conjugate()
    scale = math.sqrt(params.hbar * (2 * n + 1))
    s = math.exp(0.5 * params.gamma * t)
    qc, pc, t0 = anchor
    m = params.m0 * math.exp(params.gamma * t0)
    c, sn = math.cos(params.omega * (t - t0)), math.sin(params.omega * (t - t0))
    k = params.gamma / (2.0 * params.omega)
    e = math.exp(0.5 * params.gamma * (t - t0))
    q_c = (qc * (c + k * sn) + pc / (m * params.omega) * sn) / e
    p_c = (pc * (c - k * sn) - m * qc * (params.omega0**2 / params.omega) * sn) * e
    size = math.sqrt(m) * e
    # x * x, not x ** 2: libm pow may miss the rounded square by an ulp.
    a, b = p_c / size, params.omega0 * size * q_c
    return {
        "v0": v0,
        "w0": w0,
        "v": v,
        "w": w,
        "dq": scale * abs(v) / s,
        "dp": scale * params.m0 * abs(w) * s,
        "product": params.hbar * (2 * n + 1) * params.m0 * abs(v) * abs(w),
        "q_c": q_c,
        "p_c": p_c,
        "energy": 0.5 * (a * a) + 0.5 * (b * b),
    }


def same_bits(array, scalars) -> bool:
    """The array holds exactly the scalars, signed zeros included."""
    expected = np.array(scalars, dtype=array.dtype)
    return array.shape == expected.shape and array.tobytes() == expected.tobytes()


@given(**draws)
@settings(max_examples=40, deadline=None)
def test_array_call_equals_scalar_calls(gamma, r, phi, n, t0, span, qc, pc):
    params = make_params(1.0, gamma, 1.0, 1.0)
    squeeze = SqueezeParams(r, phi)
    # 257 times, with t = 0 among them so signed zeros are exercised.
    ts = np.concatenate(([0.0], np.linspace(t0, t0 + span, 256)))
    scalar_ts = ts.tolist()

    for mode_fn in (mode_u0, lambda p, t: mode_u_rphi(p, squeeze, t)):
        whole = mode_fn(params, ts)
        one_by_one = [mode_fn(params, t) for t in scalar_ts]
        assert same_bits(whole.v, [m.v for m in one_by_one])
        assert same_bits(whole.w, [m.w for m in one_by_one])
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

    path = coherent_trajectory(params, qc, pc, t0, ts)
    points = [coherent_trajectory(params, qc, pc, t0, t) for t in scalar_ts]
    for values, scalars in zip(path, zip(*points)):
        assert same_bits(values, scalars)

    ref = [reference(params, n, squeeze, (qc, pc, t0), t) for t in scalar_ts]
    u0 = mode_u0(params, ts)
    squeezed = mode_u_rphi(params, squeeze, ts)
    got = {
        "v0": u0.v,
        "w0": u0.w,
        "v": squeezed.v,
        "w": squeezed.w,
        "dq": rec.dq,
        "dp": rec.dp,
        "product": rec.product,
        "q_c": path[0],
        "p_c": path[1],
        "energy": path[2],
    }
    for key, values in got.items():
        assert same_bits(values, [x[key] for x in ref]), key


@pytest.mark.parametrize("t", [0.7, np.float64(0.7), 2, np.array(0.7)])
def test_scalar_time_gives_python_scalars(t):
    squeeze = SqueezeParams(0.5, 1.0)
    for mode in (mode_u0(P_STAR, t), mode_u_rphi(P_STAR, squeeze, t)):
        assert type(mode.v) is complex and type(mode.w) is complex
        assert type(mode.t) is float
    rec = uncertainty_product(P_STAR, 1, squeeze, t)
    for value in (rec.dq, rec.dp, rec.product, rec.bound, rec.t):
        assert type(value) is float
    # A numpy scalar here would turn comparisons into np.bool_, which the
    # JSON report cannot serialize.
    assert type(rec.product < rec.bound) is bool
    assert type(hamiltonian_expectation(P_STAR, 1, squeeze, t)) is float
    assert all(type(x) is float for x in coherent_trajectory(P_STAR, 0.3, -0.2, 0.1, t))


def test_array_time_gives_arrays_of_its_shape():
    squeeze = SqueezeParams(0.5, 1.0)
    for ts in (np.linspace(0.0, 3.0, 12).reshape(3, 4), np.array([])):
        mode = mode_u_rphi(P_STAR, squeeze, ts)
        assert mode.v.shape == mode.w.shape == ts.shape
        assert mode.v.dtype == complex
        rec = uncertainty_product(P_STAR, 0, squeeze, ts)
        assert rec.product.shape == ts.shape and type(rec.bound) is float
        assert hamiltonian_expectation(P_STAR, 0, squeeze, ts).shape == ts.shape
        assert all(x.shape == ts.shape for x in coherent_trajectory(P_STAR, 1.0, 0.0, 0.0, ts))


@pytest.mark.parametrize("t", [600.0, -600.0, -1000.0])
def test_product_is_exact_far_from_the_origin(t):
    # e^{gamma t} leaves the double range here (gamma = 1.2), but the
    # product carries no envelope and s = e^{gamma t/2} stays normal.
    squeeze = SqueezeParams(0.0, 0.0)
    for rec in (
        uncertainty_product(P_STAR, 0, squeeze, t),
        uncertainty_product(P_STAR, 0, squeeze, np.array([0.0, t])),
    ):
        assert np.all(np.abs(rec.product - 0.625) <= 4 * math.ulp(0.625))
        assert np.all(np.abs(rec.dq * rec.dp - 0.625) <= 4 * math.ulp(0.625))
    assert all(math.isfinite(x) for x in coherent_trajectory(P_STAR, 1.0, 0.0, 0.0, t))


@pytest.mark.parametrize("t", [-1200.0])
def test_subnormal_envelope_raises(t):
    # s = e^{gamma t/2} is subnormal at t = -1200 (gamma = 1.2): dq would
    # overflow and dp lose its digits.
    squeeze = SqueezeParams(0.0, 0.0)
    with pytest.raises(ArithmeticError, match="underflows"):
        uncertainty_product(P_STAR, 0, squeeze, t)
    with pytest.raises(ArithmeticError, match="underflows"):
        uncertainty_product(P_STAR, 0, squeeze, np.array([0.0, t]))
    with pytest.raises(ArithmeticError, match="underflows"):
        coherent_trajectory(P_STAR, 1.0, 0.0, 0.0, t)


def test_envelope_overflow_stays_overflow_error():
    # s = e^{720} at t = 1200 (gamma = 1.2).
    with pytest.raises(OverflowError):
        uncertainty_product(P_STAR, 0, SqueezeParams(0.0, 0.0), np.array([0.0, 1200.0]))


def test_nan_time_raises():
    # A nan time has no envelope e^{gamma t/2}; the closed forms say so
    # instead of returning nan, for a scalar and for an array holding one.
    squeeze = SqueezeParams(0.0, 0.0)
    for t in (math.nan, np.array([0.0, math.nan, 1.0])):
        with pytest.raises(ValueError, match="got x = nan") as excinfo:
            uncertainty_product(P_STAR, 0, squeeze, t)
        assert "\n" not in str(excinfo.value)
        with pytest.raises(ValueError, match="got x = nan"):
            coherent_trajectory(P_STAR, 1.0, 0.0, 0.0, t)
