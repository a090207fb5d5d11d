"""The coherent path that ``ckstates trajectory`` prints, against the
coherent eigenvalue's closed form and a 50-digit evaluation of the damped
classical map.

The reference below is written from the README, not from the package:
H(t) = e^{-gamma t} p^2/(2 m0) + (m0 omega0^2/2) e^{gamma t} q^2, the path
through (qc, pc) at t0 as the real map of that point with the mass
m = m0 e^{gamma t0}, and the ground-state fluctuation energy of the mode
u = cosh(r) u0 + e^{i phi} sinh(r) u0*, with
u0 = e^{-gamma t/2} e^{-i omega t}/sqrt(2 m0 omega) and n = 0 in
<H> = (hbar/2)(2n + 1) m0 e^{gamma t} (|u'|^2 + omega0^2 |u|^2).
"""

import contextlib
import dataclasses
import io
import math

import mpmath
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from ckstates.cli import main
from ckstates.modes import SqueezeParams, make_params
from ckstates.states import alpha_from_point, coherent_trajectory

scale = st.floats(math.log(0.3), math.log(3.0)).map(math.exp)


@st.composite
def trajectories(draw, t0_low, t0_high):
    """(omega0, m0, hbar, gamma, t0, qc, pc, r, phi, nt) of one command."""
    omega0, m0, hbar = draw(scale), draw(scale), draw(scale)
    gamma = 2.0 * draw(st.floats(0.0, 0.99)) * omega0
    t0 = draw(st.floats(t0_low, t0_high))
    qc, pc = draw(st.floats(-2.0, 2.0)), draw(st.floats(-2.0, 2.0))
    r, phi = draw(st.floats(0.0, 3.0)), draw(st.floats(0.0, 2.0 * math.pi))
    return omega0, m0, hbar, gamma, t0, qc, pc, r, phi, draw(st.integers(2, 10))


def trajectory_rows(omega0, m0, hbar, gamma, t0, qc, pc, r, phi, nt):
    names = ("omega0", "m0", "hbar", "gamma", "t0", "qc", "pc", "r", "phi", "nt")
    values = (omega0, m0, hbar, gamma, t0, qc, pc, r, phi, nt)
    argv = ["trajectory", *(f"--{name}={value!r}" for name, value in zip(names, values))]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    return [tuple(map(float, line.split(","))) for line in out.getvalue().splitlines()[1:]]


def reference(omega0, m0, hbar, gamma, t0, qc, pc, r, phi, t):
    """(q, p, energy) at t and the envelopes (|q|, |p|, energy) that scale
    their errors, to 50 digits."""
    with mpmath.workdps(50):
        omega0, m0, hbar, gamma, t0, qc, pc, r, phi, t = map(
            mpmath.mpf, (omega0, m0, hbar, gamma, t0, qc, pc, r, phi, t)
        )
        omega = mpmath.sqrt(omega0**2 - gamma**2 / 4)
        k = gamma / (2 * omega)
        m = m0 * mpmath.exp(gamma * t0)
        c, s = mpmath.cos(omega * (t - t0)), mpmath.sin(omega * (t - t0))
        e = mpmath.exp(gamma * (t - t0) / 2)
        q = (qc * (c + k * s) + pc / (m * omega) * s) / e
        p = (pc * (c - k * s) - m * qc * omega0**2 / omega * s) * e
        q_env = (abs(qc) * (1 + k) + abs(pc) / (m * omega)) / e
        p_env = (abs(pc) * (1 + k) + m * abs(qc) * omega0**2 / omega) * e

        u0 = mpmath.exp(-gamma * t / 2 - 1j * omega * t) / mpmath.sqrt(2 * m0 * omega)
        du0 = (-gamma / 2 - 1j * omega) * u0
        squeeze = mpmath.exp(1j * phi) * mpmath.sinh(r)
        u = mpmath.cosh(r) * u0 + squeeze * mpmath.conj(u0)
        du = mpmath.cosh(r) * du0 + squeeze * mpmath.conj(du0)
        mass = m0 * mpmath.exp(gamma * t)
        fluctuation = hbar / 2 * mass * (abs(du) ** 2 + (omega0 * abs(u)) ** 2)

        def energy(q, p):
            return p**2 / (2 * mass) + mass * (omega0 * q) ** 2 / 2 + fluctuation

        return (q, p, energy(q, p)), (q_env, p_env, energy(q_env, p_env))


@given(trajectories(-60.0, 60.0))
@settings(max_examples=40, deadline=None)
def test_trajectory_columns_equal_the_real_map(args):
    # Errors in units of each column's envelope: 2.6e-14 at most over 400
    # drawn commands, from the rounding of omega near critical damping.
    for t, *row in trajectory_rows(*args):
        exact, envelope = reference(*args[:-1], t)
        for value, want, size in zip(row, exact, envelope):
            assert abs(value - want) <= 1e-13 * size


@given(trajectories(-60.0, 0.0))
@settings(max_examples=40, deadline=None)
def test_trajectory_equals_the_coherent_eigenvalue_path(args):
    # For t0 <= 0, alpha = (i/sqrt(hbar))(v* pc - m w* qc) at the mass
    # m = m0 e^{gamma t0} is well conditioned, and the closed form of the
    # coherent state that the oracle checks carries the same path.
    omega0, m0, hbar, gamma, t0, qc, pc = args[:7]
    rows = np.array(trajectory_rows(*args))
    params = make_params(m0, gamma, omega0, hbar)
    shifted = dataclasses.replace(params, m0=m0 * math.exp(gamma * t0))
    unsqueezed = SqueezeParams(r=0.0, phi=0.0)
    alpha = alpha_from_point(shifted, unsqueezed, qc, pc, 0.0)
    q, p = coherent_trajectory(shifted, unsqueezed, alpha, rows[:, 0] - t0)
    for t, q_t, p_t, row in zip(rows[:, 0], q, p, rows):
        q_env, p_env, _ = reference(*args[:-1], t)[1]
        assert abs(row[1] - q_t) <= 1e-12 * q_env
        assert abs(row[2] - p_t) <= 1e-12 * p_env
