"""The coherent energy's vector square against Python's ``pow(v, 2)``."""

import math
import random
import struct
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ckstates import cli
from ckstates.cli import _square, main

any_bits = st.integers(0, 2**64 - 1).map(lambda b: struct.unpack("<d", struct.pack("<Q", b))[0])


def pow_squares(values: list):
    """pow(v, 2) of each value, or the OverflowError of the first that raises."""
    out = []
    for v in values:
        try:
            out.append(pow(v, 2))
        except OverflowError as exc:
            return exc
    return np.array(out, dtype=np.float64)


def assert_pow(values):
    values = np.asarray(values, dtype=np.float64)
    want = pow_squares(values.tolist())
    # The CLI's numpy error settings: no numpy operation may raise either.
    with np.errstate(over="raise", divide="raise", invalid="raise"):
        if isinstance(want, OverflowError):
            with pytest.raises(OverflowError) as info:
                _square(values)
            assert str(info.value) == str(want)
        else:
            assert _square(values).tobytes() == want.tobytes()


def midpoint_ulps(x: float) -> Fraction:
    """|x^2 - x*x| in ulps of x*x on that side, by exact arithmetic."""
    p = x * x
    err = Fraction(x) ** 2 - Fraction(p)
    ulp = math.nextafter(p, math.inf) - p if err >= 0 else p - math.nextafter(p, 0.0)
    return abs(err) / Fraction(ulp)


@given(st.lists(st.floats() | any_bits, min_size=1, max_size=64))
@settings(max_examples=400, deadline=None)
def test_square_equals_pow(values):
    # st.floats() draws +-0, subnormals, huge values, inf and nan.
    assert_pow(values)


def test_powers_of_two_and_their_neighbours():
    powers = np.array([math.ldexp(1.0, k) for k in range(-1074, 512)])
    values = np.concatenate([np.nextafter(powers, 0.0), powers, np.nextafter(powers, np.inf)])
    assert_pow(values)
    assert_pow(-values)


def test_no_square_rounds_to_a_power_of_two_from_below():
    # Why the ulp of x*x is the ulp on either side of it: x*x is a power
    # of two only where x is one.
    for k in range(-900, 901):
        x = math.sqrt(math.ldexp(1.0, k))
        for _ in range(4):
            x = math.nextafter(x, 0.0)
        for _ in range(8):
            x = math.nextafter(x, math.inf)
            p = x * x
            if math.frexp(p)[0] == 0.5:
                assert Fraction(x) ** 2 == Fraction(p), x.hex()
    assert_pow([math.nextafter(math.sqrt(2.0), d) for d in (0.0, math.inf)])


def test_values_near_a_rounding_midpoint():
    rng = random.Random(2026)
    draws = [rng.uniform(1.0, 2.0) * 2.0 ** rng.randint(-450, 449) for _ in range(6000)]
    near = [x for x in draws if midpoint_ulps(x) >= Fraction(44, 100)]
    assert len(near) >= 500
    assert sum(midpoint_ulps(x) >= Fraction(48, 100) for x in near) >= 100
    # libm pow(x, 2) misses x*x for these (glibc 2.36), one 0.4898 ulp
    # from a midpoint.
    misses = [float.fromhex(h) for h in ("0x1.65aa041ec8e39p-448", "0x1.68b07c5c70af8p-442")]
    assert all(Fraction(48, 100) < midpoint_ulps(x) < Fraction(1, 2) for x in misses)
    assert_pow(near + misses)
    assert_pow([-x for x in near + misses])


def test_overflow_threshold():
    # sqrt(DBL_MAX) = 1.3407807929942596e154: pow overflows just above it.
    edge = math.sqrt(1.7976931348623157e308)
    below = [1.34e154, edge, math.nextafter(edge, 0.0), 1.3e154]
    assert_pow(below + [-v for v in below])
    for big in (1.35e154, math.nextafter(edge, math.inf), 1e200, math.inf):
        assert_pow(below + [big])
        assert_pow([-big, *below])


def test_subnormal_and_vanishing_squares():
    values = [1e-155, 1e-160, 1.5e-162, 2.0**-537, 2.0**-538, 2.0**-540, 5e-324, 2.0**-451, 0.0]
    assert_pow(values + [-v for v in values])


def _per_element_square(x):
    return np.fromiter((pow(v, 2) for v in x.tolist()), float, x.size)


@pytest.mark.parametrize(
    "argv",
    [
        ["hamiltonian", "--qc", "1.3", "--pc", "-0.7", "--r", "0.4", "--nt", "5000"],
        ["trajectory", "--gamma", "0.9", "--qc=-2e3", "--pc", "1e-5", "--t0", "40", "--nt", "5000"],
    ],
)
def test_coherent_tables_equal_the_per_element_squares(argv, monkeypatch, capsys):
    assert main(argv) == 0
    vector = capsys.readouterr().out
    monkeypatch.setattr(cli, "_square", _per_element_square)
    assert main(argv) == 0
    assert capsys.readouterr().out == vector
