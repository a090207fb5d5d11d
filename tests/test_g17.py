"""The vectorized '%.17g' renderer of the table commands against '%' itself."""

import math
import struct
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from ckstates import _g17


def rendered(values) -> list:
    return [bytes(row).replace(b"\0", b"").decode("ascii") for row in _g17.render(values)]


def assert_printf(values):
    values = np.asarray(values, dtype=np.float64)
    assert rendered(values) == ["%.17g" % v for v in values.tolist()]


def neighbours(values):
    values = np.asarray(values, dtype=np.float64)
    return np.concatenate(
        [np.nextafter(values, -np.inf), values, np.nextafter(values, np.inf)]
    )


any_bits = st.integers(0, 2**64 - 1).map(lambda b: struct.unpack("<d", struct.pack("<Q", b))[0])


@given(st.lists(st.floats() | any_bits, min_size=1, max_size=64))
@settings(max_examples=400, deadline=None)
def test_render_equals_printf(values):
    # st.floats() draws subnormals, +-0, +-inf and nan; the raw bit
    # patterns reach every exponent evenly.
    assert_printf(values)


def test_powers_of_ten_and_their_neighbours():
    assert_printf(neighbours([float(f"1e{k}") for k in range(-323, 309)]))


def test_powers_of_two():
    # 6294 values: the gather runs in blocks of 4096.
    assert_printf(neighbours([math.ldexp(1.0, k) for k in range(-1074, 1024)]))


def test_both_ends_of_the_seventeen_digit_range():
    # From 1e16 on a double is an integer; from 1e17 on '%.17g' switches
    # to exponent form.
    assert_printf(neighbours([1e16, 1e17, -1e16, -1e17]))


def test_rounding_that_carries_into_the_next_power_of_ten():
    # Doubles just below 10^k whose 17 digits round up to 10^k: the
    # significand 99999999999999999.5... rounds to 1e17.
    carries = []
    for k in range(-300, 300):
        below = float(np.nextafter(float(f"1e{k}"), 0.0))
        for x in (below, float(f"1e{k}")):
            if Fraction(x) < Fraction(10) ** k and Decimal("%.17g" % x) == Decimal(10) ** k:
                carries.append(x)
    assert len(carries) >= 5
    assert_printf(neighbours(carries))


def test_fixed_and_exponent_notation_boundaries():
    values = [1e-5, 1e-4, 0.1, 0.5, 1.0, 10.0, 123.25, 1e15 + 0.5, 2.0**53]
    values += [1e100, 1e-100, 1.5e99, 9.5e-100, 123456789012345678.0]
    assert_printf(neighbours(values + [-v for v in values]))


def test_trailing_zeros_at_each_digit_group_boundary():
    # Exact doubles n 10^k print the digits of n, so D = n 10^(17 - len(n))
    # has 17 - len(n) trailing zeros: every count from 16 (D = 10^16) to 0,
    # in fixed and in exponent notation.
    values = []
    for digits in range(1, 18):
        n = int("1" * (digits - 1) + "3") if digits < 17 else 12345678901234568
        for k in (0, 7, 21):
            x = float(Fraction(n) * Fraction(10) ** k)
            if Fraction(x) == Fraction(n) * Fraction(10) ** k:
                values.append(x)
    significant = {len(("%.17e" % v).split("e")[0].replace(".", "").rstrip("0")) for v in values}
    assert significant == set(range(1, 18))
    assert_printf(values + [-v for v in values] + [1e16, 1.0, 0.0, -0.0])


def test_zeros_and_non_finite_values():
    assert_printf([0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan])


def test_fallback_takes_what_the_fast_path_cannot_prove(monkeypatch):
    seen = []
    printf = _g17._printf

    def spy(values):
        seen.extend(values.tolist())
        return printf(values)

    monkeypatch.setattr(_g17, "_printf", spy)
    outside = [1e-300, -1e300, 5e-324, -2.2250738585072014e-308, 1.7976931348623157e308]
    outside += [_g17.LOW / 2.0, -_g17.HIGH * 2.0, math.inf, math.nan]
    # 1e15 + 0.25 lies exactly on a 17-digit rounding tie.
    tie = 1e15 + 0.25
    inside = [1.5, -2.25e-10, _g17.LOW, -_g17.HIGH, 0.0, -0.0, 1e15 + 0.125]
    assert_printf(inside + outside + [tie])
    assert len(seen) == len(outside) + 1
    assert all(a == b or (math.isnan(a) and math.isnan(b)) for a, b in zip(seen, outside + [tie]))


def test_tables_are_built_on_first_use():
    src = Path(__file__).resolve().parent.parent / "src"
    code = (
        f"import sys; sys.path.insert(0, {str(src)!r}); import ckstates.cli; "
        "from ckstates import _g17; "
        "print(_g17._tables.cache_info().currsize, ckstates.cli._build_parser.cache_info().currsize)"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    # Neither the renderer's tables nor the argument parser is built at import.
    assert out.stdout.split() == ["0", "0"]
