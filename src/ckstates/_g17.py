"""Exact ``'%.17g' % x`` text for float64 arrays, without a Python call per value.

CPython prints 17 significant digits through its bignum dtoa path, about a
microsecond per value.  Here every value is printed with a fixed number of
numpy operations:

* Scale.  k = floor(log10 |x|), moved by one where y falls outside
  [1e16, 1e17), and y = |x| 10^(16 - k) as a double-double: Dekker's exact
  product of |x| with the double-double 10^(16 - k) (T. J. Dekker, "A
  floating-point technique for extending the available precision",
  Numer. Math. 18 (1971) 224-242).  The error of y is below 1e-14, so
  D = round(y) is the correctly rounded 17-digit significand unless y lies
  within ``TIE_MARGIN`` of a half-integer.
* Digits.  D splits into its leading digit and four groups of four digits,
  each mapped through a 10^4-entry table of four ASCII bytes; a second
  10^4-entry table of each group's trailing zeros gives the number of
  significant digits.
* Layout.  One index table, keyed by (notation, significant digits, sign),
  lists which byte of a value's digit record goes to each of the
  ``WIDTH`` output slots; unused slots point at a NUL byte, dropped when
  the row text is joined.

Values the fast path cannot prove, those within ``TIE_MARGIN`` of a
rounding tie, those outside [``LOW``, ``HIGH``] in magnitude, and nan and
inf, are printed by ``'%.17g' %`` itself, so the text is that of ``%`` by
construction.  Zeros print as "0" or "-0" through the same layout as 1.
"""

import functools

import numpy as np

__all__ = ["WIDTH", "LOW", "HIGH", "render", "rows_text"]

# Longest '%.17g' text of a float64, e.g. "-2.2250738585072014e-308".
WIDTH = 24
# Magnitudes printed by the fast path; beyond them the double-double
# product would meet subnormal or overflowing partial products.
LOW, HIGH = 1e-280, 1e280
# A fractional part of y this close to 1/2 may round either way.
TIE_MARGIN = 1e-6

_SPLIT = 134217729.0  # 2^27 + 1, Dekker's splitter for a 53-bit significand
_E16, _E17 = 10**16, 10**17
# 10^p is tabulated for p in [_P_MIN, _P_MAX]: p = 16 - k with k within one
# of floor(log10 |x|) for LOW <= |x| <= HIGH.
_P_MIN, _P_MAX = -270, 300

# Byte offsets in a value's 32-byte record (eight uint32 words): word 0 is
# "000" and the leading digit, words 1-4 the other 16 digits, word 5 the
# four-digit exponent, word 6 ".e-0", word 7 the exponent sign and NULs.
_DIGIT, _EXP, _DOT, _E, _MINUS, _ZERO, _EXP_SIGN, _NUL = 3, 20, 24, 25, 26, 27, 28, 29
_RECORD = 32
# Values per block of the byte gather, which holds a WIDTH-wide index per value.
_GATHER = 4096
# Notations: fixed for exponents X in [-4, 16] (cases 0-20, case X + 4),
# then exponent form with two and with three exponent digits.
_FIXED = 21
_CASES = _FIXED + 2


@functools.cache
def _tables():
    """Power, digit and layout tables, built on first use (a few milliseconds)."""
    hi, lo = [], []
    for p in range(_P_MIN, _P_MAX + 1):
        # Correctly rounded head and tail of 10^p from exact integers.
        num, den = (10**p, 1) if p >= 0 else (1, 10**-p)
        head = num / den
        h_num, h_den = head.as_integer_ratio()
        hi.append(head)
        lo.append((num * h_den - h_num * den) / (den * h_den))
    hi = np.array(hi)
    powers = (hi, *_split(hi), np.array(lo))

    groups = np.arange(10**4)
    chars = np.stack([groups // 10**j % 10 for j in (3, 2, 1, 0)], axis=1) + ord("0")
    digits4 = np.ascontiguousarray(chars, dtype=np.uint8).view(np.uint32).ravel()
    # Trailing zeros of each group; group 0 is handled by the caller.
    zeros4 = sum(groups % 10**j == 0 for j in range(1, 4))
    consts = np.frombuffer(b".e-0+\0\0\0-\0\0\0", np.uint32)

    # Row (case * 17 + s - 1) * 2 + neg of the layout table.
    layout = b"".join(
        bytes(_layout(case, s, neg)).ljust(WIDTH, bytes([_NUL]))
        for case in range(_CASES)
        for s in range(1, 18)
        for neg in (0, 1)
    )
    layout = np.frombuffer(layout, np.uint8).reshape(-1, WIDTH).astype(np.intp)
    return powers, digits4, zeros4, consts, layout


def _layout(case: int, s: int, neg: int) -> list:
    """Record offsets of the text of a value with ``s`` significant digits."""
    digits = [_DIGIT + j for j in range(17)]
    slots = [_MINUS] if neg else []
    if case < _FIXED:
        x = case - 4
        if x >= 0:
            slots += digits[: x + 1]
            if s > x + 1:
                slots += [_DOT, *digits[x + 1 : s]]
        else:
            slots += [_ZERO, _DOT, *[_ZERO] * (-x - 1), *digits[:s]]
    else:
        slots.append(digits[0])
        if s > 1:
            slots += [_DOT, *digits[1:s]]
        slots += [_E, _EXP_SIGN, *range(_EXP + (1 if case == _FIXED + 1 else 2), _EXP + 4)]
    return slots


def _split(a: np.ndarray):
    """Dekker's split of ``a`` into a head of 26 significant bits and the
    exact rest, for |a| below 2^996."""
    c = _SPLIT * a
    head = c - (c - a)
    return head, a - head


def _significand(a: np.ndarray, k: np.ndarray, powers: tuple):
    """D = round(y), y = a 10^(16 - k), as int64, and y - D."""
    index = 16 - k - _P_MIN
    p_hi, b_hi, b_lo, p_lo = (table[index] for table in powers)
    a_hi, a_lo = _split(a)
    # Dekker's two-product: prod + err is a * p_hi exactly.
    prod = a * p_hi
    err = ((a_hi * b_hi - prod) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo
    err += a * p_lo
    y_hi = prod + err
    y_lo = err - (y_hi - prod)
    # y_hi >= 2^53 is an integer, so only y_lo has a fractional part.
    step = np.rint(y_lo)
    return y_hi.astype(np.int64) + step.astype(np.int64), y_lo - step


def _printf(values: np.ndarray) -> np.ndarray:
    """``'%.17g' % v`` of each value, NUL-padded to WIDTH bytes."""
    text = b"".join((b"%.17g" % v).ljust(WIDTH, b"\0") for v in values.tolist())
    return np.frombuffer(text, np.uint8).reshape(-1, WIDTH)


def render(x) -> np.ndarray:
    """Text of ``'%.17g' % v`` for each float64 v in ``x``, as an (n, WIDTH)
    uint8 array, left-aligned and NUL-padded."""
    powers, digits4, zeros4, consts, layout = _tables()
    x = np.asarray(x, dtype=np.float64).ravel()
    a = np.abs(x)
    fast = (a >= LOW) & (a <= HIGH)
    zero = a == 0.0
    a = np.where(fast, a, 1.0)

    k = np.floor(np.log10(a)).astype(np.intp)
    d, frac = _significand(a, k, powers)
    # y = d + frac must lie in [1e16, 1e17); within its error of either end,
    # both choices of k round to the same text.
    up = (d > _E17) | ((d == _E17) & (frac >= 0.0))
    off = up | (d < _E16) | ((d == _E16) & (frac < 0.0))
    if off.any():
        k[off] += np.where(up[off], 1, -1)
        d[off], frac[off] = _significand(a[off], k[off], powers)
    carry = d == _E17
    d[carry] = _E16
    k += carry

    lead, rest = np.divmod(d, _E16)
    high, low = np.divmod(rest, 10**8)
    record = np.empty((len(x), 8), np.uint32)
    record[:, 0] = digits4[lead]
    # Significant digits: 17 less the trailing zeros; the leading digit is not 0.
    zeros = 0
    for j, group in enumerate((*np.divmod(high, 10**4), *np.divmod(low, 10**4)), 1):
        record[:, j] = digits4[group]
        zeros = np.where(group == 0, zeros + 4, zeros4[group])
    record[:, 5] = digits4[np.abs(k)]
    record[:, 6] = consts[0]
    record[:, 7] = np.where(k < 0, consts[2], consts[1])
    text = record.view(np.uint8)
    text[zero, _DIGIT] = ord("0")

    case = np.where(
        (k >= -4) & (k <= 16), k + 4, np.where(np.abs(k) < 100, _FIXED, _FIXED + 1)
    )
    row = (case * 17 + 16 - zeros) * 2 + np.signbit(x)
    flat = text.ravel()
    offsets = np.arange(0, _GATHER * _RECORD, _RECORD)[:, None]
    out = np.empty((len(x), WIDTH), np.uint8)
    for start in range(0, len(x), _GATHER):
        index = np.take(layout, row[start : start + _GATHER], axis=0)
        index += offsets[: len(index)]
        # In range anyway; "clip" writes into out where "raise" buffers.
        np.take(flat[start * _RECORD :], index, out=out[start : start + len(index)], mode="clip")
    slow = ~(fast | zero)
    slow |= np.abs(frac) > 0.5 - TIE_MARGIN
    if slow.any():
        out[slow] = _printf(x[slow])
    return out


def rows_text(literals: list, columns: list) -> str:
    """Rows literals[0] + v_0 + literals[1] + ... + v_last + literals[-1], one
    per index of the equal-length float arrays ``columns``, each v printed as
    by ``'%.17g' %``; ``literals`` are ASCII strings without NUL."""
    n = len(columns[0])
    pieces = [np.frombuffer(lit.encode("ascii"), np.uint8) for lit in literals]
    rows = np.empty((n, sum(map(len, pieces)) + WIDTH * len(columns)), np.uint8)
    texts = render(np.concatenate(columns)).reshape(len(columns), n, WIDTH)
    start = 0
    for piece, text in zip(pieces, texts):
        rows[:, start : start + len(piece)] = piece
        start += len(piece)
        rows[:, start : start + WIDTH] = text
        start += WIDTH
    rows[:, start:] = pieces[-1]
    flat = rows.ravel()
    return flat[flat != 0].tobytes().decode("ascii")
