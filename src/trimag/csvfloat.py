"""CSV lines of float tables, byte for byte as CPython's % writes them.

CPython's % takes about 300 ns per %.12g value and 480 ns per %.12e value
(Python 3.11 on a 2-core Xeon), nearly all of the cost of writing a large
table.  format_rows computes the same text with numpy for the two formats
the package writes.
Each finite value is scaled by one tabulated power of ten into its
significant digits: 12 for %.12g, 13 for %.12e.  The digits, sign, point
and exponent then go into a fixed-width cell of bytes, and the NUL bytes
that pad each cell are dropped from the block's text at the end.

The scaling rounds at most twice: 10**s is correctly rounded, and so is
the product.  So the scaled value is within 2**-52 of its exact value,
relative.  A value whose scaled digits lie within twice that of a
rounding half-point goes through % instead.  So do NaN, infinities,
subnormals and values beyond the table.  The kernel never decides a
rounding tie, and every byte equals what % gives.
"""

from __future__ import annotations

import functools
import sys
from typing import Sequence

import numpy as np

#: largest |s| of the tabulated powers 10**s
_POW_LIMIT = 308
#: offset of the decimal exponent in the exponent-indexed tables
_EXP_OFFSET = 330
_SIGN_BIT = np.uint64(1 << 63)

_NUL, _MINUS, _ZERO, _POINT = 0, ord("-"), ord("0"), ord(".")


def _pack(byte_columns) -> np.ndarray:
    """uint64 words whose bytes, lowest first, are the given columns."""
    word = np.uint64(0)
    for shift, column in enumerate(byte_columns):
        word = word | np.asarray(column).astype(np.uint64) << np.uint64(
            8 * shift)
    return word


def _byte_mask(lo, hi) -> np.ndarray:
    """Words of 0xff bytes at positions lo <= p < hi of bytes 0..7."""
    return _pack([np.where((lo <= p) & (p < hi), 0xFF, 0) for p in range(8)])


@functools.cache
def _tables() -> dict:
    """The kernel's lookup tables, built on first use."""
    powers = [10 ** k for k in range(_POW_LIMIT + 1)]
    # exact integers, so each float is correctly rounded
    pow10 = np.array([1 / p for p in powers[:0:-1]] + [float(p) for p in powers])

    # biased binary exponent -> pow10 index that scales to the digits.  A
    # value in [2**b, 2**(b + 1)) has the decimal exponent floor(b*log10(2))
    # or one more; b*log10(2) lies at least 4.5e-4 from an integer for every
    # b != 0 here, so the float floor is exact.  A biased exponent of 0 is
    # taken as a zero and gets the exponent 0 (subnormals go through %)
    biased = np.arange(2048)
    estimate = np.floor((biased - 1023) * np.log10(2.0)).astype(np.int64)
    estimate[0] = 0
    tables = {"pow10": pow10}
    for precision in (12, 13):
        index = _POW_LIMIT + precision - 1 - estimate
        # room for one step down the table
        inside = (biased > 0) & (biased < 2047) & (index >= 1) & (
            index <= 2 * _POW_LIMIT)
        # the rest, which _scaled sets to 1.0, scale to 10**(precision - 1)
        tables[precision] = (np.where(inside, index, index[0]), inside)

    g = np.arange(10000, dtype=np.uint32)
    digits = [g // 1000, g // 100 % 10, g // 10 % 10, g % 10]
    tables["ascii4"] = (digits[0] | digits[1] << 8 | digits[2] << 16
                        | digits[3] << 24).astype(np.uint64) + 0x30303030
    # per 4-digit group at each place among the 12 digits of %.12g: the
    # digits up to its last nonzero one, counted from the first group (0
    # for an all-zero group)
    length = np.select([d > 0 for d in digits[::-1]], [4, 3, 2, 1])
    tables["length"] = [np.where(g > 0, 4 * place + length, 0).astype(np.uint8)
                        for place in range(3)]

    e = np.arange(-_EXP_OFFSET, _EXP_OFFSET + 1)
    a = np.abs(e)
    wide = a >= 100
    exponent = _pack([np.full(e.shape, ord("e")),
                      np.where(e < 0, _MINUS, ord("+")),
                      _ZERO + np.where(wide, a // 100, a // 10),
                      _ZERO + np.where(wide, a // 10 % 10, a % 10),
                      np.where(wide, _ZERO + a % 10, _NUL)])

    # %.12e: sign, leading digit and point of the first word, per
    # 10*negative + leading digit
    lead = np.arange(20)
    tables["head"] = _pack([np.where(lead >= 10, _MINUS, _NUL),
                            _ZERO + lead % 10, np.full(20, _POINT)])
    tables["e_exponent"] = exponent

    # %.12g, per decimal exponent: the bytes before the digits (the sign's
    # byte, then "0." and up to three zeros in fixed notation below 1);
    # the bits the digits move up to make room for them; the exponent word
    # (NUL in fixed notation); 13 times the digit before which the point
    # goes (0: none)
    fixed = (e >= -4) & (e < 12)
    zeros = np.where(fixed & (e < 0), -e, 0)
    tables["g_exponent"] = np.stack([
        _pack([_NUL] + [np.where((zeros > 0) & (i <= zeros), ord(c), _NUL)
                        for i, c in enumerate("0.000")]),
        np.where(zeros > 0, 48, 8).astype(np.uint64),
        np.where(fixed, np.uint64(0), exponent),
        (13 * np.where(fixed, np.where(e >= 0, e + 1, 0), 1)).astype(np.uint64)])

    # per 13 * point position + significant digits: the digits kept in
    # place, the digits moved one byte up to make room for the point, and
    # the point, each as the two words of the 12 digits
    k, n = np.divmod(np.arange(13 * 13), 13)
    keep = np.maximum(k, n)
    point = np.where((k > 0) & (n > k), _POINT, _NUL)
    tables["point"] = np.stack([
        _byte_mask(0, k), _byte_mask(0, k - 8),
        _byte_mask(k, keep), _byte_mask(k - 8, keep - 8),
        _pack([point * (k == i) for i in range(8)]),
        _pack([point * (k == i + 8) for i in range(8)])])
    return tables


def _scaled(values: np.ndarray, precision: int):
    """Significant digits of each value as an integer, with its sign and
    exponent, and the indices of values that % has to format.

    Returns (negative, digits, exponent index, fallback indices): digits
    is the value rounded to `precision` significant digits times a power
    of ten, and the exponent index is the decimal exponent plus
    _EXP_OFFSET.  Zeros come out with digits 0 and exponent 0.
    """
    t = _tables()
    bits = values.view(np.uint64)
    magnitude = bits & ~_SIGN_BIT
    biased = (magnitude >> np.uint64(52)).view(np.intp)
    index, inside = t[precision]
    ok = inside.take(biased) | (magnitude == 0)
    v = magnitude.view(np.float64)
    if not ok.all():
        v[~ok] = 1.0  # keeps NaN, inf and subnormals out of the arithmetic
    k = index.take(biased)
    top = 10.0 ** precision
    pow10 = t["pow10"]
    k -= v * pow10.take(k) >= top
    y = v * pow10.take(k)
    digits = np.rint(y)
    # ties and near-ties go through %: y is within 2**-52 * y of the exact
    # product, half this band
    tie = np.abs(y - digits) >= 0.5 - y * 2.0 ** -51
    carry = digits >= top
    digits[carry] = top / 10
    exponent = (_EXP_OFFSET + _POW_LIMIT + precision - 1) - k + carry
    fallback = np.flatnonzero(tie | ~ok)
    return bits >> np.uint64(63), digits.astype(np.int64), exponent, fallback


def _e_cells(values: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Write %.12e cells into out's three words per value: the sign, the
    leading digit, the point and the next four digits; eight digits; the
    exponent.  Returns the indices left to %."""
    t = _tables()
    negative, digits, exponent, fallback = _scaled(values, 13)
    ascii4 = t["ascii4"]
    lead = digits // 10 ** 12
    g1 = digits // 10 ** 8 - lead * 10 ** 4
    g2 = digits // 10 ** 4 % 10 ** 4
    g3 = digits % 10 ** 4
    head = t["head"].take(negative.view(np.int64) * 10 + lead)
    np.bitwise_or(head, ascii4.take(g1) << np.uint64(32), out=out[:, 0])
    np.bitwise_or(ascii4.take(g2), ascii4.take(g3) << np.uint64(32),
                  out=out[:, 1])
    t["e_exponent"].take(exponent, out=out[:, 2])
    return fallback


def _g_cells(values: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Write %.12g cells into out's three words per value: the sign, the
    fixed-notation prefix, the significant digits with the point moved in,
    and the exponent of e-notation, each at its bit offset.  Returns the
    indices left to %."""
    t = _tables()
    negative, digits, exponent, fallback = _scaled(values, 12)
    g1 = digits // 10 ** 8
    rest = digits - g1 * 10 ** 8
    g2 = rest // 10 ** 4
    g3 = rest - g2 * 10 ** 4
    ascii4, length = t["ascii4"], t["length"]
    a = ascii4.take(g1) | ascii4.take(g2) << np.uint64(32)
    b = ascii4.take(g3)
    significant = np.maximum(np.maximum(length[0].take(g1),
                                        length[1].take(g2)),
                             length[2].take(g3))
    head, shift, tail, point_at = (row.take(exponent)
                                   for row in t["g_exponent"])
    key = (point_at + significant).view(np.intp)
    low_a, low_b, high_a, high_b, point_a, point_b = (row.take(key)
                                                      for row in t["point"])
    eight = np.uint64(8)
    high_a &= a
    high_b &= b
    a &= low_a
    a |= high_a << eight
    a |= point_a
    b &= low_b
    b |= high_b << eight
    b |= high_a >> np.uint64(56)
    b |= point_b
    head |= negative * np.uint64(_MINUS)
    np.bitwise_or(head, a << shift, out=out[:, 0])
    back = np.uint64(64) - shift
    np.bitwise_or(a >> back, b << shift, out=out[:, 1])
    np.bitwise_or(b >> back, tail, out=out[:, 2])
    return fallback


#: each format's kernel
_KERNELS = {"%.12e": _e_cells, "%.12g": _g_cells}

_COMMA, _NEWLINE = (np.uint64(ord(c)) << np.uint64(56) for c in ",\n")


def _percent(template: str, values: np.ndarray) -> str:
    return template % tuple(values.tolist())


def format_rows(formats: Sequence[str], table: np.ndarray) -> str:
    """One CSV line per row of a 2-d float table, value j in formats[j].

    The text equals that of one % operation on the table's values as
    Python floats.  A table with a format other than %.12g and %.12e, or
    on a big-endian host, is formatted that way.  Otherwise each column goes through its format's
    kernel, which writes each value into a cell of three uint64 words
    padded with NUL.
    """
    if not set(formats) <= _KERNELS.keys() or sys.byteorder != "little":
        line = ",".join(formats) + "\n"
        return _percent(line * len(table), table.ravel())
    cells = np.empty((len(table), len(formats), 3), dtype=np.uint64)
    for j, fmt in enumerate(formats):
        values = np.ascontiguousarray(table[:, j], dtype=np.float64)
        out = cells[:, j]
        fallback = _KERNELS[fmt](values, out)
        if fallback.size:
            # % writes at most 20 bytes, so a cell's last byte stays NUL
            text = _percent((fmt + "\0") * fallback.size, values[fallback])
            cell = b"".join(s.encode().ljust(24, b"\0")
                            for s in text.split("\0")[:-1])
            out[fallback] = np.frombuffer(cell, dtype=np.uint64).reshape(-1, 3)
        # the separator goes in the cell's last byte, NUL so far
        out[:, 2] |= _NEWLINE if j == len(formats) - 1 else _COMMA
    return cells.tobytes().translate(None, b"\0").decode("ascii")
