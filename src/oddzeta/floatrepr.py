"""``repr`` of float64 arrays, byte for byte, without a Python loop.

``shortest_decimal`` gives the digits of each float that ``repr``
prints: the shortest decimal that reads back as the float and, of those,
the closest, from the common path of Ryu (Adams, "Ryu: fast
float-to-string conversion", PLDI 2018; ``d2d`` of the reference
``d2s.c``) run on whole arrays in uint64 arithmetic.  ``float_cells``
lays them out as ``float_repr_style = 'short'`` does, as rows of ASCII
bytes, and leaves to ``repr`` itself, one value at a time, every value
Ryu sends to its general path.  ``oddzeta spectrum`` writes its floats
through it; its tables are built on first use.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

import numpy as np


class _Tables(NamedTuple):
    """The constants of ``shortest_decimal`` and ``float_cells``."""

    mul_lo: np.ndarray  # per binary exponent: low and high 64 bits of
    mul_hi: np.ndarray  # Ryu's 125-bit multiplier 5^-q or 5^i
    shift: np.ndarray  # j - 96, the product's bits dropped past its limb 3
    e10: np.ndarray  # the decimal exponent of vr, vp and vm
    # the low bits of 4 m2 whose zeros put the value on Ryu's
    # trailing-zero path; 0 where every value of the exponent falls back
    mask: np.ndarray
    hidden: np.ndarray  # 4 * 2^52 for a normal value, 0 for a subnormal
    pow10: np.ndarray  # 10^k, k = 0..19
    pow10_below: np.ndarray  # 10^(k-1), and for k = 0 a divisor above all
    three: np.ndarray  # the three ASCII digits of 0..999
    upto: np.ndarray  # row k: ones in columns 1..k of 18
    prefix: np.ndarray  # sign and leading "0": "", "0", "-", "-0"
    point: np.ndarray  # "", ".", ".0", ".00", ".000"
    exponent: np.ndarray  # "e-324" .. "e+308" by exponent + 324, then ""


@functools.cache
def _tables() -> _Tables:
    """The tables, built from Python ints on first use: Ryu's 342
    multipliers 2^(125 + bits(5^q) - 1)/5^q + 1 of e2 >= 0 and 326
    multipliers 5^i cut to 125 bits of e2 < 0, each binary exponent's
    taken out with its shift, decimal exponent and trailing-zero mask."""
    five = [5 ** k for k in range(342)]
    bits = np.array([p.bit_length() for p in five])
    mul = ([(1 << (b - 1 + 125)) // p + 1 for p, b in zip(five, bits.tolist())]
           + [p >> (b - 125) if b > 125 else p << (125 - b)
              for p, b in zip(five[:326], bits.tolist())])
    # every biased exponent 0..2047, a subnormal's (0) read as 1
    e2 = np.maximum(np.arange(2048), 1) - 1077
    up = e2 >= 0
    q = np.where(up, (e2 * 78913 >> 18) - (e2 > 3),
                 (-e2 * 732923 >> 20) - (-e2 > 1))
    # the multiplier: 5^-q for e2 >= 0, 5^i for e2 < 0
    q_up, i = np.where(up, q, 0), np.where(up, 0, -e2 - q)
    row = np.where(up, q, 342 + i)
    j = np.where(up, q - e2 + 124 + bits[q_up], q - bits[i] + 125)
    one = np.uint64(1)
    mask = np.where(up, np.uint64(2 ** 63 - 1),
                    (one << np.minimum(q, 63).astype(np.uint64)) - one)
    mask[(up & (q <= 21)) | (~up & (q <= 1))] = 0
    mask[-1] = 0  # inf and nan
    hidden = np.full(2048, 1 << 54, np.uint64)
    hidden[0] = 0
    pow10 = np.array([10 ** k for k in range(20)], np.uint64)
    upto = np.tri(19, 18, 0, np.uint8)
    upto[:, 0] = 0
    exponent = np.zeros((634, 5), np.uint8)
    for k in range(-324, 309):
        cell = f"e{k:+03d}".encode()
        exponent[k + 324, :len(cell)] = np.frombuffer(cell, np.uint8)
    return _Tables(
        mul_lo=np.array([m & (2 ** 64 - 1) for m in mul], np.uint64)[row],
        mul_hi=np.array([m >> 64 for m in mul], np.uint64)[row],
        shift=(j - 96).astype(np.uint64), e10=np.where(up, q, q + e2),
        mask=mask, hidden=hidden, pow10=pow10,
        pow10_below=np.concatenate([[np.uint64(2 ** 64 - 1)], pow10[:-1]]),
        three=np.frombuffer(b"".join(b"%03d" % k for k in range(1000)),
                            np.uint8).reshape(1000, 3),
        upto=upto,
        prefix=np.frombuffer(b"\0\0" b"\x000" b"-\0" b"-0",
                             np.uint8).reshape(4, 2),
        point=np.frombuffer(b"\0\0\0\0.\0\0\0.0\0\0.00\0.000",
                            np.uint8).reshape(5, 4),
        exponent=exponent)


def shortest_decimal(values: np.ndarray):
    """The shortest decimal of each float64 that reads back as it, closest
    to it, as ``repr`` gives it: (digits, exponent, settled), each value
    ``digits * 10**exponent`` where ``settled``.

    Ryu's common path (``d2d`` of ``d2s.c``) in uint64 arithmetic, every
    operand an explicit uint64.  The 64 x 128-bit product X = 4 m2 * M is
    summed in 32-bit limbs; its neighbours (4 m2 + 2) M and
    (4 m2 - 1 - mmShift) M are X plus or minus a multiple of M, formed
    from X's bits below the shift.  Not settled, and left to ``repr``:
    zeros, inf and nan, e2 >= 0 with q <= 21, and every value whose
    interval ends may be exact decimals (``vmIsTrailingZeros`` or
    ``vrIsTrailingZeros``), where Ryu takes its general path.
    """
    t = _tables()
    u64, low32 = np.uint64, np.uint64(0xFFFFFFFF)
    bits = np.ascontiguousarray(values, np.float64).view(np.uint64)
    exp = (bits >> u64(52)).astype(np.intp) & 0x7FF
    mant = bits & u64(2 ** 52 - 1)
    mul_lo, mul_hi = t.mul_lo.take(exp), t.mul_hi.take(exp)
    shift = t.shift.take(exp)
    mv = (mant << u64(2)) | t.hidden.take(exp)
    settled = (mv & t.mask.take(exp)) != u64(0)
    # mmShift: the interval below is half as wide at a power of two
    mm = ((mant != u64(0)) | (exp <= 1)).astype(np.uint64)
    # X in 32-bit columns: m0, m1 the limbs of 4 m2 (m1 < 2^23), c0..c3
    # those of M; column k sums the halves of the limb products it holds
    # and the carry of column k - 1
    m0, m1 = mv & low32, mv >> u64(32)
    c0, c1 = mul_lo & low32, mul_lo >> u64(32)
    c2, c3 = mul_hi & low32, mul_hi >> u64(32)
    p0, p1, p2, p3 = m0 * c0, m0 * c1, m0 * c2, m0 * c3
    col1 = (p0 >> u64(32)) + (p1 & low32) + m1 * c0
    col2 = (p1 >> u64(32)) + (p2 & low32) + m1 * c1 + (col1 >> u64(32))
    col3 = (p2 >> u64(32)) + (p3 & low32) + m1 * c2 + (col2 >> u64(32))
    col4 = (p3 >> u64(32)) + m1 * c3 + (col3 >> u64(32))
    # j = 96 + shift lies in 118..125: vr = X >> j, and X's bits below j
    # as the 64-bit halves rl, rh
    vr = ((col3 & low32) >> shift) | (col4 << (u64(32) - shift))
    rl = (p0 & low32) | (col1 << u64(32))
    rh = (col2 & low32) | ((col3 << (u64(64) - shift)) >> (u64(32) - shift))
    high = shift + u64(32)
    # vp = (X + 2M) >> j: the carry out of the low halves joins rh
    carry = (rl + (mul_lo << u64(1))) < rl
    vp = vr + ((rh + ((mul_hi << u64(1)) | (mul_lo >> u64(63))) + carry)
               >> high)
    # vm = (X - (1 + mm) M) >> j: vr plus the floor, at most 0, of
    # (X's bits below j - (1 + mm) M) / 2^j, from their high halves
    below_lo = mul_lo << mm
    below_hi = (mul_hi << mm) | ((mul_lo >> u64(63)) * mm)
    borrow = (rh.view(np.int64) - below_hi.view(np.int64) - (rl < below_lo)
              ) >> high.view(np.int64)
    vm = vr - (-borrow).view(np.uint64)
    # the digits dropped: while vp and vm differ above the last digit,
    # a count that stops once it stops for every value
    removed = np.zeros(bits.shape, np.intp)
    above_p, above_m, ten = vp, vm, u64(10)
    while True:
        above_p, above_m = above_p // ten, above_m // ten
        go = above_p > above_m
        if not go.any():
            break
        removed += go
    kept = t.pow10.take(removed)
    digits = vr // kept
    last = vr // t.pow10_below.take(removed)
    last -= last // ten * ten
    # vr + 1 where vr is vm, outside the interval, or rounds up
    digits += (digits == vm // kept) | (last >= u64(5))
    return digits, t.e10.take(exp) + removed, settled


#: the width of a ``float_cells`` row: sign and leading zero, 17 digits
#: and a spare, the point and up to three zeros, 17 digits and a spare,
#: the exponent
CELL_WIDTH = 2 + 18 + 4 + 18 + 5


def float_cells(values: np.ndarray) -> np.ndarray:
    """``repr(float(v))`` of every float64 in a 1-D block as ASCII bytes:
    a uint8 matrix with one row per value, which is its repr once its NULs
    are dropped.

    Digits from ``shortest_decimal``, laid out as ``float_repr_style =
    'short'`` does: fixed notation for a decimal point position ``decpt``
    (value = 0.d1 d2 ... * 10^decpt) in -3..16, else d1.d2...e+XX, with a
    sign, a leading "0.", zeros after the point, a trailing ".0" and a
    two- or three-digit exponent each a row of a table; a value
    ``shortest_decimal`` does not settle is ``repr``'s own, one at a
    time.
    """
    t = _tables()
    u64 = np.uint64
    values = np.ascontiguousarray(values, np.float64)
    output, exp10, settled = shortest_decimal(values)
    # the number of digits, from the float log10 then made exact
    n = np.log10((output | u64(1)).astype(np.float64)).astype(np.intp) + 1
    n += output >= t.pow10.take(np.minimum(n, 19))
    n -= output < t.pow10.take(np.clip(n - 1, 0, 19))
    np.clip(n, 1, 17, out=n)  # an unsettled value's digits are not used
    decpt = exp10 + n
    # the digits left-aligned in 18 columns, column 0 always "0": six
    # rows of ``three``
    x = output * t.pow10.take(17 - n)
    groups = np.empty((len(values), 6), np.intp)
    billions = x // u64(10 ** 9)
    for k, part in enumerate((billions, x - billions * u64(10 ** 9))):
        millions, thousands = part // u64(10 ** 6), part // u64(1000)
        groups[:, 3 * k] = millions
        groups[:, 3 * k + 1] = thousands - millions * u64(1000)
        groups[:, 3 * k + 2] = part - thousands * u64(1000)
    digits = t.three.take(groups, axis=0, mode="clip").reshape(-1, 18)
    fixed = (decpt > -4) & (decpt <= 16)
    small = fixed & (decpt <= 0)
    # digits before the point, and the end of those after it: a fixed
    # number keeps its ".0", an exponent one of one digit has no point
    whole = np.where(fixed, np.maximum(decpt, 0), 1)
    end = np.where(fixed & ~small, np.maximum(n, decpt + 1), n)
    front = digits * t.upto.take(whole, axis=0, mode="clip")
    cells = np.concatenate([
        t.prefix.take((values < 0) * 2 + small, axis=0),
        front,
        t.point.take(np.where(fixed, 1 - np.minimum(decpt, 0), n > 1),
                     axis=0, mode="clip"),
        digits * t.upto.take(end, axis=0, mode="clip") - front,
        t.exponent.take(np.where(fixed, 633, decpt + 323), axis=0,
                        mode="clip"),
    ], axis=1)
    if not settled.all():
        rows = np.flatnonzero(~settled)
        cells[rows] = np.array(
            [repr(v) for v in values[rows].tolist()],
            f"S{CELL_WIDTH}").view(np.uint8).reshape(-1, CELL_WIDTH)
    return cells
