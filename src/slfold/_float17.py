"""The float cell kernel of ``fieldio._table_bytes``: ``'%.17g' % x`` for arrays.

For a finite x = f 2^e (``np.frexp``), a Dekker two-product of f with the
double-double 2^e 10^p of its exponent gives the 17-digit integer of |x| and
its decimal exponent X, correctly rounded: the error is below 1e-14 of a unit
in the last digit, and cells within 1e-7 of a rounding tie, like non-finite
cells, are left to ``fieldio.fmt``.  The double-doubles are built exactly,
from integers, for the exponents met; the other tables when this module is
imported, which ``fieldio`` does on its first table.
"""

from __future__ import annotations

import math

import numpy as np

from .fieldio import fmt

_E_MIN = -1073  # np.frexp exponent of the least subnormal, 2^-1074 = 0.5 * 2^-1073
_E_COUNT = 1024 - _E_MIN + 1
_X_MIN = -324  # decimal exponents X of nonzero doubles lie in [-324, 308]
_SPLIT = 134217729.0  # 2^27 + 1, Dekker's splitting constant
_U64 = np.uint64


def _cells(x: np.ndarray, sep: int) -> np.ndarray:
    """(len(x), 4) uint64: fmt(x[i]) in the bytes of row i, NUL padded, sep in its last byte.

    Word 0 holds the sign, the prefix '0.' + '0' * (-1 - X) of -4 <= X < 0, and
    the leading digit d0.  Words 1 and 2 hold the digits d1..d16 with the point
    moved in: digits past the point shift up a byte into word 3, which also
    holds the exponent 'e+XX' of X < -4 or X >= 17 and the separator.
    """
    finite = np.isfinite(x)
    digits, X, tie = _decimal(np.where(finite, np.abs(x), 0.0))
    xi = X - _X_MIN
    d0, w1, w2, zeros = _digit_words(digits)
    # keep d1..d16 up to the last nonzero one, and the integer part of fixed notation
    keep = np.take(_TABLES.keep, 16 - zeros, axis=0) | np.take(_TABLES.integer, xi, axis=0)
    w1 &= keep[:, 0]
    w2 &= keep[:, 1]
    left = np.take(_TABLES.left, xi, axis=0)
    l1, l2 = w1 & left[:, 0], w2 & left[:, 1]
    w1 ^= l1
    w2 ^= l2
    point = np.take(_TABLES.point, np.where((w1 | w2) != 0, xi, -1), axis=0)
    out = np.empty((len(x), 4), _U64)
    out[:, 0] = _TABLES.prefix.take(xi) | (np.signbit(x) * _U64(ord("-"))) | ((d0 + 48).astype(_U64) << _U64(56))
    out[:, 1] = l1 | (w1 << _U64(8)) | point[:, 0]
    out[:, 2] = l2 | (w2 << _U64(8)) | (w1 >> _U64(56)) | point[:, 1]
    out[:, 3] = (w2 >> _U64(56)) | _TABLES.exponent.take(xi) | _U64(sep << 56)
    fallback = np.flatnonzero(~finite | tie)
    if fallback.size:
        text = out.view(np.uint8).reshape(len(x), 32)
        for i in fallback.tolist():
            cell = fmt(x[i]).encode()
            text[i, :31] = 0
            text[i, : len(cell)] = np.frombuffer(cell, np.uint8)
    return out


def _digit_words(digits: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """d0, the ASCII of d1..d8 and of d9..d16 as words, and the trailing zeros of d1..d16."""
    d0 = digits // 10**16
    rest = digits - d0 * 10**16
    h8 = rest // 10**8
    l8 = rest - h8 * 10**8
    g1 = h8 // 10000  # four groups of four digits, g1..g4
    g2 = h8 - g1 * 10000
    g3 = l8 // 10000
    g4 = l8 - g3 * 10000
    trail = _TABLES.trailing_zeros
    zeros = trail.take(g4) + (g4 == 0) * trail.take(g3)
    zeros += (l8 == 0) * (trail.take(g2) + (g2 == 0) * trail.take(g1))
    quad = _TABLES.quad
    return d0, quad.take(g1) | (quad.take(g2) << _U64(32)), quad.take(g3) | (quad.take(g4) << _U64(32)), zeros


def _decimal(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """For finite a >= 0: the 17 significant digits of a as an integer D in
    [10^16, 10^17) (0 for a = 0), the decimal exponent X with a ~ D 10^(X - 16),
    and where D may be off, because a 10^(16 - X) lies within 1e-7 of a tie."""
    f, e = np.frexp(a)
    idx = e - _E_MIN
    _POWERS._cover(int(idx.min()), int(idx.max()))
    # y = a 10^(16 - X) as p + yl, with p = fl(f * hi) and yl the rest
    above = a >= _POWERS.cut.take(idx)
    hi, hi_head, hi_tail, lo = np.take(_POWERS.scale, 2 * idx + above, axis=0).T
    p = f * hi
    c = f * _SPLIT
    f_head = c - (c - f)
    f_tail = f - f_head
    yl = (((f_head * hi_head - p) + f_head * hi_tail + f_tail * hi_head) + f_tail * hi_tail) + f * lo
    r = np.rint(yl)
    tie = np.abs(yl - r) > 0.5 - 1e-7  # |yl - r| <= 1/2
    digits = p.astype(np.int64) + r.astype(np.int64)  # in [10^16, 10^17], or 0 for a = 0
    X = _POWERS.x0.take(idx) + above
    carry = digits == 10**17
    if carry.any():
        digits[carry] = 10**16
        X[carry] += 1
    X[a == 0.0] = 0
    return digits, X, tie


class _Powers:
    """For each frexp exponent e, the double-double 2^e 10^(16 - x0) and 2^e 10^(15 - x0).

    x0 = floor(log10 2^(e-1)), so x = f 2^e with f in [1/2, 1) lies in
    [10^x0, 2 10^(x0+1)): below cut, the least double >= 10^(x0+1), the first
    scale puts |x| in [10^16, 10^17) and X = x0; from cut on the second does and
    X = x0 + 1.  Entries are exact to the double-double and built on demand.
    """

    def __init__(self):
        self.scale = np.zeros((2 * _E_COUNT, 4))  # hi, Dekker halves of hi, lo
        self.x0 = np.zeros(_E_COUNT, np.int64)
        self.cut = np.zeros(_E_COUNT)
        self.built = (0, -1)

    def _cover(self, first: int, last: int) -> None:
        lo, hi = self.built
        if lo <= first and last <= hi:
            return
        new = range(first, last + 1) if lo > hi else range(min(first, lo), max(last, hi) + 1)
        for i in new:
            if not lo <= i <= hi:
                self._build(i)
        self.built = (new.start, new.stop - 1)

    def _build(self, i: int) -> None:
        e = i + _E_MIN
        x0 = len(str(2 ** (e - 1))) - 1 if e >= 1 else -len(str(2 ** (1 - e)))
        for k, p in enumerate((16 - x0, 15 - x0)):
            num = 2 ** max(e, 0) * 10 ** max(p, 0)
            den = 2 ** max(-e, 0) * 10 ** max(-p, 0)
            hi = num / den  # int / int rounds correctly
            hn, hd = hi.as_integer_ratio()
            c = hi * _SPLIT
            head = c - (c - hi)
            self.scale[2 * i + k] = hi, head, hi - head, (num * hd - hn * den) / (den * hd)
        num, den = (10 ** (x0 + 1), 1) if x0 >= -1 else (1, 10 ** (-1 - x0))
        cut = num / den
        cn, cd = cut.as_integer_ratio()
        self.cut[i] = math.nextafter(cut, math.inf) if cn * den < num * cd else cut
        self.x0[i] = x0


class _Tables:
    """Lookup tables of _cells: by four-digit group, by trailing zeros, and by X - _X_MIN."""

    def __init__(self):
        group = np.arange(10000)
        # the four ASCII digits of a group, most significant in the lowest byte
        quad = np.zeros(10000, np.int64)
        for k in range(4):
            quad += (group // 10 ** (3 - k) % 10 + ord("0")) << 8 * k
        self.quad = quad.astype(_U64)
        zeros = np.where(group == 0, 4, 0)
        for k in (10, 100, 1000):
            zeros += (group % k == 0) & (group > 0)
        self.trailing_zeros = zeros.astype(np.uint8)

        def digits(k: int) -> tuple[int, int]:  # d1..dk as a mask of words 1 and 2
            m = (1 << (8 * k)) - 1
            return m & (2**64 - 1), m >> 64

        self.keep = np.array([digits(k) for k in range(17)], _U64)
        xs = range(_X_MIN, 309)
        fixed = [-4 <= x < 17 for x in xs]
        # the digits of d1..d16 that stay before the point: d1..dX in fixed notation
        # at X >= 0, none in exponent notation (the point follows d0), and all at
        # X < 0, where the point is in the prefix
        before = [(x if x >= 0 else 16) if f else 0 for x, f in zip(xs, fixed)]
        self.left = np.array([digits(k) for k in before], _U64)
        self.integer = np.array([digits(k) if f and x >= 0 else (0, 0) for x, f, k in zip(xs, fixed, before)], _U64)
        # the point sits where the first digit after it was; the last row is "no point"
        self.point = np.zeros((len(xs) + 1, 2), _U64)
        for row, k in enumerate(before):
            if k < 16:
                self.point[row, k // 8] = ord(".") << (8 * (k % 8))
        self.prefix = np.array([_word(b"\0" + b"0." + b"0" * (-1 - x)) if f and x < 0 else 0
                                for x, f in zip(xs, fixed)], _U64)
        self.exponent = np.array([0 if f else _word(b"\0e%+03d" % x) for x, f in zip(xs, fixed)], _U64)


def _word(text: bytes) -> int:
    return int.from_bytes(text, "little")


_POWERS = _Powers()
_TABLES = _Tables()
