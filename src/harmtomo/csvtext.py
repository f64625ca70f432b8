"""CSV text of large numeric tables in one numpy pass, byte for byte as the
``%`` writer makes it.

A table whose columns are all float64, or ints in [0, 10^16), is laid out as
a NUL-padded byte matrix, one line per table row, and its text is the
matrix's bytes with the NULs dropped.

Floats are written as ``'%.17g' %`` writes them.  For |x| = m 2^(e-53) with
m in [2^52, 2^53) and the estimate E of floor(log10 |x|), the 17-digit
significand D and its fraction are the integer and fractional parts of
v = |x| 10^(16-E) = m (fh + fl) 2^z: 10^(16-E) ~ (fh + fl) 2^b with fh in
[1, 2] a double, fl the rest rounded to one, and z = e + b - 53, 0..4 where
E is right.  They come from a double-double product (Dekker, Numer. Math.
18 (1971) 224), every step on float64 arrays of the column's length:

- m splits into its high half mh, a multiple of 2^26 below 2^53, and its
  low 26 bits ml; fh splits into f1, its head rounded to 26 bits, and
  f2 = fh - f1 with |f2| <= 2^-26.  So the four partial products are exact.
- mh f1 is an even integer below 2^54, the head of D.  The whole parts of
  mh f2 and ml f1 join it; their fractions, ml f2 and m fl add up to T in
  (-2, 4).  Scaled by 2^z, D = head + floor(T) and the fraction is
  T - floor(T).

The error: m fl rounds by at most 2^-54; fl is off the rest of the power by
at most 2^-107, and the 128-bit power it comes from is short by under
2^-127, m times that under 2^-54 + 2^-74; the three additions into T, with
sums below 2, 3 and 4, round by at most 2^-53, 2^-52 and 2^-52.  That is
under 2^-50, under 2^-46 after 2^z <= 16, and T - floor(T) adds at most
2^-53 where T < 0: D plus the fraction is within 2^-45 of v.  So every v
more than _NEAR = 2^-40 from a half-integer rounds right: up iff the
fraction is at least one half, and D = 10^17 becomes 10^16 with E + 1.
``'%.17g' %`` writes the rest itself: values whose fraction lies within the
window of one half (the ties among them), those whose estimate E missed (z
outside 0..4, or D outside [10^16, 10^17)), and 0, -0, nan and +-inf.  The
digits come from a 4-digit lookup, and each value's text is laid out in
fixed slots: fixed-point iff -4 <= E < 17, no trailing zeros, no bare point,
and an exponent of at least two digits.
"""

from __future__ import annotations

import functools
import math

import numpy as np

# Just above the crossover measured on tables of 3 to 26 columns, about 500
# to 560 cells: below it one `%` operation beats the encoder's fixed ~100
# numpy calls.  It counts cells, not rows, because the `%` cost grows with
# the cells of a row and the encoder's fixed cost barely does: in rows the
# crossover runs from about 20 (26 columns) to 190 (3 columns).
MIN_CELLS = 640

_POW_MIN, _POW_MAX = -292, 340   # 16 - E for |x| from 1.8e308 down to 5e-324
_EXP_MIN, _EXP_MAX = 16 - _POW_MAX, 17 - _POW_MIN   # written exponents, after a carry
_E16, _E17 = 10 ** 16, 10 ** 17
_NEAR = 2.0 ** -40               # the window either side of one half written by `%`
# A float cell: the sign and, for -4 <= E < 0, "0." and -E - 1 zeros in the
# head; the 17 digits with the point slotted in after digit E (after digit
# 0 in the exponent form) in the body; "e", the exponent's sign and its two
# or three digits in the tail.  Unused bytes are NUL, and ``'%.17g' %``
# texts fit: "-1.2345678901234567e-308" is 24.
_HEAD, _BODY, _CELL = 6, 18, 29


@functools.cache
def _tables():
    """The lookups, built once: 4-digit ASCII groups as uint32 words, their
    trailing zero counts (0 counts 4), the head words by 2 (-E or 0) + sign,
    the exponent words by E - _EXP_MIN (the last all NUL), and f1, f2, fl
    and b - 53 by 16 - E - _POW_MIN."""
    n = np.arange(10000, dtype=np.uint16)
    quads = (n[:, None] // np.array([1000, 100, 10, 1], dtype=np.uint16) % 10 + 48).astype(np.uint8)
    tz = (n % 10 == 0).astype(np.uint8) + (n % 100 == 0) + (n % 1000 == 0) + (n == 0)
    head = np.array([sign + ("0." + "0" * (k - 1) if k else "") for k in range(5)
                     for sign in ("", "-")], dtype="S8")
    words = np.array([f"e{e:+03d}" for e in range(_EXP_MIN, _EXP_MAX + 1)] + [""], dtype="S8")
    # Python ints are exact at any size; one power at a time keeps the big
    # ints of only one alive (object arrays held all of them at once, for
    # about 0.7 MiB more peak memory and no gain in time).  f is the 128-bit
    # floor of 10^a 2^(127 - b): its top 53 bits, rounded, give the head
    # fh ~ f 2^-127 in [1, 2], and the rest, rounded to a double, fl
    hi, fl, b = [], [], []
    for a in range(_POW_MIN, _POW_MAX + 1):
        p = 10 ** abs(a)
        b.append(p.bit_length() - 1 if a >= 0 else -p.bit_length())   # 10^a is no power of 2
        f = (p << 127) >> b[-1] if a >= 0 else (1 << 127 - b[-1]) // p
        hi.append(f + (1 << 74) >> 75)
        fl.append(math.ldexp(f - (hi[-1] << 75), -127))
    # fh = f1 + f2 with f1 its head rounded to 26 bits: k 2^-25, k <= 2^26,
    # and |f2| <= 2^-26 a multiple of 2^-52
    hi = np.array(hi, dtype=np.int64)
    k = (hi + (1 << 26)) >> 27
    return (quads.view(np.uint32).ravel(), tz, head.view(np.uint64), words.view(np.uint64),
            np.ldexp(k, -25), np.ldexp(hi - (k << 27), -52), np.array(fl), np.array(b) - 53)


def encodable(arrays) -> bool:
    """Whether `encode_rows` takes these flat columns: each float64, or ints
    in [0, 10^16)."""
    return all(a.dtype == np.float64 or a.dtype.kind in "iu"
               and (a.size == 0 or a.min() >= 0 and a.max() < _E16) for a in arrays)


def _quads(v, count=4):
    """The last `count` 4-digit groups of values in [0, 10^16), most
    significant first."""
    if count <= 1:
        return [v % 10000][-count:]
    hi = v // 10 ** 8
    lo = v - hi * 10 ** 8
    q0, q2 = hi // 10000, lo // 10000
    return [q0, hi - q0 * 10000, q2, lo - q2 * 10000][-count:]


def _digit_rows(q, quads):
    """The ASCII digits of the 4-digit groups `q`, one row per digit."""
    words = quads[np.stack(q)]
    return words.view(np.uint8).reshape(len(q), -1, 4).transpose(0, 2, 1).reshape(4 * len(q), -1)


def _int_rows(v, quads):
    """(w, n) text of ints in [0, 10^16), one row per digit place: w the
    digits of the largest, leading zeros NUL."""
    w = len(str(int(v.max())))
    count = -(-w // 4)
    digits = _digit_rows(_quads(v, count), quads)[4 * count - w:]
    nd = 1 + np.searchsorted(10 ** np.arange(1, w), v, side="right")
    return digits * (np.arange(w)[:, None] >= w - nd)


def _exp10(ax):
    """The estimate E of floor(log10 ax): one high where np.log10 rounds up
    to an integer, and one low where it rounds down to one.  A function of
    its own so that a test can give the exact floor."""
    return np.floor(np.log10(ax))


def _significand(ax, exp10, tables):
    """The 17-digit significand D = floor(v), as int64, and the fraction
    v - D, as float64, of v = ax 10^(16 - exp10) for positive finite ax and
    exp10 in -324..308, the range of floor(log10 ax).  D is 0 where z, the
    power of 2 that scales the product, is outside 0..4: there exp10 is not
    floor(log10 ax)."""
    f1, f2, fl, bexp = tables[4:]
    a = 16 - _POW_MIN - exp10
    m, z = np.frexp(ax)
    z += bexp[a]
    missed = (z < 0) | (z > 4)
    z[missed] = 0
    m *= 2.0 ** 53
    t = m * fl[a]
    lo = m - np.floor(m * 2.0 ** -26) * 2.0 ** 26     # ml; m becomes mh
    m -= lo
    g = f2[a]
    t += lo * g
    p = m * g
    whole = np.floor(p)                                # below 2^28 with that of ml f1
    t += p - whole
    g = f1[a]
    np.multiply(lo, g, out=p)
    np.floor(p, out=lo)
    t += p - lo
    whole += lo
    d = (m * g).astype(np.int64)                       # mh f1, an even integer below 2^54
    d += whole.astype(np.int64)
    d <<= z
    np.ldexp(t, z, out=t)
    np.floor(t, out=p)
    t -= p
    d += p.astype(np.int64)
    d[missed] = 0
    return d, t


def _float_rows(x, tables):
    """(_CELL, n) text of float64 values, one row per byte: column i is the
    ``'%.17g' %`` text of x[i] with NULs between and after."""
    quads, tz4, head_words, exp_words = tables[:4]
    n = x.size
    ok = np.isfinite(x) & (x != 0.0)
    ax = np.where(ok, np.abs(x), 1.0)
    exp10 = _exp10(ax).astype(np.intp)
    d, t = _significand(ax, exp10, tables)
    del ax
    redo = ~ok | (d < _E16) | (d >= _E17) | (np.abs(t - 0.5) <= _NEAR)
    d = np.where(redo, _E16, d + (t >= 0.5))
    del t
    carry = d == _E17
    d[carry] = _E16
    exp10 += carry

    lead = d // _E16
    q = _quads(d - lead * _E16)
    zero = [qk == 0 for qk in q]
    nd = 17 - (tz4[q[3]] + zero[3] * (tz4[q[2]] + zero[2] * (tz4[q[1]] + zero[1] * tz4[q[0]])))
    expo = (exp10 < -4) | (exp10 >= 17)
    small = ~expo & (exp10 < 0)
    pt = np.where(expo, 0, exp10)                      # the digit the point follows
    pp = np.where(~small & (nd > pt + 1), pt + 1, _BODY).astype(np.uint8)
    shown = np.where(expo | small, nd, np.maximum(nd, exp10 + 1)).astype(np.uint8)

    # the body in uint8 arithmetic, several times faster here than nested
    # np.where: digit t before the point slot pp, "." at it, digit t - 1
    # after it, and NUL past the shown digits
    digits = np.zeros((_BODY + 1, n), dtype=np.uint8)  # NUL, digits 0-16, NUL
    digits[1] = lead + 48
    digits[2:18] = _digit_rows(q, quads)
    digits[1:18] *= np.arange(17, dtype=np.uint8)[:, None] < shown
    t = np.arange(_BODY, dtype=np.uint8)[:, None]
    body = digits[1:] - digits[:-1]
    body *= t < pp
    body += digits[:-1]
    body += (np.uint8(ord(".")) - body) * (t == pp)
    cells = np.empty((_CELL, n), dtype=np.uint8)
    head = head_words[2 * np.where(small, -exp10, 0) + np.signbit(x)]
    cells[:_HEAD] = head.view(np.uint8).reshape(n, 8)[:, :_HEAD].T
    cells[_HEAD:_HEAD + _BODY] = body
    tail = exp_words[np.where(expo, exp10 - _EXP_MIN, -1)]
    cells[_HEAD + _BODY:] = tail.view(np.uint8).reshape(n, 8)[:, :_CELL - _HEAD - _BODY].T
    r = np.flatnonzero(redo)
    if r.size:
        cells[:, r] = np.array(["%.17g" % v for v in x[r].tolist()],
                               dtype=f"S{_CELL}").view(np.uint8).reshape(r.size, _CELL).T
    return cells


def encode_rows(arrays, tail: str) -> str:
    """The text of `arrays` (flat, of one length, `encodable`) as CSV rows,
    the cells joined by commas and each row ended by `tail`: that of
    ``(row * n) % cells`` with floats as ``%.17g`` and ints as ``%s``."""
    tables = _tables()
    n = arrays[0].size
    text = [None] * len(arrays)
    for is_float in (True, False):
        cols = [i for i, a in enumerate(arrays) if (a.dtype == np.float64) == is_float]
        if cols:
            flat = np.concatenate([arrays[i] for i in cols], dtype=np.float64 if is_float
                                  else np.intp, casting="unsafe")
            rows = _float_rows(flat, tables) if is_float else _int_rows(flat, tables[0])
            rows = rows.reshape(-1, len(cols), n)
            for k, i in enumerate(cols):
                text[i] = rows[:, k]
    comma, newline = np.full((1, n), ord(","), np.uint8), np.full((1, n), ord("\n"), np.uint8)
    buf = np.concatenate([part for t in text for part in (comma, t)][1:] + [newline])
    return buf.T.tobytes().translate(None, b"\0").replace(b"\n", tail.encode()).decode()
