"""CSV text of large numeric tables in one numpy pass, byte for byte as the
``%`` writer makes it.

A table whose columns are all float64, or ints in [0, 10^16), is laid out as
a NUL-padded byte matrix, one line per table row, and its text is the
matrix's bytes with the NULs dropped.

Floats are written as ``'%.17g' %`` writes them.  For |x| = m 2^q with m in
[2^52, 2^53) and the estimate E of floor(log10 |x|), the product of m and
the 128-bit floor of 10^(16-E) 2^(127-b), b = floor(log2 10^(16-E)), on
32-bit limbs in uint64, gives the 17-digit significand D and 64 bits of
fraction.  The table entry is short of the exact power by under one part in
2^127, so the product is short by under half a fraction unit, and the
fraction is floored on top: it is under 2 units short of the exact one.  The
value rounds up iff the fraction is at least one half, and D = 10^17 becomes
10^16 with E + 1.  That decides every value but a few, which ``'%.17g' %``
writes itself: those whose fraction lies within 2 units of one half (the
ties among them), those whose estimate E missed (D outside [10^16, 10^17)),
and 0, -0, nan and +-inf.  The digits come from a 4-digit lookup, and each
value's text is laid out in fixed slots: fixed-point iff -4 <= E < 17, no
trailing zeros, no bare point, and an exponent of at least two digits.
"""

from __future__ import annotations

import functools

import numpy as np

# Just above the crossover measured on tables of 3 to 26 columns, about 700
# to 900 cells: below it one `%` operation beats the encoder's fixed ~100
# numpy calls.  It counts cells, not rows, because the `%` cost grows with
# the cells of a row and the encoder's fixed cost barely does: in rows the
# crossover ran from about 30 (26 columns) to 300 (3 columns).
MIN_CELLS = 1024

_POW_MIN, _POW_MAX = -292, 340   # 16 - E for |x| from 1.8e308 down to 5e-324
_EXP_MIN, _EXP_MAX = 16 - _POW_MAX, 17 - _POW_MIN   # written exponents, after a carry
_E16, _E17 = 10 ** 16, 10 ** 17
_M32, _S32 = np.uint64(0xFFFFFFFF), np.uint64(32)
_HALF = np.uint64(1 << 63)
_NEAR = 2                        # fraction units either side of one half written by `%`
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
    the exponent words by E - _EXP_MIN (the last all NUL), and the limbs (low
    first, one row per limb) and b - 52 by 16 - E - _POW_MIN."""
    n = np.arange(10000, dtype=np.uint16)
    quads = (n[:, None] // np.array([1000, 100, 10, 1], dtype=np.uint16) % 10 + 48).astype(np.uint8)
    tz = (n % 10 == 0).astype(np.uint8) + (n % 100 == 0) + (n % 1000 == 0) + (n == 0)
    head = np.array([sign + ("0." + "0" * (k - 1) if k else "") for k in range(5)
                     for sign in ("", "-")], dtype="S8")
    words = np.array([f"e{e:+03d}" for e in range(_EXP_MIN, _EXP_MAX + 1)] + [""], dtype="S8")
    # Python ints are exact at any size; one power at a time keeps the big
    # ints of only one alive (object arrays held all of them at once, for
    # about 0.7 MiB more peak memory and no gain in time)
    f, b = [], []
    for a in range(_POW_MIN, _POW_MAX + 1):
        p = 10 ** abs(a)
        b.append(p.bit_length() - 1 if a >= 0 else -p.bit_length())   # 10^a is no power of 2
        f.append((p << 127) >> b[-1] if a >= 0 else (1 << 127 - b[-1]) // p)
    limbs = np.array([[x >> 32 * k & 0xFFFFFFFF for x in f] for k in range(4)], dtype=np.uint64)
    return (quads.view(np.uint32).ravel(), tz, head.view(np.uint64), words.view(np.uint64),
            limbs, np.array(b) - 52)


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


def _float_rows(x, tables):
    """(_CELL, n) text of float64 values, one row per byte: column i is the
    ``'%.17g' %`` text of x[i] with NULs between and after."""
    quads, tz4, head_words, exp_words, limbs, bexp = tables
    n = x.size
    ok = np.isfinite(x) & (x != 0.0)
    ax = np.where(ok, np.abs(x), 1.0)
    mant, e2 = np.frexp(ax)
    a = np.clip(16 - _POW_MIN - _exp10(ax), 0, _POW_MAX - _POW_MIN).astype(np.intp)
    # m 2^z times the table entry puts D in limbs 4-5 of the product and the
    # fraction in limbs 2-3; z is 1..5 where E is right, and clipped otherwise
    z = e2 + bexp[a]
    zc = np.clip(z, 0, 10)
    m = np.ldexp(mant, 53).astype(np.uint64) << zc.astype(np.uint64)
    m0, m1 = m & _M32, m >> _S32
    p = [[mi * limbs[k][a] for k in range(4)] for mi in (m0, m1)]
    lo = [[pk & _M32 for pk in pi] for pi in p]
    hi = [[pk >> _S32 for pk in pi] for pi in p]
    c = hi[0][0] + lo[0][1] + lo[1][0]
    c = (c >> _S32) + hi[0][1] + hi[1][0] + lo[0][2] + lo[1][1]
    frac = c & _M32
    c = (c >> _S32) + hi[0][2] + hi[1][1] + lo[0][3] + lo[1][2]
    frac |= c << _S32
    c = (c >> _S32) + hi[0][3] + hi[1][2] + lo[1][3]
    d = (c & _M32) | (((c >> _S32) + hi[1][3]) << _S32)

    redo = (~ok | (z != zc) | (d < _E16) | (d >= _E17)
            | (frac - (_HALF - np.uint64(_NEAR)) <= np.uint64(2 * _NEAR)))
    d = np.where(redo, _E16, d + (frac >= _HALF))
    exp10 = 16 - _POW_MIN - a
    carry = d == _E17
    d[carry] = _E16
    exp10 += carry

    lead = d // np.uint64(_E16)
    q = _quads((d - lead * np.uint64(_E16)).astype(np.intp))
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
    digits[1] = lead + np.uint64(48)
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
