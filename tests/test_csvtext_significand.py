"""The table encoder's double-double significand against the exact Python-int
oracle: for v = |x| 10^(16 - E), D plus its fraction lies within the error
the `csvtext` docstring derives, every value near a tie is left to `%`, and
the text of every value is that of ``'%.17g' %``."""

import functools
import math
import tracemalloc
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from harmtomo import csvtext
from oracles import decimal_significand

ERROR = Fraction(1, 2 ** 45)      # the bound on |D + fraction - v| the docstring derives
WINDOW = Fraction(csvtext._NEAR)


def _first_hit(a, m, lo, hi):
    """The smallest x >= 0 with lo <= a x mod m <= hi (0 <= lo <= hi < m), or
    None.  Where no multiple of a falls in [lo, hi], a x - m y lands there for
    the smallest y with m y mod a in [c - (hi - lo), c], c = -lo mod a: the
    same question on (m mod a, a), as in Euclid's algorithm."""
    a %= m
    if lo == 0:
        return 0
    if a == 0:
        return None
    x = -(-lo // a)
    if a * x <= hi:
        return x
    c = -lo % a
    y = _first_hit(m % a, a, c - (hi - lo), c)
    return None if y is None else -(-(lo + m * y) // a)


def _near_half(E, e2, delta, above):
    """The least double x = m 2^(e2 - 53), m of 53 bits, whose v has a
    fraction in (1/2, 1/2 + delta] (above) or [1/2 - delta, 1/2), or None.
    v = m P / Q, so the fraction is (m P mod Q) / Q."""
    theta = Fraction(2) ** (e2 - 53) * Fraction(10) ** (16 - E)
    P, Q = theta.numerator, theta.denominator
    if above:
        lo, hi = Q // 2 + 1, math.floor(Q * (Fraction(1, 2) + delta))
    else:
        lo, hi = math.ceil(Q * (Fraction(1, 2) - delta)), -(-Q // 2) - 1
    if lo > hi:
        return None
    shift = P * 2 ** 52 % Q                # m = 2^52 + x
    lo, hi = (lo - shift) % Q, (hi - shift) % Q
    x = _first_hit(P, Q, lo, hi) if lo <= hi else 0
    return None if x is None or x >= 2 ** 52 else math.ldexp(2 ** 52 + x, e2 - 53)


def _exact_exp10(x):
    return Decimal(x).adjusted()


@functools.cache
def near_halves():
    """Doubles whose fraction lies within 2^-k of one half, on each side, for
    k = 20, 24, ..., 64: from each binade of every decade E of the normal
    doubles, the least one at each k until none is left (about 1 binade in
    2^9 has one within 2^-60); k = 20 to 40 from every eighth decade only."""
    out = []
    for E in range(-307, 308):
        e_lo = math.frexp(10.0 ** E)[1]
        for e2 in range(e_lo, e_lo + 4):
            for above in (True, False):
                for k in range(20 if E % 8 == 0 else 44, 66, 4):
                    x = _near_half(E, e2, Fraction(1, 2 ** k), above)
                    if x is None:
                        break
                    if _exact_exp10(x) == E:
                        out.append(x)
    return np.array(out)


def _ties():
    """Every exact tie of the 17-digit rounding is o / 2^(a + 1) for odd o
    below 2^53 with a = 16 - E and 2 D + 1 = 5^a o, D in [10^16, 10^17):
    so -8 <= E <= 15.  Up to 400 per decade, with the first and last."""
    rng = np.random.default_rng(34)
    out = []
    for E in range(-8, 17):
        a = 16 - E
        first = -(-2 * 10 ** 16 // 5 ** a) | 1
        last = min(2 * 10 ** 17 // 5 ** a, 2 ** 53 - 1)
        last -= 1 - last % 2
        if first > last:
            continue
        count = (last - first) // 2 + 1
        picks = {0, count - 1} | {int(i) for i in rng.integers(0, count, min(count, 400))}
        out += [math.ldexp(first + 2 * i, -a - 1) for i in sorted(picks)]
    return np.array(out)


def _powers_of_ten():
    tens = np.array([float(f"1e{k}") for k in range(-323, 309)])
    return np.concatenate([tens, np.nextafter(tens, np.inf), np.nextafter(tens, 0.0)])


EDGES = np.array([5e-324, 1e-323, 2.5e-323, 1.23456789e-310, 2.2250738585072009e-308,
                  2.2250738585072014e-308, 2.2250738585072019e-308, 1.7976931348623157e308,
                  np.nextafter(1.7976931348623157e308, 0.0), 1e308, 9.999999999999999e307])
SUBNORMALS = np.ldexp(np.random.default_rng(7).integers(1, 2 ** 52, 5000).astype(np.float64),
                      -1074)

SETS = {"near-halves": near_halves, "ties": _ties, "powers-of-ten": _powers_of_ten,
        "subnormals-and-largest": lambda: np.concatenate([EDGES, SUBNORMALS])}


def _significand(x):
    """The encoder's D and fraction with the exact E, and the oracle's."""
    exps = [_exact_exp10(v) for v in x.tolist()]
    d, t = csvtext._significand(np.abs(x), np.array(exps, dtype=np.intp), csvtext._tables())
    exact = [decimal_significand(v, e) for v, e in zip(x.tolist(), exps)]
    return d.tolist(), t.tolist(), exact


@pytest.mark.parametrize("name", sorted(SETS))
def test_significand_is_within_the_stated_error(name):
    x = SETS[name]()
    d, t, exact = _significand(x)
    errors = [abs(di - D + Fraction(ti) - frac) for di, ti, (D, frac) in zip(d, t, exact)]
    assert max(errors) <= ERROR
    for di, ti, (D, frac) in zip(d, t, exact):
        if abs(frac - Fraction(1, 2)) <= WINDOW - ERROR:
            assert abs(Fraction(ti) - Fraction(1, 2)) <= WINDOW      # written by `%`
        elif abs(frac - Fraction(1, 2)) > WINDOW + ERROR:
            assert di + (ti >= 0.5) == D + (frac > Fraction(1, 2))


@pytest.mark.parametrize("name", sorted(SETS))
def test_text_is_percent_17g(name):
    x = SETS[name]()
    x = np.concatenate([x, -x])
    lines = csvtext.encode_rows([x], "\n").split("\n")[:-1]
    assert [(v, g) for v, g in zip(x.tolist(), lines) if g != "%.17g" % v][:5] == []


def test_sets_reach_their_extremes():
    # fractions from 2^-20 of one half down to 2^-60 and below, on both sides
    # and on both sides of the window; ties in every decade that has them;
    # and 10^k for every k with its neighbours
    gaps = [frac - Fraction(1, 2) for D, frac in
            (decimal_significand(v, _exact_exp10(v)) for v in near_halves().tolist())]
    for k in range(20, 61, 4):
        assert any(Fraction(1, 2 ** (k + 4)) < g <= Fraction(1, 2 ** k) for g in gaps), k
        assert any(-Fraction(1, 2 ** k) <= g < -Fraction(1, 2 ** (k + 4)) for g in gaps), k
    assert sum(1 for g in gaps if WINDOW + ERROR < abs(g) <= 64 * WINDOW) > 500
    ties = _ties().tolist()
    assert all(decimal_significand(v, _exact_exp10(v))[1] == Fraction(1, 2) for v in ties)
    assert {_exact_exp10(v) for v in ties} == set(range(-8, 16))
    assert _powers_of_ten().size == 3 * 632


def test_encoder_working_set_of_a_forward_field_table():
    # a 1024 x 4 forward-solve field table: its peak traced allocation,
    # 918 KiB with a 128-bit limb product whose 24 temporaries stayed alive
    rng = np.random.default_rng(3)
    m, j = np.indices((64, 16))
    u = rng.standard_normal((2, 64, 16)) * 10.0 ** rng.integers(-12, 0, (2, 64, 16))
    cols = [m.ravel() + 1, j.ravel(), u[0].ravel(), u[1].ravel()]
    csvtext.encode_rows(cols, ",hash\r\n")
    tracemalloc.start()
    try:
        csvtext.encode_rows(cols, ",hash\r\n")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 460 * 1024


@pytest.mark.parametrize("off", [-2, 2])
def test_a_missed_estimate_goes_to_percent(monkeypatch, off):
    # an estimate two decades off puts the power of 2 that scales the product
    # outside 0..4; scaled by 2^0 instead, D could land in [10^16, 10^17)
    monkeypatch.setattr(csvtext, "_exp10", lambda ax: np.floor(np.log10(ax)) + off)
    rng = np.random.default_rng(11)
    x = rng.standard_normal(20_000) * 10.0 ** rng.integers(-200, 200, 20_000)
    lines = csvtext.encode_rows([x], "\n").split("\n")[:-1]
    assert [(v, g) for v, g in zip(x.tolist(), lines) if g != "%.17g" % v][:5] == []
