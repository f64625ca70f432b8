"""The numpy encoder of large numeric tables writes the bytes of the `%`
writer: floats as ``'%.17g' %`` and ints as ``'%s' %``, value for value."""

import math
from decimal import Decimal

import numpy as np
import pytest

from harmtomo import csvtext

RNG = np.random.default_rng(33)


def _ulp_neighbours(x):
    x = x[np.isfinite(x) & (x != 0.0)]
    return np.concatenate([x, np.nextafter(x, np.inf), np.nextafter(x, 0.0)])


def _signed(x):
    return x * np.where(RNG.random(x.size) < 0.5, -1.0, 1.0)


def _odd_dyadics():
    """k / 2^j for odd k: those with 18 significant digits, the last a 5,
    are the ties of the 17-digit rounding, about 1 in 6 of these."""
    j = np.repeat(np.arange(1, 65), 4000)
    k = RNG.integers(0, 2 ** RNG.integers(1, 54, j.size), dtype=np.int64) | 1
    return np.ldexp(k.astype(np.float64), -j)


FLOAT_SETS = {
    # every bit pattern: normals, subnormals, nan payloads and +-inf
    "bit-patterns": np.concatenate([
        RNG.integers(0, 2**64, 400_000, dtype=np.uint64).view(np.float64),
        _signed(RNG.integers(1, 2**52, 100_000, dtype=np.uint64).view(np.float64)),
        np.array([0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf, 5e-324, -5e-324,
                  2.2250738585072014e-308, 1.7976931348623157e308])]),
    # 10^k as the nearest double and as 10.0 ** k, and 2^k, each +-1 ulp
    "powers": _signed(np.concatenate([
        _ulp_neighbours(np.array([float(f"1e{k}") for k in range(-323, 309)])),
        _ulp_neighbours(10.0 ** np.arange(-323, 309)),
        _ulp_neighbours(np.ldexp(1.0, np.arange(-1074, 1024)))])),
    "dyadic": _signed(np.concatenate([
        _odd_dyadics(),
        np.array([k / 2.0**j for j in range(1, 13) for k in range(1, 4097)])])),
    "integers": _signed(np.concatenate([
        RNG.integers(0, 2**53, 150_000).astype(np.float64),
        np.arange(100_000, dtype=np.float64),
        _ulp_neighbours(10.0 ** np.arange(1, 23)), 10.0 ** np.arange(1, 23) - 1.0,
        np.array([2.0**53, 2.0**53 - 1.0])])),
    # the switches between fixed-point and exponent form
    "layout-switch": np.outer([1.0, -1.0], _ulp_neighbours(np.array([1e-5, 1e-4, 1e16, 1e17]))).ravel(),
    "data-like": np.concatenate([
        RNG.standard_normal(100_000) * 10.0 ** RNG.integers(-8, 8, 100_000),
        np.exp(RNG.uniform(-700.0, 700.0, 50_000))]),
}


def _mismatches(got, x, conv):
    lines = got.split("\n")
    assert lines.pop() == "" and len(lines) == x.size
    return [(v, g, conv % v) for v, g in zip(x.tolist(), lines) if g != conv % v]


@pytest.mark.parametrize("name", sorted(FLOAT_SETS))
def test_floats_are_percent_17g(name):
    x = FLOAT_SETS[name]
    assert _mismatches(csvtext.encode_rows([x], "\n"), x, "%.17g")[:5] == []


def test_float_sets_hold_ties_and_round_ups():
    # a million values, with exact ties of the 17-digit rounding, values
    # that round up to the next power of ten, and both layouts on each side
    # of their switches
    assert sum(x.size for x in FLOAT_SETS.values()) >= 1_000_000
    ties = [d for d in map(Decimal, FLOAT_SETS["dyadic"][:50_000].tolist())
            if len(d.normalize().as_tuple().digits) == 18 and d.as_tuple().digits[-1] == 5]
    assert len(ties) > 1000
    powers = FLOAT_SETS["powers"].tolist()
    round_ups = [v for v in powers if int(("%.16e" % v).split("e")[1]) > Decimal(v).adjusted()]
    assert len(round_ups) > 10
    texts = {"%.17g" % v for x in FLOAT_SETS.values() for v in x.tolist()}
    assert {"9.9999999999999991e-05", "0.0001", "10000000000000000", "99999999999999984",
            "1e+17", "1", "-0", "nan", "inf", "-inf"} <= texts


def test_round_ups_carry_with_an_exact_estimate(monkeypatch):
    # np.log10 rounds the values just below a power of ten up to its
    # exponent, so their estimate is one high and `%` writes them; with the
    # exact estimate, as from a log10 that rounds down, their 17-digit
    # significand rounds up to 10^17 and carries into the exponent
    monkeypatch.setattr(csvtext, "_exp10", lambda ax: np.array(
        [Decimal(v).adjusted() for v in ax.tolist()], dtype=np.float64))
    x = FLOAT_SETS["powers"]
    assert _mismatches(csvtext.encode_rows([x], "\n"), x, "%.17g")[:5] == []


def test_ints_are_percent_s():
    v = np.concatenate([np.arange(20_000), RNG.integers(0, 10**16, 100_000),
                        10 ** np.arange(16), 10 ** np.arange(1, 17) - 1])
    for dtype in (np.int64, np.uint64, np.int32, np.uint8):
        x = v[v <= np.iinfo(dtype).max].astype(dtype)
        assert csvtext.encodable([x])
        assert _mismatches(csvtext.encode_rows([x], "\n"), x, "%s")[:5] == []


def test_rows_join_columns_in_their_order():
    m = np.arange(3000) // 16 + 1
    x, y = RNG.standard_normal(3000), RNG.standard_normal(3000) * 1e-20
    got = csvtext.encode_rows([x, m, y, m % 16], ",tail\r\n")
    assert got == "".join("%.17g,%s,%.17g,%s,tail\r\n" % r
                          for r in zip(x.tolist(), m.tolist(), y.tolist(), (m % 16).tolist()))


@pytest.mark.parametrize("column", [
    np.array([True, False]), np.array([-1, 2]), np.array([0, 10**16]),
    np.array([1.0, 2.0], dtype=np.float32), np.array(["a", "b"]), np.array([1j, 2.0])])
def test_other_columns_are_not_encodable(column):
    assert not csvtext.encodable([np.zeros(2), column])
