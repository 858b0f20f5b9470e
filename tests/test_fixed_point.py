"""output.fixed_point and output.integers against one format() per value.

fixed_point spells the integer nearest to |v| * 10**digits and hands NaN,
values of 2**52 and more after scaling, and values within an ulp of a tie to
format() itself.  Every output must be the bytes of the per-value formatter
it replaced (conftest.oracle_fmt), for each digit count a CSV column uses
(.1f, .3f, .4f, .6f), over the ranges the columns hold and at the values
where integer rounding and correct rounding could part.  integers must be
str() of each value.
"""
from __future__ import annotations

import math

import numpy as np
import pytest

from conftest import oracle_fmt
from satqkd.output import csv_rows, fixed_point, integers

pytestmark = pytest.mark.bits

N_SEEDED = 1 << 20


def lines(values, digits):
    """The spelled values, 4,096 at a time as in a linkbudget block: a
    matrix is as wide as its widest value (1e300 among them here)."""
    return [line for start in range(0, len(values), 4096)
            for line in csv_rows([fixed_point(values[start:start + 4096],
                                              digits)]).tobytes().decode().split("\n")[:-1]]


def seeded_values(rng, n):
    """Values over what the columns hold: elevations, ranges, losses in dB
    (cloud losses included), KL divergences; and a wide log-uniform spread
    of either sign."""
    part = n // 8
    return np.concatenate([
        rng.uniform(-90.0, 90.0, part),
        rng.uniform(300.0, 6000.0, part),
        rng.uniform(0.0, 80.0, part),
        2.0 * np.exp(rng.uniform(0.0, 9.0, part)),
        -10.0 * np.log10((150 - rng.integers(0, 150, part)) / 150) + 0.0,
        rng.uniform(0.0, 10.0, part),
        np.exp(rng.uniform(-28.0, 5.0, part)),
        rng.choice([-1.0, 1.0], n - 7 * part) * np.exp(rng.uniform(-30.0, 36.0, n - 7 * part)),
    ])


def adversarial_values(digits):
    scale = 10.0 ** digits
    k = np.arange(0, 200_000, 7, dtype=float)
    halves = (k + 0.5) / scale  # the double nearest each decimal tie
    big = 2.0 ** 52 / scale
    dyadic = np.arange(1, 4096, 2) / 2.0 ** (digits + 1)  # k/2**m: exact ties
    values = np.concatenate([
        halves, np.nextafter(halves, np.inf), np.nextafter(halves, -np.inf),
        dyadic, np.arange(1, 4096) / 2.0 ** 10,
        [big, np.nextafter(big, 0.0), np.nextafter(big, np.inf), big / 2, big * 2,
         np.nextafter(big / 2, 0.0), 0.03125, 0.0625, 0.5, 1.5, 2.5],
        [0.0, -0.0, -1e-9, -0.4 / scale, -0.5 / scale, -0.6 / scale, -5e-324],
        [math.nan, -math.nan, math.inf, -math.inf],
        [1e300, 1e16, 1e15, 123456789.123456789, 5e-324, 2.2250738585072014e-308,
         1e-310, np.nextafter(0.0, 1.0) * 12345],
    ])
    return np.concatenate([values, -values])


@pytest.mark.parametrize("digits", [1, 3, 4, 6])
def test_seeded_values_match_format(digits):
    values = seeded_values(np.random.default_rng(digits), N_SEEDED)
    assert len(values) >= 1_000_000
    for start in range(0, len(values), 1 << 16):
        chunk = values[start:start + (1 << 16)].tolist()
        want = [oracle_fmt(v, f".{digits}f") for v in chunk]
        got = lines(chunk, digits)
        assert got == want, [(v, g, w) for v, g, w in zip(chunk, got, want) if g != w][:5]


@pytest.mark.parametrize("digits", [1, 3, 4, 6])
def test_adversarial_values_match_format(digits):
    values = adversarial_values(digits)
    want = [oracle_fmt(v, f".{digits}f") for v in values.tolist()]
    assert lines(values, digits) == want
    # the same one at a time: each a column only as wide as its one value
    assert [lines([v], digits)[0] for v in values[-200:].tolist()] == want[-200:]


def test_signs_ties_and_tokens():
    assert lines([0.03125, -0.03125, 0.09375, -0.0, -4e-5, -5e-5, 2.5e-5], 4) == [
        "0.0312", "-0.0312", "0.0938", "-0.0000", "-0.0000", "-0.0001", "0.0000"]
    assert lines([math.inf, -math.inf, math.nan, 1e300], 4)[:3] == ["Inf", "Inf", "nan"]
    assert lines([1e300], 6) == [format(1e300, ".6f")]


def test_empty_column():
    assert fixed_point(np.empty(0), 4).shape[0] == 0
    assert lines([], 4) == []
    assert integers(np.empty(0, np.int64)).shape[0] == 0


def test_integers_match_str():
    tens = [10 ** k for k in range(19)]
    values = [0, 1, 2 ** 62, 2 ** 63 - 1, *tens, *(t - 1 for t in tens[1:]),
              *(t + 1 for t in tens), *np.random.default_rng(5).integers(0, 2 ** 63 - 1, 1000)]
    values = list(map(int, values))
    for column in (values, values[:3], [0], [9], [10], [10 ** 18 - 1]):
        text = csv_rows([integers(column)]).tobytes().decode()
        assert text.split("\n")[:-1] == list(map(str, column))
