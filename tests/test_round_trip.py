"""output.round_trip against one repr() per value.

round_trip spells the shortest decimal that reads back as each positive
normal double (Schubfach's digits on uint64 arrays) in repr's layout, and
hands negatives, -0.0, subnormals, infinities, NaN and exact ties between
two nearest decimals to repr itself.  Its bytes must be those of the
per-value writer it replaced, spelled(list(map(repr, ...))), over random bit
patterns of either sign, every power of two, the integers up to 2**53 and
the values where repr's layout or Schubfach's interval changes.
"""
from __future__ import annotations

import numpy as np
import pytest

from satqkd.output import csv_rows, round_trip, spelled


def spelled_repr(values) -> bytes:
    return csv_rows([spelled(list(map(repr, values.tolist())))]).tobytes()


def spelled_round_trip(values) -> bytes:
    """The values 4,096 at a time, as the writers hand them over."""
    return b"".join(csv_rows([round_trip(values[lo:lo + 4096])]).tobytes()
                    for lo in range(0, len(values), 4096))


def assert_same(values):
    values = np.asarray(values, dtype=float)
    want, got = spelled_repr(values), spelled_round_trip(values)
    if want != got:
        pairs = zip(want.split(b"\n"), got.split(b"\n"))
        bad = [(w, g) for w, g in pairs if w != g]
        pytest.fail(f"{len(bad)} cells differ, first {bad[:5]}")


@pytest.mark.parametrize("seed", range(4))
def test_random_bit_patterns_match_repr(seed):
    # 4 x 2**18 patterns of every sign, exponent and mantissa: NaNs,
    # infinities and subnormals among them
    rng = np.random.default_rng(seed)
    assert_same(rng.integers(0, 2 ** 64, 1 << 18, dtype=np.uint64).view(float))


def test_every_power_of_two_matches_repr():
    # the irregular spacing below each power, and 2**-1074 to 2**-1023 subnormal
    assert_same(np.ldexp(1.0, np.arange(-1074, 1024)))


def test_integers_match_repr():
    rng = np.random.default_rng(7)
    assert_same(np.concatenate([
        np.arange(1, 1 << 16), rng.integers(1, 2 ** 53, 1 << 16), 10 ** np.arange(16),
        [2 ** 53 - 1, 2 ** 53, 2 ** 53 + 2, 2 ** 63, 2 ** 64]]).astype(float))


def test_layout_edges_match_repr():
    decades = 10.0 ** np.arange(-307, 309)
    assert_same(np.concatenate([
        [1e-5, 9.999e-5, 1e-4, 1e16, 1e17, 0.1, 0.3, 0.1 + 0.2, 1.0, 1.5, 123.0],
        decades, np.nextafter(decades, 0.0), np.nextafter(decades, np.inf),
        [0.00012345678901234567, 1.2345678901234567e-05, 1234567890123456.8,
         12345678901234568.0, 2.2250738585072014e-308, 1.7976931348623157e308]]))


def test_signs_zeros_tokens_and_ties_match_repr():
    tie = 173099726454753.12  # equally near two shortest decimals
    assert_same([0.0, -0.0, np.inf, -np.inf, np.nan, -1.5, -1e-300, 5e-324, tie,
                 np.nextafter(tie, 0.0), np.nextafter(tie, np.inf), 0.0, 2.5])


def test_link_efficiencies_match_repr():
    # what the linkbudget eta and key-matrix key_bits columns hold
    rng = np.random.default_rng(3)
    etas = np.exp(rng.uniform(-40.0, 0.0, 1 << 16))
    etas[rng.random(len(etas)) < 0.2] = 0.0
    assert_same(np.concatenate([etas, rng.uniform(0.0, 1e7, 1 << 16)]))


def test_empty_column():
    assert round_trip(np.zeros(0)).shape[0] == 0
