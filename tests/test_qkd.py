"""Decoy-state BB84 rate tests.

Expected values were frozen from a 30-digit mpmath evaluation of the closed
forms (standard channel model, vacuum+weak decoy bounds, GLLP with f_e
constant).  Properties: rate monotone non-increasing in loss, bound ranges,
binary-entropy symmetry, key accumulation over samples, key-matrix support
and permutation invariance.
"""
from __future__ import annotations

import math
import warnings
from datetime import datetime, timedelta, timezone

import numpy as np
import pytest

from conftest import Pass, dense, key_matrix, pass_table
from satqkd.channel import OpticalParams, total_loss
from satqkd.cloud import synthetic_cloud_grid
from satqkd.orbit import GroundStation, LookAngles
from satqkd.qkd import (
    KeyMatrix,
    QkdParams,
    add_key_bits,
    assemble_key_matrix,
    binary_entropy,
    build_key_matrix,
    decoy_estimate,
    export_key_matrix,
    gain_and_qber,
    gllp_rate,
    keyed_sums,
)

UTC = timezone.utc
T0 = datetime(2016, 9, 20, 16, 0, tzinfo=UTC)
TABLE1 = QkdParams()
T0_US = (T0 - datetime(1970, 1, 1, tzinfo=UTC)) // timedelta(microseconds=1)
ZENITH = LookAngles(elevation_deg=90.0, azimuth_deg=0.0, slant_range_km=500.0)


# ---------------------------------------------------------------------------
# binary entropy
# ---------------------------------------------------------------------------

def test_binary_entropy_endpoints_and_peak():
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    assert binary_entropy(0.5) == 1.0


def test_binary_entropy_symmetry():
    for x in np.linspace(0.001, 0.999, 97):
        assert binary_entropy(float(x)) == pytest.approx(
            binary_entropy(1.0 - float(x)), abs=1e-15)


# ---------------------------------------------------------------------------
# gain and QBER
# ---------------------------------------------------------------------------

def test_gain_qber_background_only():
    q, e = gain_and_qber(TABLE1.mu, 0.0, TABLE1)
    assert q == pytest.approx(3e-6, rel=1e-15)
    assert e == pytest.approx(0.5, rel=1e-15)


def test_gain_qber_vacuum_state():
    q, e = gain_and_qber(0.0, 0.37, TABLE1)
    assert q == pytest.approx(3e-6, rel=1e-15)
    assert e == pytest.approx(0.5, rel=1e-15)


def test_gain_qber_frozen_value():
    q, e = gain_and_qber(0.5, 0.1, TABLE1)
    assert q == pytest.approx(0.0487735754992860, rel=1e-12)
    assert e == pytest.approx(0.0150298317272233, rel=1e-12)


def test_gain_qber_input_validation():
    with pytest.raises(ValueError):
        gain_and_qber(0.5, 1.5, TABLE1)
    with pytest.raises(ValueError):
        gain_and_qber(-0.1, 0.5, TABLE1)


# ---------------------------------------------------------------------------
# decoy bounds
# ---------------------------------------------------------------------------

def test_decoy_bounds_lossless_channel():
    params = QkdParams(y0=0.0, e_detector=0.0)
    y1, q1, e1 = decoy_estimate(params, 1.0)
    assert 0.0 <= y1 <= 1.0  # lower bound cannot exceed the true Y1 = 1
    assert y1 == pytest.approx(0.992258975372549, rel=1e-12)
    assert q1 == pytest.approx(0.300917745469247, rel=1e-12)
    assert e1 == 0.0


def test_decoy_bounds_frozen_at_30db():
    y1, q1, e1 = decoy_estimate(TABLE1, 1e-3)
    assert y1 == pytest.approx(9.78589005374261e-4, rel=1e-12)
    assert q1 == pytest.approx(2.96772117508590e-4, rel=1e-12)
    assert e1 == pytest.approx(0.0181999679960740, rel=1e-12)
    q_mu, _ = gain_and_qber(TABLE1.mu, 1e-3, TABLE1)
    assert 0.0 <= q1 <= q_mu
    assert 0.0 <= y1 <= 1.0


def test_decoy_bounds_dark_channel_gives_zero_rate():
    # at eta=0 the closed-form lower bound stays slightly positive (a valid
    # bound below the true Y1 = y0), but e1 exceeds 1/2 and the rate is 0
    y1, q1, e1 = decoy_estimate(TABLE1, 0.0)
    assert 0.0 <= y1 <= TABLE1.y0
    assert 0.0 <= q1 <= 1e-6
    assert e1 > 0.5
    assert gllp_rate(0.0, TABLE1).rate_per_pulse == 0.0


def test_intensity_ordering_enforced():
    with pytest.raises(ValueError, match="omega < nu < mu"):
        QkdParams(mu=0.08, nu=0.5)
    with pytest.raises(ValueError, match="omega < nu < mu"):
        QkdParams(omega=0.09)
    with pytest.raises(ValueError, match="omega must be 0"):
        QkdParams(omega=0.01)


# ---------------------------------------------------------------------------
# GLLP rate
# ---------------------------------------------------------------------------

def test_gllp_rate_lossless_noiseless_frozen():
    params = QkdParams(y0=0.0, e_detector=0.0)
    out = gllp_rate(1.0, params)
    # closed form reduces to q * Y1 * mu * exp(-mu), bounded above by q
    assert out.rate_per_pulse == pytest.approx(0.150458872734623, rel=1e-12)
    assert out.rate_per_pulse <= params.q_factor
    assert out.rate_per_second == pytest.approx(
        out.rate_per_pulse * params.rep_rate_hz, rel=1e-15)


def test_gllp_rate_30db_positive_60db_zero():
    r30 = gllp_rate(10 ** (-3.0), TABLE1)
    assert r30.rate_per_pulse == pytest.approx(9.11618269876671e-5, rel=1e-12)
    assert r30.rate_per_pulse > 0.0
    r60 = gllp_rate(10 ** (-6.0), TABLE1)
    assert r60.rate_per_pulse == 0.0
    assert r60.rate_per_second == 0.0


def test_gllp_rate_monotone_in_loss():
    losses_db = np.linspace(0.0, 70.0, 141)
    rates = [gllp_rate(10 ** (-db / 10.0), TABLE1).rate_per_pulse
             for db in losses_db]
    assert all(b <= a + 1e-18 for a, b in zip(rates, rates[1:]))
    assert rates[0] > 0.0
    assert rates[-1] == 0.0


def test_gllp_result_ranges():
    for db in np.linspace(0, 80, 33):
        out = gllp_rate(10 ** (-db / 10.0), TABLE1)
        assert 0.0 <= out.q1 <= out.q_mu <= 1.0
        assert 0.0 <= out.e1_upper <= 1.0
        assert 0.0 <= out.e_mu <= 1.0
        assert out.rate_per_pulse >= 0.0


def test_q_factor_scales_rate():
    efficient = QkdParams(q_factor=1.0)
    eta = 1e-3
    assert gllp_rate(eta, efficient).rate_per_pulse == pytest.approx(
        2.0 * gllp_rate(eta, TABLE1).rate_per_pulse, rel=1e-12)


# ---------------------------------------------------------------------------
# interval integration
# ---------------------------------------------------------------------------

def loss_for_db(db: float):
    eta = 10 ** (-db / 10.0)
    from satqkd.channel import LossBreakdown
    return LossBreakdown(geometric_db=db, atmospheric_db=0.0, cloud_db=0.0,
                         fixed_db=0.0, total_db=db, transmittance=eta)


def test_add_key_bits_constant_rate_closed_form():
    eta = loss_for_db(25.0).transmittance
    rate = gllp_rate(eta, TABLE1).rate_per_second
    times = T0_US + 1_000_000 * np.arange(10)
    parts = []
    add_key_bits(parts, T0, 10.0, 2, TABLE1, 0, times, [eta] * 10, 1.0, str)
    values = dense(assemble_key_matrix(parts, T0, 10.0, 2, ("A",)))
    assert values[0, 0] == pytest.approx(10.0 * rate, rel=1e-12)
    assert values[1, 0] == 0.0
    # the same samples added in two runs give the same bits
    split = []
    add_key_bits(split, T0, 10.0, 2, TABLE1, 0, times[:6], [eta] * 6, 1.0, str)
    add_key_bits(split, T0, 10.0, 2, TABLE1, 0, times[6:], [eta] * 4, 1.0, str)
    assert dense(assemble_key_matrix(split, T0, 10.0, 2, ("A",)))[0, 0] == values[0, 0]


def test_add_key_bits_blocked_sample_adds_zero():
    good = loss_for_db(25.0).transmittance
    blocked = loss_for_db(math.inf).transmittance
    assert blocked == 0.0
    rate = gllp_rate(good, TABLE1).rate_per_second
    parts = []
    add_key_bits(parts, T0, 10.0, 1, TABLE1, 0, T0_US + 1_000_000 * np.arange(6),
                 [good, good, good, blocked, good, good], 1.0, str)
    values = dense(assemble_key_matrix(parts, T0, 10.0, 1, ("A",)))
    assert values[0, 0] == pytest.approx(5.0 * rate, rel=1e-12)


def test_assembly_keeps_only_rows_with_a_nonzero_cell():
    weak, good = loss_for_db(70.0).transmittance, loss_for_db(25.0).transmittance
    assert weak > 0.0 and gllp_rate(weak, TABLE1).rate_per_second == 0.0
    rate = gllp_rate(good, TABLE1).rate_per_second
    parts = []
    # interval 0 sees only a zero-rate sample, interval 1 only a blocked one
    add_key_bits(parts, T0, 10.0, 4, TABLE1, [0, 1, 1, 0],
                 T0_US + 1_000_000 * np.array([0, 12, 25, 27]),
                 [weak, 0.0, good, good], 1.0, str)
    km = assemble_key_matrix(parts, T0, 10.0, 4, ("A", "B"))
    assert (km.n_intervals, km.rows.tolist()) == (4, [2])
    assert [column.tolist() for column in km.nonzero()] == [[2, 2], [0, 1], [rate, rate]]
    assert dense(km).tolist() == [[0.0, 0.0], [0.0, 0.0], [rate, rate], [0.0, 0.0]]
    assert assemble_key_matrix([], T0, 10.0, 4, ("A", "B")).rows.tolist() == []


def test_keyed_sums_add_each_keys_values_in_input_order():
    # 1e16 + 1 rounds back to 1e16, so key 7's sum depends on the order
    keys = np.array([7, 2, 7, 7, 2])
    values = np.array([1e16, 0.5, 1.0, 1.0, 0.25])
    distinct, sums = keyed_sums(keys, values)
    assert distinct.tolist() == [2, 7]
    assert sums.tolist() == [0.75, 1e16]
    assert keyed_sums(keys[::-1], values[::-1])[1].tolist() == [0.75, 1e16 + 2.0]
    empty = keyed_sums(np.empty(0, np.int64), np.empty(0))
    assert [column.tolist() for column in empty] == [[], []]


def test_keyed_sums_overflow_to_inf_without_a_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        distinct, sums = keyed_sums(np.array([1, 0, 1]), np.array([1e308, 1.0, 1e308]))
    assert distinct.tolist() == [0, 1]
    assert sums.tolist() == [1.0, math.inf]


# ---------------------------------------------------------------------------
# key matrix
# ---------------------------------------------------------------------------

STATIONS = [GroundStation("A", 30.0, 100.0), GroundStation("B", 32.0, 104.0),
             GroundStation("C", 34.0, 108.0)]
OPTICS = OpticalParams()


def zenith_access(station, first_interval, n_intervals, grid_start=T0,
                  step=10.0):
    start = grid_start + timedelta(seconds=first_interval * 10.0)
    first_us = (start - datetime(1970, 1, 1, tzinfo=UTC)) // timedelta(microseconds=1)
    return Pass(station=station, start=start,
                end=start + timedelta(seconds=step * n_intervals),
                step_seconds=step,
                time_us=first_us + round(step * 1e6) * np.arange(n_intervals),
                elevation_deg=np.full(n_intervals, ZENITH.elevation_deg),
                azimuth_deg=np.full(n_intervals, ZENITH.azimuth_deg),
                slant_range_km=np.full(n_intervals, ZENITH.slant_range_km))


def test_key_matrix_no_accesses_all_zero():
    km = build_key_matrix(pass_table([]), STATIONS, OPTICS, TABLE1, T0, 12)
    assert (km.n_intervals, km.n_nodes) == (12, 3)
    assert not km.nonzero()[2].any()


def test_key_matrix_support_and_constant_rate():
    access = zenith_access(STATIONS[2], first_interval=3, n_intervals=3)
    km = build_key_matrix(pass_table([access]), STATIONS, OPTICS, TABLE1, T0, 12)
    nonzero = {(int(m), int(n)) for m, n in zip(*np.nonzero(dense(km)))}
    assert nonzero == {(3, 2), (4, 2), (5, 2)}
    eta = total_loss(ZENITH, 0, OPTICS).transmittance
    expected = 10.0 * gllp_rate(eta, TABLE1).rate_per_second
    for m in (3, 4, 5):
        assert dense(km)[m, 2] == pytest.approx(expected, rel=1e-9)


def test_key_matrix_invariant_under_access_order():
    a1 = zenith_access(STATIONS[0], 0, 4)
    a2 = zenith_access(STATIONS[1], 5, 4)
    a3 = zenith_access(STATIONS[2], 2, 6)
    # the table's own station order does not matter
    passes = [a1, a3, a2]
    km1 = build_key_matrix(pass_table(passes), STATIONS, OPTICS, TABLE1, T0, 12)
    km2 = build_key_matrix(pass_table(passes, stations=STATIONS[::-1]), STATIONS, OPTICS,
                           TABLE1, T0, 12)
    assert np.array_equal(dense(km1), dense(km2))


def test_key_matrix_grid_misalignment_error():
    access = zenith_access(STATIONS[0], 10, 4)
    with pytest.raises(ValueError, match="misalignment"):
        build_key_matrix(pass_table([access]), STATIONS, OPTICS, TABLE1, T0, 12)


def test_key_matrix_cloud_blockage_zeroes_entries():
    grid = synthetic_cloud_grid(
        lat_min=28.0, lat_max=36.0, lon_min=98.0, lon_max=110.0,
        lat_step=0.5, lon_step=0.5, time_start=T0, n_frames=6,
        blobs=[(30.0, 100.0, 0.4, 400.0)])  # saturated blob over station A
    a1 = zenith_access(STATIONS[0], 0, 3)
    a2 = zenith_access(STATIONS[1], 0, 3)
    km = build_key_matrix(pass_table([a1, a2]), STATIONS, OPTICS, TABLE1, T0, 12, cloud=grid)
    values = dense(km)
    assert not values[:, 0].any()
    assert values[:, 1].all() or values[:3, 1].all()


def test_key_matrix_validation():
    with pytest.raises(ValueError, match="finite"):
        key_matrix([[math.inf]], start=T0, node_names=("A",))
    with pytest.raises(ValueError, match=">= 0"):
        key_matrix([[-1.0]], start=T0, node_names=("A",))
    with pytest.raises(ValueError, match="n_intervals must be >= 0, got -1"):
        KeyMatrix(T0, 10.0, ("A",), -1, [], [], [])
    with pytest.raises(TypeError):
        KeyMatrix(T0, 10.0, ("A",), 4.0, [], [], [])


def test_key_matrix_export_round_trip(tmp_path):
    access = zenith_access(STATIONS[1], 2, 2)
    km = build_key_matrix(pass_table([access]), STATIONS, OPTICS, TABLE1, T0, 6)
    csv_path = tmp_path / "km.csv"
    meta_path = tmp_path / "km.json"
    export_key_matrix(km, TABLE1, csv_path, meta_path)
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "interval_index,node_name,start_utc,key_bits"
    assert len(lines) == 3
    m, name, start_utc, bits = lines[1].split(",")
    assert (m, name) == ("2", "B")
    assert float(bits) == dense(km)[2, 1]
    assert "params_digest" in meta_path.read_text()


@pytest.mark.parametrize("interval_seconds", [10, 10.0, 0.1, 1 / 3, 7.3])
@pytest.mark.parametrize("start", [T0, T0 + timedelta(microseconds=123_457)],
                         ids=["whole-second-start", "microsecond-start"])
def test_interval_labels_and_export_match_interval_start(tmp_path, start,
                                                         interval_seconds):
    # 2,382 nonzero cells over 5,000 intervals
    values = np.zeros((5000, 2))
    values[::7, 0] = 1.5
    values[::3, 1] = 0.1
    km = key_matrix(values, start=start, interval_seconds=interval_seconds,
                    node_names=("A", "B"))
    expected = [km.interval_start(m).isoformat() for m in range(km.n_intervals)]
    csv_path = tmp_path / "km.csv"
    export_key_matrix(km, TABLE1, csv_path, tmp_path / "km.json")
    rows = [line.split(",") for line in csv_path.read_text().splitlines()[1:]]
    assert rows == [[str(m), km.node_names[n], expected[m], repr(float(values[m, n]))]
                    for m, n in zip(*np.nonzero(values))]
