"""Orbit module tests.

Covers:
  - TLE decoding against an independent column-slice decoder, checksum and
    malformed-input errors
  - two-body propagation invariants (circular radius, periodicity) and the
    J2 RAAN secular rate against the textbook formula
  - look angles: zenith geometry, occlusion, law-of-cosines slant range,
    sidereal rotation consistency
  - solar elevation against simple solstice/equinox geometry
  - access windows: mask/night predicates hold exhaustively, boundary
    truncation, min-range-at-max-elevation, ephemeris replay round trip
  - the blocked, above-horizon-only access computation against the
    per-station full-grid oracle, bit for bit (sample times through
    datetime.fromtimestamp, fractional ones included), and the fixed-point
    Kepler exit against the 12-step loop
"""
from __future__ import annotations

import math
from datetime import datetime, timedelta, timezone

import numpy as np
import pytest

from satqkd import orbit
from satqkd.orbit import (
    EARTH_MU_KM3_S2,
    EARTH_RADIUS_KM,
    J2,
    Ephemeris,
    GroundStation,
    SatelliteState,
    TleElements,
    TleError,
    compute_access_windows,
    gmst_deg,
    load_ephemeris,
    look_angles,
    parse_tle,
    propagate,
    sun_elevation,
    tle_checksum,
)

UTC = timezone.utc

MICIUS_L1 = "1 41731U 16051A   16263.00000000  .00000600  00000-0  30000-4 0  9990"
MICIUS_L2 = "2 41731  97.3700 177.0000 0012000 205.5000 154.5000 15.23519000 51203"
MICIUS_TLE = MICIUS_L1 + "\n" + MICIUS_L2


def circular_elements(altitude_km: float, inclination_deg: float,
                      raan_deg: float = 0.0, epoch: datetime | None = None,
                      mean_anomaly_deg: float = 0.0) -> TleElements:
    a = EARTH_RADIUS_KM + altitude_km
    period = 2.0 * math.pi * math.sqrt(a**3 / EARTH_MU_KM3_S2)
    return TleElements(
        epoch=epoch or datetime(2016, 9, 19, tzinfo=UTC),
        inclination_deg=inclination_deg, raan_deg=raan_deg, eccentricity=0.0,
        arg_perigee_deg=0.0, mean_anomaly_deg=mean_anomaly_deg,
        mean_motion_rev_day=86400.0 / period)


# ---------------------------------------------------------------------------
# TLE parsing
# ---------------------------------------------------------------------------

def independent_tle_decode(l1: str, l2: str) -> dict:
    """Minimal reference decoder using the published fixed columns."""
    def impexp(s):
        s = s.strip()
        sign = -1.0 if s.startswith("-") else 1.0
        s = s.lstrip("+-")
        return sign * float("0." + s[:-2]) * 10.0 ** int(s[-2:])
    year = int(l1[18:20])
    year += 2000 if year < 57 else 1900
    return {
        "epoch": datetime(year, 1, 1, tzinfo=UTC) + timedelta(days=float(l1[20:32]) - 1),
        "bstar": impexp(l1[53:61]),
        "inclination": float(l2[8:16]),
        "raan": float(l2[17:25]),
        "eccentricity": float("0." + l2[26:33]),
        "arg_perigee": float(l2[34:42]),
        "mean_anomaly": float(l2[43:51]),
        "mean_motion": float(l2[52:63]),
    }


def test_parse_tle_matches_independent_decoder():
    got = parse_tle(MICIUS_TLE)
    ref = independent_tle_decode(MICIUS_L1, MICIUS_L2)
    assert got.epoch == ref["epoch"]
    assert got.inclination_deg == ref["inclination"]
    assert got.raan_deg == ref["raan"]
    assert got.eccentricity == ref["eccentricity"]
    assert got.arg_perigee_deg == ref["arg_perigee"]
    assert got.mean_anomaly_deg == ref["mean_anomaly"]
    assert got.mean_motion_rev_day == ref["mean_motion"]
    assert got.bstar == ref["bstar"]
    # domain sanity for a Micius-class orbit
    assert got.inclination_deg == pytest.approx(97.37, abs=0.01)
    assert got.mean_motion_rev_day == pytest.approx(15.235, abs=0.01)


def test_parse_tle_checksum_error_mentions_line():
    bad = MICIUS_L1[:-1] + str((int(MICIUS_L1[-1]) + 1) % 10)
    with pytest.raises(TleError, match="checksum.*line 1"):
        parse_tle(bad + "\n" + MICIUS_L2)
    bad2 = MICIUS_L2[:-1] + str((int(MICIUS_L2[-1]) + 3) % 10)
    with pytest.raises(TleError, match="checksum.*line 2"):
        parse_tle(MICIUS_L1 + "\n" + bad2)


def test_parse_tle_length_and_line_count_errors():
    with pytest.raises(TleError, match="length"):
        parse_tle(MICIUS_L1[:-2] + "\n" + MICIUS_L2)
    with pytest.raises(TleError, match="2 TLE lines"):
        parse_tle(MICIUS_L1)
    with pytest.raises(TleError, match="2 TLE lines"):
        parse_tle(MICIUS_TLE + "\n" + MICIUS_L2)


def test_parse_tle_malformed_column_reports_position():
    corrupt = MICIUS_L2[:10] + "x" + MICIUS_L2[11:]
    # keep the checksum consistent so the column error is what fires
    corrupt = corrupt[:68] + str(tle_checksum(corrupt))
    with pytest.raises(TleError, match="inclination.*line 2.*columns 9-16"):
        parse_tle(MICIUS_L1 + "\n" + corrupt)


def test_implied_decimal_zero_eccentricity():
    l2 = MICIUS_L2[:26] + "0000000" + MICIUS_L2[33:68]
    l2 = l2 + str(tle_checksum(l2))
    got = parse_tle(MICIUS_L1 + "\n" + l2)
    assert got.eccentricity == 0.0


def test_checksum_counts_minus_as_one():
    assert tle_checksum(MICIUS_L1) == int(MICIUS_L1[68])
    assert tle_checksum("-" * 68) == 68 % 10


# ---------------------------------------------------------------------------
# Propagation
# ---------------------------------------------------------------------------

def test_circular_orbit_radius_constant():
    el = circular_elements(500.0, 97.37)
    t0 = el.epoch
    for minutes in (0, 13, 47, 90, 1440):
        st = propagate(el, t0 + timedelta(minutes=minutes))
        r = math.sqrt(sum(c * c for c in st.position_km))
        assert abs(r - 6878.137) < 1.0


def test_periodicity_two_body():
    el = circular_elements(500.0, 97.37)
    st0 = propagate(el, el.epoch, include_j2=False)
    st1 = propagate(el, el.epoch + timedelta(seconds=el.period_seconds),
                    include_j2=False)
    p0 = np.array(st0.position_km)
    p1 = np.array(st1.position_km)
    angle = math.degrees(math.acos(
        np.clip(np.dot(p0, p1) / (np.linalg.norm(p0) * np.linalg.norm(p1)), -1, 1)))
    assert angle < 0.1


def test_j2_raan_drift_matches_secular_formula():
    el = circular_elements(500.0, 97.37)
    # independent oracle: standard J2 secular node rate
    a = el.semi_major_axis_km
    n = 2.0 * math.pi / el.period_seconds
    expected_deg_day = math.degrees(
        -1.5 * n * J2 * (EARTH_RADIUS_KM / a) ** 2
        * math.cos(math.radians(97.37))) * 86400.0
    assert expected_deg_day == pytest.approx(0.9814, abs=0.001)
    # sun-synchronous design value, within 5 percent
    assert abs(expected_deg_day - 0.9856) / 0.9856 < 0.05

    # the propagator must realise that drift: compare node longitudes one day apart
    st0 = propagate(el, el.epoch)
    st1 = propagate(el, el.epoch + timedelta(days=1))
    # recover the node direction from the angular momentum vector h = r x v
    def node_deg(st):
        h = np.cross(st.position_km, st.velocity_km_s)
        node = np.cross([0.0, 0.0, 1.0], h)
        return math.degrees(math.atan2(node[1], node[0]))
    drift = (node_deg(st1) - node_deg(st0)) % 360.0
    assert drift == pytest.approx(expected_deg_day, abs=1e-6)


def test_propagate_warns_far_from_epoch():
    el = circular_elements(500.0, 97.37)
    with pytest.warns(UserWarning, match="30 days"):
        propagate(el, el.epoch + timedelta(days=45))


def test_subsurface_orbit_rejected():
    el = TleElements(
        epoch=datetime(2016, 9, 19, tzinfo=UTC),
        inclination_deg=51.6, raan_deg=0, eccentricity=0.9,
        arg_perigee_deg=0, mean_anomaly_deg=0, mean_motion_rev_day=15.0)
    with pytest.raises(ValueError, match="sub-surface"):
        propagate(el, el.epoch)


def test_eccentricity_bound_enforced():
    with pytest.raises(ValueError, match="eccentricity"):
        TleElements(epoch=datetime(2016, 9, 19, tzinfo=UTC),
                    inclination_deg=0, raan_deg=0, eccentricity=1.0,
                    arg_perigee_deg=0, mean_anomaly_deg=0,
                    mean_motion_rev_day=15.0)


# ---------------------------------------------------------------------------
# Look angles
# ---------------------------------------------------------------------------

def zenith_state(station: GroundStation, altitude_km: float, t: datetime) -> SatelliteState:
    lat = math.radians(station.latitude_deg)
    lon_inertial = math.radians(station.longitude_deg + gmst_deg(t))
    r = EARTH_RADIUS_KM + station.altitude_m / 1000.0 + altitude_km
    pos = (r * math.cos(lat) * math.cos(lon_inertial),
           r * math.cos(lat) * math.sin(lon_inertial),
           r * math.sin(lat))
    return SatelliteState(t, pos, (0.0, 0.0, 0.0))


def test_zenith_geometry():
    station = GroundStation("site", 34.0, 109.0)
    t = datetime(2016, 9, 21, 18, 0, tzinfo=UTC)
    la = look_angles(zenith_state(station, 500.0, t), station)
    assert la.elevation_deg == pytest.approx(90.0, abs=0.5)
    assert la.slant_range_km == pytest.approx(500.0, abs=5.0)


def test_antipodal_satellite_below_horizon():
    station = GroundStation("site", 34.0, 109.0)
    t = datetime(2016, 9, 21, 18, 0, tzinfo=UTC)
    st = zenith_state(station, 500.0, t)
    flipped = SatelliteState(t, tuple(-c for c in st.position_km), (0.0, 0.0, 0.0))
    assert look_angles(flipped, station).elevation_deg < 0.0


def test_slant_range_at_10deg_matches_law_of_cosines():
    # independent oracle: rho = -Re sin(e) + sqrt(Re^2 sin^2(e) + 2 Re h + h^2)
    h, el_deg = 500.0, 10.0
    s = math.sin(math.radians(el_deg))
    rho_expect = (-EARTH_RADIUS_KM * s
                  + math.sqrt(EARTH_RADIUS_KM**2 * s**2 + 2 * EARTH_RADIUS_KM * h + h * h))
    assert rho_expect == pytest.approx(1695.0912, abs=0.001)

    # place a satellite at exactly that elevation/range from the station
    station = GroundStation("site", 0.0, 0.0)
    t = datetime(2016, 9, 21, 18, 0, tzinfo=UTC)
    theta = math.radians(gmst_deg(t))  # station inertial longitude
    up = np.array([math.cos(theta), math.sin(theta), 0.0])
    north = np.array([0.0, 0.0, 1.0])
    st_pos = EARTH_RADIUS_KM * up
    el = math.radians(el_deg)
    sat = st_pos + rho_expect * (math.sin(el) * up + math.cos(el) * north)
    la = look_angles(SatelliteState(t, tuple(sat), (0.0, 0.0, 0.0)), station)
    assert la.elevation_deg == pytest.approx(el_deg, abs=1e-6)
    assert la.slant_range_km == pytest.approx(rho_expect, rel=0.02)
    # the satellite geocentric radius must correspond to altitude h
    assert np.linalg.norm(sat) == pytest.approx(EARTH_RADIUS_KM + h, rel=1e-12)


def test_look_angles_sidereal_rotation_consistency():
    el = circular_elements(500.0, 97.37)
    t = el.epoch + timedelta(hours=3)
    st = propagate(el, t)
    base = look_angles(st, GroundStation("a", 30.0, 100.0), t)
    for shift_deg in (1.0, 10.0, 45.0):
        dt = shift_deg / 360.98564736629 * 86400.0
        moved = GroundStation("b", 30.0, 100.0 + shift_deg)
        got = look_angles(st, moved, t - timedelta(seconds=dt))
        assert got.elevation_deg == pytest.approx(base.elevation_deg, abs=0.1)


# ---------------------------------------------------------------------------
# Sun
# ---------------------------------------------------------------------------

def test_sun_equator_equinox_noon_and_midnight():
    # local solar noon/midnight differ from 12:00/00:00 UTC by the equation
    # of time (about +7 min near the September equinox), so scan around them
    station = GroundStation("eq", 0.0, 0.0)
    around_noon = [sun_elevation(station, datetime(2016, 9, 22, 11, 30, tzinfo=UTC)
                                 + timedelta(minutes=k)) for k in range(61)]
    around_mid = [sun_elevation(station, datetime(2016, 9, 21, 23, 30, tzinfo=UTC)
                                + timedelta(minutes=k)) for k in range(61)]
    assert max(around_noon) == pytest.approx(90.0, abs=1.0)
    assert min(around_mid) == pytest.approx(-90.0, abs=1.0)


def test_sun_summer_solstice_40n():
    station = GroundStation("mid", 40.0, 0.0)
    t = datetime(2016, 6, 21, 12, 0, tzinfo=UTC)
    # oracle: 90 - latitude + obliquity
    assert sun_elevation(station, t) == pytest.approx(90.0 - 40.0 + 23.44, abs=1.0)


def test_sun_year_range_enforced():
    station = GroundStation("eq", 0.0, 0.0)
    with pytest.raises(ValueError, match="1950-2100"):
        sun_elevation(station, datetime(1949, 12, 31, tzinfo=UTC))


# ---------------------------------------------------------------------------
# Access windows
# ---------------------------------------------------------------------------

def test_polar_station_equatorial_orbit_invisible():
    el = circular_elements(500.0, 0.0)
    pole = GroundStation("pole", 89.9, 0.0)
    out = compute_access_windows(el, [pole],
                                 (el.epoch, el.epoch + timedelta(days=1)))
    assert out == []


def test_mask_90_excludes_everything():
    el = circular_elements(500.0, 97.37)
    st = GroundStation("site", 34.0, 109.0)
    out = compute_access_windows(el, [st],
                                 (el.epoch, el.epoch + timedelta(days=2)),
                                 elevation_mask_deg=90.0)
    assert out == []


def _week_windows(night_threshold=-6.0, require_umbra=False):
    el = parse_tle(MICIUS_TLE)
    stations = [GroundStation("Xian", 34.27, 108.93, 400.0),
                GroundStation("Beijing", 39.90, 116.40, 44.0),
                GroundStation("Urumqi", 43.83, 87.62, 800.0)]
    return compute_access_windows(
        el, stations, (el.epoch, el.epoch + timedelta(days=7)),
        step_seconds=10.0, night_threshold_deg=night_threshold,
        require_umbra=require_umbra), el, stations


def test_access_predicates_hold_exhaustively():
    intervals, el, _ = _week_windows()
    assert intervals, "expected some night passes over China in a week"
    assert all(intervals[i].start <= intervals[i + 1].start
               for i in range(len(intervals) - 1))
    for iv in intervals:
        times = [orbit._from_us(us) for us in iv.time_us.tolist()]
        assert times == sorted(times)
        assert iv.start == times[0]
        assert iv.end == times[-1] + timedelta(seconds=10)
        for t, elev, rng in zip(times, iv.elevation_deg.tolist(),
                                iv.slant_range_km.tolist()):
            assert elev > 10.0
            assert sun_elevation(iv.station, t) < -6.0
            # cross-check the vectorised geometry against the scalar path
            ref = look_angles(propagate(el, t), iv.station, t)
            assert elev == pytest.approx(ref.elevation_deg, abs=1e-9)
            assert rng == pytest.approx(ref.slant_range_km, abs=1e-6)


def test_min_range_near_max_elevation():
    intervals, _, _ = _week_windows()
    for iv in intervals:
        if len(iv.time_us) < 3:
            continue
        assert abs(int(np.argmin(iv.slant_range_km))
                   - int(np.argmax(iv.elevation_deg))) <= 1


def test_umbra_flag_only_tightens():
    loose, _, _ = _week_windows(require_umbra=False)
    tight, _, _ = _week_windows(require_umbra=True)
    loose_total = sum(iv.duration_seconds for iv in loose)
    tight_total = sum(iv.duration_seconds for iv in tight)
    assert tight_total <= loose_total


def test_span_boundary_truncates_pass():
    intervals, el, stations = _week_windows()
    iv = max(intervals, key=lambda v: len(v.time_us))
    # cut the span in the middle of this pass: the pass must be truncated
    mid = orbit._from_us(int(iv.time_us[len(iv.time_us) // 2]))
    cut = compute_access_windows(el, [iv.station], (el.epoch, mid), step_seconds=10.0)
    ends = [v.end for v in cut]
    assert ends and max(ends) <= mid
    partial = [v for v in cut if v.start == iv.start]
    assert len(partial) == 1
    assert 0 < len(partial[0].time_us) < len(iv.time_us)


def test_step_validation_and_empty_span():
    el = circular_elements(500.0, 97.37)
    st = GroundStation("site", 34.0, 109.0)
    with pytest.raises(ValueError, match="step"):
        compute_access_windows(el, [st], (el.epoch, el.epoch + timedelta(days=1)),
                               step_seconds=0.0)
    with pytest.raises(ValueError, match="span"):
        compute_access_windows(el, [st], (el.epoch, el.epoch))


# ---------------------------------------------------------------------------
# Ephemeris replay
# ---------------------------------------------------------------------------

def test_ephemeris_round_trip(tmp_path):
    el = circular_elements(500.0, 97.37)
    t0 = el.epoch
    rows = ["time_utc,x_km,y_km,z_km"]
    for k in range(0, 3600, 10):
        st = propagate(el, t0 + timedelta(seconds=k))
        rows.append("{},{:.9f},{:.9f},{:.9f}".format(
            (t0 + timedelta(seconds=k)).isoformat(), *st.position_km))
    path = tmp_path / "eph.csv"
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")

    eph = load_ephemeris(path)
    station = GroundStation("site", 34.0, 109.0)
    span = (t0, t0 + timedelta(seconds=3000))
    from_tle = compute_access_windows(el, [station], span, night_threshold_deg=91.0)
    from_eph = compute_access_windows(eph, [station], span, night_threshold_deg=91.0)
    assert len(from_tle) == len(from_eph)
    for a, b in zip(from_tle, from_eph):
        assert a.start == b.start and a.end == b.end
        assert np.array_equal(a.time_us, b.time_us)
        np.testing.assert_allclose(a.elevation_deg, b.elevation_deg, rtol=0, atol=1e-6)


def test_ephemeris_rejects_non_monotone(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text(
        "time_utc,x_km,y_km,z_km\n"
        "2016-09-19T00:00:00+00:00,7000,0,0\n"
        "2016-09-19T00:00:00+00:00,7001,0,0\n", encoding="utf-8")
    with pytest.raises(ValueError, match="increasing"):
        load_ephemeris(path)


def test_ephemeris_query_outside_span(tmp_path):
    path = tmp_path / "eph.csv"
    path.write_text(
        "time_utc,x_km,y_km,z_km\n"
        "2016-09-19T00:00:00+00:00,7000,0,0\n"
        "2016-09-19T00:01:00+00:00,7000,100,0\n", encoding="utf-8")
    eph = load_ephemeris(path)
    with pytest.raises(ValueError, match="outside"):
        eph.positions_at(np.array([0.0]))


# ---------------------------------------------------------------------------
# Equivalence with the per-station full-grid computation
# ---------------------------------------------------------------------------

def kepler_12_steps(mean_anomaly, ecc):
    e_anom = mean_anomaly.copy()
    for _ in range(12):
        f = e_anom - ecc * np.sin(e_anom) - mean_anomaly
        e_anom = e_anom - f / (1.0 - ecc * np.cos(e_anom))
    return e_anom


@pytest.mark.parametrize("ecc", [0.0, 0.0012, 0.1, 0.7, 0.95])
def test_kepler_fixed_point_exit_matches_12_steps(ecc):
    rng = np.random.default_rng(7)
    m = np.concatenate([np.linspace(0.0, 2.0 * math.pi, 20001, endpoint=False),
                        rng.uniform(0.0, 2.0 * math.pi, 20000),
                        [0.0, math.pi, np.nextafter(2.0 * math.pi, 0.0), 1e-300]])
    got = orbit._kepler_solve(m, ecc)
    assert np.array_equal(got.view(np.int64), kepler_12_steps(m, ecc).view(np.int64))


def test_sun_radec_on_a_subset_equals_the_full_result_sliced():
    # access computes the Sun only on samples some station sees; each value
    # must not depend on which other samples share the array
    rng = np.random.default_rng(17)
    unix = np.concatenate([EPOCH.timestamp() + rng.uniform(0.0, 7 * 86400.0, 40000),
                           rng.uniform(-6e8, 4e9, 3000)])
    ra, dec = orbit._sun_radec(unix)
    for size in (1, 2, 3, 7, 17, 64, 1001, 20000):
        for pick in (np.sort(rng.choice(len(unix), size, replace=False)),
                     np.arange(size) + int(rng.integers(0, len(unix) - size))):
            sub_ra, sub_dec = orbit._sun_radec(unix[pick])
            assert np.array_equal(sub_ra.view(np.int64), ra[pick].view(np.int64))
            assert np.array_equal(sub_dec.view(np.int64), dec[pick].view(np.int64))


def reference_access_windows(source, stations, span, step_seconds,
                             elevation_mask_deg, night_threshold_deg, require_umbra):
    """Every station over the full sample grid at once, as the code did before
    the geometry was blocked and limited to above-horizon samples."""
    start, end = span
    u0, u1 = start.timestamp(), end.timestamp()
    count = max(1, math.ceil((u1 - u0) / step_seconds - 1e-9))
    unix = u0 + step_seconds * np.arange(count)
    if isinstance(source, Ephemeris):
        pos = source.positions_at(unix)
    else:
        pos, _ = orbit._propagate_arrays(source, unix)
    gmst = orbit._gmst_deg(unix)
    ra, dec = orbit._sun_radec(unix)

    umbra = None
    if require_umbra:
        sun_u = np.stack([np.cos(dec) * np.cos(ra), np.cos(dec) * np.sin(ra),
                          np.sin(dec)], axis=-1)
        along = np.einsum("ij,ij->i", pos, sun_u)
        perp = pos - along[:, None] * sun_u
        umbra = (along < 0.0) & (np.linalg.norm(perp, axis=1) < EARTH_RADIUS_KM)

    out = []
    for station in stations:
        theta = np.radians(orbit._gmst_deg(unix))
        cos_t, sin_t = np.cos(theta), np.sin(theta)
        x = pos[..., 0] * cos_t + pos[..., 1] * sin_t
        y = -pos[..., 0] * sin_t + pos[..., 1] * cos_t
        z = pos[..., 2]
        st = orbit._station_ecef_km(station)
        dx, dy, dz = x - st[0], y - st[1], z - st[2]
        lat = math.radians(station.latitude_deg)
        lon = math.radians(station.longitude_deg)
        sin_lat, cos_lat = math.sin(lat), math.cos(lat)
        sin_lon, cos_lon = math.sin(lon), math.cos(lon)
        east = -sin_lon * dx + cos_lon * dy
        north = -sin_lat * cos_lon * dx - sin_lat * sin_lon * dy + cos_lat * dz
        up = cos_lat * cos_lon * dx + cos_lat * sin_lon * dy + sin_lat * dz
        rng = np.sqrt(dx * dx + dy * dy + dz * dz)
        elev = np.degrees(np.arcsin(np.clip(up / rng, -1.0, 1.0)))
        azim = np.mod(np.degrees(np.arctan2(east, north)), 360.0)

        h = np.radians(gmst + station.longitude_deg) - ra
        sun = np.degrees(np.arcsin(np.clip(
            math.sin(lat) * np.sin(dec) + math.cos(lat) * np.cos(dec) * np.cos(h),
            -1.0, 1.0)))
        usable = (elev > elevation_mask_deg) & (sun < night_threshold_deg)
        if umbra is not None:
            usable &= umbra
        edges = np.flatnonzero(np.diff(np.concatenate([[0], usable, [0]]).astype(np.int8)))
        for i0, i1 in zip(edges[::2].tolist(), edges[1::2].tolist()):
            # sample times through datetime.fromtimestamp, one at a time
            times = [orbit._from_unix(float(unix[i])) for i in range(i0, i1)]
            out.append(orbit.AccessInterval(
                station=station,
                start=times[0],
                end=orbit._from_unix(float(unix[i1 - 1]) + step_seconds),
                time_us=np.array([orbit._to_us(t) for t in times], dtype=np.int64),
                elevation_deg=elev[i0:i1], azimuth_deg=azim[i0:i1],
                slant_range_km=rng[i0:i1]))
    out.sort(key=lambda iv: iv.start)
    return out


def exact_form(intervals):
    """Intervals with every float spelled out bit for bit."""
    return [(iv.station.name, iv.start.isoformat(), iv.end.isoformat(),
             [(orbit._from_us(us).isoformat(), elev.hex(), azim.hex(), rng.hex())
              for us, elev, azim, rng in zip(iv.time_us.tolist(),
                                             iv.elevation_deg.tolist(),
                                             iv.azimuth_deg.tolist(),
                                             iv.slant_range_km.tolist())])
            for iv in intervals]


def seeded_stations(seed: int) -> list[GroundStation]:
    """Poles, the +-180 deg meridian, a 3000 m site and seeded others."""
    rng = np.random.default_rng(seed)
    fixed = [GroundStation("north-pole", 90.0, 0.0),
             GroundStation("south-pole", -90.0, 37.0, 2835.0),
             GroundStation("east-180", 64.8, 180.0),
             GroundStation("west-180", -17.5, -180.0, 120.0),
             GroundStation("high", 32.3, 80.0, 3000.0)]
    seeded = [GroundStation(f"s{k}", math.degrees(math.asin(rng.uniform(-1.0, 1.0))),
                            rng.uniform(-180.0, 180.0), rng.uniform(0.0, 3000.0))
              for k in range(7)]
    return fixed + seeded


def tle_or_ephemeris(kind: str, span):
    el = parse_tle(MICIUS_TLE)
    if kind == "tle":
        return el
    unix = np.arange(span[0].timestamp() - 60.0, span[1].timestamp() + 90.0, 30.0)
    pos, _ = orbit._propagate_arrays(el, unix)
    return Ephemeris(unix, pos)


def assert_matches_reference(monkeypatch, source, stations, span, step, mask,
                             night, umbra, block=None):
    with monkeypatch.context() as patch:
        patch.setattr(orbit, "_kepler_solve", kepler_12_steps)
        ref = reference_access_windows(source, stations, span, step, mask, night, umbra)
    if block is not None:
        monkeypatch.setattr(orbit, "_BLOCK_SAMPLES", block)
    got = compute_access_windows(source, stations, span, step_seconds=step,
                                 elevation_mask_deg=mask, night_threshold_deg=night,
                                 require_umbra=umbra)
    assert ref, "the case must produce passes to compare"
    assert exact_form(got) == exact_form(ref)
    return ref


EPOCH = datetime(2016, 9, 19, tzinfo=UTC)


@pytest.mark.parametrize("umbra", [False, True], ids=["night", "umbra"])
@pytest.mark.parametrize("mask", [0.0, 10.0, -5.0])
@pytest.mark.parametrize("kind", ["tle", "ephemeris"])
def test_access_matches_full_grid_oracle_10s(monkeypatch, kind, mask, umbra):
    # starts and ends at odd offsets, so the span cuts passes at both ends
    span = (EPOCH + timedelta(hours=9, seconds=7.5),
            EPOCH + timedelta(days=1, hours=20, seconds=3))
    for seed, block in [(0, None), (1, 997)]:
        assert_matches_reference(monkeypatch, tle_or_ephemeris(kind, span),
                                 seeded_stations(seed), span, 10.0, mask, -6.0,
                                 umbra, block)


@pytest.mark.parametrize("umbra", [False, True], ids=["night", "umbra"])
@pytest.mark.parametrize("mask", [0.0, 10.0, -5.0])
@pytest.mark.parametrize("kind", ["tle", "ephemeris"])
def test_access_matches_full_grid_oracle_1s(monkeypatch, kind, mask, umbra):
    # 28,800 samples: two default blocks; the umbra keeps passes in daylight
    span = (EPOCH + timedelta(hours=14), EPOCH + timedelta(hours=22))
    assert_matches_reference(monkeypatch, tle_or_ephemeris(kind, span),
                             seeded_stations(2), span, 1.0, mask,
                             91.0 if umbra else -6.0, umbra)


def test_access_matches_oracle_on_spans_cutting_passes(monkeypatch):
    el = parse_tle(MICIUS_TLE)
    stations = seeded_stations(3)
    wide = (EPOCH, EPOCH + timedelta(days=2))
    passes = reference_access_windows(el, stations, wide, 1.0, 10.0, 91.0, False)
    first, last = passes[1], passes[-2]
    span = (orbit._from_us(int(first.time_us[len(first.time_us) // 2])),
            orbit._from_us(int(last.time_us[len(last.time_us) // 3]))
            + timedelta(seconds=0.5))
    ref = assert_matches_reference(monkeypatch, el, stations, span, 1.0, 10.0, 91.0,
                                   False, block=4099)
    assert ref[0].start == span[0]
    assert max(iv.end for iv in ref) > span[1]


@pytest.mark.parametrize("step", [0.1, 0.3])
def test_access_matches_oracle_with_fractional_times(monkeypatch, step):
    # sample times with a fraction that fromtimestamp must round to the microsecond
    span = (EPOCH + timedelta(hours=16, seconds=0.3),
            EPOCH + timedelta(hours=16, minutes=40))
    assert_matches_reference(monkeypatch, parse_tle(MICIUS_TLE),
                             [GroundStation("Xian", 34.27, 108.93, 400.0),
                              GroundStation("Beijing", 39.90, 116.40, 44.0)],
                             span, step, 10.0, 91.0, False, block=4099)
