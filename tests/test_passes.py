"""Columnar passes against the per-sample code they replaced.

Covers:
  - `time_us` against `datetime.fromtimestamp`, on step grids, fractional
    and exact half-microsecond times
  - the cloud column lookup against the scalar nearest-cell, floor-frame
    query
  - the key matrix (direct and rebuilt from linkbudget.csv), the linkbudget
    CSV and the access CSVs against the per-sample (datetime, LookAngles)
    code kept here and the scalar loss and rate oracles of conftest, bit for
    bit and byte for byte, on seeded scenarios with cloud grids, 0.1-10 s
    steps and fractional-second starts
"""
from __future__ import annotations

import math
from collections import defaultdict
from datetime import datetime, timedelta, timezone

import numpy as np
import pytest

from conftest import dense, oracle_fmt, oracle_gllp_rate, oracle_total_loss, pass_list
from satqkd import cloud, orbit
from satqkd.cli import key_matrix_from_linkbudget, run_access, run_linkbudget
from satqkd.cloud import query, query_column, synthetic_cloud_grid
from satqkd.orbit import GroundStation, LookAngles
from satqkd.qkd import build_key_matrix
from satqkd.scenario import compute_accesses, micius_week_config, union_duration_seconds

UTC = timezone.utc
UNIX_EPOCH = datetime(1970, 1, 1, tzinfo=UTC)
NIGHT = datetime(2016, 9, 19, 14, tzinfo=UTC)


# ---------------------------------------------------------------------------
# time_us
# ---------------------------------------------------------------------------

def fromtimestamp_us(u: float) -> int:
    t = datetime.fromtimestamp(u, tz=UTC)
    return (t - UNIX_EPOCH) // timedelta(microseconds=1)


def exact_half_microseconds(rng, count: int, batch: int = 1 << 20) -> np.ndarray:
    """Times whose fraction scales to exactly k + 0.5 microseconds.

    About 68 candidates in a million pass, so they are drawn in batches;
    np.modf, the scaling and np.floor are exact, as their math forms are.
    """
    found = np.empty(0)
    while len(found) < count:
        whole = rng.integers(-10**6, 2 * 10**9, size=batch).astype(float)
        u = whole + (rng.integers(0, 10**6, size=batch) + 0.5) / 1e6
        frac = np.modf(u)[0] * 1e6
        found = np.concatenate([found, u[frac - np.floor(frac) == 0.5]])
    return found[:count]


def test_time_us_matches_fromtimestamp():
    rng = np.random.default_rng(11)
    u0 = NIGHT.timestamp()
    samples = [
        u0 + step * np.arange(20000)
        for step in (0.1, 0.25, 0.5, 1.0 / 3.0, 1.0, 7.3, 10.0)]
    samples += [
        u0 + 0.3 + 0.1 * np.arange(20000),
        rng.uniform(-3e9, 4e9, 20000),
        rng.uniform(1.4e9, 1.5e9, 20000),
        np.floor(rng.uniform(1.4e9, 1.5e9, 2000)) + rng.integers(0, 10**6, 2000) / 1e6,
        exact_half_microseconds(rng, 300),
        np.array([0.0, -0.5, -1.5e-6, 0.9999995, 1.4999995, 2.5e-6, -2.5e-6]),
    ]
    unix = np.concatenate(samples)
    got = orbit._unix_to_us(unix)
    assert got.dtype == np.int64
    assert got.tolist() == [fromtimestamp_us(u) for u in unix.tolist()]


# ---------------------------------------------------------------------------
# oracles: the per-sample code before passes became columns
# ---------------------------------------------------------------------------

def per_sample(access):
    """(datetime, LookAngles) per sample of a conftest.Pass, as passes held
    them before they became columns."""
    return [(UNIX_EPOCH + timedelta(microseconds=us), LookAngles(e, a, r))
            for us, e, a, r in zip(access.time_us.tolist(), access.elevation_deg.tolist(),
                                   access.azimuth_deg.tolist(),
                                   access.slant_range_km.tolist())]


def reference_query(grid, lat, lon, t):
    i = cloud._nearest_index(lat, grid.lat_min, grid.lat_step, grid.frames.shape[1],
                             "latitude")
    j = cloud._nearest_index(lon, grid.lon_min, grid.lon_step, grid.frames.shape[2],
                             "longitude")
    k = math.floor((t - grid.time_start).total_seconds() / cloud.TIME_STEP_SECONDS)
    assert 0 <= k < grid.n_frames
    return int(grid.frames[k, i, j])


def reference_link_rows(config, accesses):
    for iv in accesses:
        for t, look in per_sample(iv):
            if config.cloud is not None:
                alpha = reference_query(config.cloud, iv.station.latitude_deg,
                                        iv.station.longitude_deg, t)
            else:
                alpha = 0
            yield iv.station.name, t, look, oracle_total_loss(
                look.elevation_deg, look.slant_range_km, alpha, config.optics)


def reference_linkbudget_csv(config, accesses) -> str:
    lines = ["time_utc,station,elevation_deg,range_km,geo_db,atm_db,"
             "cloud_db,fixed_db,total_db,eta\n"]
    for name, t, look, (geo, atm, cld, fixed, total, eta) in reference_link_rows(
            config, accesses):
        lines.append(f"{t.isoformat()},{name},{look.elevation_deg:.4f},"
                     f"{look.slant_range_km:.4f},"
                     + ",".join(map(oracle_fmt, (geo, atm, cld, fixed, total)))
                     + f",{eta!r}\n")
    return "".join(lines)


def reference_key_matrix(config, accesses) -> np.ndarray:
    start = config.span[0]
    column = {st.name: i for i, st in enumerate(config.stations)}
    values = np.zeros((config.n_grid_intervals, len(config.stations)))
    for access in accesses:
        n = column[access.station.name]
        step = access.step_seconds
        for t, look in per_sample(access):
            m = math.floor((t - start).total_seconds() / config.grid_interval_seconds)
            assert 0 <= m < len(values)
            if config.cloud is not None:
                alpha = reference_query(config.cloud, access.station.latitude_deg,
                                        access.station.longitude_deg, t)
            else:
                alpha = 0
            eta = oracle_total_loss(look.elevation_deg, look.slant_range_km, alpha,
                                    config.optics)[5]
            if eta <= 0.0:
                continue
            values[m, n] += oracle_gllp_rate(eta, config.qkd)[6] * step
    return values


def reference_from_linkbudget(config, csv_path) -> np.ndarray:
    start = config.span[0]
    column = {st.name: i for i, st in enumerate(config.stations)}
    values = np.zeros((config.n_grid_intervals, len(config.stations)))
    with open(csv_path, encoding="utf-8") as fh:
        fh.readline()
        for line in fh:
            parts = line.rstrip("\n").split(",")
            t = datetime.fromisoformat(parts[0])
            m = math.floor((t - start).total_seconds() / config.grid_interval_seconds)
            eta = float(parts[9])
            if eta <= 0.0:
                continue
            rate = oracle_gllp_rate(eta, config.qkd)[6]
            values[m, column[parts[1]]] += rate * config.step_seconds
    return values


def reference_access_csvs(config, accesses) -> tuple[str, str]:
    intervals = ["station,start_utc,end_utc,duration_s,max_elevation_deg,min_range_km\n"]
    by_day_sum: dict[str, float] = defaultdict(float)
    by_day_marks: dict[str, set] = defaultdict(set)
    for iv in accesses:
        samples = per_sample(iv)
        elev = max(la.elevation_deg for _, la in samples)
        rng = min(la.slant_range_km for _, la in samples)
        intervals.append(f"{iv.station.name},{iv.start.isoformat()},{iv.end.isoformat()},"
                         f"{iv.duration_seconds:.1f},{elev:.3f},{rng:.3f}\n")
        by_day_sum[iv.start.date().isoformat()] += iv.duration_seconds
        by_day_marks[iv.start.date().isoformat()].update(t for t, _ in samples)
    daily = ["date,station_sum_s,union_s\n"]
    for day in sorted(by_day_sum):
        daily.append(f"{day},{by_day_sum[day]:.1f},"
                     f"{len(by_day_marks[day]) * config.step_seconds:.1f}\n")
    return "".join(intervals), "".join(daily)


def assert_same_text(path, want: str) -> None:
    """Byte-equal file, reporting the first differing line (a full diff of
    thousands of rows takes minutes)."""
    got = path.read_text(encoding="utf-8")
    if got != want:
        pairs = zip(got.splitlines(keepends=True), want.splitlines(keepends=True))
        k = next((k for k, (a, b) in enumerate(pairs) if a != b), None)
        raise AssertionError(f"{path.name} line {k}: "
                             + (f"{got.splitlines()[k]!r} != {want.splitlines()[k]!r}"
                                if k is not None else "line counts differ"))


# ---------------------------------------------------------------------------
# seeded scenarios
# ---------------------------------------------------------------------------

def seeded_scenario(seed, step, start_offset_s, hours, grid_interval, cloudy):
    rng = np.random.default_rng(seed)
    stations = tuple(
        GroundStation(f"g{k}", float(rng.uniform(22.0, 46.0)),
                      float(rng.uniform(80.0, 125.0)), float(rng.uniform(0.0, 3000.0)))
        for k in range(8))
    start = NIGHT + timedelta(seconds=start_offset_s)
    span = (start, start + timedelta(hours=hours))
    grid = None
    if cloudy:
        # a blob over each of the first four stations, so some passes are
        # blocked outright and some only attenuated
        blobs = [(st.latitude_deg + float(rng.uniform(-0.3, 0.3)),
                  st.longitude_deg + float(rng.uniform(-0.3, 0.3)),
                  float(rng.uniform(1.0, 3.0)),
                  400.0 if k < 2 else float(rng.uniform(40.0, 140.0)))
                 for k, st in enumerate(stations[:4])]
        # frames start before the span, so sample times fall mid-frame
        grid_start = NIGHT - timedelta(seconds=437)
        grid = synthetic_cloud_grid(
            20.0, 48.0, 78.0, 127.0, 0.5, 0.5, grid_start,
            n_frames=math.ceil((span[1] - grid_start).total_seconds() / 600) + 1,
            blobs=blobs, drift_deg_per_frame=(float(rng.uniform(-0.1, 0.1)),
                                              float(rng.uniform(-0.1, 0.1))))
    return micius_week_config(stations=stations, span=span, step_seconds=step,
                              grid_interval_seconds=grid_interval, cloud=grid)


SCENARIOS = {
    "cloudy-0.5s-quarter-second-start": (0, 0.5, 0.25, 6, 10.0, True),
    "cloudy-1s-0.3s-start": (1, 1.0, 0.3, 6, 10.0, True),
    "cloudy-0.1s-1s-grid": (2, 0.1, 7200.05, 2, 1.0, True),
    "clear-10s-7.5s-start": (3, 10.0, 7.5, 8, 10.0, False),
}


@pytest.fixture(scope="module", params=list(SCENARIOS), ids=list(SCENARIOS))
def scenario(request):
    config = seeded_scenario(*SCENARIOS[request.param])
    passes = compute_accesses(config)
    assert len(passes), "the scenario must produce passes to compare"
    return config, passes, pass_list(passes)


def test_key_matrix_matches_per_sample_oracle(scenario):
    config, passes, accesses = scenario
    got = build_key_matrix(passes, config.stations, config.optics, config.qkd,
                           start=config.span[0], n_intervals=config.n_grid_intervals,
                           interval_seconds=config.grid_interval_seconds,
                           cloud=config.cloud)
    want = reference_key_matrix(config, accesses)
    assert want.any()
    assert dense(got).tobytes() == want.tobytes()


def test_linkbudget_and_rebuild_match_per_sample_oracle(scenario, tmp_path):
    config, _, accesses = scenario
    info = run_linkbudget(config, tmp_path)
    csv_path = tmp_path / "linkbudget.csv"
    assert_same_text(csv_path, reference_linkbudget_csv(config, accesses))
    assert info["n_samples"] == sum(len(iv.time_us) for iv in accesses)
    if config.cloud is not None:
        assert 0 < info["n_blocked"] < info["n_samples"]
    rebuilt = key_matrix_from_linkbudget(config, csv_path)
    assert dense(rebuilt).tobytes() == reference_from_linkbudget(config, csv_path).tobytes()


def test_access_csvs_and_union_match_per_sample_oracle(scenario, tmp_path):
    config, passes, accesses = scenario
    info = run_access(config, tmp_path)
    intervals, daily = reference_access_csvs(config, accesses)
    assert_same_text(tmp_path / "access_intervals.csv", intervals)
    assert_same_text(tmp_path / "access_daily.csv", daily)
    marks = {t for iv in accesses for t, _ in per_sample(iv)}
    assert info["union_seconds"] == len(marks) * config.step_seconds
    assert union_duration_seconds(passes, config.step_seconds) == info["union_seconds"]
    assert union_duration_seconds(passes[:0], config.step_seconds) == 0.0


def test_cloud_column_matches_scalar_query():
    config = seeded_scenario(*SCENARIOS["cloudy-1s-0.3s-start"])
    grid = config.cloud
    rng = np.random.default_rng(5)
    first = (grid.time_start - UNIX_EPOCH) // timedelta(microseconds=1)
    last = first + grid.n_frames * 600 * 10**6 - 1
    frame_edges = first + 600 * 10**6 * np.arange(1, grid.n_frames)
    time_us = np.concatenate([rng.integers(first, last + 1, 3000), [first, last],
                              frame_edges, frame_edges - 1]).astype(np.int64)
    for st in config.stations:
        got = query_column(grid, st.latitude_deg, st.longitude_deg, time_us).tolist()
        times = [UNIX_EPOCH + timedelta(microseconds=us) for us in time_us.tolist()]
        assert got == [reference_query(grid, st.latitude_deg, st.longitude_deg, t)
                       for t in times]
        assert [query(grid, st.latitude_deg, st.longitude_deg, t)
                for t in times[:50]] == got[:50]
    with pytest.raises(ValueError, match="time .* outside grid span"):
        query_column(grid, 30.0, 100.0, np.array([first, last + 1], dtype=np.int64))
