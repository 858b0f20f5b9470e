"""The access report against the per-pass loops it replaced.

`oracle_run_access` is the table building of `cli.run_access` as it was
before the report was built from columns, kept as it was but for reading
its passes through conftest.Pass: per-pass datetime conversions, a per-pass
max and min, and one np.unique per day plus one for the whole span.  The
column build must write the same bytes and return the same summary on
seeded station sets, on a pass that runs over midnight UTC (its samples
after midnight count on its start day), on a 0.3 s step and on a config
without passes.
"""
from __future__ import annotations

import math
from collections import defaultdict
from datetime import datetime, timedelta, timezone

import numpy as np
import pytest

from conftest import Pass, pass_list, pass_table, union_duration_seconds
from satqkd import cli
from satqkd.orbit import GroundStation, _from_us, _to_us
from satqkd.output import fixed_point, iso_utc, spelled, write_csv
from satqkd.scenario import compute_accesses, micius_week_config

UTC = timezone.utc
NIGHT = (datetime(2016, 9, 20, 18, tzinfo=UTC), datetime(2016, 9, 21, 6, tzinfo=UTC))


def oracle_run_access(config, out, accesses) -> dict:
    out.mkdir(parents=True, exist_ok=True)
    # one chunk: a pass's samples outweigh its row of text
    write_csv(out / "access_intervals.csv",
              "station,start_utc,end_utc,duration_s,max_elevation_deg,min_range_km\n", [[
                  spelled([iv.station.name.encode() for iv in accesses]),
                  iso_utc([_to_us(iv.start) for iv in accesses]),
                  iso_utc([_to_us(iv.end) for iv in accesses]),
                  fixed_point([iv.duration_seconds for iv in accesses], 1),
                  fixed_point([iv.elevation_deg.max() for iv in accesses], 3),
                  fixed_point([iv.slant_range_km.min() for iv in accesses], 3)]])

    by_day = defaultdict(list)
    for iv in accesses:
        by_day[iv.start.date().isoformat()].append(iv)
    daily_union = {day: union_duration_seconds(ivs, config.step_seconds)
                   for day, ivs in sorted(by_day.items())}
    write_csv(out / "access_daily.csv", "date,station_sum_s,union_s\n", [[
        spelled(list(daily_union)),
        fixed_point([sum(iv.duration_seconds for iv in by_day[day]) for day in daily_union], 1),
        fixed_point(list(daily_union.values()), 1)]])
    return {
        "n_intervals": len(accesses),
        "total_station_seconds": sum(iv.duration_seconds for iv in accesses),
        "union_seconds": union_duration_seconds(accesses, config.step_seconds),
        "daily_union_seconds": daily_union,
    }


def seeded_sites(seed: int, count: int) -> tuple[GroundStation, ...]:
    """Stations uniform over the sphere at random altitudes."""
    rng = np.random.default_rng(seed)
    return tuple(GroundStation(f"g{k}", math.degrees(math.asin(rng.uniform(-1.0, 1.0))),
                               rng.uniform(-180.0, 180.0), rng.uniform(0.0, 3000.0))
                 for k in range(count))


def assert_report_matches_oracle(tmp_path, config):
    accesses = pass_list(compute_accesses(config))
    expected = oracle_run_access(config, tmp_path / "oracle", accesses)
    got = cli.run_access(config, tmp_path / "columns")
    for name in ("access_intervals.csv", "access_daily.csv"):
        assert ((tmp_path / "columns" / name).read_bytes()
                == (tmp_path / "oracle" / name).read_bytes()), name
    assert got == expected
    return accesses


def crafted_passes(rng, stations, step: float) -> list[Pass]:
    """Passes starting within an hour of three midnights, sorted by start, so
    that a pass begun before midnight shares sample times with passes begun
    after it."""
    step_us = round(step * 1e6)
    accesses = []
    for day in range(3):
        midnight = _to_us(datetime(2016, 9, 20 + day, tzinfo=UTC))
        for station in stations:
            n = int(rng.integers(1, 60))
            t0 = midnight + step_us * int(rng.integers(-360 // step, 360 // step))
            time_us = t0 + step_us * np.arange(n)
            accesses.append(Pass(
                station=station, start=_from_us(int(time_us[0])),
                end=_from_us(int(time_us[-1]) + step_us), step_seconds=step,
                time_us=time_us, elevation_deg=rng.uniform(10.0, 90.0, n),
                azimuth_deg=rng.uniform(0.0, 360.0, n),
                slant_range_km=rng.uniform(500.0, 1500.0, n)))
    return sorted((accesses[k] for k in rng.permutation(len(accesses))),
                  key=lambda iv: iv.start)


@pytest.mark.parametrize("seed", range(5))
def test_report_matches_oracle_on_crafted_passes_around_midnight(tmp_path, monkeypatch, seed):
    rng = np.random.default_rng(seed)
    config = micius_week_config(stations=seeded_sites(seed, 6))
    accesses = crafted_passes(rng, config.stations, config.step_seconds)
    monkeypatch.setattr(cli, "compute_accesses", lambda _config: pass_table(accesses))
    expected = oracle_run_access(config, tmp_path / "oracle", accesses)
    assert cli.run_access(config, tmp_path / "columns") == expected
    for name in ("access_intervals.csv", "access_daily.csv"):
        assert ((tmp_path / "columns" / name).read_bytes()
                == (tmp_path / "oracle" / name).read_bytes()), name


@pytest.mark.parametrize("seed", [0, 2])
def test_report_matches_oracle_over_midnight(tmp_path, seed):
    accesses = assert_report_matches_oracle(
        tmp_path, micius_week_config(stations=seeded_sites(seed, 40), span=NIGHT))
    assert any(iv.start.date() < datetime.fromtimestamp(int(iv.time_us[-1]) / 1e6, UTC).date()
               for iv in accesses), "a pass must run over midnight UTC"


def test_report_matches_oracle_on_a_week_of_seeded_stations(tmp_path):
    accesses = assert_report_matches_oracle(
        tmp_path, micius_week_config(stations=seeded_sites(5, 25)))
    assert len({iv.start.date() for iv in accesses}) == 7


def test_report_matches_oracle_at_a_fractional_step(tmp_path):
    # sample times with a fraction that fromtimestamp rounds to the microsecond
    span = (datetime(2016, 9, 19, 16, 0, 0, 300_000, tzinfo=UTC),
            datetime(2016, 9, 19, 16, 40, tzinfo=UTC))
    config = micius_week_config(
        stations=(GroundStation("Xian", 34.27, 108.93, 400.0),
                  GroundStation("Beijing", 39.90, 116.40, 44.0), *seeded_sites(3, 10)),
        span=span, step_seconds=0.3, grid_interval_seconds=3.0, night_threshold_deg=91.0)
    assert assert_report_matches_oracle(tmp_path, config)


@pytest.mark.parametrize("stations", [(), (GroundStation("pole", -89.9, 0.0),)],
                         ids=["no-stations", "polar"])
def test_report_matches_oracle_without_passes(tmp_path, stations):
    config = micius_week_config(stations=stations, span=(NIGHT[0], NIGHT[0] + timedelta(hours=6)))
    assert not assert_report_matches_oracle(tmp_path, config)


def test_stations_at_one_site_keep_config_order_in_the_report(tmp_path):
    site = dict(latitude_deg=39.90, longitude_deg=116.40, altitude_m=44.0)
    config = micius_week_config(
        stations=(GroundStation("B", **site), GroundStation("Urumqi", 43.8, 87.6),
                  GroundStation("A", **site)),
        span=(datetime(2016, 9, 19, 14, tzinfo=UTC), datetime(2016, 9, 20, 22, tzinfo=UTC)))
    assert_report_matches_oracle(tmp_path, config)
    rows = (tmp_path / "columns" / "access_intervals.csv").read_text().splitlines()[1:]
    pairs = [row.split(",", 1) for row in rows if not row.startswith("Urumqi,")]
    assert pairs, "the shared site must see passes"
    # every pass of the shared site twice in a row: B's row, then A's
    assert [name for name, _ in pairs] == ["B", "A"] * (len(pairs) // 2)
    assert all(b == a for (_, b), (_, a) in zip(pairs[::2], pairs[1::2]))
