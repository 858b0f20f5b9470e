"""The pass table against the per-pass builder it replaced.

`frozen_passes` is `orbit._passes` as it was before the passes became one
`orbit.Passes` table, kept as it was but for building a conftest.Pass where
it built an AccessInterval: it took each station's usable samples in chunks
of its own, cut them into runs and made one object per run, its start and
end through `datetime.fromtimestamp`, stably sorted by start.
`orbit._pass_table`, which takes the chunks of every station tagged with
their station and interleaved as the blocks of access give them, must
give the same passes, sample for sample and bit for bit, and the same
OverflowError text for a pass that ends past the last time a datetime
holds: on the usable samples of seeded station sets (co-located stations
whose passes tie on start, and spans that end inside a pass) and on crafted
runs (fractional steps and starts, one station's run across several chunks,
runs of two stations that meet, times before 1970 and at the end of the
datetime range).  `frozen_pass_blocks` is `qkd.pass_blocks` as it was;
`Passes.blocks` must close its blocks after the same passes, and a slice
of the table must hold the passes of the slice.
"""
from __future__ import annotations

from datetime import datetime, timedelta, timezone

import numpy as np
import pytest

from conftest import Pass, pass_list, pass_table
from satqkd import orbit
from satqkd.orbit import GroundStation, compute_access_windows, parse_tle
from satqkd.scenario import MICIUS_TLE_LINES

pytestmark = pytest.mark.bits

UTC = timezone.utc
EPOCH = datetime(2016, 9, 19, tzinfo=UTC)
MICIUS = parse_tle("\n".join(MICIUS_TLE_LINES))


# ---------------------------------------------------------------------------
# the frozen builders
# ---------------------------------------------------------------------------

def frozen_passes(stations, found, u0, step_seconds) -> list[Pass]:
    """One pass per run of consecutive sample indices of one station in
    `found`, stably sorted by start, so that ties keep station order."""
    chunks = [(station, chunk) for station, own in enumerate(found) for chunk in own]
    if not chunks:
        return []
    owner = np.repeat([station for station, _ in chunks], [len(c[0]) for _, c in chunks])
    index, elev, azim, rng = (np.concatenate(col) for col in zip(*(c for _, c in chunks)))
    unix = u0 + step_seconds * index
    time_us = orbit._unix_to_us(unix)
    cut = np.ones(len(index), dtype=bool)
    cut[1:] = (np.diff(index) != 1) | (np.diff(owner) != 0)
    first = np.flatnonzero(cut)
    stop = np.append(first[1:], len(index))
    start_us = time_us[first]
    ends = (unix[stop - 1] + step_seconds).tolist()
    who = owner[first].tolist()
    spans = list(zip(first.tolist(), stop.tolist(), start_us.tolist()))
    intervals = []
    for p in np.argsort(start_us, kind="stable").tolist():
        k0, k1, us = spans[p]
        try:
            end = orbit._from_unix(ends[p])
        except (ValueError, OverflowError):
            raise OverflowError(f"a pass of {stations[who[p]].name} ends "
                                f"{step_seconds} s after "
                                f"{orbit._from_unix(unix[k1 - 1]).isoformat()}, "
                                f"past the last time a datetime holds") from None
        intervals.append(Pass(
            station=stations[who[p]], start=orbit._from_us(us), end=end,
            step_seconds=step_seconds,
            time_us=time_us[k0:k1], elevation_deg=elev[k0:k1],
            azimuth_deg=azim[k0:k1], slant_range_km=rng[k0:k1]))
    return intervals


def frozen_pass_blocks(accesses, chunk):
    """Runs of consecutive passes, each closed once it holds chunk samples."""
    block, size = [], 0
    for access in accesses:
        block.append(access)
        size += len(access.time_us)
        if size >= chunk:
            yield block
            block, size = [], 0
    if block:
        yield block


def exact_form(passes):
    """Passes with every value spelled out bit for bit."""
    return [(p.station, p.start.isoformat(), p.end.isoformat(), p.step_seconds,
             p.time_us.dtype, p.time_us.tolist(),
             *([value.hex() for value in column.tolist()]
               for column in (p.elevation_deg, p.azimuth_deg, p.slant_range_km)))
            for p in passes]


def outcome(build, *args):
    try:
        return "ok", exact_form(build(*args))
    except OverflowError as exc:
        return "error", str(exc)


def tagged(found, rng=None) -> list[tuple[np.ndarray, ...]]:
    """Per-station chunks as _pass_table takes them: each led by its station
    column, in an order drawn from rng that keeps each station's own order
    (station after station without rng)."""
    queues = [[(np.full(len(chunk[0]), s), *chunk) for chunk in own]
              for s, own in enumerate(found)]
    if rng is None:
        return [chunk for queue in queues for chunk in queue]
    out = []
    while live := [queue for queue in queues if queue]:
        out.append(live[int(rng.integers(len(live)))].pop(0))
    return out


def per_station(found, n_stations: int):
    """_pass_table's chunks as the frozen builder took them."""
    return [[tuple(column[chunk[0] == s] for column in chunk[1:])
             for chunk in found if (chunk[0] == s).any()] for s in range(n_stations)]


def table_outcome(stations, found, u0, step, rng=None):
    return outcome(lambda: pass_list(orbit._pass_table(stations, tagged(found, rng), u0, step)))


# ---------------------------------------------------------------------------
# the usable samples of seeded station sets
# ---------------------------------------------------------------------------

def seeded_stations(seed: int, count: int) -> list[GroundStation]:
    """Stations over China's latitudes at random altitudes, each second one
    at the site of the one before (so their passes tie on start)."""
    rng = np.random.default_rng(seed)
    stations = []
    for k in range(count):
        if k % 2:
            site = stations[-1]
            stations.append(GroundStation(f"twin{k}", site.latitude_deg, site.longitude_deg,
                                          site.altitude_m))
        else:
            stations.append(GroundStation(f"g{k}", float(rng.uniform(20.0, 50.0)),
                                          float(rng.uniform(75.0, 130.0)),
                                          float(rng.uniform(0.0, 3000.0))))
    return stations


def captured(monkeypatch, stations, span, step):
    """compute_access_windows' table and the arguments it built it from."""
    calls = []
    build = orbit._pass_table

    def recorded(*args):
        calls.append(args)
        return build(*args)

    monkeypatch.setattr(orbit, "_pass_table", recorded)
    table = compute_access_windows(MICIUS, stations, span, step_seconds=step)
    (args,) = calls
    return table, args


@pytest.mark.parametrize("seed,step,hours", [(0, 10.0, 30), (1, 1.0, 8), (2, 0.3, 3)])
def test_table_matches_frozen_builder_on_seeded_stations(monkeypatch, seed, step, hours):
    stations = seeded_stations(seed, 12)
    wide = (EPOCH + timedelta(hours=14, seconds=0.25), EPOCH + timedelta(hours=14 + hours))
    passes = pass_list(compute_access_windows(MICIUS, stations, wide, step_seconds=step))
    # end the span inside the longest pass, so that it is cut at the span end
    longest = max(passes, key=lambda p: len(p.time_us))
    last = int(longest.time_us[len(longest.time_us) // 2])
    table, (_, found, u0, _) = captured(monkeypatch, stations,
                                        (wide[0], orbit._from_us(last + 1)), step)
    want = frozen_passes(stations, per_station(found, len(stations)), u0, step)
    assert exact_form(pass_list(table)) == exact_form(want)
    assert table.station.dtype == table.bounds.dtype == table.end_us.dtype == np.int64
    starts = [p.start for p in want]
    assert len(starts) > len(set(starts)), "co-located stations must tie on start"
    assert any(p.time_us[-1] == last for p in want), "a pass must be cut at the span end"


# ---------------------------------------------------------------------------
# crafted runs
# ---------------------------------------------------------------------------

def chunk(index, rng) -> tuple[np.ndarray, ...]:
    index = np.asarray(index, dtype=np.int64)
    return (index, rng.uniform(-5.0, 90.0, len(index)), rng.uniform(0.0, 360.0, len(index)),
            rng.uniform(300.0, 3000.0, len(index)))


def crafted_found(rng, n_stations: int, n_samples: int):
    """Per station, its usable sample indexes in chunks: random runs, each
    station's indexes split at random into consecutive chunks."""
    found = []
    for _ in range(n_stations):
        usable = np.flatnonzero(rng.random(n_samples) < rng.uniform(0.05, 0.9))
        cuts = np.sort(rng.choice(len(usable) + 1, int(rng.integers(0, 4)), replace=True))
        found.append([chunk(part, rng) for part in np.split(usable, cuts) if len(part)])
    return found


STARTS = [EPOCH.timestamp(), EPOCH.timestamp() + 0.3, -86400.0 * 365.25 + 0.7,
          datetime(1, 1, 1, tzinfo=UTC).timestamp()]


@pytest.mark.parametrize("step", [10.0, 1.0, 0.1, 1 / 3, 7.3])
@pytest.mark.parametrize("u0", STARTS, ids=["2016", "fraction", "1969", "year-1"])
def test_table_matches_frozen_builder_on_crafted_runs(u0, step):
    rng = np.random.default_rng([int(step * 10), STARTS.index(u0)])
    for n_stations in (0, 1, 2, 7):
        stations = [GroundStation(f"s{k}", 0.0, float(k)) for k in range(n_stations)]
        found = crafted_found(rng, n_stations, 400)
        want = outcome(frozen_passes, stations, found, u0, step)
        assert table_outcome(stations, found, u0, step, rng) == want
        assert want[0] == "ok"


def test_runs_of_two_stations_that_meet_stay_apart_and_tie_in_station_order():
    rng = np.random.default_rng(3)
    stations = [GroundStation("a", 0.0, 0.0), GroundStation("b", 1.0, 1.0),
                GroundStation("c", 2.0, 2.0)]
    # a's run 5..7 meets b's 8..9; b's run 8..11 comes in two chunks; c
    # starts with a and with b
    found = [[chunk([5, 6, 7], rng)], [chunk([8, 9], rng), chunk([10, 11], rng)],
             [chunk([5, 8], rng)]]
    got = pass_list(orbit._pass_table(stations, tagged(found, rng), EPOCH.timestamp(), 10.0))
    assert [(p.station.name, p.time_us[0], len(p.time_us)) for p in got] == [
        ("a", orbit._to_us(EPOCH) + 50_000_000, 3), ("c", orbit._to_us(EPOCH) + 50_000_000, 1),
        ("b", orbit._to_us(EPOCH) + 80_000_000, 4), ("c", orbit._to_us(EPOCH) + 80_000_000, 1)]
    assert exact_form(got) == exact_form(frozen_passes(stations, found, EPOCH.timestamp(),
                                                       10.0))


# ---------------------------------------------------------------------------
# passes at the end of the datetime range
# ---------------------------------------------------------------------------

LAST_US = orbit._to_us(datetime.max)


@pytest.mark.parametrize("step", [10.0, 1.0, 0.3, 1e6])
def test_passes_at_the_end_of_the_datetime_range(step):
    rng = np.random.default_rng(int(step))
    stations = [GroundStation(f"s{k}", 0.0, float(k)) for k in range(3)]
    # the last sample and the one before: the pass ends one step after
    for last in range(1, 4):
        u0 = (LAST_US - last * round(step * 1e6)) / 1e6 - step * 5
        found = [[chunk(np.arange(2, 5 + last - k), rng)] for k in range(3)]
        want = outcome(frozen_passes, stations, found, u0, step)
        assert table_outcome(stations, found, u0, step, rng) == want


def test_a_pass_that_ends_past_any_timestamp_raises_the_same_text():
    # the frozen builder's fromtimestamp raised OSError here, past the
    # years the platform's gmtime holds; the table names the pass
    stations = [GroundStation("far", 0.0, 0.0)]
    found = [[chunk([0], np.random.default_rng(0))]]
    with pytest.raises(OverflowError) as info:
        orbit._pass_table(stations, tagged(found), EPOCH.timestamp(), 1e17)
    assert str(info.value) == (f"a pass of far ends 1e+17 s after {EPOCH.isoformat()}, "
                               f"past the last time a datetime holds")


# ---------------------------------------------------------------------------
# blocks and slices
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("size", [1, 20, 100, 4096])
def test_blocks_close_after_the_same_passes(size):
    rng = np.random.default_rng(size)
    stations = [GroundStation(f"s{k}", 0.0, float(k)) for k in range(5)]
    table = orbit._pass_table(stations, tagged(crafted_found(rng, 5, 3000), rng),
                              EPOCH.timestamp(), 1.0)
    blocks = list(table.blocks(size))
    want = [exact_form(block) for block in frozen_pass_blocks(pass_list(table), size)]
    assert [exact_form(pass_list(block)) for block in blocks] == want
    assert sum(map(len, blocks)) == len(table)
    assert list(table[:0].blocks(size)) == []


def test_slices_and_durations():
    table = pass_table([
        Pass(GroundStation("a", 0.0, 0.0), EPOCH, EPOCH + timedelta(seconds=20.5), 10.0,
             orbit._to_us(EPOCH) + np.array([0, 10_000_000]), np.ones(2), np.ones(2),
             np.ones(2)),
        Pass(GroundStation("b", 0.0, 1.0), EPOCH, EPOCH + timedelta(seconds=10), 10.0,
             np.array([orbit._to_us(EPOCH)]), np.ones(1), np.ones(1), np.ones(1))])
    assert table.duration_seconds() == [20.5, 10.0]
    assert table.sample_station().tolist() == [0, 0, 1]
    assert table[1:].bounds.tolist() == [0, 1] and table[1:].station.tolist() == [1]
    for part in (slice(1, None), slice(None, 1), slice(-2, None), slice(5, None)):
        assert exact_form(pass_list(table[part])) == exact_form(pass_list(table)[part])
    assert len(table[5:]) == 0 and table[5:].bounds.tolist() == [0]
