"""Every CSV writer against a frozen copy of the f-string writer it replaced.

Each oracle below is the row loop that wrote its file before the writers
moved onto output's byte matrices, kept as it was except that it spells a
time with datetime.isoformat() of its int64 microseconds itself.  The inputs
are chosen where a byte-matrix spelling could part from those loops: station
names of two- and three-byte UTF-8 characters, grid intervals and sample
steps of 1/3 s and 7.3 s, starts with microseconds, spans over a year end and
over 29 February, times before 1970 and at both ends of the datetime range.

The one declared difference is in the last test: a total that overflows to
infinity is written as Inf (the f-string wrote inf), and a JSON summary
spells it "Inf" rather than the bare Infinity, which JSON cannot hold.
"""
from __future__ import annotations

import json
import math
import re
from collections import defaultdict
from datetime import datetime, timezone

import numpy as np
import pytest

from conftest import Pass, key_matrix, oracle_fmt, pass_table, union_duration_seconds
from satqkd import cli
from satqkd.orbit import GroundStation, _from_us, _to_us
from satqkd.output import _US_RANGE
from satqkd.qkd import KeyMatrix, export_key_matrix
from satqkd.cli import main
from satqkd.scenario import load_scenario, micius_week_config
from satqkd.sched import IDLE, SWITCH, GaConfig, Schedule, StrategyConfig, write_schedule_csv

pytestmark = pytest.mark.bits

UTC = timezone.utc
US_MAX = _US_RANGE[1]
NAMES = ("Ürümqi", "北京", "Xi’an", "Day-side")
STATIONS = tuple(GroundStation(name, lat, lon, 0.0, weight) for name, lat, lon, weight in [
    ("Ürümqi", 43.8, 87.6, 1.0), ("北京", 40.4, 117.6, 2.0), ("Xi’an", 34.3, 108.9, 0.5),
    ("Day-side", 30.0, -100.0, 1.0)])  # in daylight all through SPAN: Inf extremes
SPAN = (datetime(2016, 9, 19, 14, tzinfo=UTC), datetime(2016, 9, 19, 20, tzinfo=UTC))
STARTS = {
    "year-end": datetime(2016, 12, 31, 23, 50, 0, 123_457, tzinfo=UTC),
    "leap-day": datetime(2016, 2, 28, 23, 50, 0, 500_000, tzinfo=UTC),
    "before-1970": datetime(1969, 12, 31, 23, 50, 0, 999_999, tzinfo=UTC),
    "year-1": datetime.min.replace(tzinfo=UTC),
}
STEPS = [10.0, 1 / 3, 7.3]
# cells whose .3f and repr spellings are hard: ties, huge, subnormal
SPECIAL_BITS = [0.0005, 0.0015, 2.5e-4, 1e300, 5e-324, 123456789.0625, 1e16 + 2, 0.1]


def isoformat(us: int) -> str:
    return _from_us(us).isoformat()


def near_max(n: int, step: float) -> datetime:
    """A start whose n-th step is the last microsecond datetime holds."""
    return _from_us(US_MAX - math.ceil(n * step * 1e6))


def matrix_at(start: datetime, step: float, n_intervals: int, seed: int) -> KeyMatrix:
    rng = np.random.default_rng(seed)
    values = np.where(rng.random((n_intervals, len(NAMES))) < 0.2,
                      rng.uniform(0.0, 4e6, (n_intervals, len(NAMES))), 0.0)
    values.flat[rng.choice(values.size, len(SPECIAL_BITS), replace=False)] = SPECIAL_BITS
    return key_matrix(values, start=start, interval_seconds=step, node_names=NAMES)


def matrices():
    for k, step in enumerate(STEPS):
        for name, start in [*STARTS.items(), ("year-9999", near_max(3000, step))]:
            yield f"{name}-{step:.4g}", matrix_at(start, step, 3000, k)


# ---------------------------------------------------------------------------
# the oracles
# ---------------------------------------------------------------------------

def oracle_access(config, accesses) -> tuple[str, str]:
    intervals = "station,start_utc,end_utc,duration_s,max_elevation_deg,min_range_km\n"
    for iv in accesses:
        intervals += (f"{iv.station.name},{iv.start.isoformat()},{iv.end.isoformat()},"
                      f"{iv.duration_seconds:.1f},{iv.elevation_deg.max():.3f},"
                      f"{iv.slant_range_km.min():.3f}\n")
    by_day = defaultdict(list)
    for iv in accesses:
        by_day[iv.start.date().isoformat()].append(iv)
    daily = "date,station_sum_s,union_s\n"
    for day, ivs in sorted(by_day.items()):
        union = union_duration_seconds(ivs, config.step_seconds)
        daily += f"{day},{sum(iv.duration_seconds for iv in ivs):.1f},{union:.1f}\n"
    return intervals, daily


def oracle_keys_daily(matrix) -> str:
    return "date,station,key_bits\n" + "".join(
        f"{str(day)},{name},{float(bits):.3f}\n"
        for day, name, bits in zip(*cli.daily_key_bits(matrix)))


def oracle_export_key_matrix(matrix) -> str:
    rows, cols, bits = matrix.nonzero()
    labels = map(isoformat, matrix.row_us(rows).tolist())
    return "interval_index,node_name,start_utc,key_bits\n" + "".join(
        f"{m},{matrix.node_names[n]},{label},{b!r}\n"
        for m, n, label, b in zip(rows.tolist(), cols.tolist(), labels, bits.tolist()))


def oracle_schedule_csv(schedule, matrix) -> str:
    names = {IDLE: "IDLE", SWITCH: "SWITCH", **dict(enumerate(matrix.node_names))}
    labels = map(isoformat, matrix.row_us(np.arange(matrix.n_intervals)).tolist())
    return "interval_index,start_utc,activity\n" + "".join(
        f"{m},{label},{names[act]}\n"
        for m, (label, act) in enumerate(zip(labels, schedule.assignment.tolist())))


def oracle_strategy_comparison(schedules, summaries, names) -> str:
    text = "strategy,total_bits,kl_vs_weights,node_name,node_bits\n"
    for kind, sched in schedules.items():
        kl = summaries[kind]["kl_divergence_vs_weights"]
        kl_txt = oracle_fmt(math.inf if kl in (None, "Inf") else kl, ".6f")
        for name, bits in zip(names, sched.node_totals):
            text += f"{kind},{sched.total:.3f},{kl_txt},{name},{bits:.3f}\n"
    return text


def oracle_sweep(config, variable, rows) -> str:
    unit = "altitude_km" if variable == "altitude" else "divergence_urad"
    text = (f"{unit},total_visible_duration_s,station_sum_duration_s,"
            f"station,min_total_db,max_total_db\n")
    for row in rows:
        for st in config.stations:
            lo = row["lo"].get(st.name, math.inf)
            hi = row["hi"].get(st.name, -math.inf)
            hi = math.inf if math.isinf(lo) else hi
            text += (f"{row['value']:g},{row['duration_s']:.1f},"
                     f"{row['station_sum_s']:.1f},{st.name},"
                     f"{oracle_fmt(lo)},{oracle_fmt(hi)}\n")
    return text


# ---------------------------------------------------------------------------
# the writers against them
# ---------------------------------------------------------------------------

def crafted_accesses(rng) -> list[Pass]:
    """Passes of every station from each adversarial start, sorted by start,
    the last one ending at the last microsecond datetime holds."""
    accesses = []
    for k, (step, start) in enumerate([(step, start) for start in STARTS.values()
                                       for step in STEPS] + [(7.3, None)]):
        n = int(rng.integers(1, 400))
        step_us = round(step * 1e6)
        t0 = _to_us(start) if start is not None else US_MAX - n * step_us
        for station in STATIONS:
            t0 += int(rng.integers(0, 3)) * 3_600_000_000 * (start is not None)
            time_us = t0 + step_us * np.arange(n)
            elevation = rng.uniform(-2.0, 90.0, n)
            elevation[rng.integers(0, n)] = 45.0005 + k
            accesses.append(Pass(
                station=station, start=_from_us(int(time_us[0])),
                end=_from_us(int(time_us[-1]) + step_us), step_seconds=step,
                time_us=time_us, elevation_deg=elevation,
                azimuth_deg=rng.uniform(0.0, 360.0, n),
                slant_range_km=rng.uniform(300.0, 6000.0, n)))
    return sorted(accesses, key=lambda iv: iv.start)


def test_access_matches_the_row_loops(tmp_path, monkeypatch):
    accesses = crafted_accesses(np.random.default_rng(7))
    assert accesses[-1].end == datetime.max.replace(tzinfo=UTC)
    config = micius_week_config(stations=STATIONS)
    monkeypatch.setattr(cli, "compute_accesses",
                        lambda _config: pass_table(accesses, config.step_seconds))
    cli.run_access(config, tmp_path)
    intervals, daily = oracle_access(config, accesses)
    assert (tmp_path / "access_intervals.csv").read_bytes() == intervals.encode()
    assert (tmp_path / "access_daily.csv").read_bytes() == daily.encode()


@pytest.mark.parametrize("name,matrix", list(matrices()))
def test_keymatrix_files_match_the_row_loops(tmp_path, monkeypatch, name, matrix):
    monkeypatch.setattr(cli, "key_matrix_for", lambda _config: matrix)
    cli.run_keymatrix(micius_week_config(stations=STATIONS), tmp_path)
    assert (tmp_path / "keymatrix.csv").read_bytes() == oracle_export_key_matrix(matrix).encode()
    assert (tmp_path / "keys_daily.csv").read_bytes() == oracle_keys_daily(matrix).encode()


@pytest.mark.parametrize("name,matrix", list(matrices()))
def test_schedule_csv_matches_the_row_loop(tmp_path, name, matrix):
    codes = np.random.default_rng(len(name)).integers(SWITCH, len(NAMES), matrix.n_intervals)
    schedule = Schedule(assignment=codes, node_totals=(), objective=0.0)
    write_schedule_csv([schedule], matrix, [tmp_path / "schedule.csv"])
    assert (tmp_path / "schedule.csv").read_bytes() == oracle_schedule_csv(schedule,
                                                                          matrix).encode()


def test_key_matrix_at_the_first_and_last_microsecond(tmp_path):
    for start in (datetime.min.replace(tzinfo=UTC), near_max(2, 1.0)):
        matrix = key_matrix(np.full((3, len(NAMES)), 0.25), start=start,
                            interval_seconds=1.0, node_names=NAMES)
        export_key_matrix(matrix, micius_week_config().qkd, tmp_path / "km.csv",
                          tmp_path / "km.json")
        assert (tmp_path / "km.csv").read_bytes() == oracle_export_key_matrix(matrix).encode()
    assert matrix.row_us(np.array([2]))[0] == US_MAX


def test_schedule_outputs_match_the_row_loops(tmp_path):
    config = micius_week_config(stations=STATIONS, strategy=StrategyConfig(
        ga=GaConfig(population=20, generations=10, seed=0)))
    matrix = matrix_at(STARTS["leap-day"], 1 / 3, 2000, 11)
    schedules = cli.run_schedule(config, tmp_path, seed=0, matrix=matrix)
    summaries = {kind: json.loads((tmp_path / f"summary_{kind.replace('-', '_').lower()}.json")
                                  .read_text(encoding="utf-8")) for kind in schedules}
    assert (tmp_path / "strategy_comparison.csv").read_bytes() == \
        oracle_strategy_comparison(schedules, summaries, NAMES).encode()
    for kind, schedule in schedules.items():
        path = tmp_path / f"schedule_{kind.replace('-', '_').lower()}.csv"
        assert path.read_bytes() == oracle_schedule_csv(schedule, matrix).encode()


@pytest.mark.parametrize("variable", ["altitude", "divergence"])
def test_sweep_matches_the_row_loop(tmp_path, variable):
    config = micius_week_config(
        span=SPAN, stations=STATIONS, sweep_divergences_urad=(5.0, 12.5, 0.001),
        sweep_altitudes=({"altitude_km": 500.0}, {"altitude_km": 1234.5}))
    rows = cli.run_sweep(config, variable, tmp_path)
    text = (tmp_path / f"sweep_{variable}.csv").read_bytes()
    assert text == oracle_sweep(config, variable, rows).encode()
    assert ",Day-side,Inf,Inf\n".encode() in text and "北京".encode() in text


# ---------------------------------------------------------------------------
# the declared change: totals that overflow
# ---------------------------------------------------------------------------

OVERFLOW = {
    "qkd": {"rep_rate_mhz": 1e300}, "step_seconds": 60, "grid_interval_seconds": 60,
    "optics": {"receiver_diameter_m": 20, "pointing_loss_db": 0, "coupling_loss_db": 0,
               "detection_loss_db": 0, "zenith_atm_loss_db": 0},
}


def strict(text: str):
    def refuse(token):
        raise ValueError(f"{token} is not JSON")
    return json.loads(text, parse_constant=refuse)


def test_overflowing_totals_are_written_as_inf_tokens(tmp_path):
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps(OVERFLOW), encoding="utf-8")
    config = load_scenario(path)
    with np.errstate(over="ignore"):
        schedules = cli.run_schedule(config, tmp_path)
    assert math.isinf(schedules["S-GD"].total)
    summaries = {path.name: strict(path.read_text(encoding="utf-8"))
                 for path in sorted(tmp_path.glob("*.json")) if path.name != "overflow.json"}
    assert len(summaries) == 4
    sgd = summaries["summary_s_gd.json"]
    assert sgd["total_bits"] == sgd["objective"] == "Inf"

    text = (tmp_path / "strategy_comparison.csv").read_text(encoding="utf-8")
    assert {row.split(",")[1] for row in text.splitlines() if row.startswith("S-GD,")} == {"Inf"}
    assert "inf" not in text
    # the f-string writer wrote the same rows with inf for the totals
    want = oracle_strategy_comparison(schedules, {
        kind: summaries[f"summary_{kind.replace('-', '_').lower()}.json"]
        for kind in schedules}, [st.name for st in config.stations])
    assert ",inf," in want
    assert text == want.replace(",inf,", ",Inf,")


def overflow_config(tmp_path, rep_rate_mhz: float):
    path = tmp_path / f"overflow-{rep_rate_mhz:g}.json"
    path.write_text(json.dumps({**OVERFLOW, "qkd": {"rep_rate_mhz": rep_rate_mhz}}),
                    encoding="utf-8")
    return path


def test_key_bits_past_the_largest_float_name_the_rate(tmp_path, capsys):
    # one interval's bits overflow at 1e302 MHz (at 1e303 the reader refuses
    # the rate); the linkbudget does not depend on it
    config = str(overflow_config(tmp_path, 1e302))
    assert main(["linkbudget", "--config", config, "--out", str(tmp_path / "lb")]) == 0
    for k, command in enumerate([
            ["keymatrix"], ["schedule"],
            ["keymatrix", "--from-linkbudget", str(tmp_path / "lb" / "linkbudget.csv")]]):
        assert main([*command, "--config", config, "--out", str(tmp_path / f"{k}")]) == 2
        assert json.loads(capsys.readouterr().err)["error"] == (
            "qkd.rep_rate_mhz: too large: key matrix entry [979][4] = inf is not "
            "finite and >= 0")
        assert not any((tmp_path / f"{k}").iterdir())


def test_an_overflowing_sum_of_node_totals_writes_no_nan(tmp_path):
    # at 1e301 MHz S-GD and S-TD deliver every key to one node, whose total
    # is past the largest float, and S-PD spreads them so that only the sum
    # of its node totals overflows
    config = str(overflow_config(tmp_path, 1e301))
    with np.errstate(over="ignore", invalid="ignore"):
        assert main(["schedule", "--config", config, "--out", str(tmp_path / "out")]) == 0
    kls = {}
    for kind in ("s_gd", "s_pd", "s_td"):
        text = (tmp_path / "out" / f"summary_{kind}.json").read_text(encoding="utf-8")
        kls[kind] = strict(text)["kl_divergence_vs_weights"]
    assert kls["s_gd"] is kls["s_td"] is None
    assert math.isfinite(kls["s_pd"])
    text = (tmp_path / "out" / "strategy_comparison.csv").read_text(encoding="utf-8")
    assert not re.search(r"\bnan\b", text, re.IGNORECASE)
    assert {row.split(",")[2] for row in text.splitlines() if row.startswith("S-GD,")} == {"Inf"}


@pytest.mark.parametrize("command,rep_rate_mhz", [("keymatrix", 1e301), ("schedule", 1e300)])
def test_key_bit_sums_past_the_largest_float_raise_no_warning(tmp_path, command,
                                                              rep_rate_mhz):
    # no errstate here: a sum that overflows to inf must not warn on its way
    # to the Inf it writes (Tier-1 turns a RuntimeWarning into an error)
    config = str(overflow_config(tmp_path, rep_rate_mhz))
    assert main([command, "--config", config, "--out", str(tmp_path / "strict")]) == 0
    with np.errstate(all="ignore"):
        assert main([command, "--config", config, "--out", str(tmp_path / "quiet")]) == 0
    names = sorted(path.name for path in (tmp_path / "strict").iterdir())
    assert names == sorted(path.name for path in (tmp_path / "quiet").iterdir())
    for name in names:
        assert (tmp_path / "strict" / name).read_bytes() == \
            (tmp_path / "quiet" / name).read_bytes(), name
    totals = "keys_daily.csv" if command == "keymatrix" else "strategy_comparison.csv"
    assert ",Inf" in (tmp_path / "strict" / totals).read_text(encoding="utf-8")
