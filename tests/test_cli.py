"""Scenario config and CLI pipeline tests.

Covers config defaults and field-path validation errors, empty/degenerate
scenarios, the Inf serialization token, linkbudget->keymatrix composition
(bit-exact), strategy comparison properties on constructed fixtures,
divergence-sweep ordering, byte-identical reruns, UTC outputs for a span
given with an offset, and cloud-grid errors that name the station.
"""
from __future__ import annotations

import itertools
import json
import math
import re
import tracemalloc
from dataclasses import replace
from datetime import datetime, timedelta, timezone
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from conftest import dense, key_matrix
from satqkd import cli as cli_module
from satqkd import scenario as scenario_module
from satqkd import sched as sched_module
from satqkd.cli import (
    key_matrix_from_linkbudget,
    main,
    run_access,
    run_keymatrix,
    run_linkbudget,
    run_schedule,
    run_sweep,
)
from satqkd.cloud import synthetic_cloud_grid
from satqkd.orbit import Ephemeris, GroundStation
from satqkd.qkd import KeyMatrix
from satqkd.scenario import (
    ConfigError,
    MICIUS_TLE_LINES,
    ScenarioConfig,
    config_digest,
    load_scenario,
    micius_week_config,
    scenario_from_dict,
)
from satqkd.sched import GaConfig, StrategyConfig

UTC = timezone.utc
DAY0 = datetime(2016, 9, 19, tzinfo=UTC)


def short_config(**overrides) -> ScenarioConfig:
    """Default profile cut to the first night for fast tests."""
    base = dict(span=(DAY0 + timedelta(hours=14), DAY0 + timedelta(hours=20)))
    base.update(overrides)
    return micius_week_config(**base)


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

def test_empty_config_is_default_profile():
    cfg = scenario_from_dict({})
    assert len(cfg.stations) == 11
    assert cfg.optics.divergence_rad == pytest.approx(10e-6)
    assert cfg.qkd.rep_rate_hz == pytest.approx(2e8)
    assert cfg.step_seconds == 10.0
    assert cfg.elevation_mask_deg == 10.0
    assert cfg.night_threshold_deg == -6.0
    assert cfg.tle.inclination_deg == pytest.approx(97.37)


def test_built_in_profile_equals_empty_config():
    assert scenario_from_dict({}) == micius_week_config()
    assert config_digest(scenario_from_dict({})) == config_digest(micius_week_config())


def test_numbers_follow_their_field_type():
    cfg = scenario_from_dict({
        "step_seconds": 5, "stations": [{"name": "A", "lat_deg": 30, "lon_deg": 100}],
        "optics": {"receiver_diameter_m": 1}, "strategy": {"ga": {"population": 50.0}}})
    assert type(cfg.step_seconds) is float and cfg.step_seconds == 5.0
    assert type(cfg.stations[0].latitude_deg) is float
    assert type(cfg.optics.receiver_diameter_m) is float
    assert type(cfg.strategy.ga.population) is int and cfg.strategy.ga.population == 50


def test_config_json_round_trip(tmp_path):
    payload = {
        "tle": list(MICIUS_TLE_LINES),
        "stations": [
            {"name": "A", "lat_deg": 30.0, "lon_deg": 100.0, "alt_m": 10.0,
             "weight": 2.0},
            {"name": "B", "lat_deg": 40.0, "lon_deg": 110.0},
        ],
        "span": ["2016-09-19T00:00:00Z", "2016-09-20T00:00:00Z"],
        "step_seconds": 5,
        "optics": {"divergence_urad": 5, "beam_convention": "half"},
        "qkd": {"q_factor": 1.0},
        "strategy": {"kind": "S-PD", "weights": [3, 1],
                     "ga": {"population": 20, "generations": 10, "seed": 7}},
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    cfg = load_scenario(path)
    assert [st.name for st in cfg.stations] == ["A", "B"]
    assert cfg.stations[1].weight == 1.0
    assert cfg.step_seconds == 5.0
    assert cfg.optics.beam_convention == "half"
    assert cfg.qkd.q_factor == 1.0
    assert cfg.strategy.kind == "S-PD"
    assert cfg.strategy.ga.seed == 7


@pytest.mark.parametrize("payload,needle", [
    ({"stations": [{"name": "A", "lat_deg": 95.0, "lon_deg": 0.0}]}, "stations[0]"),
    ({"stations": [{"name": "A", "lon_deg": 0.0}]}, "stations[0].lat_deg"),
    ({"span": ["2016-09-20T00:00:00Z", "2016-09-19T00:00:00Z"]}, "span"),
    ({"step_seconds": 7}, "step_seconds"),
    ({"qkd": {"nu": 0.9}}, "qkd"),
    ({"strategy": {"kind": "S-XX"}}, "strategy"),
    ({"tle": ["bogus"]}, "tle"),
    ({"optics": {"beam_convention": "quarter"}}, "optics"),
    ({"grid_interval_seconds": -10}, "grid_interval_seconds"),
    ({"grid_interval_seconds": 0}, "grid_interval_seconds"),
    ({"sweep": {"divergences_urad": [0]}}, "sweep.divergences_urad[0]"),
    ({"sweep": {"divergences_urad": [5, -1]}}, "sweep.divergences_urad[1]"),
    ({"sweep": {"divergences_urad": [5, 10, -0.0]}}, "sweep.divergences_urad[2]"),
    # positive, but 0 rad once scaled
    ({"sweep": {"divergences_urad": [1e-320]}}, "sweep.divergences_urad[0]"),
])
def test_config_errors_carry_field_paths(payload, needle):
    with pytest.raises(ConfigError, match=needle.replace("[", r"\[")):
        scenario_from_dict(payload)


def test_station_weights_fall_back_to_station_field():
    cfg = micius_week_config()
    weights = cfg.station_weights()
    assert len(weights) == 11
    assert weights[[st.name for st in cfg.stations].index("Shanghai")] == 24.2


# ---------------------------------------------------------------------------
# access
# ---------------------------------------------------------------------------

def test_access_no_stations_empty_report(tmp_path):
    cfg = short_config(stations=())
    info = run_access(cfg, tmp_path)
    assert info["n_intervals"] == 0
    body = (tmp_path / "access_intervals.csv").read_text()
    assert body == ("station,start_utc,end_utc,duration_s,"
                    "max_elevation_deg,min_range_km\n")
    assert (tmp_path / "manifest.json").exists()


def test_access_polar_station_empty(tmp_path):
    cfg = short_config(stations=(GroundStation("pole", -89.9, 0.0),))
    info = run_access(cfg, tmp_path)
    assert info["n_intervals"] == 0


def test_access_default_night_has_passes(tmp_path):
    info = run_access(short_config(), tmp_path)
    assert info["n_intervals"] > 0
    daily = (tmp_path / "access_daily.csv").read_text().strip().splitlines()
    assert daily[0] == "date,station_sum_s,union_s"
    assert len(daily) >= 2


# ---------------------------------------------------------------------------
# linkbudget
# ---------------------------------------------------------------------------

def test_linkbudget_cloudless_zero_cloud_column(tmp_path):
    run_linkbudget(short_config(), tmp_path)
    lines = (tmp_path / "linkbudget.csv").read_text().strip().splitlines()
    assert len(lines) > 1
    for line in lines[1:]:
        assert line.split(",")[6] == "0.0000"


def test_linkbudget_overcast_writes_inf_token(tmp_path):
    from satqkd.cloud import CloudGrid
    cfg = short_config()
    frames = np.full((37, 5, 9), 150, dtype=np.int16)
    grid = CloudGrid(lat_min=20.0, lat_max=48.0, lon_min=80.0, lon_max=128.0,
                     lat_step=7.0, lon_step=6.0,
                     time_start=cfg.span[0], frames=frames)
    cfg = micius_week_config(span=cfg.span, cloud=grid)
    info = run_linkbudget(cfg, tmp_path)
    assert info["n_blocked"] == info["n_samples"] > 0
    lines = (tmp_path / "linkbudget.csv").read_text().strip().splitlines()
    row = lines[1].split(",")
    assert row[6] == "Inf" and row[8] == "Inf"
    assert float(row[9]) == 0.0


# ---------------------------------------------------------------------------
# keymatrix
# ---------------------------------------------------------------------------

def test_keymatrix_composition_bit_exact(tmp_path):
    cfg = short_config()
    direct = run_keymatrix(cfg, tmp_path / "direct")
    run_linkbudget(cfg, tmp_path / "lb")
    rebuilt = run_keymatrix(cfg, tmp_path / "composed",
                            from_linkbudget=tmp_path / "lb" / "linkbudget.csv")
    assert np.array_equal(dense(direct), dense(rebuilt))
    assert (tmp_path / "direct" / "keymatrix.csv").read_bytes() == \
        (tmp_path / "composed" / "keymatrix.csv").read_bytes()


def test_keymatrix_composition_bit_exact_at_a_fractional_step(tmp_path):
    # each sample adds rate * the configured step on both paths; a step
    # derived from a pass's duration and sample count differs in the last bit
    cfg = short_config(step_seconds=0.7, grid_interval_seconds=7.0)
    run_keymatrix(cfg, tmp_path / "direct")
    run_linkbudget(cfg, tmp_path / "lb")
    run_keymatrix(cfg, tmp_path / "composed",
                  from_linkbudget=tmp_path / "lb" / "linkbudget.csv")
    direct = (tmp_path / "direct" / "keymatrix.csv").read_bytes()
    assert direct.count(b"\n") > 100
    assert direct == (tmp_path / "composed" / "keymatrix.csv").read_bytes()


def test_keymatrix_from_a_pass_free_linkbudget_equals_direct(tmp_path):
    # two hours without a pass: linkbudget.csv is its header alone
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"span": ["2016-09-19T02:00:00+00:00",
                                             "2016-09-19T04:00:00+00:00"]}),
                        encoding="utf-8")
    linkbudget = tmp_path / "lb" / "linkbudget.csv"
    for name, args in [("lb", ["linkbudget"]), ("direct", ["keymatrix"]),
                       ("composed", ["keymatrix", "--from-linkbudget", str(linkbudget)])]:
        assert main([*args, "--config", str(cfg_path), "--out", str(tmp_path / name)]) == 0
    assert linkbudget.read_text(encoding="utf-8").count("\n") == 1
    for name in ("keymatrix.csv", "keymatrix_meta.json", "keys_daily.csv"):
        assert (tmp_path / "direct" / name).read_bytes() == \
            (tmp_path / "composed" / name).read_bytes(), name


SHORT_SPAN = ["2016-09-19T14:00:00+00:00", "2016-09-19T20:00:00+00:00"]


def test_zero_background_yield_exits_0(tmp_path, capsys):
    # with y0 = 0, an eta whose eta * nu underflows to 0 has a zero gain: rate 0
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"span": SHORT_SPAN, "qkd": {"y0": 0}}),
                        encoding="utf-8")
    assert main(["linkbudget", "--config", str(cfg_path), "--out", str(tmp_path / "lb")]) == 0
    header, *rows = (tmp_path / "lb" / "linkbudget.csv").read_text().splitlines()
    k = next(i for i, row in enumerate(rows) if float(row.split(",")[9]) > 0.0)
    fields = rows[k].split(",")
    fields[9] = "5e-324"
    edited = tmp_path / "edited.csv"
    edited.write_text("\n".join([header, *rows[:k], ",".join(fields), *rows[k + 1:]])
                      + "\n", encoding="utf-8")
    for name, extra in [("direct", []), ("composed", ["--from-linkbudget", str(edited)])]:
        assert main(["keymatrix", "--config", str(cfg_path), "--out", str(tmp_path / name),
                     *extra]) == 0, capsys.readouterr().err
    direct = (tmp_path / "direct" / "keymatrix.csv").read_text().splitlines()
    composed = (tmp_path / "composed" / "keymatrix.csv").read_text().splitlines()
    # the edited sample was the only one of its interval: that row has no key now
    assert len(direct) > 1 and len(composed) == len(direct) - 1


@pytest.fixture(scope="module")
def linkbudget_rows(tmp_path_factory):
    """Config path plus header and rows of the first night's linkbudget.csv."""
    root = tmp_path_factory.mktemp("lb")
    cfg_path = root / "cfg.json"
    cfg_path.write_text(json.dumps({"span": SHORT_SPAN}), encoding="utf-8")
    assert main(["linkbudget", "--config", str(cfg_path), "--out", str(root)]) == 0
    header, *rows = (root / "linkbudget.csv").read_text().splitlines()
    return cfg_path, header, rows


@pytest.mark.parametrize("column,value,needle", [
    (0, timedelta(days=-1), "time_utc"),
    (0, timedelta(days=1), "time_utc"),
    (1, "Atlantis", "station"),
    (9, "abc", "eta"),
    (9, "1.5", "eta"),
], ids=["before-span", "after-span", "unknown-station", "eta-text", "eta-above-1"])
def test_keymatrix_from_linkbudget_rejects_bad_rows(tmp_path, capsys, linkbudget_rows,
                                                    column, value, needle):
    cfg_path, header, rows = linkbudget_rows
    k = next(i for i, row in enumerate(rows) if float(row.split(",")[9]) > 0.0)
    fields = rows[k].split(",")
    fields[column] = ((datetime.fromisoformat(fields[0]) + value).isoformat()
                      if column == 0 else value)
    bad = tmp_path / "linkbudget.csv"
    bad.write_text("\n".join([header, *rows[:k], ",".join(fields), *rows[k + 1:]])
                   + "\n", encoding="utf-8")
    rc = main(["keymatrix", "--config", str(cfg_path), "--out", str(tmp_path / "out"),
               "--from-linkbudget", str(bad)])
    assert rc == 2
    error = json.loads(capsys.readouterr().err)["error"]
    assert f"linkbudget.csv:{k + 2}: {needle}:" in error


LINKBUDGET_FIELDS = ("time_utc", "station", "elevation_deg", "range_km", "geo_db",
                     "atm_db", "cloud_db", "fixed_db", "total_db", "eta")
# field text without line breaks, so every row stays one line
FIELD_TEXT = st.text(st.characters(blacklist_categories=("Cs",),
                                   blacklist_characters="\r\n"), max_size=12)
EDGE_FIELDS = st.sampled_from([
    "", " ", "nan", "-nan", "inf", "-inf", "1e400", "-0.0", "0", "1", "0.5", " 0.5 ",
    "5e-324", "1.0000000000000002", "-1e-300", "0x1p-3", "1_0", "Xian", "xian", "Atlantis",
    "2016-09-19T14:00:00", "2016-09-19T14:00:00+00:00", "2016-09-19T13:59:59+00:00",
    "2016-09-19T19:59:59.999999+00:00", "2016-09-20T00:00:00+00:00",
    "2016-09-19T22:00:00+08:00", "2016-09-19T14:00:00Z", "0001-01-01T00:00:00+01:00",
    "0001-01-01T00:00:00+00:00", "9999-12-31T23:59:59-01:00", "2016-02-30T00:00:00+00:00",
])
# (kind, n, text): field n replaced by text (drawn most often), n + 1 fields
# dropped from the end, n % 3 + 1 copies of text appended, or the line replaced
ROW_EDITS = st.tuples(st.sampled_from(["field"] * 4 + ["drop", "extend", "line"]),
                      st.integers(0, 9), st.one_of(EDGE_FIELDS, FIELD_TEXT))


def test_linkbudget_reader_parses_a_row_or_names_its_field(tmp_path_factory,
                                                          linkbudget_rows):
    """Any edited row either parses or raises a ValueError that names the
    file, the edited line and a field."""
    cfg_path, header, rows = linkbudget_rows
    rows = rows[:40]
    config = load_scenario(cfg_path)
    root = tmp_path_factory.mktemp("lb-property")
    field = "|".join([*LINKBUDGET_FIELDS, "expected 10 fields"])
    serial = itertools.count()

    @settings(max_examples=300, deadline=None, database=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    @given(k=st.integers(0, len(rows) - 1), edit=ROW_EDITS)
    def check(k, edit):
        kind, n, text = edit
        fields = rows[k].split(",")
        if kind == "field":
            fields[n] = text
        elif kind == "drop":
            fields = fields[:-n - 1]
        elif kind == "extend":
            fields += [text] * (n % 3 + 1)
        line = text if kind == "line" else ",".join(fields)
        # a new file each time: truncating a just-written file can wait on the disk
        path = root / f"linkbudget-{next(serial)}.csv"
        path.write_text("\n".join([header, *rows[:k], line, *rows[k + 1:]]) + "\n",
                        encoding="utf-8")
        try:
            matrix = key_matrix_from_linkbudget(config, path)
        except ValueError as exc:
            assert re.match(rf"{re.escape(str(path))}:{k + 2}: ({field})\b", str(exc)), exc
            return
        assert isinstance(matrix, KeyMatrix)

    for k, edit in [(0, ("field", 0, "0001-01-01T00:00:00+01:00")),
                    (3, ("field", 0, "9999-12-31T23:59:59-01:00")),
                    (len(rows) - 1, ("line", 0, "")), (5, ("field", 9, "nan")),
                    (7, ("drop", 9, "")), (8, ("extend", 0, "0.5"))]:
        check = example(k=k, edit=edit)(check)
    check()


def test_keymatrix_zero_cloud_equals_disabled(tmp_path):
    from satqkd.cloud import CloudGrid
    cfg = short_config()
    frames = np.zeros((37, 5, 9), dtype=np.int16)
    grid = CloudGrid(lat_min=20.0, lat_max=48.0, lon_min=80.0, lon_max=128.0,
                     lat_step=7.0, lon_step=6.0,
                     time_start=cfg.span[0], frames=frames)
    with_zero = run_keymatrix(micius_week_config(span=cfg.span, cloud=grid),
                              tmp_path / "zero")
    without = run_keymatrix(cfg, tmp_path / "none")
    assert np.array_equal(dense(with_zero), dense(without))


def test_keymatrix_all_blocked_grid_is_all_zero(tmp_path):
    from satqkd.cloud import CloudGrid
    cfg = short_config()
    frames = np.full((37, 5, 9), 150, dtype=np.int16)
    grid = CloudGrid(lat_min=20.0, lat_max=48.0, lon_min=80.0, lon_max=128.0,
                     lat_step=7.0, lon_step=6.0,
                     time_start=cfg.span[0], frames=frames)
    matrix = run_keymatrix(micius_week_config(span=cfg.span, cloud=grid),
                           tmp_path)
    assert not matrix.nonzero()[2].any()


def test_ephemeris_file_through_config(tmp_path):
    from datetime import timedelta as td
    from satqkd.orbit import propagate
    cfg = short_config()
    rows = ["time_utc,x_km,y_km,z_km"]
    t = cfg.span[0]
    while t <= cfg.span[1]:
        st = propagate(cfg.tle, t)
        rows.append("{},{!r},{!r},{!r}".format(t.isoformat(), *st.position_km))
        t += td(seconds=60)
    eph_path = tmp_path / "eph.csv"
    eph_path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    payload = {
        "ephemeris": {"file": "eph.csv"},
        "span": [cfg.span[0].isoformat(), cfg.span[1].isoformat()],
        "step_seconds": 60,
        "grid_interval_seconds": 60,
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(payload), encoding="utf-8")
    loaded = load_scenario(cfg_path)
    assert loaded.ephemeris is not None
    info = run_access(loaded, tmp_path / "out")
    assert info["n_intervals"] > 0


def test_access_propagation_failure_carries_span():
    from satqkd.orbit import TleElements
    decaying = TleElements(epoch=DAY0, inclination_deg=97.37, raan_deg=0.0,
                           eccentricity=0.9, arg_perigee_deg=0.0,
                           mean_anomaly_deg=0.0, mean_motion_rev_day=15.0)
    cfg = short_config(tle=decaying)
    with pytest.raises(ValueError, match="propagation failed over .*sub-surface"):
        run_access(cfg, Path("/tmp/unused-out"))


def test_keymatrix_daily_totals_cover_nonzero_days(tmp_path):
    matrix = run_keymatrix(short_config(), tmp_path)
    daily = (tmp_path / "keys_daily.csv").read_text().strip().splitlines()
    assert daily[0] == "date,station,key_bits"
    total = sum(float(line.split(",")[2]) for line in daily[1:])
    assert total == pytest.approx(matrix.nonzero()[2].sum(), rel=1e-6)


def dict_daily_key_bits(matrix):
    """keys_daily.csv rows as run_keymatrix built them before the integer
    days: a dict of float sums keyed by (label[:10], name), sorted."""
    daily = {}
    rows, cols, cell_bits = matrix.nonzero()
    for m, n, bits in zip(rows.tolist(), cols.tolist(), cell_bits.tolist()):
        key = matrix.interval_start(m).isoformat()[:10], matrix.node_names[n]
        daily[key] = daily.get(key, 0.0) + bits
    return [(day, name, bits) for (day, name), bits in sorted(daily.items())]


@pytest.mark.parametrize("interval_seconds", [10.0, 7.3, 1 / 3, 3600.0])
@pytest.mark.parametrize("start", [DAY0 - timedelta(hours=1, microseconds=3),
                                   datetime(1969, 12, 31, 23, 0, tzinfo=UTC)],
                         ids=["before-midnight", "before-the-epoch"])
def test_daily_key_bits_match_the_dict_sums(start, interval_seconds):
    # unsorted, repeated-prefix names; rows across several midnights; the
    # cells drawn so that the order of the sums shows in the last bits
    rng = np.random.default_rng(20)
    names = ("Xinglong", "Nanshan", "Ali", "Ali-2", "Delingha", "B")
    n_intervals = int(3.5 * 86400 / interval_seconds)
    # seeded rows, and every row within 5 of a midnight
    day0 = datetime(start.year, start.month, start.day, tzinfo=UTC)
    midnights = [math.ceil((day0 + timedelta(days=k) - start).total_seconds()
                           / interval_seconds) for k in range(1, 5)]
    near = np.add.outer(midnights, np.arange(-5, 6)).ravel()
    rows = np.unique(np.concatenate([rng.choice(n_intervals, min(n_intervals, 3000),
                                                replace=False),
                                     near[(near >= 0) & (near < n_intervals)]]))
    cells = np.where(rng.random((len(rows), len(names))) < 0.3,
                     rng.uniform(0.0, 1e6, (len(rows), len(names))) ** 2, 0.0)
    k, node = np.nonzero(cells)
    matrix = KeyMatrix(start, interval_seconds, names, n_intervals, rows[k], node,
                       cells[k, node])
    got = list(zip(*cli_module.daily_key_bits(matrix)))
    want = dict_daily_key_bits(matrix)
    assert len(want) > 3 * len(names)
    assert [(day, name) for day, name, _ in got] == [(day, name) for day, name, _ in want]
    assert [bits.hex() for _, _, bits in got] == [bits.hex() for _, _, bits in want]
    empty = KeyMatrix(start, interval_seconds, names, 4, [], [], [])
    assert list(zip(*cli_module.daily_key_bits(empty))) == []


def test_keymatrix_fine_sampling_converges(tmp_path):
    # 1 s refinement against the default 10 s sampling of the rate integral
    coarse = run_keymatrix(short_config(), tmp_path / "coarse")
    fine = run_keymatrix(short_config(step_seconds=1.0), tmp_path / "fine")
    assert (fine.n_intervals, fine.n_nodes) == (coarse.n_intervals, coarse.n_nodes)
    assert fine.nonzero()[2].sum() == pytest.approx(coarse.nonzero()[2].sum(), rel=0.05)


# ---------------------------------------------------------------------------
# schedule
# ---------------------------------------------------------------------------

def tiny_strategy(seed=0):
    return StrategyConfig(ga=GaConfig(population=40, generations=60, seed=seed))


def synthetic_matrix(values, names, start=DAY0):
    return key_matrix(values, start=start, node_names=names)


def test_schedule_single_node_strategies_coincide(tmp_path):
    cfg = short_config(stations=(GroundStation("Solo", 34.0, 109.0, 0.0, 1.0),),
                       strategy=tiny_strategy())
    matrix = synthetic_matrix([[5.0], [7.0], [0.0], [3.0]], ("Solo",))
    scheds = run_schedule(cfg, tmp_path, seed=1, matrix=matrix)
    totals = {k: s.total for k, s in scheds.items()}
    assert totals["S-GD"] == totals["S-PD"] == totals["S-TD"] == 15.0


def test_schedule_skewed_weights_std_lowers_kl(tmp_path):
    stations = (GroundStation("A", 30.0, 100.0, 0.0, 0.5),
                GroundStation("B", 40.0, 110.0, 0.0, 0.5))
    cfg = short_config(stations=stations, strategy=tiny_strategy())
    matrix = synthetic_matrix([[10.0, 9.9], [0.0, 0.0], [10.0, 9.9]], ("A", "B"))
    scheds = run_schedule(cfg, tmp_path, seed=3, matrix=matrix)
    comparison = (tmp_path / "strategy_comparison.csv").read_text().splitlines()
    kl = {}
    for line in comparison[1:]:
        kind, _total, kl_txt, _name, _bits = line.split(",")
        kl[kind] = math.inf if kl_txt == "Inf" else float(kl_txt)
    assert kl["S-TD"] <= kl["S-GD"]
    assert scheds["S-GD"].total >= scheds["S-PD"].total >= 0.0
    assert scheds["S-GD"].total >= scheds["S-TD"].total


@pytest.mark.parametrize("weights,summary_kl,comparison_kl", [
    # S-GD and S-TD deliver only to A, of weight 0; S-PD delivers nothing
    ((0.0, 1.0), {"S-GD": "Inf", "S-PD": None, "S-TD": "Inf"},
     {"S-GD": "Inf", "S-PD": "Inf", "S-TD": "Inf"}),
    ((1.0, 1.0), {"S-GD": math.log(2.0)}, {"S-GD": "0.693147"}),
], ids=["infinite-and-undefined", "finite"])
def test_schedule_comparison_kl_is_the_summary_kl(tmp_path, weights, summary_kl,
                                                   comparison_kl):
    stations = (GroundStation("A", 30.0, 100.0, 0.0, weights[0]),
                GroundStation("B", 40.0, 110.0, 0.0, weights[1]))
    cfg = short_config(stations=stations, strategy=tiny_strategy())
    matrix = synthetic_matrix([[10.0, 0.0], [0.0, 0.0], [10.0, 0.0]], ("A", "B"))
    run_schedule(cfg, tmp_path, seed=0, matrix=matrix)
    rows = [line.split(",") for line in
            (tmp_path / "strategy_comparison.csv").read_text().splitlines()[1:]]
    written = {kind: {row[2] for row in rows if row[0] == kind} for kind in comparison_kl}
    assert written == {kind: {kl} for kind, kl in comparison_kl.items()}
    for kind, kl in summary_kl.items():
        tag = kind.replace("-", "_").lower()
        summary = json.loads((tmp_path / f"summary_{tag}.json").read_text())
        assert summary["kl_divergence_vs_weights"] == kl


def test_schedule_outputs_full_interval_listing(tmp_path):
    cfg = short_config(stations=(GroundStation("Solo", 34.0, 109.0),),
                       strategy=tiny_strategy())
    matrix = synthetic_matrix([[5.0], [0.0], [3.0]], ("Solo",))
    run_schedule(cfg, tmp_path, seed=0, matrix=matrix)
    lines = (tmp_path / "schedule_s_gd.csv").read_text().strip().splitlines()
    assert lines[0] == "interval_index,start_utc,activity"
    assert len(lines) == 4
    activities = {line.split(",")[2] for line in lines[1:]}
    assert activities <= {"IDLE", "SWITCH", "Solo"}


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def test_divergence_sweep_monotone_min_loss(tmp_path):
    cfg = short_config()
    rows = run_sweep(cfg, "divergence", tmp_path)
    assert [row["value"] for row in rows] == [1.0, 3.0, 5.0, 10.0]
    for st in cfg.stations:
        mins = [row["lo"].get(st.name, math.inf) for row in rows]
        finite = [v for v in mins if not math.isinf(v)]
        assert all(b >= a for a, b in zip(finite, finite[1:]))
    body = (tmp_path / "sweep_divergence.csv").read_text()
    assert body.startswith("divergence_urad,total_visible_duration_s,"
                           "station_sum_duration_s,station,")


def test_divergence_sweep_computes_access_once(tmp_path, monkeypatch):
    import satqkd.cli as cli
    calls = []
    real = cli.compute_accesses
    monkeypatch.setattr(cli, "compute_accesses",
                        lambda config: calls.append(1) or real(config))
    config = short_config(sweep_divergences_urad=(5.0, 10.0, 20.0))
    rows = run_sweep(config, "divergence", tmp_path)
    assert len(rows) == 3 and len(calls) == 1


def test_single_point_sweep_single_row(tmp_path):
    cfg = short_config(sweep_divergences_urad=(10.0,),
                       stations=(GroundStation("Solo", 34.0, 109.0),))
    rows = run_sweep(cfg, "divergence", tmp_path)
    assert len(rows) == 1
    lines = (tmp_path / "sweep_divergence.csv").read_text().strip().splitlines()
    assert len(lines) == 2


def test_sweep_rejects_unknown_variable(tmp_path):
    with pytest.raises(ConfigError, match="variable"):
        run_sweep(short_config(), "wavelength", tmp_path)


# ---------------------------------------------------------------------------
# determinism and entry point
# ---------------------------------------------------------------------------

def test_rerun_is_byte_identical(tmp_path):
    cfg = short_config(strategy=tiny_strategy())
    for name, runner in [("access", run_access), ("linkbudget", run_linkbudget)]:
        runner(cfg, tmp_path / f"{name}1")
        runner(cfg, tmp_path / f"{name}2")
        for child in sorted((tmp_path / f"{name}1").iterdir()):
            twin = tmp_path / f"{name}2" / child.name
            assert child.read_bytes() == twin.read_bytes(), child.name


def test_offset_span_writes_the_same_utc_outputs(tmp_path):
    """The same instants with Z and with +08:00: the key matrix and schedule
    times are UTC and keys_daily.csv uses UTC dates, as access_daily.csv does."""
    spans = {"z": ["2016-09-19T14:00:00Z", "2016-09-19T20:00:00Z"],
             "cst": ["2016-09-19T22:00:00+08:00", "2016-09-20T04:00:00+08:00"]}
    outputs = {}
    for tag, span in spans.items():
        cfg_path = tmp_path / f"{tag}.json"
        cfg_path.write_text(json.dumps(
            {"span": span, "strategy": {"ga": {"population": 20, "generations": 10}}}),
            encoding="utf-8")
        root = tmp_path / tag
        linkbudget = root / "linkbudget" / "linkbudget.csv"
        for name, args in [("access", ["access"]), ("linkbudget", ["linkbudget"]),
                           ("keymatrix", ["keymatrix"]),
                           ("from_lb", ["keymatrix", "--from-linkbudget", str(linkbudget)]),
                           ("schedule", ["schedule"])]:
            assert main([*args, "--config", str(cfg_path), "--out", str(root / name)]) == 0
        outputs[tag] = {path.relative_to(root).as_posix(): path.read_bytes()
                        for path in sorted(root.rglob("*"))
                        if path.is_file() and path.name != "manifest.json"}
    assert outputs["z"] == outputs["cst"]
    assert not any(b"+08:00" in body for body in outputs["cst"].values())
    meta = json.loads(outputs["cst"]["keymatrix/keymatrix_meta.json"])
    assert meta["grid_start_utc"] == "2016-09-19T14:00:00+00:00"
    days = {line.split(b",")[0] for line in
            outputs["cst"]["keymatrix/keys_daily.csv"].splitlines()[1:]}
    assert days == {b"2016-09-19"}


def test_off_grid_row_names_the_grid_start_in_utc(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"span": ["2016-09-19T14:00:00Z",
                                             "2016-09-19T20:00:00Z"]}), encoding="utf-8")
    assert main(["linkbudget", "--config", str(cfg_path), "--out", str(tmp_path / "lb")]) == 0
    errors = []
    for span in (["2016-09-19T17:00:00Z", "2016-09-19T20:00:00Z"],
                 ["2016-09-20T01:00:00+08:00", "2016-09-20T04:00:00+08:00"]):
        cfg_path.write_text(json.dumps({"span": span}), encoding="utf-8")
        rc = main(["keymatrix", "--config", str(cfg_path), "--out", str(tmp_path / "out"),
                   "--from-linkbudget", str(tmp_path / "lb" / "linkbudget.csv")])
        assert rc == 2
        errors.append(json.loads(capsys.readouterr().err)["error"])
    assert errors[0] == errors[1]
    assert errors[0].endswith("is outside the 1080-interval grid from "
                              "2016-09-19T17:00:00+00:00")


def test_main_runs_access_with_config(tmp_path):
    payload = {
        "span": ["2016-09-19T14:00:00Z", "2016-09-19T20:00:00Z"],
        "stations": [{"name": "Xian", "lat_deg": 34.27, "lon_deg": 108.93,
                      "alt_m": 400.0}],
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(payload), encoding="utf-8")
    rc = main(["access", "--config", str(cfg_path), "--out", str(tmp_path / "out")])
    assert rc == 0
    assert (tmp_path / "out" / "access_intervals.csv").exists()


@pytest.mark.parametrize("payload,needle", [
    ({"optics": 5}, "optics"),
    ({"cloud": {"path": "x"}}, "cloud"),
    ({"strategy": {"weights": 3}}, "strategy.weights"),
    ({"strategy": {"ga": {"population": None}}}, "strategy.ga.population"),
    ({"strategy": {"ga": 4}}, "strategy.ga"),
    ({"qkd": {"mu": None}}, "qkd.mu"),
    ({"sweep": []}, "sweep"),
    ({"sweep": {"altitudes_km": 5}}, "sweep.altitudes_km"),
    ({"sweep": {"divergences_urad": ["x"]}}, "sweep.divergences_urad"),
    ({"sweep": {"divergences_urad": None}}, "sweep.divergences_urad"),
    ({"tle": {"file": 5}}, "tle.file"),
    ({"ephemeris": {"file": 5}}, "ephemeris.file"),
    ({"stations": {"file": 5}}, "stations.file"),
    ({"elevation_mask_deg": math.nan}, "elevation_mask_deg"),
    ({"night_threshold_deg": math.nan}, "night_threshold_deg"),
    ({"step_seconds": math.inf}, "step_seconds"),
    ({"require_umbra": 1}, "require_umbra"),
    ({"optics": {"zenith_atm_loss_db": math.inf}}, "optics.zenith_atm_loss_db"),
    ({"optics": {"divergence_urad": math.nan}}, "optics.divergence_urad"),
    ({"strategy": {"kl_tolerance": math.nan}}, "strategy.kl_tolerance"),
    ({"strategy": {"weights": [1.0, math.inf]}}, "strategy.weights"),
    ({"strategy": {"ga": {"population": math.inf}}}, "strategy.ga.population"),
    ({"sweep": {"divergences_urad": [5.0, math.nan]}}, "sweep.divergences_urad"),
    ({"sweep": {"altitudes_km": [{"altitude_km": "x"}]}},
     "sweep.altitudes_km[0].altitude_km"),
    ({"sweep": {"altitudes_km": [500, -7000]}}, "sweep.altitudes_km[1]"),
    ({"sweep": {"altitudes_km": [math.nan]}}, "sweep.altitudes_km[0]"),
    ({"sweep": {"altitudes_km": [{"raan_deg": 5}]}}, "sweep.altitudes_km[0].altitude_km"),
    ({"sweep": {"altitudes_km": [{"altitude_km": 500, "raan_deg": "x"}]}},
     "sweep.altitudes_km[0].raan_deg"),
    # a field of the wrong JSON type, never coerced
    ({"stations": [{"name": ["A"], "lat_deg": 30, "lon_deg": 100}]}, "stations[0].name"),
    ({"stations": [{"name": {"A": 1}, "lat_deg": 30, "lon_deg": 100}]}, "stations[0].name"),
    ({"stations": [{"name": "A", "lat_deg": 30, "lon_deg": 100, "weight": True}]},
     "stations[0].weight"),
    ({"stations": [{"name": "A", "lat_deg": "30", "lon_deg": 100}]}, "stations[0].lat_deg"),
    ({"tle": [1]}, "tle"),
    ({"sweep": {"altitudes_km": [10 ** 400]}}, "sweep.altitudes_km[0]"),
    ({"qkd": {"mu": "0.5"}}, "qkd.mu"),
    ({"qkd": {"mu": 10 ** 400}}, "qkd.mu"),
    ({"qkd": {"rep_rate_mhz": 1e305}}, "qkd.rep_rate_mhz"),
    ({"strategy": {"ga": {"population": 50.9}}}, "strategy.ga.population"),
    ({"strategy": {"ga": {"seed": True}}}, "strategy.ga.seed"),
    ({"strategy": {"kind": None}}, "strategy.kind"),
    ({"strategy": {"weights": ["1", 2]}}, "strategy.weights"),
    ({"optics": {"beam_convention": 1}}, "optics.beam_convention"),
    ({"step_seconds": "1"}, "step_seconds"),
    ({"step_seconds": 1e-320}, "step_seconds"),
    ({"require_umbra": "true"}, "require_umbra"),
    # a file that cannot be opened
    ({"tle": {"file": "missing.tle"}}, "tle.file"),
    ({"ephemeris": {"file": "missing.csv"}}, "ephemeris.file"),
    ({"stations": {"file": "missing.json"}}, "stations.file"),
    ({"cloud": {"file": "missing.txt"}}, "cloud.file"),
    ({"cloud": "missing.txt"}, "cloud.file"),
    # unknown keys
    ({"stepseconds": 5}, "stepseconds"),
    ({"optics": {"wavelength_m": 1e-6}}, "optics.wavelength_m"),
    ({"qkd": {"rep_rate_hz": 1e8}}, "qkd.rep_rate_hz"),
    ({"strategy": {"ga": {"pop": 20}}}, "strategy.ga.pop"),
    ({"stations": [{"name": "A", "lat_deg": 30, "lon_deg": 100, "latitude_deg": 30}]},
     "stations[0].latitude_deg"),
    ({"sweep": {"altitude_km": [500]}}, "sweep.altitude_km"),
    ({"sweep": {"altitudes_km": [{"altitude_km": 500, "raan": 5}]}},
     "sweep.altitudes_km[0].raan"),
    ({"tle": {"file": "x.tle", "format": "tle"}}, "tle.format"),
    # a station name that would break a CSV row or read as a schedule activity
    *(({"stations": [{"name": "A", "lat_deg": 30, "lon_deg": 100},
                     {"name": name, "lat_deg": 31, "lon_deg": 101}]}, "stations[1].name")
      for name in ("", "Xi,an", 'Xi"an', "Xi\nan", "Xi\ran", "IDLE", "SWITCH", "Xi\0an")),
])
def test_main_malformed_config_shapes_exit_2(tmp_path, capsys, payload, needle):
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps(payload), encoding="utf-8")
    rc = main(["access", "--config", str(cfg_path), "--out", str(tmp_path / "out")])
    assert rc == 2
    assert json.loads(capsys.readouterr().err)["error"].startswith(f"{needle}:")


@pytest.mark.parametrize("command", ["access", "linkbudget", "keymatrix", "schedule"])
def test_main_weights_not_one_per_station_exit_2(tmp_path, capsys, command):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"strategy": {"weights": [1, 2]}}), encoding="utf-8")
    rc = main([command, "--config", str(cfg_path), "--out", str(tmp_path / "out")])
    assert rc == 2
    assert json.loads(capsys.readouterr().err)["error"] == (
        "strategy.weights: expected 11, got 2")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", [["access"], ["linkbudget"], ["keymatrix"],
                                     ["schedule"], ["sweep", "--variable", "altitude"],
                                     ["sweep", "--variable", "divergence"]])
def test_main_non_positive_sweep_divergence_exits_2(tmp_path, capsys, command):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"sweep": {"divergences_urad": [5, 0]}}),
                        encoding="utf-8")
    rc = main([*command, "--config", str(cfg_path), "--out", str(tmp_path / "out")])
    assert rc == 2
    assert json.loads(capsys.readouterr().err)["error"] == (
        "sweep.divergences_urad[1]: must be positive, got 0.0")
    assert not (tmp_path / "out").exists()


def test_sweep_divergences_are_checked_for_library_callers():
    with pytest.raises(ConfigError, match=r"^sweep\.divergences_urad\[0\]: "):
        short_config(sweep_divergences_urad=(0.0, 5.0))


@pytest.mark.parametrize("command", ["access", "linkbudget", "keymatrix", "schedule",
                                     "sweep"])
def test_main_step_too_fine_for_int64_exits_2(tmp_path, capsys, command):
    # 6.048e305 samples over the week: refused before any array is made
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"step_seconds": 1e-300,
                                    "grid_interval_seconds": 1e-300}), encoding="utf-8")
    rc = main([command, "--config", str(cfg_path), "--out", str(tmp_path / "out")])
    assert rc == 2
    assert json.loads(capsys.readouterr().err)["error"] == (
        "step_seconds: a step of 1e-300 s makes more than 2**63 - 1 samples over the span")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["access", "linkbudget", "keymatrix", "schedule",
                                     "sweep"])
def test_main_step_too_fine_for_memory_exits_2(tmp_path, capsys, monkeypatch, command):
    # 2.16e13 samples fit int64 but not memory; the allocation failure is
    # simulated, so no huge array is ever requested
    def exhausted(config):
        raise MemoryError("Unable to allocate 28.8 TiB")

    monkeypatch.setattr(cli_module, "compute_accesses", exhausted)
    monkeypatch.setattr(scenario_module, "compute_accesses", exhausted)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "span": ["2016-09-19T14:00:00Z", "2016-09-19T20:00:00Z"],
        "step_seconds": 1e-9, "grid_interval_seconds": 1e-8}), encoding="utf-8")
    rc = main([command, "--config", str(cfg_path), "--out", str(tmp_path / "out")])
    assert rc == 2
    assert json.loads(capsys.readouterr().err)["error"] == (
        "out of memory: step_seconds 1e-09 and grid_interval_seconds 1e-08 over the "
        "span 2016-09-19T14:00:00+00:00 to 2016-09-19T20:00:00+00:00 give more "
        "samples or intervals than fit in memory")


def test_main_negative_ga_seed_names_its_source(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"strategy": {"ga": {"seed": -1}}}), encoding="utf-8")
    assert main(["schedule", "--config", str(cfg_path), "--out", str(tmp_path / "a")]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == (
        "strategy.ga: seed must be >= 0")
    assert main(["schedule", "--seed", "-5", "--out", str(tmp_path / "b")]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "--seed: seed must be >= 0"
    assert not (tmp_path / "a").exists() and not (tmp_path / "b").exists()


NIGHT = ["2016-09-19T14:00:00Z", "2016-09-19T20:00:00Z"]


def test_main_ga_population_too_large_for_memory_exits_2(tmp_path, capsys):
    # 1e15 schedules of int16 genes exceed any address space, so numpy
    # refuses the first population at once
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"span": NIGHT, "strategy": {
        "ga": {"population": 10**15}}}), encoding="utf-8")
    rc = main(["schedule", "--config", str(cfg_path), "--out", str(tmp_path / "out")])
    assert rc == 2
    n_active = len(scenario_module.key_matrix_for(load_scenario(cfg_path)).rows)
    assert n_active > 0
    assert json.loads(capsys.readouterr().err)["error"] == (
        f"strategy.ga.population: 1000000000000000 schedules of {n_active} "
        f"active intervals do not fit in memory")
    assert not any((tmp_path / "out").iterdir())


def test_main_ga_out_of_memory_mid_run_exits_2(tmp_path, capsys, monkeypatch):
    # the third generation's KL runs out of memory, after the first
    # population and two generations' draws were made
    calls = []
    real = sched_module._node_totals

    def exhausted(*args):
        calls.append(1)
        if len(calls) == 3:
            raise MemoryError("Unable to allocate")
        return real(*args)

    monkeypatch.setattr(sched_module, "_node_totals", exhausted)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"span": NIGHT, "strategy": {
        "ga": {"population": 20, "generations": 5}}}), encoding="utf-8")
    rc = main(["schedule", "--config", str(cfg_path), "--out", str(tmp_path / "out")])
    assert rc == 2
    assert len(calls) == 3
    assert re.fullmatch(r"strategy\.ga\.population: 20 schedules of \d+ active "
                        r"intervals do not fit in memory",
                        json.loads(capsys.readouterr().err)["error"])
    assert not any((tmp_path / "out").iterdir())


def test_main_ga_generations_caps_std_without_sizing_it(tmp_path):
    # S-TD stops long before any of these caps, so each writes the schedules
    # of the run at the default 500
    written = {}
    for generations in (500, 10**12, 10**30):
        cfg_path = tmp_path / f"cfg_{generations}.json"
        cfg_path.write_text(json.dumps({
            "span": ["2016-09-19T08:00:00Z", "2016-09-19T20:00:00Z"],
            "strategy": {"ga": {"population": 20, "generations": generations}}}),
            encoding="utf-8")
        out = tmp_path / f"out_{generations}"
        assert main(["schedule", "--config", str(cfg_path), "--out", str(out)]) == 0
        written[generations] = {path.name: path.read_bytes()
                                for path in sorted(out.glob("schedule_*.csv"))}
    assert len(written[500]) == 3
    assert written[10**12] == written[500]
    assert written[10**30] == written[500]


ZERO_WEIGHT_STATIONS = [{"name": "A", "lat_deg": 30, "lon_deg": 100, "weight": 0},
                        {"name": "B", "lat_deg": 31, "lon_deg": 101, "weight": 0}]


@pytest.mark.parametrize("payload,field", [
    ({"stations": ZERO_WEIGHT_STATIONS}, "stations"),
    ({"stations": []}, "stations"),
    ({"stations": [dict(st, weight=1) for st in ZERO_WEIGHT_STATIONS],
      "strategy": {"weights": [0, 0]}}, "strategy.weights"),
], ids=["zero-station-weights", "no-stations", "zero-strategy-weights"])
def test_main_schedule_without_a_positive_weight_exits_2(tmp_path, capsys, payload, field):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(payload), encoding="utf-8")
    rc = main(["schedule", "--config", str(cfg_path), "--out", str(tmp_path / "out")])
    assert rc == 2
    assert json.loads(capsys.readouterr().err)["error"] == (
        f"{field}: S-TD needs at least one positive weight")
    assert not (tmp_path / "out").exists()
    # the weights matter to the schedule only
    rc = main(["access", "--config", str(cfg_path), "--out", str(tmp_path / "access")])
    assert rc == 0


@pytest.mark.parametrize("token,needle", [
    ("70000", "cloud: cloud value 70000 outside [0, 150] at frame 0, lat row 1, lon col 2"),
    ("151", "cloud: cloud value 151 outside [0, 150] at frame 0, lat row 1, lon col 2"),
    ("-7", "cloud: cloud value -7 outside [0, 150] at frame 0, lat row 1, lon col 2"),
    ("99999999999999999999", "cloud: cloud value 99999999999999999999 outside"),
    ("12.5", "cloud: non-integer cell value"),
])
def test_main_bad_cloud_value_exits_2(tmp_path, capsys, token, needle):
    (tmp_path / "clouds.txt").write_text(
        "30 31 100 102 1 1 2016-09-19T00:00:00+00:00 1 2 3\n"
        f"0 10 20\n30 40 {token}\n", encoding="utf-8")
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"cloud": {"file": "clouds.txt"}}), encoding="utf-8")
    rc = main(["linkbudget", "--config", str(cfg_path), "--out", str(tmp_path / "out")])
    assert rc == 2
    assert json.loads(capsys.readouterr().err)["error"].startswith(needle)


@pytest.mark.parametrize("command", ["linkbudget", "keymatrix"])
@pytest.mark.parametrize("header,needle", [
    ("30 48 70 140 2 5 2016-09-19T14:00:00Z 36 10 15",
     "cloud: Guangzhou: latitude 23.13 outside grid bounds [30.0, 48.0]"),
    ("20 48 90 140 2 5 2016-09-19T14:00:00Z 36 15 11",
     "cloud: Urumqi: longitude 87.62 outside grid bounds [90.0, 140.0]"),
    ("20 48 70 140 2 5 2016-09-19T14:00:00Z 12 15 15",
     "cloud: Shenyang: time 2016-09-19T16:18:20+00:00 outside grid span of 12 frames "
     "from 2016-09-19T14:00:00+00:00"),
], ids=["latitude", "longitude", "time"])
def test_main_station_outside_cloud_grid_exits_2(tmp_path, capsys, command, header, needle):
    fields = header.split()
    cells = math.prod(int(v) for v in fields[7:])
    (tmp_path / "clouds.txt").write_text(f"{header}\n{' '.join(['0'] * cells)}\n",
                                         encoding="utf-8")
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"span": ["2016-09-19T14:00:00Z", "2016-09-19T20:00:00Z"],
                                    "cloud": {"file": "clouds.txt"}}), encoding="utf-8")
    rc = main([command, "--config", str(cfg_path), "--out", str(tmp_path / "out")])
    assert rc == 2
    assert json.loads(capsys.readouterr().err)["error"] == needle


def test_failed_linkbudget_leaves_no_file_for_keymatrix(tmp_path, capsys):
    # 432 ten-minute frames cover the first 3 of the default week's 7 days
    (tmp_path / "clouds.txt").write_text(
        "20 48 80 130 2 5 2016-09-19T00:00:00Z 432 15 11\n"
        + " ".join(["0"] * (432 * 15 * 11)) + "\n", encoding="utf-8")
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"cloud": {"file": "clouds.txt"}}), encoding="utf-8")
    short_path = tmp_path / "short.json"
    short_path.write_text(json.dumps({"span": ["2016-09-19T14:00:00Z",
                                               "2016-09-19T20:00:00Z"]}), encoding="utf-8")
    # a fresh out, and one that holds an earlier run's linkbudget.csv
    fresh, reused = tmp_path / "fresh", tmp_path / "reused"
    earlier = tmp_path / "earlier"
    assert main(["linkbudget", "--config", str(short_path), "--out", str(earlier)]) == 0
    reused.mkdir()
    (earlier / "linkbudget.csv").rename(reused / "linkbudget.csv")
    capsys.readouterr()
    for out in (fresh, reused):
        assert main(["linkbudget", "--config", str(cfg_path), "--out", str(out)]) == 2
        assert json.loads(capsys.readouterr().err)["error"] == (
            "cloud: Shenyang: time 2016-09-22T15:15:40+00:00 outside grid span of 432 "
            "frames from 2016-09-19T00:00:00+00:00")
        assert not (out / "linkbudget.csv").exists() and not (out / "manifest.json").exists()
        # so no three-day key matrix is built from the rows before the error
        assert main(["keymatrix", "--config", str(cfg_path), "--out", str(out / "km"),
                     "--from-linkbudget", str(out / "linkbudget.csv")]) == 2
        assert "linkbudget.csv" in json.loads(capsys.readouterr().err)["error"]


EPHEMERIS_HEADER = "time_utc,x_km,y_km,z_km\n"
EPHEMERIS_ROW_1 = "2016-09-19T00:00:00+00:00,7000,0,0\n"
EPHEMERIS_ROW_2 = "2016-09-19T00:01:00+00:00,7000,100,0\n"


@pytest.mark.parametrize("body,where", [
    (EPHEMERIS_ROW_1 + "2016-09-19T00:01:00+00:00,7000,100\n",
     ":3: expected 4 fields, got 3"),
    ("yesterday,7000,0,0\n" + EPHEMERIS_ROW_2, ":2: time_utc: "),
    (EPHEMERIS_ROW_1 + "2016-09-19T00:01:00+00:00,abc,100,0\n",
     ":3: x_km: could not convert string to float: 'abc'"),
    (EPHEMERIS_ROW_1 + "2016-09-19T00:01:00+00:00,7000,nan,0\n",
     ":3: y_km: must be finite, got nan"),
    (EPHEMERIS_ROW_1 + "2016-09-19T00:01:00+00:00,7000,100,-inf\n",
     ":3: z_km: must be finite, got -inf"),
    (EPHEMERIS_ROW_2 + EPHEMERIS_ROW_1, ":3: time_utc: "),
    (EPHEMERIS_ROW_1 + EPHEMERIS_ROW_1, ":3: time_utc: "),
    (EPHEMERIS_ROW_1, ": ephemeris needs at least two samples, got 1"),
], ids=["field-count", "time", "text-coordinate", "nan-coordinate",
        "inf-coordinate", "decreasing", "repeated", "one-row"])
def test_main_bad_ephemeris_file_exits_2(tmp_path, capsys, body, where):
    eph = tmp_path / "eph.csv"
    eph.write_text(EPHEMERIS_HEADER + body, encoding="utf-8")
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"ephemeris": {"file": "eph.csv"}}), encoding="utf-8")
    rc = main(["access", "--config", str(cfg_path), "--out", str(tmp_path / "out")])
    assert rc == 2
    assert json.loads(capsys.readouterr().err)["error"].startswith(
        f"ephemeris: {eph}{where}")


def test_altitude_sweep_without_tle_exits_2(tmp_path, capsys):
    (tmp_path / "eph.csv").write_text(EPHEMERIS_HEADER + EPHEMERIS_ROW_1 + EPHEMERIS_ROW_2,
                                      encoding="utf-8")
    cfg_path = tmp_path / "cfg.json"
    # a span the minute of ephemeris covers
    cfg_path.write_text(json.dumps({"ephemeris": {"file": "eph.csv"},
                                    "span": ["2016-09-19T00:00:00Z", "2016-09-19T00:01:00Z"]}),
                        encoding="utf-8")
    rc = main(["sweep", "--variable", "altitude", "--config", str(cfg_path),
               "--out", str(tmp_path / "out")])
    assert rc == 2
    assert json.loads(capsys.readouterr().err)["error"].startswith("tle: ")


@pytest.mark.parametrize("command", ["access", "linkbudget"])
def test_ephemeris_short_of_the_span_exits_2_naming_it(tmp_path, capsys, command):
    # two days of a 30 s ephemeris under the default week
    from satqkd.orbit import _propagate_arrays
    unix = DAY0.timestamp() + np.arange(0.0, 2 * 86400.0 + 1.0, 30.0)
    pos = _propagate_arrays(micius_week_config().tle, unix)[0]
    rows = [f"{datetime.fromtimestamp(u, UTC).isoformat()},{x!r},{y!r},{z!r}\n"
            for u, (x, y, z) in zip(unix.tolist(), pos.tolist())]
    (tmp_path / "eph.csv").write_text(EPHEMERIS_HEADER + "".join(rows), encoding="utf-8")
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"ephemeris": {"file": "eph.csv"}}), encoding="utf-8")
    rc = main([command, "--config", str(cfg_path), "--out", str(tmp_path / "out")])
    assert rc == 2
    assert json.loads(capsys.readouterr().err)["error"] == (
        "ephemeris: covers 2016-09-19T00:00:00+00:00..2016-09-21T00:00:00+00:00, but the "
        "samples run 2016-09-19T00:00:00+00:00..2016-09-25T23:59:50+00:00")
    assert not (tmp_path / "out").exists()


def test_ephemeris_must_hold_the_first_and_last_samples():
    # a minute at 10 s: samples at 0, 10, ..., 50 s
    span = (DAY0, DAY0 + timedelta(minutes=1))

    def ephemeris(first, last):
        unix = DAY0.timestamp() + np.array([first, last])
        return Ephemeris(unix, np.array([[7000.0, 0.0, 0.0], [7000.0, 100.0, 0.0]]))

    ScenarioConfig(ephemeris=ephemeris(0.0, 50.0), span=span)
    for first, last in ((0.0, 49.9), (0.1, 60.0)):
        with pytest.raises(ConfigError, match="^ephemeris: covers "):
            ScenarioConfig(ephemeris=ephemeris(first, last), span=span)


# config_digest values recorded before scenario_from_dict stopped repeating
# the ScenarioConfig defaults and began to validate sweep entries
@pytest.mark.parametrize("payload,digest", [
    ({}, "18398f807bb1a4597a847068c993d4ae789bd01ab1445e18174c165d1419a532"),
    ({"step_seconds": 5, "grid_interval_seconds": 10, "elevation_mask_deg": 15,
      "night_threshold_deg": -12.0, "require_umbra": True,
      "span": ["2016-09-19T00:00:00+08:00", "2016-09-20T00:00:00Z"]},
     "7483a4e5f45e8daaa5b2e3138c70e089e6c6f3a8897ea184f9bd8fe62f21104c"),
    ({"tle": list(MICIUS_TLE_LINES),
      "stations": [{"name": "A", "lat_deg": 30.0, "lon_deg": 100.0, "alt_m": 10.0,
                    "weight": 2.0},
                   {"name": "B", "lat_deg": 40.0, "lon_deg": 110.0}],
      "optics": {"divergence_urad": 5, "beam_convention": "half"},
      "qkd": {"q_factor": 1.0},
      "strategy": {"kind": "S-PD", "weights": [3, 1], "kl_tolerance": 0.1,
                   "ga": {"population": 20, "generations": 10, "seed": 7}}},
     "5facfaf566511c1a266b314bbbac9b3dfd9ce266584d4f272c90dc5befc209ea"),
    ({"sweep": {"altitudes_km": [500, 1200.5, {"altitude_km": 800},
                                 {"altitude_km": 35863, "raan_deg": 50},
                                 {"altitude_km": 900.0, "raan_deg": None}],
                "divergences_urad": [1, 2.5]}},
     "80389a4414680c7c9dab9b4c268c77897e4ce066683fe3989ead98e8e7057e87"),
], ids=["empty", "top-level", "sections", "sweep"])
def test_valid_configs_keep_their_digest(payload, digest):
    assert config_digest(scenario_from_dict(payload)) == digest


def test_a_cloud_grid_keeps_its_digest_and_is_hashed_in_place():
    # the digest recorded when arrays were hashed through a copy of their
    # C-order bytes; a Fortran-order copy of the frames hashes the same
    grid = synthetic_cloud_grid(20.0, 48.0, 78.0, 127.0, 0.5, 0.5, DAY0, n_frames=100,
                                blobs=[(30.0, 100.0, 2.0, 140.0)],
                                drift_deg_per_frame=(0.01, 0.02))
    config = micius_week_config(cloud=grid)
    digest = "7a134bda7ec12a94390da0e9baa4096c05b9bc704a14c8b5fab2d5b6370372c9"
    assert config_digest(config) == digest
    fortran = replace(grid, frames=np.asfortranarray(grid.frames))
    assert config_digest(replace(config, cloud=fortran)) == digest
    tracemalloc.start()
    try:
        config_digest(config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < grid.frames.nbytes // 10


def test_main_invalid_config_exits_nonzero(tmp_path, capsys):
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text('{"span": ["2016-09-20T00:00:00Z", "2016-09-19T00:00:00Z"]}',
                        encoding="utf-8")
    rc = main(["access", "--config", str(cfg_path), "--out", str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "span" in json.loads(err)["error"]


HALF_DAY = ["2016-09-19T12:00:00Z", "2016-09-20T00:00:00Z"]


def run_main(tmp_path, command, payload):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(payload), encoding="utf-8")
    return main([*command, "--config", str(cfg_path), "--out", str(tmp_path / "out")])


def test_main_schedule_equal_keys_pass_the_dominance_check(tmp_path):
    # S-TD returns the S-GD seed's keys, held over other zero rows: the
    # node totals summed with those zeros differ from S-GD's in the last bit
    rc = run_main(tmp_path, ["schedule"], {"span": HALF_DAY, "strategy": {"kl_tolerance": 0}})
    assert rc == 0
    assert (tmp_path / "out" / "strategy_comparison.csv").exists()


def test_delivered_sum_ignores_zero_rows_and_order():
    matrix = synthetic_matrix([[0.1, 0.0], [0.0, 0.0], [0.2, 0.3], [0.7, 0.0]], ("A", "B"))
    a = sched_module.Schedule(np.array([0, 0, 0, 0]), (1.0, 0.0), 1.0)
    b = sched_module.Schedule(np.array([0, -1, 0, 0]), (1.0, 0.0), 1.0)
    assert cli_module._delivered_sum(a, matrix) == cli_module._delivered_sum(b, matrix) == 1.0


@pytest.mark.parametrize("command", [["linkbudget"], ["keymatrix"], ["schedule"],
                                     ["sweep", "--variable", "altitude"],
                                     ["sweep", "--variable", "divergence"]])
def test_main_negative_elevation_mask_exits_2_naming_it(tmp_path, capsys, command):
    rc = run_main(tmp_path, command, {"span": HALF_DAY, "elevation_mask_deg": -1})
    assert rc == 2
    assert json.loads(capsys.readouterr().err)["error"] == (
        "elevation_mask_deg: the loss model needs a mask >= 0, got -1.0")
    assert not (tmp_path / "out").exists()


def test_access_keeps_a_negative_elevation_mask(tmp_path):
    assert run_main(tmp_path, ["access"], {"span": HALF_DAY, "elevation_mask_deg": -1}) == 0
    assert (tmp_path / "out" / "access_intervals.csv").exists()


def test_main_sweep_altitude_that_cannot_propagate_names_its_entry(tmp_path, capsys):
    rc = run_main(tmp_path, ["sweep"], {"span": HALF_DAY,
                                        "sweep": {"altitudes_km": [500, 1e-9]}})
    assert rc == 2
    assert json.loads(capsys.readouterr().err)["error"].startswith(
        "sweep.altitudes_km[1]: propagation failed over ")


def test_main_sweep_pass_past_the_last_datetime_names_the_span(tmp_path, capsys):
    rc = run_main(tmp_path, ["sweep"], {"span": ["9999-12-31T00:00:00Z",
                                                  "9999-12-31T23:59:59Z"]})
    assert rc == 2
    assert json.loads(capsys.readouterr().err)["error"].startswith("span: a pass of ")
