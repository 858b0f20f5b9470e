"""Scenario config and CLI pipeline tests.

Covers config defaults and field-path validation errors, empty/degenerate
scenarios, the Inf serialization token, linkbudget->keymatrix composition
(bit-exact), strategy comparison properties on constructed fixtures,
divergence-sweep ordering and byte-identical reruns.
"""
from __future__ import annotations

import itertools
import json
import math
import re
from datetime import datetime, timedelta, timezone
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from satqkd.cli import (
    key_matrix_from_linkbudget,
    main,
    run_access,
    run_keymatrix,
    run_linkbudget,
    run_schedule,
    run_sweep,
)
from satqkd.orbit import GroundStation
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
    assert np.array_equal(direct.values, rebuilt.values)
    assert (tmp_path / "direct" / "keymatrix.csv").read_bytes() == \
        (tmp_path / "composed" / "keymatrix.csv").read_bytes()


SHORT_SPAN = ["2016-09-19T14:00:00+00:00", "2016-09-19T20:00:00+00:00"]


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
    assert np.array_equal(with_zero.values, without.values)


def test_keymatrix_all_blocked_grid_is_all_zero(tmp_path):
    from satqkd.cloud import CloudGrid
    cfg = short_config()
    frames = np.full((37, 5, 9), 150, dtype=np.int16)
    grid = CloudGrid(lat_min=20.0, lat_max=48.0, lon_min=80.0, lon_max=128.0,
                     lat_step=7.0, lon_step=6.0,
                     time_start=cfg.span[0], frames=frames)
    matrix = run_keymatrix(micius_week_config(span=cfg.span, cloud=grid),
                           tmp_path)
    assert not matrix.values.any()


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
    assert total == pytest.approx(matrix.values.sum(), rel=1e-6)


def test_keymatrix_fine_sampling_converges(tmp_path):
    # 1 s refinement against the default 10 s sampling of the rate integral
    coarse = run_keymatrix(short_config(), tmp_path / "coarse")
    fine = run_keymatrix(short_config(step_seconds=1.0), tmp_path / "fine")
    assert fine.values.shape == coarse.values.shape
    assert fine.values.sum() == pytest.approx(coarse.values.sum(), rel=0.05)


# ---------------------------------------------------------------------------
# schedule
# ---------------------------------------------------------------------------

def tiny_strategy(seed=0):
    return StrategyConfig(ga=GaConfig(population=40, generations=60, seed=seed))


def synthetic_matrix(values, names, start=DAY0):
    return KeyMatrix(start=start, interval_seconds=10.0, node_names=names,
                     values=np.asarray(values, dtype=float))


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
])
def test_main_malformed_config_shapes_exit_2(tmp_path, capsys, payload, needle):
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps(payload), encoding="utf-8")
    rc = main(["access", "--config", str(cfg_path), "--out", str(tmp_path / "out")])
    assert rc == 2
    assert json.loads(capsys.readouterr().err)["error"].startswith(f"{needle}:")


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
    cfg_path.write_text(json.dumps({"ephemeris": {"file": "eph.csv"}}), encoding="utf-8")
    rc = main(["sweep", "--variable", "altitude", "--config", str(cfg_path),
               "--out", str(tmp_path / "out")])
    assert rc == 2
    assert json.loads(capsys.readouterr().err)["error"].startswith("tle: ")


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


def test_main_invalid_config_exits_nonzero(tmp_path, capsys):
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text('{"span": ["2016-09-20T00:00:00Z", "2016-09-19T00:00:00Z"]}',
                        encoding="utf-8")
    rc = main(["access", "--config", str(cfg_path), "--out", str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "span" in json.loads(err)["error"]
