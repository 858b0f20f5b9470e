"""The walks over blocks of passes against the per-pass walks they replaced.

The oracles below are the link-budget walks as they were before the loss
and rate kernels ran over blocks of passes: `pass_link_budget` and
`build_key_matrix` called the kernels once per pass, the linkbudget writer
formatted and wrote one pass at a time, `_loss_extremes` folded each pass
into its station's min and max, and `key_matrix_from_linkbudget` parsed
every row on its own; they read passes one at a time as conftest.Pass,
and the walks under test take the conftest.pass_table of the same passes,
sorted by start.  The kernels themselves are held to the scalar
oracles in test_kernels.py; here the walks must give the same output bytes
on one-sample passes, passes longer than a block, overcast samples and no
passes at all.  A bad sample in one pass of a block gives the oracle's
error text; bad samples in two passes give the oracle's error for one of
them alone, and a failing write leaves no file.  The column reader must
keep the row reader's result or error text on rows the writer never writes.
"""
from __future__ import annotations

import json
import math
import warnings
from dataclasses import replace
from datetime import datetime, timedelta, timezone
from itertools import repeat

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from conftest import oracle_fmt, pass_list, pass_table
from satqkd import cli, qkd
from satqkd.cloud import CloudGrid, query_column
from satqkd.orbit import GroundStation, _from_us, _to_us
from satqkd.output import open_new
from satqkd.qkd import add_key_bits, assemble_key_matrix, build_key_matrix, loss_columns
from satqkd.scenario import compute_accesses, micius_week_config

UTC = timezone.utc
SPAN = (datetime(2016, 9, 19, 14, tzinfo=UTC), datetime(2016, 9, 19, 20, tzinfo=UTC))
HEADER = ("time_utc,station,elevation_deg,range_km,geo_db,atm_db,"
          "cloud_db,fixed_db,total_db,eta\n")


# ---------------------------------------------------------------------------
# the per-pass walks, as before the blocks
# ---------------------------------------------------------------------------

def oracle_pass_link_budget(access, optics, cloud=None):
    station = access.station
    try:
        alphas = ([0] * len(access.time_us) if cloud is None else
                  query_column(cloud, station.latitude_deg, station.longitude_deg,
                               access.time_us).tolist())
    except ValueError as exc:
        raise ValueError(f"cloud: {station.name}: {exc}") from None
    return [column.tolist() for column in loss_columns(
        access.elevation_deg.tolist(), access.slant_range_km.tolist(), alphas, optics)]


def oracle_build_key_matrix(accesses, stations, optics, params, start, n_intervals,
                            interval_seconds=10.0, cloud=None):
    column = {st.name: i for i, st in enumerate(stations)}
    parts = []
    for access in accesses:
        n = column.get(access.station.name)
        if n is None:
            raise ValueError(f"access interval for unknown station "
                             f"{access.station.name!r}")
        etas = oracle_pass_link_budget(access, optics, cloud)[-1]
        add_key_bits(parts, start, interval_seconds, n_intervals, params, n,
                     access.time_us, etas, access.step_seconds, lambda i, t=access.time_us:
                     f"grid misalignment: sample at {_from_us(int(t[i])).isoformat()}")
    return assemble_key_matrix(parts, start, interval_seconds, n_intervals,
                               tuple(st.name for st in stations))


def oracle_write_linkbudget(config, accesses, path) -> dict:
    n_rows = 0
    blocked = 0
    with open_new(path) as fh:
        fh.write(HEADER)
        fixed = oracle_fmt(config.optics.fixed_loss_db)
        for iv in accesses:
            geo, atm, cld, total, etas = oracle_pass_link_budget(iv, config.optics,
                                                                 config.cloud)
            elev, rng = iv.elevation_deg.tolist(), iv.slant_range_km.tolist()
            columns = ([_from_us(t).isoformat() for t in iv.time_us.tolist()],
                       repeat(iv.station.name),
                       *(list(map(oracle_fmt, c)) for c in (elev, rng, geo, atm, cld)),
                       repeat(fixed), list(map(oracle_fmt, total)), map(repr, etas))
            fh.write("\n".join(map(",".join, zip(*columns))) + "\n")
            blocked += etas.count(0.0)
            n_rows += len(etas)
    return {"n_samples": n_rows, "n_blocked": blocked}


def oracle_loss_extremes(config, accesses):
    lo, hi = {}, {}
    for iv in accesses:
        total = oracle_pass_link_budget(iv, config.optics)[3]
        name = iv.station.name
        lo[name] = min(lo.get(name, math.inf), *total)
        hi[name] = max(hi.get(name, -math.inf), *total)
    return lo, hi


def oracle_key_matrix_from_linkbudget(config, csv_path):
    start = config.span[0]
    column = {st.name: i for i, st in enumerate(config.stations)}
    nodes, times, etas = [], [], []
    with open(csv_path, encoding="utf-8") as fh:
        header = fh.readline()
        if not header.startswith("time_utc,station,"):
            raise ValueError(f"not a linkbudget CSV: {header!r}")
        for lineno, line in enumerate(fh, start=2):
            parts = line.rstrip("\n").split(",")
            where = f"{csv_path}:{lineno}"
            if len(parts) != 10:
                raise ValueError(f"{where}: expected 10 fields, got {len(parts)}")
            n = column.get(parts[1])
            if n is None:
                raise ValueError(f"{where}: station: {parts[1]!r} is not a "
                                 f"scenario station")
            try:
                t = datetime.fromisoformat(parts[0])
                if t.tzinfo is None:
                    raise ValueError(f"{parts[0]} has no UTC offset")
                us = _to_us(t)
            except (ValueError, OverflowError) as exc:
                raise ValueError(f"{where}: time_utc: {exc}") from None
            try:
                eta = float(parts[9])
            except ValueError as exc:
                raise ValueError(f"{where}: eta: {exc}") from None
            if not 0.0 <= eta <= 1.0:
                raise ValueError(f"{where}: eta: {parts[9]} is not in [0, 1]")
            nodes.append(n)
            times.append(us)
            etas.append(eta)
    time_us, nodes = np.array(times, dtype=np.int64), np.array(nodes, dtype=np.int64)
    parts = []
    add_key_bits(parts, start, config.grid_interval_seconds, config.n_grid_intervals,
                 config.qkd, nodes, time_us, etas, config.step_seconds,
                 lambda i: f"{csv_path}:{i + 2}: "
                 f"time_utc: {_from_us(int(time_us[i])).isoformat()}")
    return assemble_key_matrix(parts, start, config.grid_interval_seconds,
                               config.n_grid_intervals,
                               tuple(st.name for st in config.stations))


# ---------------------------------------------------------------------------
# cases
# ---------------------------------------------------------------------------

def outcome(fn, *args):
    """("ok", result) or ("error", its type and text)."""
    try:
        return "ok", fn(*args)
    except (ValueError, ArithmeticError) as exc:
        return "error", (type(exc).__name__, str(exc))


def matrix_bytes(matrix) -> tuple:
    return (matrix.n_intervals, matrix.node_names, matrix.rows.tobytes(),
            *(column.tobytes() for column in matrix.nonzero()))


def cut(iv, lo: int, hi: int, **columns):
    """Samples lo..hi-1 of a pass, with any column replaced."""
    fields = {name: getattr(iv, name)[lo:hi].copy()
              for name in ("time_us", "elevation_deg", "azimuth_deg", "slant_range_km")}
    fields.update(columns)
    return replace(iv, **fields)


def with_sample(iv, k: int, **values):
    """The pass with sample k's values replaced."""
    columns = {}
    for name, value in values.items():
        column = getattr(iv, name).copy()
        column[k] = value
        columns[name] = column
    return cut(iv, 0, len(iv.time_us), **columns)


@pytest.fixture(scope="module")
def night():
    config = micius_week_config(span=SPAN)
    accesses = pass_list(compute_accesses(config))
    assert len(accesses) >= 6 and min(len(iv.time_us) for iv in accesses) > 16
    return config, accesses


def overcast_grid(config) -> CloudGrid:
    """Every index 0..150 over the night's stations, 150 (overcast) often."""
    rng = np.random.default_rng(5)
    frames = rng.integers(0, 151, size=(40, 6, 10)).astype(np.int16)
    frames[rng.random(frames.shape) < 0.3] = 150
    return CloudGrid(lat_min=18.0, lat_max=48.0, lon_min=75.0, lon_max=129.0,
                     lat_step=6.0, lon_step=6.0, time_start=config.span[0], frames=frames)


def walk_cases(config, accesses):
    """(name, config, accesses): every pass walk the tests compare."""
    first = accesses[0]
    long_pass = cut(first, 0, len(first.time_us))
    cases = {
        "night": (config, accesses),
        "empty": (config, []),
        "one-sample passes": (config, [cut(iv, k, k + 1) for iv in accesses[:4]
                                       for k in (0, len(iv.time_us) // 2)]),
        "one-sample pass among long ones": (config, [accesses[0], cut(accesses[1], 3, 4),
                                                     *accesses[2:]]),
        "overcast": (replace(config, cloud=overcast_grid(config)), accesses),
        "long pass": (config, [long_pass, cut(accesses[1], 0, 1), long_pass]),
    }
    return [(name, *case) for name, case in cases.items()]


def bad_cases(config, accesses):
    """(name, config, accesses, bad) with a bad sample in a later pass of a
    block, sometimes beside another bad sample of a different kind; bad
    indexes the passes that hold one."""
    a, b, c = accesses[:3]
    n = len(b.time_us) // 2
    grid = overcast_grid(config)
    short_grid = replace(grid, frames=grid.frames[:10])  # ends before pass a
    late = cut(c, 0, len(c.time_us),
               time_us=c.time_us + 10**6 * 86400)  # past the grid and the cloud span
    # passes a and b end by 16:27; c, 10 minutes later, crosses 16:30
    grid_to_1630 = replace(grid, frames=grid.frames[:15])
    later = cut(c, 0, len(c.time_us), time_us=c.time_us + 10**6 * 600)
    return [
        ("elevation in pass 2", config, [a, with_sample(b, n, elevation_deg=-1.0), c], [1]),
        ("range in pass 2", config, [a, with_sample(b, n, slant_range_km=0.0), c], [1]),
        ("elevation in pass 2, range in pass 3", config,
         [a, with_sample(b, n, elevation_deg=0.0), with_sample(c, 1, slant_range_km=-3.0)],
         [1, 2]),
        ("range in pass 2, elevation earlier in pass 2", config,
         [a, with_sample(with_sample(b, n, slant_range_km=-1.0), 1, elevation_deg=-2.0)],
         [1]),
        ("NaN elevation in pass 2", config,
         [a, with_sample(b, n, elevation_deg=math.nan), c], [1]),
        ("infinite elevation in pass 2", config,
         [a, with_sample(b, n, elevation_deg=math.inf), with_sample(c, 1, elevation_deg=-1.0)],
         [1, 2]),
        ("subnormal elevation in pass 2", config,
         [a, with_sample(b, n, elevation_deg=5e-324), c], [1]),
        ("outside the grid in pass 2, bad range in pass 3", config,
         [a, late, with_sample(c, 1, slant_range_km=-3.0)], [1, 2]),
        ("unknown station in pass 2", config,
         [a, replace(b, station=GroundStation("Atlantis", 30.0, 100.0)), c], [1]),
        ("cloud span ends before pass 1, bad range in pass 2",
         replace(config, cloud=short_grid), [a, with_sample(b, n, slant_range_km=-1.0), c],
         [0, 1, 2]),
        ("cloud span ends before pass 1", replace(config, cloud=short_grid), [a, b, c],
         [0, 1, 2]),
        ("cloud span ends in pass 3, bad range in pass 2", replace(config, cloud=grid_to_1630),
         [a, with_sample(b, n, slant_range_km=-1.0), later], [1, 2]),
        ("cloud span ends in pass 3", replace(config, cloud=grid_to_1630), [a, b, later], [2]),
    ]


ALL_CASES = ("walk", "bad")


def cases_of(kind, config, accesses):
    """(name, config, accesses, bad) of the walk or the bad cases, their
    passes sorted by start as a table holds them; a walk case has no bad
    pass."""
    cases = ([(*case, []) for case in walk_cases(config, accesses)] if kind == "walk"
             else bad_cases(config, accesses))
    for name, config, passes, bad in cases:
        order = sorted(range(len(passes)), key=lambda p: passes[p].time_us[0])
        yield (name, config, [passes[p] for p in order],
               sorted(order.index(p) for p in bad))


def errors_allowed(want, oracle, accesses, bad) -> list:
    """The outcomes a block walk may give where the per-pass oracle walk
    gives want: want itself where at most one pass is bad, else the error
    of each bad pass walked alone by the oracle."""
    if len(bad) <= 1:
        return [want]
    alone = [oracle([accesses[p]]) for p in bad]
    return [outcome for outcome in alone if outcome[0] == "error"]


# blocks of one pass, of a few passes, and longer than any pass here
CHUNKS = [1, 20, 100, qkd._RATE_CHUNK]


@pytest.mark.parametrize("chunk", CHUNKS)
@pytest.mark.parametrize("kind", ALL_CASES)
def test_key_matrix_over_blocks_equals_per_pass(night, monkeypatch, kind, chunk):
    monkeypatch.setattr(qkd, "_RATE_CHUNK", chunk)
    for name, config, accesses, bad in cases_of(kind, *night):
        def walk(fn, passes):
            return outcome(fn, passes, config.stations, config.optics, config.qkd,
                           config.span[0], config.n_grid_intervals,
                           config.grid_interval_seconds, config.cloud)

        want = walk(oracle_build_key_matrix, accesses)
        got = walk(build_key_matrix, pass_table(accesses))
        if want[0] == "ok":
            assert got[0] == "ok", (name, got)
            assert matrix_bytes(got[1]) == matrix_bytes(want[1]), name
        else:
            allowed = errors_allowed(
                want, lambda passes: walk(oracle_build_key_matrix, passes), accesses, bad)
            assert got in allowed, (name, got, allowed)
        assert kind == "bad" or want[0] == "ok", (name, want)


@pytest.mark.parametrize("chunk", CHUNKS)
@pytest.mark.parametrize("kind", ALL_CASES)
def test_linkbudget_over_blocks_equals_per_pass(night, tmp_path, monkeypatch, kind, chunk):
    monkeypatch.setattr(qkd, "_RATE_CHUNK", chunk)
    serial = iter(range(10**6))

    def oracle(config, passes):
        path = tmp_path / f"oracle{next(serial)}.csv"
        return outcome(oracle_write_linkbudget, config, passes, path)

    for k, (name, config, accesses, bad) in enumerate(cases_of(kind, *night)):
        monkeypatch.setattr(cli, "compute_accesses", lambda _config, a=accesses: pass_table(a))
        (tmp_path / f"want{k}").mkdir()
        want = outcome(oracle_write_linkbudget, config, accesses,
                       tmp_path / f"want{k}" / "linkbudget.csv")
        got = outcome(cli.run_linkbudget, config, tmp_path / f"got{k}")
        if want[0] == "ok":
            assert got == want, name
            assert (tmp_path / f"got{k}" / "linkbudget.csv").read_bytes() == \
                (tmp_path / f"want{k}" / "linkbudget.csv").read_bytes(), name
        else:
            allowed = errors_allowed(want, lambda passes, c=config: oracle(c, passes),
                                     accesses, bad)
            assert got in allowed, (name, got, allowed)
            # a failing run leaves neither the rows before the bad sample nor a manifest
            assert sorted(path.name for path in (tmp_path / f"got{k}").iterdir()) == [], name
    if kind == "walk":
        text = (tmp_path / "want4" / "linkbudget.csv").read_text(encoding="utf-8")
        assert ",Inf,8.0000,Inf,0.0\n" in text  # the overcast case wrote Inf tokens


def test_non_ascii_station_names_written_and_read_back(tmp_path):
    # station names of two and three UTF-8 bytes a character among ASCII ones
    names = {"Urumqi": "Ürümqi", "Xian": "Xi’an", "Beijing": "北京"}
    config = micius_week_config(span=SPAN)
    config = replace(config, stations=tuple(replace(st, name=names.get(st.name, st.name))
                                            for st in config.stations))
    oracle_write_linkbudget(config, pass_list(compute_accesses(config)), tmp_path / "want.csv")
    cli.run_linkbudget(config, tmp_path / "lb")
    text = (tmp_path / "lb" / "linkbudget.csv").read_bytes()
    assert text == (tmp_path / "want.csv").read_bytes()
    assert all(f",{name},".encode() in text for name in names.values())
    cli.run_keymatrix(config, tmp_path / "direct")
    cli.run_keymatrix(config, tmp_path / "composed",
                      from_linkbudget=tmp_path / "lb" / "linkbudget.csv")
    for name in ("keymatrix.csv", "keymatrix_meta.json", "keys_daily.csv"):
        assert (tmp_path / "direct" / name).read_bytes() == \
            (tmp_path / "composed" / name).read_bytes(), name


@pytest.mark.parametrize("chunk", CHUNKS)
@pytest.mark.parametrize("kind", ALL_CASES)
def test_loss_extremes_over_blocks_equal_per_pass(night, monkeypatch, kind, chunk):
    monkeypatch.setattr(qkd, "_RATE_CHUNK", chunk)
    for name, config, accesses, bad in cases_of(kind, *night):
        want = outcome(oracle_loss_extremes, config, accesses)
        got = outcome(cli._loss_extremes, config, pass_table(accesses))
        if want[0] == "ok":
            assert json.dumps(got, sort_keys=True) == json.dumps(want, sort_keys=True), name
        else:
            allowed = errors_allowed(
                want, lambda passes, c=config: outcome(oracle_loss_extremes, c, passes),
                accesses, bad)
            assert got in allowed, (name, got, allowed)


# ---------------------------------------------------------------------------
# the column reader of linkbudget.csv
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def written(night, tmp_path_factory):
    """The night's config (with a cloud grid, so some etas are 0) and the
    rows of its linkbudget.csv."""
    config, _ = night
    config = replace(config, cloud=overcast_grid(config))
    root = tmp_path_factory.mktemp("lb")
    cli.run_linkbudget(config, root)
    header, *rows = (root / "linkbudget.csv").read_text(encoding="utf-8").splitlines()
    assert header + "\n" == HEADER and len(rows) > 300
    return config, rows


def shift(time_text: str, hours: int, suffix: str) -> str:
    """The same instant written with a +hours offset, or with suffix as the zone."""
    t = datetime.fromisoformat(time_text)
    if suffix:
        return t.replace(tzinfo=None).isoformat() + suffix
    return t.astimezone(timezone(timedelta(hours=hours))).isoformat()


def edited(rows, k, field, text):
    fields = rows[k].split(",")
    fields[field] = text
    return [*rows[:k], ",".join(fields), *rows[k + 1:]]


def reader_cases(rows):
    """(name, file text): rows the writer never writes, each in a later chunk."""
    k = len(rows) * 2 // 3
    time_k = rows[k].split(",")[0]
    body = "\n".join(rows) + "\n"
    return [
        ("as written", HEADER + body),
        ("no final newline", HEADER + body[:-1]),
        ("header only", HEADER),
        ("CRLF endings", (HEADER + body).replace("\n", "\r\n")),
        ("+08:00 offset", HEADER + "\n".join(edited(rows, k, 0, shift(time_k, 8, ""))) + "\n"),
        ("-03:30 offset", HEADER + "\n".join(edited(rows, k, 0, shift(time_k, -3, ""))) + "\n"),
        ("Z", HEADER + "\n".join(edited(rows, k, 0, shift(time_k, 0, "Z"))) + "\n"),
        # numpy parses the zones left after +00:00 is cut off, with a warning
        ("Z+00:00", HEADER + "\n".join(edited(rows, k, 0, time_k[:-6] + "Z+00:00")) + "\n"),
        ("+01+00:00", HEADER + "\n".join(edited(rows, k, 0, time_k[:-6] + "+01+00:00"))
         + "\n"),
        ("naive time", HEADER + "\n".join(edited(rows, k, 0, time_k[:-6])) + "\n"),
        ("space for T", HEADER + "\n".join(edited(rows, k, 0, time_k.replace("T", " ")))
         + "\n"),
        ("NaT", HEADER + "\n".join(edited(rows, k, 0, "NaT+00:00")) + "\n"),
        ("date only", HEADER + "\n".join(edited(rows, k, 0, "2016-09-19+00:00")) + "\n"),
        ("eta nan", HEADER + "\n".join(edited(rows, k, 9, "nan")) + "\n"),
        ("eta 1_0", HEADER + "\n".join(edited(rows, k, 9, "1_0")) + "\n"),
        ("eta 0_5", HEADER + "\n".join(edited(rows, k, 9, "0_5")) + "\n"),
        ("eta with spaces", HEADER + "\n".join(edited(rows, k, 9, " 0.25 ")) + "\n"),
        ("eta -0.0", HEADER + "\n".join(edited(rows, k, 9, "-0.0")) + "\n"),
        ("eta 5e-324", HEADER + "\n".join(edited(rows, k, 9, "5e-324")) + "\n"),
        ("unknown station", HEADER + "\n".join(edited(rows, k, 1, "Atlantis")) + "\n"),
        ("blank line", HEADER + "\n".join([*rows[:k], "", *rows[k:]]) + "\n"),
        ("blank last line", HEADER + body + "\n"),
        ("11 fields", HEADER + "\n".join([*rows[:k], rows[k] + ",0", *rows[k + 1:]]) + "\n"),
        ("9 and 11 fields", HEADER + "\n".join(
            [*rows[:k], rows[k].rsplit(",", 1)[0], rows[k + 1] + ",0", *rows[k + 2:]]) + "\n"),
        ("before the span", HEADER + "\n".join(edited(rows, k, 0, _from_us(
            _to_us(datetime.fromisoformat(time_k)) - 86400 * 10**6).isoformat())) + "\n"),
    ]


def read_outcome(fn, config, path):
    kind, result = outcome(fn, config, path)
    return (kind, matrix_bytes(result)) if kind == "ok" else (kind, result)


@pytest.mark.parametrize("chunk_bytes", [1, 700, cli._LINKBUDGET_CHUNK])
def test_column_reader_keeps_the_row_reader_result(written, tmp_path, monkeypatch,
                                                   chunk_bytes):
    config, rows = written
    monkeypatch.setattr(cli, "_LINKBUDGET_CHUNK", chunk_bytes)
    for n, (name, text) in enumerate(reader_cases(rows)):
        path = tmp_path / f"linkbudget-{n}.csv"
        path.write_bytes(text.encode("utf-8"))
        want = read_outcome(oracle_key_matrix_from_linkbudget, config, path)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # and no warning on the way
            assert read_outcome(cli.key_matrix_from_linkbudget, config, path) == want, name
        assert want[0] == "error" or name not in ("naive time", "eta nan", "blank line")


def test_column_reader_reads_the_writer_rows_as_columns(written, tmp_path, monkeypatch):
    config, rows = written
    path = tmp_path / "linkbudget.csv"
    path.write_text(HEADER + "\n".join(rows) + "\n", encoding="utf-8")
    monkeypatch.setattr(cli, "_parsed_rows", None)  # never the row parser
    cli.key_matrix_from_linkbudget(config, path)


FIELD_TEXTS = st.sampled_from([
    "", "nan", "inf", "-0.0", "0", "1", "0.5", " 0.5 ", "5e-324", "1.0000000000000002",
    "-1e-300", "1_0", "Xian", "Atlantis", "NaT+00:00", "2016-09-19T14:00:00",
    "2016-09-19T14:00:00+00:00", "2016-09-19T13:59:59+00:00",
    "2016-09-19T19:59:59.999999+00:00", "2016-09-19T16:30:00.500000+00:00",
    "2016-09-19T22:00:00+08:00", "2016-09-19T14:00:00Z", "2016-09-19 14:00:00+00:00",
    "0001-01-01T00:00:00+00:00", "9999-12-31T23:59:59-01:00", "2016-02-30T00:00:00+00:00",
])


def test_column_reader_matches_row_reader_on_edited_rows(written, tmp_path_factory):
    """Any edited row gives the row reader's matrix or error text."""
    config, rows = written
    root = tmp_path_factory.mktemp("lb-edits")
    serial = iter(range(10**6))

    @settings(max_examples=120, deadline=None, database=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture])
    @given(k=st.integers(0, len(rows) - 1), field=st.sampled_from([0, 1, 9]),
           text=FIELD_TEXTS, chunk=st.sampled_from([300, 5000, cli._LINKBUDGET_CHUNK]))
    @example(k=len(rows) - 1, field=0, text="2016-09-19T16:30:00.500000+00:00", chunk=300)
    def check(k, field, text, chunk):
        path = root / f"linkbudget-{next(serial)}.csv"
        path.write_text(HEADER + "\n".join(edited(rows, k, field, text)) + "\n",
                        encoding="utf-8")
        saved, cli._LINKBUDGET_CHUNK = cli._LINKBUDGET_CHUNK, chunk
        try:
            got = read_outcome(cli.key_matrix_from_linkbudget, config, path)
        finally:
            cli._LINKBUDGET_CHUNK = saved
        assert got == read_outcome(oracle_key_matrix_from_linkbudget, config, path)

    check()
