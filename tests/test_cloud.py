"""Cloud grid tests: file round trip, lookup rules, loss curve.

The loader and the writer are compared with the per-cell versions they
replaced (conftest.py): the same grid or the same error text, the same bytes.

The tie-break (midpoint goes to the smaller cell index) and the floor time
bucket are pinned by constructed fixtures; the loss curve checks the frozen
value -10*log10(0.5) at alpha=75 and strict monotonicity to alpha=149.
"""
from __future__ import annotations

import math
from datetime import datetime, timedelta, timezone

import numpy as np
import pytest
from conftest import oracle_load_cloud_grid, oracle_save_cloud_grid
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from satqkd import cloud as cloud_module
from satqkd.cloud import (
    CloudGrid,
    cloud_loss,
    load_cloud_grid,
    query,
    save_cloud_grid,
    synthetic_cloud_grid,
)

pytestmark = pytest.mark.bits

UTC = timezone.utc
T0 = datetime(2016, 9, 23, 0, 0, tzinfo=UTC)


def grid_2x3(frames) -> CloudGrid:
    return CloudGrid(lat_min=30.0, lat_max=31.0, lon_min=100.0, lon_max=102.0,
                     lat_step=1.0, lon_step=1.0, time_start=T0,
                     frames=np.array(frames, dtype=np.int16))


# ---------------------------------------------------------------------------
# cloud_loss
# ---------------------------------------------------------------------------

def test_cloud_loss_endpoints_and_midpoint():
    assert cloud_loss(0) == 0.0
    assert cloud_loss(75) == pytest.approx(3.01029995663981, rel=1e-12)
    assert math.isinf(cloud_loss(150))


def test_cloud_loss_strictly_increasing():
    losses = [cloud_loss(a) for a in range(150)]
    assert all(b > a for a, b in zip(losses, losses[1:]))


def test_cloud_loss_range_checked():
    with pytest.raises(ValueError):
        cloud_loss(-1)
    with pytest.raises(ValueError):
        cloud_loss(151)


# ---------------------------------------------------------------------------
# load / validation
# ---------------------------------------------------------------------------

def write_grid_text(path, body: str) -> None:
    path.write_text(body, encoding="utf-8")


def test_load_round_trip_exhaustive(tmp_path):
    frames = [[[0, 10, 20], [30, 40, 50]],
              [[5, 15, 25], [35, 45, 55]]]
    grid = grid_2x3(frames)
    path = tmp_path / "grid.txt"
    save_cloud_grid(grid, path)
    loaded = load_cloud_grid(path)
    assert np.array_equal(loaded.frames, grid.frames)
    # every stored value reproduced at cell centres and frame starts
    for k in range(2):
        for i, lat in enumerate((30.0, 31.0)):
            for j, lon in enumerate((100.0, 101.0, 102.0)):
                t = T0 + timedelta(seconds=600 * k)
                assert query(loaded, lat, lon, t) == frames[k][i][j]


def test_uniform_zero_grid_queries_zero(tmp_path):
    grid = grid_2x3([[[0, 0, 0], [0, 0, 0]]])
    for lat in np.linspace(30.0, 31.0, 7):
        for lon in np.linspace(100.0, 102.0, 7):
            assert query(grid, float(lat), float(lon), T0 + timedelta(seconds=599)) == 0


def test_out_of_range_value_names_cell(tmp_path):
    path = tmp_path / "bad.txt"
    write_grid_text(path,
                    "30 31 100 102 1 1 2016-09-23T00:00:00+00:00 1 2 3\n"
                    "0 10 20\n30 151 50\n")
    with pytest.raises(ValueError, match=r"151.*frame 0.*lat row 1.*lon col 1"):
        load_cloud_grid(path)


def test_shape_mismatch_detected(tmp_path):
    path = tmp_path / "short.txt"
    write_grid_text(path,
                    "30 31 100 102 1 1 2016-09-23T00:00:00+00:00 1 2 3\n"
                    "0 10 20 30 40\n")
    with pytest.raises(ValueError, match="expected 6 cell values"):
        load_cloud_grid(path)


def test_header_extent_mismatch_detected():
    with pytest.raises(ValueError, match="lat header mismatch"):
        CloudGrid(lat_min=30.0, lat_max=32.0, lon_min=100.0, lon_max=102.0,
                  lat_step=1.0, lon_step=1.0, time_start=T0,
                  frames=np.zeros((1, 2, 3), dtype=np.int16))


@pytest.mark.parametrize("dtype", [np.int16, np.int64])
@pytest.mark.parametrize("value", [-1, 151])
def test_constructor_names_the_first_cell_out_of_range(dtype, value):
    frames = np.zeros((3, 2, 3), dtype=dtype)
    frames[1, 1, 2] = value
    frames[2, 0, 0] = 150 - value  # a later bad cell, on the other side

    def build():
        return CloudGrid(lat_min=30.0, lat_max=31.0, lon_min=100.0, lon_max=102.0,
                         lat_step=1.0, lon_step=1.0, time_start=T0, frames=frames)

    with pytest.raises(ValueError) as info:
        build()
    assert str(info.value) == (f"cloud value {value} outside [0, 150] "
                               f"at frame 1, lat row 1, lon col 2")
    frames[1, 1, 2] = frames[2, 0, 0] = 150
    assert build().frames.dtype == dtype


@pytest.mark.parametrize("header,needle", [
    ("30 32 100 102 1 1 2016-09-23T00:00:00+00:00 1 2 3", "lat header mismatch"),
    ("30 31 100 102 1 0.5 2016-09-23T00:00:00+00:00 1 2 3", "lon header mismatch"),
    ("30 31 100 102 1 -1 2016-09-23T00:00:00+00:00 1 2 3", "grid steps must be positive"),
])
def test_loaded_header_checked_as_the_constructor_checks_it(tmp_path, header, needle):
    path = tmp_path / "header.txt"
    write_grid_text(path, header + "\n0 10 20\n30 40 50\n")
    with pytest.raises(ValueError, match=needle):
        load_cloud_grid(path)
    assert load_outcome(load_cloud_grid, path) == load_outcome(oracle_load_cloud_grid, path)


@pytest.mark.parametrize("stamp", ["2016-09-23T08:00:00+08:00", "2016-09-23T00:00:00",
                                   "2016-09-23T00:00:00Z"])
def test_loaded_time_start_is_utc(tmp_path, stamp):
    path = tmp_path / "zone.txt"
    write_grid_text(path, f"30 31 100 102 1 1 {stamp} 1 2 3\n0 10 20\n30 40 50\n")
    time_start = load_cloud_grid(path).time_start
    assert time_start.tzinfo is UTC and time_start == T0


@pytest.mark.parametrize("token,needle", [
    ("151", r"cloud value 151 outside \[0, 150\] at frame 0, lat row 1, lon col 1"),
    ("-1", r"cloud value -1 outside .* at frame 0, lat row 1, lon col 1"),
    ("70000", r"cloud value 70000 outside .* at frame 0, lat row 1, lon col 1"),
    ("-40000", r"cloud value -40000 outside .* at frame 0, lat row 1, lon col 1"),
    ("99999999999999999999",
     r"cloud value 99999999999999999999 outside .* at frame 0, lat row 1, lon col 1"),
    ("4.5", "non-integer"),
    ("1e2", "non-integer"),
    ("x", "non-integer"),
])
def test_bad_cell_token_rejected_with_position(tmp_path, token, needle):
    path = tmp_path / "bad.txt"
    write_grid_text(path,
                    "30 31 100 102 1 1 2016-09-23T00:00:00+00:00 1 2 3\n"
                    f"0 10 20\n30 {token} 50\n")
    with pytest.raises(ValueError, match=needle):
        load_cloud_grid(path)


def test_signed_cell_tokens_parse_as_int_does(tmp_path):
    path = tmp_path / "signed.txt"
    write_grid_text(path,
                    "30 31 100 102 1 1 2016-09-23T00:00:00+00:00 1 2 3\n"
                    "+3 -0 007\n150 +150 0\n")
    grid = load_cloud_grid(path)
    assert grid.frames.dtype == np.int16
    assert grid.frames.tolist() == [[[3, 0, 7], [150, 150, 0]]]


def test_non_integer_cell_rejected(tmp_path):
    path = tmp_path / "float.txt"
    write_grid_text(path,
                    "30 31 100 102 1 1 2016-09-23T00:00:00+00:00 1 2 3\n"
                    "0 10 20 30 40.5 50\n")
    with pytest.raises(ValueError, match="non-integer"):
        load_cloud_grid(path)


# a grid of more than 1 MiB of text: several chunks at the loader's
# default chunk size, and hundreds at 4 KiB
BIG_SHAPE = (5, 181, 361)
BIG_HEADER = "-90 90 -180 180 1 1 2016-09-23T00:00:00+00:00 5 181 361\n"


def big_cells() -> list[str]:
    rng = np.random.default_rng(5)
    return [str(v) for v in rng.integers(0, 151, size=math.prod(BIG_SHAPE))]


def big_rows(cells: list[str], per_row: int = BIG_SHAPE[2]) -> list[str]:
    return [" ".join(cells[r:r + per_row]) for r in range(0, len(cells), per_row)]


def write_big_grid(path, cells: list[str]) -> None:
    write_grid_text(path, BIG_HEADER + "\n".join(big_rows(cells)) + "\n")


@pytest.fixture(params=[None, 4096], ids=["default-chunk", "4KiB-chunk"])
def chunk_bytes(request, monkeypatch):
    if request.param is not None:
        monkeypatch.setattr(cloud_module, "_CHUNK_BYTES", request.param)


def test_big_grid_loads_across_chunks(tmp_path, chunk_bytes):
    cells = big_cells()
    write_big_grid(tmp_path / "big.txt", cells)
    assert (tmp_path / "big.txt").stat().st_size > cloud_module._CHUNK_BYTES
    grid = load_cloud_grid(tmp_path / "big.txt")
    assert grid.frames.dtype == np.int16
    assert np.array_equal(grid.frames.ravel(), np.array(cells, dtype=np.int64))


# the last frame, lat row 170, lon col 300: far past the first chunk
LATE_CELL = np.ravel_multi_index((4, 170, 300), BIG_SHAPE)


@pytest.mark.parametrize("token,needle", [
    ("151", "cloud value 151 outside [0, 150] at frame 4, lat row 170, lon col 300"),
    ("99999999999999999999",
     "cloud value 99999999999999999999 outside [0, 150] at frame 4, lat row 170, "
     "lon col 300"),
    ("12.5", "non-integer cell value: invalid literal for int() with base 10: '12.5'"),
])
def test_big_grid_bad_late_cell_named(tmp_path, chunk_bytes, token, needle):
    cells = big_cells()
    cells[LATE_CELL] = token
    write_big_grid(tmp_path / "big.txt", cells)
    with pytest.raises(ValueError) as info:
        load_cloud_grid(tmp_path / "big.txt")
    assert str(info.value) == needle


FIRST_CELL_151 = "cloud value 151 outside [0, 150] at frame 0, lat row 0, lon col 0"
LATE_NON_INTEGER = "non-integer cell value: invalid literal for int() with base 10: '12.5'"


@pytest.mark.parametrize("first,late,needle", [
    # a token int64 cannot hold is reported as it is parsed, like a
    # non-integer one; either wins over any value out of range before it
    ("151", "12.5", LATE_NON_INTEGER),
    ("40000", "12.5", LATE_NON_INTEGER),
    ("-32769", "12.5", LATE_NON_INTEGER),
    ("9223372036854775807", "12.5", LATE_NON_INTEGER),
    ("99999999999999999999", "12.5",
     "cloud value 99999999999999999999 outside [0, 150] at frame 0, lat row 0, lon col 0"),
    ("151", "99999999999999999999",
     "cloud value 99999999999999999999 outside [0, 150] at frame 4, lat row 170, "
     "lon col 300"),
    # else the first value out of range, in grid order
    ("151", "-1", FIRST_CELL_151),
    ("40000", "151", "cloud value 40000 outside [0, 150] at frame 0, lat row 0, lon col 0"),
    ("0", "65536", "cloud value 65536 outside [0, 150] at frame 4, lat row 170, lon col 300"),
])
def test_big_grid_bad_values_reported_as_parsed_whole(tmp_path, chunk_bytes, first, late,
                                                      needle):
    cells = big_cells()
    cells[0], cells[LATE_CELL] = first, late
    write_big_grid(tmp_path / "big.txt", cells)
    with pytest.raises(ValueError) as info:
        load_cloud_grid(tmp_path / "big.txt")
    assert str(info.value) == needle
    assert load_outcome(load_cloud_grid, tmp_path / "big.txt") == load_outcome(
        oracle_load_cloud_grid, tmp_path / "big.txt")


@pytest.mark.parametrize("edit,found", [
    (lambda cells: cells[:-1], 326704),
    (lambda cells: cells + ["0"], 326706),
    # a bad value in the first chunk still yields to the wrong count
    (lambda cells: ["x"] + cells[:-2], 326704),
])
def test_big_grid_count_mismatch_reported(tmp_path, chunk_bytes, edit, found):
    write_big_grid(tmp_path / "big.txt", edit(big_cells()))
    with pytest.raises(ValueError) as info:
        load_cloud_grid(tmp_path / "big.txt")
    assert str(info.value) == f"expected 326705 cell values (5x181x361), found {found}"


@pytest.mark.parametrize("counts,expected", [
    ("1000000000 1000 1000", 10**15), ("-1 2 3", -6)])
def test_implausible_cell_count_reported(tmp_path, counts, expected):
    write_grid_text(tmp_path / "huge.txt",
                    f"30 31 100 102 1 1 2016-09-23T00:00:00+00:00 {counts}\n0 1 2\n")
    with pytest.raises(ValueError, match=f"expected {expected} cell values .*, found 3$"):
        load_cloud_grid(tmp_path / "huge.txt")


# cell tokens and separators: what the byte parser takes, and what it hands
# to int() (signs, underscores, non-ASCII digits and spaces, invalid UTF-8,
# tokens past 18 digits)
CELL_TOKENS = st.one_of(
    st.integers(0, 150).map(lambda v: str(v).encode()),
    st.sampled_from([b"007", b"0150", b"+5", b"-0", b"1_0", "\u0663".encode(), b"151",
                     b"-7", b"1.5", b"x", b"\xff", b"\xc3", "\u00e9".encode(),
                     b"0" * 17 + b"9", b"0" * 18 + b"9", b"9" * 18, b"9" * 19,
                     b"9" * 20, b"\x00"]))
SEPARATORS = st.sampled_from([b" ", b"  ", b"\n", b"\t", b"\r\n", b"\r", b"\x0b", b"\x0c",
                              b"\x1c", b"\x1d", b"\x1e", b"\x1f", "\u00a0".encode(),
                              "\u2003".encode()])


def load_outcome(load, path):
    """The grid load gives, or the type and text of the error it raises."""
    try:
        grid = load(path)
    except ValueError as exc:
        return type(exc), str(exc)
    return (grid.frames.dtype, grid.frames.tolist(), grid.lat_min, grid.lat_max,
            grid.lon_min, grid.lon_max, grid.lat_step, grid.lon_step, grid.time_start)


def test_byte_parser_agrees_with_int_parser(tmp_path, chunk_bytes):
    serial = iter(range(10 ** 9))

    @settings(max_examples=300, deadline=None, database=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow,
                                     HealthCheck.function_scoped_fixture])
    @given(cells=st.lists(st.tuples(CELL_TOKENS, SEPARATORS), min_size=1, max_size=12),
           repeats=st.integers(1, 400), miscount=st.sampled_from([0, 0, 0, 1, -1]))
    @example(cells=[(b"12", b"\t")], repeats=1000, miscount=0)
    @example(cells=[(b"150", b"\r\n"), (b"0", b"\x1c")], repeats=900, miscount=1)
    @example(cells=[(b"5", b" "), (b"9" * 19, b" ")], repeats=600, miscount=0)
    @example(cells=[(b"5", b" "), ("\u0663".encode(), b"\n")], repeats=600, miscount=0)
    @example(cells=[(b"5", b" "), (b"\xff", b"\n")], repeats=600, miscount=0)
    # around the parser's int16 sums (tokens of at most 4 digits) and int64 sums
    @example(cells=[(b"9999", b" "), (b"0150", b"\n")], repeats=300, miscount=0)
    @example(cells=[(b"0150", b" "), (b"10000", b"\n")], repeats=300, miscount=0)
    @example(cells=[(b"32768", b" "), (b"32767", b"\n")], repeats=300, miscount=0)
    @example(cells=[(b"0150", b" "), (b"0" * 16 + b"42", b"\n")], repeats=300, miscount=0)
    @example(cells=[(b"7", b"\n"), (b"0150", b"")], repeats=1, miscount=0)  # ends on a digit
    def check(cells, repeats, miscount):
        body = b"".join(token + sep for token, sep in cells) * repeats
        n = len(cells) * repeats + miscount
        path = tmp_path / f"grid-{next(serial)}.txt"
        path.write_bytes(f"30 30 100 {100 + n - 1} 1 1 2016-09-23T00:00:00+00:00 "
                         f"1 1 {n}\n".encode() + body)
        assert load_outcome(load_cloud_grid, path) == load_outcome(oracle_load_cloud_grid,
                                                                   path)

    check()


# the body is read _CHUNK_BYTES characters at a time, each read finished to
# the end of its line: lines longer than a read, other line ends, no final
# newline and a read that ends on a newline load as the line-by-line oracle
# loads them

def assert_loads_as_oracle(path, shape) -> None:
    outcome = load_outcome(load_cloud_grid, path)
    assert outcome == load_outcome(oracle_load_cloud_grid, path)
    assert outcome[0] == np.int16 and np.array(outcome[1]).shape == shape


def test_frame_per_line_longer_than_a_chunk(tmp_path, chunk_bytes):
    cells = big_cells()
    rows = big_rows(cells, BIG_SHAPE[1] * BIG_SHAPE[2])
    assert min(map(len, rows)) > cloud_module._CHUNK_BYTES
    (tmp_path / "frames.txt").write_bytes((BIG_HEADER + "\n".join(rows) + "\n").encode())
    assert_loads_as_oracle(tmp_path / "frames.txt", BIG_SHAPE)


@pytest.mark.parametrize("newline", ["\r", "\r\n"], ids=["cr", "crlf"])
def test_carriage_return_line_ends(tmp_path, chunk_bytes, newline):
    text = BIG_HEADER.replace("\n", newline) + newline.join(big_rows(big_cells()))
    (tmp_path / "cr.txt").write_bytes((text + newline).encode())
    assert_loads_as_oracle(tmp_path / "cr.txt", BIG_SHAPE)


def test_last_line_without_newline(tmp_path, chunk_bytes):
    body = "\n".join(big_rows(big_cells()))
    (tmp_path / "open.txt").write_bytes((BIG_HEADER + body).encode())
    assert_loads_as_oracle(tmp_path / "open.txt", BIG_SHAPE)


def test_chunk_ending_on_a_newline(tmp_path, chunk_bytes):
    # 16 characters a line, so every chunk of the body ends right after one
    line = "1 22 3 4 150 70"
    assert len(line) + 1 == 16 and cloud_module._CHUNK_BYTES % 16 == 0
    n_lines = 3 * (1 << 16) // 16 + 5
    shape = (1, 1, 6 * n_lines)
    header = f"30 30 0 {shape[2] - 1} 1 1 2016-09-23T00:00:00+00:00 1 1 {shape[2]}\n"
    (tmp_path / "even.txt").write_bytes((header + (line + "\n") * n_lines).encode())
    assert_loads_as_oracle(tmp_path / "even.txt", shape)


# ---------------------------------------------------------------------------
# query semantics
# ---------------------------------------------------------------------------

def test_query_floor_time_bucket():
    grid = grid_2x3([[[1, 1, 1], [1, 1, 1]],
                     [[2, 2, 2], [2, 2, 2]]])
    assert query(grid, 30.0, 100.0, T0 + timedelta(seconds=599)) == 1
    assert query(grid, 30.0, 100.0, T0 + timedelta(seconds=600)) == 2
    assert query(grid, 30.0, 100.0, T0 + timedelta(seconds=1199)) == 2


def test_query_midpoint_tie_breaks_to_smaller_index():
    grid = grid_2x3([[[1, 2, 3], [4, 5, 6]]])
    # lat midpoint 30.5 between rows 0 and 1 -> row 0; lon 100.5 -> col 0
    assert query(grid, 30.5, 100.0, T0) == 1
    assert query(grid, 30.0, 100.5, T0) == 1
    assert query(grid, 30.5, 100.5, T0) == 1
    # just past the midpoint flips to the nearer cell
    assert query(grid, 30.51, 100.0, T0) == 4
    assert query(grid, 30.0, 100.51, T0) == 2


def test_query_out_of_bounds_errors():
    grid = grid_2x3([[[0, 0, 0], [0, 0, 0]]])
    with pytest.raises(ValueError, match="latitude"):
        query(grid, 29.0, 100.0, T0)
    with pytest.raises(ValueError, match="longitude"):
        query(grid, 30.0, 103.0, T0)
    with pytest.raises(ValueError, match="time"):
        query(grid, 30.0, 100.0, T0 - timedelta(seconds=1))
    with pytest.raises(ValueError, match="time"):
        query(grid, 30.0, 100.0, T0 + timedelta(seconds=600))


# ---------------------------------------------------------------------------
# synthetic generator
# ---------------------------------------------------------------------------

def test_synthetic_grid_blob_and_drift():
    grid = synthetic_cloud_grid(
        lat_min=20.0, lat_max=40.0, lon_min=90.0, lon_max=120.0,
        lat_step=1.0, lon_step=1.0, time_start=T0, n_frames=3,
        blobs=[(30.0, 105.0, 2.0, 150.0)], drift_deg_per_frame=(0.0, 2.0))
    assert grid.frames.shape == (3, 21, 31)
    assert int(grid.frames.max()) == 150
    # peak follows the drifting blob centre
    assert query(grid, 30.0, 105.0, T0) == 150
    assert query(grid, 30.0, 109.0, T0 + timedelta(seconds=1200)) == 150
    assert query(grid, 30.0, 105.0, T0 + timedelta(seconds=1200)) < 150
    # far corner stays clear
    assert query(grid, 40.0, 90.0, T0) == 0


def test_save_keeps_header_floats_exact(tmp_path):
    lat_min, lon_min = 30.123456789, -100.98765432101
    grid = CloudGrid(lat_min=lat_min, lat_max=lat_min + 0.1, lon_min=lon_min,
                     lon_max=lon_min + 2 * 0.3, lat_step=0.1, lon_step=0.3,
                     time_start=T0 + timedelta(microseconds=7),
                     frames=np.array([[[0, 1, 2], [3, 4, 5]]], dtype=np.int16))
    path = tmp_path / "grid.txt"
    save_cloud_grid(grid, path)
    loaded = load_cloud_grid(path)
    for name in ("lat_min", "lat_max", "lon_min", "lon_max", "lat_step", "lon_step",
                 "time_start"):
        assert getattr(loaded, name) == getattr(grid, name), name
    assert np.array_equal(loaded.frames, grid.frames)


def test_synthetic_grid_round_trips_through_file(tmp_path):
    grid = synthetic_cloud_grid(
        lat_min=20.0, lat_max=25.0, lon_min=100.0, lon_max=104.0,
        lat_step=0.5, lon_step=0.5, time_start=T0, n_frames=2,
        blobs=[(22.0, 102.0, 1.0, 80.0)])
    path = tmp_path / "synth.txt"
    save_cloud_grid(grid, path)
    loaded = load_cloud_grid(path)
    assert np.array_equal(loaded.frames, grid.frames)
    assert loaded.time_start == grid.time_start


@pytest.mark.parametrize("dtype", [np.int16, np.int64, np.uint8, np.int32])
def test_save_writes_the_bytes_of_the_per_cell_writer(tmp_path, dtype):
    rng = np.random.default_rng(11)
    frames = rng.integers(0, 151, size=(3, 7, 9)).astype(dtype)
    frames[0, 0, :3] = (0, 150, 7)
    grid = CloudGrid(lat_min=-3.5, lat_max=-0.5, lon_min=170.0, lon_max=178.0,
                     lat_step=0.5, lon_step=1.0, time_start=T0, frames=frames)
    synth = synthetic_cloud_grid(
        lat_min=20.0, lat_max=25.0, lon_min=100.0, lon_max=104.0,
        lat_step=0.5, lon_step=0.5, time_start=T0, n_frames=2,
        blobs=[(22.0, 102.0, 1.0, 150.0)])
    for k, g in enumerate((grid, synth)):
        save_cloud_grid(g, tmp_path / f"new-{k}.txt")
        oracle_save_cloud_grid(g, tmp_path / f"old-{k}.txt")
        assert ((tmp_path / f"new-{k}.txt").read_bytes()
                == (tmp_path / f"old-{k}.txt").read_bytes())
