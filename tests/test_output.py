"""The output writer: every artifact is a new file, and only satqkd.output
opens files for writing.

Covers:
  - the rows of iso_utc equal datetime.isoformat() of every UTC time it is
    given, over the whole datetime range, and write_csv writes them the same
    across its chunks
  - a rerun of every subcommand over an output path that is a symlink to, or
    a hard link of, a file outside --out replaces the link and leaves that
    file alone; the new outputs equal the first run's
  - an `ast` scan of every module of the package for calls that open a file
    for writing anywhere but satqkd.output
"""
from __future__ import annotations

import ast
import json
import os
from datetime import datetime, timezone
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import satqkd
from satqkd import output
from satqkd.cli import main
from satqkd.orbit import _from_us, _to_us
from satqkd.output import iso_utc, open_new, row_chunks, spelled, write_csv

# ---------------------------------------------------------------------------
# time labels
# ---------------------------------------------------------------------------

US_MIN = _to_us(datetime.min.replace(tzinfo=timezone.utc))
US_MAX = _to_us(datetime.max.replace(tzinfo=timezone.utc))
LEAP_DAYS_US = [_to_us(datetime(year, 2, 29, hour, tzinfo=timezone.utc))
                for year, hour in [(4, 0), (1904, 23), (2000, 12), (2016, 0), (9996, 23)]]
UTC_TIMES_US = st.one_of(
    st.integers(US_MIN, US_MAX),                                     # odd microseconds
    st.integers(US_MIN // 10**6, US_MAX // 10**6).map(lambda s: s * 10**6),  # whole
    st.integers(-10**12, 10**12),                                   # near the epoch
    st.sampled_from(LEAP_DAYS_US).flatmap(
        lambda us: st.integers(us - 10**11, us + 10**11)))


def isoformat_labels(time_us) -> list[str]:
    return [_from_us(us).isoformat() for us in time_us]


def decoded(text: np.ndarray) -> list[str]:
    """The rows of a NUL-padded uint8 matrix as str."""
    return [row[row != 0].tobytes().decode() for row in text]


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(time_us=st.lists(UTC_TIMES_US, max_size=40))
@example(time_us=[US_MIN, US_MIN + 1, US_MAX - 999_999, US_MAX])   # years 1 and 9999
@example(time_us=[-1, -10**6, -10**6 - 1, 0, 1, 10**6, 999_999])
@example(time_us=LEAP_DAYS_US + [us + 86_400 * 10**6 - 1 for us in LEAP_DAYS_US])
@example(time_us=[])
def test_iso_utc_matches_isoformat(time_us):
    assert decoded(iso_utc(np.array(time_us, dtype=np.int64))) == isoformat_labels(time_us)


@pytest.mark.parametrize("chunk", [1, 3, 4096])
def test_iso_utc_mixes_whole_and_fractional_across_chunks(tmp_path, monkeypatch, chunk):
    monkeypatch.setattr(output, "_CHUNK", chunk)
    rng = np.random.default_rng(3)
    time_us = rng.integers(US_MIN, US_MAX, size=9000, endpoint=True)
    whole = rng.random(9000) < 0.5
    time_us[whole] -= time_us[whole] % 10**6
    write_csv(tmp_path / "times.csv", "time_utc\n",
              ([iso_utc(time_us[part])] for part in row_chunks(len(time_us))))
    assert (tmp_path / "times.csv").read_text(encoding="utf-8").splitlines() == [
        "time_utc", *isoformat_labels(time_us.tolist())]


@pytest.mark.parametrize("time_us", [[US_MIN - 1], [0, US_MAX + 1]])
def test_iso_utc_rejects_times_outside_datetime(time_us):
    with pytest.raises(OverflowError):
        iso_utc(time_us)


# ---------------------------------------------------------------------------
# the digit kernel against the broadcast formula it replaced
# ---------------------------------------------------------------------------

def oracle_figures(r: np.ndarray, width: int, shown: int = 1) -> np.ndarray:
    places = 10 ** np.arange(width - 1, -1, -1, dtype=np.int64)
    figures = (r[:, None] // places % 10).astype(np.uint8) + ord("0")
    figures[:, :width - shown] *= r[:, None] >= places[:width - shown]
    return figures


def figure_inputs() -> np.ndarray:
    """0, every power of ten in int64 and its neighbours, seeded values of
    every length, and the largest int64."""
    powers = [10 ** k + step for k in range(19) for step in (-1, 0, 1)]
    rng = np.random.default_rng(11)
    seeded = [int(rng.integers(0, 10 ** k)) for k in range(1, 19) for _ in range(8)]
    seeded += rng.integers(0, 2**63 - 1, size=40, endpoint=True).tolist()
    return np.array([0, *powers, *seeded, 2**63 - 1], dtype=np.int64)


@pytest.mark.parametrize("width", range(1, 20))
def test_figures_match_the_broadcast_formula(width):
    r = figure_inputs()
    for shown in range(1, width + 1):
        got = output._figures(r, width, shown)
        assert got.dtype == np.uint8
        assert np.array_equal(got, oracle_figures(r, width, shown)), (width, shown)


CONFIG = {
    "span": ["2016-09-19T14:00:00Z", "2016-09-19T20:00:00Z"],
    "strategy": {"ga": {"population": 20, "generations": 10}},
    "sweep": {"altitudes_km": [500, 1200], "divergences_urad": [5, 10]},
}

COMMANDS = {
    "access": ["access"],
    "linkbudget": ["linkbudget"],
    "keymatrix": ["keymatrix"],
    "keymatrix-from-linkbudget": ["keymatrix", "--from-linkbudget", "{linkbudget}"],
    "schedule": ["schedule"],
    "sweep-altitude": ["sweep", "--variable", "altitude"],
    "sweep-divergence": ["sweep", "--variable", "divergence"],
}

SENTINEL = b"not an output\n"


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """A short-span config file and a linkbudget.csv made from it."""
    root = tmp_path_factory.mktemp("inputs")
    config = root / "config.json"
    config.write_text(json.dumps(CONFIG), encoding="utf-8")
    assert main(["linkbudget", "--config", str(config), "--out", str(root / "lb")]) == 0
    return config, root / "lb" / "linkbudget.csv"


@pytest.mark.parametrize("link", ["symlink", "hardlink"])
@pytest.mark.parametrize("command", COMMANDS)
def test_rerun_replaces_links_at_output_paths(tmp_path, inputs, command, link):
    config, linkbudget = inputs
    out = tmp_path / "out"
    argv = [arg.format(linkbudget=linkbudget) for arg in COMMANDS[command]]
    argv += ["--config", str(config), "--out", str(out)]
    assert main(argv) == 0
    first = {path.name: path.read_bytes() for path in out.iterdir()}
    assert "manifest.json" in first and len(first) >= 2

    sentinels = tmp_path / "sentinels"
    sentinels.mkdir()
    for name in first:
        sentinel = sentinels / name
        sentinel.write_bytes(SENTINEL)
        (out / name).unlink()
        if link == "symlink":
            (out / name).symlink_to(sentinel)
        else:
            os.link(sentinel, out / name)
    assert main(argv) == 0

    assert sorted(path.name for path in out.iterdir()) == sorted(first)
    for name, body in first.items():
        assert (sentinels / name).read_bytes() == SENTINEL, name
        assert (sentinels / name).stat().st_nlink == 1, name
        path = out / name
        assert not path.is_symlink() and path.is_file(), name
        assert path.stat().st_nlink == 1, name
        assert path.read_bytes() == body, name


def test_open_new_replaces_a_dangling_symlink(tmp_path):
    target = tmp_path / "elsewhere.txt"
    path = tmp_path / "out.txt"
    path.symlink_to(target)
    with open_new(path) as fh:
        fh.write("new\n")
    assert not target.exists()
    assert not path.is_symlink() and path.read_text(encoding="utf-8") == "new\n"


def test_a_failed_write_leaves_no_file(tmp_path):
    path = tmp_path / "out.csv"
    path.write_text("an earlier run\n", encoding="utf-8")

    def chunks():
        yield [spelled(["a"])]
        raise ValueError("bad sample")

    with pytest.raises(ValueError, match="^bad sample$"):
        write_csv(path, "name\n", chunks())
    assert not path.exists()
    with pytest.raises(KeyboardInterrupt):
        with open_new(path) as fh:
            fh.write("partial\n")
            raise KeyboardInterrupt
    assert not path.exists()


# ---------------------------------------------------------------------------
# one writer
# ---------------------------------------------------------------------------

WRITER = "output.py"
OS_WRITE_FLAGS = {"O_WRONLY", "O_RDWR", "O_CREAT", "O_APPEND", "O_TRUNC"}


def _writes(mode: ast.expr | None) -> bool:
    """Whether an open mode can write; a mode that is not a literal may."""
    if mode is None:
        return False
    if not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)):
        return True
    return any(flag in mode.value for flag in "wax+")


def write_calls(source: str, filename: str = "<source>") -> list[int]:
    """Lines of the calls in source that can open a file for writing."""
    lines = []
    for node in ast.walk(ast.parse(source, filename)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = (func.id if isinstance(func, ast.Name) else
                func.attr if isinstance(func, ast.Attribute) else None)
        if name in ("write_text", "write_bytes"):
            lines.append(node.lineno)
        elif name == "open":
            owner = func.value.id if (isinstance(func, ast.Attribute)
                                      and isinstance(func.value, ast.Name)) else None
            if owner == "os":
                if any(isinstance(n, ast.Attribute) and n.attr in OS_WRITE_FLAGS
                       for n in ast.walk(node)):
                    lines.append(node.lineno)
                continue
            # open(file, mode) and io.open(file, mode); path.open(mode)
            position = 1 if isinstance(func, ast.Name) or owner in ("io", "codecs") else 0
            mode = next((kw.value for kw in node.keywords if kw.arg == "mode"),
                        node.args[position] if len(node.args) > position else None)
            if _writes(mode):
                lines.append(node.lineno)
    return lines


def test_write_json_refuses_nan_and_leaves_no_file(tmp_path):
    output.write_json(tmp_path / "inf.json", {"kl": float("inf")})
    assert json.loads((tmp_path / "inf.json").read_text()) == {"kl": "Inf"}
    with pytest.raises(ValueError, match="not JSON compliant"):
        output.write_json(tmp_path / "nan.json", {"kl": [1.0, float("nan")]})
    assert not (tmp_path / "nan.json").exists()


def test_write_calls_finds_every_form():
    source = "\n".join([
        'open(p, "w", encoding="utf-8")',
        'open(p, mode="a")',
        'io.open(p, "x")',
        'path.open("r+")',
        'path.open(mode="wb")',
        'open(p, chosen_mode)',
        'os.open(p, os.O_WRONLY | os.O_CREAT)',
        'path.write_text("x")',
        'path.write_bytes(b"x")',
        'open(p)',
        'open(p, "r", encoding="utf-8")',
        'open("append.txt")',
        'path.open()',
        'path.open("rb")',
        'os.open(p, os.O_RDONLY)',
    ])
    assert write_calls(source) == list(range(1, 10))


def test_only_the_writer_module_opens_files_for_writing():
    package = Path(satqkd.__file__).parent
    modules = sorted(package.glob("*.py"))
    assert WRITER in [path.name for path in modules]
    found = {path.name: write_calls(path.read_text(encoding="utf-8"), str(path))
             for path in modules if path.name != WRITER}
    assert {name: lines for name, lines in found.items() if lines} == {}
