"""The output writer: every artifact is a new file, and only satqkd.output
opens files for writing.

Covers:
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
from pathlib import Path

import pytest

import satqkd
from satqkd.cli import main
from satqkd.output import open_new

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
