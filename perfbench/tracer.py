"""Spans around calls into satqkd's public functions, recorded from outside.

`Tracer.install()` wraps each function in TARGETS and rebinds every name
under which a satqkd module holds it (for example `satqkd.qkd.total_loss`
and `satqkd.cli.total_loss`), so calls are caught where they are looked
up.  A span is (name, start, end, parent index); spans stay in memory until
`write()`.  `layer_totals()` turns a span list into per-name total time,
self time (duration minus the time its child spans cover) and call count.
"""
from __future__ import annotations

import functools
import importlib
import sys
import time
from contextlib import contextmanager

TARGETS = (
    "scenario.load_scenario",
    "cloud.load_cloud_grid",
    "orbit.compute_access_windows",
    "cloud.query",
    "channel.total_loss",
    "qkd.gllp_rate",
    "qkd.build_key_matrix",
    "qkd.export_key_matrix",
    "cli.key_matrix_from_linkbudget",
    "sched.solve_exact",
    "sched.solve_ga",
    "sched.is_feasible",
    "sched.write_schedule_csv",
    "cli.run_access",
    "cli.run_linkbudget",
    "cli.run_keymatrix",
    "cli.run_schedule",
    "cli.run_sweep",
)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent]
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)
        return traced

    def install(self, package: str = "satqkd") -> list[str]:
        """Wrap every target; returns the targets the package lacks."""
        missing = []
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == package or n.startswith(package + "."))]
        for target in TARGETS:
            mod_name, func_name = target.split(".")
            try:
                original = getattr(importlib.import_module(f"{package}.{mod_name}"),
                                   func_name)
            except (ImportError, AttributeError):
                missing.append(target)
                continue
            wrapper = self.wrap(target, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patched.append((module, attr, original))
        return missing

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name,start,end,parent\n")
            for name, start, end, parent in self.spans:
                fh.write(f"{name},{start!r},{end!r},{parent}\n")


def read_spans(path) -> list[tuple[str, float, float, int]]:
    with open(path, encoding="utf-8") as fh:
        fh.readline()
        return [(name, float(start), float(end), int(parent))
                for name, start, end, parent
                in (line.rstrip("\n").split(",") for line in fh)]


def self_times(spans) -> list[float]:
    """Each span's duration minus the summed durations of its children.

    Spans come from one thread, so the children of a span never overlap and
    their summed durations equal the time they cover.
    """
    own = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def layer_totals(spans) -> dict[str, dict[str, float]]:
    """{name: {"s": total, "self_s": self time, "calls": count}}."""
    totals: dict[str, dict[str, float]] = {}
    for (name, start, end, _), own in zip(spans, self_times(spans)):
        entry = totals.setdefault(name, {"s": 0.0, "self_s": 0.0, "calls": 0})
        entry["s"] += end - start
        entry["self_s"] += own
        entry["calls"] += 1
    return totals


def coverage(spans, call_name: str) -> float:
    """Share of a call span's time covered by traced functions.

    The `cli.run_*` wrappers count only through their children: their own
    self time is subcommand glue, not a layer.
    """
    own = self_times(spans)
    total = covered = 0.0
    for idx, (name, start, end, parent) in enumerate(spans):
        if name == call_name:
            total += end - start
        elif parent >= 0 and spans[parent][0] == call_name:
            covered += end - start
            if name.startswith("cli.run_"):
                covered -= own[idx]
    return covered / total if total > 0 else 0.0
