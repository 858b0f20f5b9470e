"""The key matrix held as its nonzero cells against the dense assembly it
replaced, and at a size whose dense form would not fit.

`oracle_assemble` below is `assemble_key_matrix` as it was while the matrix
held a (rows, nodes) array of the rows with a nonzero cell: one row per
distinct interval, `np.add.at` of every sample into its cell, the first bad
cell named in row-major order, all-zero rows dropped.  The cell columns
must match its `nonzero()` bit for bit, or raise its error text, on samples
with repeated cells, zero bits, and NaN, infinite and negative bits.
"""
from __future__ import annotations

import math
import tracemalloc
from datetime import datetime, timezone

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from satqkd.qkd import QkdParams, assemble_key_matrix, export_key_matrix
from satqkd.sched import evaluate, is_feasible, solve_exact

pytestmark = pytest.mark.bits

T0 = datetime(2016, 9, 19, tzinfo=timezone.utc)


def oracle_assemble(parts, n_intervals: int, n_nodes: int):
    """(rows, (interval, node, bits)) of the dense assembly, or ValueError."""
    rows, nodes, bits = ((np.concatenate(column) for column in zip(*parts)) if parts
                         else (np.empty(0, np.int64),) * 3)
    grid_rows, owner = np.unique(rows, return_inverse=True)
    cells = np.zeros((len(grid_rows), n_nodes))
    np.add.at(cells, (owner, nodes), bits)  # repeated cells add in sample order
    if len(grid_rows) and (grid_rows[0] < 0 or grid_rows[-1] >= n_intervals):
        raise ValueError(f"rows must increase strictly within 0..{n_intervals - 1}")
    if cells.size and not (cells.min() >= 0.0 and cells.max() < np.inf):
        bad = np.flatnonzero(~((cells >= 0.0) & (cells < np.inf)))
        k, n = divmod(int(bad[0]), cells.shape[1])
        raise ValueError(f"key matrix entry [{grid_rows[k]}][{n}] = "
                         f"{float(cells[k, n])!r} is not finite and >= 0")
    keep = cells.any(axis=1)
    grid_rows, cells = grid_rows[keep], cells[keep]
    k, n = np.nonzero(cells)
    return grid_rows, (grid_rows[k], n, cells[k, n])


def outcome(fn):
    try:
        return "ok", fn()
    except ValueError as exc:
        return "error", str(exc)


BITS = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, 0.5, 2.0**-1074, 1e300, math.nan, math.inf,
                     -math.inf, -1.0, -2.0**-1074]),
    st.floats(0.0, 1e6),
    st.floats(-1.0, 1e6))


@st.composite
def sample_parts(draw):
    n_intervals = draw(st.integers(1, 12))
    n_nodes = draw(st.integers(1, 5))
    parts = []
    for _ in range(draw(st.integers(0, 4))):
        # few intervals and nodes, so samples often share a cell
        samples = draw(st.lists(st.tuples(st.integers(0, n_intervals - 1),
                                          st.integers(0, n_nodes - 1), BITS),
                                max_size=20))
        rows, nodes, bits = zip(*samples) if samples else ((), (), ())
        parts.append((np.array(rows, dtype=np.int64), np.array(nodes, dtype=np.int64),
                      np.array(bits, dtype=float)))
    return n_intervals, n_nodes, parts


@settings(max_examples=600, deadline=None, database=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(case=sample_parts())
def test_cells_match_the_dense_assembly(case):
    n_intervals, n_nodes, parts = case
    names = tuple(f"N{n}" for n in range(n_nodes))
    with np.errstate(over="ignore", invalid="ignore"):  # inf - inf, 1e300 sums
        want = outcome(lambda: oracle_assemble(parts, n_intervals, n_nodes))
        got = outcome(lambda: assemble_key_matrix(parts, T0, 10.0, n_intervals, names))
    assert got[0] == want[0], (got, want)
    if want[0] == "error":
        assert got[1] == want[1]
        return
    rows, columns = want[1]
    matrix = got[1]
    assert matrix.rows.tobytes() == rows.tobytes()
    for have, column in zip(matrix.nonzero(), columns):
        assert have.dtype == column.dtype and have.tobytes() == column.tobytes()


def test_a_matrix_too_large_to_hold_dense_is_assembled_solved_and_exported(tmp_path):
    # 2,000 active intervals x 20,000 nodes would be 320 MB dense
    n_intervals, n_nodes, n_active = 6_000, 20_000, 2_000
    rng = np.random.default_rng(20_000)
    # active intervals at least 2 apart, so a SWITCH fits before each and
    # every interval can go to its best node
    active = 2 * np.sort(rng.choice(n_intervals // 2, size=n_active, replace=False))
    per_row = rng.integers(1, 5, size=n_active)
    rows = np.repeat(active, per_row)
    nodes = rng.integers(0, n_nodes, size=len(rows))
    bits = rng.uniform(0.0, 1e4, size=len(rows))
    # each sample twice, in two parts, so cells sum repeated samples
    parts = [(rows, nodes, bits), (rows[::-1], nodes[::-1], bits[::-1])]
    names = tuple(f"N{n}" for n in range(n_nodes))

    tracemalloc.start()
    try:
        matrix = assemble_key_matrix(parts, T0, 10.0, n_intervals, names)
        export_key_matrix(matrix, QkdParams(), tmp_path / "km.csv", tmp_path / "km.json")
        schedule = solve_exact(matrix)
        totals = evaluate(schedule, matrix)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20, peak

    interval, node, cell_bits = matrix.nonzero()
    assert matrix.rows.tolist() == active.tolist()
    assert len((tmp_path / "km.csv").read_text().splitlines()) == 1 + len(cell_bits)
    assert is_feasible(schedule, n_intervals, n_nodes)
    assert schedule.node_totals == tuple(totals.tolist())
    # each active interval goes to its best node, added in interval order
    best = np.zeros(n_intervals)
    np.maximum.at(best, interval, cell_bits)
    assert schedule.objective == sum(best[active].tolist())
    assert math.fsum(totals.tolist()) == pytest.approx(schedule.objective, rel=1e-12)
