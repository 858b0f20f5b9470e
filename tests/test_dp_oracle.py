"""The exact DP against the code it replaced.

`oracle_solve_exact` below is `solve_exact` as it was before each row came
to cost only its own cells: it held every node's state in one array and
stepped all of them through each row with a nonzero weighted gain, with
`stays` and `through` kept as (rows, nodes) arrays for the traceback.  The
rewrite keeps each node's state at its last cell and lifts it to the rest
state when it is read, which is exact for the recurrence, so the new solver
must return the same assignment and an objective equal by float.hex on:
the 640 sparse matrices of the full-walk check in test_sched.py,
criterion 4's enumeration and GA instances, random weights with zeros and
all-zero columns, integer-valued ties, blocks that open at interval 0, and
the default Micius week.  The solver is given a KeyMatrix, the oracle the
dense array or the KeyMatrix; the oracle carries its own copy of the
dense-matrix reduction it called.
"""
from __future__ import annotations

import numpy as np
import pytest

from conftest import dense, key_matrix
from satqkd.qkd import KeyMatrix
from satqkd.scenario import key_matrix_for, micius_week_config
from satqkd.sched import IDLE, SWITCH, evaluate, is_feasible, solve_exact

pytestmark = pytest.mark.bits


# ---------------------------------------------------------------------------
# oracle: solve_exact before the per-cell rows, kept verbatim, with the
# dense-matrix reduction it called then; it returns the assignment and the
# objective in place of a Schedule
# ---------------------------------------------------------------------------

def oracle_nonzero_rows(values) -> tuple[int, np.ndarray, np.ndarray]:
    values = np.asarray(values, dtype=float)
    rows = np.flatnonzero(values.any(axis=1))
    return len(values), rows, values[rows]


def _cells_of(matrix) -> tuple[int, np.ndarray, np.ndarray]:
    if isinstance(matrix, KeyMatrix):
        return oracle_nonzero_rows(dense(matrix))
    return oracle_nonzero_rows(matrix)


def oracle_solve_exact(matrix, weights=None) -> tuple[np.ndarray, float]:
    key = n_intervals, cell_rows, cells = _cells_of(matrix)
    n_nodes = cells.shape[1]
    w = np.ones(n_nodes) if weights is None else np.asarray(weights, dtype=float)
    if w.shape != (n_nodes,):
        raise ValueError(f"expected {n_nodes} weights, got {w.shape}")
    if (bad := np.flatnonzero(~((w >= 0.0) & (w < np.inf)))).size:
        raise ValueError(f"weights[{bad[0]}] = {float(w[bad[0]])!r} is not finite and >= 0")
    weighted = ((cells != 0) & (w != 0)).any(axis=1)
    rows = cell_rows[weighted]
    gains = cells[weighted]  # (R, N), weighted in place: one full-size temporary
    gains *= w
    gap = np.diff(rows, prepend=-1) > 1  # a zero row lies before row k
    n_rows = len(rows)

    # states are activity codes; `ordered` holds the value of IDLE and SWITCH
    # alike first (it wins argmax ties), then node n at n + 1, so argmax - 1
    # is the best activity
    ordered = np.zeros(n_nodes + 1)
    f_nodes = ordered[1:]
    best = np.empty(n_rows, dtype=np.int64)  # best activity of the state before row k
    stays = np.empty((n_rows, n_nodes), dtype=bool)  # a node keeps its node parent
    through = np.ones((n_rows, n_nodes), dtype=bool)  # a node holds across the gap

    for k, after_gap in enumerate(gap.tolist()):
        parent = int(ordered.argmax())
        best[k] = parent - 1
        top = ordered[parent]
        stays[k] = f_nodes >= ordered[0]
        np.maximum(f_nodes, ordered[0], out=f_nodes)
        if after_gap:
            through[k] = f_nodes >= top
            f_nodes.fill(top)
        f_nodes += gains[k]
        ordered[0] = top

    state = int(ordered.argmax()) - 1
    objective = float(ordered[state + 1])

    assignment = np.full(n_intervals, IDLE, dtype=np.int64)  # every gap IDLE
    for k in range(n_rows - 1, -1, -1):
        row = rows[k]
        if state < 0:  # IDLE or SWITCH: entered from the best of the row before
            assignment[row] = state
            state = int(best[k])
            continue
        first = rows[k - 1] + 1 if k else 0  # the gap before row k
        assignment[first:row + 1] = state
        if not through[k, state]:
            assignment[first] = SWITCH
            state = int(best[k])
        elif not stays[k, state]:
            state = SWITCH
    return assignment, objective


# ---------------------------------------------------------------------------
# the instances
# ---------------------------------------------------------------------------

def sparse_trials():
    """(values, weights) of the 640 trials of test_sched's full-walk check:
    zero runs and pass blocks of half-integer yields, then handoffs."""
    rng = np.random.default_rng(2_106)
    for trial in range(600):
        n = int(rng.integers(1, 5))
        if trial % 50 == 0:
            values = np.zeros((int(rng.integers(1, 13)), n))
        else:
            n_segments = int(rng.integers(1, 8))
            zero_first = bool(rng.random() < 0.5)
            segments = []
            for k in range(n_segments):
                if (k % 2 == 0) == zero_first:
                    segments.append(np.zeros((int(rng.integers(1, 6)), n)))
                else:
                    block = rng.integers(0, 5, size=(int(rng.integers(1, 4)), n)) * 0.5
                    block[rng.integers(0, len(block)), rng.integers(0, n)] = 1.5
                    segments.append(block)
            values = np.vstack(segments)
        weights = None if rng.random() < 0.3 else rng.choice([0.0, 0.5, 1.0, 2.0], n)
        yield values, weights
    for trial in range(600, 640):
        n = int(rng.integers(2, 5))
        i, j = (int(v) for v in rng.choice(n, size=2, replace=False))
        lead = int(rng.integers(0, 3))
        values = np.zeros((lead + 3 + int(rng.integers(1, 6)), n))
        values[lead, i] = 2.0
        values[lead + 1, j] = 0.5
        values[-1, j] = float(rng.integers(1, 5)) * 0.5
        yield values, None


def criterion_4_instances():
    """The matrices criterion 4 solves exactly: 1,000 quarter-integer ones
    checked against enumeration and the 100 uniform ones of its GA half."""
    rng = np.random.default_rng(40_040)
    for _ in range(1000):
        m = int(rng.integers(1, 9))
        n = int(rng.integers(1, 4))
        values = rng.integers(0, 64, size=(m, n)).astype(float) * 0.25
        values[rng.random(size=values.shape) < 0.25] = 0.0
        yield values
    rng = np.random.default_rng(40_041)
    for _ in range(100):
        m = int(rng.integers(2, 21))
        n = int(rng.integers(1, 5))
        yield rng.uniform(0.0, 10.0, size=(m, n))


def blocky(rng, n_intervals: int, n_nodes: int, integer: bool) -> np.ndarray:
    """Pass-like blocks of a few nodes over zero runs; one block opens at
    interval 0 and some nodes never see the satellite."""
    values = np.zeros((n_intervals, n_nodes))
    m = 0
    while m < n_intervals:
        length = int(rng.integers(1, 12))
        seen = rng.choice(n_nodes, size=int(rng.integers(1, min(n_nodes, 4) + 1)),
                          replace=False)
        if integer:
            block = rng.integers(0, 4, size=(length, len(seen))).astype(float)
        else:
            block = rng.uniform(0.0, 10.0, size=(length, len(seen)))
            block[rng.random(block.shape) < 0.3] = 0.0
        values[m:m + length, seen] = block[:n_intervals - m]
        m += length + int(rng.integers(0, 6))
    values[:, rng.random(n_nodes) < 0.2] = 0.0  # all-zero columns
    return values


def check(values, weights=None, where=None) -> None:
    matrix = values if isinstance(values, KeyMatrix) else key_matrix(values)
    want_assignment, want_objective = oracle_solve_exact(values, weights)
    got = solve_exact(matrix, weights)
    assert np.array_equal(got.assignment, want_assignment), where
    assert got.objective.hex() == want_objective.hex(), where
    assert got.node_totals == tuple(evaluate(got, matrix).tolist()), where


# ---------------------------------------------------------------------------
# tests
# ---------------------------------------------------------------------------

def test_dp_matches_oracle_on_the_sparse_full_walk_matrices():
    for trial, (values, weights) in enumerate(sparse_trials()):
        check(values, weights, trial)


def test_dp_matches_oracle_on_criterion_4_instances():
    for trial, values in enumerate(criterion_4_instances()):
        check(values, None, trial)


@pytest.mark.parametrize("integer", [False, True], ids=["uniform", "integer-ties"])
def test_dp_matches_oracle_with_random_weights(integer):
    rng = np.random.default_rng(4_729 + integer)
    for trial in range(60):
        n_nodes = int(rng.integers(1, 9))
        values = blocky(rng, int(rng.integers(1, 400)), n_nodes, integer)
        weights = rng.choice([0.0, 0.5, 1.0, 3.0], size=n_nodes) if integer else (
            np.where(rng.random(n_nodes) < 0.25, 0.0, rng.uniform(0.0, 2.0, n_nodes)))
        for w in (None, weights, np.zeros(n_nodes)):
            check(values, w, trial)


@pytest.mark.parametrize("yields", [
    (1.0, 2.0, 3.0),
    (1.0, 2.0, 2.0**60, 2.0**61),
], ids=["small-integers", "absorbed-in-rounding"])
def test_dp_matches_oracle_on_integer_ties(yields):
    # small integer yields give most rows several best states, so every tie
    # rule shows in the assignment; next to 2**60 a yield of 1 or 2 adds
    # nothing, so a node without a cell can tie the rest state for rows on end
    rng = np.random.default_rng(77)
    for trial in range(1500):
        m, n = int(rng.integers(1, 30)), int(rng.integers(1, 5))
        values = rng.choice((0.0, 0.0, *yields), size=(m, n))
        values[rng.random(m) < 0.3] = 0.0
        check(values, None, trial)
        if trial % 5 == 0:
            check(values, rng.choice([0.0, 1.0, 2.0], n), trial)


@pytest.mark.parametrize("values", [
    [[1.0, 0.0], [0.0, 0.0], [0.0, 1.0]],
    [[1.0, 1.0], [1.0, 1.0], [0.0, 0.0], [0.0, 1.0]],
    [[0.0, 3.0], [2.0, 0.0], [0.0, 0.0], [0.0, 0.0], [2.0, 2.0]],
    [[5.0], [0.0], [0.0], [5.0]],
], ids=["one-gap", "two-nodes-tie", "handoff-then-gap", "one-node"])
def test_dp_matches_oracle_on_blocks_that_open_at_interval_0(values):
    check(np.array(values))
    check(np.array(values), np.linspace(1.0, 0.0, len(values[0])))


def test_dp_matches_oracle_on_the_micius_week():
    config = micius_week_config()
    matrix = key_matrix_for(config)
    for weights in (None, config.station_weights()):
        want_assignment, want_objective = oracle_solve_exact(matrix, weights)
        got = solve_exact(matrix, weights)
        assert np.array_equal(got.assignment, want_assignment)
        assert got.objective.hex() == want_objective.hex()
        assert is_feasible(got, matrix.n_intervals, matrix.n_nodes)


def test_a_key_matrix_and_its_dense_values_solve_alike():
    rng = np.random.default_rng(12)
    values = blocky(rng, 500, 7, integer=False)
    matrix = key_matrix(values, node_names=tuple("ABCDEFG"))
    for weights in (None, rng.uniform(0.0, 1.0, 7)):
        # the oracle reads the dense values, the solver their nonzero cells
        want_assignment, want_objective = oracle_solve_exact(values, weights)
        got = solve_exact(matrix, weights)
        assert np.array_equal(got.assignment, want_assignment)
        assert got.objective.hex() == want_objective.hex()
        check(matrix, weights)
