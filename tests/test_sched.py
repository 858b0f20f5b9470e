"""Scheduler tests.

The independent oracle is a vectorised exhaustive enumeration over all
(N+2)^M activity strings, filtered by the switch-feasibility rule; the DP
and GA solvers are checked against it on small instances.  KL values
are frozen from 30-digit evaluations.  Property sweeps cover feasibility of
every returned schedule, objective dominance, scale invariance and GA
determinism.  The DP that skips all-zero runs is checked row for row against
the full-walk DP it replaced, and the GA's sparse per-node totals against the
masked-product formula.
"""
from __future__ import annotations

import hashlib
import math
import re
import tracemalloc
from datetime import datetime, timezone

import numpy as np
import pytest

from satqkd import output
from satqkd.qkd import KeyMatrix, QkdParams, export_key_matrix
from satqkd.sched import (
    IDLE,
    SWITCH,
    Distribution,
    GaConfig,
    Schedule,
    StrategyConfig,
    delivered_distribution,
    evaluate,
    is_feasible,
    kl_divergence,
    solve_exact,
    solve_ga,
    write_schedule_csv,
    _node_cells,
    _node_totals,
)

from conftest import dense, key_matrix
from conftest import enumeration_oracle as enumerate_best

TOY = np.array([[5.0, 0.0], [0.0, 4.0], [0.0, 6.0]])  # best feasible: 11


def quick_ga(seed=0, population=60, generations=120) -> GaConfig:
    return GaConfig(population=population, generations=generations, seed=seed)


# ---------------------------------------------------------------------------
# feasibility and evaluation
# ---------------------------------------------------------------------------

def test_all_idle_is_feasible():
    assert is_feasible([IDLE] * 5, 5, 2)


def test_handoff_without_switch_is_infeasible():
    assert not is_feasible([0, 1], 2, 2)
    assert is_feasible([0, SWITCH, 1], 3, 2)
    assert is_feasible([0, 0, 0], 3, 2)
    assert not is_feasible([IDLE, 0], 2, 2)  # idle does not grant a handoff
    assert is_feasible([SWITCH, 0], 2, 2)
    assert is_feasible([1, IDLE, SWITCH, 0], 4, 2)


def test_first_interval_unconstrained():
    assert is_feasible([1], 1, 2)


def test_feasibility_rejects_bad_shapes_and_codes():
    assert not is_feasible([0, 0], 3, 2)
    assert not is_feasible([0, 5], 2, 2)
    assert not is_feasible([0, -3], 2, 2)


def test_non_integer_codes_are_rejected():
    assert not is_feasible([0.5], 1, 2)
    assert not is_feasible([math.nan, IDLE], 2, 2)
    assert is_feasible([0.0, 0.0, float(SWITCH)], 3, 2)  # integral floats are codes
    with pytest.raises(ValueError, match=r"assignment\[0\] = 0.5 is not an integer"):
        evaluate([0.5, IDLE], key_matrix([[3, 4], [1, 1]]))


@pytest.mark.parametrize("codes, message", [
    ([7, IDLE], r"assignment\[0\] = 7 is not IDLE \(-1\), SWITCH \(-2\) or a node in 0..1"),
    ([IDLE, -3], r"assignment\[1\] = -3 is not IDLE"),
    ([0, 2], r"assignment\[1\] = 2 is not IDLE"),
    ([math.inf, IDLE], r"assignment\[0\] = inf is not IDLE"),
    ([0.0, -math.inf], r"assignment\[1\] = -inf is not IDLE"),
], ids=["past-last-node", "below-switch", "n-nodes", "inf", "minus-inf"])
def test_evaluate_refuses_stray_activity_codes(codes, message):
    assert not is_feasible(codes, 2, 2)
    with pytest.raises(ValueError, match=message):
        evaluate(codes, key_matrix([[3, 4], [1, 1]]))


def test_schedule_holds_a_read_only_int64_array():
    sched = Schedule(assignment=(0, SWITCH, 1), node_totals=(1.0, 2.0), objective=3.0)
    assert sched.assignment.dtype == np.int64
    assert sched.assignment.tolist() == [0, SWITCH, 1]
    with pytest.raises(ValueError, match="read-only"):
        sched.assignment[0] = 1
    solved = solve_exact(key_matrix(TOY))
    assert solved.assignment.dtype == np.int64
    assert not solved.assignment.flags.writeable


def loop_is_feasible(schedule, n_intervals: int, n_nodes: int) -> bool:
    """is_feasible as it was before it became one array expression."""
    assignment = schedule.assignment if isinstance(schedule, Schedule) else schedule
    if len(assignment) != n_intervals:
        return False
    prev = SWITCH  # horizon start: first assignment needs no preceding switch
    for act in assignment:
        if not (act in (IDLE, SWITCH) or 0 <= act < n_nodes):
            return False
        if 0 <= act < n_nodes and not (prev == act or prev == SWITCH):
            return False
        prev = act
    return True


def test_is_feasible_matches_the_loop_it_replaced():
    # codes in [-3, n_nodes + 1]: one below SWITCH and one past the last node;
    # half the strings repeat their last code often, so many are feasible
    rng = np.random.default_rng(1_107)
    seen = dict.fromkeys(("feasible", "infeasible", "off_by_one", "empty",
                          "first_node"), 0)
    for trial in range(3000):
        n_nodes = int(rng.integers(0, 4))
        n_intervals = int(rng.integers(0, 9))
        length = max(0, n_intervals + int(rng.integers(-1, 2)))
        codes = rng.integers(-3, n_nodes + 2, size=length)
        if trial % 2:
            for m in range(1, length):
                if rng.random() < 0.6:
                    codes[m] = codes[m - 1]
        want = loop_is_feasible(codes.tolist(), n_intervals, n_nodes)
        for form in (codes.tolist(), codes, tuple(codes.tolist())):
            assert is_feasible(form, n_intervals, n_nodes) == want, (trial, codes)
        seen["feasible" if want else "infeasible"] += 1
        seen["off_by_one"] += length != n_intervals
        seen["empty"] += length == 0
        seen["first_node"] += bool(want and length and 0 <= codes[0] < n_nodes)
    assert min(seen.values()) >= 50, seen


def test_evaluate_all_idle_and_one_hot():
    assert evaluate([IDLE] * 3, key_matrix(TOY)).tolist() == [0.0, 0.0]
    assert evaluate([IDLE, 1, IDLE], key_matrix(TOY)).tolist() == [0.0, 4.0]


def test_evaluate_dimension_mismatch():
    with pytest.raises(ValueError, match="length"):
        evaluate([0, 1], key_matrix(TOY))


# ---------------------------------------------------------------------------
# KL divergence and distributions
# ---------------------------------------------------------------------------

def test_kl_zero_iff_equal():
    p = Distribution((0.3, 0.7))
    assert kl_divergence(p, p) == 0.0
    q = Distribution((0.300000001, 0.699999999))
    assert 0.0 < kl_divergence(p, q) < 1e-12


def test_kl_frozen_values():
    assert kl_divergence(Distribution((0.5, 0.5)), Distribution((0.25, 0.75))) \
        == pytest.approx(0.143841036225890, rel=1e-12)
    assert kl_divergence(Distribution((1.0, 0.0)), Distribution((0.5, 0.5))) \
        == pytest.approx(math.log(2.0), rel=1e-12)


def test_kl_infinite_when_support_uncovered():
    assert math.isinf(kl_divergence(Distribution((0.5, 0.5)),
                                    Distribution((1.0, 0.0))))


def test_kl_nonnegative_random():
    rng = np.random.default_rng(11)
    for _ in range(200):
        p = rng.dirichlet(np.ones(4))
        q = rng.dirichlet(np.ones(4))
        p = Distribution(tuple(p / p.sum()))
        q = Distribution(tuple(q / q.sum()))
        assert kl_divergence(p, q) >= 0.0


def test_distribution_validation():
    with pytest.raises(ValueError):
        Distribution((0.5, 0.6))
    with pytest.raises(ValueError):
        Distribution((-0.1, 1.1))


def test_delivered_distribution_cases():
    km = np.array([[5.0, 5.0], [5.0, 5.0]])
    assert delivered_distribution([0, 1], key_matrix(km)).probabilities == (0.5, 0.5)
    assert delivered_distribution([0, 0], key_matrix(km)).probabilities == (1.0, 0.0)
    km3 = np.diag([3.0, 1.0, 0.0])
    got = delivered_distribution([0, 1, IDLE], key_matrix(km3)).probabilities
    assert got == (0.75, 0.25, 0.0)
    with pytest.raises(ValueError, match="undefined"):
        delivered_distribution([IDLE, IDLE], key_matrix(km))


# ---------------------------------------------------------------------------
# exact solver
# ---------------------------------------------------------------------------

def test_exact_toy_instance_matches_enumeration():
    sched = solve_exact(key_matrix(TOY))
    assert sched.objective == 11.0
    assert sched.objective == enumerate_best(TOY)
    assert sched.assignment.tolist() == [0, SWITCH, 1]
    assert is_feasible(sched, 3, 2)


def test_exact_on_handoff_trap():
    # the best first interval (node 0, 10 bits) would cost a SWITCH before
    # node 1's run; staying on node 1 throughout gives 27
    trap = np.array([[10.0, 9.0], [0.0, 9.0], [0.0, 9.0]])
    sched = solve_exact(key_matrix(trap))
    assert sched.objective == 27.0 == enumerate_best(trap)
    assert sched.assignment.tolist() == [1, 1, 1]
    assert is_feasible(sched, 3, 2)


def test_exact_all_zero_returns_idle():
    sched = solve_exact(key_matrix(np.zeros((4, 3))))
    assert sched.assignment.tolist() == [IDLE] * 4
    assert sched.objective == 0.0


def test_exact_weighted_instance():
    sched = solve_exact(key_matrix(TOY), weights=[1.0, 1000.0])
    assert sched.objective == enumerate_best(TOY, [1.0, 1000.0]) == 10000.0
    assert sched.assignment[1] == 1 and sched.assignment[2] == 1
    assert sched.node_totals == (0.0, 10.0)


def test_exact_matches_enumeration_randomised():
    rng = np.random.default_rng(202)
    for _ in range(60):
        m = int(rng.integers(1, 7))
        n = int(rng.integers(1, 4))
        values = rng.uniform(0.0, 10.0, size=(m, n))
        values[rng.random(size=values.shape) < 0.3] = 0.0
        sched = solve_exact(key_matrix(values))
        assert sched.objective == pytest.approx(enumerate_best(values), rel=1e-12)
        assert is_feasible(sched, m, n)


def test_exact_scale_invariance_power_of_two():
    rng = np.random.default_rng(5)
    values = rng.uniform(0.0, 8.0, size=(7, 3))
    base = solve_exact(key_matrix(values))
    scaled = solve_exact(key_matrix(values * 4.0))
    assert np.array_equal(scaled.assignment, base.assignment)
    assert scaled.objective == pytest.approx(4.0 * base.objective, rel=1e-15)


def test_exact_empty_and_degenerate_shapes():
    assert solve_exact(key_matrix(np.zeros((0, 3)))).assignment.tolist() == []
    assert solve_exact(key_matrix(np.zeros((3, 0)))).assignment.tolist() == [IDLE] * 3


@pytest.mark.parametrize("weights,needle", [
    ([-1.0, 1.0], "weights[0] = -1.0 is not finite and >= 0"),
    ([1.0, math.nan], "weights[1] = nan is not finite and >= 0"),
    ([math.inf, 1.0], "weights[0] = inf is not finite and >= 0"),
    ([1.0, -math.inf], "weights[1] = -inf is not finite and >= 0"),
    ([1.0], "expected 2 weights, got (1,)"),
    ([1.0, 1.0, 1.0], "expected 2 weights, got (3,)"),
])
def test_exact_rejects_bad_weights(weights, needle):
    with pytest.raises(ValueError, match=re.escape(needle)):
        solve_exact(key_matrix([[1.0, 2.0], [3.0, 0.0]]), weights=weights)


def full_walk_exact(values: np.ndarray, weights=None) -> Schedule:
    """solve_exact as it was before zero runs were skipped: every row walked."""
    n_intervals, n_nodes = values.shape
    w = np.ones(n_nodes) if weights is None else np.asarray(weights, dtype=float)
    gains = values * w
    idle_id, switch_id = 0, n_nodes + 1
    f_nodes = gains[0].copy()
    f_idle = 0.0
    f_switch = 0.0
    same_parent = np.zeros((n_intervals, n_nodes), dtype=bool)
    other_parent = np.zeros(n_intervals, dtype=np.int32)
    for m in range(1, n_intervals):
        ordered = np.concatenate(([f_idle], f_nodes, [f_switch]))
        best_id = int(np.argmax(ordered))
        best_val = float(ordered[best_id])
        same_parent[m] = f_nodes >= f_switch
        f_nodes = gains[m] + np.maximum(f_nodes, f_switch)
        other_parent[m] = best_id
        f_idle = best_val
        f_switch = best_val
    ordered = np.concatenate(([f_idle], f_nodes, [f_switch]))
    state = int(np.argmax(ordered))
    objective = float(ordered[state])
    assignment = np.empty(n_intervals, dtype=np.int64)
    for m in range(n_intervals - 1, -1, -1):
        if state == idle_id:
            assignment[m] = IDLE
            nxt = other_parent[m]
        elif state == switch_id:
            assignment[m] = SWITCH
            nxt = other_parent[m]
        else:
            node = state - 1
            assignment[m] = node
            nxt = state if same_parent[m, node] else switch_id
        state = int(nxt)
    totals = evaluate(assignment, key_matrix(values))
    return Schedule(assignment=tuple(int(a) for a in assignment),
                    node_totals=tuple(float(v) for v in totals),
                    objective=objective)


def _gap_cases(values: np.ndarray, weights, assignment: np.ndarray) -> dict[str, int]:
    """Counts of the zero-gain gaps between two weighted-active rows that
    the exact DP's traceback tells apart, read from an assignment."""
    w = np.ones(values.shape[1]) if weights is None else weights
    rows = np.flatnonzero((values * w).any(axis=1))
    cases = dict.fromkeys(("gap_1", "gap_2plus", "hold", "hold_after_switch",
                           "reenter"), 0)
    for a, b in zip(rows[:-1], rows[1:]):
        if b - a < 2:
            continue
        cases["gap_1" if b - a == 2 else "gap_2plus"] += 1
        node = assignment[b]
        if node < 0:
            continue
        if (assignment[a + 1:b] == node).all():  # the node holds across the gap
            cases["hold"] += 1
            cases["hold_after_switch"] += bool(assignment[a] == SWITCH)
        elif assignment[a + 1] == SWITCH and (assignment[a + 2:b] == node).all():
            cases["reenter"] += 1  # through a SWITCH on the gap's first row
    return cases


def test_exact_matches_full_walk_on_sparse_matrices():
    # alternating zero runs (1-5 rows) and pass blocks (1-3 rows) of
    # half-integer yields, so that value ties are common
    rng = np.random.default_rng(2_106)
    seen = dict.fromkeys(("lead", "middle", "trail", "all_zero",
                          "zero_weight", "tie", "gap_1", "gap_2plus", "hold",
                          "hold_after_switch", "reenter"), 0)

    def check(trial, values, weights):
        got = solve_exact(key_matrix(values), weights)
        want = full_walk_exact(values, weights)
        assert np.array_equal(got.assignment, want.assignment), trial
        assert got.node_totals == want.node_totals, trial
        assert got.objective == want.objective, trial
        for case, count in _gap_cases(values, weights, want.assignment).items():
            seen[case] += count

    for trial in range(600):
        n = int(rng.integers(1, 5))
        if trial % 50 == 0:
            values = np.zeros((int(rng.integers(1, 13)), n))
            seen["all_zero"] += 1
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
            zero_at = [k for k, seg in enumerate(segments) if not seg.any()]
            seen["lead"] += 0 in zero_at
            seen["trail"] += n_segments - 1 in zero_at
            seen["middle"] += any(0 < k < n_segments - 1 for k in zero_at)
            seen["tie"] += bool(any(len(set(row[row > 0])) < (row > 0).sum()
                                    for row in values))
        weights = None if rng.random() < 0.3 else rng.choice([0.0, 0.5, 1.0, 2.0], n)
        if weights is not None and values[:, weights == 0].any():
            seen["zero_weight"] += 1
        check(trial, values, weights)

    # handoffs: node i's pass, then one row where only node j yields less
    # than i gave, a gap, and node j's pass.  Node j holds across the gap
    # and the row before the gap is a SWITCH, a case the trials above
    # rarely build.
    for trial in range(600, 640):
        n = int(rng.integers(2, 5))
        i, j = (int(v) for v in rng.choice(n, size=2, replace=False))
        lead = int(rng.integers(0, 3))
        values = np.zeros((lead + 3 + int(rng.integers(1, 6)), n))
        values[lead, i] = 2.0
        values[lead + 1, j] = 0.5
        values[-1, j] = float(rng.integers(1, 5)) * 0.5
        check(trial, values, None)
    assert min(seen.values()) >= 12, seen


# ---------------------------------------------------------------------------
# genetic algorithm
# ---------------------------------------------------------------------------

def test_ga_all_zero_matrix():
    cfg = StrategyConfig(kind="S-GD", ga=quick_ga())
    sched = solve_ga(key_matrix(np.zeros((5, 2))), cfg)
    assert sched.objective == 0.0
    assert is_feasible(sched, 5, 2)


def test_ga_finds_toy_optimum():
    cfg = StrategyConfig(kind="S-GD", ga=GaConfig(population=200,
                                                  generations=200, seed=3))
    sched = solve_ga(key_matrix(TOY), cfg)
    assert sched.objective == pytest.approx(11.0, rel=1e-12)
    assert is_feasible(sched, 3, 2)


def test_ga_never_beats_exact_and_usually_matches():
    rng = np.random.default_rng(55)
    hits = 0
    for trial in range(10):
        values = rng.uniform(0.0, 10.0, size=(10, 3))
        exact = solve_exact(key_matrix(values)).objective
        got = solve_ga(key_matrix(values), StrategyConfig(kind="S-GD",
                                              ga=GaConfig(seed=trial))).objective
        assert got <= exact + 1e-9
        if got >= 0.98 * exact:
            hits += 1
    assert hits >= 9


def test_ga_deterministic_given_seed():
    values = np.random.default_rng(1).uniform(0.0, 10.0, size=(12, 3))
    cfg = StrategyConfig(kind="S-TD", weights=(0.2, 0.3, 0.5), ga=quick_ga(seed=9))
    a = solve_ga(key_matrix(values), cfg)
    b = solve_ga(key_matrix(values), cfg)
    assert np.array_equal(a.assignment, b.assignment)
    assert a.objective == b.objective


def test_ga_feasible_over_random_instances_and_seeds():
    rng = np.random.default_rng(99)
    for trial in range(10):
        m = int(rng.integers(1, 16))
        n = int(rng.integers(1, 5))
        values = rng.uniform(0.0, 10.0, size=(m, n))
        values[rng.random(size=values.shape) < 0.5] = 0.0
        for kind in ("S-GD", "S-PD", "S-TD"):
            cfg = StrategyConfig(kind=kind, weights=tuple(rng.uniform(0.1, 1.0, n)),
                                 ga=quick_ga(seed=trial, population=30,
                                             generations=30))
            sched = solve_ga(key_matrix(values), cfg)
            assert is_feasible(sched, m, n)


def test_ga_sparse_compression_agrees_with_enumeration():
    # zero rows between passes: the GA searches only active intervals but
    # must report a full-length feasible schedule with the same optimum
    values = np.array([[10.0, 9.9], [0.0, 0.0], [0.0, 0.0], [10.0, 9.9]])
    cfg = StrategyConfig(kind="S-GD", ga=GaConfig(population=100,
                                                  generations=150, seed=2))
    sched = solve_ga(key_matrix(values), cfg)
    assert len(sched.assignment) == 4
    assert is_feasible(sched, 4, 2)
    assert sched.objective == pytest.approx(enumerate_best(values), rel=1e-12)


def test_sparse_node_totals_match_masked_product():
    rng = np.random.default_rng(61)
    k = rng.uniform(0.0, 1e4, size=(700, 7))
    k[rng.random(k.shape) < 0.8] = 0.0
    k[:, 5] = 0.0  # a node without a single nonzero cell
    row, node = np.nonzero(k)
    cells = _node_cells(row, node, k[row, node])
    assert [n for n, _, _ in cells] == [0, 1, 2, 3, 4, 6]
    for _ in range(20):
        group = rng.integers(0, 9, size=(30, 700), dtype=np.int16)
        masked = np.stack([((group == n) * k[:, n][None, :]).sum(axis=1)
                           for n in range(7)], axis=1)
        got = _node_totals(group, cells, 7)
        np.testing.assert_allclose(got, masked, rtol=1e-12, atol=0.0)
        assert np.all(got[:, 5] == 0.0)


def test_ga_std_fixed_seed_result_is_pinned():
    # digest of the assignment this instance produced before the per-node
    # totals went sparse; a change that redirects the GA's search fails here
    rng = np.random.default_rng(2106)
    values = rng.uniform(0.0, 50.0, size=(300, 6))
    values[rng.random(300) < 0.75] = 0.0
    values[rng.random(values.shape) < 0.3] = 0.0
    cfg = StrategyConfig(kind="S-TD", weights=(0.3, 0.25, 0.2, 0.1, 0.1, 0.05),
                         ga=GaConfig(population=40, generations=80, seed=5))
    matrix = key_matrix(values)
    sched = solve_ga(matrix, cfg, seed_schedules=[solve_exact(matrix)])
    digest = hashlib.sha256(
        np.asarray(sched.assignment, dtype=np.int64).tobytes()).hexdigest()
    assert digest == ("97dbe112dc1d1a09b46ab85df6bd079d"
                      "a705097527f9a161c0671a2d9c2c27f0")
    assert sched.objective == pytest.approx(2477.4538093436345, rel=1e-12)


def test_ga_spd_equal_weights_matches_sgd_objective():
    values = np.random.default_rng(4).uniform(0.0, 10.0, size=(14, 3))
    ga = quick_ga(seed=21)
    sgd = solve_ga(key_matrix(values), StrategyConfig(kind="S-GD", ga=ga))
    spd = solve_ga(key_matrix(values), StrategyConfig(kind="S-PD",
                                          weights=(2.0, 2.0, 2.0), ga=ga))
    assert spd.objective == pytest.approx(sgd.objective, rel=1e-12)
    assert np.array_equal(spd.assignment, sgd.assignment)


def test_ga_spd_prefers_weighted_node():
    values = np.array([[5.0, 4.9]])
    heavy = StrategyConfig(kind="S-PD", weights=(0.05, 0.95),
                           ga=quick_ga(seed=8, population=30, generations=40))
    sched = solve_ga(key_matrix(values), heavy)
    assert sched.assignment.tolist() == [1]


def test_ga_std_reduces_kl_within_band():
    # two active blocks; taking node 1 in the second block costs 0.5 percent
    # of the total but balances the delivery
    values = np.array([[10.0, 9.9], [0.0, 0.0], [10.0, 9.9]])
    weights = (0.5, 0.5)
    # exhaustive oracle over the active choices
    options = []
    for a in (0, 1, IDLE):
        for b in (0, 1, IDLE):
            sched = [a, IDLE if (a == IDLE or b == IDLE or a == b) else SWITCH, b]
            sched[1] = SWITCH if (a != b and a != IDLE and b != IDLE) else sched[1]
            totals = evaluate(sched, key_matrix(values))
            options.append((float(totals.sum()), tuple(totals)))
    best_total = max(t for t, _ in options)
    eligible = [(t, tot) for t, tot in options if t >= 0.95 * best_total]
    kl_of = lambda tot: kl_divergence(
        Distribution((tot[0] / sum(tot), tot[1] / sum(tot))),
        Distribution(weights)) if sum(tot) else math.inf
    least_kl = min(kl_of(tot) for _, tot in eligible)

    sgd = solve_ga(key_matrix(values), StrategyConfig(
        kind="S-GD", ga=GaConfig(population=120, generations=150, seed=6)))
    std = solve_ga(key_matrix(values), StrategyConfig(
        kind="S-TD", weights=weights,
        ga=GaConfig(population=120, generations=150, seed=6)))
    kl_sgd = kl_of(sgd.node_totals)
    kl_std = kl_of(std.node_totals)
    assert kl_std <= kl_sgd
    assert kl_std == pytest.approx(least_kl, abs=1e-9)
    assert std.total >= 0.95 * best_total - 1e-9
    assert sgd.total >= std.total - 1e-9


def test_ga_warm_start_is_respected():
    values = np.random.default_rng(17).uniform(0.0, 10.0, size=(16, 4))
    exact = solve_exact(key_matrix(values))
    cfg = StrategyConfig(kind="S-GD",
                         ga=GaConfig(population=20, generations=5, seed=0))
    warm = solve_ga(key_matrix(values), cfg, seed_schedules=[exact])
    assert warm.objective >= exact.objective - 1e-9  # elitism keeps the seed
    assert warm.objective <= exact.objective + 1e-9


def test_strategy_config_validation():
    with pytest.raises(ValueError, match="kind"):
        StrategyConfig(kind="S-XX")
    with pytest.raises(ValueError, match="weights"):
        StrategyConfig(kind="S-PD", weights=(-1.0, 2.0))
    with pytest.raises(ValueError, match="population"):
        GaConfig(population=1)
    with pytest.raises(ValueError, match="elitism"):
        GaConfig(population=10, elitism=10)
    with pytest.raises(ValueError, match="seed must be >= 0"):
        GaConfig(seed=-1)


def test_schedule_total_property():
    sched = Schedule(assignment=(0, 1), node_totals=(2.0, 3.5), objective=5.5)
    assert sched.total == 5.5


# ---------------------------------------------------------------------------
# export
# ---------------------------------------------------------------------------

def loop_write_schedule_csv(schedule, matrix, path) -> None:
    """write_schedule_csv as it was before it named the codes with one take:
    a dict lookup and a write per row."""
    names = {IDLE: "IDLE", SWITCH: "SWITCH", **dict(enumerate(matrix.node_names))}
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("interval_index,start_utc,activity\n")
        for m, act in enumerate(schedule.assignment):
            fh.write(f"{m},{matrix.interval_start(m).isoformat()},{names[act]}\n")


@pytest.mark.parametrize("chunk", [1, 3, 4096])
def test_schedule_csv_matches_the_row_loop(tmp_path, monkeypatch, chunk):
    monkeypatch.setattr(output, "_CHUNK", chunk)
    rng = np.random.default_rng(4_096)
    start = datetime(2016, 9, 19, 13, 0, 0, 250_000, tzinfo=timezone.utc)
    for n_intervals in (0, 1, 2, 3, 6, 7, 4096, 4097):
        n_nodes = int(rng.integers(1, 5))
        matrix = key_matrix(rng.uniform(0.0, 5.0, size=(n_intervals, n_nodes)), start=start,
                            node_names=tuple(f"station-{n}" for n in range(n_nodes)))
        codes = rng.integers(SWITCH, n_nodes, size=n_intervals)
        schedules = (solve_exact(matrix),
                     Schedule(assignment=codes, node_totals=(), objective=0.0))
        # both files are written side by side, as run_schedule writes three
        write_schedule_csv(schedules, matrix, [tmp_path / "got0.csv", tmp_path / "got1.csv"])
        for k, schedule in enumerate(schedules):
            loop_write_schedule_csv(schedule, matrix, tmp_path / "want.csv")
            assert ((tmp_path / f"got{k}.csv").read_bytes()
                    == (tmp_path / "want.csv").read_bytes()), n_intervals
    short = Schedule(assignment=codes[:-1], node_totals=(), objective=0.0)
    with pytest.raises(ValueError):
        write_schedule_csv([schedules[0], short], matrix,
                           [tmp_path / "long.csv", tmp_path / "short.csv"])
    assert not (tmp_path / "long.csv").exists() and not (tmp_path / "short.csv").exists()


# ---------------------------------------------------------------------------
# the key matrix: one constructor of checked cell columns
# ---------------------------------------------------------------------------

DAY0 = datetime(2016, 9, 19, tzinfo=timezone.utc)


@pytest.mark.parametrize("values,cell,shown", [
    ([[math.nan, 1.0], [1.0, 0.0]], "[0][0]", "nan"),
    ([[1.0, 2.0], [-0.5, 0.0]], "[1][0]", "-0.5"),
    ([[0.0, 0.0], [0.0, math.inf]], "[1][1]", "inf"),
    ([[0.0, -math.inf], [math.nan, 0.0]], "[0][1]", "-inf"),
    ([[0.0, 0.0], [0.0, 0.0], [3.0, -1e-300]], "[2][1]", "-1e-300"),
], ids=["nan", "negative", "inf", "first-of-two", "tiny-negative"])
@pytest.mark.parametrize("call", ["solve_exact", "solve_ga", "evaluate"])
def test_raw_matrix_with_a_bad_entry_is_rejected(values, cell, shown, call):
    run = {"solve_exact": solve_exact,
           "solve_ga": lambda v: solve_ga(v, StrategyConfig(
               ga=GaConfig(population=4, generations=2))),
           "evaluate": lambda v: evaluate([IDLE] * len(v), v)}[call]
    # a solver takes only a KeyMatrix, and the matrix refuses the entry
    with pytest.raises(TypeError, match="expected a qkd.KeyMatrix, got ndarray"):
        run(np.array(values))
    with pytest.raises(ValueError, match=re.escape(
            f"key matrix entry {cell} = {shown} is not finite and >= 0")):
        key_matrix(values)


def test_key_matrix_rows_and_cells_agree_with_the_dense_form():
    rng = np.random.default_rng(14)
    values = rng.uniform(0.0, 9.0, size=(40, 3))
    values[rng.random(40) < 0.5] = 0.0
    values[rng.random(values.shape) < 0.3] = 0.0
    interval, node = np.nonzero(values)
    want = (interval, node, values[interval, node])
    # the columns are copied, held read-only, and read back as given
    given = [column.astype(np.int32) for column in want[:2]] + [want[2].tolist()]
    matrix = KeyMatrix(DAY0, 10.0, ("A", "B", "C"), 40, *given)
    assert matrix.rows.tolist() == np.flatnonzero(values.any(axis=1)).tolist()
    for got, column in zip(matrix.nonzero(), want):
        assert got.dtype == column.dtype and np.array_equal(got, column)
        assert not got.flags.writeable
    assert not matrix.rows.flags.writeable
    given[0][0] = 39
    assert matrix.cell_intervals[0] == want[0][0]
    assert (matrix.n_intervals, matrix.n_nodes) == values.shape
    assert np.array_equal(dense(matrix), values)
    # the solvers take nothing else
    for solve in (solve_exact, lambda m: solve_ga(m, StrategyConfig(
            kind="S-TD", ga=GaConfig(population=8, generations=10)))):
        with pytest.raises(TypeError, match="expected a qkd.KeyMatrix, got ndarray"):
            solve(values)
        with pytest.raises(TypeError, match="expected a qkd.KeyMatrix, got list"):
            solve(values.tolist())
        assert is_feasible(solve(matrix), 40, 3)
    with pytest.raises(TypeError, match="expected a qkd.KeyMatrix, got ndarray"):
        delivered_distribution([IDLE] * 40, values)


@pytest.mark.parametrize("intervals,nodes,bits,needle", [
    ([1.7], [0], [1.0], "cell_intervals holds float64 values, not integers"),
    ([1], [0.0], [1.0], "cell_nodes holds float64 values, not integers"),
    ([True], [0], [1.0], "cell_intervals holds bool values, not integers"),
    ([3, 1], [0, 0], [1.0, 1.0], "cells must be in row-major order, each once"),
    ([1, 1], [1, 0], [1.0, 1.0], "cells must be in row-major order, each once"),
    ([1, 1], [0, 0], [1.0, 1.0], "cells must be in row-major order, each once"),
    ([-1], [0], [1.0], "cell_intervals must lie in 0..4"),
    ([5], [0], [1.0], "cell_intervals must lie in 0..4"),
    ([1], [-1], [1.0], "cell_nodes must lie in 0..1"),
    ([1], [2], [1.0], "cell_nodes must lie in 0..1"),
    ([1, 2], [0], [1.0, 1.0], "cell columns must be 1-D and of one length, got shapes "
                              "(2,), (1,) and (2,)"),
    ([1], [0], [1.0, 2.0], "of one length, got shapes (1,), (1,) and (2,)"),
    ([[1]], [[0]], [[1.0]], "must be 1-D and of one length, got shapes (1, 1)"),
    ([0, 4], [0, 1], [1.0, math.nan], "key matrix entry [4][1] = nan is not finite and >= 0"),
    ([2], [1], [math.inf], "key matrix entry [2][1] = inf is not finite and >= 0"),
    ([2], [1], [-0.5], "key matrix entry [2][1] = -0.5 is not finite and >= 0"),
    ([0, 2], [1, 0], [1.0, 0.0], "key matrix entry [2][0] = 0.0 is zero"),
    ([2], [1], [-0.0], "key matrix entry [2][1] = -0.0 is zero"),
], ids=["non-integer-interval", "non-integer-node", "bool-interval", "unsorted",
        "unsorted-in-a-row", "repeated", "interval-below-grid", "interval-past-grid",
        "node-below-grid", "node-past-grid", "unequal-lengths", "unequal-bits", "2-d",
        "nan-bits", "infinite-bits", "negative-bits", "zero-bits", "minus-zero-bits"])
def test_key_matrix_rejects_malformed_rows_and_cells(intervals, nodes, bits, needle):
    with pytest.raises(ValueError, match=re.escape(needle)):
        KeyMatrix(DAY0, 10.0, ("A", "B"), 5, intervals, nodes, bits)


def test_a_sparse_key_matrix_is_never_made_dense(tmp_path):
    # 10**6 intervals x 20 nodes would be 160 MB dense; 36 rows hold keys
    n_intervals, n_nodes, n_rows = 10**6, 20, 36
    rng = np.random.default_rng(10**6)
    # rows 3 or more apart, so a SWITCH fits before each
    rows = 3 * np.sort(rng.choice(n_intervals // 3, size=n_rows, replace=False))
    cells = rng.uniform(0.0, 80.0, size=(n_rows, n_nodes))
    cells[rng.random(cells.shape) < 0.8] = 0.0
    cells[np.arange(n_rows), rng.integers(0, n_nodes, size=n_rows)] = 7.0
    k, node = np.nonzero(cells)
    matrix = KeyMatrix(DAY0, 10.0, tuple(f"N{n}" for n in range(n_nodes)), n_intervals,
                       rows[k], node, cells[k, node])
    cfg = StrategyConfig(kind="S-TD", ga=GaConfig(population=10, generations=5))

    tracemalloc.start()
    try:
        export_key_matrix(matrix, QkdParams(), tmp_path / "km.csv", tmp_path / "km.json")
        sgd = solve_exact(matrix)
        std = solve_ga(matrix, cfg, seed_schedules=[sgd])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < n_intervals * n_nodes * 8 / 4, peak

    n_cells = int((cells > 0).sum())
    assert len((tmp_path / "km.csv").read_text().splitlines()) == 1 + n_cells
    for schedule in (sgd, std):
        assert is_feasible(schedule, n_intervals, n_nodes)
    # each row goes to its best node
    assert sgd.total == pytest.approx(cells.max(axis=1).sum(), rel=1e-12)
    assert std.total <= sgd.total + 1e-9
