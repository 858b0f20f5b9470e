"""The genetic algorithm against the code it replaced.

`oracle_solve_ga` below is `solve_ga` as it was before the generation loop
was rewritten for speed (KL for in-band rows only, branch-free repair,
crossover and mutation by integer arithmetic, fitness gathered from one
node-major table).  The RNG draws and every tie rule were meant to stay, so
the new solver must return the same assignment and the same objective, to
the bit, on every case of a derandomized grid of strategies, tolerances,
population shapes, tiny active sets, restarts, infeasible warm starts, a
gene index too large for int16 and 200 nodes of which 5 hold cells.
S-TD stops once its pick has stood for a whole restart period, which the
grid's shortest periods reach: there the solver must return what the oracle
returns run for as many generations as the solver reports it ran.  The
archive's incremental pick is checked against a full rescan after every
entry on random warm-started matrices.
The oracle carries its own copies of the dense-matrix helpers it called, so
it does not move with the solver it checks.  `evaluate` is held bit for bit to the
per-node mask sums it replaced, and malformed warm starts must raise a
ValueError naming the seed.
"""
from __future__ import annotations

import math
from dataclasses import replace
from typing import Sequence

import numpy as np
import pytest

from conftest import dense, key_matrix
from satqkd import sched
from satqkd.qkd import KeyMatrix
from satqkd.sched import (
    IDLE,
    SWITCH,
    GaConfig,
    Schedule,
    StrategyConfig,
    evaluate,
    is_feasible,
    solve_exact,
    solve_ga,
)


# ---------------------------------------------------------------------------
# oracle: solve_ga before the generation loop was rewritten, kept verbatim,
# with the dense-matrix helpers it called then (only `evaluate` drops its
# activity-code check: the oracle's assignments are its own)
# ---------------------------------------------------------------------------

def _values_of(matrix) -> np.ndarray:
    if isinstance(matrix, KeyMatrix):
        return dense(matrix)
    return np.asarray(matrix, dtype=float)


def oracle_evaluate(schedule: Schedule | Sequence[int], matrix) -> np.ndarray:
    """Per-node delivered totals E_n = sum_m K[m][n] [assignment m == n]."""
    values = _values_of(matrix)
    arr = np.asarray(getattr(schedule, "assignment", schedule))
    if len(arr) != values.shape[0]:
        raise ValueError(f"assignment length {len(arr)} does not match {len(values)} intervals")
    # one stable sort groups each node's rows, still in row order, so every
    # node sums the same values in the same order as a mask would give
    order = np.argsort(arr, kind="stable")
    bounds = np.searchsorted(arr[order], np.arange(values.shape[1] + 1))
    totals = np.zeros(values.shape[1])
    for n in range(values.shape[1]):
        totals[n] = values[order[bounds[n]:bounds[n + 1]], n].sum()
    return totals


def _finish(assignment: np.ndarray, matrix, objective: float) -> Schedule:
    return Schedule(assignment, tuple(oracle_evaluate(assignment, matrix).tolist()),
                    float(objective))


def _active_blocks(active: np.ndarray,
                   run_head: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Rows worth visiting, plus block-start flags.

    The rows are those flagged `active` plus the first `run_head` rows of
    every run of inactive rows (the leading run included); a block starts at
    the first row and after every left-out row.  Intervals where every
    node's key yield is zero never need a node in an optimal assignment (a
    SWITCH placed in the gap preserves feasibility), so the GA searches only
    the active intervals; the switch constraint does not couple across a
    gap.  The exact DP keeps two rows of each gap (see solve_exact).
    """
    keep = active.copy()
    for lag in range(1, run_head + 1):
        keep[lag:] |= active[:-lag]
    keep[:run_head] = True
    rows = np.flatnonzero(keep)
    starts = np.empty(len(rows), dtype=bool)
    starts[:1] = True
    starts[1:] = np.diff(rows) > 1
    return rows, starts


def _expand(genes: np.ndarray, active: np.ndarray, starts: np.ndarray,
            n_intervals: int, n_nodes: int) -> np.ndarray:
    """Decode a compressed chromosome into a feasible full assignment."""
    full = np.full(n_intervals, IDLE, dtype=np.int64)
    decoded = np.where(genes >= n_nodes, n_nodes - 1 - genes, genes)  # as _seed_genes
    full[active] = decoded
    # a block that opens on a node is entered through a SWITCH, if it can be
    heads = active[starts & (decoded >= 0)]
    full[heads[heads > 0] - 1] = SWITCH
    return full


def oracle_node_cells(k: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per node (column of k), the rows of its nonzero cells and their values."""
    node, row = np.nonzero(k.T)  # sorted by node, then by row
    bounds = np.searchsorted(node, np.arange(k.shape[1] + 1))
    return [(row[a:b], k[row[a:b], n])
            for n, (a, b) in enumerate(zip(bounds[:-1], bounds[1:]))]


def oracle_node_totals(group: np.ndarray, cells) -> np.ndarray:
    """(P, N) per-node totals of P gene strings, from the nodes' nonzero cells.

    Costs P x nnz_n per node rather than P x A; equal to the masked product
    sum((group == n) * k[:, n]) up to summation order.
    """
    totals = np.zeros((len(group), len(cells)))
    for n, (rows, vals) in enumerate(cells):
        totals[:, n] = ((group[:, rows] == n) * vals).sum(axis=1)
    return totals


def oracle_solve_ga(matrix, cfg: StrategyConfig,
             seed_schedules: Sequence[Schedule | Sequence[int]] = ()) -> Schedule:
    """Best feasible schedule found by the strategy's genetic algorithm.

    The chromosome is the activity string over the active intervals; offspring
    are made feasible by replacing the gene before each conflicting handoff
    with SWITCH.  `seed_schedules` warm-start part of the initial population
    (the default is an all-random start).  Deterministic given cfg.ga.seed.

    S-PD fitness uses the weights normalized to mean 1, so all-equal weights
    reproduce the S-GD objective exactly (solve_exact, by contrast, applies
    raw weights).
    """
    values = _values_of(matrix)
    n_intervals, n_nodes = values.shape
    ga = cfg.ga
    active, starts = _active_blocks((values > 0).any(axis=1))
    n_active = len(active)
    if n_active == 0 or n_nodes == 0:
        assignment = np.full(n_intervals, IDLE, dtype=np.int64)
        return _finish(assignment, values, 0.0)

    idle_code, switch_code = n_nodes, n_nodes + 1
    k_active = values[active]  # (A, N)
    if cfg.kind == "S-PD":
        fit_w = np.asarray(cfg.normalized_weights(n_nodes)) * n_nodes
    else:
        fit_w = np.ones(n_nodes)
    k_fit = np.hstack([k_active * fit_w, np.zeros((n_active, 2))])
    target = (np.asarray(cfg.normalized_weights(n_nodes))
              if cfg.kind == "S-TD" else None)

    rng = np.random.default_rng(ga.seed)
    pop = rng.integers(0, n_nodes + 2, size=(ga.population, n_active),
                       dtype=np.int16)
    for row, seed in enumerate(seed_schedules):
        if row >= ga.population:
            break
        assignment = np.asarray(
            seed.assignment if isinstance(seed, Schedule) else seed)
        genes = assignment[active].astype(np.int16)
        genes[genes == IDLE] = idle_code
        genes[genes == SWITCH] = switch_code
        pop[row] = genes

    not_start = ~starts[1:]

    def repair(group: np.ndarray) -> None:
        if n_active < 2:
            return
        viol = ((group[:, 1:] < n_nodes)
                & (group[:, :-1] != group[:, 1:])
                & (group[:, :-1] != switch_code)
                & not_start[None, :])
        group[:, :-1][viol] = switch_code

    gene_cols = np.arange(n_active)[None, :]

    def fitness_of(group: np.ndarray) -> np.ndarray:
        return k_fit[gene_cols, group].sum(axis=1)

    cells = oracle_node_cells(k_active)

    def kl_of(group: np.ndarray) -> np.ndarray:
        totals = oracle_node_totals(group, cells)
        sums = totals.sum(axis=1)
        out = np.full(len(group), np.inf)
        ok = sums > 0
        if ok.any():
            p = totals[ok] / sums[ok, None]
            with np.errstate(divide="ignore", invalid="ignore"):
                terms = np.where(p > 0,
                                 p * np.log(np.where(p > 0, p, 1.0)
                                            / np.where(target > 0, target, 1.0)),
                                 0.0)
                blocked = (p > 0) & (target <= 0)[None, :]
            vals = terms.sum(axis=1)
            vals[blocked.any(axis=1)] = np.inf
            out[ok] = vals
        return out

    repair(pop)

    # archive of per-generation champions: (fitness, kl, genes)
    archive: list[tuple[float, float, np.ndarray]] = []

    def record(fit: np.ndarray, kl: np.ndarray | None) -> None:
        i = int(np.argmax(fit))
        archive.append((float(fit[i]),
                        float(kl[i]) if kl is not None else math.inf,
                        pop[i].copy()))
        if kl is not None:
            band = fit >= (1.0 - cfg.kl_tolerance) * fit[i]
            idx = np.flatnonzero(band)
            order = np.lexsort((-fit[idx], kl[idx]))
            j = int(idx[order[0]])
            archive.append((float(fit[j]), float(kl[j]), pop[j].copy()))

    def elite_rows(fit: np.ndarray, kl: np.ndarray | None) -> np.ndarray:
        if kl is None:
            return np.argsort(-fit, kind="stable")[:ga.elitism]
        band = fit >= (1.0 - cfg.kl_tolerance) * fit.max()
        order = np.lexsort((-fit, np.where(band, kl, np.inf),
                            (~band).astype(np.int8)))
        return order[:ga.elitism]

    champion = -math.inf
    stalled = 0
    for _ in range(ga.generations):
        fit = fitness_of(pop)
        kl = kl_of(pop) if cfg.kind == "S-TD" else None
        record(fit, kl)
        elites = pop[elite_rows(fit, kl)].copy()

        gen_best = float(fit.max())
        if gen_best > champion + 1e-12 * max(1.0, abs(champion)):
            champion = gen_best
            stalled = 0
        else:
            stalled += 1
        if stalled >= ga.restart_after:
            # cataclysmic restart: keep the elites, refresh everyone else
            pop = rng.integers(0, n_nodes + 2,
                               size=(ga.population, n_active), dtype=np.int16)
            repair(pop)
            if ga.elitism:
                pop[:ga.elitism] = elites
            stalled = 0
            continue

        # tournament selection, size 3
        cand = rng.integers(0, ga.population, size=(ga.population, 3))
        if kl is None:
            winner = cand[np.arange(ga.population),
                          np.argmax(fit[cand], axis=1)]
        else:
            band = fit >= (1.0 - cfg.kl_tolerance) * fit.max()

            def beats(i: np.ndarray, j: np.ndarray) -> np.ndarray:
                both = band[i] & band[j]
                by_kl = np.where(kl[i] != kl[j], kl[i] < kl[j], fit[i] >= fit[j])
                by_fit = np.where(fit[i] != fit[j], fit[i] > fit[j], i <= j)
                return np.where(np.where(both, by_kl, by_fit), i, j)

            winner = beats(beats(cand[:, 0], cand[:, 1]), cand[:, 2])
        parents = pop[winner]

        half = ga.population // 2
        p1, p2 = parents[0:2 * half:2], parents[1:2 * half:2]
        children = parents.copy()
        if n_active >= 2 and half:
            do_cx = rng.random(half) < ga.crossover_rate
            cuts = rng.integers(1, n_active, size=half)
            left = gene_cols < cuts[:, None]
            c1 = np.where(left, p1, p2)
            c2 = np.where(left, p2, p1)
            keep = ~do_cx[:, None]
            children[0:2 * half:2] = np.where(keep, p1, c1)
            children[1:2 * half:2] = np.where(keep, p2, c2)

        mut = rng.random(children.shape) < ga.mutation_rate
        fresh = rng.integers(0, n_nodes + 2, size=children.shape, dtype=np.int16)
        children = np.where(mut, fresh, children).astype(np.int16)
        repair(children)
        if ga.elitism:
            children[:ga.elitism] = elites
        pop = children

    fit = fitness_of(pop)
    kl = kl_of(pop) if cfg.kind == "S-TD" else None
    record(fit, kl)

    fits = np.array([entry[0] for entry in archive])
    if cfg.kind == "S-TD":
        best_fit = fits.max()
        kls = np.array([entry[1] for entry in archive])
        eligible = np.flatnonzero(fits >= (1.0 - cfg.kl_tolerance) * best_fit)
        order = np.lexsort((eligible, -fits[eligible], kls[eligible]))
        chosen = archive[int(eligible[order[0]])]
    else:
        chosen = archive[int(np.argmax(fits))]

    assignment = _expand(chosen[2], active, starts, n_intervals, n_nodes)
    return _finish(assignment, values, chosen[0])


# ---------------------------------------------------------------------------
# the derandomized grid
# ---------------------------------------------------------------------------

def sparse_matrix(seed: int, m: int, n: int, row_p: float = 0.4,
                  cell_p: float = 0.3, dead_node: bool = False,
                  integer: bool = False) -> np.ndarray:
    """Seeded (m, n) key matrix with all-zero rows and zero cells.

    `integer` draws yields 0..3, so fitness and KL ties are common;
    `dead_node` leaves the last node without a single nonzero cell.
    """
    rng = np.random.default_rng(seed)
    values = (rng.integers(0, 4, size=(m, n)).astype(float) if integer
              else rng.uniform(0.0, 50.0, size=(m, n)))
    values[rng.random(m) < row_p] = 0.0
    values[rng.random(values.shape) < cell_p] = 0.0
    if dead_node:
        values[:, -1] = 0.0
    return values


def few_live_nodes(seed: int, m: int, n: int, live: Sequence[int]) -> np.ndarray:
    """sparse_matrix(seed, m, len(live)) in the columns `live` of n nodes;
    every other node has no cell."""
    values = np.zeros((m, n))
    values[:, list(live)] = sparse_matrix(seed, m, len(live))
    return values


def one_row(m: int, n: int, *rows: int) -> np.ndarray:
    """Only the given rows carry keys, so the GA has len(rows) active genes."""
    values = np.zeros((m, n))
    for k, row in enumerate(rows):
        values[row] = np.arange(1.0, n + 1.0) * (k + 1.5)
    return values


def warm_starts(values: np.ndarray, count: int, seed: int) -> list:
    """The exact S-GD optimum plus random, mostly infeasible, code strings."""
    rng = np.random.default_rng(seed)
    m, n = values.shape
    return [solve_exact(key_matrix(values))] + [rng.integers(SWITCH, n, size=m)
                                                for _ in range(count)]


ALL_KINDS = ("S-GD", "S-PD", "S-TD")

# name -> (values, kinds, weights, kl_tolerance, GaConfig fields, seeds?)
GRID = {
    "sgd": (sparse_matrix(1, 60, 4), ("S-GD",), None, 0.05, {}, 0),
    "spd": (sparse_matrix(2, 60, 4), ("S-PD",), (0.1, 0.2, 0.3, 0.4), 0.05, {}, 0),
    "std": (sparse_matrix(3, 80, 5), ("S-TD",), (0.3, 0.25, 0.2, 0.15, 0.1),
            0.05, {}, 0),
    "std-tol0": (sparse_matrix(4, 80, 5), ("S-TD",), (0.1, 0.1, 0.2, 0.3, 0.3),
                 0.0, {}, 0),
    "std-tol1": (sparse_matrix(5, 80, 5), ("S-TD",), (0.1, 0.1, 0.2, 0.3, 0.3),
                 1.0, {}, 0),
    "std-zero-target-dead-node": (sparse_matrix(6, 70, 4, dead_node=True),
                                  ("S-TD",), (0.0, 0.5, 0.3, 0.2), 0.1, {}, 0),
    "ties": (sparse_matrix(7, 50, 3, integer=True), ALL_KINDS, (1.0, 1.0, 2.0),
             0.05, {}, 0),
    "odd-population": (sparse_matrix(8, 40, 3), ALL_KINDS, (0.5, 0.3, 0.2),
                       0.05, {"population": 7}, 0),
    "population-2": (sparse_matrix(9, 30, 3), ALL_KINDS, (0.5, 0.3, 0.2),
                     0.05, {"population": 2, "elitism": 1}, 0),
    "population-2-elitism-0": (sparse_matrix(10, 30, 3), ALL_KINDS,
                               (0.5, 0.3, 0.2), 0.05,
                               {"population": 2, "elitism": 0}, 0),
    "elitism-0": (sparse_matrix(11, 50, 4), ALL_KINDS, (0.4, 0.3, 0.2, 0.1),
                  0.05, {"population": 12, "elitism": 0}, 0),
    "active-1": (one_row(9, 3, 4), ALL_KINDS, (0.2, 0.3, 0.5), 0.05, {}, 0),
    "active-1-first-row": (one_row(5, 2, 0), ALL_KINDS, (0.6, 0.4), 0.05, {}, 0),
    "active-2-adjacent": (one_row(8, 3, 3, 4), ALL_KINDS, (0.2, 0.3, 0.5),
                          0.05, {}, 0),
    "active-2-apart": (one_row(8, 3, 1, 6), ALL_KINDS, (0.2, 0.3, 0.5),
                       0.05, {}, 0),
    # the cataclysmic restart comes every restart_after generations: every
    # generation with restart_after 1, every second one with 2
    "restarts": (sparse_matrix(12, 12, 2), ALL_KINDS, (0.7, 0.3), 0.05,
                 {"restart_after": 1, "generations": 50}, 0),
    "restarts-2": (sparse_matrix(13, 40, 3), ALL_KINDS, (0.5, 0.3, 0.2), 0.2,
                   {"restart_after": 2, "generations": 60, "elitism": 3}, 0),
    "infeasible-seeds": (sparse_matrix(14, 60, 4), ALL_KINDS,
                         (0.4, 0.3, 0.2, 0.1), 0.05, {"population": 10}, 5),
    "more-seeds-than-population": (sparse_matrix(15, 30, 3), ALL_KINDS,
                                   (0.5, 0.3, 0.2), 0.05,
                                   {"population": 3, "elitism": 1}, 6),
    # 100 x 500 genes per generation, restarting every third generation
    # from an S-GD warm start
    "restarts-wide": (sparse_matrix(18, 500, 4, row_p=0.0, cell_p=0.3),
                      ALL_KINDS, (0.4, 0.3, 0.2, 0.1), 0.05,
                      {"population": 100, "generations": 12,
                       "restart_after": 3}, 1),
    # (n_nodes + 1) * n_active = 36,000 > 32,767: a gene index computed in
    # int16 would overflow; 10 rows of 9,000 genes also span two gathers
    "int16-overflow": (sparse_matrix(16, 9000, 3, row_p=0.0, cell_p=0.2),
                       ALL_KINDS, (0.5, 0.3, 0.2), 0.05,
                       {"population": 10, "generations": 3}, 1),
    # the KL totals loop only over the 5 of 200 nodes with a cell
    "many-dead-nodes": (few_live_nodes(19, 60, 200, (3, 47, 100, 151, 199)),
                        ALL_KINDS, tuple(1.0 + n % 3 for n in range(200)), 0.05, {}, 0),
}


# the cases whose restart period (1 to 3 generations) is short enough for
# S-TD's pick to stand through one before the generation cap
STOPPING = {"restarts", "restarts-2", "restarts-wide"}


def oracle_run(values, cfg: StrategyConfig, seeds, generations: int) -> Schedule:
    """The oracle run for the given number of generations."""
    return oracle_solve_ga(values, replace(cfg, ga=replace(cfg.ga, generations=generations)),
                           seed_schedules=seeds)


@pytest.mark.parametrize("name", sorted(GRID))
def test_ga_matches_frozen_oracle(name):
    values, kinds, weights, tolerance, fields, n_seeds = GRID[name]
    n_intervals, n_nodes = values.shape
    base = {"population": 20, "generations": 40} | fields
    for kind in kinds:
        for ga_seed in (0, 1):
            cfg = StrategyConfig(kind=kind, weights=weights,
                                 kl_tolerance=tolerance,
                                 ga=GaConfig(seed=ga_seed, **base))
            seeds = warm_starts(values, n_seeds, ga_seed) if n_seeds else ()
            stops = kind == "S-TD" and name in STOPPING
            got = solve_ga(key_matrix(values), cfg, seed_schedules=seeds)
            where = (name, kind, ga_seed, got.generations)
            # S-TD stops early only here; everything else runs in full
            assert (got.generations < cfg.ga.generations) == stops, where
            # the oracle run for as many generations as solve_ga ran
            want = oracle_run(values, cfg, seeds, got.generations)
            assert np.array_equal(got.assignment, want.assignment), where
            assert got.objective.hex() == want.objective.hex(), where
            assert got.node_totals == want.node_totals, where
            assert is_feasible(got, n_intervals, n_nodes), where


def test_grid_covers_its_edge_cases():
    def n_active(values):
        return int((values > 0).any(axis=1).sum())

    assert n_active(GRID["active-1"][0]) == 1
    assert n_active(GRID["active-2-adjacent"][0]) == 2
    assert n_active(GRID["active-2-apart"][0]) == 2
    values = GRID["int16-overflow"][0]
    assert (values.shape[1] + 1) * n_active(values) > np.iinfo(np.int16).max
    infeasible = warm_starts(GRID["infeasible-seeds"][0], 5, 0)[1:]
    assert not any(is_feasible(s, 60, 4) for s in infeasible)
    fields = GRID["restarts-wide"][4]
    assert fields["generations"] > 3 * fields["restart_after"]
    values = GRID["many-dead-nodes"][0]
    assert values.shape[1] == 200 and values.any(axis=0).sum() == 5


# ---------------------------------------------------------------------------
# S-TD's stop: once its pick has stood for a whole restart period
# ---------------------------------------------------------------------------

def final_pick(fits: np.ndarray, kls: np.ndarray, tolerance: float) -> int:
    """The archive entry the final rule takes, ranked from scratch."""
    eligible = np.flatnonzero(fits >= (1.0 - tolerance) * fits.max())
    return int(eligible[np.lexsort((eligible, -fits[eligible], kls[eligible]))[0]])


def test_archive_keeps_every_entry_as_its_columns_grow():
    # 300 entries with tied fitnesses and KLs, several doublings past the
    # first columns; the pick is checked against a rescan after each
    rng = np.random.default_rng(64)
    fits = rng.integers(0, 40, 300).astype(float)
    kls = rng.choice([0.1, 0.2, math.inf], 300)
    archive = sched._Archive(0.05)
    for i, (fit, kl) in enumerate(zip(fits, kls)):
        archive.add(fit, kl, np.full(3, i, dtype=np.int16), i // 2)
        assert archive.pick == final_pick(fits[:i + 1], kls[:i + 1], 0.05), i
    assert archive.fits[:300].tolist() == fits.tolist()
    assert archive.kls[:300].tolist() == kls.tolist()
    assert archive.born[:300].tolist() == [i // 2 for i in range(300)]
    assert [int(genes[0]) for genes in archive.genes] == list(range(300))


@pytest.fixture
def archives(monkeypatch) -> list:
    """Every archive solve_ga makes.  Each checks, after every entry, the pick
    it keeps against a full rescan, and maps each generation to the
    generation that recorded the pick after it (`picked_at`)."""
    made = []

    class Checked(sched._Archive):
        def __init__(self, *args):
            super().__init__(*args)
            self.picked_at = {}
            made.append(self)

        def add(self, fit, kl, genes, gen):
            super().add(fit, kl, genes, gen)
            n = len(self.genes)
            assert self.pick == final_pick(self.fits[:n], self.kls[:n], self.tolerance)
            self.picked_at[gen] = int(self.born[self.pick])

    monkeypatch.setattr(sched, "_Archive", Checked)
    return made


def same_schedule(a: Schedule, b: Schedule) -> bool:
    return (np.array_equal(a.assignment, b.assignment)
            and a.objective.hex() == b.objective.hex() and a.node_totals == b.node_totals)


def test_stopped_std_is_the_oracle_run_to_its_stop(archives):
    # seeded random sparse matrices, targets and GA shapes, each warm-started
    # from the exact S-GD optimum as the schedule subcommand does; every
    # draw is kept, whether or not the stopped result differs from the full run
    rng = np.random.default_rng(2_022)
    trials, stopped, differing = 60, 0, 0
    for trial in range(trials):
        m, n = int(rng.integers(20, 120)), int(rng.integers(2, 7))
        values = sparse_matrix(int(rng.integers(2**31)), m, n,
                               row_p=float(rng.uniform(0.0, 0.6)),
                               cell_p=float(rng.uniform(0.0, 0.6)))
        assert values.any(), trial
        ga = GaConfig(population=int(rng.integers(4, 30)),
                      generations=int(rng.integers(1, 40)),
                      restart_after=int(rng.integers(1, 8)), seed=trial)
        cfg = StrategyConfig(kind="S-TD", weights=tuple(rng.dirichlet(np.ones(n))),
                             kl_tolerance=float(rng.choice([0.0, 0.02, 0.05, 0.2])), ga=ga)
        matrix = key_matrix(values)
        seeds = [solve_exact(matrix)]
        archives.clear()
        got = solve_ga(matrix, cfg, seeds)
        (archive,) = archives
        at = archive.picked_at
        # the first generation whose pick was recorded a whole restart
        # period before it, or the cap
        ends = [g for g in sorted(at) if at[g] <= g - ga.restart_after]
        assert got.generations == (ends[0] if ends else ga.generations), trial
        assert max(at) == got.generations, trial
        assert same_schedule(got, oracle_run(values, cfg, seeds, got.generations)), trial
        if got.generations < ga.generations:
            stopped += 1
            differing += not same_schedule(got, oracle_run(values, cfg, seeds, ga.generations))
    # the rate reported with the rule: 47 of the 60 runs stopped, and 13 of
    # those returned another schedule than the full run would have
    assert (stopped, differing) == (47, 13)


def test_a_pick_that_changes_after_a_restart_keeps_the_loop_running(archives):
    values = sparse_matrix(103, 40, 3)
    ga = GaConfig(population=12, generations=40, restart_after=4, seed=3)
    cfg = StrategyConfig(kind="S-TD", weights=(0.5, 0.3, 0.2), ga=ga)
    matrix = key_matrix(values)
    seeds = [solve_exact(matrix)]
    got = solve_ga(matrix, cfg, seeds)
    at = archives[0].picked_at
    # at generations 5 and 11, both after a restart, the pick was one
    # generation short of a whole period, and a row of that generation
    # displaced it; the stop came a whole period after the final pick
    changes = [g for g in range(1, got.generations + 1)
               if g - 1 - at[g - 1] == ga.restart_after - 1 and at[g] == g]
    assert changes == [5, 11]
    assert at[got.generations] == got.generations - ga.restart_after == 14
    assert same_schedule(got, oracle_run(values, cfg, seeds, got.generations))


def test_only_std_stops_and_only_past_its_restart_period(archives):
    rng = np.random.default_rng(60)
    would_stop = 0
    for trial in range(20):
        n = int(rng.integers(2, 5))
        values = sparse_matrix(int(rng.integers(2**31)), int(rng.integers(10, 60)), n)
        matrix = key_matrix(values)
        seeds = [solve_exact(matrix)]
        period = int(rng.integers(1, 6))
        weights = tuple(rng.dirichlet(np.ones(n)))
        for kind, generations in (("S-GD", 4 * period + 3), ("S-PD", 4 * period + 3),
                                  ("S-TD", period), ("S-TD", int(rng.integers(1, period + 1)))):
            ga = GaConfig(population=10, generations=generations, restart_after=period,
                          seed=trial)
            archives.clear()
            got = solve_ga(matrix, StrategyConfig(kind=kind, weights=weights, ga=ga), seeds)
            assert got.generations == generations, (trial, kind)
            if kind != "S-TD":
                # S-TD's rule would have stopped this run
                would_stop += any(g - born >= period
                                  for g, born in archives[0].picked_at.items())
    assert would_stop >= 30


# ---------------------------------------------------------------------------
# evaluate: one stable sort against the per-node masks it replaced
# ---------------------------------------------------------------------------

def mask_evaluate(assignment, values: np.ndarray) -> np.ndarray:
    arr = np.asarray(assignment)
    totals = np.zeros(values.shape[1])
    for n in range(values.shape[1]):
        totals[n] = values[arr == n, n].sum()
    return totals


def test_evaluate_matches_mask_sums_bit_for_bit():
    rng = np.random.default_rng(3_141)
    for trial in range(80):
        m = int(rng.integers(1, 3000))
        n = int(rng.integers(1, 9))
        values = rng.uniform(0.0, 1e4, size=(m, n)) * 10.0 ** rng.integers(-3, 4)
        values[rng.random(values.shape) < 0.4] = 0.0
        # codes up to a random node, so some nodes are never assigned
        top = int(rng.integers(0, n + 1))
        assignment = rng.integers(SWITCH, top, size=m)
        got = evaluate(assignment, key_matrix(values))
        want = mask_evaluate(assignment, values)
        assert [v.hex() for v in got] == [v.hex() for v in want], trial
        assert got.shape == (n,) and not got[top:].any(), trial
    matrix = key_matrix(values)
    sched = solve_exact(matrix)
    assert evaluate(sched, matrix).tolist() == mask_evaluate(
        sched.assignment, values).tolist()
    assert evaluate(list(sched.assignment), matrix).tolist() == list(
        sched.node_totals)


# ---------------------------------------------------------------------------
# warm-start validation
# ---------------------------------------------------------------------------

SEED_MATRIX = key_matrix(sparse_matrix(17, 12, 3, row_p=0.2))


def test_warm_start_codes_are_accepted_as_ints_or_integral_floats():
    cfg = StrategyConfig(kind="S-TD", weights=(0.5, 0.3, 0.2),
                         ga=GaConfig(population=6, generations=5))
    exact = solve_exact(SEED_MATRIX)
    as_ints = solve_ga(SEED_MATRIX, cfg, [exact])
    for seed in (list(exact.assignment),
                 np.asarray(exact.assignment, dtype=np.int16),
                 np.asarray(exact.assignment, dtype=float)):
        got = solve_ga(SEED_MATRIX, cfg, [seed])
        assert np.array_equal(got.assignment, as_ints.assignment)
        assert (got.node_totals, got.objective) == (as_ints.node_totals, as_ints.objective)


@pytest.mark.parametrize("bad, message", [
    ([0] * 11, r" has shape \(11,\), expected \(12,\)"),
    ([0] * 13, r" has shape \(13,\), expected \(12,\)"),
    ([[0] * 12], r" has shape \(1, 12\)"),
    ([0] * 11 + [-3], r"\[11\] = -3 is not IDLE"),
    ([0] * 5 + [3] + [0] * 6, r"\[5\] = 3 is not IDLE"),
    ([7] + [0] * 11, r"\[0\] = 7 is not IDLE"),
    ([0.0] * 4 + [0.5] + [0.0] * 7, r"\[4\] = 0.5 is not an integer"),
    ([0.0] * 4 + [math.nan] + [0.0] * 7, r"\[4\] = nan is not an integer"),
    ([0.0] * 11 + [math.inf], r"\[11\] = inf is not IDLE"),
    ([True] * 12, r" holds bool values"),
    (["0"] * 12, r" holds <U1 values"),
])
def test_malformed_warm_start_raises_naming_the_seed(bad, message):
    cfg = StrategyConfig(kind="S-GD", ga=GaConfig(population=4, generations=2))
    good = solve_exact(SEED_MATRIX)
    with pytest.raises(ValueError, match=r"seed_schedules\[1\]" + message):
        solve_ga(SEED_MATRIX, cfg, [good, bad])
    # seeds past the population are checked too, as is an all-zero matrix
    with pytest.raises(ValueError, match=r"seed_schedules\[4\]"):
        solve_ga(SEED_MATRIX, cfg, [good] * 4 + [bad])
    with pytest.raises(ValueError, match=r"seed_schedules\[0\]"):
        solve_ga(key_matrix(np.zeros((12, 3))), cfg, [bad])
