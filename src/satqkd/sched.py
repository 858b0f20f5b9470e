"""Single-satellite downlink scheduling over the per-interval key matrix.

An assignment gives every 10-second interval one activity: a node index,
IDLE, or SWITCH.  A handoff needs a switch: interval m+1 may be assigned to
node n only when interval m is the same node or a SWITCH (the first interval
of the horizon is unconstrained).

Solvers:
  * solve_exact  - dynamic program over (interval, last activity); provably
    optimal for any linear objective sum_n w_n * E_n.  It steps through the
    rows with a nonzero gain plus at most two rows of each all-zero run.
  * solve_ga     - generational genetic algorithm on the activity string with
    one-point crossover, per-gene mutation and switch-insertion repair.
    Strategies: S-GD maximises total keys, S-PD a weighted total, S-TD uses
    the S-GD fitness but prefers, within a fitness tolerance band, schedules
    whose delivered distribution has lower KL divergence from target weights.

Determinism: every solver is deterministic given its inputs (and the GA
seed).  Value ties in solve_exact prefer IDLE, then lower node index, then
SWITCH.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

IDLE = -1
SWITCH = -2

_ACTIVITY_LABELS = {IDLE: "IDLE", SWITCH: "SWITCH"}


@dataclass(frozen=True)
class Schedule:
    """An activity per interval plus the per-node key totals it delivers."""
    assignment: tuple[int, ...]
    node_totals: tuple[float, ...]
    objective: float

    @property
    def total(self) -> float:
        return float(sum(self.node_totals))


@dataclass(frozen=True)
class GaConfig:
    population: int = 200
    generations: int = 500
    crossover_rate: float = 0.8
    mutation_rate: float = 0.02
    elitism: int = 2
    seed: int = 0
    restart_after: int = 60  # re-randomize non-elites after this many stalled generations

    def __post_init__(self):
        if self.population < 2:
            raise ValueError("population must be at least 2")
        if self.generations < 1:
            raise ValueError("generations must be positive")
        for name in ("crossover_rate", "mutation_rate"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValueError(f"{name} must be in [0, 1]")
        if not 0 <= self.elitism < self.population:
            raise ValueError("elitism must be in [0, population)")
        if self.restart_after < 1:
            raise ValueError("restart_after must be positive")


STRATEGY_KINDS = ("S-GD", "S-PD", "S-TD")


@dataclass(frozen=True)
class StrategyConfig:
    kind: str = "S-GD"
    weights: tuple[float, ...] | None = None
    ga: GaConfig = field(default_factory=GaConfig)
    kl_tolerance: float = 0.05

    def __post_init__(self):
        if self.kind not in STRATEGY_KINDS:
            raise ValueError(f"strategy kind must be one of {STRATEGY_KINDS}, "
                             f"got {self.kind!r}")
        if self.weights is not None:
            if any(w < 0 or not math.isfinite(w) for w in self.weights):
                raise ValueError("weights must be finite and >= 0")
            if self.kind in ("S-PD", "S-TD") and sum(self.weights) <= 0:
                raise ValueError(f"{self.kind} needs at least one positive weight")
        if self.kl_tolerance < 0:
            raise ValueError("kl_tolerance must be >= 0")

    def normalized_weights(self, n_nodes: int) -> tuple[float, ...]:
        w = self.weights if self.weights is not None else (1.0,) * n_nodes
        if len(w) != n_nodes:
            raise ValueError(f"{len(w)} weights for {n_nodes} nodes")
        total = sum(w)
        if total <= 0:
            raise ValueError("cannot normalize all-zero weights")
        return tuple(v / total for v in w)


@dataclass(frozen=True)
class Distribution:
    """Per-node probability vector (delivered share or normalized weights)."""
    probabilities: tuple[float, ...]

    def __post_init__(self):
        p = self.probabilities
        if any(v < 0 for v in p):
            raise ValueError("probabilities must be >= 0")
        if abs(sum(p) - 1.0) > 1e-12:
            raise ValueError(f"probabilities must sum to 1, got {sum(p)!r}")


def kl_divergence(p: Distribution, q: Distribution) -> float:
    """sum p*ln(p/q) in nats; 0*ln(0/q)=0, and p>0 where q=0 gives +inf."""
    if len(p.probabilities) != len(q.probabilities):
        raise ValueError("distributions must have the same length")
    total = 0.0
    for pi, qi in zip(p.probabilities, q.probabilities):
        if pi == 0.0:
            continue
        if qi == 0.0:
            return math.inf
        total += pi * math.log(pi / qi)
    return total


def _values_of(matrix) -> np.ndarray:
    values = getattr(matrix, "values", matrix)
    return np.asarray(values, dtype=float)


def is_feasible(schedule: Schedule | Sequence[int], n_intervals: int,
                n_nodes: int) -> bool:
    """True iff the assignment respects activity codes and switch constraints."""
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


def evaluate(schedule: Schedule | Sequence[int], matrix) -> np.ndarray:
    """Per-node delivered totals E_n = sum_m K[m][n] [assignment m == n]."""
    assignment = schedule.assignment if isinstance(schedule, Schedule) else schedule
    values = _values_of(matrix)
    if len(assignment) != values.shape[0]:
        raise ValueError(f"assignment length {len(assignment)} does not match "
                         f"{values.shape[0]} intervals")
    arr = np.asarray(assignment)
    totals = np.zeros(values.shape[1])
    for n in range(values.shape[1]):
        totals[n] = values[arr == n, n].sum()
    return totals


def delivered_distribution(schedule: Schedule | Sequence[int], matrix) -> Distribution:
    """Share of delivered keys per node; undefined (error) for zero delivery."""
    totals = evaluate(schedule, matrix)
    total = totals.sum()
    if total <= 0:
        raise ValueError("delivered distribution undefined: no keys delivered")
    return Distribution(tuple(float(v / total) for v in totals))


def _finish(assignment: np.ndarray, matrix, objective: float) -> Schedule:
    totals = evaluate(assignment, matrix)
    return Schedule(assignment=tuple(int(a) for a in assignment),
                    node_totals=tuple(float(v) for v in totals),
                    objective=float(objective))


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


# ---------------------------------------------------------------------------
# Exact dynamic program
# ---------------------------------------------------------------------------

def solve_exact(matrix, weights: Sequence[float] | None = None) -> Schedule:
    """Optimal schedule for the linear objective sum_n w_n * E_n.

    Dynamic program over states (interval, last activity); last activity is
    IDLE, SWITCH or a node.  Ties prefer IDLE, then the lowest node index,
    then SWITCH; a node state keeps its node parent on parent ties (fewest
    switches).

    After two rows of all-zero gains every state holds the best value, so
    each further row of the run has the same transitions (node parent kept,
    IDLE otherwise) and is left out: the DP steps O(N) per row with a
    nonzero gain plus at most two rows per zero run.  A left-out row takes
    the activity of the row before it, which is what the full walk assigns.
    """
    values = _values_of(matrix)
    n_intervals, n_nodes = values.shape
    if n_intervals == 0:
        return Schedule(assignment=(), node_totals=(0.0,) * n_nodes, objective=0.0)
    if n_nodes == 0:
        return Schedule(assignment=(IDLE,) * n_intervals, node_totals=(),
                        objective=0.0)
    w = np.ones(n_nodes) if weights is None else np.asarray(weights, dtype=float)
    if w.shape != (n_nodes,):
        raise ValueError(f"expected {n_nodes} weights, got {w.shape}")
    if np.any(w < 0):
        raise ValueError("weights must be >= 0")
    rows, _ = _active_blocks(((values != 0) & (w != 0)).any(axis=1), run_head=2)
    gains = values[rows] * w  # (R, N)
    n_rows = len(rows)

    # state ids in preference order for argmax ties: IDLE, node 0..N-1, SWITCH
    idle_id, switch_id = 0, n_nodes + 1

    f_nodes = gains[0].copy()
    f_idle = 0.0
    f_switch = 0.0
    same_parent = np.zeros((n_rows, n_nodes), dtype=bool)
    other_parent = np.zeros(n_rows, dtype=np.int32)

    for k in range(1, n_rows):
        ordered = np.concatenate(([f_idle], f_nodes, [f_switch]))
        best_id = int(np.argmax(ordered))
        best_val = float(ordered[best_id])
        same_parent[k] = f_nodes >= f_switch
        f_nodes = gains[k] + np.maximum(f_nodes, f_switch)
        other_parent[k] = best_id
        f_idle = best_val
        f_switch = best_val

    ordered = np.concatenate(([f_idle], f_nodes, [f_switch]))
    state = int(np.argmax(ordered))
    objective = float(ordered[state])

    visited = np.empty(n_rows, dtype=np.int64)
    for k in range(n_rows - 1, -1, -1):
        if state == idle_id:
            visited[k] = IDLE
            nxt = other_parent[k]
        elif state == switch_id:
            visited[k] = SWITCH
            nxt = other_parent[k]
        else:
            node = state - 1
            visited[k] = node
            nxt = state if same_parent[k, node] else switch_id
        state = int(nxt)
    owner = np.searchsorted(rows, np.arange(n_intervals), side="right") - 1
    return _finish(visited[owner], values, objective)


# ---------------------------------------------------------------------------
# Genetic algorithm
# ---------------------------------------------------------------------------

def _expand(genes: np.ndarray, active: np.ndarray, starts: np.ndarray,
            n_intervals: int, n_nodes: int) -> np.ndarray:
    """Decode a compressed chromosome into a feasible full assignment."""
    full = np.full(n_intervals, IDLE, dtype=np.int64)
    decoded = np.where(genes == n_nodes, IDLE,
                       np.where(genes == n_nodes + 1, SWITCH, genes))
    full[active] = decoded
    for k in np.flatnonzero(starts):
        pos = int(active[k])
        if decoded[k] >= 0 and pos > 0:
            full[pos - 1] = SWITCH
    return full


def _node_cells(k: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per node (column of k), the rows of its nonzero cells and their values."""
    node, row = np.nonzero(k.T)  # sorted by node, then by row
    bounds = np.searchsorted(node, np.arange(k.shape[1] + 1))
    return [(row[a:b], k[row[a:b], n])
            for n, (a, b) in enumerate(zip(bounds[:-1], bounds[1:]))]


def _node_totals(group: np.ndarray, cells) -> np.ndarray:
    """(P, N) per-node totals of P gene strings, from the nodes' nonzero cells.

    Costs P x nnz_n per node rather than P x A; equal to the masked product
    sum((group == n) * k[:, n]) up to summation order.
    """
    totals = np.zeros((len(group), len(cells)))
    for n, (rows, vals) in enumerate(cells):
        totals[:, n] = ((group[:, rows] == n) * vals).sum(axis=1)
    return totals


def solve_ga(matrix, cfg: StrategyConfig,
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

    cells = _node_cells(k_active)

    def kl_of(group: np.ndarray) -> np.ndarray:
        totals = _node_totals(group, cells)
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
# Export helpers
# ---------------------------------------------------------------------------

def activity_label(act: int, node_names: Sequence[str]) -> str:
    return _ACTIVITY_LABELS.get(act, None) or node_names[act]


def write_schedule_csv(schedule: Schedule, matrix, path) -> None:
    """Full interval listing: interval_index,start_utc,activity."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("interval_index,start_utc,activity\n")
        for m, (label, act) in enumerate(zip(matrix.interval_labels,
                                             schedule.assignment, strict=True)):
            fh.write(f"{m},{label},{activity_label(act, matrix.node_names)}\n")


def schedule_summary(schedule: Schedule, matrix, strategy: StrategyConfig,
                     seed: int) -> dict:
    """JSON-ready summary: totals, KL against the strategy weights, config."""
    totals = {name: schedule.node_totals[n]
              for n, name in enumerate(matrix.node_names)}
    try:
        delivered = delivered_distribution(schedule, matrix)
        target = Distribution(strategy.normalized_weights(matrix.n_nodes))
        kl = kl_divergence(delivered, target)
        kl_out = "Inf" if math.isinf(kl) else kl
    except ValueError:
        kl_out = None
    ga = strategy.ga
    return {
        "strategy": strategy.kind,
        "seed": seed,
        "node_totals_bits": totals,
        "total_bits": schedule.total,
        "objective": schedule.objective,
        "kl_divergence_vs_weights": kl_out,
        "ga": {"population": ga.population, "generations": ga.generations,
               "crossover_rate": ga.crossover_rate,
               "mutation_rate": ga.mutation_rate, "elitism": ga.elitism},
        "kl_tolerance": strategy.kl_tolerance,
    }


def dump_summary(summary: dict, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
