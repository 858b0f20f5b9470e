"""Single-satellite downlink scheduling over the per-interval key matrix.

An assignment (a read-only int64 array) gives every 10-second interval one
activity: a node index, IDLE, or SWITCH.  A handoff needs a switch: interval
m+1 may be assigned to node n only when interval m is the same node or a
SWITCH (the first interval of the horizon is unconstrained).

The key matrix is a qkd.KeyMatrix, held as its nonzero cells; anything
else raises TypeError.  No solver builds an intervals x nodes or a rows x
nodes array: their work follows the nonzero cells, and only the returned
assignment, and evaluate's stable sort of it, is as long as the horizon (the
GA's fitness table is (nodes + 2) x active rows).

Solvers:
  * solve_exact  - dynamic program over (interval, last activity); provably
    optimal for any linear objective sum_n w_n * E_n.  It steps through the
    rows with a nonzero weighted gain at the cost of their cells; each
    all-zero run between them is taken in closed form.
  * solve_ga     - generational genetic algorithm on the activity string of
    the nonzero rows, with one-point crossover, per-gene mutation,
    switch-insertion repair and a restart of all but the elites every
    restart_after generations.
    Strategies: S-GD maximises total keys, S-PD a weighted total, S-TD uses
    the S-GD fitness but prefers, within a fitness tolerance band, schedules
    whose delivered distribution has lower KL divergence from target weights.
    S-GD and S-PD run all `generations`; for S-TD it is a cap: S-TD stops
    after scoring generation g once the archive entry it would return was
    recorded at generation g - restart_after or earlier, so a small
    restart_after stops it within a few generations.

Determinism: every solver is deterministic given its inputs (and the GA
seed).  Value ties in solve_exact prefer IDLE, then lower node index.  A
solve_ga generation's random numbers (a restart's population or breeding's
draws) depend only on its index: they come from the one generator, in
generation order, on the calling thread.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .output import integers, iso_utc, row_chunks, spelled, write_csvs
from .qkd import KeyMatrix, row_heads

IDLE = -1
SWITCH = -2


@dataclass(frozen=True, eq=False)
class Schedule:
    """An activity per interval (a read-only int64 array) and its node totals.

    `generations` is the number of generations solve_ga bred before it
    picked the schedule (0 for solve_exact, and for a matrix without keys):
    rerun with that many, the GA returns the same schedule.
    """
    assignment: np.ndarray
    node_totals: tuple[float, ...]
    objective: float
    generations: int = 0

    def __post_init__(self):
        assignment = _assignment_of(self.assignment).astype(np.int64)
        assignment.flags.writeable = False
        object.__setattr__(self, "assignment", assignment)

    @property
    def total(self) -> float:
        return float(sum(self.node_totals))


@dataclass(frozen=True)
class GaConfig:
    population: int = 200
    generations: int = 500  # S-GD and S-PD run all of them; a cap for S-TD
    crossover_rate: float = 0.8
    mutation_rate: float = 0.02
    elitism: int = 2
    seed: int = 0
    # re-randomize non-elites every this many generations; S-TD stops once
    # the schedule it would return has stood this many generations
    restart_after: int = 60

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
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


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


def _cells_of(matrix: KeyMatrix) -> tuple[int, int, np.ndarray, np.ndarray, np.ndarray]:
    """(n_intervals, n_nodes, interval, node, bits) of a KeyMatrix: its
    nonzero cells in row-major order.  Anything else raises TypeError."""
    if not isinstance(matrix, KeyMatrix):
        raise TypeError(f"expected a qkd.KeyMatrix, got {type(matrix).__name__}")
    return matrix.n_intervals, matrix.n_nodes, *matrix.nonzero()


def _assignment_of(schedule: Schedule | Sequence[int], where="assignment") -> np.ndarray:
    """The activity codes of a schedule or a sequence, as an array, or
    ValueError naming `where` for a code that is not an integer (+-inf pass)."""
    if isinstance(schedule, Schedule):
        return schedule.assignment
    arr = np.asarray(schedule)
    if arr.dtype.kind not in "iuf":
        raise ValueError(f"{where} holds {arr.dtype} values, not integer activity codes")
    if arr.dtype.kind == "f" and (bad := np.flatnonzero(arr != np.round(arr))).size:
        raise ValueError(f"{where}[{bad[0]}] = {arr.flat[bad[0]].item()!r} is not an integer")
    return arr


def _codes_of(schedule: Schedule | Sequence[int], n_nodes: int,
              where="assignment") -> np.ndarray:
    """As _assignment_of, and ValueError naming the first code that is not
    IDLE, SWITCH or a node in 0..n_nodes-1."""
    arr = _assignment_of(schedule, where)
    bad = np.flatnonzero((arr < SWITCH) | (arr >= n_nodes))
    if bad.size:
        m = int(bad[0])
        raise ValueError(f"{where}[{m}] = {arr.flat[m].item()!r} is not IDLE ({IDLE}), "
                         f"SWITCH ({SWITCH}) or a node in 0..{n_nodes - 1}")
    return arr


def is_feasible(schedule: Schedule | Sequence[int], n_intervals: int, n_nodes: int) -> bool:
    """True iff the assignment respects activity codes and switch constraints."""
    try:
        a = _codes_of(schedule, n_nodes)
    except ValueError:
        return False
    # a node may follow only itself or a SWITCH; the first interval anything
    return a.shape == (n_intervals,) and not (
        (a[1:] >= 0) & (a[1:] != a[:-1]) & (a[:-1] != SWITCH)).any()


def _by_node(node: np.ndarray) -> list[tuple[int, np.ndarray]]:
    """Per node in the column `node`, ascending, the node and the positions
    that hold it, in the column's order."""
    order = np.argsort(node, kind="stable")
    nodes, firsts = np.unique(node[order], return_index=True)
    return list(zip(nodes.tolist(), np.split(order, firsts[1:])))


def evaluate(schedule: Schedule | Sequence[int], matrix: KeyMatrix) -> np.ndarray:
    """Per-node delivered totals E_n = sum_m K[m][n] [assignment m == n], or
    ValueError for a code that is not IDLE, SWITCH or a node.

    Each node with a delivered cell sums the column of all its assigned
    rows, zeros included and in row order: numpy's pairwise sum groups by
    position, so the totals are bit for bit those of the dense masked sum.
    Every other node delivers 0.0.  O(n_intervals) memory.
    """
    n_intervals, n_nodes, interval, node, bits = _cells_of(matrix)
    arr = _codes_of(schedule, n_nodes)
    if len(arr) != n_intervals:
        raise ValueError(f"assignment length {len(arr)} does not match {n_intervals} intervals")
    # one stable sort lists each node's assigned rows in row order
    order = np.argsort(arr, kind="stable")
    bounds = np.searchsorted(arr, np.arange(n_nodes + 1), sorter=order)
    totals = np.zeros(n_nodes)
    for n, at in _by_node(node):
        these = at[arr[interval[at]] == n]  # its delivered cells, in row order
        mine = order[bounds[n]:bounds[n + 1]]
        column = np.zeros(len(mine))
        column[np.searchsorted(mine, interval[these])] = bits[these]
        with np.errstate(over="ignore"):  # a total past the largest float is inf
            totals[n] = column.sum()
    return totals


def delivered_distribution(schedule: Schedule | Sequence[int],
                           matrix: KeyMatrix) -> Distribution:
    """Share of delivered keys per node; undefined (error) for zero delivery
    or a node total past the largest float."""
    totals = evaluate(schedule, matrix)
    with np.errstate(over="ignore"):
        total = totals.sum()
    if total <= 0:
        raise ValueError("delivered distribution undefined: no keys delivered")
    if totals.max() == np.inf:
        raise ValueError("delivered distribution undefined: a node total is past the "
                         "largest float")
    if total == np.inf:  # only the sum overflows: divide by the largest total first
        totals = totals / totals.max()
        total = totals.sum()
    return Distribution(tuple(float(v / total) for v in totals))


def _finish(assignment: np.ndarray, matrix: KeyMatrix, objective: float,
            generations: int = 0) -> Schedule:
    return Schedule(assignment, tuple(evaluate(assignment, matrix).tolist()),
                    float(objective), generations)


# ---------------------------------------------------------------------------
# Exact dynamic program
# ---------------------------------------------------------------------------

def solve_exact(matrix: KeyMatrix, weights: Sequence[float] | None = None) -> Schedule:
    """Optimal schedule for the linear objective sum_n w_n * E_n.

    Dynamic program over states (interval, last activity); last activity is
    IDLE, SWITCH or a node.  IDLE and SWITCH share one rest state, the best
    value of the row before; ties prefer IDLE, then the lowest node index, and
    a node state keeps its node parent on parent ties (fewest switches).
    Weights must be finite and >= 0, one per node, else ValueError.

    The DP steps through the rows with a nonzero weighted gain, and each row
    costs its own cells.  A node without a cell in a row only rises to the
    rest state (adding its zero gain changes no bit), and the rest state
    never falls, so every node's state is max(its value at its last cell,
    `floor`), where `floor` is the rest state of the row before, or the best
    value after a run of zero rows: the run's first row lifts each node to
    max(node, rest) and rest to the best value `top`, and every later row
    holds `top` in all states.  No state without a cell in the row before
    beats the rest state, so the best state is the rest or one of those
    cells.  The traceback reads the same values: a node holds through the
    run before its row or re-enters through a SWITCH on the run's first row;
    IDLE and SWITCH leave the run IDLE, which is what the full walk assigns.
    """
    n_intervals, n_nodes, interval, node, bits = _cells_of(matrix)
    w = np.ones(n_nodes) if weights is None else np.asarray(weights, dtype=float)
    if w.shape != (n_nodes,):
        raise ValueError(f"expected {n_nodes} weights, got {w.shape}")
    if (bad := np.flatnonzero(~((w >= 0.0) & (w < np.inf)))).size:
        raise ValueError(f"weights[{bad[0]}] = {float(w[bad[0]])!r} is not finite and >= 0")
    weighted = np.flatnonzero(w[node] != 0.0)
    interval, node = interval[weighted], node[weighted]
    heads = row_heads(interval)
    rows = interval[heads].tolist()
    gaps = (np.diff(interval[heads], prepend=-1) > 1).tolist()  # a zero row lies before
    bounds = [*heads.tolist(), len(node)]
    with np.errstate(over="ignore"):  # a gain past the largest float is inf
        nodes, gains = node.tolist(), (bits[weighted] * w[node]).tolist()

    # per cell: its node's value after the row, and whether the node kept
    # its node parent and held across the gap before the row; cell -1 (no
    # cell) reads as the rest state IDLE, and a node without a cell so far
    # as value 0.0
    nodes.append(IDLE)
    value = [0.0] * len(nodes)
    stays = [True] * len(nodes)
    through = [True] * len(nodes)
    last = [0.0] * n_nodes  # each node's value at its last cell
    rests, floors = [], []  # before each row
    best = []  # the cell of the best state before each row
    rest = floor = 0.0
    lead, lead_cell = -math.inf, -1  # the best cell of the row before
    for k, after_gap in enumerate(gaps):
        top, cell = (lead, lead_cell) if lead > rest else (rest, -1)
        best.append(cell)
        rests.append(rest)
        floors.append(floor)
        lead = -math.inf
        for i in range(bounds[k], bounds[k + 1]):
            n = nodes[i]
            x = last[n]
            if x < floor:
                x = floor
            if x < rest:
                stays[i] = False
                x = rest
            if after_gap:
                if x < top:
                    through[i] = False
                x = top
            last[n] = value[i] = x = x + gains[i]
            if x > lead:
                lead, lead_cell = x, i
        floor = top if after_gap else rest
        rest = top
    objective, cell = (lead, lead_cell) if lead > rest else (rest, -1)
    rests.append(rest)

    # the cell of each cell's node in its previous row, -1 for none
    previous = np.full(len(nodes), -1)
    for _, at in _by_node(node):
        previous[at[1:]] = at[:-1]
    previous = previous.tolist()

    # the assignment is IDLE but for runs [first, stop) of one code, marked
    # as steps of code - IDLE at first and back at stop
    marks, steps = [], []
    state = nodes[cell]
    for k in range(len(rows) - 1, -1, -1):
        row = rows[k]
        if state < 0:  # IDLE or SWITCH: entered from the best of the row before
            if state == SWITCH:
                marks += (row, row + 1)
                steps += (SWITCH - IDLE, IDLE - SWITCH)
            state = nodes[cell := best[k]]
            continue
        if cell >= bounds[k]:  # the node's last cell up to row k is in row k
            stay, hold = stays[cell], through[cell]
            cell = previous[cell]
        else:
            x = max(value[cell], floors[k])
            stay = x >= rests[k]
            hold = not gaps[k] or max(x, rests[k]) >= rests[k + 1]
        first = rows[k - 1] + 1 if k else 0  # the gap before row k
        marks += (first, row + 1)
        steps += (state - IDLE, IDLE - state)
        if not hold:
            marks += (first, first + 1)
            steps += (SWITCH - state, state - SWITCH)
            state = nodes[cell := best[k]]
        elif not stay:
            state = SWITCH
    delta = np.zeros(n_intervals + 1, dtype=np.int64)
    np.add.at(delta, np.array(marks, dtype=np.int64), np.array(steps, dtype=np.int64))
    assignment = np.cumsum(delta[:-1]) + IDLE
    return _finish(assignment, matrix, objective)


# ---------------------------------------------------------------------------
# Genetic algorithm
# ---------------------------------------------------------------------------

_GATHER_GENES = 65_536  # genes per row chunk of the GA's fitness gather


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


def _node_cells(genes: np.ndarray, node: np.ndarray,
                bits: np.ndarray) -> list[tuple[int, np.ndarray, np.ndarray]]:
    """Per node with a nonzero cell, the node, the genes (active rows) of its
    cells, in row order, and their bits, from row-major cells."""
    return [(n, genes[at], bits[at]) for n, at in _by_node(node)]


def _node_totals(group: np.ndarray, cells, n_nodes: int) -> np.ndarray:
    """(P, N) per-node totals of P gene strings, from the nodes' nonzero cells.

    Costs P x nnz_n per node with a cell rather than P x A; equal to the
    masked product sum((group == n) * k[:, n]) up to summation order.  A node
    without a cell totals 0.0, as its masked product does.
    """
    totals = np.zeros((len(group), n_nodes))
    with np.errstate(over="ignore"):  # a total past the largest float is inf
        for n, rows, vals in cells:
            totals[:, n] = ((group[:, rows] == n) * vals).sum(axis=1)
    return totals


def _seed_genes(seed: Schedule | Sequence[int], index: int, active: np.ndarray,
                n_intervals: int, n_nodes: int) -> np.ndarray:
    """Gene string of warm-start schedule `index`, or ValueError naming it.

    The GA's repair and fitness gather both rely on every gene lying in
    0..n_nodes+1, so a seed must hold exactly one integer activity code
    (IDLE, SWITCH or a node index) per interval.
    """
    where = f"seed_schedules[{index}]"
    arr = _assignment_of(seed, where)
    if arr.shape != (n_intervals,):
        raise ValueError(f"{where} has shape {arr.shape}, expected "
                         f"({n_intervals},) for {n_intervals} intervals")
    genes = _codes_of(arr, n_nodes, where)[active].astype(np.int16)
    # IDLE (-1) and SWITCH (-2) are genes n_nodes and n_nodes + 1, and back
    return np.where(genes < 0, n_nodes - 1 - genes, genes)


class _Archive:
    """Each GA generation's best rows, and the entry the final rule picks.

    The rule: the lowest KL within the band (fitness within `tolerance` of
    the archive's best), then the fittest, then the earliest; with every KL
    +inf, the first of the fittest.  The pick is kept as entries arrive: a
    new best fitness raises the band, so the whole archive is ranked again;
    otherwise the band only grows, and the new entry competes with the pick.
    The columns double as entries arrive, so no generation count sizes them.
    """

    def __init__(self, tolerance: float):
        self.fits = np.empty(64)
        self.kls = np.empty(64)
        self.born = np.empty(64, dtype=np.int64)  # the generation recording each
        self.genes: list[np.ndarray] = []
        self.tolerance = tolerance
        self.top = -math.inf
        self.pick = 0

    def add(self, fit: float, kl: float, genes: np.ndarray, gen: int) -> None:
        i = len(self.genes)
        if i == len(self.fits):
            self.fits, self.kls, self.born = (np.concatenate((col, np.empty_like(col)))
                                              for col in (self.fits, self.kls, self.born))
        self.fits[i], self.kls[i], self.born[i] = fit, kl, gen
        self.genes.append(genes)
        if fit > self.top:
            self.top = fit
            rows = np.arange(i + 1)
        else:
            rows = np.array([self.pick, i])
        rows = rows[self.fits[rows] >= (1.0 - self.tolerance) * self.top]
        self.pick = int(rows[np.lexsort((rows, -self.fits[rows], self.kls[rows]))[0]])


def solve_ga(matrix: KeyMatrix, cfg: StrategyConfig,
             seed_schedules: Sequence[Schedule | Sequence[int]] = ()) -> Schedule:
    """Best feasible schedule found by the strategy's genetic algorithm.

    The chromosome is the activity string over the active intervals; offspring
    are made feasible by replacing the gene before each conflicting handoff
    with SWITCH.  `seed_schedules` warm-start part of the initial population
    (the default is an all-random start); each must be a full-length
    assignment of IDLE, SWITCH and node codes, else ValueError.  Deterministic
    given cfg.ga.seed.

    S-PD fitness uses the weights normalized to mean 1, so all-equal weights
    reproduce the S-GD objective exactly (solve_exact, by contrast, applies
    raw weights).  Every strategy ranks the same way: rows in the tolerance
    band (fitness within kl_tolerance of the generation's best) by KL, then
    by fitness.  Only S-TD has a band and reads its rows' KL; for S-GD and
    S-PD the band is empty and every KL +inf, so fitness alone ranks them.

    S-GD and S-PD run all cfg.ga.generations.  S-TD stops after scoring
    generation g once the archive entry it would return was recorded at
    generation g - restart_after or earlier: that entry has survived a
    whole restart period, the GA's only escape move.  The returned
    Schedule's `generations` is g, or cfg.ga.generations without a stop.
    """
    # the rows with a nonzero cell are the active rows; each cell's gene is
    # its row's index among them
    n_intervals, n_nodes, interval, node, bits = _cells_of(matrix)
    active = matrix.rows
    cell_gene = np.searchsorted(active, interval)
    ga = cfg.ga
    # the switch rule does not couple across a zero row (a SWITCH fits there),
    # so a block of the chromosome starts after each gap
    starts = np.diff(active, prepend=-2) > 1
    n_active = len(active)
    seed_genes = [_seed_genes(seed, index, active, n_intervals, n_nodes)
                  for index, seed in enumerate(seed_schedules)]
    if n_active == 0 or n_nodes == 0:
        return _finish(np.full(n_intervals, IDLE), matrix, 0.0)

    switch_code = n_nodes + 1  # the largest gene; n_nodes is IDLE
    if cfg.kind == "S-PD":
        fit_w = np.asarray(cfg.normalized_weights(n_nodes)) * n_nodes
    else:
        fit_w = np.ones(n_nodes)
    # node-major fitness table: gene g at active interval a scores
    # k_flat[g * A + a]; the IDLE and SWITCH rows and the zero cells are zero
    k_flat = np.zeros((n_nodes + 2) * n_active)
    k_flat[node * n_active + cell_gene] = bits * fit_w[node]
    gather_rows = max(1, _GATHER_GENES // n_active)
    target = (np.asarray(cfg.normalized_weights(n_nodes))
              if cfg.kind == "S-TD" else None)

    rng = np.random.default_rng(ga.seed)
    shape = (ga.population, n_active)
    pop = rng.integers(0, n_nodes + 2, size=shape, dtype=np.int16)
    for row, genes in enumerate(seed_genes[:ga.population]):
        pop[row] = genes

    not_start = ~starts[1:]

    def repair(group: np.ndarray) -> None:
        if n_active < 2:
            return
        viol = ((group[:, 1:] < n_nodes)
                & (group[:, :-1] != group[:, 1:])
                & (group[:, :-1] != switch_code)
                & not_start[None, :])
        head = group[:, :-1]
        np.maximum(head, np.multiply(viol, switch_code, dtype=np.int16), out=head)

    gene_cols = np.arange(n_active)

    def fitness_of(group: np.ndarray) -> np.ndarray:
        fit = np.empty(len(group))
        for lo in range(0, len(group), gather_rows):
            flat = np.multiply(group[lo:lo + gather_rows], n_active, dtype=np.intp)
            flat += gene_cols
            with np.errstate(over="ignore"):  # a fitness past the largest float is inf
                fit[lo:lo + gather_rows] = k_flat.take(flat).sum(axis=1)
        return fit

    cells = _node_cells(cell_gene, node, bits)

    def kl_of(group: np.ndarray, band: np.ndarray) -> np.ndarray:
        out = np.full(len(group), np.inf)
        rows = np.flatnonzero(band)
        totals = _node_totals(group[rows], cells, n_nodes)
        with np.errstate(over="ignore"):  # a sum past the largest float is inf
            sums = totals.sum(axis=1)
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
            out[rows[ok]] = vals
        return out

    def score(group: np.ndarray):
        """Fitness, the tolerance band (empty but for S-TD) and its rows' KL."""
        fit = fitness_of(group)
        band = np.zeros(len(group), dtype=bool)
        if target is not None:
            band = fit >= (1.0 - cfg.kl_tolerance) * fit.max()
        return fit, band, kl_of(group, band)

    repair(pop)

    archive = _Archive(cfg.kl_tolerance)

    def record(gen: int, fit: np.ndarray, band: np.ndarray, kl: np.ndarray) -> None:
        """Archive the fittest row and, with a band, its lowest-KL row."""
        best = [int(np.argmax(fit))]
        if band.any():
            idx = np.flatnonzero(band)
            best.append(int(idx[np.lexsort((-fit[idx], kl[idx]))[0]]))
        for i in best:
            archive.add(float(fit[i]), float(kl[i]), pop[i].copy(), gen)

    half = ga.population // 2
    crossover = n_active >= 2 and half > 0

    # allocate and free, untouched, one block the size of the whole float
    # mask.  glibc's dynamic mmap threshold rises to the largest block freed,
    # and its heap is trimmed only past twice that; the chunked mask no longer
    # raises it, and in a long-lived process the per-generation temporaries
    # could be returned to the system and faulted back every generation
    np.empty(shape)

    stops = target is not None  # S-TD, once its pick has stood a restart period
    for gen in range(ga.generations + 1):
        fit, band, kl = score(pop)
        record(gen, fit, band, kl)
        if gen == ga.generations or (
                stops and archive.born[archive.pick] <= gen - ga.restart_after):
            break
        # stable: with an empty band, the fittest first, ties by index
        elites = pop[np.lexsort((-fit, kl, ~band))[:ga.elitism]]

        if (gen + 1) % ga.restart_after == 0:
            # cataclysmic restart: keep the elites, refresh everyone else
            pop = rng.integers(0, n_nodes + 2, size=shape, dtype=np.int16)
            repair(pop)
            if ga.elitism:
                pop[:ga.elitism] = elites
            continue

        # breeding's draws, in stream order: the tournament candidates, each
        # crossover pair's flag and cut, the mutation mask and the fresh
        # genes.  All come before the children are made, so the mask and the
        # fresh genes are freed before the children exist
        cand = rng.integers(0, ga.population, size=(ga.population, 3))
        if crossover:
            do_cx = rng.random(half) < ga.crossover_rate
            cuts = rng.integers(1, n_active, size=half)
            trade = (gene_cols >= cuts[:, None]) & do_cx[:, None]
        # each double is one 64-bit draw, so the mask drawn in row chunks is
        # the mask drawn whole, without a population-sized float array
        mut = np.empty(shape, dtype=bool)
        for lo in range(0, ga.population, gather_rows):
            np.less(rng.random(mut[lo:lo + gather_rows].shape), ga.mutation_rate,
                    out=mut[lo:lo + gather_rows])
        # int16 draws are buffered within one call: splitting it would
        # change the genes drawn
        fresh = rng.integers(0, n_nodes + 2, size=shape, dtype=np.int16)
        at = np.flatnonzero(mut)
        genes = fresh.reshape(-1).take(at)
        del mut, fresh

        # tournament selection, size 3; a fitness tie goes to the lower
        # population index for S-TD, to the earlier candidate otherwise
        def beats(i: np.ndarray, j: np.ndarray) -> np.ndarray:
            both = band[i] & band[j]
            by_kl = np.where(kl[i] != kl[j], kl[i] < kl[j], fit[i] >= fit[j])
            by_fit = np.where(fit[i] != fit[j], fit[i] > fit[j],
                              (i <= j) | (target is None))
            return np.where(np.where(both, by_kl, by_fit), i, j)

        children = pop[beats(beats(cand[:, 0], cand[:, 1]), cand[:, 2])]

        # one-point crossover of pairs: past the cut the children trade genes
        if crossover:
            p1, p2 = children[0:2 * half:2], children[1:2 * half:2]
            delta = (p2 - p1) * trade
            p1 += delta
            p2 -= delta

        children.put(at, genes)  # mutation
        repair(children)
        if ga.elitism:
            children[:ga.elitism] = elites
        pop = children

    chosen = archive.pick
    assignment = _expand(archive.genes[chosen], active, starts, n_intervals, n_nodes)
    return _finish(assignment, matrix, archive.fits[chosen], gen)


# ---------------------------------------------------------------------------
# Export helpers
# ---------------------------------------------------------------------------

def write_schedule_csv(schedules: Sequence[Schedule], matrix, paths: Sequence) -> None:
    """Full interval listings, interval_index,start_utc,activity, of each
    schedule at its path.  The files are written side by side, so the
    columns they share are spelled once."""
    n_intervals = matrix.n_intervals
    for schedule in schedules:
        if len(schedule.assignment) != n_intervals:
            raise ValueError(f"{len(schedule.assignment)} activities for "
                             f"{n_intervals} intervals")
    # shifted by -SWITCH, the codes SWITCH and IDLE index the first two names
    names = spelled(["SWITCH", "IDLE", *matrix.node_names])
    intervals = np.arange(n_intervals)

    def tables(part: slice) -> list[list[np.ndarray]]:
        shared = [integers(intervals[part]), iso_utc(matrix.row_us(intervals[part]))]
        return [[*shared, names[schedule.assignment[part] - SWITCH]] for schedule in schedules]

    write_csvs(paths, "interval_index,start_utc,activity\n", map(tables, row_chunks(n_intervals)))


def schedule_summary(schedule: Schedule, matrix, strategy: StrategyConfig,
                     seed: int) -> dict:
    """JSON-ready summary: totals, KL against the strategy weights (None
    where it is undefined), config."""
    try:
        delivered = delivered_distribution(schedule, matrix)
        target = Distribution(strategy.normalized_weights(matrix.n_nodes))
        kl = kl_divergence(delivered, target)
    except ValueError:
        kl = None
    ga = strategy.ga
    return {
        "strategy": strategy.kind,
        "seed": seed,
        "node_totals_bits": dict(zip(matrix.node_names, schedule.node_totals)),
        "total_bits": schedule.total,
        "objective": schedule.objective,
        "kl_divergence_vs_weights": kl,
        "ga": {"population": ga.population, "generations": ga.generations,
               "crossover_rate": ga.crossover_rate,
               "mutation_rate": ga.mutation_rate, "elitism": ga.elitism},
        "kl_tolerance": strategy.kl_tolerance,
    }
