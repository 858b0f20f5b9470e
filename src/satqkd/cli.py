"""Command-line pipeline: access, linkbudget, keymatrix, schedule, sweep.

Every subcommand reads one JSON scenario config (omitted: the built-in
Micius-week default profile), writes machine-readable CSV/JSON artifacts into
--out, plus a manifest.json with the resolved-config hash, seed and package
version.  Outputs contain no wall-clock state: identical config and seed
reproduce byte-identical files.  Every infinite value, in every CSV and JSON
file, is written as the literal token `Inf`.
"""
from __future__ import annotations

import argparse
import itertools
import json
import math
import sys
import warnings
from datetime import datetime
from itertools import repeat
from pathlib import Path

import numpy as np

from . import __version__
# total_loss is not called here; the benchmark's tracer patches it under this name
from .channel import total_loss  # noqa: F401
from . import qkd
from .orbit import Passes, _from_us, _to_us
from .output import csv_rows, fixed_point, iso_utc, round_trip, spelled, write_csv, write_json
from .qkd import (
    KeyBitsOverflow,
    KeyMatrix,
    add_key_bits,
    assemble_key_matrix,
    export_key_matrix,
    link_budget,
)
from .sched import (
    Schedule,
    is_feasible,
    schedule_summary,
    solve_exact,
    solve_ga,
    write_schedule_csv,
)
from .scenario import (
    ConfigError,
    ScenarioConfig,
    check_loss_mask,
    compute_accesses,
    config_digest,
    elements_for_altitude,
    key_matrix_for,
    load_scenario,
    micius_week_config,
    union_duration_seconds,
)


def _write_manifest(out: Path, command: str, config: ScenarioConfig,
                    seed: int | None) -> None:
    write_json(out / "manifest.json", {
        "command": command,
        "config_sha256": config_digest(config),
        "seed": seed,
        "version": __version__,
    })


# ---------------------------------------------------------------------------
# access
# ---------------------------------------------------------------------------

def run_access(config: ScenarioConfig, out: Path, seed: int | None = None) -> dict:
    """Access-interval report: per-pass CSV plus a per-day duration summary."""
    out.mkdir(parents=True, exist_ok=True)
    passes = compute_accesses(config)
    step = config.step_seconds
    first = passes.bounds[:-1]  # each pass's first sample
    start_us = passes.time_us[first]
    durations = passes.duration_seconds()
    # one chunk: a pass's samples outweigh its row of text
    write_csv(out / "access_intervals.csv",
              "station,start_utc,end_utc,duration_s,max_elevation_deg,min_range_km\n", [[
                  spelled([station.name.encode() for station in passes.stations])[passes.station],
                  iso_utc(start_us), iso_utc(passes.end_us), fixed_point(durations, 1),
                  fixed_point(np.maximum.reduceat(passes.elevation_deg, first), 3),
                  fixed_point(np.minimum.reduceat(passes.slant_range_km, first), 3)]])

    # a pass counts on the UTC day it starts, so each day's passes are a run
    # of the table; sums run in pass order
    days, heads = np.unique(start_us // 86_400_000_000, return_index=True)
    dates = np.datetime_as_string(days.astype("datetime64[D]")).tolist()
    runs = list(itertools.pairwise([*heads.tolist(), len(passes)]))
    daily_sums = [sum(durations[p:q]) for p, q in runs]
    daily_union = {date: union_duration_seconds(passes[p:q], step)
                   for date, (p, q) in zip(dates, runs)}
    write_csv(out / "access_daily.csv", "date,station_sum_s,union_s\n", [[
        spelled(dates), fixed_point(daily_sums, 1), fixed_point(list(daily_union.values()), 1)]])
    _write_manifest(out, "access", config, seed)
    return {
        "n_intervals": len(passes),
        "total_station_seconds": sum(durations),
        "union_seconds": union_duration_seconds(passes, step),
        "daily_union_seconds": daily_union,
    }


# ---------------------------------------------------------------------------
# linkbudget
# ---------------------------------------------------------------------------

def run_linkbudget(config: ScenarioConfig, out: Path, seed: int | None = None) -> dict:
    """Per-sample loss decomposition CSV over every access interval.

    The eta column keeps full float precision (repr round trip) so that a key
    matrix built from this file is bit-identical to the direct pipeline.
    """
    check_loss_mask(config)
    out.mkdir(parents=True, exist_ok=True)
    passes = compute_accesses(config)
    names = spelled([station.name.encode() for station in passes.stations])
    counts = {"n_samples": 0, "n_blocked": 0}
    fixed = fixed_point([config.optics.fixed_loss_db], 4)

    def columns(block: Passes) -> list[np.ndarray]:
        geo, atm, cld, total, etas = link_budget(block, config.optics, config.cloud)
        text = [iso_utc(block.time_us), names[block.sample_station()],
                *(fixed_point(c, 4) for c in (
                    block.elevation_deg, block.slant_range_km, geo, atm, cld)),
                np.broadcast_to(fixed, (len(etas), fixed.shape[1])),
                fixed_point(total, 4),
                round_trip(etas)]
        counts["n_blocked"] += int(np.count_nonzero(etas == 0.0))
        counts["n_samples"] += len(etas)
        return text

    write_csv(out / "linkbudget.csv", "time_utc,station,elevation_deg,range_km,geo_db,"
              "atm_db,cloud_db,fixed_db,total_db,eta\n",
              map(columns, passes.blocks(qkd._RATE_CHUNK)))
    _write_manifest(out, "linkbudget", config, seed)
    return counts


# ---------------------------------------------------------------------------
# keymatrix
# ---------------------------------------------------------------------------

# bytes of linkbudget.csv rows read and parsed at a time (about 4,000 rows)
_LINKBUDGET_CHUNK = 1 << 19


def _written_rows(lines: list[str], column: dict[str, int]):
    """(nodes, time_us, etas) of rows as run_linkbudget writes them: 10
    fields, a scenario station, a time_utc that output.iso_utc writes back
    byte for byte and an eta in [0, 1]; None if any row is otherwise."""
    if set(map(str.count, lines, repeat(","))) != {9}:
        return None
    end = 10 * len(lines)
    fields = "".join(lines).replace("\n", ",").split(",")
    times = fields[0:end:10]
    try:
        nodes = np.fromiter(map(column.__getitem__, fields[1:end:10]), np.int64)
        with warnings.catch_warnings():  # numpy warns on a time zone it drops
            warnings.simplefilter("error")
            time_us = np.array([t[:-6] for t in times], "datetime64[us]").astype(np.int64)
        if csv_rows([iso_utc(time_us)]).tobytes() != "\n".join(times).encode() + b"\n":
            return None
        etas = np.fromiter(map(float, fields[9:end:10]), float)
    except (KeyError, ValueError, Warning, OverflowError):  # NaT overflows iso_utc
        return None
    return (nodes, time_us, etas) if ((0.0 <= etas) & (etas <= 1.0)).all() else None


def _parsed_rows(lines: list[str], first_lineno: int, column: dict[str, int], csv_path):
    """(nodes, time_us, etas) of rows parsed one at a time, or ValueError
    naming the file, line and field of the first bad row."""
    nodes, times, etas = [], [], []
    for lineno, line in enumerate(lines, start=first_lineno):
        parts = line.rstrip("\n").split(",")
        where = f"{csv_path}:{lineno}"
        if len(parts) != 10:
            raise ValueError(f"{where}: expected 10 fields, got {len(parts)}")
        n = column.get(parts[1])
        if n is None:
            raise ValueError(f"{where}: station: {parts[1]!r} is not a "
                             f"scenario station")
        try:
            t = datetime.fromisoformat(parts[0])
            if t.tzinfo is None:
                raise ValueError(f"{parts[0]} has no UTC offset")
            us = _to_us(t)  # overflows for an offset at year 1 or 9999
        except (ValueError, OverflowError) as exc:
            raise ValueError(f"{where}: time_utc: {exc}") from None
        try:
            eta = float(parts[9])
        except ValueError as exc:
            raise ValueError(f"{where}: eta: {exc}") from None
        if not 0.0 <= eta <= 1.0:
            raise ValueError(f"{where}: eta: {parts[9]} is not in [0, 1]")
        nodes.append(n)
        times.append(us)
        etas.append(eta)
    # int64 also for no rows, whose empty lists would read as float
    return (np.array(nodes, dtype=np.int64), np.array(times, dtype=np.int64),
            np.array(etas, dtype=float))


def key_matrix_from_linkbudget(config: ScenarioConfig, csv_path) -> KeyMatrix:
    """Rebuild the key matrix from a linkbudget.csv intermediate.

    Each chunk of rows is read as columns where it holds exactly what
    run_linkbudget writes; any other chunk is parsed row by row, which
    accepts the same rows and names the first bad one."""
    start = config.span[0]
    column = {st.name: i for i, st in enumerate(config.stations)}
    chunks = []
    with open(csv_path, encoding="utf-8") as fh:
        header = fh.readline()
        if not header.startswith("time_utc,station,"):
            raise ValueError(f"not a linkbudget CSV: {header!r}")
        lineno = 2
        while lines := fh.readlines(_LINKBUDGET_CHUNK):
            chunks.append(_written_rows(lines, column)
                          or _parsed_rows(lines, lineno, column, csv_path))
            lineno += len(lines)
    nodes, time_us, etas = (np.concatenate(c) for c in zip(*chunks)) if chunks else (
        np.empty(0, np.int64), np.empty(0, np.int64), np.empty(0))
    parts: list = []
    add_key_bits(parts, start, config.grid_interval_seconds, config.n_grid_intervals,
                 config.qkd, nodes, time_us, etas, config.step_seconds,
                 lambda i: f"{csv_path}:{i + 2}: "
                 f"time_utc: {_from_us(int(time_us[i])).isoformat()}")
    try:
        return assemble_key_matrix(parts, start, config.grid_interval_seconds,
                                   config.n_grid_intervals,
                                   tuple(st.name for st in config.stations))
    except KeyBitsOverflow as exc:  # every cell's bits scale with the rate
        raise ConfigError("qkd.rep_rate_mhz", f"too large: {exc}") from None


def daily_key_bits(matrix: KeyMatrix):
    """The columns UTC date, station and key bits of each day and station
    with keys, sorted by date, then station name.  A total sums its cells
    from 0.0 in row-major order; the day is that of the cell's interval
    start."""
    rows, cols, cell_bits = matrix.nonzero()
    days = matrix.row_us(rows) // 86_400_000_000
    by_name = sorted(range(matrix.n_nodes), key=matrix.node_names.__getitem__)
    rank = np.empty(matrix.n_nodes, dtype=np.int64)
    rank[by_name] = np.arange(matrix.n_nodes)
    # one key per (day, name), ordered as the pair is
    groups, owner = np.unique(days * matrix.n_nodes + rank[cols], return_inverse=True)
    totals = np.zeros(len(groups))
    np.add.at(totals, owner, cell_bits)  # repeated keys add in row-major order
    dates = np.datetime_as_string((groups // matrix.n_nodes).astype("datetime64[D]"))
    names = [matrix.node_names[by_name[r]] for r in (groups % matrix.n_nodes).tolist()]
    return dates, names, totals


def run_keymatrix(config: ScenarioConfig, out: Path, seed: int | None = None,
                  from_linkbudget=None) -> KeyMatrix:
    """Key matrix CSV + metadata sidecar + per-day per-station key totals."""
    check_loss_mask(config)
    out.mkdir(parents=True, exist_ok=True)
    if from_linkbudget is not None:
        matrix = key_matrix_from_linkbudget(config, from_linkbudget)
    else:
        matrix = key_matrix_for(config)
    export_key_matrix(matrix, config.qkd, out / "keymatrix.csv",
                      out / "keymatrix_meta.json")

    dates, names, bits = daily_key_bits(matrix)
    write_csv(out / "keys_daily.csv", "date,station,key_bits\n", [[
        spelled(dates), spelled([name.encode() for name in names]), fixed_point(bits, 3)]])
    _write_manifest(out, "keymatrix", config, seed)
    return matrix


# ---------------------------------------------------------------------------
# schedule
# ---------------------------------------------------------------------------

def _delivered_sum(schedule: Schedule, matrix: KeyMatrix) -> float:
    """The correctly rounded sum of the cells schedule delivers: it does not
    depend on their order or on the zero rows a node holds, so two
    schedules that deliver the same keys have the same sum."""
    interval, node, bits = matrix.nonzero()
    try:
        return math.fsum(bits[schedule.assignment[interval] == node].tolist())
    except OverflowError:  # the exact sum is past the largest float
        return math.inf


def run_schedule(config: ScenarioConfig, out: Path, seed: int | None = None,
                 matrix: KeyMatrix | None = None) -> dict[str, Schedule]:
    """Solve all three strategies and export schedules plus a comparison.

    S-GD and S-PD have linear objectives, so the exact DP solver realises
    them optimally; S-TD runs the KL-aware GA warm-started with the S-GD
    optimum, which guarantees its fitness stays inside the tolerance band.
    The S-GD total therefore dominates the other strategies on every run
    (checked before writing anything).
    """
    ga_seed = seed if seed is not None else config.strategy.ga.seed
    std_cfg = config.strategy_for("S-TD", seed=ga_seed)  # checks the weights first
    check_loss_mask(config)
    out.mkdir(parents=True, exist_ok=True)
    if matrix is None:
        matrix = key_matrix_for(config)

    sgd = solve_exact(matrix)
    spd = solve_exact(matrix, weights=config.station_weights())
    try:
        std = solve_ga(matrix, std_cfg, seed_schedules=[sgd])
    except MemoryError:  # numpy's _ArrayMemoryError, at any generation
        raise ConfigError("strategy.ga.population", (
            f"{std_cfg.ga.population} schedules of {len(matrix.rows)} active "
            f"intervals do not fit in memory")) from None
    schedules = {"S-GD": sgd, "S-PD": spd, "S-TD": std}

    delivered = {kind: _delivered_sum(sched, matrix) for kind, sched in schedules.items()}
    for kind, sched in schedules.items():
        if not is_feasible(sched, matrix.n_intervals, matrix.n_nodes):
            raise RuntimeError(f"{kind} produced an infeasible schedule")
        if delivered["S-GD"] < delivered[kind] - 1e-9:
            raise RuntimeError(f"S-GD total {delivered['S-GD']} below {kind} total "
                               f"{delivered[kind]}; objective dominance violated")

    tags = {kind: kind.replace("-", "_").lower() for kind in schedules}
    write_schedule_csv(list(schedules.values()), matrix,
                       [out / f"schedule_{tag}.csv" for tag in tags.values()])
    summaries = {}
    for kind, sched in schedules.items():
        summaries[kind] = schedule_summary(sched, matrix,
                                           config.strategy_for(kind, ga_seed), ga_seed)
        write_json(out / f"summary_{tags[kind]}.json", summaries[kind])
    kls = {kind: summary["kl_divergence_vs_weights"] for kind, summary in summaries.items()}
    per_row = [(kind, name, bits) for kind, sched in schedules.items()
               for name, bits in zip(matrix.node_names, sched.node_totals)]
    write_csv(out / "strategy_comparison.csv",
              "strategy,total_bits,kl_vs_weights,node_name,node_bits\n", [[
                  spelled([kind for kind, _, _ in per_row]),
                  fixed_point([schedules[kind].total for kind, _, _ in per_row], 3),
                  fixed_point([math.inf if kls[kind] is None else kls[kind]
                               for kind, _, _ in per_row], 6),
                  spelled([name.encode() for _, name, _ in per_row]),
                  fixed_point([bits for _, _, bits in per_row], 3)]])
    _write_manifest(out, "schedule", config, ga_seed)
    return schedules


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def _loss_extremes(config: ScenarioConfig, passes: Passes):
    """Min/max total loss per station over its visible samples (no cloud).
    fmin and fmax, folded from +-inf, skip NaN as Python's min and max do."""
    lo, hi = np.full(len(passes.stations), math.inf), np.full(len(passes.stations), -math.inf)
    for block in passes.blocks(qkd._RATE_CHUNK):
        owner = block.sample_station()
        total = link_budget(block, config.optics).total_db
        np.fmin.at(lo, owner, total)
        np.fmax.at(hi, owner, total)
    seen = np.unique(passes.station)
    names = [passes.stations[s].name for s in seen.tolist()]
    return dict(zip(names, lo[seen].tolist())), dict(zip(names, hi[seen].tolist()))


def run_sweep(config: ScenarioConfig, variable: str, out: Path,
              seed: int | None = None) -> list[dict]:
    """Trend table over altitude or divergence.

    altitude: per configured altitude, the total visible (union) duration and
    per-station min/max total loss.  divergence: per divergence angle at the
    base orbit, per-station min/max total loss.  Stations that never see the
    satellite report Inf for both extremes.
    """
    if variable not in ("altitude", "divergence"):
        raise ConfigError("variable", "must be 'altitude' or 'divergence'")
    check_loss_mask(config)
    out.mkdir(parents=True, exist_ok=True)
    from dataclasses import replace

    def measure(sub, value, passes):
        lo, hi = _loss_extremes(sub, passes)
        return {
            "value": value,
            "duration_s": union_duration_seconds(passes, sub.step_seconds),
            "station_sum_s": sum(passes.duration_seconds()),
            "lo": lo, "hi": hi,
        }

    rows: list[dict] = []
    if variable == "altitude":
        if config.tle is None:
            raise ConfigError("tle", "an altitude sweep needs a TLE; "
                                     "the config gives only an ephemeris")
        for i, entry in enumerate(config.sweep_altitudes):
            altitude = float(entry["altitude_km"])
            elements = elements_for_altitude(config.tle, altitude,
                                             raan_deg=entry.get("raan_deg"))
            sub = replace(config, tle=elements, ephemeris=None)
            try:
                passes = compute_accesses(sub)
            except ConfigError:
                raise
            except ValueError as exc:  # the orbit at this altitude cannot be propagated
                raise ConfigError(f"sweep.altitudes_km[{i}]", str(exc)) from None
            rows.append(measure(sub, altitude, passes))
    else:
        # access geometry does not depend on the optics
        passes = compute_accesses(config)
        for urad in config.sweep_divergences_urad:
            sub = replace(config, optics=replace(config.optics,
                                                 divergence_rad=urad * 1e-6))
            rows.append(measure(sub, urad, passes))

    unit = "altitude_km" if variable == "altitude" else "divergence_urad"
    per_row = [(row, st.name) for row in rows for st in config.stations]
    lo = [row["lo"].get(name, math.inf) for row, name in per_row]
    hi = [math.inf if math.isinf(low) else row["hi"].get(name, -math.inf)
          for (row, name), low in zip(per_row, lo)]
    write_csv(out / f"sweep_{variable}.csv",
              unit + ",total_visible_duration_s,station_sum_duration_s,"
              "station,min_total_db,max_total_db\n", [[
                  spelled([format(row["value"], "g") for row, _ in per_row]),
                  fixed_point([row["duration_s"] for row, _ in per_row], 1),
                  fixed_point([row["station_sum_s"] for row, _ in per_row], 1),
                  spelled([name.encode() for _, name in per_row]),
                  fixed_point(lo, 4), fixed_point(hi, 4)]])
    _write_manifest(out, f"sweep_{variable}", config, seed)
    return rows


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="satqkd",
        description="Satellite QKD downlink simulation and scheduling")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, doc in [
        ("access", "compute night-time access windows"),
        ("linkbudget", "per-sample loss decomposition over access windows"),
        ("keymatrix", "per-interval per-station secure-key budgets"),
        ("schedule", "solve and compare the three downlink strategies"),
        ("sweep", "altitude/divergence trend tables"),
    ]:
        p = sub.add_parser(name, help=doc)
        p.add_argument("--config", type=Path, default=None,
                       help="scenario JSON (default: built-in Micius week)")
        p.add_argument("--out", type=Path, required=True, help="output directory")
        p.add_argument("--seed", type=int, default=None,
                       help="override the GA seed recorded in the config")
        if name == "sweep":
            p.add_argument("--variable", choices=("altitude", "divergence"),
                           default="altitude")
        if name == "keymatrix":
            p.add_argument("--from-linkbudget", type=Path, default=None,
                           help="rebuild from a linkbudget.csv intermediate")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    config = None
    try:
        if args.seed is not None and args.seed < 0:
            raise ConfigError("--seed", "seed must be >= 0")
        config = (load_scenario(args.config) if args.config is not None
                  else micius_week_config())
        if args.command == "access":
            run_access(config, args.out, args.seed)
        elif args.command == "linkbudget":
            run_linkbudget(config, args.out, args.seed)
        elif args.command == "keymatrix":
            run_keymatrix(config, args.out, args.seed,
                          from_linkbudget=args.from_linkbudget)
        elif args.command == "schedule":
            run_schedule(config, args.out, args.seed)
        elif args.command == "sweep":
            run_sweep(config, args.variable, args.out, args.seed)
    except (ConfigError, ValueError, OSError) as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return 2
    except MemoryError:  # numpy's _ArrayMemoryError included
        if config is None:
            raise
        start, end = config.span
        print(json.dumps({"error": (
            f"out of memory: step_seconds {config.step_seconds!r} and "
            f"grid_interval_seconds {config.grid_interval_seconds!r} over the span "
            f"{start.isoformat()} to {end.isoformat()} give more samples or "
            f"intervals than fit in memory")}), file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
