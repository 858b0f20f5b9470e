"""Command-line pipeline: access, linkbudget, keymatrix, schedule, sweep.

Every subcommand reads one JSON scenario config (omitted: the built-in
Micius-week default profile), writes machine-readable CSV/JSON artifacts into
--out, plus a manifest.json with the resolved-config hash, seed and package
version.  Outputs contain no wall-clock state: identical config and seed
reproduce byte-identical files.  Infinite dB values serialize as the literal
token `Inf`.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from collections import defaultdict
from datetime import datetime
from pathlib import Path

import numpy as np

from . import __version__
# total_loss is not called here; the benchmark's tracer patches it under this name
from .channel import loss_columns, total_loss  # noqa: F401
from .orbit import AccessInterval, _from_us, _to_us
from .qkd import KeyMatrix, add_key_bits, export_key_matrix, pass_link_budget
from .sched import (
    Distribution,
    Schedule,
    delivered_distribution,
    dump_summary,
    is_feasible,
    kl_divergence,
    schedule_summary,
    solve_exact,
    solve_ga,
    write_schedule_csv,
)
from .scenario import (
    ConfigError,
    ScenarioConfig,
    compute_accesses,
    config_digest,
    elements_for_altitude,
    key_matrix_for,
    load_scenario,
    micius_week_config,
    union_duration_seconds,
)


def _fmt_db(value: float) -> str:
    return "Inf" if math.isinf(value) else f"{value:.4f}"


def _write_manifest(out: Path, command: str, config: ScenarioConfig,
                    seed: int | None) -> None:
    manifest = {
        "command": command,
        "config_sha256": config_digest(config),
        "seed": seed,
        "version": __version__,
    }
    with open(out / "manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _day_of(t: datetime) -> str:
    return t.date().isoformat()


# ---------------------------------------------------------------------------
# access
# ---------------------------------------------------------------------------

def run_access(config: ScenarioConfig, out: Path, seed: int | None = None) -> dict:
    """Access-interval report: per-pass CSV plus a per-day duration summary."""
    out.mkdir(parents=True, exist_ok=True)
    accesses = compute_accesses(config)
    with open(out / "access_intervals.csv", "w", encoding="utf-8") as fh:
        fh.write("station,start_utc,end_utc,duration_s,max_elevation_deg,min_range_km\n")
        for iv in accesses:
            fh.write(f"{iv.station.name},{iv.start.isoformat()},{iv.end.isoformat()},"
                     f"{iv.duration_seconds:.1f},{iv.elevation_deg.max():.3f},"
                     f"{iv.slant_range_km.min():.3f}\n")

    by_day: dict[str, list[AccessInterval]] = defaultdict(list)
    for iv in accesses:
        by_day[_day_of(iv.start)].append(iv)
    daily_union = {day: union_duration_seconds(ivs, config.step_seconds)
                   for day, ivs in sorted(by_day.items())}
    with open(out / "access_daily.csv", "w", encoding="utf-8") as fh:
        fh.write("date,station_sum_s,union_s\n")
        for day, union in daily_union.items():
            fh.write(f"{day},{sum(iv.duration_seconds for iv in by_day[day]):.1f},"
                     f"{union:.1f}\n")
    _write_manifest(out, "access", config, seed)
    return {
        "n_intervals": len(accesses),
        "total_station_seconds": sum(iv.duration_seconds for iv in accesses),
        "union_seconds": union_duration_seconds(accesses, config.step_seconds),
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
    out.mkdir(parents=True, exist_ok=True)
    accesses = compute_accesses(config)
    n_rows = 0
    blocked = 0
    with open(out / "linkbudget.csv", "w", encoding="utf-8") as fh:
        fh.write("time_utc,station,elevation_deg,range_km,geo_db,atm_db,"
                 "cloud_db,fixed_db,total_db,eta\n")
        fixed = _fmt_db(config.optics.fixed_loss_db)
        for iv in accesses:
            geo, atm, cld, total, etas = pass_link_budget(iv, config.optics, config.cloud)
            for us, elev, rng, g, a, c, t, eta in zip(
                    iv.time_us.tolist(), iv.elevation_deg.tolist(),
                    iv.slant_range_km.tolist(), geo, atm, cld, total, etas):
                fh.write(f"{_from_us(us).isoformat()},{iv.station.name},{elev:.4f},"
                         f"{rng:.4f},{_fmt_db(g)},{_fmt_db(a)},{_fmt_db(c)},{fixed},"
                         f"{_fmt_db(t)},{eta!r}\n")
            blocked += etas.count(0.0)
            n_rows += len(etas)
    _write_manifest(out, "linkbudget", config, seed)
    return {"n_samples": n_rows, "n_blocked": blocked}


# ---------------------------------------------------------------------------
# keymatrix
# ---------------------------------------------------------------------------

def key_matrix_from_linkbudget(config: ScenarioConfig, csv_path) -> KeyMatrix:
    """Rebuild the key matrix from a linkbudget.csv intermediate."""
    start = config.span[0]
    values = np.zeros((config.n_grid_intervals, len(config.stations)))
    column = {st.name: i for i, st in enumerate(config.stations)}
    nodes, times, etas = [], [], []
    with open(csv_path, encoding="utf-8") as fh:
        header = fh.readline()
        if not header.startswith("time_utc,station,"):
            raise ValueError(f"not a linkbudget CSV: {header!r}")
        for lineno, line in enumerate(fh, start=2):
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
    time_us = np.array(times, dtype=np.int64)
    add_key_bits(values, start, config.grid_interval_seconds, config.qkd, nodes,
                 time_us, etas, config.step_seconds, lambda i: f"{csv_path}:{i + 2}: "
                 f"time_utc: {_from_us(int(time_us[i])).isoformat()}")
    return KeyMatrix(start=start, interval_seconds=config.grid_interval_seconds,
                     node_names=tuple(st.name for st in config.stations),
                     values=values)


def run_keymatrix(config: ScenarioConfig, out: Path, seed: int | None = None,
                  from_linkbudget=None) -> KeyMatrix:
    """Key matrix CSV + metadata sidecar + per-day per-station key totals."""
    out.mkdir(parents=True, exist_ok=True)
    if from_linkbudget is not None:
        matrix = key_matrix_from_linkbudget(config, from_linkbudget)
    else:
        matrix = key_matrix_for(config)
    export_key_matrix(matrix, config.qkd, out / "keymatrix.csv",
                      out / "keymatrix_meta.json")

    daily: dict[tuple[str, str], float] = defaultdict(float)
    rows, cols = np.nonzero(matrix.values)
    for m, n in zip(rows.tolist(), cols.tolist()):
        day = _day_of(matrix.interval_start(m))
        daily[day, matrix.node_names[n]] += float(matrix.values[m, n])
    with open(out / "keys_daily.csv", "w", encoding="utf-8") as fh:
        fh.write("date,station,key_bits\n")
        for (day, name), bits in sorted(daily.items()):
            fh.write(f"{day},{name},{bits:.3f}\n")
    _write_manifest(out, "keymatrix", config, seed)
    return matrix


# ---------------------------------------------------------------------------
# schedule
# ---------------------------------------------------------------------------

def run_schedule(config: ScenarioConfig, out: Path, seed: int | None = None,
                 matrix: KeyMatrix | None = None) -> dict[str, Schedule]:
    """Solve all three strategies and export schedules plus a comparison.

    S-GD and S-PD have linear objectives, so the exact DP solver realises
    them optimally; S-TD runs the KL-aware GA warm-started with the S-GD
    optimum, which guarantees its fitness stays inside the tolerance band.
    The S-GD total therefore dominates the other strategies on every run
    (checked before writing anything).
    """
    out.mkdir(parents=True, exist_ok=True)
    if matrix is None:
        matrix = key_matrix_for(config)
    ga_seed = seed if seed is not None else config.strategy.ga.seed
    weights = config.station_weights()

    sgd = solve_exact(matrix)
    spd = solve_exact(matrix, weights=weights)
    std_cfg = config.strategy_for("S-TD", seed=ga_seed)
    std = solve_ga(matrix, std_cfg, seed_schedules=[sgd])
    schedules = {"S-GD": sgd, "S-PD": spd, "S-TD": std}

    for kind, sched in schedules.items():
        if not is_feasible(sched, matrix.n_intervals, matrix.n_nodes):
            raise RuntimeError(f"{kind} produced an infeasible schedule")
        if sgd.total < sched.total - 1e-9:
            raise RuntimeError(f"S-GD total {sgd.total} below {kind} total "
                               f"{sched.total}; objective dominance violated")

    target = Distribution(std_cfg.normalized_weights(matrix.n_nodes))

    def kl_against_weights(sched: Schedule) -> float:
        try:
            return kl_divergence(delivered_distribution(sched, matrix), target)
        except ValueError:
            return math.inf

    with open(out / "strategy_comparison.csv", "w", encoding="utf-8") as fh:
        fh.write("strategy,total_bits,kl_vs_weights,node_name,node_bits\n")
        for kind in ("S-GD", "S-PD", "S-TD"):
            sched = schedules[kind]
            kl = kl_against_weights(sched)
            kl_txt = "Inf" if math.isinf(kl) else f"{kl:.6f}"
            for n, name in enumerate(matrix.node_names):
                fh.write(f"{kind},{sched.total:.3f},{kl_txt},{name},"
                         f"{sched.node_totals[n]:.3f}\n")

    for kind, sched in schedules.items():
        tag = kind.replace("-", "_").lower()
        write_schedule_csv(sched, matrix, out / f"schedule_{tag}.csv")
        summary = schedule_summary(sched, matrix, config.strategy_for(kind, ga_seed),
                                   ga_seed)
        dump_summary(summary, out / f"summary_{tag}.json")
    _write_manifest(out, "schedule", config, ga_seed)
    return schedules


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def _loss_extremes(config: ScenarioConfig, accesses: list[AccessInterval]):
    """Min/max total loss per station over its visible samples (no cloud)."""
    lo: dict[str, float] = {}
    hi: dict[str, float] = {}
    for iv in accesses:
        total = loss_columns(iv.elevation_deg.tolist(), iv.slant_range_km.tolist(),
                             [0] * len(iv.time_us), config.optics).total_db
        name = iv.station.name
        lo[name] = min(lo.get(name, math.inf), *total)
        hi[name] = max(hi.get(name, -math.inf), *total)
    return lo, hi


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
    out.mkdir(parents=True, exist_ok=True)
    from dataclasses import replace

    def measure(sub, value, accesses):
        lo, hi = _loss_extremes(sub, accesses)
        return {
            "value": value,
            "duration_s": union_duration_seconds(accesses, sub.step_seconds),
            "station_sum_s": sum(iv.duration_seconds for iv in accesses),
            "lo": lo, "hi": hi,
        }

    rows: list[dict] = []
    if variable == "altitude":
        if config.tle is None:
            raise ConfigError("tle", "an altitude sweep needs a TLE; "
                                     "the config gives only an ephemeris")
        for entry in config.sweep_altitudes:
            altitude = float(entry["altitude_km"])
            elements = elements_for_altitude(config.tle, altitude,
                                             raan_deg=entry.get("raan_deg"))
            sub = replace(config, tle=elements, ephemeris=None)
            rows.append(measure(sub, altitude, compute_accesses(sub)))
    else:
        # access geometry does not depend on the optics
        accesses = compute_accesses(config)
        for urad in config.sweep_divergences_urad:
            sub = replace(config, optics=replace(config.optics,
                                                 divergence_rad=urad * 1e-6))
            rows.append(measure(sub, urad, accesses))

    path = out / f"sweep_{variable}.csv"
    unit = "altitude_km" if variable == "altitude" else "divergence_urad"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{unit},total_visible_duration_s,station_sum_duration_s,"
                 f"station,min_total_db,max_total_db\n")
        for row in rows:
            for st in config.stations:
                lo = row["lo"].get(st.name, math.inf)
                hi = row["hi"].get(st.name, -math.inf)
                hi = math.inf if math.isinf(lo) else hi
                fh.write(f"{row['value']:g},{row['duration_s']:.1f},"
                         f"{row['station_sum_s']:.1f},{st.name},"
                         f"{_fmt_db(lo)},{_fmt_db(hi)}\n")
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
    try:
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
    return 0


if __name__ == "__main__":
    sys.exit(main())
