"""Output checks and exact counters, read back from the `--out` files only.

`check_chain(out_root, step_seconds)` re-reads what each chain step wrote and
returns ({step: [problems]}, counters).  A step with a problem fails the
output check; the counters are exact functions of the files.
"""
from __future__ import annotations

import json
import math
import os
from collections import defaultdict

STRATEGIES = ("S-GD", "S-PD", "S-TD")


def _rows(path) -> list[list[str]]:
    with open(path, encoding="utf-8") as fh:
        fh.readline()
        return [line.rstrip("\n").split(",") for line in fh]


def _num(text: str) -> float:
    return math.inf if text == "Inf" else float(text)


def read_key_matrix(step_dir) -> tuple[dict, dict[tuple[int, str], float]]:
    with open(os.path.join(step_dir, "keymatrix_meta.json"), encoding="utf-8") as fh:
        meta = json.load(fh)
    cells = {(int(m), name): float(bits)
             for m, name, _, bits in _rows(os.path.join(step_dir, "keymatrix.csv"))}
    return meta, cells


def schedule_problems(path, meta: dict, cells: dict) -> tuple[list[str], float]:
    """Feasibility of a schedule CSV, plus the key bits it delivers.

    A station row must follow a row of the same station or a SWITCH; the
    first row may hold anything (the program's `is_feasible` rule).
    """
    problems = []
    names = set(meta["node_names"])
    rows = _rows(path)
    if len(rows) != meta["n_intervals"]:
        problems.append(f"{len(rows)} rows for {meta['n_intervals']} intervals")
    delivered = 0.0
    prev = "SWITCH"
    for expect, (index, _, act) in enumerate(rows):
        if int(index) != expect:
            problems.append(f"row {expect} has interval_index {index}")
            break
        if act not in names and act not in ("IDLE", "SWITCH"):
            problems.append(f"interval {index}: unknown activity {act!r}")
            break
        if act in names:
            if prev not in (act, "SWITCH"):
                problems.append(f"interval {index}: {prev} -> {act} without SWITCH")
                break
            delivered += cells.get((expect, act), 0.0)
        prev = act
    return problems, delivered


def check_schedule(step_dir, meta: dict, cells: dict) -> tuple[list[str], dict]:
    problems = []
    comparison: dict[str, tuple[float, float]] = {}
    for kind, total, kl, _, _ in _rows(os.path.join(step_dir, "strategy_comparison.csv")):
        comparison[kind] = (float(total), _num(kl))
    if sorted(comparison) != sorted(STRATEGIES):
        return [f"strategies {sorted(comparison)} in strategy_comparison.csv"], {}
    for kind in STRATEGIES:
        tag = kind.replace("-", "_").lower()
        found, delivered = schedule_problems(
            os.path.join(step_dir, f"schedule_{tag}.csv"), meta, cells)
        problems += [f"{kind}: {p}" for p in found]
        reported = comparison[kind][0]
        if abs(delivered - reported) > 1e-3 + 1e-9 * abs(reported):
            problems.append(f"{kind}: schedule delivers {delivered:.3f} bits, "
                            f"comparison reports {reported:.3f}")
    (gd_total, gd_kl), (pd_total, _), (td_total, td_kl) = (
        comparison[k] for k in STRATEGIES)
    with open(os.path.join(step_dir, "summary_s_td.json"), encoding="utf-8") as fh:
        td_summary = json.load(fh)
    tolerance = td_summary["kl_tolerance"]
    share = td_total / gd_total if gd_total > 0 else math.nan
    if not gd_total >= pd_total:
        problems.append(f"S-GD total {gd_total} below S-PD total {pd_total}")
    if not gd_total >= td_total:
        problems.append(f"S-GD total {gd_total} below S-TD total {td_total}")
    if not td_kl <= gd_kl:
        problems.append(f"S-TD KL {td_kl} above S-GD KL {gd_kl}")
    if not share >= 1.0 - tolerance - 1e-12:
        problems.append(f"S-TD/S-GD total {share} below 1 - kl_tolerance")
    ga = td_summary["ga"]
    active = len({m for m, _ in cells})
    # The last two are per call: the traced run multiplies them by how often
    # it saw solve_exact and solve_ga called (run.py, sched.dp_rows and
    # sched.ga_gene_evals).
    counters = {
        "sched.std_kl": td_kl,
        "sched.std_total_share": share,
        "sched.dp_active_ratio": active / meta["n_intervals"],
        "sched.intervals": meta["n_intervals"],
        "sched.ga_genes_per_solve": ga["population"] * ga["generations"] * active,
    }
    return problems, counters


def check_chain(out_root, step_seconds: float) -> tuple[dict[str, list[str]], dict]:
    """Check every step directory under out_root; returns (problems, counters)."""
    steps = sorted(os.listdir(out_root))
    problems: dict[str, list[str]] = defaultdict(list)
    counters: dict[str, float] = {}

    def path(step, name):
        return os.path.join(out_root, step, name)

    if "access" in steps:
        passes = _rows(path("access", "access_intervals.csv"))
        counters["orbit.passes"] = len(passes)
        counters["orbit.samples"] = sum(round(float(row[3]) / step_seconds)
                                        for row in passes)
    if "linkbudget" in steps:
        rows = _rows(path("linkbudget", "linkbudget.csv"))
        counters["channel.blocked_samples"] = sum(float(row[9]) == 0.0 for row in rows)
        if counters.get("orbit.samples", len(rows)) != len(rows):
            problems["linkbudget"].append(
                f"{len(rows)} rows for {counters['orbit.samples']} access samples")
    if "keymatrix" in steps:
        meta, cells = read_key_matrix(os.path.join(out_root, "keymatrix"))
        active = len({m for m, _ in cells})
        counters["qkd.nonzero_cells"] = len(cells)
        counters["qkd.active_intervals"] = active
        if "keymatrix_from_lb" in steps:
            for name in ("keymatrix.csv", "keymatrix_meta.json"):
                with open(path("keymatrix", name), "rb") as a, \
                        open(path("keymatrix_from_lb", name), "rb") as b:
                    if a.read() != b.read():
                        problems["keymatrix_from_lb"].append(
                            f"{name} differs from the direct key matrix")
        if "schedule" in steps:
            found, sched_counters = check_schedule(
                os.path.join(out_root, "schedule"), meta, cells)
            problems["schedule"] += found
            counters.update(sched_counters)
    for step in steps:
        if not step.startswith("sweep_"):
            continue
        variable = step[len("sweep_"):]
        for row in _rows(path(step, f"sweep_{variable}.csv")):
            if len(row) != 6 or any(math.isnan(_num(v)) for v in row[4:]):
                problems[step].append(f"malformed sweep row {row}")
                break
    counters["cli.bytes_written"] = sum(
        os.path.getsize(os.path.join(base, name))
        for base, _, files in os.walk(out_root) for name in files)
    return {step: found for step, found in problems.items() if found}, counters
