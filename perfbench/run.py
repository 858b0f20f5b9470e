"""satqkd benchmark: seeded workloads driven through the real CLI.

    python3 perfbench/run.py --workload micius-week --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all            # every workload, untraced

Run from anywhere inside a checkout: satqkd is imported from the checkout's
`src/`, never from an installed copy.  Each run generates its inputs from
the seed, times set-up in fresh processes, runs the workload's subcommand
chain in one fresh worker process, checks every output file and prints one
line per metric, then one JSON object as the last line.

`--trace 0` reports the end-to-end metrics.  `--trace 1` runs the chain
once untraced and once with spans around satqkd's public functions, and
reports the per-layer metrics; the tracing overhead is the difference.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from gen import generate  # noqa: E402
from tracer import TARGETS, coverage, layer_totals, read_spans  # noqa: E402
from verify import check_chain  # noqa: E402
from workloads import SHARED_STEPS, WORKLOADS  # noqa: E402

ROOT = HERE.parent
REFERENCE = HERE / "reference.json"
SETUP_PROBES = 8
# Times are reported at the machine speed where worker.calibrate() takes this
# long: raw seconds * CALIBRATION_REF_S / calibration.  A chain step uses the
# mean calibration of its worker, a set-up probe its own.
CALIBRATION_REF_S = 0.070
WORKER_TIMEOUT_S = 160
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

ALL_STEPS = SHARED_STEPS + ("schedule", "sweep_altitude", "sweep_divergence")
# Shared steps timed as BENCHMARK.json metrics.  keymatrix_from_lb is left
# out: its 0.1-0.9 s calls spread by more than 25% between runs.
TIMED_STEPS = ("access", "linkbudget", "keymatrix")

END_TO_END = (
    [("setup_s", "s")]
    + [(f"{step}_s", "s") for step in TIMED_STEPS]
    + [("pipeline_s", "s"), ("peak_rss_mb", "MB")]
)
COUNTERS = (
    ("orbit.passes", "count"), ("orbit.samples", "count"),
    ("channel.blocked_samples", "count"), ("qkd.nonzero_cells", "count"),
    ("qkd.active_intervals", "count"), ("sched.dp_rows", "count"),
    ("sched.dp_active_ratio", "ratio"), ("sched.ga_gene_evals", "count"),
    ("sched.std_kl", "nats"), ("sched.std_total_share", "ratio"),
    ("cli.bytes_written", "bytes"),
)
PER_LAYER = (
    [(f"{target}.{kind}", unit) for target in TARGETS
     for kind, unit in (("s", "s"), ("self_s", "s"), ("calls", "count"))]
    + list(COUNTERS)
    + [("trace.overhead_s", "s")]
    + [(f"trace.coverage.{step}", "ratio") for step in ALL_STEPS]
)


def worker_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONHASHSEED"] = "0"
    return env


def run_worker(args: list[str], timeout: float) -> str:
    proc = subprocess.run([sys.executable, str(HERE / "worker.py"), *args],
                          env=worker_env(), cwd=ROOT, capture_output=True,
                          text=True, timeout=timeout)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise RuntimeError(f"worker {args[0]} exited with {proc.returncode}")
    return proc.stdout


def setup_probe(config: Path) -> tuple[float, float]:
    """(seconds, calibration) of one fresh process that imports satqkd and
    loads the config."""
    out = json.loads(run_worker(["setup", str(ROOT / "src"), str(config)], 60))
    return out["setup_s"], out["calibration_s"]


def load_reference() -> dict:
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)


def chain_digests(steps: list[dict]) -> dict[str, str]:
    return {f"{step['name']}/{path}": digest for step in steps
            for path, digest in step["digests"].items()}


def count_failures(step_lists: list[list[dict]], problems: dict) -> tuple[int, int]:
    """(calls attempted, calls failed).

    A call fails when it exits non-zero, when its output bytes differ from
    the first call of the same step, or when its step fails an output check.
    """
    attempted = failed = 0
    first = {step["name"]: step["digests"] for step in step_lists[0]}
    for steps in step_lists:
        for step in steps:
            calls = len(step["times"])
            attempted += calls
            if problems.get(step["name"]) or step["digests"] != first[step["name"]]:
                failed += calls
            else:
                failed += sum(code != 0 or not same for code, same
                              in zip(step["codes"], step["same_bytes"]))
    return attempted, failed


def check_outputs(out: Path, step_seconds: float, steps: list[dict]) -> tuple[dict, dict]:
    """check_chain, with every step failed when the outputs cannot be read."""
    try:
        return check_chain(out, step_seconds)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return {step["name"]: [f"outputs unreadable: {exc!r}"] for step in steps}, {}


def run_workload(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    spec = WORKLOADS[workload]
    work = ROOT / ".perfbench" / f"{workload}-trace{int(trace)}"
    shutil.rmtree(work, ignore_errors=True)
    inputs, out, traced_out = work / "inputs", work / "out", work / "out_traced"
    generate(workload, seed, str(inputs))
    with open(inputs / "config.json", encoding="utf-8") as fh:
        step_seconds = float(json.load(fh).get("step_seconds", 10))

    request = {"workload": workload, "inputs": str(inputs), "out": str(out),
               "seconds": seconds, "trace": trace, "traced_out": str(traced_out),
               "spans": str(work / "spans.csv")}
    with open(work / "request.json", "w", encoding="utf-8") as fh:
        json.dump(request, fh)
    # Half the set-up probes run before the chain and half after it, so they
    # do not all fall into one slow or fast spell of the machine.
    probes = []
    if not trace:
        setup_probe(inputs / "config.json")  # warms the bytecode and file caches
        probes += [setup_probe(inputs / "config.json") for _ in range(SETUP_PROBES // 2)]
    run_worker(["chain", str(ROOT / "src"), str(work / "request.json"),
                str(work / "result.json")], WORKER_TIMEOUT_S)
    if not trace:
        probes += [setup_probe(inputs / "config.json")
                   for _ in range(SETUP_PROBES - SETUP_PROBES // 2)]
    with open(work / "result.json", encoding="utf-8") as fh:
        result = json.load(fh)

    steps = result["steps"]
    problems, counters = check_outputs(out, step_seconds, steps)
    if trace and result["missing_targets"]:
        # A renamed or removed function would otherwise read 0, like a gain.
        problems["trace"] = [f"satqkd lacks traced function {name}"
                             for name in result["missing_targets"]]
    attempted, failed = count_failures(
        [steps, result["traced"]] if trace else [steps], problems)
    speed = CALIBRATION_REF_S / statistics.mean(result["calibration"])
    raw = {step["name"]: statistics.median(step["times"]) for step in steps}
    medians = {name: value * speed for name, value in raw.items()}
    pipeline = sum(medians.values())

    digests = chain_digests(steps)
    expected = load_reference().get(workload, {}).get(str(seed))
    if expected is None:
        digest_note = f"no reference digests for seed {seed}"
    else:
        changed = sorted(k for k in expected.keys() | digests.keys()
                         if expected.get(k) != digests.get(k))
        digest_note = ("output bytes match the reference" if not changed else
                       f"OUTPUT BYTES CHANGED vs reference in {len(changed)} "
                       f"files: {', '.join(changed[:6])}")

    info = {f"{name}_s": value for name, value in medians.items()
            if name not in TIMED_STEPS}
    info["calibration_s"] = statistics.mean(result["calibration"])
    if not trace:
        info["unscaled.setup_s"] = statistics.median(t for t, _ in probes)
        for step in TIMED_STEPS:
            info[f"unscaled.{step}_s"] = raw[step]
        info["unscaled.pipeline_s"] = sum(raw.values())
    info["ops_failed_share"] = failed / attempted
    for key in ("sched.std_kl", "sched.std_total_share"):
        if key in counters:
            info[key.split(".")[1]] = counters[key]

    if trace:
        spans = read_spans(request["spans"])
        layers = layer_totals(spans)
        metrics = {}
        for target in TARGETS:
            entry = layers.get(target, {"s": 0.0, "self_s": 0.0, "calls": 0})
            for kind in ("s", "self_s", "calls"):
                metrics[f"{target}.{kind}"] = entry[kind]
        # Rows and genes the solvers were handed, summed over the calls the
        # trace saw: sched.dp_rows counts every interval of each solve_exact
        # call, an upper bound on the rows its DP walks.
        counters["sched.dp_rows"] = (layers.get("sched.solve_exact", {}).get("calls", 0)
                                     * counters.get("sched.intervals", 0))
        counters["sched.ga_gene_evals"] = (
            layers.get("sched.solve_ga", {}).get("calls", 0)
            * counters.get("sched.ga_genes_per_solve", 0))
        for name, _ in COUNTERS:
            metrics[name] = counters.get(name, 0)
        traced_pipeline = sum(step["times"][0] * speed for step in result["traced"])
        metrics["trace.overhead_s"] = traced_pipeline - pipeline
        for step in ALL_STEPS:
            metrics[f"trace.coverage.{step}"] = coverage(spans, f"call.{step}")
        units = dict(PER_LAYER)
    else:
        setup = statistics.median(t * CALIBRATION_REF_S / cal for t, cal in probes)
        metrics = {"setup_s": setup, "pipeline_s": pipeline,
                   "peak_rss_mb": result["peak_rss_mb"]}
        for step in TIMED_STEPS:
            metrics[f"{step}_s"] = medians[step]
        units = dict(END_TO_END)
        metrics = {name: metrics[name] for name, _ in END_TO_END}

    shutil.rmtree(out, ignore_errors=True)
    shutil.rmtree(traced_out, ignore_errors=True)
    return {
        "workload": workload, "seed": seed,
        "samples": {step["name"]: len(step["times"]) for step in steps},
        "why": spec["why"], "problems": problems, "digest_note": digest_note,
        "info": info,
        "line": {"correct": not problems and failed == 0,
                 "attempted": attempted, "failed": failed,
                 "metrics": {name: {"value": value, "unit": units[name]}
                             for name, value in metrics.items()}},
    }


def report(run: dict) -> None:
    line = run["line"]
    print(f"== {run['workload']} seed {run['seed']}: {run['why']}")
    for name, m in line["metrics"].items():
        print(f"  {name:42s} {m['value']:.6g} {m['unit']}")
    print("  -- also measured (not BENCHMARK.json metrics):")
    for name, value in run["info"].items():
        print(f"  {name:42s} {value}")
    print(f"  calls {line['attempted']}, failed {line['failed']}; "
          f"samples per step {run['samples']}")
    print(f"  {run['digest_note']}")
    for step, problems in sorted(run["problems"].items()):
        for problem in problems:
            print(f"  CHECK FAILED {step}: {problem}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="satqkd benchmark")
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=None,
                        help="input seed (default: the workload's own)")
    parser.add_argument("--seconds", type=int, default=25,
                        help="repeat the short steps until this much time has passed")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed is not None and args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (ROOT / "src" / "satqkd" / "__init__.py").is_file():
        print(f"no satqkd sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    lines = {}
    for name in names:
        seed = WORKLOADS[name]["default_seed"] if args.seed is None else args.seed
        run = run_workload(name, seed, args.seconds, bool(args.trace))
        report(run)
        lines[name] = run["line"]
    print(json.dumps(lines[names[0]] if len(names) == 1 else lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
