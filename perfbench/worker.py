"""One fresh process that imports satqkd from the checkout and runs it.

    python3 perfbench/worker.py setup SRC CONFIG
        prints the seconds taken to import satqkd.cli and load CONFIG once,
        and a calibration measured right after it.
    python3 perfbench/worker.py chain SRC REQUEST.json RESULT.json
        runs a workload's subcommand chain through `satqkd.cli.main(argv)`,
        the function the `satqkd` script calls, and writes the timings and
        a calibration measured after every call.

`run.py` starts this with every BLAS/OpenMP pool pinned to one thread.
"""
from __future__ import annotations

import contextlib
import hashlib
import json
import os
import resource
import sys
import time
import traceback
from datetime import datetime, timedelta, timezone


def calibrate() -> float:
    """Seconds for a fixed loop of datetime and dict work, like satqkd's.

    The machine is shared, and its speed swings by tens of percent over
    seconds to minutes.  The worker calibrates after every call and every
    set-up probe, and `run.py` scales the times by the calibration, which
    cancels much of the swing from one run to the next.
    """
    start = time.perf_counter()
    t0 = datetime(2016, 9, 19, tzinfo=timezone.utc)
    total = 0.0
    counts: dict[int, int] = {}
    for i in range(45000):
        total += ((t0 + timedelta(seconds=i)) - t0).total_seconds()
        counts[i % 97] = counts.get(i % 97, 0) + 1
    return time.perf_counter() - start


def peak_rss_mb() -> float:
    """Peak resident memory of this process (VmHWM), in MiB.

    Not ru_maxrss: across fork and exec that keeps the parent's peak.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def import_satqkd(src: str):
    sys.path.insert(0, src)
    import satqkd.cli
    where = os.path.realpath(satqkd.__file__)
    if not where.startswith(os.path.realpath(src) + os.sep):
        raise ImportError(f"satqkd imported from {where}, not from {src}")
    return satqkd.cli


def digests(out_dir: str) -> dict[str, str]:
    found = {}
    for base, _, files in os.walk(out_dir):
        for name in files:
            path = os.path.join(base, name)
            with open(path, "rb") as fh:
                found[os.path.relpath(path, out_dir)] = hashlib.sha256(fh.read()).hexdigest()
    return dict(sorted(found.items()))


def call(main, argv: list[str]) -> tuple[float, int]:
    """(wall seconds, exit code) of one `satqkd` invocation."""
    start = time.perf_counter()
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception:
        traceback.print_exc()
        code = 1
    return time.perf_counter() - start, int(code or 0)


def run_step(main, step: dict, calibration: list[float], tracer=None) -> None:
    """One call, then one calibration appended to `calibration`."""
    with tracer.span(f"call.{step['name']}") if tracer else contextlib.nullcontext():
        seconds, code = call(main, step["argv"])
    found = digests(step["out"])
    if step["digests"] is None:
        step["digests"] = found
    step["times"].append(seconds)
    step["codes"].append(code)
    step["same_bytes"].append(found == step["digests"])
    calibration.append(calibrate())


def new_steps(calls) -> list[dict]:
    return [{"name": name, "argv": argv, "out": argv[argv.index("--out") + 1],
             "times": [], "codes": [], "same_bytes": [], "digests": None}
            for name, argv in calls]


def run_chain(src: str, request: dict) -> dict:
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    from tracer import Tracer
    from workloads import SHARED_STEPS, chain_argv

    main = import_satqkd(src).main
    steps = new_steps(chain_argv(request["workload"], request["inputs"], request["out"]))
    calibration = [calibrate()]
    started = time.perf_counter()
    for step in steps:
        run_step(main, step, calibration)
    if not request["trace"]:
        # After one pass over the chain, the steps every workload shares run
        # again, round-robin, until --seconds have passed.  Rounds spread
        # their samples over the run, which evens out the multi-second
        # swings in CPU speed of a shared machine.
        shared = [step for step in steps if step["name"] in SHARED_STEPS]
        while shared and time.perf_counter() - started < request["seconds"]:
            for step in shared:
                run_step(main, step, calibration)
    result = {"steps": steps, "calibration": calibration,
              "peak_rss_mb": peak_rss_mb()}

    if request["trace"]:
        tracer = Tracer()
        result["missing_targets"] = tracer.install()
        traced = new_steps(chain_argv(request["workload"], request["inputs"],
                                      request["traced_out"]))
        for step in traced:
            run_step(main, step, calibration, tracer)
        tracer.uninstall()
        tracer.write(request["spans"])
        result["traced"] = traced
    return result


def main(argv: list[str]) -> int:
    mode, src = argv[0], argv[1]
    if mode == "setup":
        start = time.perf_counter()
        import_satqkd(src)
        sys.modules["satqkd.scenario"].load_scenario(argv[2])
        seconds = time.perf_counter() - start
        print(json.dumps({"setup_s": seconds, "calibration_s": calibrate()}))
        return 0
    with open(argv[2], encoding="utf-8") as fh:
        request = json.load(fh)
    result = run_chain(src, request)
    with open(argv[3], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
