"""The benchmark's workloads: inputs, default seed, subcommand chain, reason.

Each workload is a chain of `satqkd` subcommand calls.  A step is
(metric name, argv tail); `{in}` expands to the generated input directory
and `{out}` to the chain's output root.  Every call gets `--config
{in}/config.json` and `--out {out}/<metric name>`.

Baseline machine for the figures quoted in the reasons: 2 cores (`nproc`),
Python 3.11.7, numpy 2.4.6, every BLAS/OpenMP pool pinned to one thread.
"""

# Steps every workload runs, so BENCHMARK.json can time them.
SHARED_STEPS = ("access", "linkbudget", "keymatrix", "keymatrix_from_lb")

WORKLOADS = {
    "micius-week": {
        "why": "the paper's headline scenario: the built-in 11-station week at "
               "10 s with the GA at 200x500; the GA S-TD and two exact DPs "
               "dominate, the sweeps load orbit and channel",
        "default_seed": 0,
        "inputs": ["config.json (default profile, strategy.ga.seed = seed)"],
        "chain": [
            ("access", ["access"]),
            ("linkbudget", ["linkbudget"]),
            ("keymatrix", ["keymatrix"]),
            ("keymatrix_from_lb",
             ["keymatrix", "--from-linkbudget", "{out}/linkbudget/linkbudget.csv"]),
            ("schedule", ["schedule"]),
            ("sweep_altitude", ["sweep", "--variable", "altitude"]),
            ("sweep_divergence", ["sweep", "--variable", "divergence"]),
        ],
    },
    "week-1s-cloudy": {
        "why": "the default week at 1 s with a seeded drifting-blob cloud grid: "
               "38k samples make the per-sample orbit, cloud, channel and qkd "
               "loops and CSV I/O dominate; the scheduler never runs",
        "default_seed": 7,
        "inputs": ["config.json (step_seconds 1, cloud grid)",
                   "clouds.txt (1 deg, 18-48N x 84-126E, 1008 ten-minute frames)"],
        "chain": [
            ("access", ["access"]),
            ("linkbudget", ["linkbudget"]),
            ("keymatrix", ["keymatrix"]),
            ("keymatrix_from_lb",
             ["keymatrix", "--from-linkbudget", "{out}/linkbudget/linkbudget.csv"]),
        ],
    },
    "global-60": {
        "why": "60 seeded stations worldwide with the GA at 50x50: 5.5x the "
               "per-station geometry, 11x the active intervals of micius-week, "
               "and a 60-node KL loop in the GA",
        "default_seed": 1,
        "inputs": ["config.json (stations file, GA 50x50, strategy.ga.seed = seed)",
                   "stations.json (60 stations, latitude uniform in sin over "
                   "+-60 deg, any longitude, random altitude and weight)"],
        "chain": [
            ("access", ["access"]),
            ("linkbudget", ["linkbudget"]),
            ("keymatrix", ["keymatrix"]),
            ("keymatrix_from_lb",
             ["keymatrix", "--from-linkbudget", "{out}/linkbudget/linkbudget.csv"]),
            ("schedule", ["schedule"]),
        ],
    },
}


def chain_argv(workload: str, inputs: str, out: str) -> list[tuple[str, list[str]]]:
    """The workload's calls as (step name, full `satqkd` argv)."""
    calls = []
    for name, tail in WORKLOADS[workload]["chain"]:
        argv = [arg.format(**{"in": inputs, "out": out}) for arg in tail]
        argv[1:1] = ["--config", f"{inputs}/config.json", "--out", f"{out}/{name}"]
        calls.append((name, argv))
    return calls
