"""Tests of the benchmark itself: python3 -m pytest perfbench -q

They run the real CLI on a one-day scenario, so they take a few seconds.
"""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import gen  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import verify  # noqa: E402
import worker  # noqa: E402
from satqkd import cli  # noqa: E402

SMALL = {"span": ["2016-09-19T00:00:00Z", "2016-09-20T12:00:00Z"],
         "strategy": {"ga": {"population": 10, "generations": 5, "seed": 3}}}


def small_chain(tmp: Path) -> Path:
    """Run access, linkbudget, keymatrix (both ways) and schedule; returns out root."""
    tmp.mkdir(parents=True, exist_ok=True)
    config = tmp / "config.json"
    config.write_text(json.dumps(SMALL))
    out = tmp / "out"
    for name, tail in [("access", ["access"]), ("linkbudget", ["linkbudget"]),
                       ("keymatrix", ["keymatrix"]),
                       ("keymatrix_from_lb", ["keymatrix", "--from-linkbudget",
                                              str(out / "linkbudget" / "linkbudget.csv")]),
                       ("schedule", ["schedule"])]:
        argv = tail[:1] + ["--config", str(config), "--out", str(out / name)] + tail[1:]
        assert cli.main(argv) == 0
    return out


@pytest.fixture(scope="module")
def chain(tmp_path_factory) -> Path:
    return small_chain(tmp_path_factory.mktemp("chain"))


def tree_bytes(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("workload", sorted(gen.WORKLOADS))
def test_generator_is_deterministic_per_seed(tmp_path, workload):
    gen.generate(workload, 5, str(tmp_path / "a"))
    gen.generate(workload, 5, str(tmp_path / "b"))
    gen.generate(workload, 6, str(tmp_path / "c"))
    assert tree_bytes(tmp_path / "a") == tree_bytes(tmp_path / "b")
    assert tree_bytes(tmp_path / "a") != tree_bytes(tmp_path / "c")


def test_generated_inputs_load(tmp_path):
    from satqkd.scenario import load_scenario
    for workload in sorted(gen.WORKLOADS):
        gen.generate(workload, 0, str(tmp_path / workload))
        config = load_scenario(tmp_path / workload / "config.json")
        if workload == "global-60":
            assert len(config.stations) == 60
        if workload == "week-1s-cloudy":
            assert config.cloud.frames.shape == (1008, 31, 43)


def test_clean_chain_passes_every_check(chain):
    problems, counters = verify.check_chain(chain, step_seconds=10)
    assert problems == {}
    assert counters["orbit.samples"] > 0
    assert counters["qkd.active_intervals"] <= counters["qkd.nonzero_cells"]
    assert counters["sched.intervals"] == 12960
    assert counters["sched.ga_genes_per_solve"] == 10 * 5 * counters["qkd.active_intervals"]
    assert 0 < counters["sched.std_total_share"] <= 1


def test_verifier_rejects_a_handoff_without_switch(chain, tmp_path):
    bad = tmp_path / "out"
    shutil.copytree(chain, bad)
    path = bad / "schedule" / "schedule_s_gd.csv"
    lines = path.read_text().splitlines(keepends=True)
    # the first SWITCH that leads into a station becomes IDLE
    k = next(i for i in range(1, len(lines) - 1) if lines[i].endswith(",SWITCH\n")
             and not lines[i + 1].endswith((",IDLE\n", ",SWITCH\n")))
    lines[k] = lines[k].replace(",SWITCH\n", ",IDLE\n")
    path.write_text("".join(lines))
    problems, _ = verify.check_chain(bad, step_seconds=10)
    assert any("without SWITCH" in p for p in problems["schedule"])


def test_verifier_rejects_a_perturbed_from_linkbudget_matrix(chain, tmp_path):
    bad = tmp_path / "out"
    shutil.copytree(chain, bad)
    path = bad / "keymatrix_from_lb" / "keymatrix.csv"
    lines = path.read_text().splitlines(keepends=True)
    m, name, start, bits = lines[1].rstrip("\n").split(",")
    lines[1] = f"{m},{name},{start},{float(bits) * (1 + 1e-12)!r}\n"
    path.write_text("".join(lines))
    problems, _ = verify.check_chain(bad, step_seconds=10)
    assert problems == {"keymatrix_from_lb": ["keymatrix.csv differs from the "
                                              "direct key matrix"]}


def test_unreadable_outputs_fail_every_call(chain, tmp_path):
    bad = tmp_path / "out"
    shutil.copytree(chain, bad)
    (bad / "keymatrix" / "keymatrix_meta.json").unlink()
    steps = [{"name": name, "times": [1.0, 1.0], "codes": [0, 0],
              "same_bytes": [True, True], "digests": {}}
             for name in ("access", "keymatrix", "schedule")]
    problems, counters = run.check_outputs(bad, 10, steps)
    assert sorted(problems) == ["access", "keymatrix", "schedule"]
    assert counters == {}
    assert run.count_failures([steps], problems) == (6, 6)


def test_counters_and_digests_repeat_across_runs(chain, tmp_path):
    again = small_chain(tmp_path)
    assert verify.check_chain(again, 10) == verify.check_chain(chain, 10)
    assert worker.digests(str(again)) == worker.digests(str(chain))


def test_self_time_and_coverage():
    spans = [("call.x", 0.0, 10.0, -1),
             ("cli.run_x", 1.0, 9.0, 0),
             ("a.f", 2.0, 5.0, 1),
             ("a.f", 6.0, 7.0, 1),
             ("b.g", 2.5, 3.0, 2)]
    totals = tracer.layer_totals(spans)
    assert totals["a.f"] == {"s": 4.0, "self_s": 3.5, "calls": 2}
    assert totals["cli.run_x"]["self_s"] == 4.0
    # the run_x span covers 8 s, 4 s of them its own glue
    assert tracer.coverage(spans, "call.x") == pytest.approx(0.4)


def test_tracer_patches_every_lookup_site_and_restores_it():
    original = cli.total_loss
    t = tracer.Tracer()
    assert t.install() == []
    try:
        from satqkd import qkd
        assert cli.total_loss is qkd.total_loss is not original
    finally:
        t.uninstall()
    assert cli.total_loss is original


def test_metric_tables_match_benchmark_json():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(gen.WORKLOADS)


def test_fails_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "global-60",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60,
                          env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    assert proc.returncode != 0
    assert proc.stdout == ""
