"""Acceptance suite: one test per criterion, one PASS line each.

Run `pytest tests/test_acceptance.py -s` to see the per-criterion lines.

 1. Closed-form equations vs independently written reference evaluations,
    1e-9 relative on >= 20 points each, under 1 s.
 2. Trend reproduction: min total loss monotone in divergence, visible
    duration monotone in altitude; LEO-zenith absolute loss at 10 urad within
    +/-3 dB of 20.29 dB under the half beam-radius convention.  Under 2 min.
 3. Micius-class week: weekly night-time union duration within +/-20 percent
    of 12240 s; daily availability near 30 min; zero-cloud weekly key totals
    positive and within one order of magnitude across stations.  Under 60 s.
 4. Exact solver equals exhaustive enumeration on 1000 seeded instances
    (N<=3, M<=8); default-config GA reaches >=98 percent of exact on >=95 of
    100 seeded instances (N<=4, M<=20).  Under 5 min.
 5. Strategy properties on a fixed two-week synthetic scenario over 100
    seeds: feasibility of every schedule, S-GD total dominance, S-TD KL no
    worse than S-GD.  Under 10 min.
 6. Overcast over one station for one pass zeroes exactly that station's
    keys for that pass, bit-exact elsewhere.  Under 30 s.
 7. Byte-identical outputs for every subcommand across two runs with the
    same config and seed.
"""
from __future__ import annotations

import math
import time
from datetime import datetime, timezone
from pathlib import Path

import numpy as np
import pytest

from conftest import dense, enumeration_oracle, key_matrix

from satqkd.channel import (
    OpticalParams,
    atmospheric_loss,
    beam_width,
    geometric_loss,
    total_loss,
)
from satqkd.cloud import CloudGrid, cloud_loss, query
from satqkd.orbit import LookAngles, _from_us
from satqkd.qkd import KeyMatrix, QkdParams, decoy_estimate, gain_and_qber, gllp_rate
from satqkd.sched import (
    Distribution,
    GaConfig,
    StrategyConfig,
    delivered_distribution,
    is_feasible,
    kl_divergence,
    solve_exact,
    solve_ga,
)
from satqkd.scenario import compute_accesses, key_matrix_for, micius_week_config
from satqkd.cli import (
    run_access,
    run_keymatrix,
    run_linkbudget,
    run_schedule,
    run_sweep,
)

UTC = timezone.utc


def _report(num: int, name: str, started: float, budget_s: float | None) -> None:
    elapsed = time.monotonic() - started
    if budget_s is not None:
        assert elapsed < budget_s, f"criterion {num} exceeded {budget_s}s ({elapsed:.1f}s)"
        print(f"\nACCEPTANCE {num} ({name}): PASS  [{elapsed:.1f}s / {budget_s:.0f}s]")
    else:
        print(f"\nACCEPTANCE {num} ({name}): PASS  [{elapsed:.1f}s]")


def rel_err(got: float, want: float) -> float:
    if got == want:
        return 0.0
    return abs(got - want) / max(abs(got), abs(want))


# ---------------------------------------------------------------------------
# 1. closed-form equation suite
# ---------------------------------------------------------------------------

def test_criterion_1_closed_forms():
    t0 = time.monotonic()
    checked = 0

    # reference evaluations, written independently of the package code
    def ref_beam(lam, phi, l_m):
        return math.sqrt((lam / (math.pi * phi)) ** 2 + (phi * l_m) ** 2)

    def ref_geo_db(lam, phi, l_m, d_r, half):
        w = ref_beam(lam, phi, l_m)
        if half:
            w = w / 2.0
        f = 1.0 - math.exp(-(d_r ** 2) / (2.0 * w ** 2))
        return -10.0 * math.log10(f)

    def ref_gain_qber(mu_i, eta, y0, e0, ed):
        hit = 1.0 - math.exp(-eta * mu_i)
        q = y0 + hit
        return q, (e0 * y0 + ed * hit) / q

    def ref_decoy(p: QkdParams, eta):
        qm, _ = ref_gain_qber(p.mu, eta, p.y0, p.e0, p.e_detector)
        qn, en = ref_gain_qber(p.nu, eta, p.y0, p.e0, p.e_detector)
        y1 = (p.mu / (p.mu * p.nu - p.nu ** 2)) * (
            qn * math.exp(p.nu)
            - qm * math.exp(p.mu) * p.nu ** 2 / p.mu ** 2
            - (p.mu ** 2 - p.nu ** 2) / p.mu ** 2 * p.y0)
        y1 = min(1.0, max(0.0, y1))
        q1 = y1 * p.mu * math.exp(-p.mu)
        e1 = ((en * qn * math.exp(p.nu) - p.e0 * p.y0) / (y1 * p.nu)
              if y1 * p.nu > 0 else 1.0)
        return y1, q1, min(1.0, max(0.0, e1))

    def ref_h2(x):
        return 0.0 if x <= 0 or x >= 1 else -x * math.log(x, 2) - (1 - x) * math.log(1 - x, 2)

    def ref_gllp(p: QkdParams, eta):
        qm, em = ref_gain_qber(p.mu, eta, p.y0, p.e0, p.e_detector)
        _, q1, e1 = ref_decoy(p, eta)
        return max(0.0, p.q_factor * (-p.f_e * qm * ref_h2(em) + q1 * (1 - ref_h2(e1))))

    lam, d_r = 1550e-9, 1.2
    ranges_km = [300.0, 500.0, 1000.0, 2500.0, 5000.0, 35863.0]
    divs_urad = [1.0, 3.0, 5.0, 10.0]
    for urad in divs_urad:
        params = OpticalParams(divergence_rad=urad * 1e-6)
        half = OpticalParams(divergence_rad=urad * 1e-6, beam_convention="half")
        for rng in ranges_km:
            assert rel_err(beam_width(rng, params),
                           ref_beam(lam, urad * 1e-6, rng * 1e3)) < 1e-9
            assert rel_err(geometric_loss(rng, params),
                           ref_geo_db(lam, urad * 1e-6, rng * 1e3, d_r, False)) < 1e-9
            assert rel_err(geometric_loss(rng, half),
                           ref_geo_db(lam, urad * 1e-6, rng * 1e3, d_r, True)) < 1e-9
            checked += 3

    for elev in np.linspace(1.0, 90.0, 24):
        assert rel_err(atmospheric_loss(float(elev), 2.0),
                       2.0 / math.sin(math.radians(float(elev)))) < 1e-9
        checked += 1

    for alpha in range(0, 150, 7):
        want = -10.0 * math.log10((150 - alpha) / 150.0)
        assert rel_err(cloud_loss(alpha), want) < 1e-9 or (alpha == 0 and want == 0)
        checked += 1

    table1 = QkdParams()
    etas = [10.0 ** (-db / 10.0) for db in np.linspace(0.0, 60.0, 25)]
    for eta in etas:
        for mu_i in (table1.mu, table1.nu, 0.3):
            got = gain_and_qber(mu_i, eta, table1)
            want = ref_gain_qber(mu_i, eta, table1.y0, table1.e0, table1.e_detector)
            assert rel_err(got[0], want[0]) < 1e-9
            assert rel_err(got[1], want[1]) < 1e-9
            checked += 2
        got = decoy_estimate(table1, eta)
        want = ref_decoy(table1, eta)
        for g, w in zip(got, want):
            assert rel_err(g, w) < 1e-9
        checked += 3
        got_rate = gllp_rate(eta, table1).rate_per_pulse
        assert rel_err(got_rate, ref_gllp(table1, eta)) < 1e-9
        checked += 1

    rng = np.random.default_rng(12345)
    for _ in range(25):
        p = rng.dirichlet(np.ones(5))
        q = rng.dirichlet(np.ones(5))
        got = kl_divergence(Distribution(tuple(p / p.sum())),
                            Distribution(tuple(q / q.sum())))
        want = sum(pi * math.log(pi / qi) for pi, qi in zip(p / p.sum(), q / q.sum())
                   if pi > 0)
        assert rel_err(got, want) < 1e-9
        checked += 1

    assert checked >= 8 * 20  # at least 20 points for each of the 8 equations
    _report(1, "closed-form equation suite", t0, 1.0)


# ---------------------------------------------------------------------------
# 2. Table-2 trend reproduction
# ---------------------------------------------------------------------------

def test_criterion_2_trend_reproduction(tmp_path):
    t0 = time.monotonic()
    config = micius_week_config()

    alt_rows = run_sweep(config, "altitude", tmp_path / "alt")
    altitudes = [row["value"] for row in alt_rows]
    assert altitudes == [500.0, 2500.0, 5000.0, 35863.0]
    durations = [row["duration_s"] for row in alt_rows]
    assert all(b > a for a, b in zip(durations, durations[1:])), durations
    sums = [row["station_sum_s"] for row in alt_rows]
    assert all(b >= a for a, b in zip(sums, sums[1:])), sums

    div_rows = run_sweep(config, "divergence", tmp_path / "div")
    assert [row["value"] for row in div_rows] == [1.0, 3.0, 5.0, 10.0]
    for station in config.stations:
        mins = [row["lo"].get(station.name, math.inf) for row in div_rows]
        finite = [v for v in mins if not math.isinf(v)]
        assert len(finite) == 4, f"{station.name} never visible"
        assert all(b > a for a, b in zip(finite, finite[1:])), (station.name, finite)

    # absolute LEO-zenith check under the documented half-spot convention
    half = OpticalParams(beam_convention="half")
    zenith = total_loss(LookAngles(90.0, 0.0, 500.0), 0, half)
    assert abs(zenith.total_db - 20.29) <= 3.0, zenith.total_db
    _report(2, "Table-2 trend reproduction", t0, 120.0)


# ---------------------------------------------------------------------------
# 3. Micius-class week
# ---------------------------------------------------------------------------

def test_criterion_3_micius_week(tmp_path):
    t0 = time.monotonic()
    config = micius_week_config()
    info = run_access(config, tmp_path / "access")

    union = info["union_seconds"]
    assert abs(union - 12240.0) / 12240.0 <= 0.20, union

    daily = list(info["daily_union_seconds"].values())
    mean_daily_minutes = sum(daily) / len(daily) / 60.0
    assert abs(mean_daily_minutes - 30.0) / 30.0 <= 0.30, mean_daily_minutes

    matrix = run_keymatrix(config, tmp_path / "keys")
    _, node, bits = matrix.nonzero()
    weekly = np.bincount(node, weights=bits, minlength=matrix.n_nodes)
    assert np.all(weekly > 0.0), weekly
    assert weekly.max() / weekly.min() <= 10.0, weekly
    _report(3, "Micius-class week", t0, 60.0)


# ---------------------------------------------------------------------------
# 4. scheduler oracle equivalence
# ---------------------------------------------------------------------------

def test_criterion_4_scheduler_oracles():
    t0 = time.monotonic()

    # exact DP vs exhaustive enumeration; quarter-integer entries keep all
    # floating-point sums exact, so equality is literal
    rng = np.random.default_rng(40_040)
    for _ in range(1000):
        m = int(rng.integers(1, 9))
        n = int(rng.integers(1, 4))
        values = rng.integers(0, 64, size=(m, n)).astype(float) * 0.25
        values[rng.random(size=values.shape) < 0.25] = 0.0
        got = solve_exact(key_matrix(values))
        assert got.objective == enumeration_oracle(values)
        assert is_feasible(got, m, n)

    hits = 0
    rng = np.random.default_rng(40_041)
    for trial in range(100):
        m = int(rng.integers(2, 21))
        n = int(rng.integers(1, 5))
        values = rng.uniform(0.0, 10.0, size=(m, n))
        matrix = key_matrix(values)
        exact = solve_exact(matrix).objective
        ga = solve_ga(matrix, StrategyConfig(kind="S-GD", ga=GaConfig(seed=trial)))
        assert ga.objective <= exact + 1e-9
        assert is_feasible(ga, m, n)
        if ga.objective >= 0.98 * exact:
            hits += 1
    assert hits >= 95, f"GA reached 98 percent of exact on only {hits}/100 instances"
    _report(4, "scheduler oracle equivalence", t0, 300.0)


# ---------------------------------------------------------------------------
# 5. strategy properties on a fixed two-week synthetic scenario
# ---------------------------------------------------------------------------

def _two_week_matrix() -> tuple[KeyMatrix, tuple[float, ...]]:
    """Fixed synthetic scenario: 14 nights, 3 passes each, 5 stations.

    Passes are 18-interval blocks whose per-station yields are close enough
    (few-percent spread) that rebalancing inside the 5 percent fitness band
    is possible; weights are deliberately skewed against raw capacity.
    """
    start = datetime(2024, 3, 4, tzinfo=UTC)
    n_intervals = 14 * 86400 // 10
    n_nodes = 5
    values = np.zeros((n_intervals, n_nodes))
    rng = np.random.default_rng(5_050)
    for day in range(14):
        for pass_idx in range(3):
            offset = day * 8640 + 300 + pass_idx * 2000 + int(rng.integers(0, 200))
            visible = rng.permutation(n_nodes)[:int(rng.integers(2, n_nodes + 1))]
            base = rng.uniform(50.0, 100.0)
            for k in range(18):
                shape = math.sin(math.pi * (k + 1) / 19.0)
                for node in visible:
                    jitter = 1.0 + 0.04 * float(rng.standard_normal())
                    values[offset + k, node] = max(0.0, base * shape * jitter)
    weights = (0.40, 0.25, 0.18, 0.12, 0.05)
    matrix = key_matrix(values, start=start, node_names=("N1", "N2", "N3", "N4", "N5"))
    return matrix, weights


def test_criterion_5_strategy_properties():
    t0 = time.monotonic()
    matrix, weights = _two_week_matrix()
    n_intervals, n_nodes = matrix.n_intervals, matrix.n_nodes
    target = Distribution(tuple(w / sum(weights) for w in weights))

    sgd = solve_exact(matrix)
    spd = solve_exact(matrix, weights=weights)
    assert is_feasible(sgd, n_intervals, n_nodes)
    assert is_feasible(spd, n_intervals, n_nodes)
    assert sgd.total >= spd.total >= 0.0
    kl_sgd = kl_divergence(delivered_distribution(sgd, matrix), target)

    for seed in range(100):
        cfg = StrategyConfig(kind="S-TD", weights=weights, kl_tolerance=0.05,
                             ga=GaConfig(population=100, generations=200, seed=seed))
        std = solve_ga(matrix, cfg, seed_schedules=[sgd])
        assert is_feasible(std, n_intervals, n_nodes)
        assert sgd.total >= std.total - 1e-9
        kl_std = kl_divergence(delivered_distribution(std, matrix), target)
        assert kl_std <= kl_sgd + 1e-12, (seed, kl_std, kl_sgd)
    _report(5, "strategy property suite", t0, 600.0)


# ---------------------------------------------------------------------------
# 6. cloud blockage isolation
# ---------------------------------------------------------------------------

def test_criterion_6_cloud_blockage_bit_exact():
    t0 = time.monotonic()
    config = micius_week_config(
        span=(datetime(2016, 9, 19, tzinfo=UTC), datetime(2016, 9, 20, tzinfo=UTC)))
    accesses = compute_accesses(config)
    target_station = "Xian"
    passes = [iv for iv in accesses if iv.station.name == target_station]
    assert passes, "expected at least one Xian pass in the first night"
    blocked_pass = passes[0]

    lat_min, lat_max, lat_step = 20.0, 48.0, 0.5
    lon_min, lon_max, lon_step = 80.0, 128.0, 0.5
    n_lat = round((lat_max - lat_min) / lat_step) + 1
    n_lon = round((lon_max - lon_min) / lon_step) + 1
    n_frames = 144
    clear = np.zeros((n_frames, n_lat, n_lon), dtype=np.int16)

    st = next(s for s in config.stations if s.name == target_station)
    i = round((st.latitude_deg - lat_min) / lat_step)
    j = round((st.longitude_deg - lon_min) / lon_step)
    k0 = int((blocked_pass.start - config.span[0]).total_seconds() // 600)
    k1 = int((blocked_pass.end - config.span[0]).total_seconds() // 600)
    overcast = clear.copy()
    overcast[k0:k1 + 1, i, j] = 150

    def grid(frames):
        return CloudGrid(lat_min, lat_max, lon_min, lon_max, lat_step, lon_step,
                         config.span[0], frames)

    # the overcast cell must be the one the station queries
    assert query(grid(overcast), st.latitude_deg, st.longitude_deg,
                 blocked_pass.start) == 150

    from dataclasses import replace
    km_clear = key_matrix_for(replace(config, cloud=grid(clear)), accesses)
    km_block = key_matrix_for(replace(config, cloud=grid(overcast)), accesses)

    col = list(km_clear.node_names).index(target_station)
    pass_intervals = {
        int((_from_us(us) - config.span[0]).total_seconds()
            // config.grid_interval_seconds)
        for us in blocked_pass.time_us.tolist()}
    # low-elevation edge samples already yield rate 0, so only the intervals
    # that carried keys in the clear run can change
    clear, block = dense(km_clear), dense(km_block)
    carrying = {m for m in pass_intervals if clear[m, col] > 0.0}
    assert carrying, "blocked pass delivered nothing even under clear skies"
    diff = clear != block
    changed = {(int(m), int(n)) for m, n in zip(*np.nonzero(diff))}
    assert changed == {(m, col) for m in carrying}, changed
    assert all(block[m, col] == 0.0 for m in pass_intervals)
    # bit-exact equality everywhere else
    mask = np.ones_like(diff)
    for m in pass_intervals:
        mask[m, col] = False
    assert np.array_equal(clear[mask], block[mask])
    _report(6, "cloud blockage isolation", t0, 30.0)


# ---------------------------------------------------------------------------
# 7. determinism of every subcommand
# ---------------------------------------------------------------------------

def test_criterion_7_determinism(tmp_path):
    t0 = time.monotonic()
    config = micius_week_config(
        span=(datetime(2016, 9, 19, 14, 0, tzinfo=UTC),
              datetime(2016, 9, 19, 20, 0, tzinfo=UTC)),
        strategy=StrategyConfig(ga=GaConfig(population=50, generations=60, seed=5)),
        sweep_altitudes=({"altitude_km": 500.0}, {"altitude_km": 2500.0}),
    )

    def run_all(out: Path):
        run_access(config, out / "access", seed=5)
        run_linkbudget(config, out / "linkbudget", seed=5)
        run_keymatrix(config, out / "keymatrix", seed=5)
        run_schedule(config, out / "schedule", seed=5)
        run_sweep(config, "altitude", out / "sweep_altitude", seed=5)
        run_sweep(config, "divergence", out / "sweep_divergence", seed=5)

    run_all(tmp_path / "first")
    run_all(tmp_path / "second")

    first_files = sorted(p for p in (tmp_path / "first").rglob("*") if p.is_file())
    assert first_files
    for path in first_files:
        twin = tmp_path / "second" / path.relative_to(tmp_path / "first")
        assert twin.exists(), twin
        assert path.read_bytes() == twin.read_bytes(), path
    _report(7, "determinism", t0, None)
