"""Column kernels for loss and key rate against the scalar code they replaced.

The oracles in conftest are the per-sample bodies of total_loss, gllp_rate,
gain_and_qber and decoy_estimate as they were before the columns.  Every
column and every scalar wrapper must match them by float.hex on seeded
columns that reach each branch: cloud index 0 and 150, the `half` beam,
an infinite geometric loss, eta of 0 and 1, Y1 clamped to 0 or 1, the
y1*nu <= 0 branch and a rate clamped to 0.  Bad inputs must raise the
oracle's ValueError.
"""
from __future__ import annotations

import dataclasses
import json
import math

import numpy as np
import pytest

from conftest import (
    oracle_atmospheric_loss,
    oracle_beam_width,
    oracle_binary_entropy,
    oracle_decoy_estimate,
    oracle_gain_and_qber,
    oracle_geometric_loss,
    oracle_gllp_rate,
    oracle_total_loss,
)
from satqkd import qkd
from satqkd.channel import (
    OpticalParams,
    atmospheric_loss,
    beam_width,
    geometric_loss,
    loss_columns,
    total_loss,
)
from satqkd.cli import main
from satqkd.orbit import LookAngles
from satqkd.qkd import QkdParams, binary_entropy, decoy_estimate, gain_and_qber, gllp_rate
from satqkd.scenario import compute_accesses, scenario_from_dict


def hexes(values) -> list[str]:
    return [float(v).hex() for v in values]


# ---------------------------------------------------------------------------
# loss
# ---------------------------------------------------------------------------

OPTICS = [
    OpticalParams(),
    OpticalParams(beam_convention="half"),
    OpticalParams(divergence_rad=1e-6, receiver_diameter_m=0.5),
    OpticalParams(divergence_rad=200e-6, wavelength_m=800e-9, beam_convention="half"),
    # lossless apart from the beam: eta reaches exactly 1 at short range
    OpticalParams(zenith_atm_loss_db=0.0, pointing_loss_db=0.0, coupling_loss_db=0.0,
                  detection_loss_db=0.0),
]


def loss_samples(seed: int, count: int = 3000):
    rng = np.random.default_rng(seed)
    elev = rng.uniform(0.0, 90.0, count)
    elev[elev == 0.0] = 45.0
    ranges = 10.0 ** rng.uniform(-3.0, 5.0, count)
    alphas = rng.integers(0, 151, count)
    # zenith and grazing elevations; a range so long the collected fraction
    # underflows to 0 (infinite geometric loss); clear and overcast
    elev[:6] = [90.0, 1e-300, 1e-3, 90.0, 30.0, 10.0]
    ranges[:6] = [1.0, 500.0, 500.0, 1e300, 1e-3, 36000.0]
    alphas[:6] = [0, 0, 150, 0, 150, 75]
    return elev.tolist(), ranges.tolist(), alphas.tolist()


@pytest.mark.parametrize("optics", OPTICS, ids=range(len(OPTICS)))
def test_loss_columns_match_scalar_oracle(optics):
    elev, ranges, alphas = loss_samples(3)
    cols = loss_columns(elev, ranges, alphas, optics)
    want = [oracle_total_loss(e, r, a, optics) for e, r, a in zip(elev, ranges, alphas)]
    for k, name in enumerate(("geometric_db", "atmospheric_db", "cloud_db")):
        assert hexes(getattr(cols, name)) == hexes(w[k] for w in want), name
    assert hexes(cols.total_db) == hexes(w[4] for w in want)
    assert hexes(cols.transmittance) == hexes(w[5] for w in want)
    # cloud index 0 gives +0.0, not the -0.0 of -10*log10(1); 150 blocks
    assert all(math.copysign(1.0, c) == 1.0 for c in cols.cloud_db)
    assert all(eta == 0.0 for eta, a in zip(cols.transmittance, alphas) if a == 150)
    assert math.isinf(cols.geometric_db[3]) and cols.transmittance[3] == 0.0
    if optics.fixed_loss_db == 0.0:
        assert 1.0 in cols.transmittance


@pytest.mark.parametrize("optics", OPTICS, ids=range(len(OPTICS)))
def test_scalar_loss_functions_match_oracle(optics):
    elev, ranges, alphas = loss_samples(4, 300)
    for e, r, a in zip(elev, ranges, alphas):
        want = oracle_total_loss(e, r, a, optics)
        got = total_loss(LookAngles(e, 0.0, r), a, optics)
        assert hexes([got.geometric_db, got.atmospheric_db, got.cloud_db, got.fixed_db,
                      got.total_db, got.transmittance]) == hexes(want)
        assert beam_width(r, optics).hex() == oracle_beam_width(r, optics).hex()
        assert geometric_loss(r, optics).hex() == oracle_geometric_loss(r, optics).hex()
        assert (atmospheric_loss(e, optics.zenith_atm_loss_db).hex()
                == oracle_atmospheric_loss(e, optics.zenith_atm_loss_db).hex())


def oracle_error(fn, *args) -> str:
    with pytest.raises(ValueError) as info:
        fn(*args)
    return str(info.value)


@pytest.mark.parametrize("elev,rng,alpha", [
    (0.0, 500.0, 0), (-5.0, 500.0, 0),        # on or below the horizon
    (30.0, 0.0, 0), (30.0, -1.0, 0),          # no slant range
    (30.0, 500.0, -1), (30.0, 500.0, 151),    # cloud index outside [0, 150]
    (-5.0, 0.0, 151),                         # every term bad: the range is first
])
def test_bad_loss_inputs_raise_the_oracle_error(elev, rng, alpha):
    optics = OpticalParams()
    want = oracle_error(oracle_total_loss, elev, rng, alpha, optics)
    assert oracle_error(total_loss, LookAngles(elev, 0.0, rng), alpha, optics) == want
    # the bad sample in the middle of a good column
    good_e, good_r, good_a = loss_samples(5, 40)
    assert oracle_error(loss_columns, good_e[:20] + [elev] + good_e[20:],
                        good_r[:20] + [rng] + good_r[20:],
                        good_a[:20] + [alpha] + good_a[20:], optics) == want


def test_elevation_whose_sine_underflows_gives_infinite_loss():
    optics = OpticalParams()
    assert atmospheric_loss(5e-324, 2.0) == oracle_atmospheric_loss(5e-324, 2.0) == math.inf
    got = total_loss(LookAngles(5e-324, 0.0, 500.0), 0, optics)
    want = oracle_total_loss(5e-324, 500.0, 0, optics)
    assert hexes([got.geometric_db, got.atmospheric_db, got.cloud_db, got.fixed_db,
                  got.total_db, got.transmittance]) == hexes(want)
    assert got.transmittance == 0.0


def test_negative_mask_elevation_fails_linkbudget_and_keymatrix(tmp_path, capsys):
    payload = {"span": ["2016-09-19T14:00:00+00:00", "2016-09-19T20:00:00+00:00"],
               "elevation_mask_deg": -5.0}
    # the loss kernel meets the first sample on or below the horizon, in pass order
    config = scenario_from_dict(payload)
    accesses = compute_accesses(config)
    first = next(e for e in accesses.elevation_deg.tolist() if e <= 0.0)
    want = oracle_error(oracle_atmospheric_loss, first, 2.0)
    assert oracle_error(qkd.link_budget, accesses, config.optics) == want
    # the CLI refuses the mask before any sample reaches it
    path = tmp_path / "config.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    for command in ("linkbudget", "keymatrix"):
        assert main([command, "--config", str(path), "--out", str(tmp_path / command)]) == 2
        assert json.loads(capsys.readouterr().err) == {
            "error": "elevation_mask_deg: the loss model needs a mask >= 0, got -5.0"}


# ---------------------------------------------------------------------------
# key rate
# ---------------------------------------------------------------------------

# parameter sets that clamp Y1 above 1 and below 0 (found by a seeded search)
Y1_ABOVE_1 = QkdParams(mu=0.285211407360052, nu=0.2322816139577287,
                       y0=0.01609877025610222, e0=0.24372164064158708,
                       e_detector=0.29458141066814314)
Y1_BELOW_0 = QkdParams(mu=1.3897755316669647, nu=0.9144702260632402,
                       y0=1.9274764159071042e-07, e0=0.44192941145403775,
                       e_detector=0.43943266017047056)


def rate_params(seed: int, count: int) -> list[QkdParams]:
    rng = np.random.default_rng(seed)
    found = [QkdParams(), QkdParams(y0=0.0, e_detector=0.0), QkdParams(q_factor=1.0),
             Y1_ABOVE_1, Y1_BELOW_0]
    for _ in range(count):
        mu = float(rng.uniform(0.05, 1.5))
        found.append(QkdParams(mu=mu, nu=float(rng.uniform(0.001, 0.99 * mu)),
                               y0=float(10.0 ** rng.uniform(-8.0, 0.0)),
                               e0=float(rng.uniform(0.0, 1.0)),
                               e_detector=float(rng.uniform(0.0, 1.0)),
                               f_e=float(rng.uniform(1.0, 1.5))))
    return found


def rate_etas(seed: int, count: int = 200) -> list[float]:
    rng = np.random.default_rng(seed)
    return ([0.0, 1.0, 5e-324, 1e-3, 1.1196963415950897e-05]
            + (10.0 ** rng.uniform(-12.0, 0.0, count)).tolist())


def test_rate_terms_match_scalar_oracle():
    hits = dict.fromkeys(("y1=0", "y1=1", "rate=0", "rate>0", "e1=0"), 0)
    for params in rate_params(8, 60):
        etas = rate_etas(9)
        q_mu, e_mu, y1, q1, e1, rates = (column.tolist()
                                         for column in qkd._rate_terms(etas, params))
        want = [oracle_gllp_rate(eta, params) for eta in etas]
        for k, column in enumerate((q_mu, e_mu, y1, q1, e1, rates)):
            assert hexes(column) == hexes(w[k] for w in want), k
        hits["y1=0"] += y1.count(0.0)
        hits["y1=1"] += y1.count(1.0)
        hits["rate=0"] += rates.count(0.0)
        hits["rate>0"] += len(rates) - rates.count(0.0)
        hits["e1=0"] += e1.count(0.0)
    assert min(hits.values()) > 0, hits


def test_scalar_rate_functions_match_oracle():
    for params in rate_params(10, 15):
        for eta in rate_etas(11, 40):
            for mu_i in (0.0, params.nu, params.mu, 2.5):
                assert hexes(gain_and_qber(mu_i, eta, params)) == \
                    hexes(oracle_gain_and_qber(mu_i, eta, params))
            got = gllp_rate(eta, params)
            assert hexes([got.q_mu, got.e_mu, got.y1_lower, got.q1, got.e1_upper,
                          got.rate_per_pulse, got.rate_per_second]) == \
                hexes(oracle_gllp_rate(eta, params))
            assert hexes(decoy_estimate(params, eta)) == \
                hexes(oracle_decoy_estimate(params, eta))
    for x in [0.0, 1.0, -0.5, 1.5, 5e-324, 0.5, *np.linspace(1e-9, 1 - 1e-9, 50)]:
        assert binary_entropy(float(x)).hex() == oracle_binary_entropy(float(x)).hex()


# (kernel, oracle) pairs, each called as (params, eta)
CALLS = {
    "gllp_rate": (lambda p, eta: gllp_rate(eta, p), lambda p, eta: oracle_gllp_rate(eta, p)),
    "decoy_estimate": (decoy_estimate, oracle_decoy_estimate),
    "gain_and_qber": (lambda p, eta: gain_and_qber(p.mu, eta, p),
                      lambda p, eta: oracle_gain_and_qber(p.mu, eta, p)),
    "negative-intensity": (lambda p, eta: gain_and_qber(-0.1, eta, p),
                           lambda p, eta: oracle_gain_and_qber(-0.1, eta, p)),
}


def error_of(fn, *args) -> str | None:
    try:
        fn(*args)
    except ValueError as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("call", list(CALLS))
@pytest.mark.parametrize("eta", [-0.1, 1.5, math.nan, 0.5])
def test_bad_rate_inputs_raise_the_oracle_error(call, eta):
    kernel, oracle = CALLS[call]
    assert error_of(kernel, QkdParams(), eta) == error_of(oracle, QkdParams(), eta)


def test_zero_gain_gives_qber_0_and_rate_0():
    params = QkdParams(y0=0.0)
    assert gain_and_qber(params.mu, 0.0, params) == (0.0, 0.0)
    for eta in (0.0, 5e-324):  # eta * nu underflows to 0
        got = gllp_rate(eta, params)
        assert (got.e_mu, got.rate_per_pulse, got.rate_per_second) == (0.0, 0.0, 0.0)
        assert hexes(dataclasses.astuple(got)) == hexes(oracle_gllp_rate(eta, params))


def test_intensities_without_a_decoy_bound_are_rejected():
    # nu < mu, but mu*nu - nu*nu rounds to 0, so no decoy bound exists
    with pytest.raises(ValueError, match="decoy bound needs nu < mu"):
        QkdParams(mu=1e-323, nu=5e-324)


def test_bad_eta_in_a_column_raises_the_oracle_error():
    etas = rate_etas(12, 30)
    for bad in (-1e-300, 1.0000000000000002, math.nan):
        want = oracle_error(oracle_gllp_rate, bad, QkdParams())
        assert oracle_error(qkd._rate_terms, etas[:9] + [bad] + etas[9:],
                            QkdParams()) == want
