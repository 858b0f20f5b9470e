"""Channel loss model tests.

Frozen expected values were computed independently with a 30-digit mpmath
evaluation of the closed forms (see the derivations inline); properties
cover far-field monotonicity, divergence ordering, the dB round trip and
additive decomposition.
"""
from __future__ import annotations

import math

import numpy as np
import pytest

from satqkd.channel import (
    OpticalParams,
    atmospheric_loss,
    beam_width,
    diffraction_divergence,
    geometric_loss,
    total_loss,
)
from satqkd.orbit import LookAngles

TABLE1 = OpticalParams()  # 1550 nm, 10 urad, 1.2 m, 2 dB zenith, 2+3+3 dB fixed


def with_divergence(urad: float, convention: str = "full") -> OpticalParams:
    return OpticalParams(divergence_rad=urad * 1e-6, beam_convention=convention)


# ---------------------------------------------------------------------------
# beam width
# ---------------------------------------------------------------------------

def test_beam_width_frozen_values():
    # sqrt((1550e-9/(pi*1e-5))^2 + (1e-5*5e5)^2) evaluated at 30 digits
    assert beam_width(500.0e0 * 1e3 / 1e3, TABLE1) == pytest.approx(
        5.00024341821846, rel=1e-12)
    assert beam_width(500.0, with_divergence(1.0)) == pytest.approx(
        0.702441558921962, rel=1e-12)


def test_beam_width_far_field_limit():
    p = with_divergence(200.0)  # huge divergence: w -> phi*L
    for span_km in (100.0, 500.0, 2000.0):
        assert beam_width(span_km, p) == pytest.approx(
            p.divergence_rad * span_km * 1e3, rel=1e-4)


def test_beam_width_rejects_nonpositive_range():
    with pytest.raises(ValueError):
        beam_width(0.0, TABLE1)
    with pytest.raises(ValueError):
        beam_width(-5.0, TABLE1)


# ---------------------------------------------------------------------------
# geometric loss
# ---------------------------------------------------------------------------

def test_geometric_loss_frozen_values():
    # f = 1 - exp(-1.44 / (2 w^2)); dB = -10 log10 f (mpmath, 30 digits)
    assert geometric_loss(500.0, TABLE1) == pytest.approx(15.4688802276036, rel=1e-12)
    assert geometric_loss(500.0, with_divergence(1.0)) == pytest.approx(
        1.14878761565932, rel=1e-12)


def test_geometric_loss_negligible_when_beam_smaller_than_receiver():
    # 1 urad at 10 km: the waist term lambda/(pi*phi) floors the spot at
    # ~0.49 m, still inside the 1.2 m aperture, so the loss stays small
    assert geometric_loss(10.0, with_divergence(1.0)) < 0.5
    # 10 urad at 1 km: spot ~5 cm, collection is essentially total
    assert geometric_loss(1.0, with_divergence(10.0)) < 1e-9


def test_geometric_loss_half_convention_frozen_value():
    assert geometric_loss(500.0, with_divergence(10.0, "half")) == pytest.approx(
        9.63362658441745, rel=1e-12)


def test_geometric_loss_monotone_in_range_far_field():
    p = TABLE1
    near_far_boundary_km = (p.wavelength_m / (math.pi * p.divergence_rad)
                            / p.divergence_rad) / 1e3
    grid = np.linspace(max(1.0, 2 * near_far_boundary_km), 40000.0, 300)
    losses = [geometric_loss(float(r), p) for r in grid]
    assert all(b > a for a, b in zip(losses, losses[1:]))


def test_geometric_loss_monotone_in_divergence():
    # holds for L >= lambda/(pi * (1 urad)^2) ~ 493 km, i.e. wherever the
    # far-field term dominates across the whole 1..20 urad sweep
    for rng_km in (500.0, 1500.0, 5500.0, 36000.0):
        losses = [geometric_loss(rng_km, with_divergence(u))
                  for u in np.linspace(1.0, 20.0, 40)]
        assert all(b >= a for a, b in zip(losses, losses[1:]))


def test_diffraction_divergence_helper():
    assert diffraction_divergence(1550e-9, 0.3) == pytest.approx(
        1.22 * 1550e-9 / 0.3, rel=1e-15)
    with pytest.raises(ValueError):
        diffraction_divergence(1550e-9, 0.0)


# ---------------------------------------------------------------------------
# atmospheric loss
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("elev,expected", [
    (90.0, 2.0),
    (30.0, 4.0),
    (10.0, 11.5175409662873),
])
def test_atmospheric_loss_values(elev, expected):
    assert atmospheric_loss(elev, 2.0) == pytest.approx(expected, rel=1e-12)


def test_atmospheric_loss_zenith_exact_and_decreasing():
    assert atmospheric_loss(90.0, 2.0) == 2.0
    grid = np.linspace(0.5, 90.0, 200)
    losses = [atmospheric_loss(float(e), 2.0) for e in grid]
    assert all(b < a for a, b in zip(losses, losses[1:]))


def test_atmospheric_loss_rejects_horizon():
    with pytest.raises(ValueError):
        atmospheric_loss(0.0, 2.0)
    with pytest.raises(ValueError):
        atmospheric_loss(-5.0, 2.0)


# ---------------------------------------------------------------------------
# total loss
# ---------------------------------------------------------------------------

def look(elev=90.0, rng=500.0):
    return LookAngles(elevation_deg=elev, azimuth_deg=0.0, slant_range_km=rng)


def test_total_loss_zenith_composition():
    out = total_loss(look(), 0, TABLE1)
    assert out.cloud_db == 0.0
    assert out.fixed_db == 8.0
    assert out.atmospheric_db == pytest.approx(2.0, rel=1e-12)
    assert out.geometric_db == pytest.approx(15.4688802276036, rel=1e-12)
    assert out.total_db == pytest.approx(25.4688802276036, rel=1e-12)
    assert out.transmittance == pytest.approx(2.83865084365897e-3, rel=1e-12)


def test_total_loss_overcast_blocks():
    out = total_loss(look(), 150, TABLE1)
    assert math.isinf(out.total_db)
    assert out.transmittance == 0.0


def test_total_loss_lossless_identity():
    p = OpticalParams(divergence_rad=10e-6, zenith_atm_loss_db=0.0,
                      pointing_loss_db=0.0, coupling_loss_db=0.0,
                      detection_loss_db=0.0)
    out = total_loss(look(rng=1.0), 0, p)
    assert out.transmittance == 1.0


def test_total_loss_requires_positive_elevation():
    with pytest.raises(ValueError):
        total_loss(look(elev=0.0), 0, TABLE1)


def test_loss_round_trip_and_additivity():
    rng = np.random.default_rng(7)
    for _ in range(50):
        elev = float(rng.uniform(1.0, 90.0))
        dist = float(rng.uniform(450.0, 40000.0))
        alpha = int(rng.integers(0, 150))
        out = total_loss(look(elev, dist), alpha, TABLE1)
        assert out.transmittance == pytest.approx(
            10.0 ** (-out.total_db / 10.0), rel=1e-12)
        rebuilt = out.geometric_db + out.atmospheric_db + out.cloud_db + out.fixed_db
        assert rebuilt == pytest.approx(out.total_db, rel=1e-12)
        # removing one component and re-adding its dB reproduces the total
        partial = out.total_db - out.atmospheric_db
        assert partial + out.atmospheric_db == pytest.approx(out.total_db, rel=1e-12)


# ---------------------------------------------------------------------------
# parameter validation
# ---------------------------------------------------------------------------

def test_optical_params_validation():
    with pytest.raises(ValueError, match="wavelength"):
        OpticalParams(wavelength_m=50e-9)
    with pytest.raises(ValueError, match="divergence"):
        OpticalParams(divergence_rad=0.0)
    with pytest.raises(ValueError, match="pointing"):
        OpticalParams(pointing_loss_db=-1.0)
    with pytest.raises(ValueError, match="convention"):
        OpticalParams(beam_convention="third")
