"""Downlink loss decomposition: geometric, atmospheric, cloud and fixed terms.

The geometric term treats the received spot as a Gaussian of radius
w = sqrt((lambda/(pi*phi))^2 + (phi*L)^2); the collected fraction
f = 1 - exp(-D^2 / (2 w^2)) is reported as -10*log10(f) dB so that it adds
with the other dB terms.  A `half` beam-radius convention (w/2 in place of w)
is available because published link budgets differ by roughly 5-6 dB at
10 urad depending on the spot-size convention.  Each term is one float loop
over a column of samples (`loss_columns`); the scalar functions call it.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import expm1, hypot, inf, isinf, log10, pi, radians, sin
from typing import NamedTuple

from .cloud import MAX_INDEX, cloud_loss
from .orbit import LookAngles


@dataclass(frozen=True)
class OpticalParams:
    """Transceiver and fixed-loss parameters of the optical downlink."""
    wavelength_m: float = 1550.0 * 1e-9    # as the JSON config's wavelength_nm scales
    divergence_rad: float = 10.0 * 1e-6    # as the JSON config's divergence_urad scales
    receiver_diameter_m: float = 1.2
    transmitter_diameter_m: float = 0.3
    zenith_atm_loss_db: float = 2.0
    pointing_loss_db: float = 2.0
    coupling_loss_db: float = 3.0
    detection_loss_db: float = 3.0
    beam_convention: str = "full"

    def __post_init__(self):
        if not 100e-9 < self.wavelength_m < 10e-6:
            raise ValueError(f"wavelength {self.wavelength_m} m outside (100 nm, 10 um)")
        for name in ("divergence_rad", "receiver_diameter_m", "transmitter_diameter_m"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        for name in ("zenith_atm_loss_db", "pointing_loss_db",
                     "coupling_loss_db", "detection_loss_db"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        if self.beam_convention not in ("full", "half"):
            raise ValueError(f"beam_convention must be 'full' or 'half', "
                             f"got {self.beam_convention!r}")

    @property
    def fixed_loss_db(self) -> float:
        return self.pointing_loss_db + self.coupling_loss_db + self.detection_loss_db


@dataclass(frozen=True)
class LossBreakdown:
    """Per-sample loss components in dB and the resulting transmittance."""
    geometric_db: float
    atmospheric_db: float
    cloud_db: float
    fixed_db: float
    total_db: float
    transmittance: float


class LossColumns(NamedTuple):
    """LossBreakdown's columns, one list each, except the fixed dB."""
    geometric_db: list[float]
    atmospheric_db: list[float]
    cloud_db: list[float]
    total_db: list[float]
    transmittance: list[float]


_CLOUD_DB = tuple(cloud_loss(alpha) for alpha in range(MAX_INDEX + 1))


def _not_positive(name: str, value: float):
    raise ValueError(f"{name} must be positive, got {value}")


def _beam_widths(slant_range_km, params: OpticalParams) -> list[float]:
    near = params.wavelength_m / (pi * params.divergence_rad)
    divergence = params.divergence_rad
    return [_not_positive("slant range", rng) if rng <= 0 else
            hypot(near, divergence * rng * 1e3) for rng in slant_range_km]


def _geometric_db(widths, params: OpticalParams) -> list[float]:
    neg_d2 = -params.receiver_diameter_m**2
    # the half convention takes w/2 as the radius; 1.0 * w is exactly w
    k = 0.5 if params.beam_convention == "half" else 1.0
    fractions = [-expm1(neg_d2 / (2.0 * (k * w) * (k * w))) for w in widths]
    return [inf if f <= 0.0 else -10.0 * log10(f) for f in fractions]


def _atmospheric_db(elevation_deg, zenith_loss_db: float) -> list[float]:
    return [_not_positive("elevation", elev) if elev <= 0 else
            zenith_loss_db / sin(radians(elev)) for elev in elevation_deg]


def beam_width(slant_range_km: float, params: OpticalParams) -> float:
    """Received beam radius in metres at the given slant range."""
    return _beam_widths([slant_range_km], params)[0]


def geometric_loss(slant_range_km: float, params: OpticalParams) -> float:
    """Beam-spreading loss in dB for a circular receiver aperture."""
    return _geometric_db(_beam_widths([slant_range_km], params), params)[0]


def atmospheric_loss(elevation_deg: float, zenith_loss_db: float) -> float:
    """Zenith extinction elongated by the 1/sin(elevation) slant path."""
    return _atmospheric_db([elevation_deg], zenith_loss_db)[0]


def loss_columns(elevation_deg, slant_range_km, cloud_index,
                 params: OpticalParams) -> LossColumns:
    """Loss decomposition of each sample, from columns of plain numbers; a
    cloud index of 150 (overcast) gives +inf dB and a transmittance of 0."""
    geo = _geometric_db(_beam_widths(slant_range_km, params), params)
    atm = _atmospheric_db(elevation_deg, params.zenith_atm_loss_db)
    # cloud_loss of an index outside [0, MAX_INDEX] raises its range error
    cld = [_CLOUD_DB[a] if 0 <= a <= MAX_INDEX else cloud_loss(a) for a in cloud_index]
    fixed = params.fixed_loss_db
    total = [g + a + c + fixed for g, a, c in zip(geo, atm, cld)]
    return LossColumns(geo, atm, cld, total,
                       [0.0 if isinf(t) else 10.0 ** (-t / 10.0) for t in total])


def total_loss(look: LookAngles, cloud_index: int, params: OpticalParams) -> LossBreakdown:
    """Full loss decomposition for one geometry sample (see loss_columns)."""
    (geo,), (atm,), (cld,), (total,), (eta,) = loss_columns(
        [look.elevation_deg], [look.slant_range_km], [cloud_index], params)
    return LossBreakdown(geo, atm, cld, params.fixed_loss_db, total, eta)
