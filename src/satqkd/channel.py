"""Downlink loss decomposition: geometric, atmospheric, cloud and fixed terms.

The geometric term treats the received spot as a Gaussian of radius
w = sqrt((lambda/(pi*phi))^2 + (phi*L)^2); the collected fraction
f = 1 - exp(-D^2 / (2 w^2)) is reported as -10*log10(f) dB so that it adds
with the other dB terms.  A `half` beam-radius convention (w/2 in place of w)
is available because published link budgets differ by roughly 5-6 dB at
10 urad depending on the spot-size convention.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .cloud import cloud_loss
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


def diffraction_divergence(wavelength_m: float, transmitter_diameter_m: float) -> float:
    """Diffraction-limited divergence 1.22*lambda/D_t, for sweep helpers."""
    if wavelength_m <= 0 or transmitter_diameter_m <= 0:
        raise ValueError("wavelength and transmitter diameter must be positive")
    return 1.22 * wavelength_m / transmitter_diameter_m


def beam_width(slant_range_km: float, params: OpticalParams) -> float:
    """Received beam radius in metres at the given slant range."""
    if slant_range_km <= 0:
        raise ValueError(f"slant range must be positive, got {slant_range_km}")
    near = params.wavelength_m / (math.pi * params.divergence_rad)
    far = params.divergence_rad * slant_range_km * 1e3
    return math.hypot(near, far)


def geometric_loss(slant_range_km: float, params: OpticalParams) -> float:
    """Beam-spreading loss in dB for a circular receiver aperture."""
    w = beam_width(slant_range_km, params)
    if params.beam_convention == "half":
        w = 0.5 * w
    fraction = -math.expm1(-params.receiver_diameter_m**2 / (2.0 * w * w))
    if fraction <= 0.0:
        return math.inf
    return -10.0 * math.log10(fraction)


def atmospheric_loss(elevation_deg: float, zenith_loss_db: float) -> float:
    """Zenith extinction elongated by the 1/sin(elevation) slant path."""
    if elevation_deg <= 0:
        raise ValueError(f"elevation must be positive, got {elevation_deg}")
    return zenith_loss_db / math.sin(math.radians(elevation_deg))


def total_loss(look: LookAngles, cloud_index: int, params: OpticalParams) -> LossBreakdown:
    """Full loss decomposition for one geometry sample.

    cloud_index 150 (overcast) blocks the link: total dB is +inf and the
    transmittance is exactly 0.
    """
    geo = geometric_loss(look.slant_range_km, params)
    atm = atmospheric_loss(look.elevation_deg, params.zenith_atm_loss_db)
    cld = cloud_loss(cloud_index)
    fixed = params.fixed_loss_db
    total = geo + atm + cld + fixed
    eta = 0.0 if math.isinf(total) else 10.0 ** (-total / 10.0)
    return LossBreakdown(geometric_db=geo, atmospheric_db=atm, cloud_db=cld,
                         fixed_db=fixed, total_db=total, transmittance=eta)
