"""Downlink loss decomposition: geometric, atmospheric, cloud and fixed terms.

The geometric term treats the received spot as a Gaussian of radius
w = sqrt((lambda/(pi*phi))^2 + (phi*L)^2); the collected fraction
f = 1 - exp(-D^2 / (2 w^2)) is reported as -10*log10(f) dB so that it adds
with the other dB terms.  A `half` beam-radius convention (w/2 in place of w)
is available because published link budgets differ by roughly 5-6 dB at
10 urad depending on the spot-size convention.

Each term runs over a column of samples (`loss_columns`) as numpy arrays,
but numpy does only what IEEE 754 rounds exactly (+ - * /, comparisons,
np.where); hypot, expm1, log10, sin and 10.0 ** are the `math` functions
(and Python's pow) mapped over the column.  numpy's SIMD loops for log10,
expm1 and powers differ from them in the last bit on a fraction of inputs
(and np.hypot on a few), so this keeps every bit of the scalar code.  The
scalar functions are one-element calls that return Python floats.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from math import expm1, hypot, inf, log10, pi, sin
from typing import NamedTuple

import numpy as np

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
    """LossBreakdown's columns, one float64 array each, except the fixed dB."""
    geometric_db: np.ndarray
    atmospheric_db: np.ndarray
    cloud_db: np.ndarray
    total_db: np.ndarray
    transmittance: np.ndarray


_CLOUD_DB = np.array([cloud_loss(alpha) for alpha in range(MAX_INDEX + 1)])


# numpy as Python floats behave: an overflow gives inf and inf - inf gives NaN,
# without a warning
_float_rules = np.errstate(over="ignore", invalid="ignore")


def _mapped(f, *columns) -> np.ndarray:
    """map(f, *columns) as a float64 array: the `math` function once per
    Python float, never numpy's SIMD loop."""
    return np.fromiter(map(f, *columns), float)


def _first_not_positive(values: np.ndarray) -> int:
    """Index of the first value <= 0 (NaN passes), or len(values)."""
    bad = values <= 0.0
    return int(np.argmax(bad)) if bad.any() else len(values)


@_float_rules
def _beam_widths(slant_range_km, params: OpticalParams) -> np.ndarray:
    ranges = np.asarray(slant_range_km, dtype=float)
    if (k := _first_not_positive(ranges)) < len(ranges):
        raise ValueError(f"slant range must be positive, got {slant_range_km[k]}")
    near = params.wavelength_m / (pi * params.divergence_rad)
    far = params.divergence_rad * ranges * 1e3
    return _mapped(hypot, repeat(near), far.tolist())


@_float_rules
def _geometric_db(widths: np.ndarray, params: OpticalParams) -> np.ndarray:
    neg_d2 = -params.receiver_diameter_m**2
    # the half convention takes w/2 as the radius; 1.0 * w is exactly w
    kw = (0.5 if params.beam_convention == "half" else 1.0) * widths
    # a width whose square underflows to 0 collects everything (a fraction of 1)
    with np.errstate(divide="ignore"):
        fractions = -_mapped(expm1, (neg_d2 / (2.0 * kw * kw)).tolist())
    db = np.full(len(fractions), inf)
    collects = ~(fractions <= 0.0)
    db[collects] = -10.0 * _mapped(log10, fractions[collects].tolist())
    return db


@_float_rules
def _atmospheric_db(elevation_deg, zenith_loss_db: float) -> np.ndarray:
    elevations = np.asarray(elevation_deg, dtype=float)
    k = _first_not_positive(elevations)
    # radians(x) is x * (pi / 180.0); the sines before the first bad
    # elevation come first, as a sample-by-sample walk meets them
    sines = _mapped(sin, (elevations[:k] * (pi / 180.0)).tolist())
    if k < len(elevations):
        raise ValueError(f"elevation must be positive, got {elevation_deg[k]}")
    # a sine that underflows to 0 gives an infinite loss
    return np.divide(zenith_loss_db, sines, out=np.full(k, inf), where=sines != 0.0)


def beam_width(slant_range_km: float, params: OpticalParams) -> float:
    """Received beam radius in metres at the given slant range."""
    return _beam_widths([slant_range_km], params)[0].item()


def geometric_loss(slant_range_km: float, params: OpticalParams) -> float:
    """Beam-spreading loss in dB for a circular receiver aperture."""
    return _geometric_db(_beam_widths([slant_range_km], params), params)[0].item()


def atmospheric_loss(elevation_deg: float, zenith_loss_db: float) -> float:
    """Zenith extinction elongated by the 1/sin(elevation) slant path."""
    return _atmospheric_db([elevation_deg], zenith_loss_db)[0].item()


@_float_rules
def loss_columns(elevation_deg, slant_range_km, cloud_index,
                 params: OpticalParams) -> LossColumns:
    """Loss decomposition of each sample, from columns of numbers; a cloud
    index of 150 (overcast) gives +inf dB and a transmittance of 0."""
    geo = _geometric_db(_beam_widths(slant_range_km, params), params)
    atm = _atmospheric_db(elevation_deg, params.zenith_atm_loss_db)
    alphas = np.asarray(cloud_index, dtype=np.int64)
    if (outside := (alphas < 0) | (alphas > MAX_INDEX)).any():
        cloud_loss(cloud_index[int(np.argmax(outside))])  # raises its range error
    cld = _CLOUD_DB[alphas]
    total = geo + atm + cld + params.fixed_loss_db
    eta = np.zeros(len(total))
    passes = ~np.isinf(total)
    eta[passes] = _mapped(pow, repeat(10.0), (-total[passes] / 10.0).tolist())
    return LossColumns(geo, atm, cld, total, eta)


def total_loss(look: LookAngles, cloud_index: int, params: OpticalParams) -> LossBreakdown:
    """Full loss decomposition for one geometry sample (see loss_columns)."""
    columns = loss_columns([look.elevation_deg], [look.slant_range_km], [cloud_index],
                           params)
    geo, atm, cld, total, eta = (column[0].item() for column in columns)
    return LossBreakdown(geo, atm, cld, params.fixed_loss_db, total, eta)
