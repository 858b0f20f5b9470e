"""Shared test helpers: the exhaustive scheduling oracle, and the scalar
loss and key-rate code that the column kernels replaced."""
from __future__ import annotations

import math

import numpy as np

from satqkd.cloud import cloud_loss

_STRING_CACHE: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]] = {}


def all_feasible_strings(n_intervals: int, n_nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Every activity string of the given shape plus its feasibility mask.

    Codes: 0..n_nodes-1 nodes, n_nodes idle, n_nodes+1 switch.  Cached per
    shape; used as the brute-force oracle for the exact solver.
    """
    key = (n_intervals, n_nodes)
    if key not in _STRING_CACHE:
        codes = n_nodes + 2
        total = codes ** n_intervals
        digits = np.arange(total)
        strings = np.empty((total, n_intervals), dtype=np.int8)
        for m in range(n_intervals - 1, -1, -1):
            strings[:, m] = digits % codes
            digits //= codes
        is_node = strings < n_nodes
        feasible = np.ones(total, dtype=bool)
        for m in range(n_intervals - 1):
            feasible &= (~is_node[:, m + 1]
                         | (strings[:, m] == strings[:, m + 1])
                         | (strings[:, m] == n_nodes + 1))
        _STRING_CACHE[key] = (strings, feasible)
    return _STRING_CACHE[key]


def enumeration_oracle(values: np.ndarray, weights=None) -> float:
    """Maximum feasible objective by exhaustive enumeration."""
    n_intervals, n_nodes = values.shape
    strings, feasible = all_feasible_strings(n_intervals, n_nodes)
    w = np.ones(n_nodes) if weights is None else np.asarray(weights, dtype=float)
    padded = np.hstack([values * w, np.zeros((n_intervals, 2))])
    objective = padded[np.arange(n_intervals)[None, :], strings].sum(axis=1)
    return float(objective[feasible].max())


# ---------------------------------------------------------------------------
# scalar loss and rate oracles: one sample at a time, as before the columns
# ---------------------------------------------------------------------------

def oracle_beam_width(slant_range_km, params):
    if slant_range_km <= 0:
        raise ValueError(f"slant range must be positive, got {slant_range_km}")
    near = params.wavelength_m / (math.pi * params.divergence_rad)
    far = params.divergence_rad * slant_range_km * 1e3
    return math.hypot(near, far)


def oracle_geometric_loss(slant_range_km, params):
    w = oracle_beam_width(slant_range_km, params)
    if params.beam_convention == "half":
        w = 0.5 * w
    fraction = -math.expm1(-params.receiver_diameter_m**2 / (2.0 * w * w))
    if fraction <= 0.0:
        return math.inf
    return -10.0 * math.log10(fraction)


def oracle_atmospheric_loss(elevation_deg, zenith_loss_db):
    if elevation_deg <= 0:
        raise ValueError(f"elevation must be positive, got {elevation_deg}")
    return zenith_loss_db / math.sin(math.radians(elevation_deg))


def oracle_total_loss(elevation_deg, slant_range_km, cloud_index, params):
    """(geo, atm, cloud, fixed, total dB, transmittance) of one sample."""
    geo = oracle_geometric_loss(slant_range_km, params)
    atm = oracle_atmospheric_loss(elevation_deg, params.zenith_atm_loss_db)
    cld = cloud_loss(cloud_index)
    fixed = params.fixed_loss_db
    total = geo + atm + cld + fixed
    eta = 0.0 if math.isinf(total) else 10.0 ** (-total / 10.0)
    return geo, atm, cld, fixed, total, eta


def oracle_binary_entropy(x):
    if x <= 0.0 or x >= 1.0:
        return 0.0
    return -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)


def oracle_gain_and_qber(mu_i, eta, params):
    if not 0.0 <= eta <= 1.0:
        raise ValueError(f"eta must be in [0, 1], got {eta}")
    if mu_i < 0.0:
        raise ValueError(f"intensity must be >= 0, got {mu_i}")
    detected = -math.expm1(-eta * mu_i)
    gain = params.y0 + detected
    qber = (params.e0 * params.y0 + params.e_detector * detected) / gain
    return gain, qber


def oracle_decoy_estimate(params, eta):
    mu, nu = params.mu, params.nu
    denom = mu * nu - nu * nu
    if denom <= 0.0:
        raise ValueError(f"decoy bound needs nu < mu, got nu={nu}, mu={mu}")
    q_mu, _ = oracle_gain_and_qber(mu, eta, params)
    q_nu, e_nu = oracle_gain_and_qber(nu, eta, params)
    y1 = (mu / denom) * (q_nu * math.exp(nu)
                         - q_mu * math.exp(mu) * (nu * nu) / (mu * mu)
                         - ((mu * mu - nu * nu) / (mu * mu)) * params.y0)
    y1 = min(max(y1, 0.0), 1.0)
    q1 = y1 * mu * math.exp(-mu)
    if y1 * nu > 0.0:
        e1 = (e_nu * q_nu * math.exp(nu) - params.e0 * params.y0) / (y1 * nu)
    else:
        e1 = 1.0
    e1 = min(max(e1, 0.0), 1.0)
    return y1, q1, e1


def oracle_gllp_rate(eta, params):
    """(Q_mu, E_mu, Y1, Q1, e1, rate per pulse, rate per second) of one eta."""
    q_mu, e_mu = oracle_gain_and_qber(params.mu, eta, params)
    y1, q1, e1 = oracle_decoy_estimate(params, eta)
    bracket = (-params.f_e * q_mu * oracle_binary_entropy(e_mu)
               + q1 * (1.0 - oracle_binary_entropy(e1)))
    per_pulse = max(0.0, params.q_factor * bracket)
    return q_mu, e_mu, y1, q1, e1, per_pulse, per_pulse * params.rep_rate_hz
