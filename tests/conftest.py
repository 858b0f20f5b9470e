"""Shared test helpers: the exhaustive scheduling oracle, a key matrix made
from a dense array and the dense form of one, the scalar loss and key-rate
code that the column kernels replaced, the per-value fixed-point formatter
that output.fixed_point replaced, and the cloud-grid loader and writer that
handled every cell through int()."""
from __future__ import annotations

import math
import os
from dataclasses import replace
from datetime import datetime, timezone
from stat import S_ISREG

import numpy as np

from satqkd import cloud
from satqkd.cloud import cloud_loss
from satqkd.qkd import KeyMatrix

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


def key_matrix(values, *, start=datetime(2016, 9, 19, tzinfo=timezone.utc),
               interval_seconds=10.0, node_names=None) -> KeyMatrix:
    """The qkd.KeyMatrix of a dense (n_intervals, n_nodes) array: its nonzero
    cells, NaN and negative ones included, in row-major order.  The nodes
    are named N0, N1, ... unless node_names are given."""
    values = np.asarray(values, dtype=float)
    interval, node = np.nonzero(values)
    if node_names is None:
        node_names = tuple(f"N{n}" for n in range(values.shape[1]))
    return KeyMatrix(start, interval_seconds, node_names, values.shape[0], interval, node,
                     values[interval, node])


def dense(matrix) -> np.ndarray:
    """The (n_intervals, n_nodes) array of a qkd.KeyMatrix, zeros included."""
    values = np.zeros((matrix.n_intervals, matrix.n_nodes))
    interval, node, bits = matrix.nonzero()
    values[interval, node] = bits
    return values


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
    sine = math.sin(math.radians(elevation_deg))
    # a sine that underflows to 0 (elevation 5e-324) gives an infinite loss
    return math.inf if sine == 0.0 else zenith_loss_db / sine


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
    if gain == 0.0:  # y0 = 0 and no detection: no errors either
        return gain, 0.0
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


def oracle_fmt(value, spec=".4f"):
    """A fixed-point cell as written before output.fixed_point: one format()
    per value."""
    return "Inf" if math.isinf(value) else format(value, spec)


# ---------------------------------------------------------------------------
# cloud-grid oracles: the loader with every cell token through int() into one
# int64 array, range-checked as a whole grid before the int16 narrowing, as
# before the byte parser; and the writer with one str(int(v)) per cell
# ---------------------------------------------------------------------------

def oracle_parse_cells(tokens, flat, start, shape):
    try:
        flat[start:start + len(tokens)] = np.array(tokens, dtype=np.int64)
    except ValueError as exc:
        return ValueError(f"non-integer cell value: {exc}")
    except OverflowError:
        n = next(n for n, tok in enumerate(tokens) if abs(int(tok)) >= 2**63)
        k, i, j = np.unravel_index(start + n, shape)
        return ValueError(f"cloud value {tokens[n]} outside [0, {cloud.MAX_INDEX}] "
                          f"at frame {k}, lat row {i}, lon col {j}")
    return None


def oracle_load_cloud_grid(path) -> cloud.CloudGrid:
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().split()
        if len(header) != 10:
            raise ValueError(f"header must have 10 fields, got {len(header)}")
        try:
            lat_min, lat_max, lon_min, lon_max, lat_step, lon_step = map(float, header[:6])
            time_start = datetime.fromisoformat(header[6].replace("Z", "+00:00"))
            n_frames, n_lat, n_lon = map(int, header[7:])
        except ValueError as exc:
            raise ValueError(f"malformed header: {exc}") from None
        shape = (n_frames, n_lat, n_lon)
        expected = math.prod(shape)
        st = os.fstat(fh.fileno())
        fits = 0 <= expected and (expected <= st.st_size or not S_ISREG(st.st_mode))
        flat = np.empty(expected if fits else 0, dtype=np.int64)
        found, error = 0, None
        while lines := fh.readlines(cloud._CHUNK_BYTES):
            tokens = "".join(lines).split()
            if error is None and found + len(tokens) <= flat.size:
                error = oracle_parse_cells(tokens, flat, found, shape)
            found += len(tokens)
    if found != expected:
        raise ValueError(f"expected {expected} cell values "
                         f"({n_frames}x{n_lat}x{n_lon}), found {found}")
    if error is not None:
        raise error
    grid = cloud.CloudGrid(lat_min, lat_max, lon_min, lon_max, lat_step, lon_step,
                           time_start, flat.reshape(shape))
    return replace(grid, frames=grid.frames.astype(np.int16))


def oracle_save_cloud_grid(grid: cloud.CloudGrid, path) -> None:
    bounds = (grid.lat_min, grid.lat_max, grid.lon_min, grid.lon_max,
              grid.lat_step, grid.lon_step)
    with open(path, "w") as fh:
        fh.write(" ".join(repr(float(v)) for v in bounds) + " "
                 f"{grid.time_start.isoformat()} "
                 f"{grid.n_frames} {grid.frames.shape[1]} {grid.frames.shape[2]}\n")
        for frame in grid.frames:
            for row in frame:
                fh.write(" ".join(str(int(v)) for v in row) + "\n")
