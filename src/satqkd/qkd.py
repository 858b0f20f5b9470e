"""Asymptotic decoy-state BB84 secure-key budgets.

Per-pulse gain and QBER come from the standard channel model

    Q(mu_i) = y0 + 1 - exp(-eta * mu_i)
    E(mu_i) = (e0 * y0 + e_det * (1 - exp(-eta * mu_i))) / Q(mu_i)

single-photon bounds from the vacuum+weak decoy estimate, and the secure rate
from the GLLP formula

    R = q * ( -f_e * Q_mu * h2(E_mu) + Q1 * (1 - h2(e1)) )

clamped at zero.  Rates integrate over access intervals as rate-per-second
times sample spacing, and assemble into the per-interval, per-node key matrix
used by the scheduler.  Each formula runs over a column of transmittances
as numpy arrays doing only + - * /, comparisons and np.where, with expm1
and log2 the `math` functions mapped over the column, as in channel: the
bits are those of the scalar code, whichever SIMD loops numpy picks.  A zero
gain (y0 = 0 and eta * mu underflowing to 0) has QBER 0 and rate 0.  The
scalar functions are one-element calls that return Python floats.

Passes are walked in blocks of about _RATE_CHUNK samples that span many
short passes (`pass_blocks`): one kernel call per pass costs more than the
old float loops on passes of a few dozen samples.  A block raises the error
of the first bad sample its kernels meet.

The key matrix holds only its nonzero cells, as row-major (interval, node,
bits) columns, never an intervals x nodes or a rows x nodes array:
add_key_bits turns samples into such columns and assemble_key_matrix sums
the samples of each cell.
"""
from __future__ import annotations

import hashlib
import json
import operator
from dataclasses import asdict, dataclass, field
from datetime import datetime, timedelta
from math import exp, expm1, log2
from typing import Iterator, Sequence

import numpy as np

# total_loss is not called here; the benchmark's tracer patches it under this name
from .channel import (  # noqa: F401
    LossColumns,
    OpticalParams,
    _float_rules,
    _mapped,
    loss_columns,
    total_loss,
)
from .cloud import CloudGrid, query_column
from .orbit import AccessInterval, GroundStation, _as_utc, _from_us, _to_us, _unix_to_us
from .output import integers, iso_utc, round_trip, row_chunks, spelled, write_csv, write_json


# Samples per kernel call: pass_blocks closes a block of passes at this many,
# and add_key_bits rates at most this many at a time (a week at 1 s is ~10 MB
# of floats)
_RATE_CHUNK = 4096


@dataclass(frozen=True)
class QkdParams:
    """Source, protocol and detector parameters of the decoy-state link."""
    mu: float = 0.5                 # signal intensity
    nu: float = 0.08                # decoy intensity
    omega: float = 0.0              # vacuum intensity
    rep_rate_hz: float = 2e8
    q_factor: float = 0.5           # 0.5 standard BB84 sifting, ~1 efficient BB84
    f_e: float = 1.16               # error-correction inefficiency
    e_detector: float = 0.015       # optical misalignment error probability
    y0: float = 3e-6                # background yield per pulse
    e0: float = 0.5                 # background error probability

    def __post_init__(self):
        if not 0.0 <= self.omega < self.nu < self.mu:
            raise ValueError(
                f"intensities must satisfy 0 <= omega < nu < mu, "
                f"got ({self.omega}, {self.nu}, {self.mu})")
        if self.mu * self.nu - self.nu * self.nu <= 0.0:  # rounds to 0 for nu ~ mu
            raise ValueError(f"decoy bound needs nu < mu, got nu={self.nu}, mu={self.mu}")
        if not 0.0 < self.q_factor <= 1.0:
            raise ValueError(f"q_factor must be in (0, 1], got {self.q_factor}")
        if self.f_e < 1.0:
            raise ValueError(f"f_e must be >= 1, got {self.f_e}")
        if self.rep_rate_hz <= 0:
            raise ValueError("rep_rate_hz must be positive")
        for name in ("e_detector", "y0", "e0"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValueError(f"{name} must be a probability in [0, 1]")


@dataclass(frozen=True)
class RateResult:
    """Gains, error bounds and the clamped secure rate for one transmittance."""
    q_mu: float
    e_mu: float
    y1_lower: float
    q1: float
    e1_upper: float
    rate_per_pulse: float
    rate_per_second: float


def _clamped(values: np.ndarray, low: float, high: float) -> np.ndarray:
    """min(max(v, low), high) of each v: NaN and a -0.0 at low pass through."""
    values = np.where(low > values, low, values)
    return np.where(high < values, high, values)


def _entropies(xs: np.ndarray) -> np.ndarray:
    """binary_entropy of each x."""
    h = np.zeros(len(xs))
    inside = ~((xs <= 0.0) | (xs >= 1.0))
    x = xs[inside]
    y = 1.0 - x
    h[inside] = -x * _mapped(log2, x.tolist()) - y * _mapped(log2, y.tolist())
    return h


def binary_entropy(x: float) -> float:
    """h2(x) = -x log2 x - (1-x) log2 (1-x), with h2(0) = h2(1) = 0."""
    return _entropies(np.array([x], dtype=float))[0].item()


@_float_rules
def _gains(mu_i: float, etas, params: QkdParams) -> tuple[np.ndarray, np.ndarray]:
    """Gain and QBER columns of intensity mu_i; a zero gain has QBER 0."""
    column = np.asarray(etas, dtype=float)
    if (bad := ~((0.0 <= column) & (column <= 1.0))).any():
        raise ValueError(f"eta must be in [0, 1], got {etas[int(np.argmax(bad))]}")
    if mu_i < 0.0:
        raise ValueError(f"intensity must be >= 0, got {mu_i}")
    y0, e0_y0, e_det = params.y0, params.e0 * params.y0, params.e_detector
    detected = -_mapped(expm1, (-column * mu_i).tolist())
    gains = y0 + detected
    # a zero gain (y0 = 0 and eta * mu_i = 0) has no errors: its numerator is 0 too
    return gains, np.divide(e0_y0 + e_det * detected, gains, out=np.zeros(len(gains)),
                            where=gains != 0.0)


def gain_and_qber(mu_i: float, eta: float, params: QkdParams) -> tuple[float, float]:
    """Gain and QBER of intensity mu_i through transmittance eta."""
    return tuple(column[0].item() for column in _gains(mu_i, [eta], params))


@_float_rules
def _rate_terms(etas, params: QkdParams) -> tuple[np.ndarray, ...]:
    """Columns of Q_mu, E_mu, Y1 lower, Q1, e1 upper and the per-pulse rate."""
    mu, nu = params.mu, params.nu
    mu2, nu2 = mu * mu, nu * nu
    q_mus, e_mus = _gains(mu, etas, params)
    q_nus, e_nus = _gains(nu, etas, params)
    scale, vacuum = mu / (mu * nu - nu2), ((mu2 - nu2) / mu2) * params.y0
    e0_y0, f_e, q_factor = params.e0 * params.y0, params.f_e, params.q_factor
    exp_mu, exp_nu, exp_neg_mu = exp(mu), exp(nu), exp(-mu)
    y1s = _clamped(scale * (q_nus * exp_nu - q_mus * exp_mu * nu2 / mu2 - vacuum), 0.0, 1.0)
    q1s = y1s * mu * exp_neg_mu
    # e1 = 1 where no single-photon signal survives (the worst case)
    e1s = np.ones(len(y1s))
    signal = y1s * nu > 0.0
    e1s[signal] = _clamped((e_nus[signal] * q_nus[signal] * exp_nu - e0_y0)
                           / (y1s[signal] * nu), 0.0, 1.0)
    bracket = q_factor * (-f_e * q_mus * _entropies(e_mus) + q1s * (1.0 - _entropies(e1s)))
    # max(0.0, x) is x only where x > 0.0: NaN and -0.0 become 0.0
    return q_mus, e_mus, y1s, q1s, e1s, np.where(bracket > 0.0, bracket, 0.0)


def decoy_estimate(params: QkdParams, eta: float) -> tuple[float, float, float]:
    """Vacuum+weak decoy bounds: (Y1 lower, Q1, e1 upper), each in [0, 1].

    Assumes omega = 0 so the vacuum gain is identified with y0.
    """
    return tuple(column[0].item() for column in _rate_terms([eta], params)[2:5])


def gllp_rate(eta: float, params: QkdParams) -> RateResult:
    """Secure-key rate for one transmittance; degenerate inputs give rate 0."""
    *terms, per_pulse = (column[0].item() for column in _rate_terms([eta], params))
    return RateResult(*terms, per_pulse, per_pulse * params.rep_rate_hz)


def _indices(name: str, values) -> np.ndarray:
    """A copy of an integer column as int64, or ValueError; a float column
    is refused rather than truncated."""
    column = np.asarray(values)
    if column.size and column.dtype.kind not in "iu":
        raise ValueError(f"{name} holds {column.dtype} values, not integers")
    return np.array(column, dtype=np.int64)


def row_heads(interval: np.ndarray) -> np.ndarray:
    """The index of each row's first cell in a row-major interval column."""
    return np.flatnonzero(np.diff(interval, prepend=-1))


@dataclass(frozen=True, eq=False)
class KeyMatrix:
    """K[m][n]: secure-key bits obtainable in interval m by node n.

    Held as its nonzero cells, in three row-major columns: `cell_intervals`,
    `cell_nodes` and `cell_bits`; every other cell is zero.  The constructor
    checks that the grid has n_intervals >= 0, that the columns are 1-D and
    of one length, that each cell is an integer (interval, node) inside the
    grid, once and in row-major order, and that its bits are finite and > 0;
    it keeps read-only copies.
    `rows` are the sorted intervals with a nonzero cell.
    """
    start: datetime
    interval_seconds: float
    node_names: tuple[str, ...]
    n_intervals: int
    cell_intervals: np.ndarray = field(repr=False)  # (C,) int64, nondecreasing
    cell_nodes: np.ndarray = field(repr=False)      # (C,) int64, increasing in a row
    cell_bits: np.ndarray = field(repr=False)       # (C,) float
    rows: np.ndarray = field(init=False, repr=False)  # (R,) int64, strictly increasing

    def __post_init__(self):
        n_intervals, n_nodes = operator.index(self.n_intervals), len(self.node_names)
        if n_intervals < 0:
            raise ValueError(f"n_intervals must be >= 0, got {n_intervals}")
        interval = _indices("cell_intervals", self.cell_intervals)
        node = _indices("cell_nodes", self.cell_nodes)
        bits = np.array(self.cell_bits, dtype=float)
        if not interval.ndim == node.ndim == bits.ndim == 1 or not (
                len(interval) == len(node) == len(bits)):
            raise ValueError(f"cell columns must be 1-D and of one length, got shapes "
                             f"{interval.shape}, {node.shape} and {bits.shape}")
        for name, column, size in (("cell_intervals", interval, n_intervals),
                                   ("cell_nodes", node, n_nodes)):
            if len(column) and (column.min() < 0 or column.max() >= size):
                raise ValueError(f"{name} must lie in 0..{size - 1}")
        if (np.diff(interval * n_nodes + node) <= 0).any():
            raise ValueError("cells must be in row-major order, each once")
        # min and max see every cell (a NaN makes both NaN) without the
        # temporaries that finding the first bad cell needs
        if bits.size and not (bits.min() > 0.0 and bits.max() < np.inf):
            i = int(np.flatnonzero(~((bits > 0.0) & (bits < np.inf)))[0])
            fault = "zero: only nonzero cells are held" if bits[i] == 0.0 else (
                "not finite and >= 0")
            raise ValueError(f"key matrix entry [{interval[i]}][{node[i]}] = "
                             f"{float(bits[i])!r} is {fault}")
        rows = interval[row_heads(interval)]
        for column in (rows, interval, node, bits):
            column.flags.writeable = False
        for name, value in (("start", _as_utc(self.start)),
                            ("node_names", tuple(self.node_names)),
                            ("n_intervals", n_intervals), ("rows", rows),
                            ("cell_intervals", interval), ("cell_nodes", node),
                            ("cell_bits", bits)):
            object.__setattr__(self, name, value)

    @property
    def n_nodes(self) -> int:
        return len(self.node_names)

    def nonzero(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Interval, node and bits of every nonzero cell, in row-major order."""
        return self.cell_intervals, self.cell_nodes, self.cell_bits

    def interval_start(self, m: int) -> datetime:
        return self.start + timedelta(seconds=m * self.interval_seconds)

    def row_us(self, rows: np.ndarray) -> np.ndarray:
        """interval_start(m) of each m in rows, as int64 microseconds from the
        Unix epoch."""
        # the offsets round to microseconds as timedelta(seconds=...) does
        offsets = _unix_to_us(np.asarray(rows, dtype=np.int64) * self.interval_seconds)
        return _to_us(self.start) + offsets


def pass_blocks(accesses: Sequence[AccessInterval]) -> Iterator[list[AccessInterval]]:
    """Runs of consecutive passes, each closed once it holds _RATE_CHUNK
    samples, so a kernel call covers many short passes or one long one."""
    block, size = [], 0
    for access in accesses:
        block.append(access)
        size += len(access.time_us)
        if size >= _RATE_CHUNK:
            yield block
            block, size = [], 0
    if block:
        yield block


def link_budget(accesses: Sequence[AccessInterval], optics: OpticalParams,
                cloud: CloudGrid | None = None) -> LossColumns:
    """Loss columns of the samples of the given passes, in order."""
    alphas = []
    for access in accesses:
        station = access.station
        try:
            alphas.append(np.zeros(len(access.time_us), np.int16) if cloud is None else
                          query_column(cloud, station.latitude_deg,
                                       station.longitude_deg, access.time_us))
        except ValueError as exc:
            raise ValueError(f"cloud: {station.name}: {exc}") from None
    return loss_columns(joined(accesses, "elevation_deg"),
                        joined(accesses, "slant_range_km"), np.concatenate(alphas), optics)


def joined(accesses: Sequence[AccessInterval], name: str) -> np.ndarray:
    """One column (time_us, elevation_deg, ...) of the passes, end to end."""
    return np.concatenate([getattr(access, name) for access in accesses])


def per_sample(accesses: Sequence[AccessInterval], values) -> np.ndarray:
    """values[i] of pass i, once per sample of the pass."""
    return np.repeat(values, [len(access.time_us) for access in accesses])


def add_key_bits(parts: list, start: datetime, interval_seconds: float,
                 n_intervals: int, params: QkdParams, nodes, time_us: np.ndarray,
                 etas, step_seconds, where) -> None:
    """Append the grid row, node and bits rate_per_second(eta) * step of each
    sample with eta > 0 to parts, in order; nodes and step_seconds are one
    value or one per sample, where(i) names sample i.  assemble_key_matrix
    sums them."""
    rows = np.floor((time_us - _to_us(start)) / 1e6 / interval_seconds)
    outside = (rows < 0) | (rows >= n_intervals)
    if outside.any():
        raise ValueError(f"{where(int(np.argmax(outside)))} is outside the "
                         f"{n_intervals}-interval grid from {_as_utc(start).isoformat()}")
    rows, nodes = rows.astype(np.int64), np.broadcast_to(nodes, rows.shape)
    steps = np.broadcast_to(step_seconds, rows.shape)
    etas = np.asarray(etas, dtype=float)
    keep = np.flatnonzero(etas > 0.0)
    bits = np.empty(len(keep))
    for lo in range(0, len(keep), _RATE_CHUNK):
        part = keep[lo:lo + _RATE_CHUNK]
        per_pulse = _rate_terms(etas[part], params)[-1]
        bits[lo:lo + len(part)] = per_pulse * params.rep_rate_hz * steps[part]
    parts.append((rows[keep], nodes[keep], bits))


def assemble_key_matrix(parts: Sequence[tuple[np.ndarray, np.ndarray, np.ndarray]],
                        start: datetime, interval_seconds: float, n_intervals: int,
                        node_names: Sequence[str]) -> KeyMatrix:
    """The key matrix of the samples add_key_bits appended to parts: each
    cell sums its samples' bits one at a time, in sample order, and the
    cells that sum to zero are left out."""
    rows, nodes, bits = ((np.concatenate(column) for column in zip(*parts)) if parts
                         else (np.empty(0, np.int64),) * 3)
    n_nodes = len(node_names)
    # one key per cell, ordered as the cells are in row-major order
    keys, owner = np.unique(rows * n_nodes + nodes, return_inverse=True)
    sums = np.zeros(len(keys))
    np.add.at(sums, owner, bits)  # repeated cells add in sample order
    keep = np.flatnonzero(sums)  # NaN and negative sums stay, to be named
    interval, node = np.divmod(keys[keep], n_nodes)
    return KeyMatrix(start, interval_seconds, node_names, n_intervals, interval, node,
                     sums[keep])


def build_key_matrix(accesses: Sequence[AccessInterval],
                     stations: Sequence[GroundStation],
                     optics: OpticalParams,
                     params: QkdParams,
                     start: datetime,
                     n_intervals: int,
                     interval_seconds: float = 10.0,
                     cloud: CloudGrid | None = None) -> KeyMatrix:
    """Aggregate per-sample key rates onto the scheduling grid.

    Every access sample contributes rate_per_second * sample_step to the grid
    interval containing it; entries stay 0 where a node has no usable access.
    Samples falling outside the grid raise (grid misalignment).
    """
    column = {st.name: i for i, st in enumerate(stations)}
    parts: list = []
    for block in pass_blocks(accesses):
        nodes = []
        for access in block:
            if (n := column.get(access.station.name)) is None:
                raise ValueError(f"access interval for unknown station "
                                 f"{access.station.name!r}")
            nodes.append(n)
        etas = link_budget(block, optics, cloud).transmittance
        time_us = joined(block, "time_us")
        add_key_bits(parts, start, interval_seconds, n_intervals, params,
                     per_sample(block, nodes), time_us, etas,
                     per_sample(block, [access.step_seconds for access in block]),
                     lambda i: f"grid misalignment: sample at "
                     f"{_from_us(int(time_us[i])).isoformat()}")
    return assemble_key_matrix(parts, start, interval_seconds, n_intervals,
                               tuple(st.name for st in stations))


def params_digest(params: QkdParams) -> str:
    """Stable hash of the QKD parameter set, for export sidecars."""
    payload = json.dumps(asdict(params), sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def export_key_matrix(matrix: KeyMatrix, params: QkdParams,
                      csv_path, meta_path) -> None:
    """Write nonzero entries as CSV plus a JSON metadata sidecar."""
    rows, cols, bits = matrix.nonzero()
    names = spelled([name.encode() for name in matrix.node_names])
    write_csv(csv_path, "interval_index,node_name,start_utc,key_bits\n", (
        [integers(rows[part]), names[cols[part]], iso_utc(matrix.row_us(rows[part])),
         round_trip(bits[part])] for part in row_chunks(len(rows))))
    write_json(meta_path, {
        "grid_start_utc": matrix.start.isoformat(),
        "interval_seconds": matrix.interval_seconds,
        "n_intervals": matrix.n_intervals,
        "node_names": list(matrix.node_names),
        "params_digest": params_digest(params),
    })
