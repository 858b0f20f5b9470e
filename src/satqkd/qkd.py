"""Asymptotic decoy-state BB84 secure-key budgets.

Per-pulse gain and QBER come from the standard channel model

    Q(mu_i) = y0 + 1 - exp(-eta * mu_i)
    E(mu_i) = (e0 * y0 + e_det * (1 - exp(-eta * mu_i))) / Q(mu_i)

single-photon bounds from the vacuum+weak decoy estimate, and the secure rate
from the GLLP formula

    R = q * ( -f_e * Q_mu * h2(E_mu) + Q1 * (1 - h2(e1)) )

clamped at zero.  Rates integrate over access intervals as rate-per-second
times sample spacing, and assemble into the per-interval, per-node key matrix
used by the scheduler.
"""
from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass, field
from datetime import datetime, timedelta, timezone
from functools import cached_property
from typing import Sequence

import numpy as np

from .channel import LossBreakdown, OpticalParams, total_loss
from .cloud import CloudGrid, query_column
from .orbit import AccessInterval, GroundStation, _from_us, _to_us


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


def binary_entropy(x: float) -> float:
    """h2(x) = -x log2 x - (1-x) log2 (1-x), with h2(0) = h2(1) = 0."""
    if x <= 0.0 or x >= 1.0:
        return 0.0
    return -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)


def gain_and_qber(mu_i: float, eta: float, params: QkdParams) -> tuple[float, float]:
    """Gain and QBER of intensity mu_i through transmittance eta."""
    if not 0.0 <= eta <= 1.0:
        raise ValueError(f"eta must be in [0, 1], got {eta}")
    if mu_i < 0.0:
        raise ValueError(f"intensity must be >= 0, got {mu_i}")
    detected = -math.expm1(-eta * mu_i)
    gain = params.y0 + detected
    qber = (params.e0 * params.y0 + params.e_detector * detected) / gain
    return gain, qber


def decoy_estimate(params: QkdParams, eta: float) -> tuple[float, float, float]:
    """Vacuum+weak decoy bounds: (Y1 lower, Q1, e1 upper), each in [0, 1].

    Assumes omega = 0 so the vacuum gain is identified with y0.
    """
    mu, nu = params.mu, params.nu
    denom = mu * nu - nu * nu
    if denom <= 0.0:
        raise ValueError(f"decoy bound needs nu < mu, got nu={nu}, mu={mu}")
    q_mu, _ = gain_and_qber(mu, eta, params)
    q_nu, e_nu = gain_and_qber(nu, eta, params)

    y1 = (mu / denom) * (q_nu * math.exp(nu)
                         - q_mu * math.exp(mu) * (nu * nu) / (mu * mu)
                         - ((mu * mu - nu * nu) / (mu * mu)) * params.y0)
    y1 = min(max(y1, 0.0), 1.0)
    q1 = y1 * mu * math.exp(-mu)
    if y1 * nu > 0.0:
        e1 = (e_nu * q_nu * math.exp(nu) - params.e0 * params.y0) / (y1 * nu)
    else:
        e1 = 1.0  # no single-photon signal survives; worst case
    e1 = min(max(e1, 0.0), 1.0)
    return y1, q1, e1


def gllp_rate(eta: float, params: QkdParams) -> RateResult:
    """Secure-key rate for one transmittance; degenerate inputs give rate 0."""
    q_mu, e_mu = gain_and_qber(params.mu, eta, params)
    y1, q1, e1 = decoy_estimate(params, eta)
    bracket = (-params.f_e * q_mu * binary_entropy(e_mu)
               + q1 * (1.0 - binary_entropy(e1)))
    per_pulse = max(0.0, params.q_factor * bracket)
    return RateResult(q_mu=q_mu, e_mu=e_mu, y1_lower=y1, q1=q1, e1_upper=e1,
                      rate_per_pulse=per_pulse,
                      rate_per_second=per_pulse * params.rep_rate_hz)


@dataclass(frozen=True)
class KeyMatrix:
    """K[m][n]: secure-key bits obtainable in interval m by node n."""
    start: datetime
    interval_seconds: float
    node_names: tuple[str, ...]
    values: np.ndarray = field(repr=False)  # (n_intervals, n_nodes) float

    def __post_init__(self):
        v = self.values
        if v.ndim != 2 or v.shape[1] != len(self.node_names):
            raise ValueError(f"values shape {v.shape} inconsistent with "
                             f"{len(self.node_names)} nodes")
        if not np.all(np.isfinite(v)) or np.any(v < 0):
            raise ValueError("key matrix entries must be finite and >= 0")

    @property
    def n_intervals(self) -> int:
        return int(self.values.shape[0])

    @property
    def n_nodes(self) -> int:
        return int(self.values.shape[1])

    def interval_start(self, m: int) -> datetime:
        return self.start + timedelta(seconds=m * self.interval_seconds)

    @cached_property
    def interval_labels(self) -> list[str]:
        """ISO-8601 start of every interval, built once per matrix."""
        return [self.interval_start(m).isoformat() for m in range(self.n_intervals)]


def pass_link_budget(access: AccessInterval, optics: OpticalParams,
                     cloud: CloudGrid | None = None) -> list[LossBreakdown]:
    """Loss decomposition of each sample of one pass (scalar total_loss:
    numpy's exp/log10 can differ from math's in the last bit)."""
    station = access.station
    alphas = ([0] * len(access.time_us) if cloud is None else
              query_column(cloud, station.latitude_deg, station.longitude_deg,
                           access.time_us).tolist())
    return [total_loss(look, alpha, optics)
            for look, alpha in zip(access.looks(), alphas)]


def add_key_bits(values: np.ndarray, start: datetime, interval_seconds: float,
                 params: QkdParams, nodes, time_us: np.ndarray,
                 etas: Sequence[float], step_seconds: float, where) -> None:
    """Add rate_per_second(eta) * step of each sample, in order, to its grid
    interval; nodes is one column or one per sample, where(i) names sample i."""
    rows = np.floor((time_us - _to_us(start)) / 1e6 / interval_seconds)
    outside = (rows < 0) | (rows >= len(values))
    if outside.any():
        raise ValueError(f"{where(int(np.argmax(outside)))} is outside the "
                         f"{len(values)}-interval grid from {start.isoformat()}")
    for m, n, eta in zip(rows.astype(np.intp).tolist(),
                         np.broadcast_to(nodes, rows.shape).tolist(), etas):
        if eta > 0.0:
            values[m, n] += gllp_rate(eta, params).rate_per_second * step_seconds


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
    if start.tzinfo is None:
        start = start.replace(tzinfo=timezone.utc)
    column = {st.name: i for i, st in enumerate(stations)}
    values = np.zeros((n_intervals, len(stations)))
    for access in accesses:
        n = column.get(access.station.name)
        if n is None:
            raise ValueError(f"access interval for unknown station "
                             f"{access.station.name!r}")
        etas = [loss.transmittance for loss in pass_link_budget(access, optics, cloud)]
        add_key_bits(values, start, interval_seconds, params, n, access.time_us, etas,
                     access.step_seconds, lambda i, t=access.time_us:
                     f"grid misalignment: sample at {_from_us(int(t[i])).isoformat()}")
    return KeyMatrix(start=start, interval_seconds=interval_seconds,
                     node_names=tuple(st.name for st in stations), values=values)


def params_digest(params: QkdParams) -> str:
    """Stable hash of the QKD parameter set, for export sidecars."""
    payload = json.dumps(asdict(params), sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def export_key_matrix(matrix: KeyMatrix, params: QkdParams,
                      csv_path, meta_path) -> None:
    """Write nonzero entries as CSV plus a JSON metadata sidecar."""
    with open(csv_path, "w", encoding="utf-8") as fh:
        fh.write("interval_index,node_name,start_utc,key_bits\n")
        rows, cols = np.nonzero(matrix.values)
        for m, n in zip(rows.tolist(), cols.tolist()):
            fh.write(f"{m},{matrix.node_names[n]},"
                     f"{matrix.interval_start(m).isoformat()},"
                     f"{float(matrix.values[m, n])!r}\n")
    meta = {
        "grid_start_utc": matrix.start.isoformat(),
        "interval_seconds": matrix.interval_seconds,
        "n_intervals": matrix.n_intervals,
        "node_names": list(matrix.node_names),
        "params_digest": params_digest(params),
    }
    with open(meta_path, "w", encoding="utf-8") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")
