"""Gridded cloud-optical-thickness data with 10-minute cadence.

File format (plain text, whitespace separated):

    lat_min lat_max lon_min lon_max lat_step lon_step time_start_iso8601 n_frames n_lat n_lon
    <n_frames matrices of n_lat x n_lon integers, lat ascending, lon ascending>

Values are integers 0..150 (0 cloudless, 150 overcast).  Spatial queries use
the nearest cell with ties going to the smaller index; temporal queries floor
to the containing 10-minute frame.
"""
from __future__ import annotations

import math
import os
from stat import S_ISREG
from dataclasses import dataclass, field, replace
from datetime import datetime

import numpy as np

from .orbit import _as_utc, _from_us, _to_us

TIME_STEP_SECONDS = 600
MAX_INDEX = 150
_CHUNK_BYTES = 1 << 18  # text read and parsed at a time by load_cloud_grid


def cloud_loss(alpha: int) -> float:
    """Cloud attenuation -10*log10((150 - alpha)/150) dB; +inf when overcast."""
    if not 0 <= alpha <= MAX_INDEX:
        raise ValueError(f"cloud index {alpha} outside [0, {MAX_INDEX}]")
    if alpha == MAX_INDEX:
        return math.inf
    # + 0.0 turns the IEEE -0.0 at alpha=0 into a plain 0.0
    return -10.0 * math.log10((MAX_INDEX - alpha) / MAX_INDEX) + 0.0


@dataclass(frozen=True)
class CloudGrid:
    lat_min: float
    lat_max: float
    lon_min: float
    lon_max: float
    lat_step: float
    lon_step: float
    time_start: datetime
    frames: np.ndarray = field(repr=False)  # (n_frames, n_lat, n_lon) ints

    def __post_init__(self):
        object.__setattr__(self, "time_start", _as_utc(self.time_start))
        f = self.frames
        if f.ndim != 3 or f.shape[0] < 1:
            raise ValueError(f"frames must be a 3-D array, got shape {f.shape}")
        if self.lat_step <= 0 or self.lon_step <= 0:
            raise ValueError("grid steps must be positive")
        for axis, (lo, hi, step, count) in enumerate(
                [(self.lat_min, self.lat_max, self.lat_step, f.shape[1]),
                 (self.lon_min, self.lon_max, self.lon_step, f.shape[2])]):
            if count < 1:
                raise ValueError("grid must contain at least one cell per axis")
            if abs(lo + (count - 1) * step - hi) > 1e-9:
                name = ("lat", "lon")[axis]
                raise ValueError(
                    f"{name} header mismatch: {lo} + {count - 1}*{step} != {hi}")
        bad = (f < 0) | (f > MAX_INDEX)
        if bad.any():
            k, i, j = (int(v) for v in np.argwhere(bad)[0])
            raise ValueError(
                f"cloud value {int(f[k, i, j])} outside [0, {MAX_INDEX}] "
                f"at frame {k}, lat row {i}, lon col {j}")

    @property
    def n_frames(self) -> int:
        return int(self.frames.shape[0])


def load_cloud_grid(path) -> CloudGrid:
    """Parse and fully validate a cloud grid file.

    Cells are parsed a chunk of lines at a time into one int64 array, so the
    whole file is never held as one Python string per cell.
    """
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
        # a regular file holds fewer cells than bytes, so a header claiming
        # more (or a negative count) fails the count check without allocating
        st = os.fstat(fh.fileno())
        fits = 0 <= expected and (expected <= st.st_size or not S_ISREG(st.st_mode))
        flat = np.empty(expected if fits else 0, dtype=np.int64)
        found, error = 0, None
        while lines := fh.readlines(_CHUNK_BYTES):
            tokens = "".join(lines).split()
            if error is None and found + len(tokens) <= flat.size:
                error = _parse_cells(tokens, flat, found, shape)
            found += len(tokens)
    # a wrong cell count is reported before a bad value, wherever each is
    if found != expected:
        raise ValueError(f"expected {expected} cell values "
                         f"({n_frames}x{n_lat}x{n_lon}), found {found}")
    if error is not None:
        raise error
    # the range check runs on the parsed values, before the int16 narrowing
    grid = CloudGrid(lat_min, lat_max, lon_min, lon_max, lat_step, lon_step,
                     time_start, flat.reshape(shape))
    return replace(grid, frames=grid.frames.astype(np.int16))


def _parse_cells(tokens: list[str], flat: np.ndarray, start: int,
                 shape: tuple[int, int, int]) -> ValueError | None:
    """Parse tokens into flat[start:], each as int() does; the error of the
    first bad token, if any."""
    try:
        flat[start:start + len(tokens)] = np.array(tokens, dtype=np.int64)
    except ValueError as exc:
        return ValueError(f"non-integer cell value: {exc}")
    except OverflowError:
        n = next(n for n, tok in enumerate(tokens) if abs(int(tok)) >= 2**63)
        k, i, j = np.unravel_index(start + n, shape)
        return ValueError(f"cloud value {tokens[n]} outside [0, {MAX_INDEX}] "
                          f"at frame {k}, lat row {i}, lon col {j}")
    return None


def save_cloud_grid(grid: CloudGrid, path) -> None:
    """Write a grid in the documented text format (bit-exact integers)."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{grid.lat_min:g} {grid.lat_max:g} {grid.lon_min:g} {grid.lon_max:g} "
                 f"{grid.lat_step:g} {grid.lon_step:g} "
                 f"{grid.time_start.isoformat()} "
                 f"{grid.n_frames} {grid.frames.shape[1]} {grid.frames.shape[2]}\n")
        for frame in grid.frames:
            for row in frame:
                fh.write(" ".join(str(int(v)) for v in row) + "\n")


def _nearest_index(value: float, origin: float, step: float, count: int,
                   what: str) -> int:
    u = (value - origin) / step
    if u < -1e-9 or u > count - 1 + 1e-9:
        raise ValueError(f"{what} {value} outside grid bounds "
                         f"[{origin}, {origin + (count - 1) * step}]")
    # round half down so the smaller index wins exact midpoints
    idx = math.ceil(u - 0.5)
    return min(max(idx, 0), count - 1)


def query_column(grid: CloudGrid, lat: float, lon: float,
                 time_us: np.ndarray) -> np.ndarray:
    """Cloud index at (lat, lon) for each time in int64 microseconds."""
    i = _nearest_index(lat, grid.lat_min, grid.lat_step, grid.frames.shape[1], "latitude")
    j = _nearest_index(lon, grid.lon_min, grid.lon_step, grid.frames.shape[2], "longitude")
    # offset seconds as timedelta.total_seconds() gives them
    k = np.floor((time_us - _to_us(grid.time_start)) / 1e6 / TIME_STEP_SECONDS)
    outside = (k < 0) | (k >= grid.n_frames)
    if outside.any():
        t = _from_us(int(time_us[np.argmax(outside)]))
        raise ValueError(f"time {t.isoformat()} outside grid span of "
                         f"{grid.n_frames} frames from {grid.time_start.isoformat()}")
    return grid.frames[k.astype(np.intp), i, j]


def query(grid: CloudGrid, lat: float, lon: float, t: datetime) -> int:
    """Cloud index at (lat, lon, t): nearest cell, floor time bucket."""
    return int(query_column(grid, lat, lon, np.array([_to_us(t)], dtype=np.int64))[0])


def synthetic_cloud_grid(lat_min: float, lat_max: float, lon_min: float, lon_max: float,
                         lat_step: float, lon_step: float, time_start: datetime,
                         n_frames: int,
                         blobs: list[tuple[float, float, float, float]] | None = None,
                         drift_deg_per_frame: tuple[float, float] = (0.0, 0.0),
                         base: int = 0) -> CloudGrid:
    """Deterministic test grid built from Gaussian opacity blobs.

    Each blob is (center_lat, center_lon, sigma_deg, peak); blob centres drift
    by drift_deg_per_frame between frames.  Values are rounded and clipped to
    the valid 0..150 range.
    """
    n_lat = round((lat_max - lat_min) / lat_step) + 1
    n_lon = round((lon_max - lon_min) / lon_step) + 1
    lats = lat_min + lat_step * np.arange(n_lat)
    lons = lon_min + lon_step * np.arange(n_lon)
    grid_lat, grid_lon = np.meshgrid(lats, lons, indexing="ij")
    frames = np.empty((n_frames, n_lat, n_lon), dtype=np.int16)
    for k in range(n_frames):
        acc = np.full((n_lat, n_lon), float(base))
        for (c_lat, c_lon, sigma, peak) in blobs or []:
            c_lat += drift_deg_per_frame[0] * k
            c_lon += drift_deg_per_frame[1] * k
            d2 = (grid_lat - c_lat) ** 2 + (grid_lon - c_lon) ** 2
            acc += peak * np.exp(-d2 / (2.0 * sigma * sigma))
        frames[k] = np.clip(np.rint(acc), 0, MAX_INDEX).astype(np.int16)
    return CloudGrid(lat_min, lat_min + (n_lat - 1) * lat_step,
                     lon_min, lon_min + (n_lon - 1) * lon_step,
                     lat_step, lon_step, time_start, frames)
