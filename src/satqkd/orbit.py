"""Orbital geometry for satellite-to-ground optical links.

Turns a two-line element set (or a precomputed ephemeris) plus ground-station
coordinates into time series of elevation, slant range and night-time
visibility, discretised into access intervals.

Propagation is Keplerian two-body plus J2 secular rates on the node and the
argument of perigee; the TLE mean motion is taken as the observed anomalistic
rate, so the mean anomaly advances at exactly that rate.  A spherical Earth
(equatorial radius) is used for topocentric geometry, and the Sun comes from a
low-precision analytic ephemeris (good to well under 0.5 degrees).

Access windows are computed once per span, not once per station.  The span is
walked in fixed-size blocks; per block the propagation, GMST and the
Earth-fixed satellite position are shared by every station, and the Sun's
RA/Dec is computed where any station has the satellite above the horizon.
Per station only the vertical component covers the whole block: range,
elevation and solar elevation are evaluated above the horizon, and azimuth
only on usable samples.  Each value is the same elementwise formula as on
the full grid, so the results are bit-identical to it.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from datetime import datetime, timedelta, timezone
from typing import Sequence

import numpy as np

EARTH_RADIUS_KM = 6378.137
EARTH_MU_KM3_S2 = 398600.4418
J2 = 1.08262668e-3
SIDEREAL_RATE_DEG_PER_DAY = 360.98564736629

_UNIX_JD = 2440587.5  # Julian date of 1970-01-01T00:00:00Z
_J2000_JD = 2451545.0

# Samples per block in compute_access_windows: a week at 1 s is 37 blocks,
# so the propagation temporaries stay near a megabyte each.
_BLOCK_SAMPLES = 16384


class TleError(ValueError):
    """Raised when a TLE line fails structural or checksum validation.

    Carries the 1-based line number and column span of the offending field.
    """

    def __init__(self, message: str, line: int | None = None,
                 columns: tuple[int, int] | None = None):
        where = ""
        if line is not None:
            where = f" (line {line}"
            if columns is not None:
                where += f", columns {columns[0]}-{columns[1]}"
            where += ")"
        super().__init__(message + where)
        self.line = line
        self.columns = columns


def _as_utc(t: datetime) -> datetime:
    if t.tzinfo is None:
        return t.replace(tzinfo=timezone.utc)
    return t.astimezone(timezone.utc)


def _to_unix(t: datetime) -> float:
    return _as_utc(t).timestamp()


def _from_unix(u: float) -> datetime:
    return datetime.fromtimestamp(u, tz=timezone.utc)


_EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)


def _to_us(t: datetime) -> int:
    return (_as_utc(t) - _EPOCH) // timedelta(microseconds=1)


def _from_us(us: int) -> datetime:
    return _EPOCH + timedelta(microseconds=us)


def _unix_to_us(unix: np.ndarray) -> np.ndarray:
    """Microseconds as datetime.fromtimestamp rounds them (half to even)."""
    frac, whole = np.modf(unix)
    return whole.astype(np.int64) * 1_000_000 + np.rint(frac * 1e6).astype(np.int64)


@dataclass(frozen=True)
class TleElements:
    """Mean orbital elements decoded from a two-line element set."""
    epoch: datetime
    inclination_deg: float
    raan_deg: float
    eccentricity: float
    arg_perigee_deg: float
    mean_anomaly_deg: float
    mean_motion_rev_day: float
    bstar: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.eccentricity < 1.0:
            raise ValueError(f"eccentricity must be in [0, 1), got {self.eccentricity}")
        if self.mean_motion_rev_day <= 0.0:
            raise ValueError(f"mean motion must be positive, got {self.mean_motion_rev_day}")

    @property
    def period_seconds(self) -> float:
        return 86400.0 / self.mean_motion_rev_day

    @property
    def semi_major_axis_km(self) -> float:
        n = 2.0 * math.pi / self.period_seconds  # rad/s
        return (EARTH_MU_KM3_S2 / n**2) ** (1.0 / 3.0)


@dataclass(frozen=True)
class GroundStation:
    """An optical ground station with a scheduling weight."""
    name: str
    latitude_deg: float
    longitude_deg: float
    altitude_m: float = 0.0
    weight: float = 1.0

    def __post_init__(self):
        if not -90.0 <= self.latitude_deg <= 90.0:
            raise ValueError(f"{self.name}: latitude {self.latitude_deg} outside [-90, 90]")
        if not -180.0 <= self.longitude_deg <= 180.0:
            raise ValueError(f"{self.name}: longitude {self.longitude_deg} outside [-180, 180]")
        if not (math.isfinite(self.weight) and self.weight >= 0.0):
            raise ValueError(f"{self.name}: weight must be finite and >= 0, got {self.weight}")


@dataclass(frozen=True)
class SatelliteState:
    """Instantaneous Earth-centred inertial position/velocity, km and km/s."""
    time: datetime
    position_km: tuple[float, float, float]
    velocity_km_s: tuple[float, float, float]

    def __post_init__(self):
        r = math.sqrt(sum(c * c for c in self.position_km))
        if r <= EARTH_RADIUS_KM:
            raise ValueError(f"satellite radius {r:.3f} km is at or below the surface")


@dataclass(frozen=True)
class LookAngles:
    elevation_deg: float
    azimuth_deg: float
    slant_range_km: float


@dataclass(frozen=True, eq=False)
class AccessInterval:
    """A maximal run of usable samples for one station, held as columns.

    `end` is exclusive: it sits one sample step past the last usable sample,
    so end - start equals the usable duration.  Sample k, at the configured
    step, is at `time_us[k]` (int64 microseconds from the Unix epoch).
    """
    station: GroundStation
    start: datetime
    end: datetime
    time_us: np.ndarray = field(repr=False)
    elevation_deg: np.ndarray = field(repr=False)
    azimuth_deg: np.ndarray = field(repr=False)
    slant_range_km: np.ndarray = field(repr=False)

    @property
    def duration_seconds(self) -> float:
        return (self.end - self.start).total_seconds()

    @property
    def step_seconds(self) -> float:
        return self.duration_seconds / len(self.time_us)


# ---------------------------------------------------------------------------
# TLE parsing
# ---------------------------------------------------------------------------

def tle_checksum(line: str) -> int:
    """Modulo-10 checksum of the first 68 columns (digits count, '-' counts 1)."""
    s = 0
    for c in line[:68]:
        if c.isdigit():
            s += int(c)
        elif c == "-":
            s += 1
    return s % 10


def _field(line: str, lineno: int, lo: int, hi: int, kind: str, name: str):
    """Decode columns lo..hi (1-based, inclusive) of a TLE line."""
    raw = line[lo - 1:hi]
    try:
        if kind == "float":
            return float(raw)
        if kind == "int":
            return int(raw)
        if kind == "impdec":
            # implied decimal point: "0000000" -> 0.0000000
            return float("0." + raw.strip()) if raw.strip() else 0.0
        if kind == "impexp":
            # implied decimal with exponent: " 44914-4" -> 0.44914e-4
            txt = raw.strip()
            if not txt or set(txt) <= {"0", "+", "-"}:
                return 0.0
            sign = -1.0 if txt[0] == "-" else 1.0
            if txt[0] in "+-":
                txt = txt[1:]
            mantissa, exp = txt[:-2], txt[-2:]
            return sign * float("0." + mantissa) * 10.0 ** int(exp)
        raise AssertionError(kind)
    except (ValueError, IndexError):
        raise TleError(f"malformed {name} field {raw!r}", lineno, (lo, hi)) from None


def _epoch_from_fields(year2: int, day_of_year: float) -> datetime:
    year = year2 + (2000 if year2 < 57 else 1900)
    return (datetime(year, 1, 1, tzinfo=timezone.utc)
            + timedelta(days=day_of_year - 1.0))


def parse_tle(text: str) -> TleElements:
    """Decode a standard two-line element set.

    Args:
        text: exactly two 69-character lines (leading/trailing blank lines
            are tolerated); strict per-line checksum validation.

    Raises:
        TleError: on line count/length mismatch, checksum failure, or a
            malformed column, reported with line number and column span.
    """
    lines = [ln.rstrip("\r") for ln in text.splitlines() if ln.strip()]
    if len(lines) != 2:
        raise TleError(f"expected exactly 2 TLE lines, got {len(lines)}")
    for i, ln in enumerate(lines, start=1):
        if len(ln) != 69:
            raise TleError(f"line length {len(ln)} != 69", i, (1, 69))
        if ln[0] != str(i):
            raise TleError(f"line must start with '{i}', found {ln[0]!r}", i, (1, 1))
        expect = ln[68]
        if not expect.isdigit() or int(expect) != tle_checksum(ln):
            raise TleError(
                f"checksum mismatch: computed {tle_checksum(ln)}, stated {expect!r}",
                i, (69, 69))
    l1, l2 = lines

    year2 = _field(l1, 1, 19, 20, "int", "epoch year")
    doy = _field(l1, 1, 21, 32, "float", "epoch day")
    bstar = _field(l1, 1, 54, 61, "impexp", "bstar")

    return TleElements(
        epoch=_epoch_from_fields(year2, doy),
        inclination_deg=_field(l2, 2, 9, 16, "float", "inclination"),
        raan_deg=_field(l2, 2, 18, 25, "float", "RAAN"),
        eccentricity=_field(l2, 2, 27, 33, "impdec", "eccentricity"),
        arg_perigee_deg=_field(l2, 2, 35, 42, "float", "argument of perigee"),
        mean_anomaly_deg=_field(l2, 2, 44, 51, "float", "mean anomaly"),
        mean_motion_rev_day=_field(l2, 2, 53, 63, "float", "mean motion"),
        bstar=bstar,
    )


# ---------------------------------------------------------------------------
# Propagation
# ---------------------------------------------------------------------------

def _kepler_solve(mean_anomaly: np.ndarray, ecc: float) -> np.ndarray:
    """Eccentric anomaly from mean anomaly, vectorised Newton iteration.

    At most 12 steps.  A step is a function of the element's own bits, so an
    element that a step leaves bit-for-bit unchanged stays there; it leaves
    the iteration, and the result equals that of all 12 steps.
    """
    e_anom = mean_anomaly.copy()
    live = np.arange(e_anom.size)
    for _ in range(12):
        e, m = e_anom[live], mean_anomaly[live]
        f = e - ecc * np.sin(e) - m
        stepped = e - f / (1.0 - ecc * np.cos(e))
        e_anom[live] = stepped
        live = live[stepped.view(np.int64) != e.view(np.int64)]
        if not live.size:
            break
    return e_anom


def _propagate_arrays(el: TleElements, unix: np.ndarray,
                      include_j2: bool = True) -> tuple[np.ndarray, np.ndarray]:
    """ECI positions (km) and velocities (km/s) at the given unix times."""
    if el.eccentricity >= 1.0:
        raise ValueError("cannot propagate a non-elliptical orbit")
    n = 2.0 * math.pi / el.period_seconds          # rad/s, anomalistic rate
    a = el.semi_major_axis_km
    ecc = el.eccentricity
    inc = math.radians(el.inclination_deg)
    p = a * (1.0 - ecc * ecc)

    raan_rate = argp_rate = 0.0
    if include_j2:
        base = n * J2 * (EARTH_RADIUS_KM / p) ** 2
        raan_rate = -1.5 * base * math.cos(inc)
        argp_rate = 0.75 * base * (5.0 * math.cos(inc) ** 2 - 1.0)

    dt = unix - _to_unix(el.epoch)
    mean_anom = math.radians(el.mean_anomaly_deg) + n * dt
    raan = math.radians(el.raan_deg) + raan_rate * dt
    argp = math.radians(el.arg_perigee_deg) + argp_rate * dt

    e_anom = _kepler_solve(np.mod(mean_anom, 2.0 * math.pi), ecc)
    cos_e, sin_e = np.cos(e_anom), np.sin(e_anom)
    r = a * (1.0 - ecc * cos_e)
    if np.any(r <= EARTH_RADIUS_KM):
        bad = int(np.argmax(r <= EARTH_RADIUS_KM))
        raise ValueError(
            f"propagation reached sub-surface radius {r[bad]:.1f} km "
            f"at {_from_unix(float(unix[bad])).isoformat()}")
    # true anomaly via perifocal coordinates (avoids quadrant headaches)
    x_pf = a * (cos_e - ecc)
    y_pf = a * math.sqrt(1.0 - ecc * ecc) * sin_e
    # perifocal velocity
    rate = math.sqrt(EARTH_MU_KM3_S2 * a) / r
    vx_pf = -rate * sin_e
    vy_pf = rate * math.sqrt(1.0 - ecc * ecc) * cos_e

    cos_o, sin_o = np.cos(raan), np.sin(raan)
    cos_w, sin_w = np.cos(argp), np.sin(argp)
    cos_i, sin_i = math.cos(inc), math.sin(inc)

    # rows of the perifocal->ECI rotation
    px = cos_o * cos_w - sin_o * sin_w * cos_i
    py = sin_o * cos_w + cos_o * sin_w * cos_i
    pz = sin_w * sin_i
    qx = -cos_o * sin_w - sin_o * cos_w * cos_i
    qy = -sin_o * sin_w + cos_o * cos_w * cos_i
    qz = cos_w * sin_i

    pos = np.stack([x_pf * px + y_pf * qx,
                    x_pf * py + y_pf * qy,
                    x_pf * pz + y_pf * qz], axis=-1)
    vel = np.stack([vx_pf * px + vy_pf * qx,
                    vx_pf * py + vy_pf * qy,
                    vx_pf * pz + vy_pf * qz], axis=-1)
    return pos, vel


def propagate(elements: TleElements, t: datetime, include_j2: bool = True) -> SatelliteState:
    """Propagate mean elements to an ECI state at time t.

    Two-body motion plus J2 secular drift of RAAN and argument of perigee;
    warns when |t - epoch| exceeds 30 days.
    """
    u = _to_unix(t)
    if abs(u - _to_unix(elements.epoch)) > 30 * 86400:
        warnings.warn("propagating more than 30 days from the TLE epoch; "
                      "accuracy degrades", stacklevel=2)
    pos, vel = _propagate_arrays(elements, np.array([u]), include_j2)
    return SatelliteState(_as_utc(t), tuple(float(c) for c in pos[0]),
                          tuple(float(c) for c in vel[0]))


# ---------------------------------------------------------------------------
# Sidereal time, Sun, topocentric geometry
# ---------------------------------------------------------------------------

def _gmst_deg(unix) -> np.ndarray | float:
    d = (np.asarray(unix, dtype=float) / 86400.0 + _UNIX_JD) - _J2000_JD
    t_cen = d / 36525.0
    g = (280.46061837 + 360.98564736629 * d
         + 0.000387933 * t_cen**2 - t_cen**3 / 38710000.0)
    return np.mod(g, 360.0)


def gmst_deg(t: datetime) -> float:
    """Greenwich mean sidereal time in degrees."""
    return float(_gmst_deg(_to_unix(t)))


def _sun_radec(unix) -> tuple[np.ndarray, np.ndarray]:
    """Low-precision solar right ascension / declination, radians."""
    d = (np.asarray(unix, dtype=float) / 86400.0 + _UNIX_JD) - _J2000_JD
    g = np.radians(np.mod(357.529 + 0.98560028 * d, 360.0))
    q = np.mod(280.459 + 0.98564736 * d, 360.0)
    lam = np.radians(q + 1.915 * np.sin(g) + 0.020 * np.sin(2.0 * g))
    eps = np.radians(23.439 - 0.00000036 * d)
    ra = np.arctan2(np.cos(eps) * np.sin(lam), np.cos(lam))
    dec = np.arcsin(np.sin(eps) * np.sin(lam))
    return ra, dec


def _sun_elevation_arrays(station: GroundStation, gmst, ra, dec) -> np.ndarray:
    """Solar elevation (deg) from GMST (deg) and the Sun's RA/Dec (rad)."""
    sin_lat, cos_lat, _, _ = _lat_lon_trig(station)
    h = np.radians(gmst + station.longitude_deg) - ra
    sin_alt = sin_lat * np.sin(dec) + cos_lat * np.cos(dec) * np.cos(h)
    return np.degrees(np.arcsin(np.clip(sin_alt, -1.0, 1.0)))


def sun_elevation(station: GroundStation, t: datetime) -> float:
    """Solar elevation at the station in degrees (analytic, <=0.5 deg error)."""
    t = _as_utc(t)
    if not 1950 <= t.year <= 2100:
        raise ValueError(f"time {t.isoformat()} outside supported years 1950-2100")
    u = _to_unix(t)
    return float(_sun_elevation_arrays(station, _gmst_deg(u), *_sun_radec(u)))


def _lat_lon_trig(station: GroundStation) -> tuple[float, float, float, float]:
    """sin/cos of the station's latitude, then of its longitude."""
    lat = math.radians(station.latitude_deg)
    lon = math.radians(station.longitude_deg)
    return math.sin(lat), math.cos(lat), math.sin(lon), math.cos(lon)


def _station_ecef_km(station: GroundStation) -> np.ndarray:
    sin_lat, cos_lat, sin_lon, cos_lon = _lat_lon_trig(station)
    r = EARTH_RADIUS_KM + station.altitude_m / 1000.0
    return r * np.array([cos_lat * cos_lon, cos_lat * sin_lon, sin_lat])


def _earth_fixed(pos_eci: np.ndarray, gmst) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Earth-fixed x, y, z (km) of ECI positions, rotated by GMST (deg)."""
    theta = np.radians(gmst)
    cos_t, sin_t = np.cos(theta), np.sin(theta)
    return (pos_eci[..., 0] * cos_t + pos_eci[..., 1] * sin_t,
            -pos_eci[..., 0] * sin_t + pos_eci[..., 1] * cos_t,
            pos_eci[..., 2])


def _offsets(ecef, station: GroundStation) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Station-to-satellite vector (km) in Earth-fixed axes."""
    st = _station_ecef_km(station)
    return ecef[0] - st[0], ecef[1] - st[1], ecef[2] - st[2]


def _up_km(d, station: GroundStation) -> np.ndarray:
    """Component of the station-to-satellite vector along the local vertical."""
    sin_lat, cos_lat, sin_lon, cos_lon = _lat_lon_trig(station)
    return cos_lat * cos_lon * d[0] + cos_lat * sin_lon * d[1] + sin_lat * d[2]


def _elevation_range(d, up) -> tuple[np.ndarray, np.ndarray]:
    """Elevation (deg) and slant range (km) from the offsets and their up part."""
    rng = np.sqrt(d[0] * d[0] + d[1] * d[1] + d[2] * d[2])
    return np.degrees(np.arcsin(np.clip(up / rng, -1.0, 1.0))), rng


def _azimuth(d, station: GroundStation) -> np.ndarray:
    """Azimuth (deg, clockwise from north) of the station-to-satellite vector."""
    sin_lat, cos_lat, sin_lon, cos_lon = _lat_lon_trig(station)
    east = -sin_lon * d[0] + cos_lon * d[1]
    north = -sin_lat * cos_lon * d[0] - sin_lat * sin_lon * d[1] + cos_lat * d[2]
    return np.mod(np.degrees(np.arctan2(east, north)), 360.0)


def _look_arrays(ecef, station: GroundStation) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Elevation/azimuth (deg) and slant range (km) for Earth-fixed positions."""
    d = _offsets(ecef, station)
    elev, rng = _elevation_range(d, _up_km(d, station))
    return elev, _azimuth(d, station), rng


def look_angles(state: SatelliteState, station: GroundStation,
                t: datetime | None = None) -> LookAngles:
    """Topocentric elevation, azimuth and slant range of an ECI state.

    Earth rotation enters through Greenwich sidereal time at t (defaults to
    the state's own time); spherical Earth.
    """
    when = _to_unix(t if t is not None else state.time)
    ecef = _earth_fixed(np.array([state.position_km]), _gmst_deg(np.array([when])))
    elev, azim, rng = _look_arrays(ecef, station)
    return LookAngles(float(elev[0]), float(azim[0]), float(rng[0]))


def _umbra_mask(pos_eci: np.ndarray, ra, dec) -> np.ndarray:
    """True where the satellite sits inside the cylindrical Earth shadow."""
    sun_u = np.stack([np.cos(dec) * np.cos(ra),
                      np.cos(dec) * np.sin(ra),
                      np.sin(dec)], axis=-1)
    along = np.einsum("ij,ij->i", pos_eci, sun_u)
    perp = pos_eci - along[:, None] * sun_u
    return (along < 0.0) & (np.linalg.norm(perp, axis=1) < EARTH_RADIUS_KM)


# ---------------------------------------------------------------------------
# Ephemeris replay
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Ephemeris:
    """Precomputed ECI positions for exact replay; linear interpolation."""
    unix: np.ndarray = field(repr=False)
    positions_km: np.ndarray = field(repr=False)

    def __post_init__(self):
        if len(self.unix) < 2:
            raise ValueError("ephemeris needs at least two samples")
        if np.any(np.diff(self.unix) <= 0):
            raise ValueError("ephemeris times must be strictly increasing")

    def positions_at(self, unix: np.ndarray) -> np.ndarray:
        if np.any(unix < self.unix[0]) or np.any(unix > self.unix[-1]):
            raise ValueError("query time outside ephemeris span")
        out = np.empty((len(unix), 3))
        for k in range(3):
            out[:, k] = np.interp(unix, self.unix, self.positions_km[:, k])
        return out


def load_ephemeris(path) -> Ephemeris:
    """Read an ECI ephemeris CSV with header time_utc,x_km,y_km,z_km.

    Errors name the place as `<file>:<line>: <column>: ...`.
    """
    columns = ("time_utc", "x_km", "y_km", "z_km")
    times: list[float] = []
    rows: list[list[float]] = []
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header != ",".join(columns):
            raise ValueError(f"{path}:1: unexpected ephemeris header {header!r}")
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            where = f"{path}:{lineno}"
            if len(parts) != 4:
                raise ValueError(f"{where}: expected 4 fields, got {len(parts)}")
            try:
                u = _to_unix(datetime.fromisoformat(parts[0].replace("Z", "+00:00")))
            except ValueError as exc:
                raise ValueError(f"{where}: time_utc: {exc}") from None
            if times and u <= times[-1]:
                raise ValueError(f"{where}: time_utc: {parts[0]} does not follow the "
                                 f"previous time; times must be strictly increasing")
            row = []
            for name, text in zip(columns[1:], parts[1:]):
                try:
                    row.append(float(text))
                except ValueError as exc:
                    raise ValueError(f"{where}: {name}: {exc}") from None
                if not math.isfinite(row[-1]):
                    raise ValueError(f"{where}: {name}: must be finite, got {text}")
            times.append(u)
            rows.append(row)
    if len(times) < 2:
        raise ValueError(f"{path}: ephemeris needs at least two samples, "
                         f"got {len(times)}")
    return Ephemeris(np.array(times), np.array(rows))


# ---------------------------------------------------------------------------
# Access windows
# ---------------------------------------------------------------------------

def compute_access_windows(source: TleElements | Ephemeris,
                           stations: Sequence[GroundStation],
                           span: tuple[datetime, datetime],
                           step_seconds: float = 10.0,
                           elevation_mask_deg: float = 10.0,
                           night_threshold_deg: float = -6.0,
                           require_umbra: bool = False) -> list[AccessInterval]:
    """Compute night-time visibility intervals over a time span.

    A sample is usable when the elevation strictly exceeds the mask and the
    station's solar elevation is below the night threshold (plus, optionally,
    the satellite sits inside the cylindrical Earth shadow).  One
    AccessInterval is emitted per maximal run of usable samples; intervals
    touching the span boundary are truncated, not discarded.  The result is
    sorted by start time (ties by station order).

    The geometry is walked in blocks of _BLOCK_SAMPLES and shared across
    stations, as the module docstring describes.  With a negative mask,
    every sample counts as above the horizon.

    Args:
        source: TLE mean elements or a precomputed Ephemeris.
        span: (start, end); samples are taken at interval starts, i.e. at
            start + k*step for k with start + k*step < end.
        step_seconds: sampling step, > 0.
    """
    start, end = (_as_utc(span[0]), _as_utc(span[1]))
    if step_seconds <= 0:
        raise ValueError("step_seconds must be positive")
    if end <= start:
        raise ValueError("span must be non-empty")

    u0, u1 = _to_unix(start), _to_unix(end)
    count = max(1, math.ceil((u1 - u0) / step_seconds - 1e-9))
    unix = u0 + step_seconds * np.arange(count)

    # per station: (sample index, elevation, azimuth, range) of usable samples
    found: list[list[tuple[np.ndarray, ...]]] = [[] for _ in stations]
    for lo in range(0, count, _BLOCK_SAMPLES):
        block = unix[lo:lo + _BLOCK_SAMPLES]
        try:
            if isinstance(source, Ephemeris):
                pos = source.positions_at(block)
            else:
                pos, _ = _propagate_arrays(source, block)
        except ValueError as exc:
            raise ValueError(f"propagation failed over {start.isoformat()}"
                             f"..{end.isoformat()}: {exc}") from exc
        gmst = _gmst_deg(block)
        ecef = _earth_fixed(pos, gmst)

        # per station, the samples above the horizon (elevation > mask >= 0
        # needs up > 0, a negative mask takes them all); the Sun only where
        # some station has one
        above = ([np.flatnonzero(_up_km(_offsets(ecef, station), station) > 0.0)
                  for station in stations] if elevation_mask_deg >= 0.0
                 else [np.arange(len(block))] * len(stations))
        seen = np.zeros(len(block), dtype=bool)
        for near in above:
            seen[near] = True
        need = np.flatnonzero(seen)
        ra, dec = _sun_radec(block[need])
        umbra = _umbra_mask(pos[need], ra, dec) if require_umbra else None

        for station, chunks, near in zip(stations, found, above):
            d = _offsets(tuple(c[near] for c in ecef), station)
            elev, rng = _elevation_range(d, _up_km(d, station))
            at = np.searchsorted(need, near)
            usable = (elev > elevation_mask_deg) & (_sun_elevation_arrays(
                station, gmst[near], ra[at], dec[at]) < night_threshold_deg)
            if umbra is not None:
                usable &= umbra[at]
            if usable.any():
                chunks.append((lo + near[usable], elev[usable],
                               _azimuth(tuple(c[usable] for c in d), station),
                               rng[usable]))

    intervals: list[AccessInterval] = []
    for station, chunks in zip(stations, found):
        if not chunks:
            continue
        index, elev, azim, rng = (np.concatenate(col) for col in zip(*chunks))
        time_us = _unix_to_us(unix[index])
        cuts = [0, *(np.flatnonzero(np.diff(index) != 1) + 1).tolist(), len(index)]
        for k0, k1 in zip(cuts, cuts[1:]):
            intervals.append(AccessInterval(
                station=station,
                start=_from_us(int(time_us[k0])),
                end=_from_unix(float(unix[index[k1 - 1]]) + step_seconds),
                time_us=time_us[k0:k1], elevation_deg=elev[k0:k1],
                azimuth_deg=azim[k0:k1], slant_range_km=rng[k0:k1]))
    intervals.sort(key=lambda iv: iv.start)
    return intervals
