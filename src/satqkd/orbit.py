"""Orbital geometry for satellite-to-ground optical links.

Turns a two-line element set (or a precomputed ephemeris) plus ground-station
coordinates into time series of elevation, slant range and night-time
visibility, discretised into passes: maximal runs of usable samples, held
for every station at once as one table of columns (Passes).

Propagation is Keplerian two-body plus J2 secular rates on the node and the
argument of perigee; the TLE mean motion is taken as the observed anomalistic
rate, so the mean anomaly advances at exactly that rate.  A spherical Earth
(equatorial radius) is used for topocentric geometry, and the Sun comes from a
low-precision analytic ephemeris (good to well under 0.5 degrees).

Access windows are computed once per span, not once per station.  A coarse
screen first samples the span every _SCREEN_SECONDS (for an ephemeris
_EPHEMERIS_SCREEN_SECONDS) and keeps, per station, the gaps between coarse
samples where the satellite may rise above the mask at night.  For mean
elements the vertical component bends no faster than a bound on the
satellite's Earth-fixed acceleration (a two-body orbit in a frame turned by
the J2 rates and the Earth's rotation), so over a gap it exceeds the larger
of its ends by at most that bound times the gap squared over 8; for an
ephemeris, which bends at its nodes, it changes no faster than a bound on
the Earth-fixed speed.  Elevation > mask >= 0 needs it above sin(mask)
times the smallest slant range; the sine of the Sun's elevation changes no
faster than _SUN_SINE_RATE, and night needs it below the sine of the
threshold.  So a skipped sample provably has elevation <= mask or the Sun
at or above the threshold.  The union of the kept samples is then
walked in fixed-size blocks; per block the propagation, GMST and the
Earth-fixed satellite position are shared by every station.  In a block,
each station's own candidates are (station, sample) pairs, taken station
by station in runs of stations that hold at most _BLOCK_SAMPLES pairs
between them; a run's pairs go through one set of numpy calls, with its
stations' constants (_site) repeated over their pairs (a station with
_ALONE_SAMPLES pairs or more is a run of its own and keeps them as
floats).  The vertical component covers every pair, range and elevation
the pairs above the up floor, solar elevation the pairs above the mask,
and azimuth the usable ones; the Sun's RA/Dec is computed once per block,
where some pair is above the mask.  Each value is the same elementwise
formula at the same time as on the full grid, so the results are
bit-identical to it.  The usable samples are cut into passes and sorted by
start by numpy calls over all stations at once (_pass_table).
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from datetime import datetime, timedelta, timezone
from typing import Iterator, Sequence

import numpy as np

from .output import _US_RANGE

EARTH_RADIUS_KM = 6378.137
EARTH_MU_KM3_S2 = 398600.4418
J2 = 1.08262668e-3
SIDEREAL_RATE_DEG_PER_DAY = 360.98564736629

_UNIX_JD = 2440587.5  # Julian date of 1970-01-01T00:00:00Z
_J2000_JD = 2451545.0

# Samples per block in compute_access_windows: a week at 1 s is 37 blocks,
# so the propagation temporaries stay near a megabyte each.
_BLOCK_SAMPLES = 16384
# Candidates of one station in a block from which it is taken alone, with
# float constants: repeating them over this many (station, sample) pairs
# costs more than the numpy calls a run of stations shares.
_ALONE_SAMPLES = 2048
# Coarse grid step (s) of the pass screen in compute_access_windows, for
# mean elements and for an ephemeris, whose bound on up grows with the step
# rather than with its square.
_SCREEN_SECONDS = 180.0
_EPHEMERIS_SCREEN_SECONDS = 60.0
# Slack (km) in the screen's bound on the vertical component, for rounding
# in positions, sample times and rates, and the relative slack on its
# curvature bound, for the GMST polynomial's higher-order terms.
_SCREEN_MARGIN_KM = 1.0
_CURVATURE_SLACK = 1.01
# Bound (per second) on |d/dt| of the sine of the Sun's elevation at any
# station, |dh/dt| + 2 |d dec/dt| < 362 deg/day, and the night test's slack
# on that sine for rounding.
_SUN_SINE_RATE = math.radians(364.0) / 86400.0
_SUN_SINE_MARGIN = 1e-6
_EARTH_RATE_RAD_S = math.radians(SIDEREAL_RATE_DEG_PER_DAY) / 86400.0


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
    if t.tzinfo is timezone.utc:
        return t
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
class Passes:
    """Maximal runs of usable samples (passes) of many stations, as one table
    of columns, sorted by start.

    Pass p is stations[station[p]]'s; its samples, at least one, are
    bounds[p] .. bounds[p + 1] - 1 of the sample columns, `step_seconds`
    apart, sample k at time_us[k] (int64 microseconds from the Unix epoch).
    end_us[p] is exclusive: one step past the pass's last sample, so end -
    start is the usable duration.
    """
    stations: tuple[GroundStation, ...]
    step_seconds: float
    station: np.ndarray = field(repr=False)         # (P,) int64
    bounds: np.ndarray = field(repr=False)          # (P + 1,) int64, from 0, increasing
    end_us: np.ndarray = field(repr=False)          # (P,) int64
    time_us: np.ndarray = field(repr=False)         # (S,) int64
    elevation_deg: np.ndarray = field(repr=False)   # (S,) float
    azimuth_deg: np.ndarray = field(repr=False)     # (S,) float
    slant_range_km: np.ndarray = field(repr=False)  # (S,) float

    def __len__(self) -> int:
        return len(self.station)

    def __getitem__(self, passes: slice) -> Passes:
        """The table of the passes in a slice (its step is taken as 1)."""
        p, q, _ = passes.indices(len(self))
        q = max(p, q)
        lo, hi = self.bounds[p], self.bounds[q]
        return Passes(self.stations, self.step_seconds, self.station[p:q],
                      self.bounds[p:q + 1] - lo, self.end_us[p:q], self.time_us[lo:hi],
                      self.elevation_deg[lo:hi], self.azimuth_deg[lo:hi],
                      self.slant_range_km[lo:hi])

    def sample_station(self) -> np.ndarray:
        """station[p] of pass p, once per sample of the pass."""
        return np.repeat(self.station, np.diff(self.bounds))

    def duration_seconds(self) -> list[float]:
        """end - start of each pass in seconds, as timedelta.total_seconds()
        gives it: the microseconds, divided exactly rounded."""
        return [us / 1_000_000 for us in (self.end_us - self.time_us[self.bounds[:-1]]).tolist()]

    def blocks(self, samples: int) -> Iterator[Passes]:
        """Runs of consecutive passes, each closed once it holds `samples`
        samples, so that a kernel call covers many short passes or one long
        one."""
        p = 0
        while p < len(self):
            q = int(np.searchsorted(self.bounds, self.bounds[p] + samples))
            yield self[p:q]
            p = q


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


def _j2_rates(el: TleElements) -> tuple[float, float]:
    """Secular J2 rates (rad/s) of the node and of the argument of perigee."""
    n = 2.0 * math.pi / el.period_seconds
    ecc = el.eccentricity
    inc = math.radians(el.inclination_deg)
    p = el.semi_major_axis_km * (1.0 - ecc * ecc)
    base = n * J2 * (EARTH_RADIUS_KM / p) ** 2
    return -1.5 * base * math.cos(inc), 0.75 * base * (5.0 * math.cos(inc) ** 2 - 1.0)


def _propagate_arrays(el: TleElements, unix: np.ndarray,
                      include_j2: bool = True) -> tuple[np.ndarray, np.ndarray]:
    """ECI positions (km) and velocities (km/s) at the given unix times."""
    if el.eccentricity >= 1.0:
        raise ValueError("cannot propagate a non-elliptical orbit")
    n = 2.0 * math.pi / el.period_seconds          # rad/s, anomalistic rate
    a = el.semi_major_axis_km
    ecc = el.eccentricity
    inc = math.radians(el.inclination_deg)
    raan_rate, argp_rate = _j2_rates(el) if include_j2 else (0.0, 0.0)

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


def _sun_elevation_arrays(site, gmst, ra, sin_dec, cos_dec) -> np.ndarray:
    """Solar elevation (deg) at a _site from GMST (deg), the Sun's right
    ascension (rad) and the sine and cosine of its declination."""
    sin_lat, cos_lat, _, _, longitude_deg = site[3:8]
    h = np.radians(gmst + longitude_deg) - ra
    sin_alt = sin_lat * sin_dec + cos_lat * cos_dec * np.cos(h)
    return np.degrees(np.arcsin(np.clip(sin_alt, -1.0, 1.0)))


def sun_elevation(station: GroundStation, t: datetime) -> float:
    """Solar elevation at the station in degrees (analytic, <=0.5 deg error)."""
    t = _as_utc(t)
    if not 1950 <= t.year <= 2100:
        raise ValueError(f"time {t.isoformat()} outside supported years 1950-2100")
    u = _to_unix(t)
    ra, dec = _sun_radec(u)
    return float(_sun_elevation_arrays(_site(station), _gmst_deg(u), ra,
                                       np.sin(dec), np.cos(dec)))


def _lat_lon_trig(station: GroundStation) -> tuple[float, float, float, float]:
    """sin/cos of the station's latitude, then of its longitude."""
    lat = math.radians(station.latitude_deg)
    lon = math.radians(station.longitude_deg)
    return math.sin(lat), math.cos(lat), math.sin(lon), math.cos(lon)


def _station_ecef_km(station: GroundStation) -> np.ndarray:
    sin_lat, cos_lat, sin_lon, cos_lon = _lat_lon_trig(station)
    r = EARTH_RADIUS_KM + station.altitude_m / 1000.0
    return r * np.array([cos_lat * cos_lon, cos_lat * sin_lon, sin_lat])


def _site(station: GroundStation) -> tuple[float, ...]:
    """The constants of the topocentric formulas below, which read them by
    position: the station's Earth-fixed x, y, z (km), the sine and cosine of
    its latitude, then of its longitude, and its longitude (deg).  The
    formulas take them as floats for one station, or as rows of per-sample
    columns for many, and ignore any values after them."""
    return (*_station_ecef_km(station).tolist(), *_lat_lon_trig(station),
            station.longitude_deg)


def _earth_fixed(pos_eci: np.ndarray, gmst) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Earth-fixed x, y, z (km) of ECI positions, rotated by GMST (deg)."""
    theta = np.radians(gmst)
    cos_t, sin_t = np.cos(theta), np.sin(theta)
    return (pos_eci[..., 0] * cos_t + pos_eci[..., 1] * sin_t,
            -pos_eci[..., 0] * sin_t + pos_eci[..., 1] * cos_t,
            pos_eci[..., 2])


def _offsets(ecef, site) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Site-to-satellite vector (km) in Earth-fixed axes."""
    return ecef[0] - site[0], ecef[1] - site[1], ecef[2] - site[2]


def _up_km(d, site) -> np.ndarray:
    """Component of the site-to-satellite vector along the local vertical."""
    sin_lat, cos_lat, sin_lon, cos_lon = site[3:7]
    return cos_lat * cos_lon * d[0] + cos_lat * sin_lon * d[1] + sin_lat * d[2]


def _elevation_range(d, up) -> tuple[np.ndarray, np.ndarray]:
    """Elevation (deg) and slant range (km) from the offsets and their up part."""
    rng = np.sqrt(d[0] * d[0] + d[1] * d[1] + d[2] * d[2])
    return np.degrees(np.arcsin(np.clip(up / rng, -1.0, 1.0))), rng


def _azimuth(d, site) -> np.ndarray:
    """Azimuth (deg, clockwise from north) of the site-to-satellite vector."""
    sin_lat, cos_lat, sin_lon, cos_lon = site[3:7]
    east = -sin_lon * d[0] + cos_lon * d[1]
    north = -sin_lat * cos_lon * d[0] - sin_lat * sin_lon * d[1] + cos_lat * d[2]
    return np.mod(np.degrees(np.arctan2(east, north)), 360.0)


def _look_arrays(ecef, station: GroundStation) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Elevation/azimuth (deg) and slant range (km) for Earth-fixed positions."""
    site = _site(station)
    d = _offsets(ecef, site)
    elev, rng = _elevation_range(d, _up_km(d, site))
    return elev, _azimuth(d, site), rng


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

def _frame_rates(el: TleElements) -> tuple[float, float, float]:
    """The perigee speed (km/s) of mean elements, a bound (rad/s) on how
    fast their perifocal frame turns relative to the Earth, and one
    (rad/s^2) on how fast that angular velocity turns.

    The frame is the Earth's rotation undone, then the node, the
    inclination and the argument of perigee: its angular velocity is
    (node rate - Earth's rate) about the pole plus the perigee rate about
    the orbit normal, which itself turns about the pole at the first rate.
    """
    a, ecc = el.semi_major_axis_km, el.eccentricity
    n = 2.0 * math.pi / el.period_seconds
    raan_rate, argp_rate = _j2_rates(el)
    perigee_speed = n * a * math.sqrt((1.0 + ecc) / (1.0 - ecc))
    return (perigee_speed, abs(raan_rate) + abs(argp_rate) + _EARTH_RATE_RAD_S,
            abs(argp_rate) * (abs(raan_rate) + _EARTH_RATE_RAD_S))


def _speed_bound(ephemeris: Ephemeris) -> float:
    """A bound on the satellite's Earth-fixed speed (km/s) along an
    ephemeris: its fastest linearly interpolated segment plus the Earth's
    rotation at the radius ceiling."""
    pos = ephemeris.positions_km
    segment = np.linalg.norm(np.diff(pos, axis=0), axis=1) / np.diff(ephemeris.unix)
    return float(segment.max()) + _EARTH_RATE_RAD_S * _radius_ceiling(ephemeris)


def _curvature_bound(el: TleElements) -> float:
    """A bound (km/s^2) on the satellite's Earth-fixed acceleration for mean
    elements, and so on |up''| at any station.

    The position is r = M p: p a two-body perifocal orbit, whose acceleration
    is mu / |p|^2 <= mu / r_p^2 (semi_major_axis_km sets n^2 a^3 = mu), and M
    the frame of _frame_rates, turning at most W with an angular velocity
    that turns at most W'.  So r'' = M (p'' + 2 w x p' + w' x p + w x (w x p))
    has |r''| <= mu / r_p^2 + 2 W v_p + (W^2 + W') r_a.
    """
    a, ecc = el.semi_major_axis_km, el.eccentricity
    perigee_speed, turn, turn_rate = _frame_rates(el)
    return (EARTH_MU_KM3_S2 / (a * (1.0 - ecc)) ** 2 + 2.0 * turn * perigee_speed
            + (turn * turn + turn_rate) * a * (1.0 + ecc))


def _radius_floor(source: TleElements | Ephemeris) -> float:
    """A bound (km) below the satellite's distance from the Earth's centre,
    less _SCREEN_MARGIN_KM: the perigee radius for mean elements, the point
    of any interpolated segment nearest the centre for an ephemeris (a
    segment can pass nearer than both of its ends)."""
    if isinstance(source, TleElements):
        return source.semi_major_axis_km * (1.0 - source.eccentricity) - _SCREEN_MARGIN_KM
    first, step = source.positions_km[:-1], np.diff(source.positions_km, axis=0)
    length2 = np.einsum("ij,ij->i", step, step)
    along = np.divide(-np.einsum("ij,ij->i", first, step), length2,
                      out=np.zeros(len(step)), where=length2 > 0.0)
    nearest = first + np.clip(along, 0.0, 1.0)[:, None] * step
    return float(np.linalg.norm(nearest, axis=1).min()) - _SCREEN_MARGIN_KM


def _radius_ceiling(source: TleElements | Ephemeris) -> float:
    """A bound (km) above the satellite's distance from the Earth's centre:
    the apogee radius for mean elements, the largest node radius for an
    ephemeris (an interpolated position is never farther out than its ends)."""
    if isinstance(source, TleElements):
        return source.semi_major_axis_km * (1.0 + source.eccentricity)
    return float(np.linalg.norm(source.positions_km, axis=1).max())


def _up_floors(source, stations, elevation_mask_deg: float) -> list[float]:
    """Per station, a floor (km) that the vertical component exceeds wherever
    the elevation exceeds the mask: elevation > mask needs up > sin(mask)
    times the slant range, which for a mask >= 0 is at least the radius floor
    less the station's radius, and for a negative mask at most the largest
    radius plus it."""
    sin_mask = math.sin(math.radians(max(elevation_mask_deg, -90.0)))
    radii = [float(np.linalg.norm(_station_ecef_km(st))) for st in stations]
    if elevation_mask_deg >= 0.0:
        r_min = _radius_floor(source)
        return [sin_mask * max(r_min - r, 0.0) for r in radii]
    r_max = _radius_ceiling(source)
    return [sin_mask * (r_max + r) for r in radii]


def _drop_daylight(kept: np.ndarray, stations, t: np.ndarray, gmst: np.ndarray,
                   seconds: np.ndarray, night_threshold_deg: float) -> None:
    """Clear each kept gap (row: station; column j: the gap from t[j] to
    t[j + 1], seconds[j] long) over which the Sun stays at or above the
    night threshold.  The sine of its elevation moves at most _SUN_SINE_RATE
    per second, so over gap j it is at least (s_j + s_j+1 - rate seconds[j]) / 2.
    The Sun is computed only at the ends of kept gaps."""
    who, gap = np.nonzero(kept)
    at = np.zeros(len(t), dtype=bool)
    at[gap] = at[gap + 1] = True
    ends = np.flatnonzero(at)
    ra, dec = _sun_radec(t[ends])
    phase = np.radians(gmst[ends]) - ra
    sin_dec, cos_dec = np.sin(dec), np.cos(dec)
    cos_part, sin_part = cos_dec * np.cos(phase), cos_dec * np.sin(phase)
    sin_lat, cos_lat, sin_lon, cos_lon = np.array(
        [_lat_lon_trig(station) for station in stations]).T[:, who]

    def sun_sine(i):
        # sin(lat) sin(dec) + cos(lat) cos(dec) cos(phase + longitude)
        return sin_lat * sin_dec[i] + cos_lat * (cos_lon * cos_part[i] - sin_lon * sin_part[i])

    first = np.searchsorted(ends, gap)
    low = (0.5 * (sun_sine(first) + sun_sine(first + 1) - _SUN_SINE_RATE * seconds[gap])
           - _SUN_SINE_MARGIN)
    kept[who, gap] = low < math.sin(math.radians(max(night_threshold_deg, -90.0)))


def _gap_runs(coarse: np.ndarray, kept: np.ndarray) -> tuple[np.ndarray, ...]:
    """The row (station), first sample and length of each run of kept gaps
    between coarse samples, in row-major order; gap j of a row spans samples
    coarse[j]..coarse[j + 1], ends included."""
    # the rows end to end, each after a False, so that no run crosses rows:
    # a run starts and ends where a value differs from the one before it
    width = kept.shape[1] + 1
    flat = np.zeros(len(kept) * width + 1, dtype=bool)
    flat[1:].reshape(len(kept), width)[:, :-1] = kept
    row, edges = np.divmod(np.flatnonzero(flat[1:] != flat[:-1]), width)
    starts = coarse[edges[::2]]
    return row[::2], starts, coarse[edges[1::2]] + 1 - starts


def _expand_runs(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """starts[r], starts[r] + 1, ... for lengths[r] values, run after run."""
    return (np.repeat(starts - np.cumsum(lengths) + lengths, lengths)
            + np.arange(lengths.sum()))


def _screen(source, stations, u0: float, step_seconds: float, count: int,
            floors: Sequence[float], night_threshold_deg: float,
            locate) -> tuple[np.ndarray, list[np.ndarray]]:
    """The samples where some station may see the satellite above the mask
    at night, and for each station the positions of its own candidates
    among them.

    The coarse samples are _SCREEN_SECONDS apart for mean elements and
    _EPHEMERIS_SCREEN_SECONDS for an ephemeris.  Between samples j and
    j + 1, h apart, the vertical component `up` is bounded from its values
    there.  For mean elements |up''| is at most the curvature bound A
    (_curvature_bound), so up stays within A h^2 / 8 of the chord between
    its ends (the error bound of linear interpolation) and is at most
    max(up_j, up_j+1) + A h^2 / 8; A is taken _CURVATURE_SLACK times, for
    the GMST polynomial's higher-order terms.  An ephemeris is interpolated
    linearly, with kinks at its nodes, so there up changes at most as fast
    as the Earth-fixed speed bound V and is at most (up_j + up_j+1 + V h) / 2.
    A gap is kept when that bound (plus _SCREEN_MARGIN_KM) exceeds the
    station's floor (_up_floors): for a mask >= 0, sin(mask) times the
    radius floor less the station's radius, else sin(mask) times the
    largest slant range.  With a night threshold below 90 degrees, a kept
    gap is then dropped where the Sun stays at or above it
    (_drop_daylight).  A skipped sample therefore has elevation <= mask or
    the Sun at or above the threshold.  A span of few coarse steps, a step
    coarser than half the coarse step (90 s for mean elements, 30 s for an
    ephemeris), or an orbit whose perigee comes within
    _SCREEN_MARGIN_KM of the surface (so that propagation fails at the same
    first sample as on the full grid) makes every sample a candidate.
    """
    bends = isinstance(source, TleElements)
    stride = int((_SCREEN_SECONDS if bends else _EPHEMERIS_SCREEN_SECONDS) // step_seconds)
    if (stride < 2 or count < 4 * stride or not stations
            or (bends and source.semi_major_axis_km
                * (1.0 - source.eccentricity) <= EARTH_RADIUS_KM + _SCREEN_MARGIN_KM)):
        every = np.arange(count)
        return every, [every] * len(stations)
    coarse = np.append(np.arange(0, count - 1, stride), count - 1)
    t = u0 + step_seconds * coarse
    gmst = _gmst_deg(t)
    ecef = _earth_fixed(locate(t), gmst)
    seconds = step_seconds * np.diff(coarse)
    if bends:
        reach = (0.125 * _CURVATURE_SLACK * _curvature_bound(source) * seconds * seconds
                 + _SCREEN_MARGIN_KM)
    else:
        reach = 0.5 * _speed_bound(source) * seconds + _SCREEN_MARGIN_KM
    kept = np.empty((len(stations), len(seconds)), dtype=bool)
    for row, station, floor in zip(kept, stations, floors):
        site = _site(station)
        up = _up_km(_offsets(ecef, site), site)
        top = np.maximum(up[:-1], up[1:]) if bends else 0.5 * (up[:-1] + up[1:])
        np.greater(top + reach, floor, out=row)
    if night_threshold_deg < 90.0:
        _drop_daylight(kept, stations, t, gmst, seconds, night_threshold_deg)
    candidates = _expand_runs(*_gap_runs(coarse, kept.any(axis=0, keepdims=True))[1:])
    # every station's runs at once, row after row; a station's run lies
    # inside one run of the union, where positions advance with the sample
    # index; int32 halves them (2**31 candidates would take 16 GiB before
    # these)
    owner, starts, lengths = _gap_runs(coarse, kept)
    ends = np.append(0, np.cumsum(lengths))[
        np.searchsorted(owner, np.arange(len(stations) - 1), side="right")]
    return candidates, np.split(_expand_runs(np.searchsorted(candidates, starts),
                                             lengths).astype(np.int32), ends)


def _station_runs(counts: list[int]):
    """The stations with candidates in a block (counts[s] of them for
    station s), in config order, cut into runs of at most _BLOCK_SAMPLES
    candidates between them; yields (stations, counts) per run.  A station
    with _ALONE_SAMPLES or more is a run of its own."""
    run: list[int] = []
    held: list[int] = []
    total = 0
    for station, count in enumerate(counts):
        if not count:
            continue
        if count >= _ALONE_SAMPLES:
            yield [station], [count]
            continue
        if total + count > _BLOCK_SAMPLES:
            yield run, held
            run, held, total = [], [], 0
        run.append(station)
        held.append(count)
        total += count
    if run:
        yield run, held


def _counts_within(picked: np.ndarray, counts) -> list[int]:
    """How many of the sorted positions `picked` fall in each of the
    consecutive spans of the given lengths."""
    if len(counts) == 1:
        return [len(picked)]
    return np.diff(np.searchsorted(picked, np.cumsum(counts)), prepend=0).tolist()


def sample_count(seconds: float, step_seconds: float) -> int:
    """Steps that start within `seconds` (at least one), or ValueError when
    the count would not fit int64."""
    if seconds / step_seconds >= 2.0 ** 63:
        raise ValueError(f"a step of {step_seconds!r} s makes more than 2**63 - 1 "
                         f"samples over the span")
    return max(1, math.ceil(seconds / step_seconds - 1e-9))


def compute_access_windows(source: TleElements | Ephemeris,
                           stations: Sequence[GroundStation],
                           span: tuple[datetime, datetime],
                           step_seconds: float = 10.0,
                           elevation_mask_deg: float = 10.0,
                           night_threshold_deg: float = -6.0,
                           require_umbra: bool = False) -> Passes:
    """Compute night-time visibility intervals over a time span.

    A sample is usable when the elevation strictly exceeds the mask and the
    station's solar elevation is below the night threshold (plus, optionally,
    the satellite sits inside the cylindrical Earth shadow).  Each maximal
    run of usable samples is one pass of the returned Passes table; passes
    touching the span boundary are truncated, not discarded.  Passes are
    sorted by start time (ties by station order).

    The span is screened on a coarse grid, then the candidate samples are
    walked in blocks of _BLOCK_SAMPLES with the geometry shared across
    stations, and within a block the stations' candidates in station runs of
    at most _BLOCK_SAMPLES (station, sample) pairs, as the module docstring
    describes.  With a negative mask, no pair is dropped at the up floor.

    Args:
        source: TLE mean elements or a precomputed Ephemeris.
        span: (start, end); samples are taken at interval starts, i.e. at
            start + k*step for k with start + k*step < end.
        step_seconds: sampling step, > 0 and coarse enough that the sample
            count fits int64.

    Raises:
        OverflowError: a pass ends past the last time a datetime holds.
    """
    start, end = (_as_utc(span[0]), _as_utc(span[1]))
    if step_seconds <= 0:
        raise ValueError("step_seconds must be positive")
    if end <= start:
        raise ValueError("span must be non-empty")

    u0, u1 = _to_unix(start), _to_unix(end)
    count = sample_count(u1 - u0, step_seconds)

    def locate(unix: np.ndarray) -> np.ndarray:
        try:
            if isinstance(source, Ephemeris):
                return source.positions_at(unix)
            return _propagate_arrays(source, unix)[0]
        except ValueError as exc:
            raise ValueError(f"propagation failed over {start.isoformat()}"
                             f"..{end.isoformat()}: {exc}") from exc

    # sample i is at u0 + step_seconds * i, the same value wherever it is taken
    floors = _up_floors(source, stations, elevation_mask_deg)
    candidates, mine = _screen(source, stations, u0, step_seconds, count, floors,
                               night_threshold_deg, locate)
    # per station its _site, then its up floor: floats for a run of one
    # station, else repeated over the run's station-major pairs
    sites = [(*_site(station), floor) for station, floor in zip(stations, floors)]
    table = np.array(sites).T.copy()

    def spread(run: list[int], counts):
        return sites[run[0]] if len(run) == 1 else np.repeat(table[:, run], counts, axis=1)

    # where each station's candidates enter each block
    bounds = np.arange(0, len(candidates) + _BLOCK_SAMPLES, _BLOCK_SAMPLES)
    edges = [np.searchsorted(own, bounds).tolist() for own in mine]
    # per run of stations in a block: (station, sample index, elevation,
    # azimuth, range) of its usable pairs, station by station
    found: list[tuple[np.ndarray, ...]] = []

    # a function, so that one block's arrays are gone before the next's
    def usable_in_block(k: int, lo: int) -> None:
        index = candidates[lo:lo + _BLOCK_SAMPLES]
        block = u0 + step_seconds * index
        pos = locate(block)
        gmst = _gmst_deg(block)
        ecef = np.stack(_earth_fixed(pos, gmst))

        # per run of stations, range and elevation of its (station, sample)
        # pairs above their station's up floor (elevation > mask >= 0 needs
        # up > floor, a negative mask takes them all) and above the mask;
        # the Sun only where some pair is
        held = []
        seen = np.zeros(len(block), dtype=bool)
        for run, counts in _station_runs([e[k + 1] - e[k] for e in edges]):
            near = np.concatenate([mine[s][edges[s][k]:edges[s][k + 1]]
                                   for s in run]).astype(np.intp) - lo
            site = spread(run, counts)
            d = _offsets(np.take(ecef, near, axis=1), site)
            up = _up_km(d, site)
            keep = (np.flatnonzero(up > site[-1]) if elevation_mask_deg >= 0.0
                    else np.arange(len(up)))
            elev, rng = _elevation_range(tuple(c[keep] for c in d), up[keep])
            over = np.flatnonzero(elev > elevation_mask_deg)
            keep = keep[over]
            near = near[keep]
            seen[near] = True
            held.append((run, _counts_within(keep, counts), near, elev[over], rng[over]))
        need = np.flatnonzero(seen)
        rank = np.cumsum(seen) - 1  # of each seen sample in need
        ra, dec = _sun_radec(block[need])
        sin_dec, cos_dec = np.sin(dec), np.cos(dec)
        umbra = _umbra_mask(pos[need], ra, dec) if require_umbra else None

        for run, counts, near, elev, rng in held:
            at = rank[near]
            usable = _sun_elevation_arrays(spread(run, counts), gmst[near], ra[at],
                                           sin_dec[at], cos_dec[at]) < night_threshold_deg
            if umbra is not None:
                usable &= umbra[at]
            use = np.flatnonzero(usable)
            if not use.size:
                continue
            counts = _counts_within(use, counts)
            site = spread(run, counts)
            near = near[use]
            azim = _azimuth(_offsets(np.take(ecef, near, axis=1), site), site)
            found.append((np.repeat(run, counts), index[near], elev[use], azim, rng[use]))

    for k, lo in enumerate(bounds[:-1].tolist()):
        usable_in_block(k, lo)
    return _pass_table(stations, found, u0, step_seconds)


def _pass_table(stations: Sequence[GroundStation], found: list[tuple[np.ndarray, ...]],
                u0: float, step_seconds: float) -> Passes:
    """The Passes of the runs of consecutive sample indices of one station in
    `found`, chunks of (station, sample index, elevation, azimuth, range)
    columns that hold each station's samples in index order, stably sorted
    by start, so that ties keep station order.  Sample i is at
    u0 + step_seconds * i."""
    owner, index, elev, azim, rng = (np.concatenate(column) for column in zip(
        (np.empty(0, np.int64),) * 2 + (np.empty(0),) * 3, *found))
    # station after station, each station's samples still in index order
    sample = np.argsort(owner, kind="stable")
    owner, index = owner[sample], index[sample]
    unix = u0 + step_seconds * index
    time_us = _unix_to_us(unix)
    cut = np.ones(len(index), dtype=bool)
    cut[1:] = (np.diff(index) != 1) | (np.diff(owner) != 0)
    first = np.flatnonzero(cut)
    order = np.argsort(time_us[first], kind="stable")
    first, last = first[order], np.append(first[1:], len(index))[order] - 1
    lengths = last + 1 - first
    # capped at 1e12 s, past the last time a datetime holds, so that the
    # microseconds fit int64
    end_us = _unix_to_us(np.minimum(unix[last] + step_seconds, 1e12))
    if (late := end_us > _US_RANGE[1]).any():
        p = int(np.argmax(late))
        raise OverflowError(f"a pass of {stations[owner[first[p]]].name} ends "
                            f"{step_seconds} s after {_from_unix(unix[last[p]]).isoformat()}, "
                            f"past the last time a datetime holds")
    take = _expand_runs(first, lengths)
    return Passes(tuple(stations), step_seconds, owner[first], np.append(0, np.cumsum(lengths)),
                  end_us, time_us[take], *(column[sample[take]] for column in (elev, azim, rng)))
