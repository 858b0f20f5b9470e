"""Scenario configuration and end-to-end pipeline helpers.

A scenario bundles the orbit source, ground stations, time span, sampling
step, optics, QKD parameters, optional cloud grid and a scheduling strategy.
Scenarios load from a single JSON file (human units: nm, urad, MHz).  Every
default lives in its dataclass alone, so an empty object is a valid config
and equals the built-in profile.

The built-in default profile is the Micius-class week: a 500 km
sun-synchronous midnight orbit over 11 Chinese ground stations for the week
of 2016-09-19, 10 s sampling, 10 degree mask, civil-twilight night gating.
Station weights are proportional to city population (millions).
"""
from __future__ import annotations

import dataclasses
import json
import math
import os
import typing
from dataclasses import MISSING, dataclass, field, replace
from datetime import datetime, timezone
from functools import cache
from pathlib import Path
from typing import Any

import numpy as np

from .channel import OpticalParams
from .cloud import CloudGrid, load_cloud_grid
from .orbit import (
    Ephemeris,
    GroundStation,
    Passes,
    TleElements,
    _from_unix,
    _to_unix,
    compute_access_windows,
    load_ephemeris,
    parse_tle,
    sample_count,
)
from .qkd import KeyMatrix, QkdParams, build_key_matrix
from .sched import GaConfig, StrategyConfig

UTC = timezone.utc

MICIUS_TLE_LINES = (
    "1 41731U 16051A   16263.00000000  .00000600  00000-0  30000-4 0  9990",
    "2 41731  97.3700 177.0000 0012000 205.5000 154.5000 15.23519000 51203",
)

# name, latitude, longitude, altitude (m), weight ~ population in millions
_DEFAULT_STATIONS = (
    ("Urumqi", 43.83, 87.62, 800.0, 3.5),
    ("Lhasa", 29.65, 91.03, 3650.0, 0.9),
    ("Xian", 34.27, 108.93, 400.0, 8.7),
    ("Chengdu", 30.67, 104.07, 500.0, 15.8),
    ("Shenyang", 41.80, 123.43, 55.0, 8.3),
    ("Beijing", 39.90, 116.40, 44.0, 21.7),
    ("Jinan", 36.65, 117.00, 23.0, 7.0),
    ("Hefei", 31.82, 117.23, 30.0, 7.8),
    ("Wuhan", 30.58, 114.27, 23.0, 10.8),
    ("Shanghai", 31.23, 121.47, 4.0, 24.2),
    ("Guangzhou", 23.13, 113.26, 21.0, 14.0),
)

DEFAULT_SWEEP_ALTITUDES = (
    {"altitude_km": 500.0},
    {"altitude_km": 2500.0},
    {"altitude_km": 5000.0},
    {"altitude_km": 35863.0, "raan_deg": 50.0591},
)
DEFAULT_SWEEP_DIVERGENCES_URAD = (1.0, 3.0, 5.0, 10.0)


class ConfigError(ValueError):
    """Scenario validation failure, reported with the offending field path."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path


def default_stations() -> tuple[GroundStation, ...]:
    return tuple(GroundStation(name, lat, lon, alt, weight)
                 for name, lat, lon, alt, weight in _DEFAULT_STATIONS)


@dataclass(frozen=True)
class ScenarioConfig:
    tle: TleElements | None = None
    ephemeris: Ephemeris | None = None
    stations: tuple[GroundStation, ...] = field(default_factory=default_stations)
    span: tuple[datetime, datetime] = (
        datetime(2016, 9, 19, tzinfo=UTC), datetime(2016, 9, 26, tzinfo=UTC))
    step_seconds: float = 10.0
    grid_interval_seconds: float = 10.0
    elevation_mask_deg: float = 10.0
    night_threshold_deg: float = -6.0
    require_umbra: bool = False
    optics: OpticalParams = field(default_factory=OpticalParams)
    qkd: QkdParams = field(default_factory=QkdParams)
    cloud: CloudGrid | None = None
    strategy: StrategyConfig = field(default_factory=StrategyConfig)
    sweep_altitudes: tuple[dict, ...] = DEFAULT_SWEEP_ALTITUDES
    sweep_divergences_urad: tuple[float, ...] = DEFAULT_SWEEP_DIVERGENCES_URAD

    def __post_init__(self):
        if self.tle is None and self.ephemeris is None:
            object.__setattr__(self, "tle", parse_tle("\n".join(MICIUS_TLE_LINES)))
        if self.span[1] <= self.span[0]:
            raise ConfigError("span", "span must be non-empty")
        if self.step_seconds <= 0:
            raise ConfigError("step_seconds", "must be positive")
        if self.grid_interval_seconds <= 0:
            raise ConfigError("grid_interval_seconds", "must be positive")
        ratio = self.grid_interval_seconds / self.step_seconds
        if not (math.isfinite(ratio) and ratio >= 1 - 1e-9
                and abs(ratio - round(ratio)) <= 1e-9):
            raise ConfigError(
                "step_seconds",
                f"step must divide the {self.grid_interval_seconds} s scheduling interval")
        try:
            sample_count((self.span[1] - self.span[0]).total_seconds(), self.step_seconds)
        except ValueError as exc:
            raise ConfigError("step_seconds", str(exc)) from None
        if self.ephemeris is not None:  # its ends hold the first and last samples
            u0, u1 = _to_unix(self.span[0]), _to_unix(self.span[1])
            last = u0 + self.step_seconds * (sample_count(u1 - u0, self.step_seconds) - 1)
            ends = self.ephemeris.unix[[0, -1]].tolist()
            if u0 < ends[0] or last > ends[1]:
                raise ConfigError("ephemeris", "covers {}..{}, but the samples run {}..{}".format(
                    *(_from_unix(u).isoformat() for u in (*ends, u0, last))))
        for i, urad in enumerate(self.sweep_divergences_urad):
            if not urad * 1e-6 > 0:  # the divergence_rad the sweep sets
                raise ConfigError(f"sweep.divergences_urad[{i}]", f"must be positive, got {urad}")
        names = [st.name for st in self.stations]
        for i, name in enumerate(names):
            # a name is a bare CSV field, written with the NUL padding of the
            # linkbudget byte matrix dropped; schedules name IDLE and SWITCH
            if not name or any(c in name for c in ',"\r\n\0'):
                raise ConfigError(f"stations[{i}].name", f"{name!r} is empty or holds "
                                  "a comma, quote, newline or NUL")
            if name in ("IDLE", "SWITCH"):
                raise ConfigError(f"stations[{i}].name",
                                  f"{name!r} is a schedule activity, not a station")
        if len(set(names)) != len(names):
            raise ConfigError("stations", "station names must be unique")
        weights = self.strategy.weights
        if weights is not None and len(weights) != len(names):
            raise ConfigError("strategy.weights", f"expected {len(names)}, got {len(weights)}")

    @property
    def orbit_source(self) -> TleElements | Ephemeris:
        return self.ephemeris if self.ephemeris is not None else self.tle

    @property
    def n_grid_intervals(self) -> int:
        seconds = (self.span[1] - self.span[0]).total_seconds()
        return sample_count(seconds, self.grid_interval_seconds)

    def station_weights(self) -> tuple[float, ...]:
        if self.strategy.weights is not None:
            return self.strategy.weights
        return tuple(st.weight for st in self.stations)

    def strategy_for(self, kind: str, seed: int | None = None) -> StrategyConfig:
        ga = self.strategy.ga if seed is None else replace(self.strategy.ga, seed=seed)
        try:
            return replace(self.strategy, kind=kind, weights=self.station_weights(), ga=ga)
        except ValueError as exc:  # S-PD and S-TD need a positive weight
            where = "stations" if self.strategy.weights is None else "strategy.weights"
            raise ConfigError(where, str(exc)) from None


# ---------------------------------------------------------------------------
# JSON loading
# ---------------------------------------------------------------------------

# JSON keys whose name or unit differs from their field's: field -> (key, scale)
_JSON_KEYS = {
    "wavelength_m": ("wavelength_nm", 1e-9),
    "divergence_rad": ("divergence_urad", 1e-6),
    "rep_rate_hz": ("rep_rate_mhz", 1e6),
    "latitude_deg": ("lat_deg", 1.0),
    "longitude_deg": ("lon_deg", 1.0),
    "altitude_m": ("alt_m", 1.0),
}


def _number(path: str, value: Any, scale: float = 1.0) -> float:
    """A JSON number (not a bool) as a finite float, times scale."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ConfigError(path, "expected a number")
    try:
        number = float(value) * scale
    except OverflowError as exc:
        raise ConfigError(path, str(exc)) from None
    if not math.isfinite(number):
        raise ConfigError(path, f"must be finite, got {number}")
    return number


def _value(path: str, kind: type, value: Any, scale: float) -> Any:
    """value as a field of type kind: a float is a finite number (times
    scale), an int an integral number, a bool a bool and a str a str."""
    if kind is float:
        return _number(path, value, scale)
    if kind is int:
        if not _number(path, value).is_integer():
            raise ConfigError(path, f"expected an integer, got {value}")
        return int(value)
    if not isinstance(value, kind):
        raise ConfigError(path, f"expected {kind.__name__}")
    return value


@cache
def _scalar_fields(cls) -> dict[str, tuple[str, type, float, bool]]:
    """JSON key -> (field, type, scale, required) of each float, int, bool
    and str field of cls."""
    if not dataclasses.is_dataclass(cls):
        return {}
    hints = typing.get_type_hints(cls)
    table = {}
    for f in dataclasses.fields(cls):
        if hints[f.name] in (float, int, bool, str):
            key, scale = _JSON_KEYS.get(f.name, (f.name, 1.0))
            required = f.default is MISSING and f.default_factory is MISSING
            table[key] = (f.name, hints[f.name], scale, required)
    return table


def _known(path: str, raw: dict, keys) -> None:
    """Reject the first key of raw that is not in keys."""
    for key in raw:
        if key not in keys:
            raise ConfigError(f"{path}.{key}" if path else key, "unknown key")


def _read(path: str, cls, raw: Any, special: dict | None = None):
    """cls(**fields) from the JSON object raw, failures reported against path.

    Each float, int, bool and str field of cls is read from its JSON key when
    present and checked by its type; an absent field keeps its dataclass
    default.  special maps each other allowed key to a function of
    (path, value) that returns fields.  cls may be dict, for an object with
    no scalar fields.
    """
    if not isinstance(raw, dict):
        raise ConfigError(path, "expected an object")
    scalars, special = _scalar_fields(cls), special or {}
    _known(path, raw, scalars.keys() | special.keys())
    fields: dict[str, Any] = {}
    for key, value in raw.items():
        where = f"{path}.{key}" if path else key
        if key in scalars:
            name, kind, scale, _ = scalars[key]
            fields[name] = _value(where, kind, value, scale)
        else:
            fields.update(special[key](where, value))
    for key, (name, _, _, required) in scalars.items():
        if required and name not in fields:
            raise ConfigError(f"{path}.{key}", "missing required field")
    try:
        return cls(**fields)
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(path, str(exc)) from None


def _list(path: str, raw: Any) -> list:
    if not isinstance(raw, list):
        raise ConfigError(path, "expected a list")
    return raw


def _floats(path: str, raw: Any) -> tuple[float, ...]:
    return tuple(_number(path, v) for v in _list(path, raw))


def _parse_time(path: str, text: Any) -> datetime:
    if not isinstance(text, str):
        raise ConfigError(path, "expected an ISO-8601 timestamp string")
    try:
        t = datetime.fromisoformat(text.replace("Z", "+00:00"))
    except ValueError as exc:
        raise ConfigError(path, str(exc)) from None
    return t if t.tzinfo else t.replace(tzinfo=UTC)


def _span(path: str, raw: Any) -> dict:
    if raw is None:
        return {}
    if not (isinstance(raw, list) and len(raw) == 2):
        raise ConfigError(path, "expected [start, end]")
    return {"span": tuple(_parse_time(f"{path}[{i}]", t) for i, t in enumerate(raw))}


def _parse_altitude(path: str, entry: Any) -> dict:
    """One sweep.altitudes_km entry as {"altitude_km": ..., "raan_deg": ...}."""
    if isinstance(entry, dict):
        _known(path, entry, ("altitude_km", "raan_deg"))
        parsed, where = dict(entry), f"{path}.altitude_km"
    elif isinstance(entry, (int, float)) and not isinstance(entry, bool):
        parsed, where = {"altitude_km": _number(path, entry)}, path
    else:
        raise ConfigError(path, "expected number or object")
    if _number(where, parsed.get("altitude_km")) <= 0.0:
        raise ConfigError(where, f"altitude must be > 0 km, got {parsed['altitude_km']}")
    if parsed.get("raan_deg") is not None:
        _number(f"{path}.raan_deg", parsed["raan_deg"])
    return parsed


_SWEEP = {
    "altitudes_km": lambda path, raw: {"sweep_altitudes": tuple(
        _parse_altitude(f"{path}[{i}]", entry) for i, entry in enumerate(_list(path, raw)))},
    "divergences_urad": lambda path, raw: {"sweep_divergences_urad": _floats(path, raw)},
}

_STRATEGY = {
    "weights": lambda path, raw: {"weights": None if raw is None else _floats(path, raw)},
    "ga": lambda path, raw: {"ga": _read(path, GaConfig, raw)},
}


def _file(path: str, raw: Any, resolve, load) -> Any:
    """load(resolved name) of a {"file": name} object; None for other shapes.

    A file that cannot be opened is reported against path.file, one that
    load rejects against path.
    """
    if not (isinstance(raw, dict) and "file" in raw):
        return None
    _known(path, raw, ("file",))
    where, name = f"{path}.file", raw["file"]
    if not isinstance(name, str):
        raise ConfigError(where, "expected a path string")
    try:
        return load(resolve(name))
    except OSError as exc:
        raise ConfigError(where, str(exc)) from None
    except ValueError as exc:
        raise ConfigError(path, str(exc)) from None


def _load_json(name) -> Any:
    with open(name, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"invalid JSON: {exc}") from None


def _tle(path: str, raw: Any, resolve) -> dict:
    text = _file(path, raw, resolve, lambda name: Path(name).read_text(encoding="utf-8"))
    if text is None:
        if not (isinstance(raw, list) and all(isinstance(line, str) for line in raw)):
            raise ConfigError(path, "expected two lines or {'file': path}")
        text = "\n".join(raw)
    try:
        return {"tle": parse_tle(text)}
    except ValueError as exc:
        raise ConfigError(path, str(exc)) from None


def _ephemeris(path: str, raw: Any, resolve) -> dict:
    ephemeris = _file(path, raw, resolve, load_ephemeris)
    if ephemeris is None:
        raise ConfigError(path, "expected {'file': path}")
    return {"ephemeris": ephemeris}


def _stations(path: str, raw: Any, resolve) -> dict:
    loaded = _file(path, raw, resolve, _load_json)
    if loaded is not None:
        raw = loaded
    if not isinstance(raw, list):
        raise ConfigError(path, "expected a list or {'file': path}")
    return {"stations": tuple(_read(f"{path}[{i}]", GroundStation, entry)
                              for i, entry in enumerate(raw))}


def _cloud(path: str, raw: Any, resolve) -> dict:
    grid = _file(path, {"file": raw} if isinstance(raw, str) else raw, resolve,
                 load_cloud_grid)
    if grid is None:
        raise ConfigError(path, "expected a path or {'file': path}")
    return {"cloud": grid}


def scenario_from_dict(data: dict, base_dir: str | None = None) -> ScenarioConfig:
    """Build a validated ScenarioConfig from parsed JSON.

    Only the keys present are passed on, so the dataclasses hold every
    default; an unknown key is an error.
    """
    def resolve(p):
        return p if base_dir is None or os.path.isabs(p) else os.path.join(base_dir, p)

    def from_file(read):
        return lambda path, raw: {} if raw is None else read(path, raw, resolve)

    return _read("", ScenarioConfig, data, {
        "tle": from_file(_tle),
        "ephemeris": from_file(_ephemeris),
        "stations": from_file(_stations),
        "cloud": from_file(_cloud),
        "span": _span,
        "sweep": lambda path, raw: _read(path, dict, raw, _SWEEP),
        "optics": lambda path, raw: {"optics": _read(path, OpticalParams, raw)},
        "qkd": lambda path, raw: {"qkd": _read(path, QkdParams, raw)},
        "strategy": lambda path, raw: {
            "strategy": _read(path, StrategyConfig, raw, _STRATEGY)},
    })


def load_scenario(path) -> ScenarioConfig:
    try:
        data = _load_json(path)
    except ValueError as exc:
        raise ConfigError("<config>", str(exc)) from None
    if not isinstance(data, dict):
        raise ConfigError("<config>", "top level must be an object")
    return scenario_from_dict(data, base_dir=os.path.dirname(os.path.abspath(path)))


def micius_week_config(**overrides) -> ScenarioConfig:
    """The default Micius-class week scenario with Table-1 parameters."""
    base = ScenarioConfig()
    return replace(base, **overrides) if overrides else base


# ---------------------------------------------------------------------------
# Pipeline helpers
# ---------------------------------------------------------------------------

def compute_accesses(config: ScenarioConfig) -> Passes:
    try:
        return compute_access_windows(
            config.orbit_source, config.stations, config.span,
            step_seconds=config.step_seconds,
            elevation_mask_deg=config.elevation_mask_deg,
            night_threshold_deg=config.night_threshold_deg,
            require_umbra=config.require_umbra)
    except OverflowError as exc:  # a pass that ends after datetime.max
        raise ConfigError("span", str(exc)) from None


def check_loss_mask(config: ScenarioConfig) -> None:
    """The loss model holds above the horizon only, and a negative mask
    lets samples at or below it through."""
    if config.elevation_mask_deg < 0.0:
        raise ConfigError("elevation_mask_deg", "the loss model needs a mask >= 0, "
                          f"got {config.elevation_mask_deg}")


def union_duration_seconds(passes: Passes) -> float:
    """Time with at least one station usable (one downlink at a time):
    the distinct sample times, each worth the passes' step.  They are
    counted on a sorted copy: np.unique hashes int64 values (numpy 2.4),
    which took 15 times as long on 20,772 sample times."""
    times = np.sort(passes.time_us)
    return (np.count_nonzero(times[1:] != times[:-1]) + (times.size > 0)) * passes.step_seconds


def key_matrix_for(config: ScenarioConfig, passes: Passes | None = None) -> KeyMatrix:
    check_loss_mask(config)
    if passes is None:
        passes = compute_accesses(config)
    return build_key_matrix(
        passes, config.stations, config.optics, config.qkd,
        start=config.span[0], n_intervals=config.n_grid_intervals,
        interval_seconds=config.grid_interval_seconds, cloud=config.cloud)


def elements_for_altitude(base: TleElements, altitude_km: float,
                          raan_deg: float | None = None) -> TleElements:
    """Same orbit plane/phase, circularised at a different altitude."""
    from .orbit import EARTH_MU_KM3_S2, EARTH_RADIUS_KM
    a = EARTH_RADIUS_KM + altitude_km
    period = 2.0 * math.pi * math.sqrt(a ** 3 / EARTH_MU_KM3_S2)
    return replace(base, raan_deg=base.raan_deg if raan_deg is None else raan_deg,
                   mean_motion_rev_day=86400.0 / period)


def config_digest(config: ScenarioConfig) -> str:
    """Stable hash of the fully-resolved scenario, for run manifests."""
    import hashlib

    def clean(value):
        if isinstance(value, datetime):
            return value.isoformat()
        if isinstance(value, (list, tuple)):
            return [clean(v) for v in value]
        if isinstance(value, dict):
            return {k: clean(v) for k, v in sorted(value.items())}
        if isinstance(value, np.ndarray):
            # the buffer of a C-contiguous array is its bytes, read in place
            return hashlib.sha256(np.ascontiguousarray(value)).hexdigest()
        if hasattr(value, "__dataclass_fields__"):
            return {name: clean(getattr(value, name))
                    for name in sorted(value.__dataclass_fields__)}
        return value

    payload = json.dumps(clean(config), sort_keys=True, default=str)
    return hashlib.sha256(payload.encode()).hexdigest()
