"""Scenario configuration and end-to-end pipeline helpers.

A scenario bundles the orbit source, ground stations, time span, sampling
step, optics, QKD parameters, optional cloud grid and a scheduling strategy.
Scenarios load from a single JSON file (human units: nm, urad, MHz) and every
field has a Table-1-style default, so an empty object is a valid config.

The built-in default profile is the Micius-class week: a 500 km
sun-synchronous midnight orbit over 11 Chinese ground stations for the week
of 2016-09-19, 10 s sampling, 10 degree mask, civil-twilight night gating.
Station weights are proportional to city population (millions).
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from datetime import datetime, timezone
from functools import partial
from typing import Any

import numpy as np

from .channel import OpticalParams
from .cloud import CloudGrid, load_cloud_grid
from .orbit import (
    AccessInterval,
    Ephemeris,
    GroundStation,
    TleElements,
    compute_access_windows,
    load_ephemeris,
    parse_tle,
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
    tle: TleElements | None = field(default=None)
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
        ratio = self.grid_interval_seconds / self.step_seconds
        if abs(ratio - round(ratio)) > 1e-9 or ratio < 1 - 1e-9:
            raise ConfigError(
                "step_seconds",
                f"step must divide the {self.grid_interval_seconds} s scheduling interval")
        names = [st.name for st in self.stations]
        if len(set(names)) != len(names):
            raise ConfigError("stations", "station names must be unique")

    @property
    def orbit_source(self) -> TleElements | Ephemeris:
        return self.ephemeris if self.ephemeris is not None else self.tle

    @property
    def n_grid_intervals(self) -> int:
        seconds = (self.span[1] - self.span[0]).total_seconds()
        return max(1, math.ceil(seconds / self.grid_interval_seconds - 1e-9))

    def station_weights(self) -> tuple[float, ...]:
        if self.strategy.weights is not None:
            return self.strategy.weights
        return tuple(st.weight for st in self.stations)

    def strategy_for(self, kind: str, seed: int | None = None) -> StrategyConfig:
        ga = self.strategy.ga
        if seed is not None:
            ga = GaConfig(population=ga.population, generations=ga.generations,
                          crossover_rate=ga.crossover_rate,
                          mutation_rate=ga.mutation_rate, elitism=ga.elitism,
                          seed=seed, restart_after=ga.restart_after)
        return StrategyConfig(kind=kind, weights=self.station_weights(),
                              ga=ga, kl_tolerance=self.strategy.kl_tolerance)


# ---------------------------------------------------------------------------
# JSON loading
# ---------------------------------------------------------------------------

def _finite(value):
    """value unchanged, unless it is a NaN or infinite float."""
    if isinstance(value, float) and not math.isfinite(value):
        raise ValueError(f"must be finite, got {value}")
    return value


def _number(path: str, value: Any) -> float:
    """A JSON number (not a bool) as a finite float."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ConfigError(path, "expected a number")
    try:
        return _finite(float(value))
    except (OverflowError, ValueError) as exc:
        raise ConfigError(path, str(exc)) from None


def _parse_time(path: str, text: Any) -> datetime:
    if not isinstance(text, str):
        raise ConfigError(path, "expected an ISO-8601 timestamp string")
    try:
        t = datetime.fromisoformat(text.replace("Z", "+00:00"))
    except ValueError as exc:
        raise ConfigError(path, str(exc)) from None
    return t if t.tzinfo else t.replace(tzinfo=UTC)


def _parse_station(path: str, raw: Any) -> GroundStation:
    if not isinstance(raw, dict):
        raise ConfigError(path, "expected an object")
    try:
        return GroundStation(
            name=raw["name"],
            latitude_deg=float(raw["lat_deg"]),
            longitude_deg=float(raw["lon_deg"]),
            altitude_m=float(raw.get("alt_m", 0.0)),
            weight=float(raw.get("weight", 1.0)))
    except KeyError as exc:
        raise ConfigError(f"{path}.{exc.args[0]}", "missing required field") from None
    except (TypeError, ValueError) as exc:
        raise ConfigError(path, str(exc)) from None


def _section(path: str, raw: Any) -> dict:
    if not isinstance(raw, dict):
        raise ConfigError(path, "expected an object")
    return raw


def _field(path: str, raw: dict, key: str, default, convert=float):
    """raw[key] (default when absent) through `convert`; a failure or a
    non-finite float raises ConfigError."""
    try:
        return _finite(convert(raw.get(key, default)))
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{path}.{key}", str(exc)) from None


def _build(path: str, cls, **kwargs):
    """cls(**kwargs), its validation failure reported against `path`."""
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise ConfigError(path, str(exc)) from None


def _parse_optics(raw: dict) -> OpticalParams:
    num = partial(_field, "optics", raw)
    return _build(
        "optics", OpticalParams,
        wavelength_m=num("wavelength_nm", 1550.0) * 1e-9,
        divergence_rad=num("divergence_urad", 10.0) * 1e-6,
        receiver_diameter_m=num("receiver_diameter_m", 1.2),
        transmitter_diameter_m=num("transmitter_diameter_m", 0.3),
        zenith_atm_loss_db=num("zenith_atm_loss_db", 2.0),
        pointing_loss_db=num("pointing_loss_db", 2.0),
        coupling_loss_db=num("coupling_loss_db", 3.0),
        detection_loss_db=num("detection_loss_db", 3.0),
        beam_convention=raw.get("beam_convention", "full"))


def _parse_qkd(raw: dict) -> QkdParams:
    num = partial(_field, "qkd", raw)
    return _build(
        "qkd", QkdParams,
        mu=num("mu", 0.5),
        nu=num("nu", 0.08),
        omega=num("omega", 0.0),
        rep_rate_hz=num("rep_rate_mhz", 200.0) * 1e6,
        q_factor=num("q_factor", 0.5),
        f_e=num("f_e", 1.16),
        e_detector=num("e_detector", 0.015),
        y0=num("y0", 3e-6),
        e0=num("e0", 0.5))


def _floats(raw) -> tuple[float, ...]:
    return tuple(_finite(float(v)) for v in raw)


def _parse_strategy(raw: dict) -> StrategyConfig:
    ga_raw = _section("strategy.ga", raw.get("ga", {}))

    def ga_field(key, default, convert=int):
        return _field("strategy.ga", ga_raw, key, default, convert)

    ga = _build(
        "strategy", GaConfig,
        population=ga_field("population", 200),
        generations=ga_field("generations", 500),
        crossover_rate=ga_field("crossover_rate", 0.8, float),
        mutation_rate=ga_field("mutation_rate", 0.02, float),
        elitism=ga_field("elitism", 2),
        seed=ga_field("seed", 0),
        restart_after=ga_field("restart_after", 60))
    return _build(
        "strategy", StrategyConfig,
        kind=raw.get("kind", "S-GD"),
        weights=(None if raw.get("weights") is None
                 else _field("strategy", raw, "weights", None, _floats)),
        ga=ga,
        kl_tolerance=_field("strategy", raw, "kl_tolerance", 0.05))


def _file(path: str, raw: Any, resolve) -> str | None:
    """The resolved raw["file"] of a {"file": path} field; None for other shapes."""
    if not (isinstance(raw, dict) and "file" in raw):
        return None
    if not isinstance(raw["file"], str):
        raise ConfigError(f"{path}.file", "expected a path string")
    return resolve(raw["file"])


def _parse_altitude(path: str, entry: Any) -> dict:
    """One sweep.altitudes_km entry as {"altitude_km": ..., "raan_deg": ...}."""
    if isinstance(entry, dict):
        parsed, where = dict(entry), f"{path}.altitude_km"
    elif isinstance(entry, (int, float)) and not isinstance(entry, bool):
        parsed, where = {"altitude_km": float(entry)}, path
    else:
        raise ConfigError(path, "expected number or object")
    if _number(where, parsed.get("altitude_km")) <= 0.0:
        raise ConfigError(where, f"altitude must be > 0 km, got {parsed['altitude_km']}")
    if parsed.get("raan_deg") is not None:
        _number(f"{path}.raan_deg", parsed["raan_deg"])
    return parsed


_TOP_LEVEL_NUMBERS = ("step_seconds", "grid_interval_seconds",
                      "elevation_mask_deg", "night_threshold_deg")


def scenario_from_dict(data: dict, base_dir: str | None = None) -> ScenarioConfig:
    """Build a validated ScenarioConfig from parsed JSON.

    Only the keys present are passed on, so ScenarioConfig holds the defaults.
    """
    import os

    def resolve(p):
        return p if base_dir is None or os.path.isabs(p) else os.path.join(base_dir, p)

    given: dict[str, Any] = {key: _number(key, data[key])
                             for key in _TOP_LEVEL_NUMBERS if key in data}
    if "require_umbra" in data:
        if not isinstance(data["require_umbra"], bool):
            raise ConfigError("require_umbra", "expected bool")
        given["require_umbra"] = data["require_umbra"]

    raw_tle = data.get("tle")
    if raw_tle is not None:
        tle_file = _file("tle", raw_tle, resolve)
        if tle_file is not None:
            with open(tle_file, encoding="utf-8") as fh:
                text = fh.read()
        elif isinstance(raw_tle, list):
            text = "\n".join(raw_tle)
        else:
            raise ConfigError("tle", "expected two lines or {'file': path}")
        try:
            given["tle"] = parse_tle(text)
        except ValueError as exc:
            raise ConfigError("tle", str(exc)) from None
    raw_eph = data.get("ephemeris")
    if raw_eph is not None:
        eph_file = _file("ephemeris", raw_eph, resolve)
        if eph_file is None:
            raise ConfigError("ephemeris", "expected {'file': path}")
        try:
            given["ephemeris"] = load_ephemeris(eph_file)
        except ValueError as exc:
            raise ConfigError("ephemeris", str(exc)) from None

    raw_stations = data.get("stations")
    if raw_stations is not None:
        stations_file = _file("stations", raw_stations, resolve)
        if stations_file is not None:
            with open(stations_file, encoding="utf-8") as fh:
                try:
                    raw_stations = json.load(fh)
                except json.JSONDecodeError as exc:
                    raise ConfigError("stations.file", f"invalid JSON: {exc}") from None
        if not isinstance(raw_stations, list):
            raise ConfigError("stations", "expected a list or {'file': path}")
        given["stations"] = tuple(_parse_station(f"stations[{i}]", raw)
                                  for i, raw in enumerate(raw_stations))

    raw_span = data.get("span")
    if raw_span is not None:
        if not (isinstance(raw_span, list) and len(raw_span) == 2):
            raise ConfigError("span", "expected [start, end]")
        given["span"] = (_parse_time("span[0]", raw_span[0]),
                         _parse_time("span[1]", raw_span[1]))

    raw_cloud = data.get("cloud")
    if raw_cloud is not None:
        path = raw_cloud.get("file") if isinstance(raw_cloud, dict) else raw_cloud
        if not isinstance(path, str):
            raise ConfigError("cloud", "expected a path or {'file': path}")
        try:
            given["cloud"] = load_cloud_grid(resolve(path))
        except ValueError as exc:
            raise ConfigError("cloud", str(exc)) from None

    sweep = _section("sweep", data.get("sweep", {}))
    if "altitudes_km" in sweep:
        if not isinstance(sweep["altitudes_km"], list):
            raise ConfigError("sweep.altitudes_km", "expected a list")
        given["sweep_altitudes"] = tuple(
            _parse_altitude(f"sweep.altitudes_km[{i}]", entry)
            for i, entry in enumerate(sweep["altitudes_km"]))
    if "divergences_urad" in sweep:
        given["sweep_divergences_urad"] = _field("sweep", sweep, "divergences_urad",
                                                 None, _floats)

    return ScenarioConfig(
        optics=_parse_optics(_section("optics", data.get("optics", {}))),
        qkd=_parse_qkd(_section("qkd", data.get("qkd", {}))),
        strategy=_parse_strategy(_section("strategy", data.get("strategy", {}))),
        **given)


def load_scenario(path) -> ScenarioConfig:
    import os
    with open(path, encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError("<config>", f"invalid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise ConfigError("<config>", "top level must be an object")
    return scenario_from_dict(data, base_dir=os.path.dirname(os.path.abspath(path)))


def micius_week_config(**overrides) -> ScenarioConfig:
    """The default Micius-class week scenario with Table-1 parameters."""
    base = ScenarioConfig()
    if not overrides:
        return base
    from dataclasses import replace
    return replace(base, **overrides)


# ---------------------------------------------------------------------------
# Pipeline helpers
# ---------------------------------------------------------------------------

def compute_accesses(config: ScenarioConfig) -> list[AccessInterval]:
    return compute_access_windows(
        config.orbit_source, config.stations, config.span,
        step_seconds=config.step_seconds,
        elevation_mask_deg=config.elevation_mask_deg,
        night_threshold_deg=config.night_threshold_deg,
        require_umbra=config.require_umbra)


def union_duration_seconds(intervals: list[AccessInterval],
                           step_seconds: float) -> float:
    """Time with at least one station usable (one downlink at a time):
    the distinct sample times, each worth one step."""
    times = [interval.time_us for interval in intervals]
    return (np.unique(np.concatenate(times)).size if times else 0) * step_seconds


def key_matrix_for(config: ScenarioConfig,
                   accesses: list[AccessInterval] | None = None) -> KeyMatrix:
    if accesses is None:
        accesses = compute_accesses(config)
    return build_key_matrix(
        accesses, config.stations, config.optics, config.qkd,
        start=config.span[0], n_intervals=config.n_grid_intervals,
        interval_seconds=config.grid_interval_seconds, cloud=config.cloud)


def elements_for_altitude(base: TleElements, altitude_km: float,
                          raan_deg: float | None = None) -> TleElements:
    """Same orbit plane/phase, circularised at a different altitude."""
    from .orbit import EARTH_MU_KM3_S2, EARTH_RADIUS_KM
    a = EARTH_RADIUS_KM + altitude_km
    period = 2.0 * math.pi * math.sqrt(a ** 3 / EARTH_MU_KM3_S2)
    return TleElements(
        epoch=base.epoch,
        inclination_deg=base.inclination_deg,
        raan_deg=base.raan_deg if raan_deg is None else raan_deg,
        eccentricity=base.eccentricity,
        arg_perigee_deg=base.arg_perigee_deg,
        mean_anomaly_deg=base.mean_anomaly_deg,
        mean_motion_rev_day=86400.0 / period,
        bstar=base.bstar)


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
            return hashlib.sha256(np.ascontiguousarray(value).tobytes()).hexdigest()
        if hasattr(value, "__dataclass_fields__"):
            return {name: clean(getattr(value, name))
                    for name in sorted(value.__dataclass_fields__)}
        return value

    payload = json.dumps(clean(config), sort_keys=True, default=str)
    return hashlib.sha256(payload.encode()).hexdigest()
