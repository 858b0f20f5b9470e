"""Scenario JSON reader: the README examples and a typed property test.

The README's configuration block shows every default, so its sections must
read back to the built-in profile, its Python API example must run, and
every `module.name` it cites must name something in satqkd.
The property test draws values of every JSON type for every field of every
section and requires the reader to return a config whose fields have their
declared types, or to raise ConfigError: never another exception.
"""
from __future__ import annotations

import contextlib
import dataclasses
import importlib
import io
import json
import math
import pkgutil
import re
import typing
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import satqkd
from satqkd.cloud import save_cloud_grid, synthetic_cloud_grid
from satqkd.scenario import (
    MICIUS_TLE_LINES,
    ConfigError,
    ScenarioConfig,
    micius_week_config,
    scenario_from_dict,
)

README = Path(__file__).resolve().parent.parent / "README.md"


def readme_config() -> dict:
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Scenario configuration"):]
    block = re.search(r"```json\n(.*?)```", section, re.S).group(1)
    return json.loads(re.sub(r"\s*//.*", "", block))


def test_readme_defaults_are_the_built_in_profile():
    shown = readme_config()
    keys = ("span", "step_seconds", "grid_interval_seconds", "elevation_mask_deg",
            "night_threshold_deg", "require_umbra", "optics", "qkd", "strategy", "sweep")
    assert scenario_from_dict({key: shown[key] for key in keys}) == scenario_from_dict({})


def test_readme_python_api_example_runs():
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Python API"):]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        exec(compile(code, "README.md", "exec"), {"__name__": "readme"})
    peak, total = printed.getvalue().splitlines()
    assert peak.endswith(" deg peak elevation of the first pass")
    assert total.endswith(" key bits") and float(total.split()[0]) > 0


def test_readme_cites_only_names_that_resolve():
    # `module.name` and `Class.attribute`, for a satqkd module or a name the
    # package exports; numpy, file names and config keys are not satqkd's
    modules = {module.name for module in pkgutil.iter_modules(satqkd.__path__)}
    cited = set(re.findall(r"`([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+)",
                           README.read_text(encoding="utf-8")))
    missing, resolved = [], 0
    for dotted in sorted(cited):
        head, *path = dotted.split(".")
        if head in modules:
            obj = importlib.import_module(f"satqkd.{head}")
        elif head in vars(satqkd) and not head.startswith("_"):
            obj = getattr(satqkd, head)
        else:
            continue
        for name in path:
            fields = ({field.name for field in dataclasses.fields(obj)}
                      if isinstance(obj, type) and dataclasses.is_dataclass(obj) else ())
            if name in fields and not hasattr(obj, name):
                obj = None  # a dataclass field without a default
            elif hasattr(obj, name):
                obj = getattr(obj, name)
            else:
                missing.append(dotted)
                break
        else:
            resolved += 1
    assert missing == []
    assert resolved >= 15, resolved


# ---------------------------------------------------------------------------
# property test
# ---------------------------------------------------------------------------

# the JSON keys of each object the reader reads
TOP_NUMBERS = ("step_seconds", "grid_interval_seconds", "elevation_mask_deg",
               "night_threshold_deg", "require_umbra")
OPTICS_KEYS = ("wavelength_nm", "divergence_urad", "receiver_diameter_m",
               "transmitter_diameter_m", "zenith_atm_loss_db", "pointing_loss_db",
               "coupling_loss_db", "detection_loss_db", "beam_convention")
QKD_KEYS = ("mu", "nu", "omega", "rep_rate_mhz", "q_factor", "f_e", "e_detector",
            "y0", "e0")
GA_KEYS = ("population", "generations", "crossover_rate", "mutation_rate", "elitism",
           "seed", "restart_after")
STATION_KEYS = ("name", "lat_deg", "lon_deg", "alt_m", "weight")
FILES = ("tle.txt", "stations.json", "clouds.txt", "eph.csv", "missing.txt")

SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-3, max_value=600),
    # past float and int64, NaN, +-Inf, subnormal, huge, signed zero
    st.sampled_from([10 ** 400, -(10 ** 400), 2 ** 63, -(2 ** 64), math.nan, math.inf,
                     -math.inf, 5e-324, 1e-320, 1e308, -1e308, -0.0]),
    st.integers(),
    st.floats(),
    st.floats(min_value=-1.0, max_value=2.0),
    st.sampled_from(["", "x", "1", "0.5", "full", "half", "S-TD", "Z",
                     "2016-09-19T00:00:00Z", "2016-09-20T00:00:00"]),
    st.text(max_size=4),
)
ANY = st.recursive(SCALARS, lambda inner: st.one_of(
    st.lists(inner, max_size=3),
    st.dictionaries(st.sampled_from(["file", "x", "name", "altitude_km"]), inner,
                    max_size=2)), max_leaves=6)


def section(keys, **nested):
    """An object drawn over keys (plus an unknown one); nested[key] is aimed
    at a key's own shape as often as any JSON value is."""
    values = {key: st.one_of(ANY, nested[key]) if key in nested else ANY for key in keys}
    return st.fixed_dictionaries({}, optional={**values, "bogus": ANY})


FILE_REF = st.fixed_dictionaries({"file": st.one_of(st.sampled_from(FILES), ANY)})
STATION = section(STATION_KEYS)
GA = section(GA_KEYS)
SPAN = st.lists(st.one_of(st.sampled_from(["2016-09-19T00:00:00Z", "2016-09-19T06:00:00",
                                           "2016-09-20T00:00:00+08:00"]), ANY),
                min_size=2, max_size=2)
ALTITUDE = st.one_of(SCALARS, ANY, st.fixed_dictionaries(
    {"altitude_km": st.one_of(ANY, st.floats(1.0, 4e4))}, optional={"raan_deg": ANY}))
SECTIONS = {
    "top": section(TOP_NUMBERS),
    "optics": st.fixed_dictionaries({"optics": section(OPTICS_KEYS)}),
    "qkd": st.fixed_dictionaries({"qkd": section(QKD_KEYS)}),
    "strategy": st.fixed_dictionaries({"strategy": section(
        ("kind", "weights", "kl_tolerance", "ga"),
        weights=st.lists(SCALARS, max_size=3), ga=GA)}),
    "stations": st.fixed_dictionaries({"stations": st.one_of(
        st.lists(st.one_of(STATION, ANY), max_size=3), FILE_REF, ANY)}),
    "files": section(("tle", "ephemeris", "cloud"),
                     tle=st.one_of(FILE_REF, st.lists(st.one_of(
                         st.sampled_from(MICIUS_TLE_LINES), ANY), max_size=3)),
                     ephemeris=FILE_REF, cloud=st.one_of(FILE_REF, st.sampled_from(FILES))),
    "span-sweep": section(("span", "sweep"), span=SPAN, sweep=section(
        ("altitudes_km", "divergences_urad"),
        altitudes_km=st.lists(ALTITUDE, max_size=3),
        divergences_urad=st.lists(SCALARS, max_size=3))),
}


# a valid config that sets every key, with files under data_dir
VALID = {
    "tle": {"file": "tle.txt"},
    "ephemeris": {"file": "eph.csv"},
    "stations": [{"name": "A", "lat_deg": 30.0, "lon_deg": 100.0, "alt_m": 10.0,
                  "weight": 2.0}],
    "span": ["2016-09-19T00:00:00Z", "2016-09-19T00:01:00Z"],
    "step_seconds": 10, "grid_interval_seconds": 10, "elevation_mask_deg": 10,
    "night_threshold_deg": -6, "require_umbra": False,
    "optics": {"wavelength_nm": 1550, "divergence_urad": 10, "receiver_diameter_m": 1.2,
               "transmitter_diameter_m": 0.3, "zenith_atm_loss_db": 2,
               "pointing_loss_db": 2, "coupling_loss_db": 3, "detection_loss_db": 3,
               "beam_convention": "full"},
    "qkd": {"mu": 0.5, "nu": 0.08, "omega": 0, "rep_rate_mhz": 200, "q_factor": 0.5,
            "f_e": 1.16, "e_detector": 0.015, "y0": 3e-6, "e0": 0.5},
    "cloud": {"file": "clouds.txt"},
    "strategy": {"kind": "S-TD", "weights": [1.0], "kl_tolerance": 0.05,
                 "ga": {"population": 20, "generations": 5, "crossover_rate": 0.8,
                        "mutation_rate": 0.02, "elitism": 2, "seed": 0,
                        "restart_after": 60}},
    "sweep": {"altitudes_km": [500, {"altitude_km": 800, "raan_deg": 5}],
              "divergences_urad": [1, 3]},
}

# one value of each JSON type, and the edges of each
REPRESENTATIVES = (
    None, True, False, 0, -1, 1, 7, 2 ** 63, -(2 ** 64), 10 ** 400, -(10 ** 400),
    0.5, -0.0, 50.9, 5e-324, 1e308, -1e308, math.nan, math.inf, -math.inf,
    "", "x", "1", "0.5", "missing.txt", [], [1], ["x"], {}, {"x": 1},
    {"file": "missing.txt"},
)


def paths(value, prefix=()):
    """The path of every object, list and value inside value."""
    found = [prefix] if prefix else []
    items = (value.items() if isinstance(value, dict) else
             enumerate(value) if isinstance(value, list) else ())
    for key, child in items:
        found += paths(child, prefix + (key,))
    return found


def replaced(path, value):
    """A copy of VALID with the entry at path set to value."""
    payload = json.loads(json.dumps(VALID))
    parent = payload
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return payload


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    """Valid files for the names in FILES, except missing.txt."""
    root = tmp_path_factory.mktemp("config-files")
    (root / "tle.txt").write_text("\n".join(MICIUS_TLE_LINES) + "\n", encoding="utf-8")
    (root / "stations.json").write_text(json.dumps(
        [{"name": "A", "lat_deg": 30.0, "lon_deg": 100.0}]), encoding="utf-8")
    save_cloud_grid(synthetic_cloud_grid(20.0, 22.0, 100.0, 103.0, 1.0, 1.0,
                                         micius_week_config().span[0], 2),
                    root / "clouds.txt")
    (root / "eph.csv").write_text(
        "time_utc,x_km,y_km,z_km\n2016-09-19T00:00:00+00:00,7000,0,0\n"
        "2016-09-19T00:01:00+00:00,7000,100,0\n", encoding="utf-8")
    return root


def assert_typed(obj) -> None:
    """Every float, int, bool and str field of obj and of the dataclasses it
    holds has exactly its declared type; every float is finite."""
    hints = typing.get_type_hints(type(obj))
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        if hints[f.name] in (float, int, bool, str):
            assert type(value) is hints[f.name], f.name
            assert not isinstance(value, float) or math.isfinite(value), f.name
        for item in value if isinstance(value, tuple) else (value,):
            if dataclasses.is_dataclass(item):
                assert_typed(item)


@pytest.mark.parametrize("name", sorted(SECTIONS))
def test_reader_returns_config_or_config_error(name, data_dir):
    @settings(max_examples=150, deadline=None, database=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    @given(SECTIONS[name])
    def check(payload):
        try:
            config = scenario_from_dict(payload, base_dir=str(data_dir))
        except ConfigError:
            return
        assert isinstance(config, ScenarioConfig)
        assert_typed(config)

    check()


def test_valid_config_sets_every_key(data_dir):
    config = scenario_from_dict(VALID, base_dir=str(data_dir))
    assert config.ephemeris is not None and config.cloud is not None
    assert config.strategy.ga.population == 20


@pytest.mark.parametrize("path", paths(VALID), ids=lambda path: ".".join(map(str, path)))
def test_each_field_takes_any_json_value(path, data_dir):
    @settings(max_examples=10, deadline=None, database=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    @given(ANY)
    def check(value):
        try:
            config = scenario_from_dict(replaced(path, value), base_dir=str(data_dir))
        except ConfigError:
            return
        assert_typed(config)

    for value in REPRESENTATIVES:
        check = example(value)(check)
    check()
