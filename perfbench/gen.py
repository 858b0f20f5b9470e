"""Seeded input generator: the program receives only the files written here.

    python3 perfbench/gen.py --workload global-60 --seed 1 --out DIR

The same workload and seed always give byte-identical files.  Nothing here
imports satqkd, so a change to the program cannot change its inputs.
"""
from __future__ import annotations

import argparse
import json
import os

import numpy as np

from workloads import WORKLOADS

# cloud grid of week-1s-cloudy: 1 degree cells over the default stations,
# 1008 ten-minute frames = the default week starting 2016-09-19T00:00Z
CLOUD_LAT = (18, 48)
CLOUD_LON = (84, 126)
CLOUD_FRAMES = 1008
CLOUD_START = "2016-09-19T00:00:00+00:00"
CLOUD_BLOBS = 40


def cloud_frames(rng: np.random.Generator) -> np.ndarray:
    """(frames, lat, lon) int16 opacity: drifting Gaussian blobs over a haze.

    Blob centres move at constant velocity and wrap around the grid, so the
    cover stays statistically steady over the week.  Values are clipped to
    0..150; a blob core above 150 becomes overcast (the link is blocked).
    """
    lats = np.arange(CLOUD_LAT[0], CLOUD_LAT[1] + 1, dtype=float)
    lons = np.arange(CLOUD_LON[0], CLOUD_LON[1] + 1, dtype=float)
    height, width = lats[-1] - lats[0] + 1, lons[-1] - lons[0] + 1
    k = np.arange(CLOUD_FRAMES, dtype=float)[:, None, None]
    acc = rng.uniform(-14.0, 6.0, size=(1, len(lats), len(lons)))
    for _ in range(CLOUD_BLOBS):
        c_lat = lats[0] + rng.uniform(0, height) + rng.uniform(-0.05, 0.05) * k
        c_lon = lons[0] + rng.uniform(0, width) + rng.uniform(0.05, 0.3) * k
        sigma = rng.uniform(1.0, 2.0)
        peak = rng.uniform(110.0, 220.0)
        # nearest periodic image, so blobs leave one edge and enter the other
        d_lat = (lats[None, :, None] - c_lat + height / 2) % height - height / 2
        d_lon = (lons[None, None, :] - c_lon + width / 2) % width - width / 2
        acc = acc + peak * np.exp(-(d_lat ** 2 + d_lon ** 2) / (2.0 * sigma ** 2))
    return np.clip(np.rint(acc), 0, 150).astype(np.int16)


def write_cloud_grid(frames: np.ndarray, path: str) -> None:
    n_frames, n_lat, n_lon = frames.shape
    header = (f"{CLOUD_LAT[0]} {CLOUD_LAT[1]} {CLOUD_LON[0]} {CLOUD_LON[1]} 1 1 "
              f"{CLOUD_START} {n_frames} {n_lat} {n_lon}\n")
    rows = frames.reshape(-1, n_lon).tolist()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header)
        fh.write("\n".join(" ".join(map(str, row)) for row in rows))
        fh.write("\n")


def stations(rng: np.random.Generator, count: int = 60) -> list[dict]:
    """Stations with latitude uniform in sin(lat) over +-60 deg, any longitude.

    sin(lat) is drawn stratified, one station per equal band, so the work a
    seed generates (visible samples, active intervals) varies little
    between seeds.
    """
    s = np.sin(np.radians(60.0))
    bands = (np.arange(count) + rng.uniform(0.0, 1.0, count)) / count
    lat = np.degrees(np.arcsin(s * (2.0 * rng.permutation(bands) - 1.0)))
    lon = rng.uniform(-180.0, 180.0, count)
    alt = rng.uniform(0.0, 3000.0, count)
    weight = rng.uniform(0.5, 25.0, count)
    return [{"name": f"GS{i:02d}", "lat_deg": round(float(lat[i]), 4),
             "lon_deg": round(float(lon[i]), 4), "alt_m": round(float(alt[i]), 1),
             "weight": round(float(weight[i]), 3)} for i in range(count)]


def generate(workload: str, seed: int, out: str) -> None:
    """Write `config.json` and its data files for one workload and seed."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    os.makedirs(out, exist_ok=True)
    rng = np.random.default_rng([seed, sorted(WORKLOADS).index(workload)])
    if workload == "micius-week":
        config = {"strategy": {"ga": {"seed": seed}}}
    elif workload == "week-1s-cloudy":
        write_cloud_grid(cloud_frames(rng), os.path.join(out, "clouds.txt"))
        config = {"step_seconds": 1, "cloud": {"file": "clouds.txt"}}
    else:
        with open(os.path.join(out, "stations.json"), "w", encoding="utf-8") as fh:
            json.dump(stations(rng), fh, indent=1)
            fh.write("\n")
        config = {"stations": {"file": "stations.json"},
                  "strategy": {"ga": {"population": 50, "generations": 50,
                                      "seed": seed}}}
    with open(os.path.join(out, "config.json"), "w", encoding="utf-8") as fh:
        json.dump(config, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    generate(args.workload, args.seed, args.out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
