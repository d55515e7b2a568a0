"""Structured benchmark generator.

Two sizes (small: 16 destinations, large: 100) and nine settings varying
rover speed, flight-time budget, RL count and destination density around a
base configuration. Destinations are scattered uniformly in an l x l
square; RLs sit on a uniform grid (corners included) so feasibility does
not depend on luck; one randomly chosen grid RL serves as both depots.
Drone times are Euclidean distances at unit speed, rover times Manhattan
distances divided by the rover speed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import InfeasibleError, Instance, check_instance

RETRY_LIMIT = 100

# one-factor-at-a-time around the base configuration
_FACTORS = {
    "Basis": {},
    "SpLow": {"delta": 1.0 / 3.0},
    "SpHigh": {"delta": 1.0},
    "EnLow": {"e_max": 750.0},
    "EnHigh": {"e_max": 1250.0},
    "LocLow": {"ratio": 3},
    "LocHigh": {"ratio": 1},
    "DenLow": {"density": 8e-6},
    "DenHigh": {"density": 45e-6},
}
_BASE = {"delta": 0.5, "e_max": 1000.0, "ratio": 2, "density": 16e-6}

_SIZES = {
    "small": {
        "n_d": 16,
        "n_r": {1: 16, 2: 9, 3: 6},
        "side": {8e-6: 1400.0, 16e-6: 1000.0, 45e-6: 600.0},
    },
    "large": {
        "n_d": 100,
        "n_r": {1: 100, 2: 49, 3: 36},
        "side": {8e-6: 3500.0, 16e-6: 2500.0, 45e-6: 1500.0},
    },
}

SETTING_NAMES = tuple(_FACTORS)
SIZE_NAMES = tuple(_SIZES)


@dataclass(frozen=True)
class GeneratorSetting:
    name: str
    size: str
    delta: float       # rover speed, length units per time unit
    e_max: float       # flight-time budget, time units
    n_d: int
    n_r: int
    side: float        # square side, length units
    density: float     # destinations per squared length unit


def get_setting(name: str, size: str) -> GeneratorSetting:
    if name not in _FACTORS:
        raise ValueError(f"unknown setting {name!r}; choose from {SETTING_NAMES}")
    if size not in _SIZES:
        raise ValueError(f"unknown size {size!r}; choose from {SIZE_NAMES}")
    params = dict(_BASE)
    params.update(_FACTORS[name])
    fam = _SIZES[size]
    side = fam["side"][params["density"]]
    return GeneratorSetting(
        name=name, size=size, delta=params["delta"], e_max=params["e_max"],
        n_d=fam["n_d"], n_r=fam["n_r"][params["ratio"]], side=side,
        density=params["density"])


def all_settings(size: str) -> list:
    return [get_setting(name, size) for name in SETTING_NAMES]


def grid_coordinates(n_r: int, side: float) -> np.ndarray:
    """Uniform RL grid covering the square, corners included. Non-square
    counts use the most balanced rows x cols factorization."""
    rows = int(math.isqrt(n_r))
    while n_r % rows:
        rows -= 1
    cols = n_r // rows
    xs = np.linspace(0.0, side, cols) if cols > 1 else np.array([side / 2.0])
    ys = np.linspace(0.0, side, rows) if rows > 1 else np.array([side / 2.0])
    pts = [(x, y) for y in ys for x in xs]
    return np.array(pts, dtype=float)


def euclidean_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.hypot(a[:, None, 0] - b[None, :, 0], a[:, None, 1] - b[None, :, 1])


def manhattan_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return (np.abs(a[:, None, 0] - b[None, :, 0])
            + np.abs(a[:, None, 1] - b[None, :, 1]))


def metrics_from_coords(dest_xy: np.ndarray, rl_xy: np.ndarray,
                        rover_speed: float, drone_metric: str = "euclidean",
                        rover_metric: str = "manhattan"):
    """(c_d, c_r) from coordinates; drone speed is normalized to 1."""
    pts = np.vstack([dest_xy, rl_xy]) if len(dest_xy) else rl_xy
    if drone_metric == "euclidean":
        c_d = euclidean_matrix(pts, pts)
    elif drone_metric == "manhattan":
        c_d = manhattan_matrix(pts, pts)
    else:
        raise ValueError(f"unsupported drone metric {drone_metric!r}")
    if rover_metric == "manhattan":
        c_r = manhattan_matrix(rl_xy, rl_xy) / rover_speed
    elif rover_metric == "euclidean":
        c_r = euclidean_matrix(rl_xy, rl_xy) / rover_speed
    else:
        raise ValueError(f"unsupported rover metric {rover_metric!r}")
    return c_d, c_r


def generate(setting: GeneratorSetting, seed: int) -> Instance:
    """One benchmark instance; identical (setting, seed) pairs reproduce
    identical instances."""
    rng = np.random.default_rng(seed)
    rl_xy = grid_coordinates(setting.n_r, setting.side)
    depot = int(rng.integers(setting.n_r))

    for _ in range(RETRY_LIMIT):
        dest_xy = rng.uniform(0.0, setting.side, size=(setting.n_d, 2))
        c_d, c_r = metrics_from_coords(dest_xy, rl_xy, setting.delta)
        nearest = c_d[: setting.n_d, setting.n_d:].min(axis=1)
        if (2.0 * nearest <= setting.e_max).all():
            inst = Instance(
                n_d=setting.n_d, n_r=setting.n_r, c_d=c_d, c_r=c_r,
                w0=depot, wt=depot, e_max=setting.e_max,
                dest_xy=dest_xy, rl_xy=rl_xy,
                name=f"{setting.name}_{setting.size}_s{seed}",
                meta={
                    "setting": setting.name, "size": setting.size,
                    "seed": seed, "rover_speed": setting.delta,
                    "side": setting.side, "density": setting.density,
                    "drone_metric": "euclidean", "rover_metric": "manhattan",
                })
            return inst
    raise InfeasibleError(
        f"could not place reachable destinations after {RETRY_LIMIT} tries")


def random_instance(seed: int, n_d: int, n_r: int, side: float = 100.0,
                    rover_speed: float = 0.5, emax_factor: float = 1.6,
                    single_depot: bool = False) -> Instance:
    """Small unstructured instance for tests and cross-checks: uniform
    destinations and RLs, e_max scaled off the tightest return flight so
    reachability always holds while multi-operation tours stay necessary."""
    rng = np.random.default_rng(seed)
    dest_xy = rng.uniform(0.0, side, size=(n_d, 2))
    rl_xy = rng.uniform(0.0, side, size=(n_r, 2))
    c_d, c_r = metrics_from_coords(dest_xy, rl_xy, rover_speed)
    nearest = c_d[:n_d, n_d:].min(axis=1)
    e_max = float(emax_factor * (2.0 * nearest).max())
    w0 = int(rng.integers(n_r))
    wt = w0 if single_depot else int(rng.integers(n_r))
    inst = Instance(n_d=n_d, n_r=n_r, c_d=c_d, c_r=c_r, w0=w0, wt=wt,
                    e_max=e_max, dest_xy=dest_xy, rl_xy=rl_xy,
                    name=f"random_s{seed}_{n_d}x{n_r}",
                    meta={"seed": seed, "rover_speed": rover_speed,
                          "drone_metric": "euclidean",
                          "rover_metric": "manhattan"})
    problems = check_instance(inst)
    if problems:
        raise AssertionError(f"generator produced an invalid instance: {problems}")
    return inst
