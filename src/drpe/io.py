"""Instance and solution JSON formats.

Instance files carry either coordinates plus metric descriptors (matrices
are rederived on load, bit-exact) or explicit travel-time matrices, which
take precedence. Solutions list tour elements with 0-based indices.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Union

import numpy as np

from .generator import metrics_from_coords
from .model import (
    DroneTour,
    Instance,
    Operation,
    RechargingLeg,
    SchemaError,
    check_instance,
)

INSTANCE_VERSION = 1
PathLike = Union[str, Path]


def instance_to_dict(inst: Instance) -> dict:
    doc = {
        "version": INSTANCE_VERSION,
        "name": inst.name,
        "n_d": inst.n_d,
        "n_r": inst.n_r,
        "depot_start": inst.w0,
        "depot_target": inst.wt,
        "e_max": inst.e_max,
        "rover_speed": inst.meta.get("rover_speed", 1.0),
        "metrics": {
            "drone": inst.meta.get("drone_metric", "matrix"),
            "rover": inst.meta.get("rover_metric", "matrix"),
        },
    }
    if inst.dest_xy is not None:
        doc["destinations"] = inst.dest_xy.tolist()
    if inst.rl_xy is not None:
        doc["rls"] = inst.rl_xy.tolist()
    if doc["metrics"]["drone"] == "matrix":
        doc["c_d"] = inst.c_d.tolist()
    if doc["metrics"]["rover"] == "matrix":
        doc["c_r"] = inst.c_r.tolist()
    extra = {k: v for k, v in inst.meta.items()
             if k not in ("rover_speed", "drone_metric", "rover_metric")}
    if extra:
        doc["extra"] = extra
    return doc


def save_instance(inst: Instance, path: PathLike) -> None:
    Path(path).write_text(json.dumps(instance_to_dict(inst), sort_keys=True),
                          encoding="utf-8")


def _metric_closure(m: np.ndarray) -> np.ndarray:
    out = m.copy()
    for k in range(out.shape[0]):
        np.minimum(out, out[:, k, None] + out[None, k, :], out=out)
    return out


def _typed(value, what: str, kinds, low=None):
    """``value`` if it has a type in ``kinds`` (a JSON bool is no number)
    and, given ``low``, is finite and at least ``low``."""
    if (isinstance(value, bool) or not isinstance(value, kinds)
            or low is not None and not low <= value < np.inf):
        raise SchemaError(f"{what} is malformed: {value!r}")
    return value


def instance_from_dict(doc: dict, metric_closure: bool = False) -> Instance:
    try:
        inst = _instance_fields(doc, metric_closure)
    except KeyError as exc:
        raise SchemaError(f"instance file missing field {exc}") from exc
    except (TypeError, ValueError, OverflowError) as exc:
        raise SchemaError(f"instance file malformed: {exc}") from exc
    problems = check_instance(inst)
    if problems:
        raise SchemaError("invalid instance: " + "; ".join(problems))
    return inst


def _instance_fields(doc: dict, metric_closure: bool) -> Instance:
    n_d, n_r, w0, wt = (_typed(doc[key], key, int)
                        for key in ("n_d", "n_r", "depot_start", "depot_target"))
    if _typed(doc.get("version", INSTANCE_VERSION), "version", int) != INSTANCE_VERSION:
        raise SchemaError(f"unsupported instance version {doc['version']}")
    e_max = float(_typed(doc["e_max"], "e_max", (int, float)))
    metrics = _typed(doc.get("metrics", {}), "metrics", dict)

    dest_xy = np.array(doc["destinations"], dtype=float) if "destinations" in doc else None
    rl_xy = np.array(doc["rls"], dtype=float) if "rls" in doc else None
    if dest_xy is not None and dest_xy.shape != (n_d, 2):
        raise SchemaError(f"destinations must be {n_d} coordinate pairs")
    if rl_xy is not None and rl_xy.shape != (n_r, 2):
        raise SchemaError(f"rls must be {n_r} coordinate pairs")

    drone_metric = metrics.get("drone", "matrix" if "c_d" in doc else "euclidean")
    rover_metric = metrics.get("rover", "matrix" if "c_r" in doc else "manhattan")
    rover_speed = float(_typed(doc.get("rover_speed", 1.0), "rover_speed", (int, float), 0))
    if rover_speed == 0:
        raise SchemaError("rover_speed must be positive")

    c_d = c_r = None
    if drone_metric != "matrix" or rover_metric != "matrix":
        if dest_xy is None or rl_xy is None:
            raise SchemaError("coordinate metrics require destinations and rls")
        c_d, c_r = metrics_from_coords(
            dest_xy, rl_xy, rover_speed,
            drone_metric if drone_metric != "matrix" else "euclidean",
            rover_metric if rover_metric != "matrix" else "manhattan")
    if "c_d" in doc:
        c_d = np.array(doc["c_d"], dtype=float)
    if "c_r" in doc:
        c_r = np.array(doc["c_r"], dtype=float)
    if c_d is None or c_r is None:
        raise SchemaError("instance provides neither coordinates nor matrices")

    if metric_closure:
        c_d = _metric_closure(c_d)
        c_r = _metric_closure(c_r)

    meta = dict(_typed(doc.get("extra", {}), "extra", dict))
    meta.update({"rover_speed": rover_speed,
                 "drone_metric": "matrix" if "c_d" in doc else drone_metric,
                 "rover_metric": "matrix" if "c_r" in doc else rover_metric})
    return Instance(n_d=n_d, n_r=n_r, c_d=c_d, c_r=c_r, w0=w0, wt=wt,
                    e_max=e_max, dest_xy=dest_xy, rl_xy=rl_xy,
                    name=str(doc.get("name", "")), meta=meta)


def _read_json(path: PathLike):
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}: not valid JSON ({exc})") from exc


def load_instance(path: PathLike, metric_closure: bool = False) -> Instance:
    return instance_from_dict(_read_json(path), metric_closure=metric_closure)


def solution_to_dict(tour: DroneTour) -> dict:
    elements = []
    for el in tour.elements:
        if isinstance(el, RechargingLeg):
            elements.append({"type": "leg", "from": el.from_rl, "to": el.to_rl})
        else:
            elements.append({"type": "op", "start": el.start_rl,
                             "dests": list(el.destinations), "end": el.end_rl})
    return {"makespan": tour.makespan, "elements": elements}


def save_solution(tour: DroneTour, path: PathLike) -> None:
    Path(path).write_text(json.dumps(solution_to_dict(tour), sort_keys=True),
                          encoding="utf-8")


def load_solution(path: PathLike) -> DroneTour:
    doc = _read_json(path)
    try:
        elements = []
        for item in _typed(doc["elements"], "elements", list):
            if item["type"] == "leg":
                elements.append(RechargingLeg(_typed(item["from"], "from", int, 0),
                                              _typed(item["to"], "to", int, 0)))
            elif item["type"] == "op":
                dests = tuple(_typed(v, "dests", int, 0) for v in item["dests"])
                elements.append(Operation(_typed(item["start"], "start", int, 0), dests,
                                          _typed(item["end"], "end", int, 0)))
            else:
                raise SchemaError(f"unknown element type {item['type']!r}")
        makespan = float(_typed(doc["makespan"], "makespan", (int, float), 0))
        return DroneTour(elements=tuple(elements), makespan=makespan)
    except (KeyError, TypeError, OverflowError) as exc:
        raise SchemaError(f"solution file malformed: {exc}") from exc
