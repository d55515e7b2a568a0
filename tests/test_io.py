import json

import numpy as np
import pytest

from drpe.generator import generate, get_setting, random_instance
from drpe.io import (
    instance_from_dict,
    instance_to_dict,
    load_instance,
    load_solution,
    save_instance,
    save_solution,
)
from drpe.model import SchemaError, validate_tour
from drpe.oracle import split_optimal

from tests.conftest import make_worked_instance, make_worked_tour


def test_instance_roundtrip_from_coordinates(tmp_path):
    inst = generate(get_setting("Basis", "small"), seed=2)
    path = tmp_path / "inst.json"
    save_instance(inst, path)
    back = load_instance(path)
    assert back.n_d == inst.n_d and back.n_r == inst.n_r
    assert np.array_equal(back.c_d, inst.c_d)
    assert np.array_equal(back.c_r, inst.c_r)
    assert np.array_equal(back.dest_xy, inst.dest_xy)
    assert back.w0 == inst.w0 and back.wt == inst.wt and back.e_max == inst.e_max


def test_instance_roundtrip_explicit_matrices(tmp_path):
    inst = random_instance(1, n_d=4, n_r=3)
    doc = instance_to_dict(inst)
    doc["metrics"] = {"drone": "matrix", "rover": "matrix"}
    doc["c_d"] = inst.c_d.tolist()
    doc["c_r"] = inst.c_r.tolist()
    path = tmp_path / "m.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    back = load_instance(path)
    assert np.array_equal(back.c_d, inst.c_d)
    assert np.array_equal(back.c_r, inst.c_r)


def test_triangle_violation_rejected_without_closure(tmp_path):
    doc = {
        "version": 1, "name": "bad", "n_d": 1, "n_r": 2,
        "depot_start": 0, "depot_target": 1, "e_max": 30.0,
        "metrics": {"drone": "matrix", "rover": "matrix"},
        "c_d": [[0, 10, 1], [10, 0, 1], [1, 1, 0]],
        "c_r": [[0, 1], [1, 0]],
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(SchemaError, match="triangle"):
        load_instance(path)
    fixed = load_instance(path, metric_closure=True)
    assert fixed.c_d[0, 1] == pytest.approx(2.0)  # shortest path via node 2


def test_schema_diagnostics(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{\"n_d\": 3}", encoding="utf-8")
    with pytest.raises(SchemaError, match="missing field"):
        load_instance(path)
    path.write_text("not json", encoding="utf-8")
    with pytest.raises(SchemaError, match="JSON"):
        load_instance(path)


def test_worked_instance_as_matrix_file(tmp_path):
    inst = make_worked_instance()
    doc = instance_to_dict(inst)
    doc["metrics"] = {"drone": "matrix", "rover": "matrix"}
    doc["c_d"] = inst.c_d.tolist()
    doc["c_r"] = inst.c_r.tolist()
    path = tmp_path / "worked.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    back = load_instance(path)
    tour = make_worked_tour(back)
    report = validate_tour(tour, back)
    assert report.passed
    assert report.recomputed_makespan == pytest.approx(22.0, abs=1e-12)


def test_solution_roundtrip(tmp_path):
    inst = random_instance(2, n_d=5, n_r=3)
    tour = split_optimal(tuple(range(5)), inst)
    path = tmp_path / "sol.json"
    save_solution(tour, path)
    back = load_solution(path)
    assert back.makespan == tour.makespan
    assert back.elements == tour.elements
    assert validate_tour(back, inst).passed


def test_solution_schema_error(tmp_path):
    path = tmp_path / "bad.sol.json"
    path.write_text(json.dumps({"makespan": 10.0, "elements": [{"type": "warp"}]}),
                    encoding="utf-8")
    with pytest.raises(SchemaError):
        load_solution(path)
    path.write_text("not json", encoding="utf-8")
    with pytest.raises(SchemaError, match="bad.sol.json: not valid JSON"):
        load_solution(path)


def test_instance_from_dict_rejects_wrong_shapes():
    with pytest.raises(SchemaError):
        instance_from_dict({"n_d": 2, "n_r": 1, "depot_start": 0,
                            "depot_target": 0, "e_max": 1.0,
                            "destinations": [[0, 0]], "rls": [[1, 1]],
                            "metrics": {"drone": "euclidean", "rover": "manhattan"}})


def test_non_finite_e_max_and_nan_matrix_entries_are_rejected():
    inst = random_instance(1, n_d=4, n_r=3)
    doc = instance_to_dict(inst)
    for e_max in (float("nan"), float("inf")):
        with pytest.raises(SchemaError, match="e_max must be positive and finite"):
            instance_from_dict({**doc, "e_max": e_max})
    doc.update(metrics={"drone": "matrix", "rover": "matrix"},
               c_d=inst.c_d.tolist(), c_r=inst.c_r.tolist())
    assert np.array_equal(instance_from_dict(doc).c_d, inst.c_d)
    for key in ("c_d", "c_r"):
        bad = np.array(doc[key])
        bad[0, 1] = np.nan
        with pytest.raises(SchemaError, match=f"{key} has NaN entries"):
            instance_from_dict({**doc, key: bad.tolist()})
