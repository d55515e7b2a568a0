"""Degenerate sizes and the paths only large instances exercise."""

import json

import pytest

from drpe.baselines import initial_tsp_sequence
from drpe.cli import main
from drpe.energy import ExtendedCosts, case_study_instance
from drpe.exact import solve_exact
from drpe.generator import random_instance
from drpe.io import save_instance
from drpe.metagraph import solve_meta
from drpe.model import validate_tour
from drpe.opsgraph import build_ops_graph
from drpe.oracle import is_bs_neighbor
from drpe.search import rts, vlsn, vlsn_ls


def test_single_destination_all_solvers_agree():
    inst = random_instance(21, n_d=1, n_r=3)
    exact = solve_exact(inst).makespan
    assert vlsn(inst, (0,), 1).makespan == pytest.approx(exact, abs=1e-9)
    assert rts(inst).makespan == pytest.approx(exact, abs=1e-9)
    assert vlsn_ls(inst, p=2).makespan == pytest.approx(exact, abs=1e-9)


def test_single_rl_everything_threads_through_the_depot():
    inst = random_instance(22, n_d=4, n_r=1)
    rep = solve_exact(inst)
    assert validate_tour(rep.tour, inst).passed
    assert all(leg.trivial for leg in rep.tour.legs())
    heur = vlsn_ls(inst, p=3)
    assert heur.makespan >= rep.makespan - 1e-9


def test_width_beyond_size_collapses_to_exact():
    inst = random_instance(24, n_d=5, n_r=3)
    x = initial_tsp_sequence(inst)
    assert vlsn(inst, x, 8).makespan == pytest.approx(solve_exact(inst).makespan, abs=1e-9)


def test_search_on_more_destinations_than_exact_accepts():
    # 20 destinations: beyond the exact solver's cap, so only the restricted
    # stage 1 and stage 2 run, checked against the split of the same order
    inst = random_instance(23, n_d=20, n_r=5)
    x = initial_tsp_sequence(inst)
    base = rts(inst, x0=x)
    tour, _ = solve_meta(build_ops_graph(inst, x, 2), inst)
    assert tour.makespan <= base.makespan + 1e-9
    assert validate_tour(tour, inst).passed
    assert is_bs_neighbor(x, tour.destination_order(), 2)


def test_cli_extended_model_solvers(tmp_path):
    inst = case_study_instance(2)
    path = tmp_path / "case.json"
    save_instance(inst, path)
    sol = tmp_path / "ls.json"
    assert main(["solve", "--algo", "vlsn-ls", "--p", "3", "--model", "extended",
                 "-i", str(path), "--out", str(sol)]) == 0
    assert main(["solve", "--algo", "pract", "--model", "extended",
                 "-i", str(path)]) == 0
    # pract without the extended model is a usage-level error
    assert main(["solve", "--algo", "pract", "-i", str(path)]) == 1


def test_cli_extended_cost_override(tmp_path):
    inst = case_study_instance(3)
    path = tmp_path / "case.json"
    save_instance(inst, path)
    costs = tmp_path / "costs.json"
    costs.write_text(json.dumps({"c_swap": 400.0, "residual": 0.2}), encoding="utf-8")
    assert main(["solve", "--algo", "rts", "--model", "extended",
                 "--extended", str(costs), "-i", str(path)]) == 0


def test_default_costs_roundtrip_through_json():
    doc = json.loads(json.dumps(ExtendedCosts().__dict__))
    assert ExtendedCosts(**doc) == ExtendedCosts()
