import numpy as np
import pytest

import drpe.baselines
import drpe.exact
from drpe.cli import main
from drpe.exact import full_meta_sweep, solve_exact
from drpe.io import save_instance
from drpe.generator import random_instance
from drpe.model import BaseCostModel, SizeGuardError, validate_tour
from drpe.opsgraph import OperationCostTable
from drpe.search import vlsn
from drpe.baselines import initial_tsp_sequence, limop
from tests.oracles import brute_force_optimum


def test_single_destination_closed_form():
    inst = random_instance(5, n_d=1, n_r=3)
    best = np.inf
    for w in range(3):
        for wp in range(3):
            flight = inst.cd_rd[w, 0] + inst.cd_dr[0, wp]
            if flight > inst.e_max:
                continue
            best = min(best, inst.c_r[inst.w0, w]
                       + max(flight, inst.c_r[w, wp]) + inst.c_r[wp, inst.wt])
    assert solve_exact(inst).makespan == pytest.approx(best, abs=1e-9)


def test_matches_brute_force():
    for seed in range(10):
        inst = random_instance(seed, n_d=6, n_r=4)
        rep = solve_exact(inst)
        assert rep.makespan == pytest.approx(brute_force_optimum(inst).makespan, abs=1e-9)
        assert validate_tour(rep.tour, inst).passed


def test_matches_full_width_search():
    for seed in range(3):
        inst = random_instance(seed, n_d=6, n_r=3)
        x = initial_tsp_sequence(inst)
        assert vlsn(inst, x, 6).makespan == pytest.approx(
            solve_exact(inst).makespan, abs=1e-9)


def test_size_guard(monkeypatch):
    inst = random_instance(1, n_d=8, n_r=3)
    monkeypatch.setattr(drpe.exact, "ND_CAP", 7)
    with pytest.raises(SizeGuardError):
        solve_exact(inst)
    monkeypatch.undo()
    monkeypatch.setattr(drpe.exact, "STATE_BUDGET", 10)
    with pytest.raises(SizeGuardError):
        solve_exact(inst)


def test_limop_and_exact_share_the_meta_state_guard(monkeypatch, tmp_path):
    # 3 * 2^8 = 768 meta values: within ND_CAP, past the lowered budget;
    # both refuse before any table is built
    inst = random_instance(1, n_d=8, n_r=3)
    monkeypatch.setattr(drpe.exact, "STATE_BUDGET", 767)
    monkeypatch.setattr(drpe.baselines, "_capped_op_table", None)
    monkeypatch.setattr(drpe.exact, "build_ops_graph", None)
    with pytest.raises(SizeGuardError, match="meta state space"):
        solve_exact(inst)
    with pytest.raises(SizeGuardError, match="meta state space"):
        limop(inst, klim=2)
    path = tmp_path / "inst.json"
    save_instance(inst, path)
    assert main(["solve", "--algo", "limop", "-i", str(path)]) == 3
    monkeypatch.undo()
    assert limop(inst, klim=2).makespan >= solve_exact(inst).makespan - 1e-9


def test_meta_arc_budget():
    inst = random_instance(2, n_d=7, n_r=3)
    rep = solve_exact(inst)
    assert rep.meta_arcs <= inst.n_r ** 2 * 3 ** inst.n_d
    assert rep.meta_states == inst.n_r * 2 ** inst.n_d


def test_sweep_accepts_custom_tables():
    # a table with only single-destination sorties forces a swap per visit
    inst = random_instance(3, n_d=4, n_r=3)
    makespans = {}
    for v in range(4):
        mat = inst.cd_rd[:, v][:, None] + inst.cd_dr[v, :][None, :]
        makespans[1 << v] = BaseCostModel(inst).price(mat)
    table = OperationCostTable.from_dense(inst.n_d, inst.n_r, makespans.items())
    tour, _ = full_meta_sweep(inst, table)
    assert len(tour.operations()) == 4
    assert validate_tour(tour, inst).passed
    assert tour.makespan >= solve_exact(inst).makespan - 1e-9
