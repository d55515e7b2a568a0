import math

import numpy as np
import pytest

from drpe.energy import (
    DroneEnergyParams,
    ExtendedCostModel,
    ExtendedCosts,
    battery_current,
    case_study_instance,
    pract,
)
from drpe.exact import solve_exact
from drpe.generator import random_instance
from drpe.model import Instance, Operation, operation_flight_time, validate_tour
from drpe.search import vlsn_ls
from tests.oracles import brute_force_optimum, degenerate_costs


PARAMS = DroneEnergyParams(k=2.5e-3, weight=55.0, drag_coeff=0.012)


def test_current_level_flight_closed_form():
    for v in (0.5, 3.0, 12.0):
        expect = PARAMS.k * (PARAMS.weight ** 2 + (PARAMS.drag_coeff * v * v) ** 2) ** 0.75
        got = battery_current(PARAMS, v, 0.0)
        assert got == pytest.approx(expect, rel=1e-12)


def test_current_hover_closed_form():
    expect = PARAMS.k * PARAMS.weight ** 1.5
    for gamma in (-1.0, 0.0, 0.7):
        assert battery_current(PARAMS, 0.0, gamma) == pytest.approx(expect, rel=1e-12)


def test_current_climb_exceeds_cruise():
    for v in (1.0, 5.0, 9.0):
        assert battery_current(PARAMS, v, math.pi / 2) > battery_current(PARAMS, v, 0.0)
        assert battery_current(PARAMS, v, math.pi / 2) > battery_current(PARAMS, v, -math.pi / 2)


def test_current_monotone_in_speed_for_climbs():
    speeds = np.linspace(0.0, 15.0, 40)
    vals = [battery_current(PARAMS, v, 0.3) for v in speeds]
    assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))


def test_current_radicand_never_negative():
    # the radicand is (Cd*V^2 + W*sin g)^2 + W^2*cos^2 g, a sum of squares,
    # so the defensive clamp stays unreachable for any physical parameters
    aggressive = DroneEnergyParams(k=1.0, weight=1.0, drag_coeff=5.0)
    for v in np.linspace(0.0, 25.0, 26):
        for g in np.linspace(-math.pi / 2, math.pi / 2, 21):
            cur = battery_current(aggressive, float(v), float(g))
            assert np.isfinite(cur) and cur >= 0.0


def test_extended_costs_defaults_match_field_system():
    c = ExtendedCosts()
    assert (c.c_tkof, c.c_land, c.c_swap) == (33.0, 67.0, 250.0)
    assert (c.xi_tkof, c.xi_land) == (581658.0, 15202.0)
    assert (c.r_fl, c.r_hov) == (15806.0, 15687.0)
    assert c.xi_max == 21.6e6
    assert c.usable == pytest.approx(0.9 * 21.6e6)


def test_extended_operation_cost_formulas():
    inst = case_study_instance(0)
    costs = ExtendedCosts()
    op = Operation(inst.w0, (0,), int(np.argmin(inst.cd_dr[0])))
    flight = operation_flight_time(op, inst)
    rover = inst.c_r[op.start_rl, op.end_rl]
    model = ExtendedCostModel(inst, costs)
    res_hover, energy, feasible, makespan = model._costs(flight, rover)
    hover = max(0.0, rover - (costs.c_tkof + flight))
    assert res_hover == pytest.approx(hover)
    assert makespan == pytest.approx(
        max(costs.c_tkof + flight + hover + costs.c_land, rover) + costs.c_swap)
    assert energy == pytest.approx(
        costs.xi_tkof + costs.r_fl * flight + costs.r_hov * hover + costs.xi_land)
    # 600 s of cruise burns 600 * 15806 mAs of flight charge
    assert 600.0 * costs.r_fl == pytest.approx(9.4836e6)
    assert feasible == (energy <= 0.9 * 21.6e6 + 1e-3)
    # the rule the solvers and validation read is the same makespan and verdict
    assert model.cost(flight, rover) == (makespan, feasible)


def test_no_hover_when_rover_arrives_first():
    c_d = np.array([[0.0, 5.0, 5.0], [5.0, 0.0, 2.0], [5.0, 2.0, 0.0]])
    c_r = np.zeros((2, 2))
    inst = Instance(n_d=1, n_r=2, c_d=c_d, c_r=c_r, w0=0, wt=1, e_max=100.0)
    flight = operation_flight_time(Operation(0, (0,), 1), inst)
    hover, _, _, _ = ExtendedCostModel(inst, ExtendedCosts())._costs(flight, inst.c_r[0, 1])
    assert hover == 0.0


def test_degeneration_reproduces_base_model():
    for seed in range(6):
        inst = random_instance(seed, n_d=6, n_r=3)
        base = solve_exact(inst).makespan
        model = ExtendedCostModel(inst, degenerate_costs(inst))
        ext = solve_exact(inst, model=model).makespan
        assert ext == pytest.approx(base, abs=1e-9)


def test_extended_model_rejects_inverted_rates():
    with pytest.raises(ValueError):
        ExtendedCosts(r_hov=20000.0)


def test_extended_exact_matches_extended_brute_force():
    # the DP carries minimal flight times only; with hover cheaper than
    # flying that stays optimal, so the full pipeline must agree with a
    # permutation brute force evaluated under the same model
    costs = ExtendedCosts(c_tkof=3.0, c_land=5.0, c_swap=11.0, xi_tkof=40.0,
                          xi_land=7.0, r_fl=1.0, r_hov=0.65, xi_max=700.0,
                          residual=0.1)
    for seed in range(5):
        inst = random_instance(seed + 40, n_d=5, n_r=3, side=100.0,
                               emax_factor=2.0)
        scale = costs.usable / (2.0 * inst.e_max)
        local = ExtendedCosts(c_tkof=3.0, c_land=5.0, c_swap=11.0,
                              xi_tkof=40.0 * scale, xi_land=7.0 * scale,
                              r_fl=scale, r_hov=0.65 * scale, xi_max=700.0,
                              residual=0.1)
        model = ExtendedCostModel(inst, local)
        a = solve_exact(inst, model=model).makespan
        b = brute_force_optimum(inst, model=model).makespan
        assert a == pytest.approx(b, abs=1e-9)


def test_pract_generous_budget_single_operation():
    inst = case_study_instance(1, side=600.0, n_d=5, n_r=4)
    rep = pract(inst)
    assert rep.extras["operations"] == 1
    assert rep.extras["energy_violations"] == 0


def test_pract_tight_budget_splits_every_visit():
    # destinations chained ~2.7 km apart (one charge carries one hop but
    # never two) with a swap RL 100 m past each: the range test fails after
    # every visit, one operation per destination
    from drpe.generator import metrics_from_coords
    dests = np.array([[1000.0, 0.0], [3700.0, 0.0], [6400.0, 0.0]])
    rls = np.array([[0.0, 0.0], [1100.0, 0.0], [3800.0, 0.0], [6500.0, 0.0]])
    c_d, c_r = metrics_from_coords(dests, rls, rover_speed=1.0)
    inst = Instance(n_d=3, n_r=4, c_d=c_d / 3.0, c_r=c_r / 4.0, w0=0, wt=3,
                    e_max=1192.0, dest_xy=dests, rl_xy=rls)
    rep = pract(inst)
    assert rep.extras["operations"] == inst.n_d
    assert rep.extras["energy_violations"] == 0


def test_pract_preserves_order_and_validates():
    for seed in range(3):
        inst = case_study_instance(seed)
        rep = pract(inst)
        model = ExtendedCostModel(inst, ExtendedCosts())
        report = validate_tour(rep.tour, inst, model, energy_required=False)
        assert report.passed
        from drpe.baselines import initial_tsp_sequence
        assert rep.tour.destination_order() == initial_tsp_sequence(inst)


def test_pract_dominated_by_neighborhood_search():
    costs = ExtendedCosts()
    for seed in range(3):
        inst = case_study_instance(seed)
        model = ExtendedCostModel(inst, costs)
        pr = pract(inst, costs)
        ls = vlsn_ls(inst, p=3, model=model)
        assert validate_tour(ls.tour, inst, model).passed
        assert pr.makespan >= ls.makespan - 1e-9
