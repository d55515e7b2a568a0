"""The cost models' one rule: ``price`` against the two-step pricing it
replaced (``two_step_price``), bitwise, +inf included, and tour pricing and
validation against ``price`` and ``cost``."""

import dataclasses

import numpy as np
import pytest

from drpe.energy import ExtendedCostModel, ExtendedCosts, case_study_instance, pract
from drpe.generator import random_instance
from drpe.model import BaseCostModel, operation_flight_time, tour_makespan, validate_tour
from drpe.oracle import split_optimal
from tests.conftest import binding_extended_model, two_step_price
from tests.oracles import degenerate_costs


def _degenerate_model(inst):
    return ExtendedCostModel(inst, degenerate_costs(inst))


MODELS = [BaseCostModel, binding_extended_model, _degenerate_model]


def _model(make_model, seed=3, n_d=5, n_r=4):
    inst = random_instance(seed, n_d=n_d, n_r=n_r)
    return inst, make_model(inst)


@pytest.mark.parametrize("make_model", MODELS)
def test_price_of_random_stacks_matches_two_step_pricing(make_model):
    inst, model = _model(make_model)
    rng = np.random.default_rng(11)
    for size in (0, 1, 7):
        flights = rng.uniform(0.0, 2.0 * model.flight_cap, (size, inst.n_r, inst.n_r))
        flights[rng.random(flights.shape) < 0.2] = np.inf
        got = model.price(flights)
        assert np.array_equal(got, two_step_price(model, flights))
        # the default rover operand is c_r
        assert np.array_equal(got, model.price(flights, np.broadcast_to(inst.c_r, flights.shape)))
    # rows of (block, start RL w) priced against every end RL, as the
    # splitter does, with the c_r rows of their start RLs
    w = rng.integers(inst.n_r, size=50)
    flights = rng.uniform(0.0, 2.0 * model.flight_cap, (50, inst.n_r))
    flights[rng.random(flights.shape) < 0.2] = np.inf
    assert np.array_equal(model.price(flights, inst.c_r[w]),
                          two_step_price(model, flights, inst.c_r[w]))


@pytest.mark.parametrize("make_model", MODELS)
def test_price_at_the_flight_cap_matches_two_step_pricing(make_model):
    inst, model = _model(make_model)
    cap = model.flight_cap
    steps = np.array([np.nextafter(cap, 0.0), cap, np.nextafter(cap, np.inf)])
    flights = np.broadcast_to(steps[:, None, None], (3, inst.n_r, inst.n_r)).copy()
    got = model.price(flights)
    assert np.array_equal(got, two_step_price(model, flights))
    rover = np.zeros((3, 1))
    assert np.array_equal(model.price(steps[:, None], rover),
                          two_step_price(model, steps[:, None], rover))


@pytest.mark.parametrize("make_model", [BaseCostModel, _degenerate_model])
def test_flight_cap_is_the_last_feasible_flight(make_model):
    # with no hover (a still rover) both models keep the cap itself and
    # drop the next float above it
    _, model = _model(make_model)
    cap = model.flight_cap
    steps = np.array([[np.nextafter(cap, 0.0)], [cap], [np.nextafter(cap, np.inf)]])
    got = model.price(steps, np.zeros_like(steps)).ravel()
    assert np.isfinite(got[:2]).all() and got[2] == np.inf


def _overflying_tours(inst):
    """Tours split from three orders at 1.2 and 1.5 times ``inst``'s e_max,
    so some of their operations overfly ``inst``'s budget."""
    for factor in (1.2, 1.5):
        loose = dataclasses.replace(inst, e_max=factor * inst.e_max)
        for seed in range(3):
            x = np.random.default_rng(seed).permutation(inst.n_d).tolist()
            yield split_optimal(tuple(x), loose)


def _check_tour_pricing(tour, inst, model):
    """validate_tour flags exactly the operations that ``price`` puts at
    +inf, and tour_makespan is the legs and the rule's operation makespans
    summed left to right; returns the number flagged."""
    ops = tour.operations()
    flights = np.array([operation_flight_time(op, inst) for op in ops])
    rover = np.array([inst.c_r[op.start_rl, op.end_rl] for op in ops])
    infinite = np.flatnonzero(model.price(flights, rover) == np.inf).tolist()
    report = validate_tour(tour, inst, model)
    flagged = [int(m.split()[1]) for m in report.messages if m.startswith("operation ")]
    assert flagged == infinite
    assert report.checks["energy"] == (not infinite)
    makespans, _ = model.cost(flights, rover)
    total = 0.0
    for k, leg in enumerate(tour.legs()):
        total = total + inst.c_r[leg.from_rl, leg.to_rl]
        if k < len(ops):
            total = total + makespans[k]
    assert tour_makespan(tour, inst, model) == total == report.recomputed_makespan
    return len(flagged)


@pytest.mark.parametrize("make_model", MODELS)
def test_tour_pricing_and_validation_read_the_rule(make_model):
    inst, model = _model(make_model, n_d=8)
    tours = list(_overflying_tours(inst))
    flagged = sum(_check_tour_pricing(tour, inst, model) for tour in tours)
    assert 0 < flagged < sum(len(tour.operations()) for tour in tours)


@pytest.mark.parametrize("seed", [0, 1])
def test_pract_overruns_are_the_infeasible_operations(seed):
    # at residual 0.3 the practitioner's tours overrun the smaller usable
    # charge on several operations
    inst, costs = case_study_instance(seed), ExtendedCosts(residual=0.3)
    report = pract(inst, costs)
    flagged = _check_tour_pricing(report.tour, inst, ExtendedCostModel(inst, costs))
    assert flagged == report.extras["energy_violations"] >= 3
