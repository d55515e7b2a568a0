"""The cost models' one pricing method against the two-step pricing it
replaced (``two_step_price``), bitwise, +inf included."""

import numpy as np
import pytest

from drpe.energy import ExtendedCostModel
from drpe.generator import random_instance
from drpe.model import BaseCostModel
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


@pytest.mark.parametrize("make_model", MODELS)
def test_price_matches_the_scalar_pair(make_model):
    # op_feasible / op_makespan, which validation uses, agree with price
    inst, model = _model(make_model)
    rng = np.random.default_rng(5)
    flights = rng.uniform(0.0, 1.5 * model.flight_cap, (inst.n_r, inst.n_r))
    got = model.price(flights)
    for w in range(inst.n_r):
        for wp in range(inst.n_r):
            flight = float(flights[w, wp])
            if model.op_feasible(flight, w, wp):
                assert got[w, wp] == model.op_makespan(flight, w, wp)
            else:
                assert got[w, wp] == np.inf
