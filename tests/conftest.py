import numpy as np
import pytest

from drpe.energy import ExtendedCostModel, ExtendedCosts
from drpe.generator import metrics_from_coords
from drpe.model import DroneTour, Instance, Operation, RechargingLeg, build_tour
from drpe.opsgraph import OperationCostTable

# Worked 5-destination example: three operations with makespans 4, 7 and 7
# plus one nonempty recharging leg of makespan 4, total 22. Coordinates are
# chosen so every quoted value is met exactly (drone Euclidean, rover
# Manhattan at unit speed).
FIG_DEST = np.array([[0.0, 2.0], [3.0, 0.0], [3.0, 2.0], [9.0, 0.0], [9.0, 3.0]])
FIG_RLS = np.array([[0.0, 0.0], [5.0, 2.0], [5.0, 10.0], [7.0, 0.0], [11.0, 3.0]])


def make_worked_instance() -> Instance:
    c_d, c_r = metrics_from_coords(FIG_DEST, FIG_RLS, rover_speed=1.0)
    return Instance(n_d=5, n_r=5, c_d=c_d, c_r=c_r, w0=0, wt=4, e_max=8.0,
                    dest_xy=FIG_DEST, rl_xy=FIG_RLS, name="worked_example",
                    meta={"rover_speed": 1.0, "drone_metric": "euclidean",
                          "rover_metric": "manhattan"})


def make_worked_tour(inst: Instance) -> DroneTour:
    return build_tour(inst, [
        RechargingLeg(0, 0),
        Operation(0, (0,), 0),        # out and back: makespan 4
        RechargingLeg(0, 0),
        Operation(0, (1, 2), 1),      # makespan 7
        RechargingLeg(1, 3),          # rover move: makespan 4
        Operation(3, (3, 4), 4),      # makespan 7
        RechargingLeg(4, 4),
    ])


def binding_extended_model(inst: Instance) -> ExtendedCostModel:
    """Extended model with fixed charges and hover whose zero-hover flight
    cap equals the instance's e_max, so the energy budget binds as often as
    under the base model."""
    costs = dict(c_tkof=3.0, c_land=5.0, c_swap=11.0, xi_tkof=40.0,
                 xi_land=7.0, r_fl=1.0, r_hov=0.65, residual=0.1)
    xi_max = ((inst.e_max + costs["xi_tkof"] + costs["xi_land"])
              / (1 - costs["residual"]))
    return ExtendedCostModel(inst, ExtendedCosts(xi_max=xi_max, **costs))


def two_step_price(model, flights, rover=None):
    """The two-step pricing that the cost models' ``price`` replaced, kept
    as its oracle: the feasibility filter sets infeasible flights to +inf,
    then the makespan map keeps +inf."""
    rover = model.c_r if rover is None else rover
    if isinstance(model, ExtendedCostModel):
        c = model.costs
        hover = np.maximum(0.0, rover - (c.c_tkof + flights))
        energy = c.xi_tkof + c.r_fl * flights + c.r_hov * hover + c.xi_land
        flights = flights.copy()
        flights[energy > model.usable + model._etol] = np.inf
        hover = np.maximum(0.0, rover - (c.c_tkof + flights))
        out = np.maximum(c.c_tkof + flights + hover + c.c_land, rover) + c.c_swap
        out[~np.isfinite(flights)] = np.inf
        return out
    flights = flights.copy()
    flights[flights > model.flight_cap] = np.inf
    return np.maximum(flights, rover)


class FlightPricing:
    """``model`` with a ``price`` that keeps the flight wherever
    ``model.price`` is finite, so a cost table built with it holds the
    minimal flights themselves. Tests that re-fly recovered orders compare
    with those bitwise: a makespan hides the flight wherever the rover is
    the slower one."""

    def __init__(self, model):
        self.model = model

    def __getattr__(self, name):
        return getattr(self.model, name)

    def price(self, flights, rover=None):
        return np.where(np.isfinite(self.model.price(flights, rover)), flights, np.inf)


def entries(table: OperationCostTable) -> tuple:
    """(set mask, w, w', makespan) of every entry of a cost table, read
    through its API in table order."""
    masks, size, row = table.sets()
    first, count = table.lookup(size, row)
    return (np.repeat(masks, count), *table.gather(size, first, count))


def dense_view(table: OperationCostTable) -> dict:
    """The oracle view of a cost table: bitmask -> (n_r, n_r) makespan
    matrix, +inf where the set holds no entry, ascending by bitmask.
    ``OperationCostTable.from_dense`` turns it back into a table."""
    masks = np.sort(table.sets()[0])
    mask, w, wp, c = entries(table)
    mats = np.full((masks.size, table.n_r, table.n_r), np.inf)
    mats[np.searchsorted(masks, mask), w, wp] = c
    return dict(zip(masks.tolist(), mats))


@pytest.fixture
def worked_instance():
    return make_worked_instance()


@pytest.fixture
def worked_tour(worked_instance):
    return make_worked_tour(worked_instance)
