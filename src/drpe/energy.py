"""Quadrotor energy physics and the extended operational cost model.

The current draw of a quadrotor at constant speed V and glide angle gamma
reduces to i_b = k * (W^2 + 2*W*Cd*sin(gamma)*V^2 + Cd^2*V^4)^(3/4) with a
lumped motor constant k, weight force W and lumped drag constant Cd.

The extended model prices battery swaps, takeoffs and landings in time and
charge, makes the drone hover (at hover current) whenever it reaches the
meeting RL before the rover, and keeps a residual fraction of the battery
untouchable. The solver stages stay single-valued because both the
operation makespan and its energy are nondecreasing in the flight time
(hover trades at the cheaper hover rate), so the minimum-flight-time
operation remains optimal under the extended model.
"""

from __future__ import annotations

import math
import time
import warnings
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .baselines import initial_tsp_sequence
from .generator import grid_coordinates, metrics_from_coords
from .model import (
    BaseCostModel,
    Instance,
    InfeasibleError,
    Operation,
    RechargingLeg,
    _price_operations,
    build_tour,
)
from .reports import SolveReport


@dataclass
class DroneEnergyParams:
    """Lumped quadrotor constants: k folds motor, propeller and battery
    voltage terms; weight is m*g; drag_coeff is rho*S*C_D/2."""

    k: float
    weight: float
    drag_coeff: float
    xi_max: float = 21.6e6      # battery capacity, mAs
    residual: float = 0.10      # untouchable fraction of xi_max

    def __post_init__(self):
        if min(self.k, self.weight, self.drag_coeff, self.xi_max) <= 0:
            raise ValueError("energy parameters must be positive")
        if not 0 <= self.residual < 1:
            raise ValueError("residual fraction must lie in [0, 1)")


def battery_current(params: DroneEnergyParams, speed: float, gamma: float) -> float:
    """Current (mA) drawn at constant speed and glide angle; gamma = pi/2
    climbs, 0 cruises, -pi/2 descends. Steep fast descents can push the
    radicand negative; it is clamped to zero with a warning."""
    if speed < 0:
        raise ValueError("speed must be nonnegative")
    w, cd = params.weight, params.drag_coeff
    radicand = w * w + 2.0 * w * cd * math.sin(gamma) * speed ** 2 + (cd * speed ** 2) ** 2
    if radicand < 0:
        warnings.warn("negative radicand in current model (steep fast descent); "
                      "clamping to zero current")
        return 0.0
    return params.k * radicand ** 0.75


@dataclass
class ExtendedCosts:
    """Operational constants of the field system (defaults as published for
    the reference battery-swap rover; xi_tkof >> xi_land is used verbatim)."""

    c_tkof: float = 33.0
    c_land: float = 67.0
    c_swap: float = 250.0
    xi_tkof: float = 581658.0
    xi_land: float = 15202.0
    r_fl: float = 15806.0
    r_hov: float = 15687.0
    xi_max: float = 21.6e6
    residual: float = 0.10

    def __post_init__(self):
        if not self.r_fl > 0:
            raise ValueError("flight current r_fl must be positive")
        if self.r_hov > self.r_fl:
            raise ValueError("hover current above flight current would break "
                             "the minimal-flight-time optimality of the solver")
        if not 0 <= self.residual < 1:
            raise ValueError("residual fraction must lie in [0, 1)")

    @property
    def usable(self) -> float:
        return (1.0 - self.residual) * self.xi_max

    @property
    def max_flight(self) -> float:
        """Zero-hover flight-time cap of the usable charge."""
        return (self.usable - self.xi_tkof - self.xi_land) / self.r_fl


class ExtendedCostModel(BaseCostModel):
    """Drop-in cost model for the solvers under the extended semantics.

    Intermediate pruning uses the optimistic zero-hover flight cap; the
    exact hover charge is applied at operation closure, where both endpoint
    RLs are known."""

    name = "extended"

    def __init__(self, inst: Instance, costs: Optional[ExtendedCosts] = None):
        self.inst = inst
        self.costs = c = costs or ExtendedCosts()
        self.c_r = inst.c_r
        self.usable = c.usable
        self.max_flight = c.max_flight
        if self.max_flight <= 0:
            raise ValueError("takeoff and landing alone exceed the usable charge")
        self._etol = 1e-9 * max(1.0, self.usable)
        # hover only adds energy, so the tolerance bounds every feasible flight
        self.flight_cap = self.max_flight + self._etol / c.r_fl

    def _costs(self, flights, rover):
        """(hover, energy, feasible, makespan) arrays of operations flying
        ``flights`` against rover times ``rover``; the hover enters both
        the energy and the makespan, and a NaN energy is infeasible."""
        c = self.costs
        hover = np.maximum(0.0, rover - (c.c_tkof + flights))
        energy = c.xi_tkof + c.r_fl * flights + c.r_hov * hover + c.xi_land
        makespan = np.maximum(c.c_tkof + flights + hover + c.c_land, rover) + c.c_swap
        return hover, energy, energy <= self.usable + self._etol, makespan

    def cost(self, flights: np.ndarray, rover: Optional[np.ndarray] = None) -> tuple:
        _, _, feasible, makespan = self._costs(flights, self.c_r if rover is None else rover)
        return makespan, feasible


def case_study_instance(seed: int, n_d: int = 14, n_r: int = 81,
                        side: float = 3800.0, drone_speed: float = 3.0,
                        rover_speed: float = 4.0,
                        costs: Optional[ExtendedCosts] = None,
                        max_tries: int = 60) -> Instance:
    """Synthetic search-mission instance in SI units (meters, seconds) with
    the published drone constants: destinations uniform in a square, RLs on
    a dense grid, opposite-corner depots.

    Draws are resampled until the greedy practitioner baseline completes
    within its own energy envelope (no hover overruns), so head-to-head
    comparisons against it are meaningful.
    """
    costs = costs or ExtendedCosts()
    for attempt in range(max_tries):
        rng = np.random.default_rng(seed * 1009 + attempt)
        dest_xy = rng.uniform(0.0, side, size=(n_d, 2))
        rl_xy = grid_coordinates(n_r, side)
        c_d, c_r = metrics_from_coords(dest_xy, rl_xy, rover_speed=1.0)
        inst = Instance(n_d=n_d, n_r=n_r, c_d=c_d / drone_speed,
                        c_r=c_r / rover_speed, w0=0, wt=n_r - 1, e_max=costs.max_flight,
                        dest_xy=dest_xy, rl_xy=rl_xy,
                        name=f"case_study_s{seed}",
                        meta={"seed": seed, "attempt": attempt,
                              "rover_speed": rover_speed,
                              "drone_speed": drone_speed,
                              "drone_metric": "matrix",
                              "rover_metric": "matrix"})
        try:
            report = pract(inst, costs)
        except InfeasibleError:
            continue
        if report.extras["energy_violations"] == 0:
            return inst
    raise InfeasibleError(
        f"no practitioner-compatible draw within {max_tries} tries for seed {seed}")


# ---------------------------------------------------------------------------
# Practitioner baseline
# ---------------------------------------------------------------------------

def pract(inst: Instance, costs: Optional[ExtendedCosts] = None,
          x: Optional[Sequence[int]] = None) -> SolveReport:
    """Greedy field-procedure baseline: fly the fixed destination order and
    put in a battery swap at the RL closest to the current destination
    whenever the next destination's closest RL would fall outside the
    remaining range (90% of charge, minus the pending flight bill and the
    landing charge). The visiting order is never changed; the rover simply
    chains the chosen RLs."""
    costs = costs or ExtendedCosts()
    model = ExtendedCostModel(inst, costs)
    t0 = time.perf_counter()
    x = tuple(initial_tsp_sequence(inst) if x is None else x)

    nearest = inst.nearest_rl_time()
    ops = []
    energy_level = costs.xi_max
    cur_rl = inst.w0
    run = []
    i = 0
    while i < len(x):
        nxt = x[i]
        if run:
            bill = costs.r_fl * inst.cd_dd[run[-1], nxt]
        else:
            bill = costs.xi_tkof + costs.r_fl * inst.cd_rd[cur_rl, nxt]
        range_left = (0.90 * energy_level - bill - costs.xi_land) / costs.r_fl
        if nearest[nxt] <= range_left:
            run.append(nxt)
            energy_level -= bill
            i += 1
            continue
        if not run:
            raise InfeasibleError(
                f"destination {nxt} unreachable from RL {cur_rl} on a full "
                "battery under the greedy rule")
        swap_rl = int(np.argmin(inst.cd_dr[run[-1]]))
        ops.append(Operation(cur_rl, tuple(run), swap_rl))
        cur_rl = swap_rl
        run = []
        energy_level = costs.xi_max
    # the loop always ends mid-run: swaps happen before a visit, never after
    ops.append(Operation(cur_rl, tuple(run), inst.wt))

    elements = [RechargingLeg(inst.w0, inst.w0)]
    for op in ops:
        elements.append(op)
        elements.append(RechargingLeg(op.end_rl, op.end_rl))
    tour = build_tour(inst, elements, model)
    _, _, feasible = _price_operations(ops, inst, model)
    return SolveReport(algorithm="pract", tour=tour,
                       wall_time=time.perf_counter() - t0,
                       extras={"operations": len(ops),
                               "energy_violations": int(np.count_nonzero(~feasible)),
                               "order_preserved": True})
