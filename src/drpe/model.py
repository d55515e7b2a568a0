"""Core domain types and arithmetic for the drone routing problem with
energy replenishment (DRP-E).

A single drone must visit every destination. It periodically meets a rover
(mobile replenishment station) at replenishment locations (RLs) for a battery
swap. A *drone tour* is an alternating sequence of two-node recharging legs
(drone rides on the rover) and operations (drone sorties RL -> destinations
-> RL). The makespan of a tour is the sum of leg travel times and operation
makespans, where an operation's makespan is the maximum of the drone flight
time and the rover travel time between its endpoint RLs.

Node indexing convention used throughout the package: destinations are
0..n_d-1, RLs are 0..n_r-1 in rover space and n_d..n_d+n_r-1 inside the
combined drone travel-time matrix ``c_d``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence, Union

import numpy as np

EPS = 1e-9  # comparison tolerance for travel times / makespans


class DrpeError(Exception):
    """Base error for this package."""


class InvalidOperationError(DrpeError):
    pass


class TourStructureError(DrpeError):
    pass


class InfeasibleError(DrpeError):
    pass


class SizeGuardError(DrpeError):
    pass


class SchemaError(DrpeError):
    pass


class TimeLimitError(DrpeError):
    pass


def check_deadline(deadline) -> None:
    """Raise ``TimeLimitError`` past a ``time.perf_counter()`` deadline
    (None: no limit)."""
    if deadline is not None and time.perf_counter() > deadline:
        raise TimeLimitError("time limit reached")


@dataclass
class Instance:
    """A DRP-E instance.

    c_d: drone flight times over the combined node set, shape
        (n_d+n_r, n_d+n_r); destinations first, then RLs.
    c_r: rover travel times over RLs, shape (n_r, n_r).
    w0 / wt: start / target depot RL indices (rover space).
    e_max: maximal flight time of one operation.
    """

    n_d: int
    n_r: int
    c_d: np.ndarray
    c_r: np.ndarray
    w0: int
    wt: int
    e_max: float
    dest_xy: Optional[np.ndarray] = None
    rl_xy: Optional[np.ndarray] = None
    name: str = ""
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.c_d = np.asarray(self.c_d, dtype=float)
        self.c_r = np.asarray(self.c_r, dtype=float)
        n = self.n_d + self.n_r
        if self.c_d.shape != (n, n):
            raise SchemaError(f"c_d must have shape {(n, n)}, got {self.c_d.shape}")
        if self.c_r.shape != (self.n_r, self.n_r):
            raise SchemaError(
                f"c_r must have shape {(self.n_r, self.n_r)}, got {self.c_r.shape}")
        if not (0 <= self.w0 < self.n_r and 0 <= self.wt < self.n_r):
            raise SchemaError("depot indices out of range")

    # -- convenience views ------------------------------------------------
    @property
    def cd_dd(self) -> np.ndarray:
        return self.c_d[: self.n_d, : self.n_d]

    @property
    def cd_dr(self) -> np.ndarray:
        return self.c_d[: self.n_d, self.n_d:]

    @property
    def cd_rd(self) -> np.ndarray:
        return self.c_d[self.n_d:, : self.n_d]

    def rl_node(self, w: int) -> int:
        return self.n_d + w

    def nearest_rl_time(self) -> np.ndarray:
        """Flight time from each destination to its closest RL."""
        return self.cd_dr.min(axis=1)


def _triangle_violation(m: np.ndarray) -> Optional[tuple]:
    n = m.shape[0]
    for k in range(n):
        via = m[:, k, None] + m[None, k, :]
        bad = np.argwhere(m > via + EPS)
        if bad.size:
            i, j = bad[0]
            return int(i), int(k), int(j)
    return None


def check_instance(inst: Instance) -> list[str]:
    """Verify instance invariants; returns a list of violation messages."""
    problems = []
    for label, m in (("c_d", inst.c_d), ("c_r", inst.c_r)):
        if np.isnan(m).any():
            problems.append(f"{label} has NaN entries")
        if np.any(m < -EPS):
            problems.append(f"{label} has negative entries")
        if np.any(np.abs(np.diag(m)) > EPS):
            problems.append(f"{label} has a nonzero diagonal")
        bad = _triangle_violation(m)
        if bad is not None:
            problems.append(
                f"{label} violates the triangle inequality at {bad}")
    if not 0 < inst.e_max < np.inf:
        problems.append("e_max must be positive and finite")
    if inst.n_d > 0:
        worst = float((2.0 * inst.nearest_rl_time()).max())
        if worst > inst.e_max + EPS:
            problems.append(
                "unreachable destination: cheapest return flight "
                f"{worst:.6g} exceeds e_max {inst.e_max:.6g}")
    return problems


@dataclass(frozen=True)
class Operation:
    """A drone sortie: start RL, ordered destination visits, end RL."""

    start_rl: int
    destinations: tuple
    end_rl: int

    def __post_init__(self):
        object.__setattr__(self, "destinations", tuple(self.destinations))
        if len(self.destinations) == 0:
            raise InvalidOperationError("operation must visit at least one destination")
        if len(set(self.destinations)) != len(self.destinations):
            raise InvalidOperationError("operation visits a destination twice")


@dataclass(frozen=True)
class RechargingLeg:
    """Two-node rover movement with the drone on board (may be trivial)."""

    from_rl: int
    to_rl: int

    @property
    def trivial(self) -> bool:
        return self.from_rl == self.to_rl


TourElement = Union[Operation, RechargingLeg]


@dataclass
class DroneTour:
    """Alternating sequence leg, op, leg, ..., op, leg with cached makespan."""

    elements: tuple
    makespan: float

    def __post_init__(self):
        self.elements = tuple(self.elements)

    def operations(self) -> list[Operation]:
        return [e for e in self.elements if isinstance(e, Operation)]

    def legs(self) -> list[RechargingLeg]:
        return [e for e in self.elements if isinstance(e, RechargingLeg)]

    def destination_order(self) -> tuple:
        order = []
        for op in self.operations():
            order.extend(op.destinations)
        return tuple(order)


class BaseCostModel:
    """Cost semantics of the basic problem: an operation is feasible when its
    flight time stays within e_max; its makespan is the slower of drone and
    rover.

    A cost model (this class or ``ExtendedCostModel``) has one pricing
    method and one scalar pair:

    - ``price(flights, rover=None)`` maps minimal flight times to operation
      makespans, +inf where the flight is infeasible. ``flights`` is a
      (start RL x end RL) matrix, a stack of them, or any array of the
      shape of ``rover``, the rover time of each entry (default ``c_r``).
      The splitter, stage 1 and limop's table call it once per value;
      stage 2 and the exact sweep read the makespans they stored.
    - ``op_feasible`` / ``op_makespan`` price one operation from its flight
      time and endpoint RLs, for tour validation and tour pricing
      (``tour_makespan``, ``build_tour``).

    ``max_flight`` is the nominal flight-time cap and ``flight_cap`` that cap
    plus the model's feasibility tolerance, in flight units: no flight above
    ``flight_cap`` is feasible, so the splitter and stage 1 drop any partial
    flight that cannot stay below it.
    """

    name = "base"

    def __init__(self, inst: Instance):
        self.inst = inst
        self.c_r = inst.c_r
        self.max_flight = float(inst.e_max)
        self.flight_cap = self.max_flight + EPS

    def op_makespan(self, flight: float, w: int, w_prime: int) -> float:
        return max(flight, self.c_r[w, w_prime])

    def op_feasible(self, flight: float, w: int, w_prime: int) -> bool:
        return flight <= self.flight_cap

    def price(self, flights: np.ndarray, rover: Optional[np.ndarray] = None) -> np.ndarray:
        out = np.maximum(flights, self.c_r if rover is None else rover)
        out[flights > self.flight_cap] = np.inf
        return out


def operation_flight_time(op: Operation, inst: Instance) -> float:
    """Total drone flight time of an operation (launch, chain, landing)."""
    if len(op.destinations) == 0:
        raise InvalidOperationError("empty destination list")
    c_d = inst.c_d
    cur = op.destinations[0]
    t = c_d[inst.rl_node(op.start_rl), cur]
    for nxt in op.destinations[1:]:
        t = t + c_d[cur, nxt]
        cur = nxt
    return float(t + c_d[cur, inst.rl_node(op.end_rl)])


def leg_makespan(leg: RechargingLeg, inst: Instance) -> float:
    return float(inst.c_r[leg.from_rl, leg.to_rl])


def _check_structure(elements: Sequence[TourElement], inst: Instance) -> Optional[str]:
    if len(elements) == 0 or len(elements) % 2 == 0:
        return "tour must be an odd-length alternating sequence leg, op, ..., leg"
    for i, el in enumerate(elements):
        want_leg = i % 2 == 0
        if want_leg != isinstance(el, RechargingLeg):
            return f"element {i} breaks the leg/operation alternation"
    if elements[0].from_rl != inst.w0:
        return "first leg does not start at the start depot"
    if elements[-1].to_rl != inst.wt:
        return "last leg does not end at the target depot"
    prev_end = None
    for i, el in enumerate(elements):
        start = el.from_rl if isinstance(el, RechargingLeg) else el.start_rl
        end = el.to_rl if isinstance(el, RechargingLeg) else el.end_rl
        if prev_end is not None and start != prev_end:
            return f"element {i} does not start where element {i-1} ended"
        prev_end = end
    return None


def tour_makespan(tour: DroneTour, inst: Instance, model: Optional[object] = None) -> float:
    """Recompute a tour's makespan; raises on broken chaining."""
    err = _check_structure(tour.elements, inst)
    if err is not None:
        raise TourStructureError(err)
    model = model or BaseCostModel(inst)
    total = 0.0
    for el in tour.elements:
        if isinstance(el, RechargingLeg):
            total = total + leg_makespan(el, inst)
        else:
            total = total + model.op_makespan(
                operation_flight_time(el, inst), el.start_rl, el.end_rl)
    return float(total)


@dataclass
class ValidationReport:
    checks: dict
    messages: list
    recomputed_makespan: Optional[float]

    @property
    def passed(self) -> bool:
        return all(self.checks.values())

    def __str__(self):
        lines = [f"{'PASS' if ok else 'FAIL'}  {name}" for name, ok in self.checks.items()]
        lines += [f"  note: {m}" for m in self.messages]
        if self.recomputed_makespan is not None:
            lines.append(f"recomputed makespan: {self.recomputed_makespan:.9g}")
        return "\n".join(lines)


def validate_tour(tour: DroneTour, inst: Instance,
                  model: Optional[object] = None,
                  energy_required: bool = True) -> ValidationReport:
    """Check every tour invariant; failures are reported, never raised.

    energy_required: when False, per-operation feasibility violations are
    reported as messages but do not fail the report (used to audit tours of
    heuristics that knowingly overrun the budget).
    """
    model = model or BaseCostModel(inst)
    checks = {}
    messages = []

    err = _check_structure(tour.elements, inst)
    checks["structure"] = err is None
    if err is not None:
        messages.append(err)

    ops = tour.operations()
    visited = [v for op in ops for v in op.destinations]
    # range checks come before any indexing: an index past the end would
    # raise or read another node's times, a negative one would wrap around
    rls = [rl for el in tour.elements
           for rl in ((el.from_rl, el.to_rl) if isinstance(el, RechargingLeg)
                      else (el.start_rl, el.end_rl))]
    for name, ids, n in (("rl_range", rls, inst.n_r),
                         ("destination_range", visited, inst.n_d)):
        bad = sorted({v for v in ids if not 0 <= v < n})
        checks[name] = not bad
        if bad:
            messages.append(f"{name}: indices {bad} outside 0..{n - 1}")
    in_range = checks["rl_range"] and checks["destination_range"]

    checks["coverage"] = set(visited) == set(range(inst.n_d))
    checks["uniqueness"] = len(visited) == len(set(visited))
    if not checks["coverage"]:
        missing = sorted(set(range(inst.n_d)) - set(visited))
        messages.append(f"unvisited destinations: {missing}")

    energy_ok = in_range
    for i, op in enumerate(ops if in_range else ()):
        flight = operation_flight_time(op, inst)
        if not model.op_feasible(flight, op.start_rl, op.end_rl):
            energy_ok = False
            messages.append(
                f"operation {i} infeasible: flight {flight:.6g} "
                f"({op.start_rl}->{op.end_rl})")
    if energy_required:
        checks["energy"] = energy_ok
    else:
        messages.append(f"energy feasibility: {'ok' if energy_ok else 'violated'}")

    recomputed = None
    if checks["structure"] and in_range:
        recomputed = tour_makespan(tour, inst, model)
        checks["makespan"] = abs(recomputed - tour.makespan) <= EPS
        if not checks["makespan"]:
            messages.append(
                f"cached makespan {tour.makespan:.9g} != recomputed {recomputed:.9g}")
    else:
        checks["makespan"] = False

    return ValidationReport(checks=checks, messages=messages,
                            recomputed_makespan=recomputed)


def build_tour(inst: Instance, parts: Iterable[TourElement],
               model: Optional[object] = None) -> DroneTour:
    """Assemble a DroneTour and cache its makespan."""
    elements = tuple(parts)
    tour = DroneTour(elements=elements, makespan=0.0)
    tour.makespan = tour_makespan(tour, inst, model)
    return tour
