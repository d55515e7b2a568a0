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

    A cost model (this class or ``ExtendedCostModel``) writes its rule once,
    as ``cost(flights, rover=None) -> (makespan, feasible)`` over arrays of
    minimal flight times and of the rover time of each entry (default
    ``c_r``, for (start RL x end RL) matrices or stacks of them). ``price``
    is the makespan with +inf where infeasible: the splitter, stage 1 and
    limop's table call it once per value, and stage 2 and the exact sweep
    read the makespans they stored. Tour pricing (``tour_makespan``,
    ``build_tour``), ``validate_tour`` and ``pract`` call ``cost`` once for
    all of a tour's operations.

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

    def cost(self, flights: np.ndarray, rover: Optional[np.ndarray] = None) -> tuple:
        return (np.maximum(flights, self.c_r if rover is None else rover),
                flights <= self.flight_cap)

    def price(self, flights: np.ndarray, rover: Optional[np.ndarray] = None) -> np.ndarray:
        makespan, feasible = self.cost(flights, rover)
        # invert the verdict in place: a second mask cost large-ls 2.4 MB of peak RSS
        np.putmask(makespan, np.logical_not(feasible, out=feasible), np.inf)
        return makespan


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


def _check_structure(elements: Sequence[TourElement], inst: Instance) -> Optional[str]:
    if len(elements) == 0 or len(elements) % 2 == 0:
        return "tour must be an odd-length alternating sequence leg, op, ..., leg"
    for i, el in enumerate(elements):
        if not isinstance(el, RechargingLeg if i % 2 == 0 else Operation):
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


def _price_operations(ops: Sequence[Operation], inst: Instance, model=None) -> tuple:
    """(flights, makespans, feasible) arrays of ``ops`` under the model's
    rule (default base), priced in one call against their rover times."""
    flights = np.array([operation_flight_time(op, inst) for op in ops], dtype=float)
    rover = inst.c_r[[op.start_rl for op in ops], [op.end_rl for op in ops]]
    return (flights, *(model or BaseCostModel(inst)).cost(flights, rover))


def _summed_makespan(elements, inst: Instance, op_makespans: np.ndarray) -> float:
    """A well-formed tour's legs and operation makespans, summed left to right."""
    ops = iter(op_makespans.tolist())
    total = 0.0
    for el in elements:
        total = total + (inst.c_r[el.from_rl, el.to_rl] if isinstance(el, RechargingLeg)
                         else next(ops))
    return float(total)


def tour_makespan(tour: DroneTour, inst: Instance, model: Optional[object] = None) -> float:
    """Recompute a tour's makespan; raises on broken chaining."""
    err = _check_structure(tour.elements, inst)
    if err is not None:
        raise TourStructureError(err)
    _, makespans, _ = _price_operations(tour.operations(), inst, model)
    return _summed_makespan(tour.elements, inst, makespans)


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
    checks, messages = {}, []
    err = _check_structure(tour.elements, inst)
    checks["structure"] = err is None
    if err is not None:
        messages.append(err)

    ops = tour.operations()
    visited = [v for op in ops for v in op.destinations]
    # range checks come before any indexing: an index past the end would
    # raise or read another node's times, a negative one would wrap around
    rls = [rl for leg in tour.legs() for rl in (leg.from_rl, leg.to_rl)]
    rls += [rl for op in ops for rl in (op.start_rl, op.end_rl)]
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

    energy_ok, recomputed = in_range, None
    if in_range:
        flights, makespans, feasible = _price_operations(ops, inst, model)
        energy_ok = bool(feasible.all())
        for i in np.flatnonzero(~feasible).tolist():
            messages.append(
                f"operation {i} infeasible: flight {flights[i]:.6g} "
                f"({ops[i].start_rl}->{ops[i].end_rl})")
        if checks["structure"]:
            recomputed = _summed_makespan(tour.elements, inst, makespans)
    if energy_required:
        checks["energy"] = energy_ok
    else:
        messages.append(f"energy feasibility: {'ok' if energy_ok else 'violated'}")

    checks["makespan"] = recomputed is not None and abs(recomputed - tour.makespan) <= EPS
    if recomputed is not None and not checks["makespan"]:
        messages.append(
            f"cached makespan {tour.makespan:.9g} != recomputed {recomputed:.9g}")

    return ValidationReport(checks=checks, messages=messages,
                            recomputed_makespan=recomputed)


def build_tour(inst: Instance, parts: Iterable[TourElement],
               model: Optional[object] = None) -> DroneTour:
    """Assemble a DroneTour and cache its makespan."""
    elements = tuple(parts)
    tour = DroneTour(elements=elements, makespan=0.0)
    tour.makespan = tour_makespan(tour, inst, model)
    return tour
