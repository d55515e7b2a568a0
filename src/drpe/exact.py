"""Exact solver: the same two-stage architecture with the neighborhood
restriction removed.

Stage 1 enumerates every subset of destinations (forward DP with the same
energy look-ahead pruning); stage 2 sweeps meta states (visited set, RL)
in order of subset size, combining one operation arc with one recharging
leg per step. Values live in dense arrays indexed by bitmask, processed
level-synchronously with numpy.
"""

from __future__ import annotations

import time
from functools import lru_cache

import numpy as np

from .model import (
    BaseCostModel,
    InfeasibleError,
    Instance,
    Operation,
    RechargingLeg,
    SizeGuardError,
    build_tour,
)
from .opsgraph import build_ops_graph, recover_operation_order
from .reports import SolveReport

ND_CAP = 18
STATE_BUDGET = 1 << 26  # max n_r * 2^n_d meta values


@lru_cache(maxsize=8)
def _masks_by_popcount(n_d: int):
    size = 1 << n_d
    masks = np.arange(size, dtype=np.int64)
    pc = np.zeros(size, dtype=np.int8)
    for v in range(n_d):
        pc += ((masks >> v) & 1).astype(np.int8)
    return [masks[pc == k] for k in range(n_d + 1)]


def full_meta_sweep(inst: Instance, op_flights: dict, model=None):
    """Optimal tour over all operation compositions in ``op_flights``
    (bitmask -> (n_r, n_r) minimal-flight matrix). Returns (tour, stats);
    each operation's visiting order is recovered by the unrestricted
    stage-1 DP over its set."""
    model = model or BaseCostModel(inst)
    n, n_r = inst.n_d, inst.n_r
    full = (1 << n) - 1
    c_r = inst.c_r
    masks_pc = _masks_by_popcount(n)
    t0 = time.perf_counter()

    items = []
    for mask in sorted(op_flights):
        weights = model.makespan_matrix(op_flights[mask])
        if np.isfinite(weights).any():
            items.append((mask, int(mask).bit_count(), weights))

    zeta = np.full((full + 1, n_r), np.inf)
    eps = np.full((full + 1, n_r), np.inf)
    zeta[0] = c_r[inst.w0]
    reach = np.zeros(full + 1, dtype=bool)
    reach[0] = True
    arcs = 0

    for k in range(n + 1):
        Ms = masks_pc[k]
        if k > 0:
            live = Ms[np.isfinite(eps[Ms]).any(axis=1)]
            if live.size:
                E = eps[live]
                zeta[live] = (E[:, :, None] + c_r[None, :, :]).min(axis=1)
                reach[live] = True
        if k == n:
            break
        src = Ms[reach[Ms]]
        if src.size == 0:
            continue
        for mask, pc, weights in items:
            if pc > n - k:
                continue
            Ts = src[(src & mask) == 0]
            if Ts.size == 0:
                continue
            Z = zeta[Ts]
            cand = (Z[:, :, None] + weights[None, :, :]).min(axis=1)
            tgt = Ts | mask
            eps[tgt] = np.minimum(eps[tgt], cand)
            arcs += Ts.size

    value = float(zeta[full, inst.wt])
    if not np.isfinite(value):
        raise InfeasibleError("no feasible tour exists")

    def close_to(a, b):
        return np.isfinite(a) and abs(a - b) <= 1e-9 + 1e-12 * abs(b)

    rev = []
    S, w = full, inst.wt
    while S:
        wp = next(i for i in range(n_r)
                  if close_to(eps[S, i] + c_r[i, w], zeta[S, w]))
        rev.append(RechargingLeg(wp, w))
        hit = None
        for mask, pc, weights in items:
            if mask & S != mask:
                continue
            T = S & ~mask
            for wpp in range(n_r):
                if close_to(zeta[T, wpp] + weights[wpp, wp], eps[S, wp]):
                    hit = (mask, T, wpp)
                    break
            if hit:
                break
        if hit is None:
            raise AssertionError("backtracking lost the optimal path")
        mask, T, wpp = hit
        order = recover_operation_order(inst, tuple(range(n)), mask, wpp, wp,
                                        None)
        rev.append(Operation(wpp, tuple(order), wp))
        S, w = T, wpp
    rev.append(RechargingLeg(inst.w0, w))

    tour = build_tour(inst, reversed(rev), model)
    if abs(tour.makespan - value) > 1e-6:
        raise AssertionError(
            f"reconstructed makespan {tour.makespan!r} != DP value {value!r}")

    stats = {"meta_states": (full + 1) * n_r, "meta_arcs": arcs,
             "meta_time": time.perf_counter() - t0}
    return tour, stats


def solve_exact(inst: Instance, model=None, nd_cap: int = ND_CAP,
                state_budget: int = STATE_BUDGET) -> SolveReport:
    """Provably optimal tour; refuses instances beyond the size guards."""
    if inst.n_d > nd_cap:
        raise SizeGuardError(
            f"exact solver capped at {nd_cap} destinations (instance has "
            f"{inst.n_d}); use the neighborhood search instead")
    if inst.n_r * (1 << inst.n_d) > state_budget:
        raise SizeGuardError(
            "meta state space exceeds the configured memory budget; "
            "use the neighborhood search instead")
    model = model or BaseCostModel(inst)
    t0 = time.perf_counter()
    identity = tuple(range(inst.n_d))
    table = build_ops_graph(inst, identity, None, model=model)
    tour, stats = full_meta_sweep(inst, table.entries, model)
    return SolveReport(
        algorithm="exact",
        tour=tour,
        makespan=tour.makespan,
        ops_states=table.stats.nonterminal_states,
        ops_arcs=table.stats.arcs,
        meta_states=stats["meta_states"],
        meta_arcs=stats["meta_arcs"],
        wall_time=time.perf_counter() - t0,
        extras={"terminal_entries": table.stats.terminal_entries},
    )
