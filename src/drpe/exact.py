"""Exact solver: the same two-stage architecture with the neighborhood
restriction removed.

Stage 1 enumerates every subset of destinations (forward DP with the same
energy look-ahead pruning); stage 2 sweeps meta states (visited bitmask,
RL) level by subset size with ``solve_meta``'s recursion. A level's arcs
are its disjoint (reachable set, table entry) pairs. Entries are grouped
by the start and end RLs where their makespan is finite, and each group is
relaxed on those RLs only by ``metagraph.relax``; ``metagraph.walk_back``
tries entries in mask order, so ties go to the smallest bitmask.
"""

from __future__ import annotations

import time
from functools import lru_cache
from typing import Optional

import numpy as np

from .model import (
    BaseCostModel,
    InfeasibleError,
    Instance,
    SizeGuardError,
    check_deadline,
)
from .metagraph import chunks, relax, walk_back
from .opsgraph import build_ops_graph
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


def _stack(op_makespans: dict, masks: np.ndarray) -> np.ndarray:
    return np.array([op_makespans[m] for m in masks.tolist()])


def _sweep_values(inst: Instance, op_makespans: dict, deadline=None):
    """Forward pass of ``full_meta_sweep``: (zeta, eps, arcs), the value
    arrays indexed by visited bitmask and RL and the number of arcs."""
    n, n_r, c_r = inst.n_d, inst.n_r, inst.c_r
    full = (1 << n) - 1

    # group entries by the start and end RLs with a finite makespan
    masks = np.array(sorted(op_makespans), dtype=np.int64)
    pcs = np.array([m.bit_count() for m in masks.tolist()], dtype=np.int64)
    finite = np.array([np.isfinite(op_makespans[m]) for m in masks.tolist()],
                      dtype=bool).reshape(-1, n_r, n_r)
    uniq, inverse = np.unique(np.hstack([finite.any(axis=2), finite.any(axis=1)]),
                              axis=0, return_inverse=True)
    groups = []
    for g, sig in enumerate(uniq):
        rows, cols = np.flatnonzero(sig[:n_r]), np.flatnonzero(sig[n_r:])
        ids = np.flatnonzero(inverse.ravel() == g)
        W = np.empty((ids.size, rows.size, cols.size))
        for sl in chunks(ids.size, n_r * n_r):
            W[sl] = _stack(op_makespans, masks[ids[sl]])[:, rows[:, None], cols]
        if rows.size:
            groups.append((masks[ids], pcs[ids], rows, cols, W))

    zeta = np.full((full + 1, n_r), np.inf)
    eps = np.full((full + 1, n_r), np.inf)
    zeta[0] = c_r[inst.w0]
    arcs = 0
    for k in range(n + 1):
        check_deadline(deadline)
        Ms = _masks_by_popcount(n)[k]
        if k > 0:
            live = Ms[np.isfinite(eps[Ms]).any(axis=1)]
            zeta[live] = (eps[live][:, :, None] + c_r[None, :, :]).min(axis=1)
        src = Ms[np.isfinite(zeta[Ms]).any(axis=1)]
        for gmasks, gpcs, rows, cols, W in groups:
            fits = np.flatnonzero(gpcs <= n - k)
            for esl in chunks(fits.size, src.size):
                ids = fits[esl]
                si, ei = np.nonzero((src[:, None] & gmasks[ids][None, :]) == 0)
                ei = ids[ei]
                arcs += si.size
                for sl in chunks(si.size, rows.size * cols.size):
                    S, e = src[si[sl]], ei[sl]
                    relax(eps, zeta[S[:, None], rows], W[e], S | gmasks[e], cols)
    return zeta, eps, arcs


def full_meta_sweep(inst: Instance, op_makespans: dict, model=None, deadline=None):
    """Optimal tour over all operation compositions in ``op_makespans``
    (bitmask -> (n_r, n_r) makespan matrix, as the cost model's ``price``
    gives it; ``model`` prices the recovered tour). Returns (tour, stats);
    each operation's visiting order is recovered by the unrestricted
    stage-1 DP over its set. Raises ``TimeLimitError`` at the first level
    that starts after ``deadline`` (a ``time.perf_counter()`` value)."""
    model = model or BaseCostModel(inst)
    full = (1 << inst.n_d) - 1
    t0 = time.perf_counter()
    zeta, eps, arcs = _sweep_values(inst, op_makespans, deadline)
    t1 = time.perf_counter()
    if not np.isfinite(zeta[full, inst.wt]):
        raise InfeasibleError("no feasible tour exists")
    masks = np.array(sorted(op_makespans), dtype=np.int64)

    def arcs_into(S, wp):
        inside = masks[masks & S == masks]
        for sl in chunks(inside.size, inst.n_r * inst.n_r):
            yield (S & ~inside[sl], inside[sl].tolist(),
                   _stack(op_makespans, inside[sl])[:, :, wp])

    tour = walk_back(inst, tuple(range(inst.n_d)), None, zeta, eps, full,
                     arcs_into, model)
    return tour, {"meta_states": (full + 1) * inst.n_r, "meta_arcs": arcs,
                  "layers": {"sweep_s": t1 - t0,
                             "walkback_s": time.perf_counter() - t1}}


def solve_exact(inst: Instance, model=None, nd_cap: int = ND_CAP,
                state_budget: int = STATE_BUDGET,
                time_limit: Optional[float] = None) -> SolveReport:
    """Provably optimal tour; refuses instances beyond the size guards and
    raises ``TimeLimitError`` once ``time_limit`` seconds have passed,
    checked at each level of stage 1 and of the sweep."""
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
    deadline = None if time_limit is None else t0 + time_limit
    table = build_ops_graph(inst, tuple(range(inst.n_d)), None, model=model,
                            deadline=deadline)
    tour, stats = full_meta_sweep(inst, table.entries, model, deadline)
    return SolveReport(
        algorithm="exact",
        tour=tour,
        makespan=tour.makespan,
        ops_states=table.stats.nonterminal_states,
        ops_arcs=table.stats.arcs,
        meta_states=stats["meta_states"],
        meta_arcs=stats["meta_arcs"],
        wall_time=time.perf_counter() - t0,
        extras={"terminal_entries": table.stats.terminal_entries,
                "layers": {"stage1_s": table.stats.elapsed, **stats["layers"]}},
    )
