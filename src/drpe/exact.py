"""Exact solver: the same two-stage architecture with the neighborhood
restriction removed.

Stage 1 enumerates every subset of destinations (forward DP with the same
energy look-ahead pruning) into an ``OperationCostTable``, which the sweep
reads in place; it visits meta states (visited bitmask, RL) level by
subset size with ``solve_meta``'s recursion. A level's arcs are its
disjoint (reachable set, held set) pairs. Sets are grouped by the start
and end RLs where they hold entries, and each group is relaxed on those
RLs only by ``relax``; ``metagraph.walk_back`` reads the sets in mask
order, so ties go to the smallest bitmask.
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
from .metagraph import walk_back
from .opsgraph import OperationCostTable, build_ops_graph, chunks, recover_operation_order
from .reports import SolveReport

ND_CAP = 18
STATE_BUDGET = 1 << 26  # max n_r * 2^n_d meta values


def size_guard(inst: Instance, solver: str) -> None:
    """Raise ``SizeGuardError`` past ND_CAP destinations or STATE_BUDGET meta values."""
    if inst.n_d > ND_CAP:
        raise SizeGuardError(f"{solver} capped at {ND_CAP} destinations (instance has "
                             f"{inst.n_d}); use the neighborhood search instead")
    if inst.n_r * (1 << inst.n_d) > STATE_BUDGET:
        raise SizeGuardError(f"{solver}: meta state space exceeds the configured memory "
                             "budget; use the neighborhood search instead")


@lru_cache(maxsize=8)
def _masks_by_popcount(n_d: int):
    size = 1 << n_d
    masks = np.arange(size, dtype=np.int64)
    pc = np.zeros(size, dtype=np.int8)
    for v in range(n_d):
        pc += ((masks >> v) & 1).astype(np.int8)
    return [masks[pc == k] for k in range(n_d + 1)]


def relax(eps, start, weights, targets, cols) -> None:
    """Set ``eps[targets[a], cols]`` to its min with ``min_i start[a, i] +
    weights[a, i]``, one start RL i at a time. ``minimum.at`` is exact, so
    the order of the arcs does not matter; eps must be C-contiguous."""
    best = start[:, 0, None] + weights[:, 0]
    step = np.empty_like(best)
    for i in range(1, start.shape[1]):
        np.minimum(best, np.add(start[:, i, None], weights[:, i], out=step), out=best)
    flat = targets[:, None] * eps.shape[1] + cols
    np.minimum.at(eps.reshape(-1), flat.ravel(), best.ravel())


def _set_entries(table: OperationCostTable):
    """(masks, sizes, read) of the table's sets, by size, then row;
    ``read(sel)`` gives (owner, w, w', makespan) of the entries of the sets
    ``sel`` (a slice or ascending indices), set by set, owner indexing sel."""
    masks, size, row = table.sets()
    first, count = table.lookup(size, row)

    def read(sel):
        n = count[sel]
        return (np.repeat(np.arange(n.size), n), *table.gather(size[sel], first[sel], n))
    return masks, size, read


def _sweep_values(inst: Instance, table: OperationCostTable, deadline=None):
    """Forward pass of ``full_meta_sweep``: (zeta, eps, arcs), the value
    arrays indexed by visited bitmask and RL and the number of arcs."""
    n, n_r, c_r = inst.n_d, inst.n_r, inst.c_r
    full = (1 << n) - 1

    # group the sets by the start and end RLs where they hold entries; a
    # group's W[i] holds set i's makespans there, +inf where it has none
    masks, size, read = _set_entries(table)
    signature = np.zeros((masks.size, 2 * n_r), dtype=bool)
    for sl in chunks(masks.size, n_r * n_r):
        owner, w, wp, _ = read(sl)
        signature[sl][owner, w] = signature[sl][owner, n_r + wp] = True
    uniq, inverse, counts = np.unique(signature, axis=0, return_inverse=True,
                                      return_counts=True)
    by_sig = np.split(np.argsort(inverse.ravel(), kind="stable"), np.cumsum(counts)[:-1])
    groups = []
    for sig, ids in zip(uniq, by_sig):
        rows, cols = np.flatnonzero(sig[:n_r]), np.flatnonzero(sig[n_r:])
        W = np.full((ids.size, rows.size, cols.size), np.inf)
        for sl in chunks(ids.size, n_r * n_r):
            owner, w, wp, c = read(ids[sl])
            W[sl][owner, np.searchsorted(rows, w), np.searchsorted(cols, wp)] = c
        groups.append((masks[ids], size[ids], rows, cols, W))

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
        for gmasks, gsize, rows, cols, W in groups:
            fits = np.flatnonzero(gsize <= n - k)
            for esl in chunks(fits.size, src.size):
                ids = fits[esl]
                si, ei = np.nonzero((src[:, None] & gmasks[ids][None, :]) == 0)
                ei = ids[ei]
                arcs += si.size
                for sl in chunks(si.size, rows.size * cols.size):
                    S, e = src[si[sl]], ei[sl]
                    relax(eps, zeta[S[:, None], rows], W[e], S | gmasks[e], cols)
    return zeta, eps, arcs


def full_meta_sweep(inst: Instance, table: OperationCostTable, model=None, deadline=None):
    """Optimal tour over all compositions of the operations in ``table``
    (``model`` prices the recovered tour). Returns (tour, stats); each
    operation's visiting order is recovered by the unrestricted stage-1 DP
    over its set. Raises ``TimeLimitError`` at the first level that starts
    after ``deadline`` (a ``time.perf_counter()`` value)."""
    model = model or BaseCostModel(inst)
    full = (1 << inst.n_d) - 1
    t0 = time.perf_counter()
    zeta, eps, arcs = _sweep_values(inst, table, deadline)
    t1 = time.perf_counter()
    if not np.isfinite(zeta[full, inst.wt]):
        raise InfeasibleError("no feasible tour exists")
    masks, _, read = _set_entries(table)

    def arcs_into(S, wp):
        # bitmask ascending, then start RL: a block is read in table order
        # (a run per size), then sorted stably by mask, keeping w's order
        inside = np.flatnonzero(masks & S == masks)
        inside = inside[np.argsort(masks[inside])]
        for sl in chunks(inside.size, inst.n_r * inst.n_r):
            sel = np.sort(inside[sl])
            owner, w, end, c = read(sel)
            hit = np.flatnonzero(end == wp)
            hit = hit[np.argsort(masks[sel[owner[hit]]], kind="stable")]
            ops = masks[sel[owner[hit]]]
            yield S & ~ops, w[hit], c[hit], ops

    tour = walk_back(inst, zeta, eps, full, arcs_into,
                     lambda mask, w, wp: recover_operation_order(
                         inst, tuple(range(inst.n_d)), int(mask), w, wp, None), model)
    return tour, {"meta_states": (full + 1) * inst.n_r, "meta_arcs": arcs,
                  "layers": {"sweep_s": t1 - t0,
                             "walkback_s": time.perf_counter() - t1}}


def solve_exact(inst: Instance, model=None, time_limit: Optional[float] = None) -> SolveReport:
    """Provably optimal tour; refuses instances past ``size_guard`` and
    raises ``TimeLimitError`` once ``time_limit`` seconds have passed,
    checked at each level of stage 1 and of the sweep."""
    size_guard(inst, "exact solver")
    model = model or BaseCostModel(inst)
    t0 = time.perf_counter()
    deadline = None if time_limit is None else t0 + time_limit
    table = build_ops_graph(inst, tuple(range(inst.n_d)), None, model=model,
                            deadline=deadline)
    tour, stats = full_meta_sweep(inst, table, model, deadline)
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
