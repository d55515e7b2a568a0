"""Exact solver: the same two-stage architecture with the neighborhood
restriction removed.

Stage 1 enumerates every subset of destinations (forward DP with the same
energy look-ahead pruning) into an ``OperationCostTable``, which the sweep
reads in place; it visits meta states (RL, visited bitmask) level by
subset size with ``solve_meta``'s recursion, its values held RL-major.
A level's arcs are its disjoint (reachable set, held set) pairs. The held
sets are batched by size and by the start and end RLs where they hold
entries. The level-k sources of a set are the k-subsets of its free
positions, deposited into those positions by one product with a 0/1 bit
matrix, so no pair is tested for disjointness. A block of a batch is
relaxed on the batch's RLs only, with one gather per start RL and one
scatter-min per end RL, and skips the (start, end) RL pairs where no set
of the batch holds an entry. An arc from an unreachable source adds
+inf, so it is not counted, and a block with no reachable source is
skipped. ``metagraph.walk_back`` reads the sets in mask order, so ties go
to the smallest bitmask.
"""

from __future__ import annotations

import time
from functools import lru_cache
from math import comb
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
    arrays indexed by RL and visited bitmask and the number of arcs whose
    source is reachable."""
    n, n_r, c_r = inst.n_d, inst.n_r, inst.c_r
    full = (1 << n) - 1
    levels = _masks_by_popcount(n)

    # batch the sets by size and by the start and end RLs where they hold
    # entries; a batch's W[i] holds set i's makespans there, +inf where it
    # has none, and free[i] the positions outside set i, ascending
    masks, size, read = _set_entries(table)
    signature = np.zeros((masks.size, 2 * n_r), dtype=bool)
    for sl in chunks(masks.size, n_r * n_r):
        owner, w, wp, _ = read(sl)
        signature[sl][owner, w] = signature[sl][owner, n_r + wp] = True
    uniq, inverse, counts = np.unique(signature, axis=0, return_inverse=True,
                                      return_counts=True)
    by_sig = np.split(np.argsort(inverse.ravel(), kind="stable"), np.cumsum(counts)[:-1])
    batches = []
    for sig, of_sig in zip(uniq, by_sig):
        rows, cols = np.flatnonzero(sig[:n_r]), np.flatnonzero(sig[n_r:])
        for ids in np.split(of_sig, np.flatnonzero(np.diff(size[of_sig])) + 1):
            W = np.full((ids.size, rows.size, cols.size), np.inf)
            for sl in chunks(ids.size, n_r * n_r):
                owner, w, wp, c = read(ids[sl])
                W[sl][owner, np.searchsorted(rows, w), np.searchsorted(cols, wp)] = c
            outside = ((masks[ids, None] >> np.arange(n)) & 1) == 0
            free = np.nonzero(outside)[1].astype(np.int8).reshape(ids.size, -1)
            # per end RL, the start RLs where some set of the batch holds one
            held = np.isfinite(W).any(axis=0)
            ends = [(j, c, np.flatnonzero(held[:, j]).tolist()) for j, c in enumerate(cols)]
            batches.append((masks[ids], free, rows, W, ends))

    zeta = np.full((n_r, full + 1), np.inf)
    eps = np.full((n_r, full + 1), np.inf)
    zeta[:, 0] = c_r[inst.w0]
    live = np.zeros(full + 1, dtype=bool)
    arcs = 0
    for k in range(n + 1):
        check_deadline(deadline)
        Ms = levels[k]
        if k > 0:
            reached = Ms[np.isfinite(eps[:, Ms]).any(axis=0)]
            arrive = eps[:, reached]
            leave = arrive[0] + c_r[0][:, None]
            for wp in range(1, n_r):
                np.minimum(leave, arrive[wp] + c_r[wp][:, None], out=leave)
            zeta[:, reached] = leave
        live[Ms] = np.isfinite(zeta[:, Ms]).any(axis=0)
        deposits = {}
        for gmasks, free, rows, W, ends in batches:
            m = free.shape[1]
            if k > m:
                continue
            # the k-subsets of m bits lead levels[k]; as 0/1 columns, a
            # product with the free positions' powers of two deposits them
            # (exact: sums of distinct powers of two below 2^n)
            if m not in deposits:
                sub = levels[k][:comb(m, k)]
                deposits[m] = ((sub >> np.arange(m)[:, None]) & 1).astype(float)
            per_arc = rows.size + 4  # S, U, best, step and a zeta row per start RL
            for part in chunks(deposits[m].shape[1], per_arc):
                bits = deposits[m][:, part]
                for sl in chunks(gmasks.size, bits.shape[1] * per_arc):
                    check_deadline(deadline)
                    S = (np.ldexp(1.0, free[sl]) @ bits).astype(np.int64)
                    sources = int(np.count_nonzero(live[S]))
                    if sources:
                        arcs += sources
                        _relax_block(zeta, eps, S, gmasks[sl], rows, W[sl], ends)
    return zeta, eps, arcs


def _relax_block(zeta, eps, S, gmasks, rows, W, ends) -> None:
    """Relax the arcs from the sources ``S[i]`` by the set ``gmasks[i]``.
    For each (j, c, terms) of ``ends``, ``eps[c]`` at ``S[i] | gmasks[i]``
    takes its min with ``zeta[rows[r], S[i]] + W[i, r, j]`` over the start
    RL positions r in ``terms``. ``minimum.at`` is exact, so neither the
    order of the arcs nor that of the RLs matters."""
    U = (S | gmasks[:, None]).ravel()
    Z = [np.take(zeta[r], S) for r in rows]
    best, step = np.empty(S.shape), np.empty(S.shape)
    for j, c, (first, *rest) in ends:
        np.add(Z[first], W[:, first, j, None], out=best)
        for r in rest:
            np.minimum(best, np.add(Z[r], W[:, r, j, None], out=step), out=best)
        np.minimum.at(eps[c], U, best.ravel())


def full_meta_sweep(inst: Instance, table: OperationCostTable, model=None, deadline=None):
    """Optimal tour over all compositions of the operations in ``table``
    (``model`` prices the recovered tour). Returns (tour, stats); each
    operation's visiting order is recovered by the unrestricted stage-1 DP
    over its set. Raises ``TimeLimitError`` at the first level or
    relaxation block that starts after ``deadline`` (a
    ``time.perf_counter()`` value)."""
    model = model or BaseCostModel(inst)
    full = (1 << inst.n_d) - 1
    t0 = time.perf_counter()
    zeta, eps, arcs = _sweep_values(inst, table, deadline)
    t1 = time.perf_counter()
    if not np.isfinite(zeta[inst.wt, full]):
        raise InfeasibleError("no feasible tour exists")
    masks, size, row = table.sets()
    first, count = table.lookup(size, row)

    def arcs_into(S, wp):
        # bitmask ascending, then start RL: a block is read in table order
        # (a run per size), then sorted stably by mask, keeping w's order
        inside = np.flatnonzero(masks & S == masks)
        inside = inside[np.argsort(masks[inside])]
        for sl in chunks(inside.size, inst.n_r * inst.n_r):
            sel = np.sort(inside[sl])
            owner, w, c = table.ending_at(size[sel], first[sel], count[sel], wp)
            hit = np.argsort(masks[sel[owner]], kind="stable")
            ops = masks[sel[owner[hit]]]
            yield S & ~ops, w[hit], c[hit], ops

    tour = walk_back(inst, zeta.T, eps.T, full, arcs_into,
                     lambda ops: recover_operation_order(inst, range(inst.n_d), ops, None),
                     model)
    return tour, {"meta_states": (full + 1) * inst.n_r, "meta_arcs": arcs,
                  "layers": {"sweep_s": t1 - t0,
                             "recovery_s": time.perf_counter() - t1}}


def solve_exact(inst: Instance, model=None, time_limit: Optional[float] = None) -> SolveReport:
    """Provably optimal tour; refuses instances past ``size_guard`` and
    raises ``TimeLimitError`` once ``time_limit`` seconds have passed,
    checked at each level of stage 1 and at each relaxation block of the
    sweep."""
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
        ops_states=table.stats.nonterminal_states,
        ops_arcs=table.stats.arcs,
        meta_states=stats["meta_states"],
        meta_arcs=stats["meta_arcs"],
        wall_time=time.perf_counter() - t0,
        extras={"terminal_entries": table.stats.terminal_entries,
                "layers": {"stage1_s": table.stats.elapsed, **stats["layers"]}},
    )
