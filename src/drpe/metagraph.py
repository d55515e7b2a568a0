"""Stage-2 dynamic program: compose operations and two-node recharging legs
into a minimum-makespan tour over the searched neighborhood.

Meta states record how many destinations have been visited (stage k), which
RL the drone currently sits at, and a *pattern*: the set of reference-order
positions pulled forward past k (S-) paired with the set pushed back (S+).
Patterns are stage-independent, so validity and pattern-to-pattern
transitions are precomputed once per p as a lookup table. Values live in
two (state row x RL) arrays, row k * n_pat + b: ``eps`` on arrival by an
operation, ``zeta`` after the recharging leg that follows. Each stage's
operation arcs are priced as one stack and relaxed at once by ``relax``
(min-plus one start RL at a time, exact scatter-min), in batches of at
most ``CHUNK_VALUES`` weights. No pointers are kept: ``walk_back`` takes
the first exact-equality match in the forward order (leg from the lowest
RL; arc from the lowest source stage, then pattern, then start RL). The
exact sweep shares ``relax`` and ``walk_back``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations
from typing import Optional, Sequence

import numpy as np

from .model import (
    BaseCostModel,
    InfeasibleError,
    Instance,
    Operation,
    RechargingLeg,
    build_tour,
)
from .opsgraph import OperationCostTable, recover_operation_order


@dataclass(frozen=True)
class MetaPattern:
    """Displacements relative to the stage: minus holds positive offsets of
    positions visited early, plus holds offsets in [2-p, 0] of positions
    postponed. Cardinalities match and the spread stays below p."""

    minus: tuple
    plus: tuple

    def valid_at_stage(self, k: int, n_d: int) -> bool:
        if self.minus and k + max(self.minus) > n_d:
            return False
        if self.plus and k + min(self.plus) < 1:
            return False
        return True

    def visited(self, k: int) -> int:
        """Bitmask of the 0-based reference positions visited by stage k:
        the first k, less the postponed ones, plus the early ones. A pattern
        stands for this set; k must be a stage where it is valid."""
        out = (1 << k) - 1
        for d in self.plus:
            out &= ~(1 << (k + d - 1))
        for d in self.minus:
            out |= 1 << (k + d - 1)
        return out


def enumerate_valid_patterns(p: int) -> list:
    """All valid patterns at a typical stage, deterministic order: by
    cardinality, then lexicographically by the postponed set, then by the
    pulled-forward set. There are exactly 2^(p-1)."""
    if p < 1:
        raise ValueError("p must be >= 1")
    patterns = [MetaPattern((), ())]
    for card in range(1, p // 2 + 1):
        for plus in combinations(range(2 - p, 1), card):
            for minus in combinations(range(1, p), card):
                if max(minus) - min(plus) < p:
                    patterns.append(MetaPattern(minus=minus, plus=plus))
    return patterns


def valid_pattern_transitions(a: MetaPattern, b: MetaPattern, h: int, p: int) -> bool:
    """Whether an arc from pattern a at some stage k to pattern b at stage
    k+h exists: every position visited at k is still visited at k+h. For
    h = 0 (the recharging-leg case) this means a == b."""
    return a.visited(p) & ~b.visited(p + h) == 0


def transition_destination_set(a: MetaPattern, b: MetaPattern, k: int, h: int) -> frozenset:
    """0-based reference positions flown in the operation of this arc: the
    positions visited at stage k+h but not at stage k."""
    ops = b.visited(k + h) & ~a.visited(k)
    return frozenset(t for t in range(ops.bit_length()) if ops >> t & 1)


@dataclass
class TransitionLookup:
    """Stage-free table of valid pattern transitions, filled one gap h at a
    time. ``bits[a]`` is pattern a's visited set at stage p-1, the first
    stage where every pattern is valid; at stage p-1+h pattern b has
    visited ``reach = (1 << h) - 1 | bits[b] << h``. The arc a -> b over h
    exists iff ``bits[a]`` lies inside ``reach``, and its operation is the
    bitmask ``reach & ~bits[a]``, which at source stage k flies positions
    ``ops << k >> (p - 1)``. ``successors(a, h)`` lists ``(b, ops)`` in
    ascending b."""

    p: int
    patterns: list = field(default_factory=list)
    bits: list = field(default_factory=list)
    _table: dict = field(default_factory=dict)

    def __post_init__(self):
        self.patterns = enumerate_valid_patterns(self.p)
        self.bits = [pat.visited(self.p - 1) for pat in self.patterns]

    def successors(self, a_id: int, h: int) -> list:
        rows = self._table.get(h)
        if rows is None:
            rows = []
            for a in self.bits:
                succ = []
                for b_id, b in enumerate(self.bits):
                    reach = (1 << h) - 1 | b << h
                    if a & ~reach == 0:
                        succ.append((b_id, reach & ~a))
                rows.append(succ)
            self._table[h] = rows
        return rows[a_id]


@lru_cache(maxsize=16)
def get_transition_lookup(p: int) -> TransitionLookup:
    return TransitionLookup(p=p)


def count_meta_states(n_d: int, p: int) -> list:
    """Number of valid patterns per stage 0..n_d (multiply by n_r for the
    meta-state count)."""
    patterns = enumerate_valid_patterns(p)
    return [sum(1 for pat in patterns if pat.valid_at_stage(k, n_d))
            for k in range(n_d + 1)]


def count_bs_sequences(n_d: int, p: int) -> int:
    """Number of neighbor destination orders, counted as single-step paths
    through the pattern graph (no enumeration)."""
    lookup = get_transition_lookup(p)
    patterns = lookup.patterns
    ways = [0] * len(patterns)
    ways[0] = 1
    for k in range(n_d):
        nxt = [0] * len(patterns)
        for ai, cnt in enumerate(ways):
            if cnt == 0 or not patterns[ai].valid_at_stage(k, n_d):
                continue
            for bi, _ in lookup.successors(ai, 1):
                if patterns[bi].valid_at_stage(k + 1, n_d):
                    nxt[bi] += cnt
        ways = nxt
    return ways[0]


@dataclass
class MetaStats:
    states: int = 0
    arcs: int = 0
    patterns_per_stage: list = field(default_factory=list)
    elapsed: float = 0.0  # forward pass
    recovery_elapsed: float = 0.0  # walk-back and operation-order recovery


# float64 values in one relaxation batch (arcs x start RLs x end RLs): 2 MB
# temporaries; at 2^20 a small-loose pass peaked about 16 MB higher in RSS
CHUNK_VALUES = 1 << 18


def chunks(n: int, per_item: int):
    """Slices of at most CHUNK_VALUES // per_item items covering range(n)."""
    step = max(1, CHUNK_VALUES // max(per_item, 1))
    return (slice(i, i + step) for i in range(0, n, step))


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


def walk_back(inst: Instance, x: tuple, p: Optional[int], zeta, eps, row: int,
              arcs_into, model):
    """The tour of ``zeta[row, inst.wt]``, walked back to row 0 by exact
    equality: the leg from the lowest RL that matches, then the first arc
    and start RL that match. ``arcs_into(row, wp)`` yields batches (source
    rows, bitmasks over positions of x, makespans into wp) in DP order."""
    value = float(zeta[row, inst.wt])
    rev, w = [], inst.wt
    while row:
        wp = int(np.flatnonzero(eps[row] + inst.c_r[:, w] == zeta[row, w])[0])
        rev.append(RechargingLeg(wp, w))
        for src, masks, weights in arcs_into(row, wp):
            hit = np.flatnonzero(zeta[src] + weights == eps[row, wp])
            if hit.size:
                break
        a, wpp = divmod(int(hit[0]), inst.n_r)
        order = recover_operation_order(inst, x, masks[a], wpp, wp, p)
        rev.append(Operation(wpp, tuple(x[t] for t in order), wp))
        row, w = int(src[a]), wpp
    rev.append(RechargingLeg(inst.w0, w))
    tour = build_tour(inst, reversed(rev), model)
    if abs(tour.makespan - value) > 1e-6:
        raise AssertionError(
            f"reconstructed makespan {tour.makespan!r} != DP value {value!r}")
    return tour


def _meta_values(costs: OperationCostTable, inst: Instance, p: int, model):
    """Forward pass of ``solve_meta``: (zeta, eps, stats, arcs_into), the
    value arrays with row k * n_pat + b for pattern b at stage k and the
    walk-back's arc source."""
    n_d, n_r, c_r = inst.n_d, inst.n_r, inst.c_r
    lookup = get_transition_lookup(p)
    n_pat = len(lookup.patterns)
    valid_at = [[pat.valid_at_stage(k, n_d) for pat in lookup.patterns]
                for k in range(n_d + 1)]
    zeta = np.full(((n_d + 1) * n_pat, n_r), np.inf)
    eps = np.full(((n_d + 1) * n_pat, n_r), np.inf)
    zeta[0] = c_r[inst.w0]
    h_max = min(costs.max_op_size, n_d)
    per_stage = [sum(valid) for valid in valid_at]
    stats = MetaStats(states=sum(per_stage) * n_r, patterns_per_stage=per_stage)

    def arcs_out(k, a_id, h):
        # (target row, operation) of the lookup's arcs from (k, a) over h
        valid, base = valid_at[k + h], (k + h) * n_pat
        return [(base + b_id, ops << k >> (p - 1))
                for b_id, ops in lookup.successors(a_id, h) if valid[b_id]]

    def arcs_into(row, wp):
        # source stage ascending, then source pattern ascending
        k1 = row // n_pat
        src, masks = zip(*[
            (k * n_pat + a_id, mask) for k in range(max(0, k1 - h_max), k1)
            for a_id in range(n_pat) if valid_at[k][a_id]
            for target, mask in arcs_out(k, a_id, k1 - k)
            if target == row and mask in costs.entries])
        flights = np.array([costs.entries[m] for m in masks])
        yield np.array(src), masks, model.makespan_matrix(flights)[:, :, wp]

    for k in range(n_d + 1):
        rows = k * n_pat + np.flatnonzero(valid_at[k])
        if k > 0:
            E = eps[rows]
            live = np.isfinite(E).any(axis=1)
            zeta[rows[live]] = (E[live][:, :, None] + c_r[None, :, :]).min(axis=1)
        arcs = [(row, target, costs.entries[mask])
                for row in rows[np.isfinite(zeta[rows]).any(axis=1)].tolist()
                for h in range(1, min(h_max, n_d - k) + 1)
                for target, mask in arcs_out(k, row - k * n_pat, h)
                if mask in costs.entries]
        stats.arcs += len(arcs)
        for sl in chunks(len(arcs), n_r * n_r):
            src, tgt, flights = (np.array(a) for a in zip(*arcs[sl]))
            W = model.makespan_matrix(flights)
            # relax on the start and end RLs where some arc is finite
            finite = np.isfinite(W).any(axis=0)
            starts = np.flatnonzero(finite.any(axis=1))
            ends = np.flatnonzero(finite.any(axis=0))
            relax(eps, zeta[src[:, None], starts], W[:, starts[:, None], ends],
                  tgt, ends)
    return zeta, eps, stats, arcs_into


def solve_meta(costs: OperationCostTable, inst: Instance, x: Sequence[int],
               p: int, model: Optional[object] = None):
    """Shortest path through the meta graph; returns (tour, stats).

    The returned tour's makespan is the optimum over all neighbor tours
    whose operations appear in the cost table. ``stats.elapsed`` times the
    forward pass and ``stats.recovery_elapsed`` the walk-back that
    recovers the tour and its operation orders.
    """
    model = model or BaseCostModel(inst)
    t0 = time.perf_counter()
    zeta, eps, stats, arcs_into = _meta_values(costs, inst, p, model)
    t1 = time.perf_counter()
    stats.elapsed = t1 - t0
    final = inst.n_d * len(get_transition_lookup(p).patterns)
    if not np.isfinite(zeta[final, inst.wt]):
        raise InfeasibleError("no feasible tour in this neighborhood")
    tour = walk_back(inst, tuple(x), costs.p, zeta, eps, final, arcs_into, model)
    stats.recovery_elapsed = time.perf_counter() - t1
    return tour, stats
