"""Stage-2 dynamic program: compose operations and two-node recharging legs
into a minimum-makespan tour over the searched neighborhood.

Meta states record how many destinations have been visited (stage k), which
RL the drone currently sits at, and a *pattern*: the set of reference-order
positions pulled forward past k (S-) paired with the set pushed back (S+).
Patterns are stage-independent, so validity and pattern-to-pattern
transitions are precomputed once per p as a lookup table. The value of a
state is the best makespan including the recharging leg that ends at its RL;
an inner value per end-RL aggregates incoming operation arcs before the leg
is appended.
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
    elapsed: float = 0.0


def solve_meta(costs: OperationCostTable, inst: Instance, x: Sequence[int],
               p: int, model: Optional[object] = None):
    """Shortest path through the meta graph; returns (tour, stats).

    The returned tour's makespan is the optimum over all neighbor tours
    whose operations appear in the cost table.
    """
    x = tuple(x)
    model = model or BaseCostModel(inst)
    t0 = time.perf_counter()
    n_d, n_r = inst.n_d, inst.n_r
    c_r = inst.c_r
    lookup = get_transition_lookup(p)
    patterns = lookup.patterns
    n_pat = len(patterns)
    empty_id = 0

    valid_at = [[pat.valid_at_stage(k, n_d) for pat in patterns]
                for k in range(n_d + 1)]
    zeta = np.full((n_d + 1, n_pat, n_r), np.inf)
    eps = np.full((n_d + 1, n_pat, n_r), np.inf)
    ptr_zeta = np.full((n_d + 1, n_pat, n_r), -1, dtype=np.int64)
    ptr_eps = [[[None] * n_r for _ in range(n_pat)] for _ in range(n_d + 1)]

    zeta[0, empty_id] = c_r[inst.w0]
    h_max = min(costs.max_op_size, n_d)
    makespan_cache = {}
    stats = MetaStats(patterns_per_stage=[sum(valid_at[k]) for k in range(n_d + 1)])
    stats.states = int(sum(stats.patterns_per_stage) * n_r)

    for k in range(n_d + 1):
        if k > 0:
            for b_id in range(n_pat):
                if not valid_at[k][b_id]:
                    continue
                row = eps[k, b_id]
                if not np.isfinite(row).any():
                    continue
                cand = row[:, None] + c_r
                zeta[k, b_id] = cand.min(axis=0)
                ptr_zeta[k, b_id] = cand.argmin(axis=0)
        if k == n_d:
            break
        for a_id in range(n_pat):
            if not valid_at[k][a_id]:
                continue
            za = zeta[k, a_id]
            if not np.isfinite(za).any():
                continue
            for h in range(1, min(h_max, n_d - k) + 1):
                for b_id, ops in lookup.successors(a_id, h):
                    if not valid_at[k + h][b_id]:
                        continue
                    mask = ops << k >> (p - 1)
                    flights = costs.entries.get(mask)
                    if flights is None:
                        continue
                    weights = makespan_cache.get(mask)
                    if weights is None:
                        weights = model.makespan_matrix(flights)
                        makespan_cache[mask] = weights
                    cand = za[:, None] + weights
                    best = cand.min(axis=0)
                    stats.arcs += 1
                    improved = best < eps[k + h, b_id]
                    if not improved.any():
                        continue
                    eps[k + h, b_id][improved] = best[improved]
                    arg = cand.argmin(axis=0)
                    for wp in np.flatnonzero(improved):
                        ptr_eps[k + h][b_id][wp] = (k, a_id, int(arg[wp]), mask)

    value = float(zeta[n_d, empty_id, inst.wt])
    stats.elapsed = time.perf_counter() - t0
    if not np.isfinite(value):
        raise InfeasibleError("no feasible tour in this neighborhood")

    # reconstruct by walking the parents back from the terminal state
    rev = []
    k, pat, w = n_d, empty_id, inst.wt
    while k > 0:
        wp = int(ptr_zeta[k, pat, w])
        rev.append(RechargingLeg(wp, w))
        k_prev, a_id, wpp, mask = ptr_eps[k][pat][wp]
        order = recover_operation_order(inst, x, mask, wpp, wp, costs.p)
        rev.append(Operation(wpp, tuple(x[t] for t in order), wp))
        k, pat, w = k_prev, a_id, wpp
    rev.append(RechargingLeg(inst.w0, w))
    tour = build_tour(inst, reversed(rev), model)
    if abs(tour.makespan - value) > 1e-6:
        raise AssertionError(
            f"reconstructed makespan {tour.makespan!r} != DP value {value!r}")
    return tour, stats
