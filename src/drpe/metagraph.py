"""Stage-2 dynamic program: compose operations and two-node recharging legs
into a minimum-makespan tour over the searched neighborhood.

Meta states record how many destinations have been visited (stage k), which
RL the drone currently sits at, and a *pattern*: the set of reference-order
positions pulled forward past k (S-) paired with the set pushed back (S+).
Patterns are stage-independent, so validity and pattern-to-pattern
transitions are precomputed once per p as a lookup table, held as arrays
per gap. An arc's operation has a stage-1 set key linear in the stage, so
``table_arcs`` finds every arc the cost table holds with one sorted
search per gap before the forward pass. Values live in two (state row
x RL) arrays, row k * n_pat + b: ``eps`` on arrival by an operation,
``zeta`` after the recharging leg that follows. Each stage's operation
arcs read their makespans from the table as one stack and are relaxed at
once by ``relax`` (min-plus one start RL at a time, exact scatter-min),
in batches of at most ``CHUNK_VALUES`` weights. No pointers are kept:
``walk_back`` takes the first exact-equality match in the forward order
(leg from the lowest RL; arc from the lowest source stage, then pattern,
then start RL). The exact sweep shares ``relax`` and ``walk_back``.
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
    SizeGuardError,
    build_tour,
)
from .opsgraph import OperationCostTable, _ctz, _top_bit, recover_operation_order


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
    ascending b; ``arcs(h, q)`` holds the same arcs as arrays, keyed for
    a stage-1 table of width q."""

    p: int
    patterns: list = field(default_factory=list)
    bits: list = field(default_factory=list)
    _gaps: dict = field(default_factory=dict)
    _arcs: dict = field(default_factory=dict)

    def __post_init__(self):
        self.patterns = enumerate_valid_patterns(self.p)
        self.bits = [pat.visited(self.p - 1) for pat in self.patterns]
        self._early = np.array([max(pat.minus, default=0) for pat in self.patterns])
        self._late = np.array([min(pat.plus, default=1) for pat in self.patterns])

    def valid_at(self, n_d: int) -> np.ndarray:
        """(n_d + 1, patterns) bool: pattern b is valid at stage k."""
        k = np.arange(n_d + 1)[:, None]
        return (k + self._early <= n_d) & (k + self._late >= 1)

    def _cut(self, h: int, q: int) -> int:
        return min(h, 2 * self.p - 1 + q)

    def _gap(self, g: int):
        """(a, b, ops) of the arcs over a gap of g, ascending in a then b."""
        got = self._gaps.get(g)
        if got is None:
            if g + 2 * self.p - 2 > 62:
                raise SizeGuardError(f"pattern width p={self.p} is too wide for stage 2")
            bits = np.array(self.bits, dtype=np.int64)
            reach = ((1 << g) - 1) | (bits << g)
            a, b = np.nonzero(bits[:, None] & ~reach[None, :] == 0)
            got = self._gaps[g] = (a, b, reach[b] & ~bits[a])
        return got

    def successors(self, a_id: int, h: int) -> list:
        """(b, ops) of the arcs from a over h; also fills ``arcs(h)``."""
        self.arcs(h)
        a, b, _ = self._gap(self._cut(h, self.p))
        lo, hi = np.searchsorted(a, [a_id, a_id + 1])
        reach_low, bits_a = (1 << h) - 1, self.bits[a_id]
        return [(b_id, (reach_low | self.bits[b_id] << h) & ~bits_a)
                for b_id in b[lo:hi].tolist()]

    def arcs(self, h: int, q: Optional[int] = None):
        """The arcs over h as arrays ``(a, b, lo, hi, shape)``, ascending in
        a then b: from source stage k the operation's lowest and highest
        positions are k + lo and k + hi, and its ``SetKey`` at width q
        (default p) is ``shape + (k + lo << shift_m) + (k + hi << shift_M)``.
        An operation with a hole in its window's interior at width q gets
        the key of the set that fills the hole, which has more positions,
        so a search among the sets of the operation's own size misses it.

        Positions 2p-2 (where ``bits`` end) to h-1 of every operation are
        present, so the key fields, which reach q-1 positions in from
        either end, are read off the gap g <= h that keeps q+1 of them;
        positions past g sit h-g higher in the real operation."""
        q = self.p if q is None else q
        g = self._cut(h, q)
        got = self._arcs.get((g, q))
        if got is None:
            a, b, ops = self._gap(g)
            lo, top = _ctz(ops), _top_bit(ops)
            low = (1 << (q - 1)) - 1
            base = top - (q - 1)
            tail = np.where(base >= 0, ops >> np.maximum(base, 0),
                            ops << np.maximum(-base, 0)) & low
            got = self._arcs[(g, q)] = (
                a, b, lo - (self.p - 1), top - (self.p - 1),
                ((ops >> (lo + 1)) & low) << (q - 1) | tail)
        a, b, lo, hi, shape = got
        return a, b, lo, hi + (h - g), shape


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


def table_arcs(costs: OperationCostTable, lookup: TransitionLookup, valid_at):
    """Every stage-2 arc whose operation the table holds, as arrays
    ``(stage, gap, a, b, keys, rows)`` ascending in source stage, then gap,
    then source pattern, then target pattern: from pattern a at ``stage``
    to pattern b ``gap`` stages on, both valid there (``valid_at``, one
    row per stage), over the set with ``costs.layout`` key ``keys``, whose
    makespans are row ``rows`` of ``costs.makespans[gap]``. An arc's key is
    linear in its stage, so each gap costs one key computation and one
    table search for all stages at once."""
    layout, n_d = costs.layout, valid_at.shape[0] - 1
    parts = []
    for h in range(1, min(costs.max_op_size, n_d) + 1):
        a, b, lo, hi, shape = lookup.arcs(h, layout.p)
        k = np.arange(n_d + 1 - h)[:, None]
        k, j = np.nonzero(valid_at[k, a] & valid_at[k + h, b])
        keys = (shape[j] + ((k + lo[j]) << layout.shift_m)
                + ((k + hi[j]) << layout.shift_M))
        rows = costs.rows(h, keys)
        hit = rows >= 0
        parts.append((k[hit], np.full(hit.sum(), h), a[j[hit]], b[j[hit]],
                      keys[hit], rows[hit]))
    parts = [np.concatenate(part) for part in zip(*parts)] or [np.empty(0, int)] * 6
    order = np.argsort(parts[0], kind="stable")
    return tuple(part[order] for part in parts)


def _meta_values(costs: OperationCostTable, inst: Instance, p: int):
    """Forward pass of ``solve_meta``: (zeta, eps, stats, arcs_into), the
    value arrays with row k * n_pat + b for pattern b at stage k and the
    walk-back's arc source."""
    n_d, n_r, c_r = inst.n_d, inst.n_r, inst.c_r
    lookup = get_transition_lookup(p)
    layout = costs.layout
    n_pat = len(lookup.patterns)
    valid_at = lookup.valid_at(n_d)
    zeta = np.full(((n_d + 1) * n_pat, n_r), np.inf)
    eps = np.full(((n_d + 1) * n_pat, n_r), np.inf)
    zeta[0] = c_r[inst.w0]
    per_stage = valid_at.sum(axis=1).tolist()
    stats = MetaStats(states=sum(per_stage) * n_r, patterns_per_stage=per_stage)

    stage, gap, a, b, keys, rows = table_arcs(costs, lookup, valid_at)
    bounds = np.searchsorted(stage, np.arange(n_d + 2))
    target = (stage + gap) * n_pat + b

    def arcs_into(row, wp):
        # source stage ascending, then source pattern ascending
        sel = np.flatnonzero(target == row)
        yield (stage[sel] * n_pat + a[sel], layout.masks(keys[sel]).tolist(),
               costs.stack(gap[sel], rows[sel])[:, :, wp])

    for k in range(n_d + 1):
        states = k * n_pat + np.flatnonzero(valid_at[k])
        if k > 0:
            E = eps[states]
            live = np.isfinite(E).any(axis=1)
            zeta[states[live]] = (E[live][:, :, None] + c_r[None, :, :]).min(axis=1)
        reached = np.isfinite(zeta[k * n_pat:(k + 1) * n_pat]).any(axis=1)
        out = bounds[k] + np.flatnonzero(reached[a[bounds[k]:bounds[k + 1]]])
        src, tgt = k * n_pat + a[out], target[out]
        stats.arcs += out.size
        for sl in chunks(out.size, n_r * n_r):
            W = costs.stack(gap[out[sl]], rows[out[sl]])
            # relax on the start and end RLs where some arc is finite
            finite = np.isfinite(W).any(axis=0)
            starts = np.flatnonzero(finite.any(axis=1))
            ends = np.flatnonzero(finite.any(axis=0))
            relax(eps, zeta[src[sl, None], starts], W[:, starts[:, None], ends],
                  tgt[sl], ends)
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
    zeta, eps, stats, arcs_into = _meta_values(costs, inst, p)
    t1 = time.perf_counter()
    stats.elapsed = t1 - t0
    final = inst.n_d * len(get_transition_lookup(p).patterns)
    if not np.isfinite(zeta[final, inst.wt]):
        raise InfeasibleError("no feasible tour in this neighborhood")
    tour = walk_back(inst, tuple(x), costs.p, zeta, eps, final, arcs_into, model)
    stats.recovery_elapsed = time.perf_counter() - t1
    return tour, stats
