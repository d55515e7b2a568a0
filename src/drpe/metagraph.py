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
``zeta`` after the recharging leg that follows. The arcs' entries are
read from the table (``gather``) once, in chunks of about
``RELAX_BATCH`` entries cut at arc boundaries, which may span stages:
each (start RL w, end RL w', makespan) entry of an arc's operation is one
candidate ``zeta[source, w] + makespan`` for ``eps[target, w']`` (+inf
from an unreached source), and each stage relaxes its slice of a chunk by
one exact scatter-min. No pointers are kept: ``walk_back`` takes the
first exact-equality match in the forward order (leg from the lowest RL;
arc from the lowest source stage, then pattern, then start RL), reading
the entries of only the arcs that leave the stages an operation can span,
with the forward pass's ``gather``, and keeping those that end at the
current RL. The exact sweep (over the same table type) and the splitter
walk back with ``walk_back`` too.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations
from typing import Optional

import numpy as np

from .model import (
    EPS,
    BaseCostModel,
    DroneTour,
    InfeasibleError,
    Instance,
    Operation,
    RechargingLeg,
    SizeGuardError,
    build_tour,
    check_deadline,
)
from .opsgraph import (
    SEARCH_STATE_BUDGET,
    OperationCostTable,
    _ctz,
    _top_bit,
    check_width,
    recover_operation_order,
)


@dataclass(frozen=True)
class MetaPattern:
    """Displacements relative to the stage: minus holds positive offsets of
    positions visited early, plus holds offsets in [2-p, 0] of positions
    postponed. Cardinalities match and the spread stays below p."""

    minus: tuple
    plus: tuple

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
    check_width(p)
    patterns = [MetaPattern((), ())]
    for card in range(1, p // 2 + 1):
        for plus in combinations(range(2 - p, 1), card):
            for minus in combinations(range(1, p), card):
                if max(minus) - min(plus) < p:
                    patterns.append(MetaPattern(minus=minus, plus=plus))
    return patterns


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
        # _gap tests all n_pat^2 = 4^(p-1) pattern pairs in one array
        if 4 ** (self.p - 1) > SEARCH_STATE_BUDGET:
            raise SizeGuardError(f"pattern width p={self.p} is too wide for stage 2")
        self.patterns = enumerate_valid_patterns(self.p)
        self.bits = [pat.visited(self.p - 1) for pat in self.patterns]
        self._early = np.array([max(pat.minus, default=0) for pat in self.patterns])
        self._late = np.array([min(pat.plus, default=1) for pat in self.patterns])

    def valid_at(self, n_d: int) -> np.ndarray:
        """(n_d + 1, patterns) bool: pattern b is valid at stage k, where
        each of its displaced positions k + d lies in 1..n_d."""
        k = np.arange(n_d + 1)[:, None]
        return (k + self._early <= n_d) & (k + self._late >= 1)

    def _cut(self, h: int, q: int) -> int:
        return min(h, 2 * self.p - 1 + q)

    def _gap(self, g: int):
        """(a, b, ops) of the arcs over a gap of g, ascending in a then b."""
        got = self._gaps.get(g)
        if got is None:
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


def count_bs_sequences(n_d: int, p: int) -> int:
    """Number of neighbor destination orders, counted as single-step paths
    through the pattern graph (no enumeration)."""
    lookup = get_transition_lookup(p)
    valid_at = lookup.valid_at(n_d)
    ways = [0] * len(lookup.patterns)
    ways[0] = 1
    for k in range(n_d):
        nxt = [0] * len(ways)
        for ai, cnt in enumerate(ways):
            if cnt and valid_at[k, ai]:
                for bi, _ in lookup.successors(ai, 1):
                    if valid_at[k + 1, bi]:
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


# entries per stage-2 chunk, 0.25 MB per index or value array; chunks of
# 2^16 ran about 9% slower on Basis-small at p=8, and of 2^14 about 10%
# slower on small-loose
RELAX_BATCH = 1 << 15
# largest gap walk_back accepts between a rebuilt tour's makespan and its DP value
WALK_BACK_TOL = 1e-6


def walk_back(inst: Instance, zeta, eps, row: int, arcs_into, orders_of, model):
    """The tour of ``zeta[row, inst.wt]``, walked back to row 0 by exact
    equality: the leg from the lowest RL that matches, then the first arc
    and start RL that match. ``arcs_into(row, wp)`` yields batches (source
    rows, start RLs, makespans, operations) in DP order, and
    ``orders_of(ops)``, called once with every matched ``(operation, w,
    wp)`` in tour order, gives each one's destinations in order."""
    value = float(zeta[row, inst.wt])
    steps, w = [], inst.wt  # (operation, its start RL, its end RL, next RL), last first
    while row:
        wp = int(np.flatnonzero(eps[row] + inst.c_r[:, w] == zeta[row, w])[0])
        for src, ws, c, ops in arcs_into(row, wp):
            hit = np.flatnonzero(zeta[src, ws] + c == eps[row, wp])
            if hit.size:
                break
        a = int(hit[0])
        steps.append((ops[a], int(ws[a]), wp, w))
        w, row = int(ws[a]), int(src[a])
    steps.reverse()
    items = [RechargingLeg(inst.w0, w)]
    for (_, w, wp, after), order in zip(steps, orders_of([s[:3] for s in steps])):
        items += [Operation(w, order, wp), RechargingLeg(wp, after)]
    tour = build_tour(inst, items, model)
    if abs(tour.makespan - value) > WALK_BACK_TOL:
        raise AssertionError(
            f"reconstructed makespan {tour.makespan!r} != DP value {value!r}")
    return tour


def table_arcs(costs: OperationCostTable, lookup: TransitionLookup, valid_at):
    """Every stage-2 arc whose operation the table holds, as arrays
    ``(stage, gap, a, b, keys, rows)`` ascending in source stage, then gap,
    then source pattern, then target pattern: from pattern a at ``stage``
    to pattern b ``gap`` stages on, both valid there (``valid_at``, one
    row per stage), over the set with ``costs.layout`` key ``keys``, which
    is row ``rows`` of the table's size ``gap``. An arc's key is linear in
    its stage, so each gap costs one key computation and one table search
    for all stages at once."""
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


def _meta_values(costs: OperationCostTable, inst: Instance,
                 deadline: Optional[float] = None):
    """Forward pass of ``solve_meta``: (zeta, eps, stats, arcs_into), the
    value arrays with row k * n_pat + b for pattern b at stage k and the
    walk-back's arc source, which gives each arc's operation as its set
    key."""
    n_d, n_r, c_r = inst.n_d, inst.n_r, inst.c_r
    lookup = get_transition_lookup(costs.p)
    n_pat = len(lookup.patterns)
    valid_at = lookup.valid_at(n_d)
    zeta = np.full(((n_d + 1) * n_pat, n_r), np.inf)
    eps = np.full(((n_d + 1) * n_pat, n_r), np.inf)
    zeta[0] = c_r[inst.w0]
    per_stage = valid_at.sum(axis=1).tolist()
    stats = MetaStats(states=sum(per_stage) * n_r, patterns_per_stage=per_stage)

    stage, gap, a, b, keys, rows = table_arcs(costs, lookup, valid_at)
    bounds = np.searchsorted(stage, np.arange(n_d + 2)).tolist()
    source = (stage * n_pat + a) * n_r
    target = ((stage + gap) * n_pat + b) * n_r
    # the entries of each arc: those of row ``rows`` of the table's size
    # ``gap``; arc i's are entries ends[i] to ends[i + 1] - 1 of all arcs'
    first, size = costs.lookup(gap, rows)
    ends = np.concatenate(([0], np.cumsum(size)))
    # chunk i holds arcs cuts[i] to cuts[i + 1] - 1: about RELAX_BATCH
    # entries, cut at arc boundaries, and it may span stages
    cuts = np.searchsorted(ends[:-1], np.arange(0, ends[-1], RELAX_BATCH))
    cuts = np.unique(np.append(cuts, stage.size)).tolist()
    ends = ends.tolist()
    h_max = int(gap.max(initial=0))

    def entries(lo, hi):
        """(at, to, makespan) of the entries of arcs lo to hi - 1: each
        entry's flat index into zeta (source, w) and into eps (target,
        w'), and its makespan."""
        n = size[lo:hi]
        w, wp, c = costs.gather(gap[lo:hi], first[lo:hi], n)
        at, to = np.repeat(source[lo:hi], n), np.repeat(target[lo:hi], n)
        at += w
        to += wp
        return at, to, c

    def arcs_into(row, wp):
        # arcs into stage t leave one of the h_max stages before it; source
        # stage ascending, then source pattern ascending; of each arc's
        # entries, those ending at wp
        t = row // n_pat
        lo = bounds[max(t - h_max, 0)]
        sel = lo + np.flatnonzero(target[lo:bounds[t]] == row * n_r)
        w, end, c = costs.gather(gap[sel], first[sel], size[sel])
        hit = np.flatnonzero(end == wp)
        arc = np.repeat(sel, size[sel])[hit]
        yield source[arc] // n_r, w[hit], c[hit], keys[arc]

    # each chunk's entries are expanded once; a stage relaxes its slice of
    # each chunk its arcs lie in: one candidate zeta[source, w] + makespan
    # per entry (+inf from an unreached source), scattered onto eps[target,
    # w'] by an exact minimum
    flat_zeta, flat_eps = zeta.reshape(-1), eps.reshape(-1)
    next_cut, lo, hi = iter(cuts[1:]), 0, 0
    for k in range(n_d + 1):
        check_deadline(deadline)
        if k > 0:
            # the leg after each arrival: +inf where the state was not reached
            block = slice(k * n_pat, (k + 1) * n_pat)
            np.min(eps[block, :, None] + c_r, axis=1, out=zeta[block])
        i, stop = bounds[k], bounds[k + 1]
        while i < stop:
            if i == hi:
                at = to = c = cand = None  # free the last chunk before reading the next
                lo, hi = hi, next(next_cut)
                at, to, c = entries(lo, hi)
            j = min(stop, hi)
            part = slice(ends[i] - ends[lo], ends[j] - ends[lo])
            cand = flat_zeta[at[part]]
            cand += c[part]
            np.minimum.at(flat_eps, to[part], cand)
            i = j
    stats.arcs = int(np.count_nonzero(np.isfinite(zeta).any(axis=1)[source // n_r]))
    return zeta, eps, stats, arcs_into


def solve_meta(costs: OperationCostTable, inst: Instance,
               model: Optional[object] = None, deadline: Optional[float] = None,
               incumbent: Optional[DroneTour] = None):
    """Shortest path through the meta graph of the table's own reference
    order and width (``costs.x``, ``costs.p``); returns (tour, stats).

    The returned tour's makespan is the optimum over all neighbor tours
    whose operations appear in the cost table. ``stats.elapsed`` times the
    forward pass and ``stats.recovery_elapsed`` the walk-back that
    recovers the tour and its operation orders. Past ``deadline`` (a
    ``time.perf_counter()`` value, checked at each stage of the forward
    pass) it raises ``TimeLimitError``.

    With an ``incumbent``, the result is the optimum only if it beats the
    incumbent by more than EPS, else the incumbent itself; an optimum not
    below the incumbent's makespan is not walked back.
    """
    model = model or BaseCostModel(inst)
    t0 = time.perf_counter()
    zeta, eps, stats, arcs_into = _meta_values(costs, inst, deadline)
    t1 = time.perf_counter()
    stats.elapsed = t1 - t0
    final = inst.n_d * len(get_transition_lookup(costs.p).patterns)
    if not np.isfinite(zeta[final, inst.wt]):
        raise InfeasibleError("no feasible tour in this neighborhood")
    if incumbent is not None and zeta[final, inst.wt] >= incumbent.makespan:
        return incumbent, stats
    x = costs.x
    def orders_of(ops):
        masks = costs.layout.masks([key for key, _, _ in ops])
        found = recover_operation_order(
            inst, x, [(mask, w, wp) for mask, (_, w, wp) in zip(masks, ops)], costs.p)
        return [tuple(x[t] for t in order) for order in found]

    tour = walk_back(inst, zeta, eps, final, arcs_into, orders_of, model)
    stats.recovery_elapsed = time.perf_counter() - t1
    if incumbent is not None and not tour.makespan < incumbent.makespan - EPS:
        return incumbent, stats
    return tour, stats
