"""Stage-1 dynamic program: the makespan of the minimal feasible flight of
every relevant (start RL, destination set, end RL) operation.

States are (start RL w, visited set S, current position v) arranged in
stages by |S|. At width p only sets and successor choices that can occur
inside some neighbor tour are expanded, by one successor rule; the
precedence structure guarantees that such sets have a fully present
interior and at most 2p-2 optional indices at the boundary of their index
window, which keeps the graph polynomial. Width p=None expands every
subset (the exact solver's stage 1).

Destination *positions* relative to the reference order x (0..n_d-1) are
used throughout; the caller maps positions back to destination ids.
Energy pruning is applied forward-looking: a partial flight is extended
only if it could still reach its closest RL within the cost model's
flight cap.

One engine serves every size and width: a level-synchronous frontier DP
whose sets are int64 ``SetKey`` keys (the window's ends and its boundary
bits), grown and grouped by array operations on a whole level, and whose
per-state values are vectors over the starting RL, reduced with
vectorised gathers. The cost table keeps the keys and makespan matrices
per operation size. Order recovery replays the same DP within one entry's
set and walks its levels back.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Optional, Sequence

import numpy as np

from .model import BaseCostModel, Instance, SizeGuardError, check_deadline

SEARCH_STATE_BUDGET = 8_000_000  # (set, position, start RL) values of a build at width p


# ---------------------------------------------------------------------------
# Set validity rules
# ---------------------------------------------------------------------------

def set_window_valid(mask: int, p: int) -> bool:
    """True iff every interior index of the set's window is present."""
    if mask == 0:
        return True
    m = (mask & -mask).bit_length() - 1
    M = mask.bit_length() - 1
    lo, hi = m + p, M - p
    if lo > hi:
        return True
    needed = ((1 << (hi + 1)) - 1) ^ ((1 << lo) - 1)
    return mask & needed == needed


def valid_successor_indices(mask: int, p: int, n_d: int) -> list:
    """Positions by which a valid partial operation set may be extended:
    the absent positions of [M-p+1, g+p-1] clamped to [0, n_d-1], where m
    and M are the set's lowest and highest positions and g is its first
    absent position at or above m+p.

    A neighbor order visits position i before j whenever j >= i+p. So no
    position at or below M-p may follow M, and g, which may not precede m,
    comes after the whole operation, as must every position from g+p on.
    At p >= n_d the interval is the whole range.
    """
    if mask == 0:
        raise ValueError("successor rule needs a nonempty set")
    m = (mask & -mask).bit_length() - 1
    M = mask.bit_length() - 1
    rest = ~mask >> (m + p)
    g = m + p + (rest & -rest).bit_length() - 1
    return [i for i in range(max(M - p + 1, 0), min(g + p - 1, n_d - 1) + 1)
            if not mask >> i & 1]


# ---------------------------------------------------------------------------
# Set keys
# ---------------------------------------------------------------------------

def _ctz(x):
    """Index of the lowest set bit of each nonzero int64."""
    return np.frexp((x & -x).astype(np.float64))[1] - 1


def _top_bit(x):
    """Index of the highest set bit of each positive int64."""
    out = np.zeros(x.shape, dtype=np.int64)
    for s in (32, 16, 8, 4, 2, 1):
        big = (x >> s) > 0
        x = np.where(big, x >> s, x)
        out += s * big
    return out


class SetKey:
    """Canonical int64 key of a window-valid set of positions 0..n-1 at
    width p (widths at or above n, and p=None, act as n).

    Such a set is fixed by its lowest and highest positions m and M and by
    which positions of (m, m+p) and of (M-p, M) it holds, since every
    position of [m+p, M-p] is in it. The key packs, from the top: m, M
    (``bits`` bits each), the presence bits of positions m+1..m+p-1 and
    those of M-p+1..M-1, so 2*bits + 2p - 2 bits in all; a width whose key
    cannot fit in 63 bits raises ``SizeGuardError``. Keys of sets that are
    not window-valid alias other sets' keys and must never be formed.
    """

    def __init__(self, n: int, p: Optional[int]):
        self.n = n
        self.p = n if p is None else min(p, n)
        self.bits = max(1, (n - 1).bit_length())
        self.low = (1 << (self.p - 1)) - 1
        self.shift_M = 2 * self.p - 2
        self.shift_m = self.shift_M + self.bits
        if self.shift_m + self.bits > 63:
            raise SizeGuardError(
                f"neighborhood width p={p} needs {self.shift_m + self.bits}-bit "
                f"set keys at {n} destinations (63 available); lower p")

    def pack(self, m, M, head, tail):
        return (m << self.shift_m) | (M << self.shift_M) | (head << (self.p - 1)) | tail

    def fields(self, keys):
        """(m, M, head, tail) of each key: head holds positions m+1.. and
        tail positions M-p+1.., bit 0 first."""
        return (keys >> self.shift_m, (keys >> self.shift_M) & ((1 << self.bits) - 1),
                (keys >> (self.p - 1)) & self.low, keys & self.low)

    def key(self, mask: int) -> int:
        """The key of one window-valid bitmask."""
        m = (mask & -mask).bit_length() - 1
        M = mask.bit_length() - 1
        base = M - self.p + 1
        tail = mask >> base if base >= 0 else mask << -base
        return self.pack(m, M, (mask >> (m + 1)) & self.low, tail & self.low)

    def masks(self, keys) -> np.ndarray:
        """The bitmasks of these keys: int64 up to 62 positions, Python ints
        (an object array) beyond."""
        p = self.p
        m, M, head, tail = self.fields(np.asarray(keys, dtype=np.int64))
        if self.n > 62:
            m, M, head, tail = (f.astype(object) for f in (m, M, head, tail))
        base = M - (p - 1)
        tail = np.where(base >= 0, tail << np.maximum(base, 0), tail >> np.maximum(-base, 0))
        # the interior [m+p, M-p], empty when lo == hi
        lo = np.minimum(m + p, M + 1)
        hi = np.maximum(base, lo)
        return (((head << 1) | 1) << m) | tail | (1 << M) | ((1 << hi) - (1 << lo))

    def successors(self, keys):
        """``valid_successor_indices`` of every set at once: (owner, u),
        the index into ``keys`` and a position u, owner ascending and u
        ascending within an owner. The interval [M-p+1, g+p-1] lies in the
        3p-1 positions from M-p+1 (g <= max(M+1, m+p)); the window bits give
        the presence of the first p of them."""
        p = self.p
        m, M, _, tail = self.fields(keys)
        window = tail | (1 << (p - 1))
        # g: the first absent position at or above m+p, at or above the
        # window's offset of m+p (bits past p are absent)
        gap = _ctz(~window & np.left_shift(-1, np.maximum(m - M + 2 * p - 1, 0)))
        t = np.arange(3 * p - 1)
        u = (M - (p - 1))[:, None] + t
        ok = ((t <= gap[:, None] + (p - 1)) & ((window[:, None] >> t) & 1 == 0)
              & (u >= 0) & (u < self.n))
        owner, col = np.nonzero(ok)
        return owner, u[owner, col]

    def grow(self, keys, u):
        """Keys of the sets S | {u} for u a successor of S."""
        p = self.p
        m, M, head, tail = self.fields(keys)
        # positions min(m, u) onward; below m, u is within p-1 of M, so the
        # whole set shifts into the head
        head = (head << 1) | 1
        head = np.where(u < m, (head << np.maximum(m - u, 0)) | 1,
                        head | (1 << np.clip(u - m, 0, p)))
        # positions max(M, u)-p+1 .. max(M, u)
        window = tail | (1 << (p - 1))
        window = np.where(u > M, (window >> np.maximum(u - M, 0)) | (1 << (p - 1)),
                          window | (1 << np.clip(u - M + p - 1, 0, 2 * p)))
        return self.pack(np.minimum(m, u), np.maximum(M, u), (head >> 1) & self.low,
                         window & self.low)


# ---------------------------------------------------------------------------
# Result container
# ---------------------------------------------------------------------------

@dataclass
class OpsGraphStats:
    nonterminal_states: int = 0
    terminal_entries: int = 0
    arcs: int = 0
    per_stage: list = field(default_factory=list)
    elapsed: float = 0.0


@dataclass
class OperationCostTable:
    """Makespan of the minimal-flight operation per (start RL, set, end
    RL), as the cost model's ``price`` gives it; the matrix entry is +inf
    when no feasible operation over that set exists for the endpoint pair,
    and sets without any feasible endpoint pair are absent.

    One array pair per operation size k: ``keys[k]``, the ascending
    ``layout`` keys of the size-k sets, and ``makespans[k]``, their stacked
    (n_r, n_r) matrices in the same order."""

    keys: list
    makespans: list
    layout: SetKey
    p: Optional[int]  # None: every subset
    x: tuple
    n_r: int
    stats: OpsGraphStats

    @property
    def max_op_size(self) -> int:
        return max((k for k, ks in enumerate(self.keys) if ks.size), default=0)

    def rows(self, k: int, keys) -> np.ndarray:
        """Row in ``makespans[k]`` of each key, -1 where the table has none."""
        table = self.keys[k] if k < len(self.keys) else np.empty(0, np.int64)
        if not table.size:
            return np.full(len(keys), -1)
        at = np.minimum(np.searchsorted(table, keys), table.size - 1)
        return np.where(table[at] == keys, at, -1)

    def stack(self, sizes, rows) -> np.ndarray:
        """The matrices of row ``rows[i]`` of ``makespans[sizes[i]]``, stacked
        into one new array, one gather per run of equal sizes."""
        out = np.empty((len(rows), self.n_r, self.n_r))
        bounds = [0, *(np.flatnonzero(np.diff(sizes)) + 1).tolist(), len(rows)]
        for lo, hi in zip(bounds, bounds[1:]):
            if lo < hi:
                np.take(self.makespans[sizes[lo]], rows[lo:hi], axis=0, out=out[lo:hi])
        return out

    @cached_property
    def entries(self) -> dict:
        """bitmask -> (n_r, n_r) matrix, a view of ``makespans``, ascending."""
        sizes = [k for k, ks in enumerate(self.keys) if ks.size]
        if not sizes:
            return {}
        masks = np.concatenate([self.layout.masks(self.keys[k]) for k in sizes])
        mats = [mat for k in sizes for mat in self.makespans[k]]
        order = np.argsort(masks).tolist()
        masks = masks.tolist()
        return {masks[i]: mats[i] for i in order}


# ---------------------------------------------------------------------------
# Graph construction
# ---------------------------------------------------------------------------

def _min_over_rows(count, first, owner, value, shape):
    """(order, best): for each item, by decreasing row count of its set
    (``owner`` maps items to sets), the item's index and the min over the
    rows of its set of the values ``value(rows, sel, out)`` writes to
    ``out``, one ``shape`` block per item. Taken one slot at a time: slot
    j passes the j-th row of every set that has one and, in ``sel``, the
    items concerned, a prefix of the order; slot 0 covers every item,
    since a live set has a row."""
    count = count[owner]
    order = np.argsort(-count.astype(np.int16), kind="stable")
    count, first = count[order], first[owner][order]
    best = np.empty((order.size, *shape))
    value(first, order, best)
    step = np.empty_like(best[:int(np.searchsorted(-count, -1))])
    for j in range(1, int(count.max(initial=0))):
        n = int(np.searchsorted(-count, -j))
        value(first[:n] + j, order[:n], step[:n])
        np.minimum(best[:n], step[:n], out=best[:n])
    return order, best


def _levels(layout, P, dd, val, reach=None, cap=np.inf):
    """Forward DP over partial operations on the ascending positions P,
    yielding one level (operation size) at a time as
    ``(keys, count, first, pos, src, val)``.

    ``dd[i, j]`` is the flight from position P[i] to P[j] and ``val`` holds
    the level-1 values, one row per position of P and one column per start
    RL. A level holds its live states (S, v) as rows grouped by set:
    ``keys`` lists the sets' ``layout`` keys ascending, ``count`` the rows
    of each and ``first`` the first row of each, ``pos`` the index into P
    of every row's v, ``src`` the previous level's set that every row
    extends and ``val`` its partial flight times. Sets grow by the
    layout's successor rule, restricted to P. Given ``reach`` (per position
    of P, the flight to its nearest RL), a partial flight that cannot reach
    its nearest RL within ``cap`` is +inf.
    Extending (S, v) by u can only reach (S | u, u), so the one reduction
    per step is a min over the rows of a set, taken slot by slot: slot j
    gathers the j-th row of every set at once.
    """
    local = np.full(layout.n, -1)
    local[P] = np.arange(P.size)
    if reach is not None:
        val[val + reach[:, None] > cap] = np.inf
    pos = np.flatnonzero(np.isfinite(val).any(axis=1))
    val = val[pos]
    keys = layout.pack(P[pos], P[pos], 0, 0)
    count = np.ones(keys.size, dtype=np.intp)
    src = np.zeros(keys.size, dtype=np.intp)

    while keys.size:
        first = np.cumsum(count) - count
        yield keys, count, first, pos, src, val

        # extension arcs (S, u), valued as a min over the rows of S
        owner, u = layout.successors(keys)
        to = local[u]
        inside = np.flatnonzero(to >= 0)
        owner, u, to = owner[inside], u[inside], to[inside]
        order, ext = _min_over_rows(
            count, first, owner,
            lambda rows, sel, out: np.add(val[rows], dd[pos[rows], to[sel]][:, None], out=out),
            val.shape[1:])
        owner, u, to = owner[order], u[order], to[order]
        if reach is not None:
            ext[ext + reach[to][:, None] > cap] = np.inf

        # the next level: one state (S | u, u) per live arc, grouped by set
        live = np.flatnonzero(np.isfinite(ext).any(axis=1))
        grown = layout.grow(keys[owner[live]], u[live])
        order = np.argsort(grown, kind="stable")
        live, grown = live[order], grown[order]
        head = np.flatnonzero(np.diff(grown, prepend=-1))
        keys = grown[head]
        count = np.diff(head, append=grown.size)
        val, pos, src = ext[live], to[live], owner[live]


def build_ops_graph(inst: Instance, x: Sequence[int], p: Optional[int],
                    model: Optional[object] = None,
                    size_cap: Optional[int] = None,
                    deadline: Optional[float] = None) -> OperationCostTable:
    """Forward DP over partial operations; returns the operation cost table.

    p=None drops the neighborhood restriction (all subsets), which is the
    exact solver's stage 1; only builds at a width p are held to
    SEARCH_STATE_BUDGET. size_cap limits the operation size. Past
    ``deadline`` (a ``time.perf_counter()`` value, checked once per level)
    the build raises ``TimeLimitError``.
    """
    x = tuple(x)
    if sorted(x) != list(range(inst.n_d)):
        raise ValueError("x must be a permutation of all destinations")
    if p is not None and p < 1:
        raise ValueError("p must be >= 1")
    model = model or BaseCostModel(inst)
    n = inst.n_d
    layout = SetKey(n, p)
    idx = np.asarray(x, dtype=np.intp)
    cdp_dr = inst.cd_dr[idx]
    top = n if size_cap is None else min(n, size_cap)

    t0 = time.perf_counter()
    stats = OpsGraphStats(per_stage=[0] * (n + 2))
    keys, makespans = [np.empty(0, np.int64)], [np.empty((0, inst.n_r, inst.n_r))]
    held = 0
    levels = _levels(layout, np.arange(n), inst.cd_dd[np.ix_(idx, idx)],
                     inst.cd_rd[:, idx].T, inst.nearest_rl_time()[idx],
                     model.flight_cap)
    for k, (set_keys, count, first, pos, _, val) in enumerate(
            itertools.islice(levels, top), start=1):
        check_deadline(deadline)
        stats.per_stage[k] = int(np.isfinite(val).sum())
        held += val.size
        if p is not None and held > SEARCH_STATE_BUDGET:
            raise SizeGuardError(
                f"neighborhood width p={p} expands past the stage-1 state "
                f"budget on this instance; lower p")
        # close the operation at every RL; sets without a feasible endpoint
        # pair get no entry
        order, close = _min_over_rows(
            count, first, np.arange(set_keys.size),
            lambda rows, sel, out: np.add(val[rows][:, :, None],
                                          cdp_dr[pos[rows]][:, None, :], out=out),
            (val.shape[1], inst.n_r))
        close = model.price(close)
        feasible = np.isfinite(close)
        stats.terminal_entries += int(feasible.sum())
        keep = np.flatnonzero(feasible.any(axis=(1, 2)))
        keep = keep[np.argsort(order[keep])]
        keys.append(set_keys[order[keep]])
        makespans.append(close[keep])
    # every live arc is one finite value of the level it reaches
    stats.arcs = sum(stats.per_stage[2:])
    stats.nonterminal_states = sum(stats.per_stage)
    stats.elapsed = time.perf_counter() - t0
    return OperationCostTable(keys=keys, makespans=makespans, layout=layout, p=p,
                              x=x, n_r=inst.n_r, stats=stats)


def ops_nonterminal_state_bound(n_d: int, n_r: int, p: int) -> float:
    """Closed-form cap on the number of non-terminal states (valid for
    n_d >= 4p-2)."""
    return n_r * (2 * p - 1) * 4 ** (p - 1) * (
        (2 * p - 3) * p + (n_d - 2 * p + 1) * n_d / 2.0)


# ---------------------------------------------------------------------------
# Order recovery
# ---------------------------------------------------------------------------

def _recovery_plan(shape: int, p: Optional[int]) -> list:
    """Value-free structure of stage 1's level DP on the positions of
    ``shape`` (a bitmask with bit 0 set), found by running ``_levels`` on
    zero flights: one ``(first, count, pos, src, arcs)`` per level, as
    ``_levels`` yields them, where ``src`` is the previous level's set of
    each row. ``arcs = (rows, cells, starts)`` lists, grouped by row, the
    previous level's rows ``rows`` that extend to it and their flights as
    flat indices ``cells`` into the positions' flight matrix, so a level's
    values are ``np.minimum.reduceat(val[rows] + dd.flat[cells], starts)``.
    The successor rule looks at position differences only, so a plan
    serves every entry of the same shape."""
    P = np.flatnonzero([(shape >> t) & 1 for t in range(shape.bit_length())])
    s = P.size
    plan, prev = [], None
    for _, count, first, pos, src, _ in itertools.islice(
            _levels(SetKey(shape.bit_length(), p), P, np.zeros((s, s)),
                    np.zeros((s, 1))), s):
        arcs = None
        if prev is not None:
            p_count, p_first, p_pos = prev
            n_in = p_count[src]
            starts = np.cumsum(n_in) - n_in
            rows = np.repeat(p_first[src] - starts, n_in) + np.arange(n_in.sum())
            arcs = (rows, p_pos[rows] * s + np.repeat(pos, n_in), starts)
        plan.append((first, count, pos, src, arcs))
        prev = count, first, pos
    return plan


# plans of entries up to this size are kept: the structure of a small
# entry costs more than its values, and small shapes recur
_cached_plan = lru_cache(maxsize=256)(_recovery_plan)
CACHED_PLAN_SIZE = 6


def recover_operation_order(inst: Instance, x: Sequence[int], mask: int,
                            w: int, w_prime: int,
                            p: Optional[int]) -> tuple:
    """Re-derive the visiting order behind a cost-table entry built at
    width p (None: every subset).

    Replays stage 1's level DP on the entry's positions alone, from start
    RL w only and without energy pruning (``_recovery_plan``), and walks
    it back from the end: each position is the one whose flight plus the
    next leg equals the current value exactly, the smallest position on
    ties. Returns destination positions in visiting order.
    """
    P, rest = [], mask
    while rest:
        low = rest & -rest
        P.append(low.bit_length() - 1)
        rest ^= low
    plan = (_cached_plan if len(P) <= CACHED_PLAN_SIZE else _recovery_plan)(
        mask >> P[0], p)
    if len(plan) < len(P):
        raise ValueError("entry is not reachable in the stage-1 graph at this width")
    ids = [x[t] for t in P]
    dd = inst.cd_dd[np.ix_(ids, ids)]
    vals = [inst.cd_rd[w, ids]]
    for *_, (rows, cells, starts) in plan[1:]:
        vals.append(np.minimum.reduceat(vals[-1][rows] + dd.flat[cells], starts))

    order, i = [], 0
    leg = inst.cd_dr[ids, w_prime]
    for (first, count, pos, src, _), val in zip(reversed(plan), reversed(vals)):
        rows = np.arange(first[i], first[i] + count[i])
        cand = val[rows] + leg[pos[rows]]
        if not order:
            target = cand.min()
            if not np.isfinite(target):
                raise ValueError("entry is not reachable in the stage-1 graph at this width")
        hit = rows[cand == target]
        r = hit[np.argmin(pos[hit])]
        order.append(P[pos[r]])
        target, leg, i = val[r], dd[:, pos[r]], src[r]
    order.reverse()
    return tuple(order)
