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
vectorised gathers. Each level is closed only at its held (set, start
RL) pairs, those where some row of the set has a finite partial flight,
each pair at every end RL, in blocks of about ``CHUNK_VALUES`` values;
only the flights within the cost model's cap are priced. The cost table
keeps the finite makespans alone: per operation size the set keys and
each set's run of entries (a packed (start RL, end RL) cell and the
makespan); other modules read a table through ``sets``, ``lookup``,
``gather`` and ``ending_at`` and build one with ``from_dense``. Order
recovery reruns the DP, under the same successor rule, within the sets
of all the entries of one tour at once and walks its levels back.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .model import BaseCostModel, Instance, SizeGuardError, check_deadline

SEARCH_STATE_BUDGET = 8_000_000  # (set, position, start RL) values of a build at width p

# float64 values in one block of stage 1's close or of the exact sweep's
# relaxation: 2 MB temporaries; at 2^20 a small-loose pass peaked about
# 16 MB higher in RSS
CHUNK_VALUES = 1 << 18


def chunks(n: int, per_item: int):
    """Slices of at most CHUNK_VALUES // per_item items covering range(n)."""
    step = max(1, CHUNK_VALUES // max(per_item, 1))
    return (slice(i, i + step) for i in range(0, n, step))


def check_width(p: int) -> None:
    """Raise ValueError unless p is a neighborhood width."""
    if p < 1:
        raise ValueError("p must be >= 1")


# ---------------------------------------------------------------------------
# Set keys
# ---------------------------------------------------------------------------

def _ctz(x):
    """Index of the lowest set bit of each nonzero int64."""
    return np.frexp((x & -x).astype(np.float64))[1] - 1


def _top_bit(x):
    """Index of the highest set bit of each positive int64."""
    # the float rounds to nearest, at worst up to the next power of two
    top = np.frexp(x.astype(np.float64))[1].astype(np.int64) - 1
    return top - (x >> top == 0)


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

    def mask(self, key: int) -> int:
        """The bitmask of one key: the inverse of ``key``, and ``masks``
        for a single key without arrays."""
        p = self.p
        m, M = key >> self.shift_m, (key >> self.shift_M) & ((1 << self.bits) - 1)
        head, tail = (key >> (p - 1)) & self.low, key & self.low
        base = M - (p - 1)
        tail = tail << base if base >= 0 else tail >> -base
        # the interior [m+p, M-p], empty when lo == hi
        lo = min(m + p, M + 1)
        hi = max(base, lo)
        return (((head << 1) | 1) << m) | tail | (1 << M) | ((1 << hi) - (1 << lo))

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
        """The positions u by which each set may grow, as (owner, u): the
        index into ``keys`` and u, owner ascending and u ascending within an
        owner. u is an absent position of [M-p+1, g+p-1], clamped to
        [0, n-1], where g is the set's first absent position at or above
        m+p: a neighbor order visits position i before j whenever j >= i+p,
        so no position at or below M-p may follow M, and g, which may not
        precede m, comes after the whole operation, as must every position
        from g+p on. The interval lies in the 3p-1 positions from M-p+1
        (g <= max(M+1, m+p)); the window bits give the presence of the
        first p of them."""
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


def runs(first, size) -> np.ndarray:
    """Indices first[i] .. first[i] + size[i] - 1 of every run, run by run."""
    at = np.repeat(first - (np.cumsum(size) - size), size)
    at += np.arange(at.size)
    return at


def rl_cells(n_r: int) -> np.ndarray:
    """The packed cell ``w << b | w'`` of every RL pair, row-major, b the bit
    length of n_r - 1, in the smallest unsigned type that holds them."""
    bits = (n_r - 1).bit_length()
    rl = np.arange(n_r, dtype=np.min_scalar_type((n_r - 1) << bits | (n_r - 1)))
    return (rl[:, None] << bits | rl).ravel()


def cell_rls(cells, n_r: int) -> tuple:
    """(w, w') of each packed cell."""
    bits = (n_r - 1).bit_length()
    return cells >> bits, cells & ((1 << bits) - 1)


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
    """Makespan of the minimal-flight operation per (start RL w, set, end
    RL w'), as the cost model's ``price`` gives it. Only the finite
    entries are stored; sets without any are absent.

    One group of arrays per operation size k: ``keys[k]`` lists the
    ascending ``layout`` keys of the size-k sets, and set row r holds
    entries ``starts[k][r]`` to ``stops[k][r] - 1`` of ``cells[k]`` ((w,
    w') packed by ``rl_cells``) and ``values[k]`` (the makespans), ordered
    by w, then w'; the runs follow stage 1's closing order."""

    keys: list
    starts: list
    stops: list
    cells: list
    values: list
    layout: SetKey
    p: Optional[int]  # None: every subset
    x: tuple
    n_r: int
    stats: OpsGraphStats

    @property
    def max_op_size(self) -> int:
        return max((k for k, ks in enumerate(self.keys) if ks.size), default=0)

    def rows(self, k: int, keys) -> np.ndarray:
        """Row in ``keys[k]`` of each key, -1 where the table has none."""
        table = self.keys[k] if k < len(self.keys) else np.empty(0, np.int64)
        if not table.size:
            return np.full(len(keys), -1)
        at = np.minimum(np.searchsorted(table, keys), table.size - 1)
        return np.where(table[at] == keys, at, -1)

    def sets(self) -> tuple:
        """(mask, size, row) of every set the table holds, by size, then
        row: its bitmask and its row in ``keys[size]``."""
        size = np.repeat(np.arange(len(self.keys)), [ks.size for ks in self.keys])
        row = np.concatenate([np.arange(ks.size) for ks in self.keys])
        return self.layout.masks(np.concatenate(self.keys)), size, row

    def lookup(self, size, row) -> tuple:
        """(first, count): the first entry and the entry count of each set
        given by its size and row."""
        at = np.cumsum([0, *(ks.size for ks in self.keys[:-1])])[size] + row
        first = np.concatenate(self.starts)[at]
        return first, np.concatenate(self.stops)[at] - first

    def gather(self, size, first, count) -> tuple:
        """(w, w', makespan) of every entry of these sets (as ``lookup``
        gives them), set by set; one take per run of sets of one size."""
        at = runs(first, count)
        cell, value = np.empty(at.size, self.cells[0].dtype), np.empty(at.size)
        heads = np.flatnonzero(np.diff(size, prepend=-1))
        edges = [*(np.cumsum(count) - count)[heads].tolist(), at.size]
        # the indices are in range, and mode="clip" takes into ``out`` unbuffered
        for k, lo, hi in zip(size[heads].tolist(), edges, edges[1:]):
            self.cells[k].take(at[lo:hi], out=cell[lo:hi], mode="clip")
            self.values[k].take(at[lo:hi], out=value[lo:hi], mode="clip")
        return (*cell_rls(cell, self.n_r), value)

    def ending_at(self, size, first, count, end: int) -> tuple:
        """(set, w, makespan) of the entries of these sets (as ``lookup``
        gives them) that end at RL ``end``, set by set, ``set`` indexing the
        given sets: the cells of their entries are read, and the makespans
        of the matches only. For a few sets: their runs of one size are
        found in Python."""
        at, stops = runs(first, count), np.cumsum(count)
        sizes, edges, ends = [], [], [0, *stops.tolist()]
        for i, k in enumerate(size.tolist()):
            if not sizes or k != sizes[-1]:
                sizes.append(k)
                edges.append(ends[i])
        edges.append(at.size)
        cell = np.empty(at.size, self.cells[0].dtype)
        for k, lo, hi in zip(sizes, edges, edges[1:]):
            self.cells[k].take(at[lo:hi], out=cell[lo:hi], mode="clip")
        w, wp = cell_rls(cell, self.n_r)
        hit = np.flatnonzero(wp == end)
        cut, at = np.searchsorted(hit, edges).tolist(), at[hit]
        value = np.empty(hit.size)
        for k, lo, hi in zip(sizes, cut, cut[1:]):
            self.values[k].take(at[lo:hi], out=value[lo:hi], mode="clip")
        return np.searchsorted(stops, hit, side="right"), w[hit], value

    @classmethod
    def from_dense(cls, n_d: int, n_r: int, pairs) -> "OperationCostTable":
        """The table of every subset (width None, identity order) that holds
        the (bitmask, (n_r, n_r) makespans) ``pairs``, read one at a time:
        only finite makespans are kept, and sets without one are left out."""
        layout, grid, sets = SetKey(n_d, None), rl_cells(n_r), []
        for mask, mat in pairs:
            flat = np.ravel(mat)
            at = np.flatnonzero(np.isfinite(flat))
            if at.size:
                sets.append((int(mask).bit_count(), layout.key(int(mask)), grid[at], flat[at]))
        sets.sort(key=lambda s: s[:2])
        table = cls([], [], [], [], [], layout, None, tuple(range(n_d)), n_r, OpsGraphStats())
        for k in range(n_d + 1):
            group = [s for s in sets if s[0] == k]
            count = np.array([s[2].size for s in group], dtype=np.int64)
            table.keys.append(np.array([s[1] for s in group], dtype=np.int64))
            table.stops.append(np.cumsum(count))
            table.starts.append(table.stops[-1] - count)
            table.cells.append(np.concatenate([grid[:0], *(s[2] for s in group)]))
            table.values.append(np.concatenate([np.empty(0), *(s[3] for s in group)]))
        table.stats.terminal_entries = sum(s[2].size for s in sets)
        return table


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
    if p is not None:
        check_width(p)
    model = model or BaseCostModel(inst)
    n = inst.n_d
    layout = SetKey(n, p)
    idx = np.asarray(x, dtype=np.intp)
    cdp_dr = inst.cd_dr[idx]
    top = n if size_cap is None else min(n, size_cap)

    t0 = time.perf_counter()
    stats = OpsGraphStats(per_stage=[0] * (n + 2))
    n_r = inst.n_r
    grid = rl_cells(n_r).reshape(n_r, n_r)
    rover = np.empty(int(grid.max()) + 1)  # c_r by packed cell
    rover[grid] = inst.c_r
    keys, starts, stops = [np.empty(0, np.int64)], [np.empty(0, np.int64)], [np.empty(0, np.int64)]
    cells, values = [grid[:0, 0]], [np.empty(0)]
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
        # close each held pair (set, start RL w), where some row of the set
        # has a finite partial flight, at every end RL and price the flights
        # within the cost model's cap, keeping the finite makespans: pairs by
        # set, in decreasing row count (so ``_min_over_rows`` keeps their
        # order, and each block's row minimum is short), then w
        by_rows, low = _min_over_rows(
            count, first, np.arange(set_keys.size),
            lambda rows, sel, out: np.take(val, rows, axis=0, out=out, mode="clip"), (n_r,))
        s, w = np.divmod(np.flatnonzero(np.isfinite(low)), n_r)
        # before[i]: the entries ahead of set by_rows[i]'s pairs, block by block
        bound, before, parts = np.searchsorted(s, np.arange(set_keys.size + 1)), 0, []
        for sl in chunks(s.size, n_r):
            ws = w[sl]
            _, close = _min_over_rows(
                count, first, by_rows[s[sl]],
                lambda rows, sel, out: np.add(
                    np.take(cdp_dr, pos[rows], axis=0, out=out, mode="clip"),
                    np.take(val, rows * n_r + ws[sel])[:, None], out=out), (n_r,))
            at = np.flatnonzero(close <= model.flight_cap)
            cell = np.take(grid[ws], at)
            cost = model.price(np.take(close, at), rover[cell])
            if not np.isfinite(cost).all():
                at, cell, cost = (f[np.isfinite(cost)] for f in (at, cell, cost))
            parts.append((cell, cost))
            before = before + np.searchsorted(at, np.clip(bound - sl.start, 0, ws.size) * n_r)
        for field, part in zip((cells, values), zip(*parts)):
            field.append(np.concatenate(part))
        run = np.zeros((2, set_keys.size), np.int64)
        run[:, by_rows] = before[:-1], before[1:]
        placed = np.flatnonzero(run[1] > run[0])
        keys.append(set_keys[placed])
        starts.append(run[0, placed])
        stops.append(run[1, placed])
        stats.terminal_entries += values[-1].size
    # every live arc is one finite value of the level it reaches
    stats.arcs = sum(stats.per_stage[2:])
    stats.nonterminal_states = sum(stats.per_stage)
    stats.elapsed = time.perf_counter() - t0
    return OperationCostTable(keys=keys, starts=starts, stops=stops, cells=cells,
                              values=values, layout=layout, p=p, x=x, n_r=n_r, stats=stats)


# ---------------------------------------------------------------------------
# Order recovery
# ---------------------------------------------------------------------------

def recover_operation_order(inst: Instance, x: Sequence[int], entries,
                            p: Optional[int]) -> list:
    """The visiting order behind each cost-table entry ``(mask, w, w')``
    of a table built on order x at width p (None: every subset), as
    destination positions in visiting order.

    Reruns stage 1's DP on each entry's positions alone, from start RL w
    only and without energy pruning, and walks it back from the end: each
    position is the one whose flight plus the next leg equals the current
    value exactly, the smallest position on ties. A one-position entry is
    its position. The others share one frontier DP, level by level over
    the operation size, under stage 1's successor rule
    (``SetKey.successors``) on bitmasks of positions counted from the
    entry's lowest; a set is one int64 key, its entry's index above that
    bitmask. A level keeps, per set, one slot per member: the value of the
    state that ends there, or +inf where none does. Raises ``ValueError``
    when an entry's set cannot be reached at width p.
    """
    orders, multi = [None] * len(entries), []
    for i, (mask, w, wp) in enumerate(entries):
        mask = int(mask)
        low = (mask & -mask).bit_length() - 1
        if mask >> low == 1:
            orders[i] = (low,)
        else:
            multi.append((-mask.bit_count(), i, low, mask >> low, w, wp))
    if not multi:
        return orders
    # by decreasing size, so that the entries a level holds are a prefix
    size, index, base, shape, w, wp = (np.array(f) for f in zip(*sorted(multi)))
    size = -size
    span = max(int(s).bit_length() for s in shape.tolist())
    if span + (shape.size - 1).bit_length() > 62:
        raise SizeGuardError(f"an operation spanning {span} positions is too wide to recover")
    p = span if p is None else min(p, span)
    # the destination at each entry's relative position, the flights between
    # them, and from each to the entry's end RL
    dest = np.asarray(x)[np.minimum(base[:, None] + np.arange(span), len(x) - 1)]
    hops = inst.cd_dd[dest[:, :, None], dest[:, None, :]]
    hop, leg = hops.ravel(), inst.cd_dr[dest, wp[:, None]]
    low, nbytes = (1 << span) - 1, (span + 7) // 8

    entry, rel = np.nonzero(shape[:, None] >> np.arange(span) & 1)
    # a level: its sets' keys, ascending, and its states' values and last
    # positions (int8), one column per set and one row per slot
    levels = [(entry << span | 1 << rel, inst.cd_rd[w[entry], dest[entry, rel]][None],
               rel[None].astype(np.int8))]
    for k in range(1, int(size.max())):
        keys, val, member = levels[-1]
        e, mask = keys >> span, keys & low
        succ = shape[e] & ~mask
        if p < span:
            # within [M - p + 1, g + p - 1], g the first position at or
            # above m + p that the set lacks
            g = np.minimum(_ctz(mask) + p, 63)
            g += _ctz(~mask >> g)
            succ &= (1 << np.minimum(g + p, 62)) - (1 << np.maximum(_top_bit(mask) - (p - 1), 0))
        # (set, u) pairs from the successor bits, byte by byte
        bits = np.unpackbits(succ.astype("<i8", copy=False).view(np.uint8).reshape(-1, 8)[:, :nbytes],
                             axis=1, bitorder="little")
        src, u = np.divmod(np.flatnonzero(bits.view(bool)), 8 * nbytes)
        if not src.size:
            break
        # (S | u, u) is worth the best of S's members' values plus the flight to u
        at = (e * span + member) * span
        grown = np.empty(src.size)
        for sl in chunks(src.size, k):
            flight = np.take(at, src[sl], axis=1)
            flight += u[sl]
            np.min(np.take(val, src[sl], axis=1) + hop.take(flight), axis=0, out=grown[sl])
        # the new level's sets, ascending, each with its states in any order
        new = keys[src] | 1 << u
        order = np.argsort(new)
        new, u = new[order], u[order]
        head = np.empty(new.size, dtype=bool)
        head[0] = True
        np.not_equal(new[1:], new[:-1], out=head[1:])
        first = np.flatnonzero(head)
        group = np.cumsum(head) - 1
        slot = np.arange(new.size) - first[group]
        keys = new[first]
        val = np.full((k + 1, keys.size), np.inf)
        val[slot, group] = grown[order]
        # a slot without a state holds some member of the set, at +inf
        member = np.empty((k + 1, keys.size), dtype=np.int8)
        member[:] = u[first]
        member[slot, group] = u
        levels.append((keys, val, member))

    # walk every entry back at once, each from the level of its own size
    # (entries [:held] are at level k); position ``span`` stands for the end
    # RL, so an entry's first step adds its leg
    hops = np.concatenate((hops, leg[:, :, None]), axis=2)
    ent, bit = np.arange(shape.size), 1 << np.arange(span + 1)
    key = ent << span | shape
    target, last = np.empty(shape.size), np.full(shape.size, span)
    picks = np.zeros((shape.size, span), dtype=np.int64)
    sizes, held = size.tolist(), 0
    for k in range(len(levels), 0, -1):
        keys, val, member = levels[k - 1]
        done = held
        while held < len(sizes) and sizes[held] >= k:
            held += 1
        at = np.searchsorted(keys, key[:held])
        member = member.take(at, axis=1, mode="clip")
        cand = val.take(at, axis=1, mode="clip")
        cand += hops[ent[:held], member, last[:held]]
        if done < held:
            # the others' sets are in the level: their chosen states came from them
            found = keys.take(at[done:], mode="clip") == key[done:held]
            target[done:held] = cand[:, done:].min(axis=0)
            if not (found.all() and np.isfinite(target[done:held]).all()):
                raise ValueError("entry is not reachable in the stage-1 graph at this width")
        col = np.where(cand == target[:held], member, span).argmin(axis=0)
        last[:held] = member[col, ent[:held]]
        target[:held] = val[col, at]
        picks[:held, k - 1] = last[:held]
        key[:held] ^= bit[last[:held]]
    for i, b, n, row in zip(index.tolist(), base.tolist(), size.tolist(), picks.tolist()):
        orders[i] = tuple(b + t for t in row[:n])
    return orders
