"""Stage-1 dynamic program: minimal feasible flight time for every
relevant (start RL, destination set, end RL) operation.

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
whose sets are Python ints (any n_d) and whose per-state values are
vectors over the starting RL, reduced with vectorised gathers. Order
recovery runs the same DP within one entry's set and walks its levels back.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field
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
    """Minimal feasible flight time per (start RL, set, end RL); the matrix
    entry is +inf when no feasible operation over that set exists for the
    endpoint pair, and sets without any feasible endpoint pair are absent."""

    entries: dict
    p: Optional[int]  # None: every subset
    x: tuple
    n_r: int
    stats: OpsGraphStats

    @property
    def max_op_size(self) -> int:
        return max((m.bit_count() for m in self.entries), default=0)


# ---------------------------------------------------------------------------
# Graph construction
# ---------------------------------------------------------------------------

def _min_over_rows(count, first, owner, value):
    """For each item, the min of ``value(rows, sel)`` over the rows of its
    set (``owner`` maps items to sets), one slot at a time: slot j passes
    the j-th row of every item's set that has one, and ``sel`` the items
    concerned. Slot 0 covers every item, since a live set has a row."""
    count, first = count[owner], first[owner]
    out = value(first, slice(None))
    for j in range(1, int(count.max(initial=0))):
        sel = np.flatnonzero(count > j)
        out[sel] = np.minimum(out[sel], value(first[sel] + j, sel))
    return out


def _levels(inst, x, p, cap, within, starts=slice(None)):
    """Forward DP over partial operations, yielding one level (operation
    size) at a time as ``(sets, count, first, pos, val)``.

    A level holds its live states (S, v) as rows grouped by set: ``sets``
    lists the sets (Python ints, so any n_d works), ``count`` the rows of
    each and ``first`` the first row of each, ``pos`` the position v of
    every row and ``val`` its partial flight times over the start RLs
    selected by ``starts``. Sets grow by ``valid_successor_indices`` at
    width p (p=None: every subset). Only the positions in the bitmask
    ``within`` are used, and a partial flight that cannot reach its nearest
    RL within ``cap`` is +inf.
    Extending (S, v) by u can only reach (S | u, u), so the one reduction
    per step is a min over the rows of a set, taken slot by slot: slot j
    gathers the j-th row of every set at once.
    """
    n = inst.n_d
    p = n if p is None else p
    idx = np.asarray(x, dtype=int)
    cdp_dd = inst.cd_dd[idx][:, idx]
    minrl = inst.nearest_rl_time()[idx]

    pos = np.array([t for t in range(n) if (within >> t) & 1], dtype=np.intp)
    val = inst.cd_rd[starts][:, idx[pos]].T
    val[val + minrl[pos, None] > cap] = np.inf
    live = np.isfinite(val).any(axis=1)
    pos, val = pos[live], val[live]
    sets = [1 << int(t) for t in pos]
    count = np.ones(len(sets), dtype=np.intp)

    while sets:
        first = np.cumsum(count) - count
        yield sets, count, first, pos, val

        # extension arcs (S, u), valued as a min over the rows of S
        succ = [valid_successor_indices(s, p, n) for s in sets]
        if within != (1 << n) - 1:
            succ = [[u for u in us if (within >> u) & 1] for us in succ]
        owner = np.repeat(np.arange(len(sets)), [len(us) for us in succ])
        u = np.fromiter(itertools.chain.from_iterable(succ), dtype=np.intp,
                        count=owner.size)
        ext = _min_over_rows(
            count, first, owner,
            lambda rows, sel: val[rows] + cdp_dd[pos[rows], u[sel]][:, None])
        ext[ext + minrl[u][:, None] > cap] = np.inf

        # the next level: one state (S | u, u) per live arc, grouped by set
        live = np.flatnonzero(np.isfinite(ext).any(axis=1))
        index = {}
        group = np.array([index.setdefault(sets[s] | (1 << t), len(index))
                          for s, t in zip(owner[live].tolist(), u[live].tolist())],
                         dtype=np.intp)
        live = live[np.argsort(group, kind="stable")]
        sets = list(index)
        count = np.bincount(group, minlength=len(sets))
        val, pos = ext[live], u[live]


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
    cdp_dr = inst.cd_dr[list(x)]
    top = n if size_cap is None else min(n, size_cap)

    t0 = time.perf_counter()
    stats = OpsGraphStats(per_stage=[0] * (n + 2))
    entries = {}
    held = 0
    levels = _levels(inst, x, p, model.flight_cap, (1 << n) - 1)
    for k, (sets, count, first, pos, val) in enumerate(
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
        close = _min_over_rows(
            count, first, np.arange(len(sets)),
            lambda rows, sel: val[rows][:, :, None] + cdp_dr[pos[rows]][:, None, :])
        close = model.finalize_flight_matrix(close)
        feasible = np.isfinite(close)
        stats.terminal_entries += int(feasible.sum())
        keep = np.flatnonzero(feasible.any(axis=(1, 2)))
        entries.update(zip([sets[i] for i in keep], close[keep]))
    # every live arc is one finite value of the level it reaches
    stats.arcs = sum(stats.per_stage[2:])
    stats.nonterminal_states = sum(stats.per_stage)
    entries = {mask: entries[mask] for mask in sorted(entries)}
    stats.elapsed = time.perf_counter() - t0
    return OperationCostTable(entries=entries, p=p, x=x, n_r=inst.n_r,
                              stats=stats)


def ops_nonterminal_state_bound(n_d: int, n_r: int, p: int) -> float:
    """Closed-form cap on the number of non-terminal states (valid for
    n_d >= 4p-2)."""
    return n_r * (2 * p - 1) * 4 ** (p - 1) * (
        (2 * p - 3) * p + (n_d - 2 * p + 1) * n_d / 2.0)


# ---------------------------------------------------------------------------
# Order recovery
# ---------------------------------------------------------------------------

def recover_operation_order(inst: Instance, x: Sequence[int], mask: int,
                            w: int, w_prime: int,
                            p: Optional[int]) -> tuple:
    """Re-derive the visiting order behind a cost-table entry built at
    width p (None: every subset).

    Runs stage 1's level DP on the entry's set alone, from start RL w only
    and without energy pruning, and walks it back from the end: each
    position is the one whose flight plus the next leg equals the current
    value exactly, the smallest position on ties. Returns destination
    positions in visiting order.
    """
    idx = np.asarray(x, dtype=int)
    levels = list(itertools.islice(
        _levels(inst, x, p, np.inf, mask, [w]), mask.bit_count()))
    if len(levels) < mask.bit_count():
        raise ValueError("entry is not reachable in the stage-1 graph at this width")
    order = []
    leg = inst.cd_dr[idx, w_prime]
    for sets, count, first, pos, val in reversed(levels):
        i = sets.index(mask)
        rows = np.arange(first[i], first[i] + count[i])
        cand = val[rows, 0] + leg[pos[rows]]
        if not order:
            target = cand.min()
            if not np.isfinite(target):
                raise ValueError("entry is not reachable in the stage-1 graph at this width")
        hit = rows[cand == target]
        r = hit[np.argmin(pos[hit])]
        order.append(int(pos[r]))
        mask &= ~(1 << order[-1])
        target, leg = val[r, 0], inst.cd_dd[idx, idx[order[-1]]]
    order.reverse()
    return tuple(order)
