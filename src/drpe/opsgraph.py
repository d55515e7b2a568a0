"""Stage-1 dynamic program: minimal feasible flight time for every
relevant (start RL, destination set, end RL) operation.

States are (start RL w, visited set S, current position v) arranged in
stages by |S|. For the neighborhood-restricted search only sets and
successor choices that can occur inside some neighbor tour are expanded;
the precedence structure guarantees that such sets have a fully present
interior and at most 2p-2 optional indices at the boundary of their index
window, which keeps the graph polynomial.

Destination *positions* relative to the reference order x (0..n_d-1) are
used throughout; the caller maps positions back to destination ids.
Energy pruning is applied forward-looking: a partial flight is extended
only if it could still reach its closest RL within the cost model's
flight cap.

One engine serves every size and width: a level-synchronous frontier DP
whose sets are Python ints (any n_d) and whose per-state values are
vectors over the starting RL, reduced with vectorised gathers.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .model import BaseCostModel, Instance, SizeGuardError

SEARCH_STATE_BUDGET = 8_000_000  # (set, position, start RL) values of a restricted build


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
    """Positions by which a valid partial operation set may be extended.

    Either a position inside the trailing window [M-p+1, max(M-1, m+2p-1)],
    or one of the next p positions beyond M provided every index that the
    jump would strand (those at least p below it, from m+p on) is already
    in the set. Intervals are clamped to [0, n_d-1].
    """
    if mask == 0:
        raise ValueError("successor rule needs a nonempty set")
    m = (mask & -mask).bit_length() - 1
    M = mask.bit_length() - 1
    out = []
    lo1 = max(M - p + 1, 0)
    hi1 = min(max(M - 1, m + 2 * p - 1), n_d - 1)
    for i in range(lo1, hi1 + 1):
        if not (mask >> i) & 1:
            out.append(i)
    lo2 = max(M + 1, m + 2 * p)
    hi2 = min(M + p, n_d - 1)
    for i in range(max(lo2, 0), hi2 + 1):
        if (mask >> i) & 1 or i in out:
            continue
        ok = True
        for j in range(m + p, i - p + 1):
            if not (mask >> j) & 1:
                ok = False
                break
        if ok:
            out.append(i)
    return sorted(out)


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
    p: int
    x: tuple
    n_r: int
    stats: OpsGraphStats
    restricted: bool

    def get(self, mask: int) -> Optional[np.ndarray]:
        return self.entries.get(mask)

    @property
    def max_op_size(self) -> int:
        return max((m.bit_count() for m in self.entries), default=0)


# ---------------------------------------------------------------------------
# Graph construction
# ---------------------------------------------------------------------------

def _permuted_metrics(inst: Instance, x: Sequence[int]):
    idx = np.asarray(x, dtype=int)
    cdp_dd = inst.cd_dd[np.ix_(idx, idx)]
    cdp_rd = inst.cd_rd[:, idx]
    cdp_dr = inst.cd_dr[idx, :]
    minrl = inst.nearest_rl_time()[idx]
    return cdp_dd, cdp_rd, cdp_dr, minrl


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


def _frontier_dp(inst, x, p, model, restricted, size_cap):
    """Forward DP one level (operation size) at a time.

    A level holds its live states (S, v) as rows grouped by set: ``sets``
    lists the sets (Python ints, so any n_d works), ``count`` the rows of
    each, ``pos`` the position v of every row and ``val`` its partial
    flight times over start RLs.
    Extending (S, v) by u can only reach (S | u, u), so the one reduction
    per step is a min over the rows of a set, taken slot by slot: slot j
    gathers the j-th row of every set at once.
    """
    n, n_r = inst.n_d, inst.n_r
    cdp_dd, cdp_rd, cdp_dr, minrl = _permuted_metrics(inst, x)
    cap = model.flight_cap
    top = n if size_cap is None else min(n, size_cap)
    stats = OpsGraphStats(per_stage=[0] * (n + 2))
    entries = {}

    val = cdp_rd.T.copy()
    val[val + minrl[:, None] > cap] = np.inf
    pos = np.flatnonzero(np.isfinite(val).any(axis=1))
    val = val[pos]
    sets = [1 << int(t) for t in pos]
    count = np.ones(len(sets), dtype=np.intp)
    held = 0

    for k in range(1, top + 1):
        if not sets:
            break
        stats.per_stage[k] = int(np.isfinite(val).sum())
        held += val.size
        if restricted and held > SEARCH_STATE_BUDGET:
            raise SizeGuardError(
                f"neighborhood width p={p} expands past the stage-1 state "
                f"budget on this instance; lower p")
        first = np.cumsum(count) - count

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
        if k == top:
            break

        # extension arcs (S, u), valued as a min over the rows of S
        succ = [valid_successor_indices(s, p, n) if restricted
                else [u for u in range(n) if not (s >> u) & 1] for s in sets]
        owner = np.repeat(np.arange(len(sets)), [len(us) for us in succ])
        u = np.fromiter(itertools.chain.from_iterable(succ), dtype=np.intp,
                        count=owner.size)
        ext = _min_over_rows(
            count, first, owner,
            lambda rows, sel: val[rows] + cdp_dd[pos[rows], u[sel]][:, None])
        ext[ext + minrl[u][:, None] > cap] = np.inf
        finite = np.isfinite(ext)
        stats.arcs += int(finite.sum())

        # the next level: one state (S | u, u) per live arc, grouped by set
        live = np.flatnonzero(finite.any(axis=1))
        index = {}
        group = np.array([index.setdefault(sets[s] | (1 << t), len(index))
                          for s, t in zip(owner[live].tolist(), u[live].tolist())],
                         dtype=np.intp)
        live = live[np.argsort(group, kind="stable")]
        sets = list(index)
        count = np.bincount(group, minlength=len(sets))
        val, pos = ext[live], u[live]
    return entries, stats


def build_ops_graph(inst: Instance, x: Sequence[int], p: int,
                    model: Optional[object] = None,
                    restricted: bool = True,
                    size_cap: Optional[int] = None) -> OperationCostTable:
    """Forward DP over partial operations; returns the operation cost table.

    restricted=False drops the neighborhood restriction (all subsets), which
    is the exact solver's stage 1. size_cap limits the operation size (used
    by the capped-operations baseline).
    """
    x = tuple(x)
    if sorted(x) != list(range(inst.n_d)):
        raise ValueError("x must be a permutation of all destinations")
    if p < 1:
        raise ValueError("p must be >= 1")
    model = model or BaseCostModel(inst)

    t0 = time.perf_counter()
    entries, stats = _frontier_dp(inst, x, p, model, restricted, size_cap)
    entries = {mask: entries[mask] for mask in sorted(entries)}
    stats.nonterminal_states = int(sum(stats.per_stage))
    stats.elapsed = time.perf_counter() - t0
    return OperationCostTable(entries=entries, p=p, x=x, n_r=inst.n_r,
                              stats=stats, restricted=restricted)


def ops_nonterminal_state_bound(n_d: int, n_r: int, p: int) -> float:
    """Closed-form cap on the number of non-terminal states (valid for
    n_d >= 4p-2)."""
    return n_r * (2 * p - 1) * 4 ** (p - 1) * (
        (2 * p - 3) * p + (n_d - 2 * p + 1) * n_d / 2.0)


# ---------------------------------------------------------------------------
# Order recovery
# ---------------------------------------------------------------------------

def recover_operation_order(inst: Instance, x: Sequence[int], mask: int,
                            w: int, w_prime: int, p: int,
                            restricted: bool = True) -> tuple:
    """Re-derive the visiting order behind a cost-table entry.

    Runs the same DP confined to subsets of the entry's set and walks the
    parents back; returns destination positions in visiting order.
    """
    x = tuple(x)
    cdp_dd, cdp_rd, cdp_dr, _ = _permuted_metrics(inst, x)
    members = [t for t in range(inst.n_d) if (mask >> t) & 1]

    val = {}
    for t in members:
        val[(1 << t, t)] = (float(cdp_rd[w, t]), None)
    frontier = {1 << t for t in members}
    for _ in range(len(members) - 1):
        nxt = set()
        for sub in sorted(frontier):
            if restricted:
                succ = [u for u in valid_successor_indices(sub, p, inst.n_d)
                        if (mask >> u) & 1]
            else:
                succ = [u for u in members if not (sub >> u) & 1]
            for u in succ:
                tgt = sub | (1 << u)
                for v in members:
                    if not (sub >> v) & 1 or (sub, v) not in val:
                        continue
                    cand = val[(sub, v)][0] + cdp_dd[v, u]
                    if (tgt, u) not in val or cand < val[(tgt, u)][0]:
                        val[(tgt, u)] = (cand, (sub, v))
                        nxt.add(tgt)
        frontier = nxt

    best, best_v = np.inf, None
    for v in members:
        state = val.get((mask, v))
        if state is None:
            continue
        cand = state[0] + cdp_dr[v, w_prime]
        if cand < best:
            best, best_v = cand, v

    if best_v is None:
        raise ValueError("entry is not reachable in the restricted graph")
    order = []
    node = (mask, best_v)
    while node is not None:
        order.append(node[1])
        node = val[node][1]
    order.reverse()
    return tuple(order)
