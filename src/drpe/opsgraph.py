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
only if it could still reach its closest RL within the flight-time budget.

Two interchangeable engines produce identical tables:
 - a dense bitmask engine backed by numpy (n_d <= DENSE_ND_LIMIT),
 - a sparse dict engine whose per-state values are vectors over the
   starting RL (large n_d, small p).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Optional, Sequence

import numpy as np

from .model import EPS, BaseCostModel, Instance, SizeGuardError

DENSE_ND_LIMIT = 17
SPARSE_STATE_BUDGET = 8_000_000  # (set, position, start RL) value entries


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


def allowed_last_positions(mask: int, p: int) -> int:
    """Bitmask of positions the drone may currently occupy: members whose
    index exceeds M - p."""
    M = mask.bit_length() - 1
    cut = M - p + 1
    if cut <= 0:
        return mask
    return mask & ~((1 << cut) - 1)


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


@lru_cache(maxsize=8)
def _dense_rule_arrays(n_d: int, p: int):
    """Per-mask validity, successor bitmask and allowed-last bitmask for all
    2^n_d sets. Depends only on (n_d, p), shared across instances."""
    size = 1 << n_d
    valid = np.zeros(size, dtype=bool)
    succ = np.zeros(size, dtype=np.int64)
    last = np.zeros(size, dtype=np.int64)
    valid[0] = True
    for mask in range(1, size):
        if not set_window_valid(mask, p):
            continue
        valid[mask] = True
        s = 0
        for u in valid_successor_indices(mask, p, n_d):
            s |= 1 << u
        succ[mask] = s
        last[mask] = allowed_last_positions(mask, p)
    return valid, succ, last


@lru_cache(maxsize=8)
def _masks_by_popcount(n_d: int):
    size = 1 << n_d
    masks = np.arange(size, dtype=np.int64)
    pc = np.zeros(size, dtype=np.int8)
    for v in range(n_d):
        pc += ((masks >> v) & 1).astype(np.int8)
    return [masks[pc == k] for k in range(n_d + 1)]


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


def _build_dense(inst, x, p, model, restricted, size_cap=None):
    n, n_r = inst.n_d, inst.n_r
    cdp_dd, cdp_rd, cdp_dr, minrl = _permuted_metrics(inst, x)
    cap = model.max_flight
    masks_pc = _masks_by_popcount(n)
    if restricted:
        valid, succ_arr, _ = _dense_rule_arrays(n, p)
        levels = [m[valid[m]] for m in masks_pc]
    else:
        succ_arr = None
        levels = masks_pc
    if size_cap is not None:
        levels = [m for k, m in enumerate(levels) if k <= size_cap]

    stats = OpsGraphStats(per_stage=[0] * (n + 2))
    flights = {}
    bits = np.arange(n, dtype=np.int64)
    chunk = 1 << 14

    for w in range(n_r):
        val = np.full((1 << n, n), np.inf)
        start = cdp_rd[w]
        col = np.where(start + minrl <= cap + EPS, start, np.inf)
        val[np.int64(1) << bits, bits] = col

        for k in range(1, len(levels)):
            Ms = levels[k]
            if Ms.size == 0:
                continue
            for lo in range(0, Ms.size, chunk):
                sub = Ms[lo:lo + chunk]
                A = val[sub]
                finite_states = np.isfinite(A)
                stats.per_stage[k] += int(finite_states.sum())
                if not finite_states.any():
                    continue
                # terminal arcs: close the operation at every RL
                T = (A[:, :, None] + cdp_dr[None, :, :]).min(axis=1)
                for r in np.flatnonzero(np.isfinite(T).any(axis=1)):
                    mat = flights.get(int(sub[r]))
                    if mat is None:
                        mat = np.full((n_r, n_r), np.inf)
                        flights[int(sub[r])] = mat
                    mat[w] = T[r]
                if k == len(levels) - 1:
                    continue
                # extension arcs
                B = (A[:, :, None] + cdp_dd[None, :, :]).min(axis=1)
                B[B + minrl[None, :] > cap + EPS] = np.inf
                if restricted:
                    allowed = ((succ_arr[sub][:, None] >> bits[None, :]) & 1).astype(bool)
                else:
                    allowed = ((sub[:, None] >> bits[None, :]) & 1) == 0
                B[~allowed] = np.inf
                stats.arcs += int(np.isfinite(B).sum())
                for u in range(n):
                    colu = B[:, u]
                    rows = np.flatnonzero(np.isfinite(colu))
                    if rows.size == 0:
                        continue
                    tmask = sub[rows] | (np.int64(1) << u)
                    val[tmask, u] = np.minimum(val[tmask, u], colu[rows])
    return flights, stats


def _build_sparse(inst, x, p, model, restricted, size_cap=None):
    n, n_r = inst.n_d, inst.n_r
    cdp_dd, cdp_rd, cdp_dr, minrl = _permuted_metrics(inst, x)
    cap = model.max_flight
    stats = OpsGraphStats(per_stage=[0] * (n + 2))
    flights = {}

    stage = {}
    for t in range(n):
        vec = cdp_rd[:, t].copy()
        vec[vec + minrl[t] > cap + EPS] = np.inf
        if np.isfinite(vec).any():
            stage[1 << t] = {t: vec}

    k = 1
    total_entries = 0
    while stage:
        nxt = {}
        for mask in sorted(stage):
            group = stage[mask]
            vs = sorted(group)
            A = np.stack([group[v] for v in vs])  # (n_v, n_r) over start RLs
            stats.per_stage[k] += int(np.isfinite(A).sum())
            total_entries += A.size
            if total_entries > SPARSE_STATE_BUDGET:
                raise SizeGuardError(
                    f"neighborhood width p={p} expands past the sparse state "
                    f"budget on this instance; lower p or raise the budget")
            # close the operation at every RL
            C = (A[:, :, None] + cdp_dr[vs][:, None, :]).min(axis=0)
            if np.isfinite(C).any():
                flights[mask] = C
            if k == n or (size_cap is not None and k >= size_cap):
                continue
            if restricted:
                succ = valid_successor_indices(mask, p, n)
            else:
                succ = [u for u in range(n) if not (mask >> u) & 1]
            for u in succ:
                col = (A + cdp_dd[vs, u][:, None]).min(axis=0)
                col[col + minrl[u] > cap + EPS] = np.inf
                if not np.isfinite(col).any():
                    continue
                stats.arcs += int(np.isfinite(col).sum())
                tgt = nxt.setdefault(mask | (1 << u), {})
                if u in tgt:
                    tgt[u] = np.minimum(tgt[u], col)
                else:
                    tgt[u] = col
        stage = nxt
        k += 1
    return flights, stats


def build_ops_graph(inst: Instance, x: Sequence[int], p: int,
                    model: Optional[object] = None,
                    restricted: bool = True,
                    size_cap: Optional[int] = None,
                    engine: str = "auto") -> OperationCostTable:
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
    if engine == "auto":
        engine = "dense" if inst.n_d <= DENSE_ND_LIMIT else "sparse"
    if engine == "dense":
        flights, stats = _build_dense(inst, x, p, model, restricted, size_cap)
    else:
        flights, stats = _build_sparse(inst, x, p, model, restricted, size_cap)

    entries = {}
    for mask in sorted(flights):
        mat = model.finalize_flight_matrix(flights[mask])
        if np.isfinite(mat).any():
            entries[mask] = mat
            stats.terminal_entries += int(np.isfinite(mat).sum())
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
