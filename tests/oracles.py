"""Scalar and brute-force statements of the solvers' rules, kept as ground
truth for the tests; no solver calls them."""

from __future__ import annotations

import itertools
from typing import Optional

import numpy as np

from drpe.energy import ExtendedCosts
from drpe.metagraph import MetaPattern, get_transition_lookup, table_arcs
from drpe.model import DroneTour, Instance, SizeGuardError
from drpe.opsgraph import SetKey, _levels, runs
from drpe.oracle import enumerate_bs_neighbors, split_optimal

BRUTE_FORCE_ND = 7
BRUTE_FORCE_NR = 5


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
    """Positions by which a window-valid set may grow: the scalar
    statement of ``SetKey.successors``'s rule for one set."""
    if mask == 0:
        raise ValueError("successor rule needs a nonempty set")
    m = (mask & -mask).bit_length() - 1
    M = mask.bit_length() - 1
    rest = ~mask >> (m + p)
    g = m + p + (rest & -rest).bit_length() - 1
    return [i for i in range(max(M - p + 1, 0), min(g + p - 1, n_d - 1) + 1)
            if not mask >> i & 1]


def ops_nonterminal_state_bound(n_d: int, n_r: int, p: int) -> float:
    """Closed-form cap on the number of non-terminal states (valid for
    n_d >= 4p-2)."""
    return n_r * (2 * p - 1) * 4 ** (p - 1) * (
        (2 * p - 3) * p + (n_d - 2 * p + 1) * n_d / 2.0)


def valid_at_stage(pattern: MetaPattern, k: int, n_d: int) -> bool:
    """Whether the pattern's displaced positions all lie in 1..n_d at
    stage k: the scalar form of ``TransitionLookup.valid_at``."""
    if pattern.minus and k + max(pattern.minus) > n_d:
        return False
    if pattern.plus and k + min(pattern.plus) < 1:
        return False
    return True


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


def arcs_into_by_filter(costs, inst: Instance, row: int, wp: int) -> tuple:
    """The batch stage 2's walk-back reads for state row ``row`` and end RL
    wp, by a filter over every entry of every arc: (source rows, start
    RLs, makespans, set keys) of the entries into (row, wp), in arc order
    (source stage, then source pattern), each arc's in table order."""
    lookup = get_transition_lookup(costs.p)
    n_pat = len(lookup.patterns)
    stage, gap, a, b, keys, rows = table_arcs(costs, lookup, lookup.valid_at(inst.n_d))
    first, size = costs.lookup(gap, rows)
    w, end, c = costs.gather(gap, first, size)
    arc = np.repeat(np.arange(stage.size), size)
    hit = ((stage + gap) * n_pat + b)[arc] == row
    hit &= end == wp
    return (stage * n_pat + a)[arc[hit]], w[hit], c[hit], keys[arc[hit]]


def sweep_arcs_into_by_filter(table, S: int, wp: int) -> tuple:
    """The batch the exact sweep's walk-back reads for visited set S and
    end RL wp, by a filter over every entry of every set of the table:
    (source sets, start RLs, makespans, operation bitmasks) of the entries
    of the sets inside S that end at wp, by bitmask ascending, then start
    RL."""
    masks, size, row = table.sets()
    first, count = table.lookup(size, row)
    w, end, c = table.gather(size, first, count)
    ops = np.repeat(masks, count)
    hit = np.flatnonzero((ops & S == ops) & (end == wp))
    hit = hit[np.lexsort((w[hit], ops[hit]))]
    return S & ~ops[hit], w[hit], c[hit], ops[hit]


def _recovery_plan(shape: int, p: Optional[int]) -> list:
    """Value-free structure of stage 1's level DP on the positions of
    ``shape`` (a bitmask with bit 0 set), found by running ``_levels`` on
    zero flights: one ``(first, count, pos, src, arcs)`` per level, as
    ``_levels`` yields them, where ``src`` is the previous level's set of
    each row. ``arcs = (rows, cells, starts)`` lists, grouped by row, the
    previous level's rows ``rows`` that extend to it and their flights as
    flat indices ``cells`` into the positions' flight matrix, so a level's
    values are ``np.minimum.reduceat(val[rows] + dd.flat[cells], starts)``."""
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
            rows = runs(p_first[src], n_in)
            arcs = (rows, p_pos[rows] * s + np.repeat(pos, n_in), starts)
        plan.append((first, count, pos, src, arcs))
        prev = count, first, pos
    return plan


def replayed_operation_order(inst: Instance, x, mask: int, w: int, w_prime: int,
                             p: Optional[int]) -> tuple:
    """The visiting order behind one cost-table entry, as destination
    positions: stage 1's level DP replayed on the entry's positions alone
    (``_recovery_plan``), from start RL w only and without energy pruning,
    and walked back from the end, each position the one whose flight plus
    the next leg equals the current value exactly, the smallest position on
    ties. The per-entry statement of ``recover_operation_order``."""
    P, rest = [], mask
    while rest:
        low = rest & -rest
        P.append(low.bit_length() - 1)
        rest ^= low
    plan = _recovery_plan(mask >> P[0], p)
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


def enumerate_valid_operation_sequences(n_d: int, p: int) -> set:
    """Every destination sequence (as positions 0..n_d-1 of the reference
    order) that occurs as a contiguous block of some neighbor order, i.e.
    every ordering that some neighbor tour could fly as one operation."""
    if n_d > 9:
        raise SizeGuardError("operation-sequence enumeration limited to 9 destinations")
    sequences = set()
    for nb in enumerate_bs_neighbors(tuple(range(n_d)), p):
        for a in range(n_d):
            for b in range(a + 1, n_d + 1):
                sequences.add(nb[a:b])
    return sequences


def nearest_neighbor_order(inst: Instance) -> list:
    """The greedy order ``baselines._nearest_neighbor`` builds, one scalar
    minimum per step: the nearest unvisited destination by (flight time,
    destination)."""
    remaining = set(range(inst.n_d))
    order = []
    cur_row = inst.cd_rd[inst.w0]
    while remaining:
        v = min(remaining, key=lambda u: (cur_row[u], u))
        order.append(v)
        remaining.discard(v)
        cur_row = inst.cd_dd[v]
    return order


def randomized_3nn_order(inst: Instance, rng: np.random.Generator) -> tuple:
    """The order ``baselines._randomized_3nn_order`` draws, re-sorting the
    remaining destinations by (flight time, destination) at each step."""
    remaining = list(range(inst.n_d))
    order = []
    row = inst.cd_rd[inst.w0]
    while remaining:
        remaining.sort(key=lambda u: (row[u], u))
        pick = remaining[int(rng.integers(min(3, len(remaining))))]
        order.append(pick)
        remaining.remove(pick)
        row = inst.cd_dd[pick]
    return tuple(order)


def brute_force_optimum(inst: Instance, model: Optional[object] = None) -> DroneTour:
    """Global optimum by trying every destination order; guarded small sizes."""
    if inst.n_d > BRUTE_FORCE_ND or inst.n_r > BRUTE_FORCE_NR:
        raise SizeGuardError(
            f"brute force limited to n_d<={BRUTE_FORCE_ND}, n_r<={BRUTE_FORCE_NR}")
    best = None
    for perm in itertools.permutations(range(inst.n_d)):
        tour = split_optimal(perm, inst, model)
        if best is None or tour.makespan < best.makespan:
            best = tour
    return best


def degenerate_costs(inst: Instance) -> ExtendedCosts:
    """Extended-cost vector that collapses the extended model onto the base
    model: no fixed charges, unit flight current, a budget equal to e_max
    and no reserve."""
    return ExtendedCosts(c_tkof=0.0, c_land=0.0, c_swap=0.0, xi_tkof=0.0,
                         xi_land=0.0, r_fl=1.0, r_hov=0.0, xi_max=inst.e_max,
                         residual=0.0)
