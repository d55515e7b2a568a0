"""The precedence neighborhood by enumeration, and the optimal splitter.

``is_bs_neighbor`` and ``enumerate_bs_neighbors`` state the width-p
neighborhood order by order; ``drpe enumerate`` checks stage 2's count
against them, guarded to small sizes. ``split_optimal`` inserts
replenishment optimally into a fixed destination order, walking back with
stage 2's ``walk_back``; the searches and the split-based baselines call it.
"""

from __future__ import annotations

import itertools
from typing import Optional, Sequence

import numpy as np

from .metagraph import walk_back
from .model import BaseCostModel, DroneTour, InfeasibleError, Instance, SizeGuardError
from .opsgraph import check_width

ENUMERATION_GUARD = 10  # factorial guard for neighborhood enumeration


def is_bs_neighbor(x: Sequence[int], x_prime: Sequence[int], p: int) -> bool:
    """True iff x_prime keeps every element at most p-1 steps ahead of any
    element it overtakes: whenever j >= i + p, the j-th element of x must
    appear after the i-th."""
    check_width(p)
    if len(x) != len(x_prime) or set(x) != set(x_prime):
        raise ValueError("orders must be permutations of the same destinations")
    position = {v: i for i, v in enumerate(x_prime)}
    sigma = [position[v] for v in x]
    n = len(sigma)
    for i in range(n):
        for j in range(i + p, n):
            if sigma[j] <= sigma[i]:
                return False
    return True


def enumerate_bs_neighbors(x: Sequence[int], p: int) -> list:
    """All neighbor orders, lexicographic by position in x."""
    x = tuple(x)
    if len(x) > ENUMERATION_GUARD:
        raise SizeGuardError(f"enumeration limited to {ENUMERATION_GUARD} destinations")
    return [perm for perm in itertools.permutations(x) if is_bs_neighbor(x, perm, p)]


# ---------------------------------------------------------------------------
# Optimal replenishment insertion for a fixed destination order
# ---------------------------------------------------------------------------

def _block_entries(x: tuple, inst: Instance, model) -> tuple:
    """The finite operation entries of every block of x: arrays (i, j, w,
    w', makespan) for the block x[i:j] flown from RL w to RL w', sorted by
    block start i, then block length, then start RL w, then end RL w'.

    Blocks are enumerated one length at a time for all start cuts at once.
    A (block, start RL) row survives to the next length only while every
    prefix flight of the block so far stayed within ``model.flight_cap``;
    each surviving row is priced against every end RL with the rover times
    of its start RL."""
    n_d, n_r = inst.n_d, inst.n_r
    c_r, cap = inst.c_r, model.flight_cap
    xs = np.asarray(x, dtype=np.intp)
    land = inst.cd_dr[xs]  # landing from position t at each RL
    hop = inst.cd_dd[xs[:-1], xs[1:]]  # flight from position t to t + 1
    i = np.repeat(np.arange(n_d), n_r)
    w = np.tile(np.arange(n_r), n_d)
    acc = inst.cd_rd[w, xs[i]]  # partial flight through position last
    parts = []
    for length in range(n_d + 1):
        last = i + length
        weight = model.price(acc[:, None] + land[last], c_r[w])
        k = np.flatnonzero(np.isfinite(weight))  # 2-D nonzero is ~10x slower
        r, wp = np.divmod(k, n_r)
        parts.append((i[r], last[r] + 1, w[r], wp, weight.reshape(-1)[k]))
        keep = (acc <= cap) & (last + 1 < n_d)
        if not keep.any():
            break
        i, w = i[keep], w[keep]
        acc = acc[keep] + hop[last[keep]]
    cols = [np.concatenate(col) for col in zip(*parts)]
    order = np.argsort(cols[0], kind="stable")
    return tuple(col[order] for col in cols)


def split_optimal(x: Sequence[int], inst: Instance,
                  model: Optional[object] = None) -> DroneTour:
    """Minimum-makespan tour whose destination order is exactly x.

    Dynamic program over (visited prefix length, current RL); every
    contiguous block of x is one candidate operation followed by one
    (possibly trivial) recharging leg. Only the finite (block, start RL, end
    RL) entries are kept (``_block_entries``). Pricing them costs
    O(L n_d n_r^2) for L the longest block that some (block, start RL) row
    reaches within the flight cap. From the TSP order of Basis-large s1
    (n_d=100, n_r=49) that is L=9 and 8,740 rows, 4,900 of them at length
    one: 428k priced values, of which 9,176 are finite. The forward pass
    scatters each cut's entries into the pre-leg labels g with one
    ``minimum.at`` and takes the leg minimum into f, O(E + n_d n_r^2) for E
    entries. The walk-back is stage 2's ``walk_back`` over these entries,
    O(E) per operation: ties keep the leg from the lowest RL, then the
    lowest block start, then the lowest start RL.
    """
    x = tuple(x)
    if sorted(x) != list(range(inst.n_d)):
        raise ValueError("x must be a permutation of all destinations")
    model = model or BaseCostModel(inst)
    n_d, n_r, c_r = inst.n_d, inst.n_r, inst.c_r
    start, end, rl, end_rl, weight = _block_entries(x, inst, model)

    # f[i, w]: best makespan after the first i destinations and the following
    # recharging leg, ending at RL w; g[j, w']: the same before that leg
    f = np.full((n_d + 1, n_r), np.inf)
    g = np.full((n_d + 1, n_r), np.inf)
    f[0] = c_r[inst.w0]
    bounds = np.searchsorted(start, np.arange(n_d + 1))
    target = end * n_r + end_rl
    for i in range(n_d):
        cut = slice(bounds[i], bounds[i + 1])
        np.minimum.at(g.reshape(-1), target[cut], f[i, rl[cut]] + weight[cut])
        f[i + 1] = (g[i + 1][:, None] + c_r).min(axis=0)

    if not np.isfinite(f[n_d, inst.wt]):
        raise InfeasibleError("no feasible replenishment insertion for this order")

    def arcs_into(j, wp):
        # block start ascending, then start RL ascending
        into = np.flatnonzero(target == j * n_r + wp)
        yield start[into], rl[into], weight[into], [slice(i, j) for i in start[into].tolist()]

    return walk_back(inst, f, g, n_d, arcs_into, lambda block, w, wp: x[block], model)

