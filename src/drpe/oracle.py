"""The precedence neighborhood by enumeration, and the optimal splitter.

``is_bs_neighbor`` and ``enumerate_bs_neighbors`` state the width-p
neighborhood order by order; ``drpe enumerate`` checks stage 2's count
against them, guarded to small sizes. ``split_optimal`` inserts
replenishment optimally into a fixed destination order, walking back with
stage 2's ``walk_back``; the searches and the split-based baselines call it.
``block_prices`` prices the blocks of one order for the splits of orders
that keep most of them, as the searches' wrap-around orders do.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .metagraph import WALK_BACK_TOL, walk_back
from .model import EPS, BaseCostModel, DroneTour, InfeasibleError, Instance, SizeGuardError
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

class BlockPrices(NamedTuple):
    """The priced blocks of one order (``block_prices``): ``entries`` as
    ``_block_entries`` gives them, ``position[d]`` the cut of destination d
    in that order, and ``grown[l, s, w]`` the partial flight of the row (s,
    w) through position s + l where it and every shorter prefix flight of
    the row stay within the flight cap, else +inf."""

    position: np.ndarray
    entries: tuple
    grown: np.ndarray


def _shared_blocks(x: np.ndarray, prices: BlockPrices) -> tuple:
    """(entries, rows) of x read from ``prices``: the entries of every block
    of x that is a block of the priced order, renumbered to x's cuts but in
    the priced order's entry order, and the rows (i, w, l, partial flight
    through position i + l) whose prefix flights stay within the flight cap
    up to position i + l, the last before the first break of x from the
    priced order at or after cut i."""
    n_d, n_r = len(x), prices.grown.shape[2]
    at = prices.position[x]  # cut of each position of x in the priced order
    cuts = np.arange(n_d)
    ends = np.append(np.flatnonzero(at[1:] != at[:-1] + 1), n_d - 1)
    # shared[t]: length of the longest priced block from cut t, which ends
    # at the first break at or after t
    shared = ends[np.searchsorted(ends, cuts)] + 1 - cuts
    start, end, rl, end_rl, weight = prices.entries
    cut = np.empty(n_d, dtype=np.intp)  # cut of x of each priced cut
    cut[at] = cuts
    t, length = cut[start], end - start
    k = np.flatnonzero(length <= shared[t])
    entries = (t[k], t[k] + length[k], rl[k], end_rl[k], weight[k])

    t = np.flatnonzero((shared < n_d - cuts) & (shared <= len(prices.grown)))
    acc = prices.grown[shared[t] - 1, at[t]]
    k = np.flatnonzero(acc < np.inf)
    r, w = np.divmod(k, n_r)
    i = t[r]
    return entries, (i, w, shared[i] - 1, acc.reshape(-1)[k])


def _block_entries(x: tuple, inst: Instance, model, prices: Optional[BlockPrices] = None):
    """(entries, fits): the finite operation entries of every block of x,
    as arrays (i, j, w, w', makespan) for the block x[i:j] flown from RL w
    to RL w', sorted by block start i, then block length, then start RL w,
    then end RL w'; and the rows (i, w, l, partial flight) priced here
    whose prefix flight through position i + l stayed within the flight
    cap.

    Blocks are enumerated one length at a time for all start cuts at once.
    A (block, start RL) row survives to the next length only while every
    prefix flight of the block so far stayed within ``model.flight_cap``;
    each surviving row is priced against every end RL with the rover times
    of its start RL. A block's entries depend only on its destinations, so
    the blocks of x that are blocks of the priced order are read from
    ``prices`` (``_shared_blocks``), and a row is priced only past the first
    cut where x breaks that order. Without ``prices`` every block is new."""
    n_d, n_r = inst.n_d, inst.n_r
    c_r, cap = inst.c_r, model.flight_cap
    xs = np.asarray(x, dtype=np.intp)
    hop = inst.cd_dd[xs[:-1], xs[1:]]  # flight from position t to t + 1
    # a row (i, w) flies x[i:last + 1] so far, starting from RL w; its
    # partial flight acc runs through position last
    if prices is None:
        parts = []
        i, w = np.divmod(np.arange(n_d * n_r), n_r)
        last = i
        acc = inst.cd_rd[w, xs[i]]
    else:
        reused, (i, w, length, acc) = _shared_blocks(xs, prices)
        parts = [reused]
        last = i + length + 1
        acc = acc + hop[last - 1]
    fits = []
    while i.size:
        weight = model.price(acc[:, None] + inst.cd_dr[xs[last]], c_r[w])
        k = np.flatnonzero(np.isfinite(weight))  # 2-D nonzero is ~10x slower
        r, wp = np.divmod(k, n_r)
        parts.append((i[r], last[r] + 1, w[r], wp, weight.reshape(-1)[k]))
        fit = acc <= cap
        fits.append((i[fit], w[fit], last[fit] - i[fit], acc[fit]))
        keep = fit & (last + 1 < n_d)
        i, w, last = i[keep], w[keep], last[keep]
        acc = acc[keep] + hop[last]
        last += 1
    cols = [np.concatenate(col) for col in zip(*parts)]
    order = np.argsort(cols[0], kind="stable")
    return tuple(col[order] for col in cols), [np.concatenate(col) for col in zip(*fits)]


def _check_order(x: tuple, inst: Instance) -> None:
    if sorted(x) != list(range(inst.n_d)):
        raise ValueError("x must be a permutation of all destinations")


def block_prices(x: Sequence[int], inst: Instance, model: Optional[object] = None) -> BlockPrices:
    """Every block of x priced once, for ``split_optimal(y, ..., prices=)``
    on orders y that keep most blocks of x, under the same instance and
    model."""
    x = tuple(x)
    _check_order(x, inst)
    n_d = inst.n_d
    entries, (i, w, length, acc) = _block_entries(x, inst, model or BaseCostModel(inst))
    # how far each row grows within the flight cap, with its partial flights
    grown = np.full((length.max(initial=0) + 1, n_d, inst.n_r), np.inf)
    grown[length, i, w] = acc
    position = np.empty(n_d, dtype=np.intp)
    position[list(x)] = np.arange(n_d)
    return BlockPrices(position, entries, grown)


def split_optimal(x: Sequence[int], inst: Instance,
                  model: Optional[object] = None,
                  prices: Optional[BlockPrices] = None,
                  incumbent: Optional[DroneTour] = None) -> DroneTour:
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
    scanning per operation those whose block starts within the longest
    block before the cut: ties keep the leg from the lowest RL, then the
    lowest block start, then the lowest start RL.

    ``prices`` (``block_prices`` of another order under the same instance
    and model) supplies the blocks x shares with that order, so only the
    blocks across x's breaks from it are priced. With an ``incumbent``, the
    result is the split only if it beats the incumbent by more than EPS,
    else the incumbent itself; an order whose forward value cannot beat it
    (``WALK_BACK_TOL`` included), infeasible ones too, is not walked back.
    """
    x = tuple(x)
    _check_order(x, inst)
    if prices is not None and len(prices.position) != inst.n_d:
        raise ValueError("prices are for an order over other destinations")
    model = model or BaseCostModel(inst)
    n_d, n_r, c_r = inst.n_d, inst.n_r, inst.c_r
    (start, end, rl, end_rl, weight), _ = _block_entries(x, inst, model, prices)

    # f[i, w]: best makespan after the first i destinations and the following
    # recharging leg, ending at RL w; g[j, w']: the same before that leg
    f = np.full((n_d + 1, n_r), np.inf)
    g = np.full((n_d + 1, n_r), np.inf)
    f[0] = c_r[inst.w0]
    bounds = np.searchsorted(start, np.arange(n_d + 1)).tolist()
    target = end * n_r + end_rl
    source = start * n_r + rl
    legs = np.empty((n_r, n_r))
    for i in range(n_d):
        a, b = bounds[i], bounds[i + 1]
        np.minimum.at(g.reshape(-1), target[a:b], f.reshape(-1)[source[a:b]] + weight[a:b])
        np.add(g[i + 1][:, None], c_r, out=legs)
        legs.min(axis=0, out=f[i + 1])

    value = f[n_d, inst.wt]
    if incumbent is not None and value - WALK_BACK_TOL >= incumbent.makespan - EPS:
        return incumbent
    if not np.isfinite(value):
        raise InfeasibleError("no feasible replenishment insertion for this order")

    longest = int((end - start).max())

    def arcs_into(j, wp):
        # blocks into cut j start at one of the ``longest`` cuts before it;
        # block start ascending, then start RL ascending
        lo = bounds[max(j - longest, 0)]
        into = lo + np.flatnonzero(target[lo:bounds[j]] == j * n_r + wp)
        yield start[into], rl[into], weight[into], [slice(i, j) for i in start[into].tolist()]

    tour = walk_back(inst, f, g, n_d, arcs_into,
                     lambda ops: [x[block] for block, _, _ in ops], model)
    if incumbent is not None and not tour.makespan < incumbent.makespan - EPS:
        return incumbent
    return tour
