"""Reference implementations used as ground truth in tests and as the
route-first-split-second building block.

``split_optimal`` inserts replenishment optimally into a fixed destination
order; the searches and the split-based baselines call it. Everything else
is deliberately brute force and guarded by size limits.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .model import (
    BaseCostModel,
    DroneTour,
    InfeasibleError,
    Instance,
    Operation,
    RechargingLeg,
    SizeGuardError,
    build_tour,
)

ENUMERATION_GUARD = 10  # factorial guard for neighborhood enumeration
BRUTE_FORCE_ND = 7
BRUTE_FORCE_NR = 5


@dataclass(frozen=True)
class Permutation:
    """Positions of a reference order's elements within another order.

    sigma[t] is the 1-based position of the reference order's (t+1)-th
    element; inverse[pos] recovers the reference index at that position.
    """

    sigma: tuple
    inverse: tuple

    @classmethod
    def relative(cls, x: Sequence[int], x_prime: Sequence[int]) -> "Permutation":
        if len(x) != len(x_prime) or set(x) != set(x_prime):
            raise ValueError("orders must be permutations of the same destinations")
        pos_in_prime = {v: i + 1 for i, v in enumerate(x_prime)}
        sigma = tuple(pos_in_prime[v] for v in x)
        inverse = [0] * len(x)
        for t, pos in enumerate(sigma):
            inverse[pos - 1] = t + 1
        return cls(sigma=sigma, inverse=tuple(inverse))


def is_bs_neighbor(x: Sequence[int], x_prime: Sequence[int], p: int) -> bool:
    """True iff x_prime keeps every element at most p-1 steps ahead of any
    element it overtakes: whenever j >= i + p, the j-th element of x must
    appear after the i-th."""
    if p < 1:
        raise ValueError("p must be >= 1")
    sigma = Permutation.relative(x, x_prime).sigma
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


# ---------------------------------------------------------------------------
# Optimal replenishment insertion for a fixed destination order
# ---------------------------------------------------------------------------

def split_optimal(x: Sequence[int], inst: Instance,
                  model: Optional[object] = None) -> DroneTour:
    """Minimum-makespan tour whose destination order is exactly x.

    Dynamic program over (visited prefix length, current RL); every
    contiguous block of x is considered as one operation followed by one
    (possibly trivial) recharging leg. O(n_d^2 n_r^2), one (start RL x end
    RL) makespan matrix per block. Ties keep the first minimum: the first
    (block start, start RL) for an operation, the first leg start for a leg.
    """
    x = tuple(x)
    if sorted(x) != list(range(inst.n_d)):
        raise ValueError("x must be a permutation of all destinations")
    model = model or BaseCostModel(inst)
    n_d, n_r = inst.n_d, inst.n_r
    c_r, cd_rd, cd_dr, cd_dd = inst.c_r, inst.cd_rd, inst.cd_dr, inst.cd_dd
    cut = model.flight_cap

    # f[i, w]: best makespan after the first i destinations and the following
    # recharging leg, ending at RL w; g[j, w']: the same before that leg.
    f = np.full((n_d + 1, n_r), np.inf)
    g = np.full((n_d + 1, n_r), np.inf)
    f_parent = np.zeros((n_d + 1, n_r), dtype=np.intp)  # leg start RL
    g_parent = np.zeros((n_d + 1, n_r), dtype=np.intp)  # i * n_r + start RL
    f[0] = c_r[inst.w0]

    for i in range(n_d):
        # partial flight of block x[i:j] from each start RL; +inf marks a start
        # that is unreachable or whose partial flight already broke the cap
        acc = np.where(np.isfinite(f[i]), cd_rd[:, x[i]], np.inf)
        for j in range(i + 1, n_d + 1):
            last = x[j - 1]
            flights = model.finalize_flight_matrix(acc[:, None] + cd_dr[last])
            cand = f[i][:, None] + model.makespan_matrix(flights)
            best = cand.min(axis=0)
            better = best < g[j]
            if better.any():
                g[j, better] = best[better]
                g_parent[j, better] = i * n_r + cand.argmin(axis=0)[better]
            acc[acc > cut] = np.inf
            if j == n_d or not np.isfinite(acc).any():
                break
            acc += cd_dd[last, x[j]]
        legs = g[i + 1][:, None] + c_r
        f[i + 1] = legs.min(axis=0)
        f_parent[i + 1] = legs.argmin(axis=0)

    if not np.isfinite(f[n_d, inst.wt]):
        raise InfeasibleError("no feasible replenishment insertion for this order")

    # walk the parents back from (n_d, wt)
    rev = []
    j, w = n_d, inst.wt
    while j > 0:
        wp = int(f_parent[j, w])
        rev.append(RechargingLeg(wp, w))
        i, ws = divmod(int(g_parent[j, wp]), n_r)
        rev.append(Operation(ws, tuple(x[i:j]), wp))
        j, w = i, ws
    rev.append(RechargingLeg(inst.w0, w))
    return build_tour(inst, reversed(rev), model)


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
