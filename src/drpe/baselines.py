"""Comparison algorithms: initial destination sequence, the
capped-operation-size DP, randomized-restart splitting, and simulated
annealing over destination orders."""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Sequence

import numpy as np

from .exact import _masks_by_popcount, full_meta_sweep, size_guard
from .model import BaseCostModel, Instance, SizeGuardError, check_deadline
from .opsgraph import OperationCostTable
from .oracle import split_optimal
from .reports import SolveReport

# exact initial order up to the small benchmark size; the subset DP takes
# about 0.035 s per call there (Basis-small, one core of a 2-core x86_64
# machine; the first call at a size also builds its index tables) and the
# split-based solvers are very sensitive to the quality of the initial
# order
HELD_KARP_LIMIT = 16
KLIM_GUARD = 4
# annealing schedule: start at ``sa_t0_fraction`` of the initial value,
# cool geometrically every few proposals
SA_COOLING = 0.95
SA_MOVES_PER_TEMP = 20


@dataclass
class BaselineConfig:
    iterations: int = 200
    time_limit: Optional[float] = None
    seed: int = 0
    sa_t0_fraction: float = 0.05


# ---------------------------------------------------------------------------
# Initial destination sequence (aerial shortest path w0 -> all -> wt)
# ---------------------------------------------------------------------------

@lru_cache(maxsize=2)
def _held_karp_steps(n: int) -> tuple:
    """(rank, steps) for the subset DP over n destinations: ``rank[S]`` is
    the index of S among the sets of its size, ascending, and ``steps[k-1]``
    holds the (source, target) flat indices that carry each value (S, u)
    of a (destination x size-k set) array, u not in S, to (S | u, u) of
    the size-k+1 array, and that array's number of sets."""
    levels = _masks_by_popcount(n)
    rank = np.empty(1 << n, dtype=np.intp)
    for Ms in levels:
        rank[Ms] = np.arange(Ms.size)
    steps = []
    for Ms, up in zip(levels[1:n], levels[2:]):
        u, s = np.nonzero((Ms >> np.arange(n)[:, None]) & 1 == 0)
        steps.append(((u * Ms.size + s).astype(np.int32),
                      (u * up.size + rank[Ms[s] | (1 << u)]).astype(np.int32),
                      up.size))
    return rank, steps


def _held_karp_path(inst: Instance) -> tuple:
    n = inst.n_d
    cd_dd, start, finish = inst.cd_dd, inst.cd_rd[inst.w0], inst.cd_dr[:, inst.wt]
    rank, steps = _held_karp_steps(n)
    # vals[k][v, rank[S]]: shortest path over the size-k set S ending at v
    first = np.full((n, n), np.inf)
    np.fill_diagonal(first, start)
    vals = [None, first]
    for src, dst, size in steps:
        At = vals[-1]
        # Bt[u, s] = min over the last destination v of At[v, s] +
        # cd_dd[v, u], folded one v at a time (min is exact, so the order
        # of the fold does not matter)
        Bt = cd_dd[0][:, None] + At[0]
        step = np.empty_like(Bt)
        for v in range(1, n):
            np.minimum(Bt, np.add(cd_dd[v][:, None], At[v], out=step), out=Bt)
        # (S | u, u) is reached from S alone, so each target is written once
        nxt = np.full((n, size), np.inf)
        nxt.reshape(-1)[dst] = Bt.reshape(-1)[src]
        vals.append(nxt)

    ends = vals[n][:, 0] + finish
    order = []
    v = int(np.argmin(ends))
    mask = (1 << n) - 1
    while mask:
        order.append(v)
        prev = mask & ~(1 << v)
        if prev == 0:
            break
        before = vals[prev.bit_count()][:, rank[prev]]
        cand = before + cd_dd[:, v]
        v = int(np.argmin(np.where(np.isfinite(before), cand, np.inf)))
        mask = prev
    order.reverse()
    return tuple(order)


def _path_cost(order, inst) -> float:
    total = inst.cd_rd[inst.w0, order[0]]
    for a, b in zip(order, order[1:]):
        total += inst.cd_dd[a, b]
    return float(total + inst.cd_dr[order[-1], inst.wt])


def _nearest_neighbor(inst: Instance) -> list:
    """Greedy order from w0: each step flies to the nearest unvisited
    destination, the lowest-numbered one on ties."""
    visited = np.zeros(inst.n_d)  # +inf once visited
    order = []
    cur_row = inst.cd_rd[inst.w0]
    for _ in range(inst.n_d):
        v = int(np.argmin(cur_row + visited))
        if visited[v]:  # every unvisited destination is +inf away
            v = int(np.argmin(visited))
        order.append(v)
        visited[v] = np.inf
        cur_row = inst.cd_dd[v]
    return order


def _framed(order, inst) -> np.ndarray:
    """The order as c_d node ids between the start and the target depot."""
    return np.array([inst.n_d + inst.w0, *order, inst.n_d + inst.wt], dtype=np.intp)


def _first_row(delta, rows) -> Optional[int]:
    """The first of ``rows`` whose gains ``delta`` hold one below -1e-9."""
    hit = np.flatnonzero((delta < -1e-9).any(axis=1))
    return int(rows[hit[0]]) if hit.size else None


def _two_opt(order, inst) -> list:
    """First-improvement 2-opt sweeps until none improves; needs a symmetric
    drone metric. The gains of every (first position i, end position j)
    from the scan position on are one 2-D array, so the scan jumps to the
    first i that moves; for that i the gains of every j are one vector, and
    after the first improving reversal the scan goes on from j + 1 against
    the new order."""
    cd = inst.c_d
    path = _framed(order, inst)  # path[i + 1] is order[i]
    n = len(order)
    below = np.tri(n - 1, k=-1, dtype=bool)  # j < i: no reversal
    improved = True
    while improved:
        improved = False
        i = 0
        while i < n - 1:
            # row r is first position i + r, column c end position i + 1 + c
            rows = np.arange(i, n - 1)
            a, oi = path[rows, None], path[rows + 1, None]
            oj, b = path[i + 2:n + 1], path[i + 3:]
            delta = cd[a, oj] + cd[oi, b] - cd[a, oi] - cd[oj, b]
            delta[below[:rows.size, :rows.size]] = np.inf
            i = _first_row(delta, rows)
            if i is None:
                break
            a = path[i]
            j0 = i + 1
            while j0 < n:
                oi, oj, b = path[i + 1], path[j0 + 1:n + 1], path[j0 + 2:]
                delta = cd[a, oj] + cd[oi, b] - cd[a, oi] - cd[oj, b]
                hits = np.flatnonzero(delta < -1e-9)
                if not hits.size:
                    break
                j = j0 + int(hits[0])
                path[i + 1:j + 2] = path[j + 1:i:-1]
                improved = True
                j0 = j + 1
            i += 1
    return path[1:-1].tolist()


def _or_opt(order, inst) -> list:
    """Best-insertion moves of segments of 1, 2 and 3 destinations until
    none improves. The gains of every (segment start i, insertion point j)
    from the scan position on are one 2-D array; the scan jumps to the
    first i whose best gain is below -1e-9 and takes its first best j."""
    cd = inst.c_d
    path = _framed(order, inst)
    n = len(order)
    improved = True
    while improved:
        improved = False
        for seg in (1, 2, 3):
            i = 0
            while i <= n - seg:
                rows = np.arange(i, n - seg + 1)
                head, tail = path[rows + 1, None], path[rows + seg, None]
                before, after = path[rows, None], path[rows + seg + 1, None]
                base_gain = cd[before, head] + cd[tail, after] - cd[before, after]
                # the path without the segment; insertion point j sits
                # between prev[j] and nxt[j]
                point = np.arange(n - seg + 1)
                prev = np.where(point <= rows[:, None], path[point], path[point + seg])
                nxt = np.where(point < rows[:, None], path[point + 1], path[point + seg + 1])
                delta = cd[prev, head] + cd[tail, nxt] - cd[prev, nxt] - base_gain
                delta[rows - i, rows] = np.inf
                i = _first_row(delta, rows)
                if i is None:
                    break
                j = int(np.argmin(delta[i - int(rows[0])]))
                rest = np.concatenate((path[:i + 1], path[i + seg + 1:]))
                path = np.concatenate((rest[:j + 1], path[i + 1:i + seg + 1], rest[j + 1:]))
                improved = True
                i += 1
    return path[1:-1].tolist()


def initial_tsp_sequence(inst: Instance) -> tuple:
    """Shortest aerial path from w0 through all destinations to wt: exact
    below the subset-DP limit, nearest neighbor plus 2-opt and or-opt
    descent above it (2-opt only on a symmetric drone metric).
    Deterministic."""
    if inst.n_d <= HELD_KARP_LIMIT:
        return _held_karp_path(inst)
    symmetric = np.allclose(inst.c_d, inst.c_d.T)
    order = _nearest_neighbor(inst)
    while True:
        before = _path_cost(order, inst)
        if symmetric:
            order = _two_opt(order, inst)
        order = _or_opt(order, inst)
        if _path_cost(order, inst) >= before - 1e-9:
            break
    return tuple(order)


# ---------------------------------------------------------------------------
# Capped operation size
# ---------------------------------------------------------------------------

def _capped_op_table(inst: Instance, klim: int, model, deadline=None) -> OperationCostTable:
    """Makespan of the minimal flight per (w, set, w') over sets of at most
    klim destinations, by exhaustive ordering; ``deadline`` is checked once
    per set size."""
    def pairs():
        for size in range(1, klim + 1):
            check_deadline(deadline)
            for combo in itertools.combinations(range(inst.n_d), size):
                best = np.full((inst.n_r, inst.n_r), np.inf)
                for perm in itertools.permutations(combo):
                    chain = sum(inst.cd_dd[a, b] for a, b in zip(perm, perm[1:]))
                    mat = (inst.cd_rd[:, perm[0], None] + chain
                           + inst.cd_dr[None, perm[-1], :])
                    np.minimum(best, mat, out=best)
                yield sum(1 << v for v in combo), model.price(best)

    return OperationCostTable.from_dense(inst.n_d, inst.n_r, pairs())


def check_klim(klim: int) -> None:
    """Raise ValueError unless klim is an operation-size cap."""
    if klim < 1:
        raise ValueError("klim must be >= 1")


def limop(inst: Instance, klim: int = 2, model: Optional[object] = None,
          time_limit: Optional[float] = None) -> SolveReport:
    """Optimal tour among those whose operations visit at most klim
    destinations each. Refused by ``size_guard`` before any table is built,
    and stopped by ``time_limit``, as ``solve_exact`` is."""
    check_klim(klim)
    if klim > KLIM_GUARD:
        raise SizeGuardError(f"operation-size cap limited to {KLIM_GUARD}")
    size_guard(inst, "limop")
    model = model or BaseCostModel(inst)
    t0 = time.perf_counter()
    deadline = None if time_limit is None else t0 + time_limit
    table = _capped_op_table(inst, klim, model, deadline)
    stage1_s = time.perf_counter() - t0

    tour, stats = full_meta_sweep(inst, table, model, deadline)
    return SolveReport(algorithm=f"limop(klim={klim})", tour=tour,
                       meta_states=stats["meta_states"],
                       meta_arcs=stats["meta_arcs"],
                       wall_time=time.perf_counter() - t0,
                       extras={"klim": klim, "op_sets": sum(ks.size for ks in table.keys),
                               "layers": {"stage1_s": stage1_s, **stats["layers"]}})


# ---------------------------------------------------------------------------
# Randomized-restart and annealing wrappers around the splitter
# ---------------------------------------------------------------------------

def _randomized_3nn_order(inst: Instance, rng: np.random.Generator) -> tuple:
    """Greedy order that steps to one of the three nearest unvisited
    destinations (by flight time, ties by index), drawn uniformly."""
    left = np.ones(inst.n_d, dtype=bool)
    order = []
    row = inst.cd_rd[inst.w0]
    for n_left in range(inst.n_d, 0, -1):
        unvisited = np.flatnonzero(left)
        nearest = unvisited[np.argsort(row[unvisited], kind="stable")[:3]]
        pick = int(nearest[int(rng.integers(min(3, n_left)))])
        order.append(pick)
        left[pick] = False
        row = inst.cd_dd[pick]
    return tuple(order)


def rts_3nn(inst: Instance, config: Optional[BaselineConfig] = None,
            model: Optional[object] = None) -> SolveReport:
    """Restart the splitter from randomized 3-nearest-neighbor orders and
    keep the best tour."""
    config = config or BaselineConfig()
    rng = np.random.default_rng(config.seed)
    t0 = time.perf_counter()
    best, done = None, 0
    for _ in range(config.iterations):
        if config.time_limit is not None and time.perf_counter() - t0 >= config.time_limit:
            break
        order = _randomized_3nn_order(inst, rng)
        tour = split_optimal(order, inst, model=model)
        done += 1
        if best is None or tour.makespan < best.makespan:
            best = tour
    if best is None:  # zero-budget call still returns a feasible tour
        best = split_optimal(_randomized_3nn_order(inst, rng), inst, model=model)
    return SolveReport(algorithm="rts-3nn", tour=best, iterations=done,
                       wall_time=time.perf_counter() - t0, extras={"seed": config.seed})


def _three_opt_move(order: list, rng: np.random.Generator) -> list:
    n = len(order)
    if n < 3:
        return list(reversed(order))
    # distinct sorted cut points leave two nonempty middle segments
    a, b, c = sorted(rng.choice(n + 1, size=3, replace=False).tolist())
    head, seg1, seg2, tail = order[:a], order[a:b], order[b:c], order[c:]
    variants = (
        head + seg1[::-1] + seg2 + tail,
        head + seg1 + seg2[::-1] + tail,
        head + seg1[::-1] + seg2[::-1] + tail,
        head + seg2 + seg1 + tail,
        head + seg2 + seg1[::-1] + tail,
        head + seg2[::-1] + seg1 + tail,
        head + seg2[::-1] + seg1[::-1] + tail,
    )
    return variants[int(rng.integers(7))]


def sa_rts_3opt(inst: Instance, config: Optional[BaselineConfig] = None,
                model: Optional[object] = None,
                x0: Optional[Sequence[int]] = None) -> SolveReport:
    """Simulated annealing over destination orders with random 3-exchange
    proposals; every order is evaluated by optimal replenishment insertion."""
    config = config or BaselineConfig()
    rng = np.random.default_rng(config.seed)
    t0 = time.perf_counter()
    if x0 is None:
        x0 = initial_tsp_sequence(inst)
    cur = list(x0)
    cur_tour = split_optimal(cur, inst, model=model)
    cur_val = cur_tour.makespan
    best = cur_tour
    temp = config.sa_t0_fraction * cur_val
    done = 0
    for it in range(config.iterations):
        if config.time_limit is not None and time.perf_counter() - t0 >= config.time_limit:
            break
        cand = _three_opt_move(cur, rng)
        tour = split_optimal(cand, inst, model=model)
        done += 1
        delta = tour.makespan - cur_val
        accept = delta < 0
        if not accept and temp > 0:
            accept = rng.random() < math.exp(-delta / temp)
        if accept:
            cur, cur_val = list(cand), tour.makespan
            if tour.makespan < best.makespan:
                best = tour
        if (it + 1) % SA_MOVES_PER_TEMP == 0:
            temp *= SA_COOLING
    return SolveReport(algorithm="sa-rts-3opt", tour=best, iterations=done,
                       wall_time=time.perf_counter() - t0,
                       extras={"seed": config.seed, "t0": config.sa_t0_fraction,
                               "cooling": SA_COOLING})
