"""Comparison algorithms: initial destination sequence, the
capped-operation-size DP, randomized-restart splitting, and simulated
annealing over destination orders."""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .exact import ND_CAP, _masks_by_popcount, check_deadline, full_meta_sweep
from .model import BaseCostModel, Instance, SizeGuardError
from .oracle import split_optimal
from .reports import SolveReport

# exact initial order up to the small benchmark size; the subset DP stays
# under half a second there and the split-based solvers are very sensitive
# to the quality of the initial order
HELD_KARP_LIMIT = 16
KLIM_GUARD = 4


@dataclass
class BaselineConfig:
    iterations: int = 200
    time_limit: Optional[float] = None
    seed: int = 0
    # annealing schedule: start at a fraction of the initial value, cool
    # geometrically every few proposals
    sa_t0_fraction: float = 0.05
    sa_cooling: float = 0.95
    sa_moves_per_temp: int = 20


# ---------------------------------------------------------------------------
# Initial destination sequence (aerial shortest path w0 -> all -> wt)
# ---------------------------------------------------------------------------

def _held_karp_path(inst: Instance) -> tuple:
    n = inst.n_d
    cd_dd, start, finish = inst.cd_dd, inst.cd_rd[inst.w0], inst.cd_dr[:, inst.wt]
    full = (1 << n) - 1
    val = np.full((full + 1, n), np.inf)
    for v in range(n):
        val[1 << v, v] = start[v]
    masks_pc = _masks_by_popcount(n)
    for k in range(1, n):
        Ms = masks_pc[k]
        A = val[Ms]
        rows = np.isfinite(A).any(axis=1)
        Ms, A = Ms[rows], A[rows]
        B = (A[:, :, None] + cd_dd[None, :, :]).min(axis=1)
        for u in range(n):
            free = (Ms >> u) & 1 == 0
            if not free.any():
                continue
            tgt = Ms[free] | (1 << u)
            val[tgt, u] = np.minimum(val[tgt, u], B[free, u])

    ends = val[full] + finish
    order = []
    v = int(np.argmin(ends))
    mask = full
    while mask:
        order.append(v)
        prev = mask & ~(1 << v)
        if prev == 0:
            break
        cand = val[prev] + cd_dd[:, v]
        v = int(np.argmin(np.where(np.isfinite(val[prev]), cand, np.inf)))
        mask = prev
    order.reverse()
    return tuple(order)


def _path_cost(order, inst) -> float:
    total = inst.cd_rd[inst.w0, order[0]]
    for a, b in zip(order, order[1:]):
        total += inst.cd_dd[a, b]
    return float(total + inst.cd_dr[order[-1], inst.wt])


def _nearest_neighbor(inst: Instance) -> list:
    remaining = set(range(inst.n_d))
    order = []
    cur_row = inst.cd_rd[inst.w0]
    while remaining:
        v = min(remaining, key=lambda u: (cur_row[u], u))
        order.append(v)
        remaining.discard(v)
        cur_row = inst.cd_dd[v]
    return order


def _two_opt(order, inst) -> list:
    # segment reversal needs a symmetric drone metric
    if not np.allclose(inst.c_d, inst.c_d.T):
        return list(order)
    order = list(order)
    n = len(order)
    cd = inst.c_d
    nd = inst.n_d

    def node(i):
        if i < 0:
            return nd + inst.w0
        if i >= n:
            return nd + inst.wt
        return order[i]

    improved = True
    while improved:
        improved = False
        for i in range(n - 1):
            a = node(i - 1)
            for j in range(i + 1, n):
                b = node(j + 1)
                delta = (cd[a, order[j]] + cd[order[i], b]
                         - cd[a, order[i]] - cd[order[j], b])
                if delta < -1e-9:
                    order[i:j + 1] = reversed(order[i:j + 1])
                    improved = True
    return order


def _or_opt(order, inst) -> list:
    order = list(order)
    n = len(order)
    cd = inst.c_d
    nd = inst.n_d

    def node(i):
        if i < 0:
            return nd + inst.w0
        if i >= len(order):
            return nd + inst.wt
        return order[i]

    improved = True
    while improved:
        improved = False
        for seg in (1, 2, 3):
            for i in range(0, n - seg + 1):
                chunk = order[i:i + seg]
                rest = order[:i] + order[i + seg:]
                base_gain = (cd[node(i - 1), chunk[0]]
                             + cd[chunk[-1], node(i + seg)]
                             - cd[node(i - 1), node(i + seg)])
                best_j, best_delta = None, -1e-9
                for j in range(len(rest) + 1):
                    if j == i:
                        continue
                    prev = rest[j - 1] if j > 0 else nd + inst.w0
                    nxt = rest[j] if j < len(rest) else nd + inst.wt
                    add = cd[prev, chunk[0]] + cd[chunk[-1], nxt] - cd[prev, nxt]
                    delta = add - base_gain
                    if delta < best_delta:
                        best_delta, best_j = delta, j
                if best_j is not None:
                    order = rest[:best_j] + chunk + rest[best_j:]
                    improved = True
    return order


def initial_tsp_sequence(inst: Instance) -> tuple:
    """Shortest aerial path from w0 through all destinations to wt: exact
    below the subset-DP limit, nearest neighbor plus 2-opt and or-opt
    descent above it. Deterministic."""
    if inst.n_d <= HELD_KARP_LIMIT:
        return _held_karp_path(inst)
    order = _nearest_neighbor(inst)
    while True:
        before = _path_cost(order, inst)
        order = _two_opt(order, inst)
        order = _or_opt(order, inst)
        if _path_cost(order, inst) >= before - 1e-9:
            break
    return tuple(order)


# ---------------------------------------------------------------------------
# Capped operation size
# ---------------------------------------------------------------------------

def _capped_op_table(inst: Instance, klim: int, model) -> dict:
    """Minimal flight per (w, set, w') over sets of at most klim
    destinations, by exhaustive ordering."""
    n = inst.n_d
    flights = {}
    for size in range(1, klim + 1):
        for combo in itertools.combinations(range(n), size):
            best = np.full((inst.n_r, inst.n_r), np.inf)
            for perm in itertools.permutations(combo):
                chain = 0.0
                for a, b in zip(perm, perm[1:]):
                    chain += inst.cd_dd[a, b]
                mat = (inst.cd_rd[:, perm[0], None] + chain
                       + inst.cd_dr[None, perm[-1], :])
                np.minimum(best, mat, out=best)
            best = model.finalize_flight_matrix(best)
            if np.isfinite(best).any():
                mask = 0
                for v in combo:
                    mask |= 1 << v
                flights[mask] = best
    return flights


def limop(inst: Instance, klim: int = 2, model: Optional[object] = None,
          time_limit: Optional[float] = None) -> SolveReport:
    """Optimal tour among those whose operations visit at most klim
    destinations each. Raises ``TimeLimitError`` as ``solve_exact`` does."""
    if klim < 1:
        raise ValueError("klim must be >= 1")
    if klim > KLIM_GUARD:
        raise SizeGuardError(f"operation-size cap limited to {KLIM_GUARD}")
    if inst.n_d > ND_CAP:
        raise SizeGuardError(f"limop capped at {ND_CAP} destinations")
    model = model or BaseCostModel(inst)
    t0 = time.perf_counter()
    deadline = None if time_limit is None else t0 + time_limit
    flights = _capped_op_table(inst, klim, model)
    stage1_s = time.perf_counter() - t0
    check_deadline(deadline)

    tour, stats = full_meta_sweep(inst, flights, model, deadline)
    return SolveReport(algorithm=f"limop(klim={klim})", tour=tour,
                       makespan=tour.makespan,
                       meta_states=stats["meta_states"],
                       meta_arcs=stats["meta_arcs"],
                       wall_time=time.perf_counter() - t0,
                       extras={"klim": klim, "op_sets": len(flights),
                               "layers": {"stage1_s": stage1_s, **stats["layers"]}})


# ---------------------------------------------------------------------------
# Randomized-restart and annealing wrappers around the splitter
# ---------------------------------------------------------------------------

def _randomized_3nn_order(inst: Instance, rng: np.random.Generator) -> tuple:
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
    return SolveReport(algorithm="rts-3nn", tour=best, makespan=best.makespan,
                       iterations=done, wall_time=time.perf_counter() - t0,
                       extras={"seed": config.seed})


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
        if (it + 1) % config.sa_moves_per_temp == 0:
            temp *= config.sa_cooling
    return SolveReport(algorithm="sa-rts-3opt", tour=best, makespan=best.makespan,
                       iterations=done, wall_time=time.perf_counter() - t0,
                       extras={"seed": config.seed, "t0": config.sa_t0_fraction,
                               "cooling": config.sa_cooling})
