"""Neighborhood search: single-neighborhood VLSN, local search, variable
neighborhood descent, and the route-first-split-second baseline.

vlsn(x, p) finds the best tour whose destination order stays within the
precedence neighborhood of x (two-stage DP). Descent re-centers on the
incumbent's order, widens p after every failed attempt and resets it after
every success; local search is descent at one width. A descent splits each
destination order at most once: a wrap-around order it has split already
cannot beat its incumbent, which only improves.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional, Sequence

from .baselines import initial_tsp_sequence
from .model import (EPS, BaseCostModel, DroneTour, Instance, SizeGuardError, TimeLimitError,
                    check_deadline)
from .metagraph import solve_meta
from .opsgraph import build_ops_graph
from .oracle import BlockPrices, block_prices, split_optimal
from .reports import SolveReport


@dataclass
class SearchConfig:
    p0: int = 2
    p_max: int = 8
    time_limit: Optional[float] = None

    def __post_init__(self):
        if not 1 <= self.p0 <= self.p_max:
            raise ValueError("need 1 <= p0 <= p_max")


def shifted_permutations(x: Sequence[int], p: int) -> list:
    """Wrap-around moves for single-depot tours: bring one of the first p-1
    elements to the tail or one of the last p-1 to the head, keeping the
    combined distance to the sequence boundary below p. Yields at most
    p(p-1) distinct orders."""
    n = len(x)
    out = {}
    for a in range(min(p - 1, n)):
        for b in range(p - 1 - a):
            # head to tail, then tail to head
            for src, dst in ((a, n - 1 - b), (n - 1 - a, b)):
                y = list(x)
                y.insert(dst, y.pop(src))
                out[tuple(y)] = None
    out.pop(tuple(x), None)
    return list(out)


def _wraps_around(inst: Instance, p: int) -> bool:
    """Whether ``vlsn`` at width p also splits wrap-around orders."""
    return inst.w0 == inst.wt and p >= 2


def vlsn(inst: Instance, x: Sequence[int], p: int,
         model: Optional[object] = None,
         deadline: Optional[float] = None,
         prices: Optional[BlockPrices] = None,
         incumbent: Optional[DroneTour] = None,
         settled: Optional[set] = None) -> SolveReport:
    """Best tour in the order neighborhood of x at width p; with an
    ``incumbent``, that tour only if it beats the incumbent by more than
    EPS, else the incumbent itself (``solve_meta(incumbent=)``, which then
    walks back no neighborhood that cannot beat it).

    For single-depot instances the wrap-around orders excluded by the
    neighborhood are additionally split, each against the best tour so far
    and from one pricing of the blocks of x (``block_prices``, or
    ``prices`` when given, which must be those of x under this model).
    With ``settled``, a set of orders already split against incumbents no
    better than ``incumbent``, the orders in it are skipped and the orders
    split are added to it; ``extras["shifted_orders"]`` counts the orders
    split and ``extras["settled_orders"]`` those skipped.
    ``extras["layers"]`` holds the seconds spent in stage 1, stage 2's
    forward pass, the recovery of the tour and its operation orders, and
    those splits. Past ``deadline`` (a ``time.perf_counter()`` value,
    checked at each stage-1 level, each stage-2 stage and each wrap-around
    order) the search raises ``TimeLimitError``.
    """
    x = tuple(x)
    model = model or BaseCostModel(inst)
    t0 = time.perf_counter()

    table = build_ops_graph(inst, x, p, model=model, deadline=deadline)
    best, meta_stats = solve_meta(table, inst, model=model, deadline=deadline,
                                  incumbent=incumbent)

    extra_orders = skipped = 0
    settled = set() if settled is None else settled
    t_split = time.perf_counter()
    if _wraps_around(inst, p):
        if prices is None:
            prices = block_prices(x, inst, model)
        for y in shifted_permutations(x, p):
            if y in settled:
                skipped += 1
                continue
            check_deadline(deadline)
            extra_orders += 1
            best = split_optimal(y, inst, model=model, prices=prices, incumbent=best)
            settled.add(y)
    layers = {"stage1_s": table.stats.elapsed, "stage2_s": meta_stats.elapsed,
              "recovery_s": meta_stats.recovery_elapsed,
              "split_s": time.perf_counter() - t_split}

    return SolveReport(
        algorithm=f"vlsn(p={p})",
        tour=best,
        neighborhoods=1,
        ops_states=table.stats.nonterminal_states,
        ops_arcs=table.stats.arcs,
        meta_states=meta_stats.states,
        meta_arcs=meta_stats.arcs,
        wall_time=time.perf_counter() - t0,
        extras={"p": p, "shifted_orders": extra_orders, "settled_orders": skipped,
                "table_entries": table.stats.terminal_entries, "layers": layers},
    )


def _accumulate(total: SolveReport, part: SolveReport) -> None:
    total.neighborhoods += part.neighborhoods
    total.ops_states += part.ops_states
    total.ops_arcs += part.ops_arcs
    total.meta_states += part.meta_states
    total.meta_arcs += part.meta_arcs
    for key in ("shifted_orders", "settled_orders"):
        total.extras[key] += part.extras[key]
    for key, val in part.extras["layers"].items():
        total.extras["layers"][key] += val


def _descend(inst, x0, p0, p_max, model, time_limit, algorithm, extras):
    """Search the neighborhood of the incumbent's order at width p, starting
    at p0: re-center and fall back to p0 after an improvement, widen
    otherwise, and stop past p_max (or when the time budget runs out,
    flagged by ``extras["timed_out"]``; a search that the limit stops
    leaves the incumbent as it was). At p = n_d the neighborhood already
    contains every order, so widths beyond n_d are searched at n_d.

    The descent splits each order at most once: ``settled`` holds the
    initial order and every wrap-around order split so far, and ``vlsn``
    skips them. Each either lost to the incumbent of its time or became
    it, and the incumbent only improves, so splitting it again (which is
    deterministic) would return the incumbent. ``extras`` sums the
    searches' ``shifted_orders`` and ``settled_orders``, and
    ``extras["layers"]`` their layer times plus the initial order's and
    its split's."""
    model = model or BaseCostModel(inst)
    t0 = time.perf_counter()
    deadline = None if time_limit is None else t0 + time_limit
    x0 = tuple(initial_tsp_sequence(inst) if x0 is None else x0)
    t_split = time.perf_counter()
    # the blocks of the center, priced once per center for its split and
    # the searches' wrap-around splits
    prices = block_prices(x0, inst, model)
    incumbent = split_optimal(x0, inst, model=model, prices=prices)
    layers = {"initial_order_s": t_split - t0,
              "initial_split_s": time.perf_counter() - t_split,
              "stage1_s": 0.0, "stage2_s": 0.0, "recovery_s": 0.0, "split_s": 0.0}
    report = SolveReport(algorithm=algorithm, tour=incumbent, iterations=0,
                         extras={"layers": layers, "shifted_orders": 0, "settled_orders": 0})
    settled = {x0}
    p_stop = min(p_max, inst.n_d)
    p = p_reset = min(p0, p_stop)
    while p <= p_stop:
        if deadline is not None and time.perf_counter() >= deadline:
            report.extras["timed_out"] = True
            break
        center = report.tour.destination_order()
        if prices is None and _wraps_around(inst, p):
            t_split = time.perf_counter()
            prices = block_prices(center, inst, model)
            layers["split_s"] += time.perf_counter() - t_split
        try:
            step = vlsn(inst, center, p, model=model, deadline=deadline, prices=prices,
                        incumbent=report.tour, settled=settled)
        except SizeGuardError:
            report.extras["stopped_by_state_budget"] = True
            break
        except TimeLimitError:
            report.extras["timed_out"] = True
            break
        report.iterations += 1
        _accumulate(report, step)
        if step.makespan < report.makespan - EPS:
            report.tour, prices = step.tour, None
            p = p_reset
        else:
            p += 1
    report.wall_time = time.perf_counter() - t0
    report.extras.update({**extras, "x0": list(x0)})
    return report


def vlsn_ls(inst: Instance, x0: Optional[Sequence[int]] = None, p: int = 4,
            model: Optional[object] = None,
            time_limit: Optional[float] = None) -> SolveReport:
    """Local search: descent at the one width p, re-centering on the
    incumbent's destination order until the value stalls or ``time_limit``
    seconds have passed."""
    return _descend(inst, x0, p, p, model, time_limit, f"vlsn-ls(p={p})", {"p": p})


def vlsn_vnd(inst: Instance, x0: Optional[Sequence[int]] = None,
             config: Optional[SearchConfig] = None,
             model: Optional[object] = None) -> SolveReport:
    """Variable neighborhood descent from p0 up to p_max: re-center and fall
    back to p0 after an improvement, widen the neighborhood otherwise."""
    config = config or SearchConfig()
    return _descend(inst, x0, config.p0, config.p_max, model, config.time_limit,
                    f"vlsn-vnd(p0={config.p0},p_max={config.p_max})",
                    {"p0": config.p0, "p_max": config.p_max})


def rts(inst: Instance, model: Optional[object] = None,
        x0: Optional[Sequence[int]] = None) -> SolveReport:
    """Route first, split second: optimal replenishment insertion into the
    shortest-path destination order. ``extras["layers"]`` holds the seconds
    spent on the order and on its split."""
    t0 = time.perf_counter()
    if x0 is None:
        x0 = initial_tsp_sequence(inst)
    t_split = time.perf_counter()
    tour = split_optimal(tuple(x0), inst, model=model)
    t1 = time.perf_counter()
    return SolveReport(algorithm="rts", tour=tour, wall_time=t1 - t0,
                       extras={"x0": list(x0),
                               "layers": {"initial_order_s": t_split - t0,
                                          "initial_split_s": t1 - t_split}})
