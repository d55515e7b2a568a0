"""Per-layer spans recorded from outside the program.

The tracer wraps the public functions the solvers call and rebinds every
name that refers to them in the `drpe` modules, because the solvers call
each other through `from .x import y` bindings. A span is
[name, start, end, parent, solve_id, counts]; spans stay in memory and
the caller writes them out at the end. Work counts are taken from the
objects the wrapped functions return.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time

from drpe.model import EPS

SPLIT = "oracle.split_optimal"
OPS = "opsgraph.build_ops_graph"
RECOVER = "opsgraph.recover_operation_order"
META = "metagraph.solve_meta"
SWEEP = "exact.full_meta_sweep"
TSP = "baselines.initial_tsp_sequence"
LIMOP = "baselines.limop"
VLSN = "search.vlsn"

# layer -> work counts read off its return value
LAYERS = {
    TSP: None,
    LIMOP: None,
    SPLIT: lambda tour: {"makespan": tour.makespan},
    OPS: lambda table: {"states": table.stats.nonterminal_states,
                        "arcs": table.stats.arcs,
                        "entries": table.stats.terminal_entries},
    RECOVER: None,
    META: lambda res: {"states": res[1].states, "arcs": res[1].arcs},
    SWEEP: lambda res: {"arcs": res[1]["meta_arcs"]},
    VLSN: lambda rep: {"makespan": rep.makespan,
                       "shifted_orders": rep.extras["shifted_orders"]},
}
# counts summed into the per-layer metrics (makespans only feed checks)
SUMMED = {OPS: ("states", "arcs", "entries"), META: ("states", "arcs"),
          SWEEP: ("arcs",)}


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []

    def _open(self, name, solve_id=None):
        parent = self._stack[-1] if self._stack else None
        if solve_id is None and parent is not None:
            solve_id = self.spans[parent][4]
        self.spans.append([name, time.perf_counter(), None, parent, solve_id, None])
        self._stack.append(len(self.spans) - 1)

    def _close(self, counts=None):
        idx = self._stack.pop()
        self.spans[idx][2] = time.perf_counter()
        self.spans[idx][5] = counts

    @contextlib.contextmanager
    def span(self, name, solve_id):
        """Root span of one solve."""
        self._open(name, solve_id)
        try:
            yield
        finally:
            self._close()

    def _wrap(self, name, fn, counter):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._open(name)
            counts = None
            try:
                result = fn(*args, **kwargs)
                counts = counter(result) if counter else None
                return result
            finally:
                self._close(counts)
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Rebind every drpe name bound to a traced function for the
        duration of the block."""
        patches = []
        try:
            for name, counter in LAYERS.items():
                module, func = name.split(".")
                original = getattr(importlib.import_module(f"drpe.{module}"), func)
                wrapper = self._wrap(name, original, counter)
                for modname, mod in list(sys.modules.items()):
                    if mod is None or not (modname == "drpe" or modname.startswith("drpe.")):
                        continue
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            patches.append((mod, attr, original))
                            setattr(mod, attr, wrapper)
            yield self
        finally:
            for mod, attr, original in reversed(patches):
                setattr(mod, attr, original)


def self_times(spans) -> list:
    """Each span's duration minus the time its child spans cover."""
    child = [0.0] * len(spans)
    for _, start, end, parent, _, _ in spans:
        if parent is not None:
            child[parent] += end - start
    return [end - start - child[i] for i, (_, start, end, *_rest) in enumerate(spans)]


def layer_stats(spans) -> dict:
    """name -> {"self_s", "calls", summed counts} for every traced layer,
    with zeros for layers the pass did not reach."""
    stats = {name: {"self_s": 0.0, "calls": 0, **{c: 0 for c in SUMMED.get(name, ())}}
             for name in LAYERS}
    for span, own in zip(spans, self_times(spans)):
        entry = stats.get(span[0])
        if entry is None:
            continue
        entry["self_s"] += own
        entry["calls"] += 1
        for c in SUMMED.get(span[0], ()) if span[5] else ():
            entry[c] += span[5][c]
    return stats


def shares(spans, labels: list) -> dict:
    """label -> {layer: share of the self time of its solves}, where
    labels[solve_id] names the algorithm of each solve."""
    total, by = {}, {}
    for span, own in zip(spans, self_times(spans)):
        label = labels[span[4]]
        if span[3] is None:
            total[label] = total.get(label, 0.0) + span[2] - span[1]
        else:
            layers = by.setdefault(label, {})
            layers[span[0]] = layers.get(span[0], 0.0) + own
    return {label: {layer: t / total[label] for layer, t in layers.items()}
            for label, layers in by.items()}


def improving_neighborhoods(spans) -> int:
    """Neighborhood searches that improved their solve's incumbent: the
    first top-level split sets the incumbent, as in vlsn_ls and vlsn_vnd."""
    incumbent, improving = {}, 0
    for name, _, _, parent, solve_id, counts in spans:
        if name == SPLIT and parent is not None and spans[parent][3] is None:
            incumbent.setdefault(solve_id, counts["makespan"])
        elif name == VLSN:
            if counts["makespan"] < incumbent[solve_id] - EPS:
                improving += 1
                incumbent[solve_id] = counts["makespan"]
    return improving


def cross_check(stats: dict, spans, records) -> list:
    """Compare traced call counts with the SolveReports of the same pass;
    returns the disagreements."""
    def reports(*metrics):
        return [r.report for r in records
                if r.report is not None and r.solve.metric in metrics]

    done = [r.report for r in records if r.report is not None]
    searches = reports("ls_s", "vnd_s")
    sweeps = reports("exact_s", "limop_s")
    splitters = len(reports("ls_s", "vnd_s", "rts_s"))
    searched = sum(r.neighborhoods for r in searches)
    shifted = sum(s[5]["shifted_orders"] for s in spans if s[0] == VLSN)
    expected = {
        (VLSN, "calls"): searched,
        (META, "calls"): searched,
        (OPS, "calls"): searched + len(reports("exact_s")),
        (SPLIT, "calls"): splitters + shifted,
        (SWEEP, "calls"): len(sweeps),
        (TSP, "calls"): splitters,
        (OPS, "states"): sum(r.ops_states for r in done),
        (OPS, "arcs"): sum(r.ops_arcs for r in done),
        (META, "states"): sum(r.meta_states for r in searches),
        (META, "arcs"): sum(r.meta_arcs for r in searches),
        (SWEEP, "arcs"): sum(r.meta_arcs for r in sweeps),
    }
    return [f"{layer}.{key}: traced {stats[layer][key]} != reported {want}"
            for (layer, key), want in expected.items()
            if stats[layer][key] != want]
