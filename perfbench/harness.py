"""Passes, correctness checks and metrics of one workload run.

A pass runs the workload's solve list once, back to back in this process
(a closed loop with one caller). Passes repeat until the pass boundary
nearest to the run's time. Every solve is checked after its pass, outside
the timed region.

The shared host's speed drifts by 40% or more over minutes, and the
fastest pass drifts with it as much as the median does. So after every
solve the fixed reference kernel of `reference.py` runs a few times, and
timings are reported at the reference speed: the mean over the run's
passes divided by `reference.speed` of the kernel times of the same
passes. The raw median pass time is printed as well.
"""

from __future__ import annotations

import resource
import statistics
import time
from dataclasses import dataclass
from typing import Optional

import drpe

import reference
import tracing as tr
from workloads import Solve, Workload, cost_model

REL_TOL = 1e-6  # makespan vs recorded reference
MIN_PASSES = 3
ALGO_METRICS = ("exact_s", "limop_s", "vnd_s", "ls_s", "rts_s")

END_TO_END_UNITS = {"wall_ref_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
EXTRA_UNITS = {**{m: "s" for m in ALGO_METRICS}, "wall_s": "s", "setup_raw_s": "s",
               "speed": "ratio", "failed_frac": "ratio", "passes": "count"}
PER_LAYER_UNITS = {
    **{f"{layer}.self_s": "s" for layer in tr.LAYERS},
    **{f"{layer}.calls": "count" for layer in tr.LAYERS},
    **{f"{layer}.{c}": "count" for layer, cs in tr.SUMMED.items() for c in cs},
    "search.neighborhoods": "count",
    "search.improving_ratio": "ratio",
    "trace.coverage": "ratio",
    "trace.overhead": "ratio",
    **{f"solve.{m}": "s" for m in ALGO_METRICS},
}


@dataclass
class Record:
    instance: int  # index into the run's instance list
    solve: Solve
    seconds: float
    report: Optional[drpe.SolveReport]
    error: Optional[str]


@dataclass
class Outcome:
    metrics: dict  # name -> value
    extra: dict  # name -> value: printed, not part of the result line
    attempted: int
    failed: int
    problems: list  # every failure and disagreement, as text
    makespans: dict  # reference key -> makespan of the first pass
    counts: dict  # work counts that must repeat exactly between runs
    spans: list  # spans of the traced passes, one list per pass
    shares: dict  # algorithm -> layer -> share of its time, first traced pass


def reference_key(workload: Workload, inst, solve: Solve) -> str:
    return f"{workload.name}/{inst.name}/{solve.label}/{solve.model}"


def run_pass(workload: Workload, instances: list, models: list, ref: list,
             tracer: Optional[tr.Tracer] = None):
    """One pass over the solve list; returns (seconds, records), where
    seconds sums the solves. The reference kernel times taken after each
    solve are appended to `ref`."""
    records = []
    for i, inst in enumerate(instances):
        for solve in workload.solves:
            model = models[i][solve.model]
            t0 = time.perf_counter()
            report, error = None, None
            try:
                if tracer is None:
                    report = solve.run(inst, model)
                else:
                    with tracer.span(solve.label, len(records)):
                        report = solve.run(inst, model)
            except Exception as exc:  # a raising solve is counted as failed
                error = f"raised {type(exc).__name__}: {exc}"
            records.append(Record(i, solve, time.perf_counter() - t0, report, error))
            ref.extend(reference.kernel() for _ in range(reference.CALLS_PER_SOLVE))
    return sum(r.seconds for r in records), records


def _close(value: float, ref) -> bool:
    try:
        return abs(value - ref) <= REL_TOL * abs(ref)
    except TypeError:
        return False


def check(workload: Workload, instances: list, models: list, records: list,
          references: dict) -> list:
    """Per record: None when the solve is correct, else why it failed. A
    solve fails when it raised, its tour does not validate under its own
    cost model, its makespan misses the recorded reference, or it breaks a
    dominance pair of the workload."""
    problems = [r.error for r in records]
    done = {}
    for k, r in enumerate(records):
        if r.report is None:
            continue
        inst = instances[r.instance]
        try:
            valid = drpe.validate_tour(r.report.tour, inst,
                                       models[r.instance][r.solve.model])
        except Exception as exc:  # validate_tour can raise on malformed tours
            problems[k] = f"validation raised {type(exc).__name__}: {exc}"
            continue
        key = reference_key(workload, inst, r.solve)
        if not valid.passed:
            problems[k] = f"invalid tour: {'; '.join(valid.messages)}"
        elif key in references and not _close(r.report.makespan, references[key]):
            problems[k] = (f"makespan {r.report.makespan!r} != reference "
                           f"{references[key]!r}")
        done[(r.instance, r.solve.label, r.solve.model)] = k
    for (i, label, model), k in done.items():
        for lower, higher in workload.dominance:
            other = done.get((i, higher, model))
            if label != lower or other is None or problems[k] is not None:
                continue
            lo, hi = records[k].report.makespan, records[other].report.makespan
            if lo > hi + drpe.model.EPS * max(1.0, abs(hi)):
                problems[k] = f"{lower} makespan {lo!r} above {higher} {hi!r}"
    return problems


def signature(r: Record):
    """Work counts of one solve, from its SolveReport."""
    rep = r.report
    if rep is None:
        return None
    return [rep.iterations, rep.neighborhoods, rep.ops_states, rep.ops_arcs,
            rep.meta_states, rep.meta_arcs]


def _mean_algo_times(passes: list) -> dict:
    present = {r.solve.metric for r in passes[0][1]}
    return {m: statistics.fmean(sum(r.seconds for r in recs if r.solve.metric == m)
                                for _, recs in passes)
            for m in ALGO_METRICS if m in present}


def _done(plain: list, elapsed: float, seconds: float, min_passes: int) -> bool:
    """True at the pass boundary nearest to `seconds`, once `min_passes`
    untraced passes have run."""
    if len(plain) < min_passes:
        return False
    mean_pass = sum(w for w, _ in plain) / len(plain)
    return elapsed + mean_pass / 2 >= seconds


def measure(workload: Workload, instances: list, seconds: float, traced: bool,
            references: dict) -> Outcome:
    """Run passes for about `seconds` and check every solve. Without
    tracing at least MIN_PASSES passes run; with tracing untraced and
    traced passes alternate, at least one of each."""
    models = [{s.model: cost_model(s.model, inst) for s in workload.solves}
              for inst in instances]
    plain, with_trace, spans = [], [], []
    ref_plain, ref_traced = [], []
    reference.kernel()  # warm-up, not counted
    t0 = time.perf_counter()
    while True:
        if traced and len(plain) > len(with_trace):
            tracer = tr.Tracer()
            with tracer.installed():
                with_trace.append(run_pass(workload, instances, models, ref_traced,
                                           tracer))
            spans.append(tracer.spans)
        else:
            plain.append(run_pass(workload, instances, models, ref_plain))
            if len(plain) == 1:
                # later passes can raise the high-water mark through heap
                # fragmentation, so the peak is taken after the first one
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if traced:
            if with_trace and _done(plain, time.perf_counter() - t0, seconds, 1):
                break
        elif _done(plain, time.perf_counter() - t0, seconds, MIN_PASSES):
            break

    problems, attempted, failed = [], 0, 0
    for number, (_, records) in enumerate(plain + with_trace, 1):
        for r, why in zip(records, check(workload, instances, models, records,
                                         references)):
            attempted += 1
            if why is not None:
                failed += 1
                problems.append(f"pass {number}: {instances[r.instance].name} "
                                f"{r.solve.label} [{r.solve.model}]: {why}")

    sigs = [[signature(r) for r in recs] for _, recs in plain + with_trace]
    if any(s != sigs[0] for s in sigs):
        problems.append("work counts differ between passes")
    first = plain[0][1]
    makespans = {reference_key(workload, instances[r.instance], r.solve):
                 r.report.makespan for r in first if r.report is not None}
    counts = {"solves": sigs[0]}

    speed = reference.speed(ref_plain)
    wall_ref = statistics.fmean(w for w, _ in plain) / speed
    algo = {m: t / speed for m, t in _mean_algo_times(plain).items()}
    extra = dict(algo, wall_s=statistics.median(w for w, _ in plain), speed=speed,
                 failed_frac=failed / attempted, passes=len(plain) + len(with_trace))

    if not traced:
        metrics = {"wall_ref_s": wall_ref, "peak_rss_mb": peak_rss_mb}
        return Outcome(metrics, extra, attempted, failed, problems, makespans,
                       counts, spans, {})

    layer_runs = [tr.layer_stats(s) for s in spans]
    layer_counts = [{f"{name}.{k}": v for name, st in run.items()
                     for k, v in st.items() if k != "self_s"} for run in layer_runs]
    if any(c != layer_counts[0] for c in layer_counts):
        problems.append("traced layer counts differ between passes")
    counts["layers"] = layer_counts[0]
    metrics = dict(layer_counts[0])
    speed_traced = reference.speed(ref_traced)
    for name in tr.LAYERS:
        metrics[f"{name}.self_s"] = statistics.fmean(
            run[name]["self_s"] for run in layer_runs) / speed_traced
    traced_wall = [w for w, _ in with_trace]
    coverage = [sum(st["self_s"] for st in run.values()) / w
                for run, w in zip(layer_runs, traced_wall)]
    searched = sum(r.report.neighborhoods for r in with_trace[0][1] if r.report)
    improving = 0
    if not failed:
        improving = tr.improving_neighborhoods(spans[0])
        for (_, records), s, run in zip(with_trace, spans, layer_runs):
            problems += tr.cross_check(run, s, records)
    metrics["search.neighborhoods"] = searched
    metrics["search.improving_ratio"] = improving / searched if searched else 0.0
    metrics["trace.coverage"] = statistics.median(coverage)
    metrics["trace.overhead"] = statistics.fmean(traced_wall) / speed_traced / wall_ref
    for m in ALGO_METRICS:
        metrics[f"solve.{m}"] = algo.get(m, 0.0)
    labels = [f"{r.solve.label} [{r.solve.model}]" for r in with_trace[0][1]]
    return Outcome(metrics, extra, attempted, failed, problems, makespans,
                   counts, spans, tr.shares(spans[0], labels))
