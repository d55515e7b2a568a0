"""Command-line harness: instance generation, solving, validation,
neighborhood diagnostics and benchmark campaigns with CSV gap tables.

Exit codes: 0 ok, 1 failed validation / infeasible / time limit of `vlsn`,
`exact` or `limop` / other errors, 2 usage error, 3 size guard refused the instance.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import __version__
from .baselines import (
    BaselineConfig,
    check_klim,
    initial_tsp_sequence,
    limop,
    rts_3nn,
    sa_rts_3opt,
)
from .energy import ExtendedCostModel, ExtendedCosts, pract
from .exact import solve_exact
from .generator import SETTING_NAMES, SIZE_NAMES, all_settings, generate, get_setting
from .io import load_instance, load_solution, save_instance, save_solution
from .metagraph import count_bs_sequences, get_transition_lookup
from .model import (
    BaseCostModel,
    DrpeError,
    InfeasibleError,
    SchemaError,
    SizeGuardError,
    TimeLimitError,
    validate_tour,
)
from .opsgraph import check_width
from .oracle import enumerate_bs_neighbors
from .reports import SolveReport
from .search import SearchConfig, rts, vlsn, vlsn_ls, vlsn_vnd

ALGORITHMS = ("vlsn", "vlsn-ls", "vlsn-vnd", "rts", "exact", "limop",
              "rts3nn", "sa", "pract")
EXIT_VALIDATION = 1
EXIT_SIZE_GUARD = 3


def _cost_model(inst, args):
    if args.model != "extended":
        return BaseCostModel(inst)
    costs = ExtendedCosts()
    if args.extended:
        doc = json.loads(Path(args.extended).read_text(encoding="utf-8"))
        if not isinstance(doc, dict):
            raise SchemaError("--extended file must hold a JSON object")
        known = {f.name for f in fields(ExtendedCosts)}
        for key, value in doc.items():
            if key not in known:
                raise SchemaError(f"--extended file has unknown key {key!r}")
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise SchemaError(f"--extended value of {key!r} is not a number")
        costs = ExtendedCosts(**doc)
    return ExtendedCostModel(inst, costs)


def _solver_config(algo: str, args):
    """The configuration ``algo`` reads from ``args``: a ``SearchConfig``
    for ``vlsn-vnd``, a ``BaselineConfig`` for ``rts3nn``/``sa``, else
    None. Raises ValueError on options ``algo`` cannot run with, by the
    rules the solvers themselves apply; ``bench`` calls it for every
    algorithm before any cell runs."""
    if algo in ("vlsn", "vlsn-ls"):
        check_width(args.p)
    if algo == "vlsn-vnd":
        return SearchConfig(p0=args.p0, p_max=args.p_max, time_limit=args.time_limit)
    if algo == "limop":
        check_klim(args.klim)
    if algo in ("rts3nn", "sa"):
        return BaselineConfig(iterations=args.budget, seed=args.seed,
                              time_limit=args.time_limit)
    if algo == "pract" and args.model != "extended":
        raise ValueError("pract requires --model extended")
    return None


def _run_algorithm(inst, algo: str, args, model) -> SolveReport:
    cfg = _solver_config(algo, args)
    if algo == "vlsn":
        limit = args.time_limit
        deadline = None if limit is None else time.perf_counter() + limit
        return vlsn(inst, initial_tsp_sequence(inst), args.p, model=model, deadline=deadline)
    if algo == "vlsn-ls":
        return vlsn_ls(inst, p=args.p, model=model, time_limit=args.time_limit)
    if algo == "vlsn-vnd":
        return vlsn_vnd(inst, config=cfg, model=model)
    if algo == "rts":
        return rts(inst, model=model)
    if algo == "exact":
        return solve_exact(inst, model=model, time_limit=args.time_limit)
    if algo == "limop":
        return limop(inst, args.klim, model=model, time_limit=args.time_limit)
    if algo in ("rts3nn", "sa"):
        return (rts_3nn if algo == "rts3nn" else sa_rts_3opt)(inst, cfg, model=model)
    if algo == "pract":
        return pract(inst, model.costs)
    raise ValueError(f"unknown algorithm {algo!r}")


def _solve(inst, args):
    """(report, validation) of one run of ``args.algo``: the tour is checked
    under the cost model it was solved with. ``pract`` knowingly overruns
    the energy budget, so its energy is audited, not failed."""
    model = _cost_model(inst, args)
    report = _run_algorithm(inst, args.algo, args, model)
    check = validate_tour(report.tour, inst, model, energy_required=args.algo != "pract")
    return report, check


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_generate(args) -> int:
    out = Path(args.out or ".")
    out.mkdir(parents=True, exist_ok=True)
    settings = (all_settings(args.size) if args.setting == "all"
                else [get_setting(args.setting, args.size)])
    manifest = {"version": __version__, "base_seed": args.seed, "instances": []}
    for setting in settings:
        for k in range(args.count):
            seed = args.seed + k
            inst = generate(setting, seed)
            fname = f"{inst.name}.json"
            save_instance(inst, out / fname)
            manifest["instances"].append({
                "file": fname, "setting": setting.name, "size": setting.size,
                "seed": seed, "n_d": setting.n_d, "n_r": setting.n_r,
                "side": setting.side, "delta": setting.delta,
                "e_max": setting.e_max, "density": setting.density,
            })
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True),
                                       encoding="utf-8")
    print(f"wrote {len(manifest['instances'])} instances to {out}")
    return 0


def cmd_solve(args) -> int:
    inst = load_instance(args.instance, metric_closure=args.metric_closure)
    report, check = _solve(inst, args)
    if not check.passed:
        print("solution failed validation:", file=sys.stderr)
        print(str(check), file=sys.stderr)
        return EXIT_VALIDATION
    if args.out:
        save_solution(report.tour, args.out)
    print(report.summary())
    for flag in ("timed_out", "stopped_by_state_budget"):
        if report.extras.get(flag):
            print(f"note: {args.algo} stopped early ({flag}) after {report.iterations} "
                  "searches; the tour is the best found by then", file=sys.stderr)
    if args.stats:
        for key, val in sorted(report.extras.items()):
            print(f"  {key}: {val}")
    return 0


def cmd_validate(args) -> int:
    inst = load_instance(args.instance, metric_closure=args.metric_closure)
    tour = load_solution(args.solution)
    model = _cost_model(inst, args)
    report = validate_tour(tour, inst, model)
    print(str(report))
    return 0 if report.passed else EXIT_VALIDATION


def cmd_enumerate(args) -> int:
    n_d, p = args.n_d, args.p
    dp_count = count_bs_sequences(n_d, p)
    print(f"n_d={n_d} p={p}")
    print(f"neighbor orders (pattern-graph count): {dp_count}")
    if n_d <= args.oracle_limit:
        oracle = len(enumerate_bs_neighbors(tuple(range(n_d)), p))
        agree = "agree" if oracle == dp_count else "MISMATCH"
        print(f"neighbor orders (enumeration oracle): {oracle}  [{agree}]")
    bound = ((p - 1) / np.e) ** (n_d - 1)
    print(f"published lower bound ((p-1)/e)^(n_d-1): {bound:.4f}")
    return 0


def cmd_dump_lookup(args) -> int:
    p = args.p
    lookup = get_transition_lookup(p)
    with open(args.out, "w", newline="") if args.out else nullcontext(sys.stdout) as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "s_minus", "s_plus"] + [f"h={h}" for h in range(1, p)])
        for ai, pat in enumerate(lookup.patterns):
            row = [ai + 1,
                   "{" + ",".join(f"k+{d}" for d in pat.minus) + "}",
                   "{" + ",".join(f"k{d:+d}" if d else "k" for d in pat.plus) + "}"]
            for h in range(1, p):
                row.append(",".join(str(bi + 1) for bi, _ in lookup.successors(ai, h)))
            writer.writerow(row)
    return 0


# ---------------------------------------------------------------------------
# Benchmark campaigns
# ---------------------------------------------------------------------------

def _config_hash(payload: dict) -> str:
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()[:12]


# the SolveReport work counters a ``bench --per-instance`` row carries
BENCH_COUNTS = ("ops_states", "ops_arcs", "meta_states", "meta_arcs", "neighborhoods",
                "iterations")


def _bench_cell(payload):
    """Worker: one (instance, algorithm) cell, solved and validated as
    ``drpe solve`` does. A refused, infeasible or timed-out solve and a tour
    that fails validation are failed cells, with no value."""
    args = argparse.Namespace(**payload["args"], algo=payload["algo"])
    inst = load_instance(payload["path"])
    t0 = time.perf_counter()
    value, layers, counts, status = float("nan"), {}, {}, "error: failed validation"
    try:
        report, check = _solve(inst, args)
        counts = {name: getattr(report, name) for name in BENCH_COUNTS}
        if check.passed:
            value, layers, status = report.makespan, report.extras.get("layers", {}), "ok"
    except (SizeGuardError, InfeasibleError, TimeLimitError) as exc:
        status = f"error: {exc}"
    return {"path": payload["path"], "algo": payload["algo"], "value": value,
            "time": time.perf_counter() - t0, "status": status, "counts": counts,
            "setting": payload["setting"], "seed": args.seed, "layers": layers}


def _instance_files(directory: Path) -> list:
    """(path, setting) of each instance file: the setting named in the
    file's ``extra``, else the first ``_``-separated field of its name. A
    ``*.json`` file that cannot be read as JSON is named on stderr and
    skipped."""
    files = []
    for f in sorted(directory.glob("*.json")):
        if f.name in ("manifest.json", "best_known.json"):
            continue
        try:
            doc = json.loads(f.read_text(encoding="utf-8"))
        except (ValueError, OSError) as exc:  # bad JSON or bad UTF-8
            print(f"warning: skipping {f}: {exc}", file=sys.stderr)
            continue
        if isinstance(doc, dict) and "n_d" in doc:  # skip solutions etc.
            extra, setting = doc.get("extra", {}), f.stem.split("_")[0]
            files.append((f, extra.get("setting", setting) if isinstance(extra, dict)
                          else setting))
    return files


def _registry_model(args) -> str:
    """The cost-model part of a best_known.json key: the model and, under
    the extended model, a hash of the override constants, so references of
    one model never judge another's runs."""
    if args.model != "extended":
        return args.model
    overrides = {}
    if args.extended:
        overrides = json.loads(Path(args.extended).read_text(encoding="utf-8"))
    return f"extended:{_config_hash(overrides)}"


def cmd_bench(args) -> int:
    directory = Path(args.instances)
    files = _instance_files(directory)
    if not files:
        print(f"no instance files in {directory}", file=sys.stderr)
        return 2
    algos = [a.strip() for a in args.algos.split(",") if a.strip()]
    for a in algos:
        try:
            if a not in ALGORITHMS:
                raise ValueError(f"unknown algorithm {a!r}")
            _solver_config(a, args)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2

    shared = {"seed": args.seed, "p": args.p, "p0": args.p0,
              "p_max": args.p_max, "klim": args.klim, "budget": args.budget,
              "time_limit": args.time_limit, "model": args.model,
              "extended": args.extended}
    cells = [{"path": str(f), "algo": a, "setting": setting, "args": shared}
             for f, setting in files for a in algos]

    if args.workers > 1:
        with ProcessPoolExecutor(max_workers=args.workers) as pool:
            results = list(pool.map(_bench_cell, cells))
    else:
        results = [_bench_cell(c) for c in cells]

    by_instance = {}
    for r in results:
        by_instance.setdefault(r["path"], {})[r["algo"]] = r

    # reference values: exact when available, else best-known registry
    registry_path = directory / "best_known.json"
    registry = {}
    if registry_path.exists():
        registry = json.loads(registry_path.read_text(encoding="utf-8"))
    references = {}
    model_key = _registry_model(args)
    for path, per_algo in by_instance.items():
        key = f"{hashlib.sha256(Path(path).read_bytes()).hexdigest()}:{model_key}"
        ref = None
        if "exact" in per_algo and per_algo["exact"]["status"] == "ok":
            ref = per_algo["exact"]["value"]
        elif key in registry:
            ref = registry[key]["value"]
        finite = [r["value"] for r in per_algo.values()
                  if r["status"] == "ok" and np.isfinite(r["value"])]
        if ref is None and finite:
            ref = min(finite)
        if ref is not None:
            best_seen = min([ref] + finite)
            prev = registry.get(key, {}).get("value")
            if prev is None or best_seen < prev - 1e-9:
                registry[key] = {"value": best_seen, "file": Path(path).name}
            references[path] = ref
    registry_path.write_text(json.dumps(registry, indent=2, sort_keys=True),
                             encoding="utf-8")

    for r in results:
        r["reference"], r["gap"] = references.get(r["path"]), None
        if r["reference"] is not None and r["status"] == "ok" and np.isfinite(r["value"]):
            r["gap"] = (r["value"] - r["reference"]) / r["reference"] * 100.0
            if r["gap"] < -1e-7:
                print(f"error: {r['path']}:{r['algo']} beat the reference by "
                      f"{-r['gap']}%", file=sys.stderr)
                return EXIT_VALIDATION

    if args.per_instance:
        # every layer any solver reported, as trailing columns; empty where
        # a cell's report has no such layer
        config_hash = _config_hash(shared | {"algos": algos})
        layer_names = sorted({name for r in results for name in r["layers"]})
        with open(args.per_instance, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["setting", "instance", "algorithm", "value",
                             "reference", "gap_pct", "runtime_s", "seed", "config",
                             "status", *BENCH_COUNTS, *layer_names])
            for r in sorted(results, key=lambda r: (r["setting"], Path(r["path"]).name,
                                                    r["algo"])):
                writer.writerow([
                    r["setting"], Path(r["path"]).name, r["algo"],
                    "" if not np.isfinite(r["value"]) else f"{r['value']:.9g}",
                    "" if r["reference"] is None else f"{r['reference']:.9g}",
                    "" if r["gap"] is None else f"{r['gap']:.6f}",
                    f"{r['time']:.3f}", r["seed"], config_hash, r["status"],
                    *(r["counts"].get(n, "") for n in BENCH_COUNTS),
                    *(f"{r['layers'][n]:.6f}" if n in r["layers"] else ""
                      for n in layer_names)])

    summary = {}
    for r in results:
        summary.setdefault((r["setting"], r["algo"]), []).append(r)
    out_rows = []
    for (setting, algo), cells_ in sorted(summary.items()):
        solved = [c for c in cells_ if c["gap"] is not None]
        gaps = [c["gap"] for c in solved]
        out_rows.append({
            "setting": setting, "algorithm": algo, "n": len(solved),
            "failed": len(cells_) - len(solved),
            "avg_gap_pct": sum(gaps) / len(gaps) if gaps else None,
            "worst_gap_pct": max(gaps, default=None),
            "matches": sum(1 for c in solved if abs(c["value"] - c["reference"]) <= 1e-9),
            "avg_runtime_s": sum(c["time"] for c in cells_) / len(cells_),
        })

    def fmt_gap(value):
        return "" if value is None else f"{value:.6f}"

    out_path = args.out or "bench.csv"
    with open(out_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["setting", "algorithm", "instances", "failed", "avg_gap_pct",
                         "worst_gap_pct", "matches", "avg_runtime_s"])
        for row in out_rows:
            writer.writerow([row["setting"], row["algorithm"], row["n"], row["failed"],
                             fmt_gap(row["avg_gap_pct"]), fmt_gap(row["worst_gap_pct"]),
                             row["matches"], f"{row['avg_runtime_s']:.3f}"])
    print(f"wrote {out_path} ({len(out_rows)} rows, {len(files)} instances)")

    if args.latex:
        _print_latex(out_rows)
    return 0


def _print_latex(out_rows) -> None:
    algos = sorted({r["algorithm"] for r in out_rows})
    settings = sorted({r["setting"] for r in out_rows})
    cells = {(r["setting"], r["algorithm"]): r for r in out_rows}

    def fmt(s, a, column):
        value = cells[(s, a)][column] if (s, a) in cells else None
        return "--" if value is None else f"{value:.2f}"

    print(r"\begin{tabular}{l|" + "r" * len(algos) * 2 + "}")
    head = ([f"avg {a}" for a in algos] + [f"worst {a}" for a in algos])
    print("Setting & " + " & ".join(head) + r" \\ \hline")
    for s in settings:
        vals = ([fmt(s, a, "avg_gap_pct") for a in algos]
                + [fmt(s, a, "worst_gap_pct") for a in algos])
        print(f"{s} & " + " & ".join(vals) + r" \\")
    print(r"\end{tabular}")


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="drpe",
        description="Drone routing with energy replenishment: solvers and benchmarks")
    parser.add_argument("--version", action="version", version=f"drpe {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    # option groups shared by the subcommands, each defined once
    instance = argparse.ArgumentParser(add_help=False)
    instance.add_argument("-i", "--instance", required=True)
    instance.add_argument("--metric-closure", action="store_true",
                          help="apply shortest-path closure to loaded matrices")
    cost = argparse.ArgumentParser(add_help=False)
    cost.add_argument("--model", default="base", choices=("base", "extended"))
    cost.add_argument("--extended", default=None,
                      help="JSON file overriding the extended cost constants")
    solver = argparse.ArgumentParser(add_help=False)
    solver.add_argument("--p", type=int, default=4)
    solver.add_argument("--p0", type=int, default=2)
    solver.add_argument("--p-max", type=int, default=8, dest="p_max")
    solver.add_argument("--klim", type=int, default=2)
    solver.add_argument("--budget", type=int, default=200,
                        help="iterations for the randomized baselines")
    run = argparse.ArgumentParser(add_help=False)
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--time-limit", type=float, default=None,
                     help="cooperative per-run limit in seconds")
    run.add_argument("--out", default=None)

    g = sub.add_parser("generate", parents=[run], help="write benchmark instances")
    g.add_argument("--setting", default="Basis", choices=SETTING_NAMES + ("all",))
    g.add_argument("--size", default="small", choices=SIZE_NAMES)
    g.add_argument("--count", type=int, default=10)
    g.set_defaults(func=cmd_generate)

    s = sub.add_parser("solve", parents=[instance, solver, cost, run],
                       help="run one solver")
    s.add_argument("--algo", default="vlsn-ls", choices=ALGORITHMS)
    s.add_argument("--stats", action="store_true")
    s.set_defaults(func=cmd_solve)

    e = sub.add_parser("exact", parents=[instance, solver, cost, run],
                       help="shorthand for solve --algo exact")
    e.add_argument("--stats", action="store_true")
    e.set_defaults(func=cmd_solve, algo="exact")

    v = sub.add_parser("validate", parents=[instance, cost], help="check a solution file")
    v.add_argument("-s", "--solution", required=True)
    v.set_defaults(func=cmd_validate)

    n = sub.add_parser("enumerate", help="neighborhood size diagnostics")
    n.add_argument("--n-d", type=int, required=True, dest="n_d")
    n.add_argument("--p", type=int, required=True)
    n.add_argument("--oracle-limit", type=int, default=8)
    n.set_defaults(func=cmd_enumerate)

    d = sub.add_parser("dump-lookup", help="emit the pattern transition table as CSV")
    d.add_argument("--p", type=int, required=True)
    d.add_argument("--out", default=None)
    d.set_defaults(func=cmd_dump_lookup)

    b = sub.add_parser("bench", parents=[solver, cost, run],
                       help="run a campaign and emit gap tables")
    b.add_argument("--instances", required=True, help="directory of instance files")
    b.add_argument("--algos", default="exact,vlsn-ls,vlsn-vnd,rts,limop")
    b.add_argument("--workers", type=int, default=1)
    b.add_argument("--per-instance", default=None,
                   help="also write one CSV row per (instance, algorithm)")
    b.add_argument("--latex", action="store_true")
    b.set_defaults(func=cmd_bench)

    return parser


def _check_run_options(parser, args) -> None:
    """Refuse, as a usage error (exit 2), the values argparse's int and
    float types let through but no run can honor."""
    limit = getattr(args, "time_limit", None)
    if limit is not None and not 0 <= limit < math.inf:
        parser.error(f"--time-limit must be a finite number of seconds >= 0, not {limit}; "
                     "leave it out for no limit")
    for name in ("seed", "budget", "n_d", "count", "oracle_limit"):
        if getattr(args, name, 0) < 0:
            parser.error(f"--{name.replace('_', '-')} must be >= 0, not {getattr(args, name)}")
    if getattr(args, "workers", 1) < 1:
        parser.error(f"--workers must be >= 1, not {args.workers}")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    _check_run_options(parser, args)
    try:
        return args.func(args)
    except SizeGuardError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SIZE_GUARD
    except (DrpeError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
