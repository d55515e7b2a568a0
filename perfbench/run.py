"""Solver benchmark: runs one workload in this process and prints its metrics.

    python3 perfbench/run.py --workload small-tight --seed 1 --seconds 15 --trace 0

Run from the repository root; the solvers are imported from ./src. The
last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics with
--trace 0, the per-layer metrics of a traced run with --trace 1. Produced
makespans, work counts and spans are written under perfbench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

# one thread per workload process, set before numpy loads
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
# set-up runs once in this process and this many times in total, each time
# in a fresh process; the median, at the reference speed, is reported
SETUP_SAMPLES = 3


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    return args


def setup(name: str, seed: int):
    """Import drpe, build the workload's instances and fill the lookup
    caches. Returns (workload, instances, seconds taken)."""
    if not (SRC / "drpe" / "__init__.py").is_file():
        raise SystemExit(f"error: no drpe sources under {SRC}")
    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import drpe
    if Path(drpe.__file__).resolve().parent != SRC / "drpe":
        raise SystemExit(f"error: imported drpe from {drpe.__file__}, not {SRC}")
    from workloads import WORKLOADS, fill_caches
    if name not in WORKLOADS:
        raise SystemExit(f"error: unknown workload {name!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[name]
    instances = workload.instances(seed)
    fill_caches(workload, instances)
    return workload, instances, time.perf_counter() - t0


def setup_speed() -> float:
    """The host's speed right after set-up (see reference.py)."""
    import reference
    reference.kernel()  # warm-up, not counted
    return reference.speed([reference.kernel()
                            for _ in range(reference.CALLS_PER_SETUP)])


def setup_in_fresh_process(args) -> tuple:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-only"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=150)
    if proc.returncode != 0:
        raise SystemExit(f"error: set-up process failed: {proc.stderr.strip()}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return result["setup_s"], result["speed"]


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "drpe").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def compare_counts(path: Path, counts: dict) -> list:
    """Work counts must repeat exactly between runs of the same sources and
    seed; keep them in `path` and report keys that changed."""
    problems = []
    if path.exists():
        old = json.loads(path.read_text())
        problems = [f"{key} work counts differ from an earlier run ({path.name})"
                    for key in counts if key in old and old[key] != counts[key]]
        counts = {**old, **counts}
    path.write_text(json.dumps(counts, indent=1) + "\n")
    return problems


def write_spans(path: Path, spans: list) -> None:
    with path.open("w") as f:
        for number, pass_spans in enumerate(spans, 1):
            for name, start, end, parent, solve_id, counts in pass_spans:
                f.write(json.dumps({"pass": number, "name": name, "start": start,
                                    "end": end, "parent": parent,
                                    "solve": solve_id, "counts": counts}) + "\n")


def result_metrics(outcome, traced: bool, setups: list):
    """The metrics of the result line, and their units: the per-layer ones
    of a traced run, else the end-to-end ones."""
    import harness
    if traced:
        return dict(outcome.metrics), harness.PER_LAYER_UNITS
    metrics = dict(outcome.metrics)
    metrics["setup_s"] = statistics.median(setups)
    return metrics, harness.END_TO_END_UNITS


def emit(outcome, metrics: dict, units: dict, problems: list) -> None:
    """Print every metric with its unit, the failures, and the result line."""
    import harness
    for name, value in metrics.items():
        print(f"{name:44s} {value:>16.6g} {units[name]}")
    for name, value in outcome.extra.items():
        print(f"{name:44s} {value:>16.6g} {harness.EXTRA_UNITS[name]}")
    print(f"attempted {outcome.attempted} failed {outcome.failed}")
    for line in problems:
        print(f"FAIL {line}")
    print(json.dumps({
        "correct": outcome.failed == 0 and not problems,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))


def main(argv=None) -> int:
    args = parse_args(argv)
    workload, instances, setup_s = setup(args.workload, args.seed)
    setups = [(setup_s, setup_speed())]
    if args.setup_only:
        print(json.dumps({"setup_s": setups[0][0], "speed": setups[0][1]}))
        return 0

    import numpy
    import harness

    references = json.loads((HERE / "references.json").read_text())
    if not args.trace:
        setups += [setup_in_fresh_process(args) for _ in range(SETUP_SAMPLES - 1)]
    outcome = harness.measure(workload, instances, args.seconds, bool(args.trace),
                              references)
    outcome.extra["setup_raw_s"] = statistics.median(raw for raw, _ in setups)

    metrics, units = result_metrics(outcome, args.trace,
                                    [raw / speed for raw, speed in setups])
    OUT.mkdir(exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}"
    problems = outcome.problems + compare_counts(
        OUT / f"counts-{stem}-{source_digest()}.json", outcome.counts)
    makespans_path = OUT / f"makespans-{stem}.json"
    makespans_path.write_text(json.dumps(outcome.makespans, indent=1, sort_keys=True) + "\n")
    if args.trace:
        write_spans(OUT / f"trace-{stem}.jsonl", outcome.spans)

    print(f"machine: cpus={os.cpu_count()} arch={platform.machine()} "
          f"python={platform.python_version()} numpy={numpy.__version__}")
    print(f"workload {workload.name} seed {args.seed}: {len(instances)} instance(s) "
          f"x {len(workload.solves)} solve(s) per pass, trace={args.trace}")
    for key in sorted(set(outcome.makespans) - set(references)):
        print(f"note: no recorded reference for {key}; makespans written to "
              f"{makespans_path.relative_to(ROOT)}")
    for label, layers in outcome.shares.items():
        print(f"share of {label}: " + ", ".join(
            f"{layer} {share:.1%}" for layer, share in
            sorted(layers.items(), key=lambda kv: -kv[1])))
    emit(outcome, metrics, units, problems)
    return 0


if __name__ == "__main__":
    sys.exit(main())
