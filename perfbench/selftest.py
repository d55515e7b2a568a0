"""Self-test of the benchmark harness on a tiny random instance.

    python3 perfbench/selftest.py

Checks that every metric of BENCHMARK.json is printed with its unit, that
a corrupted reference makespan, a raising solve and an invalid or
malformed tour each count as a failed solve instead of raising, and that the work counts
repeat exactly between runs.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import math
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import drpe  # noqa: E402

import harness  # noqa: E402
import run  # noqa: E402
from workloads import (  # noqa: E402
    EXACT, LIMOP, LS4, RTS, VND, Solve, Workload, fill_caches)

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())

TINY = Workload(
    name="tiny",
    bases=lambda: [drpe.random_instance(3, n_d=6, n_r=4, single_depot=True)],
    solves=(EXACT, LIMOP, VND, LS4, RTS),
    dominance=(("exact", LIMOP.label), ("exact", VND.label), (LS4.label, "rts")),
    widths=(2, 3, 4, 5, 6))


def tiny_run(traced: bool, references=None, seed: int = 7, workload=TINY):
    instances = workload.instances(seed)
    fill_caches(workload, instances)
    return harness.measure(workload, instances, 0.0, traced, references or {})


class HarnessSelfTest(unittest.TestCase):
    def test_every_metric_printed_with_its_unit(self):
        for traced, listed in ((False, "end_to_end"), (True, "per_layer")):
            outcome = tiny_run(traced)
            metrics, units = run.result_metrics(outcome, traced, [0.5, 0.25, 1.0])
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                run.emit(outcome, metrics, units, outcome.problems)
            lines = out.getvalue().splitlines()
            result = json.loads(lines[-1])
            self.assertTrue(result["correct"], lines)
            for spec in BENCHMARK[listed]:
                name, unit = spec["name"], spec["unit"]
                row = [ln.split() for ln in lines if ln.split()[:1] == [name]]
                self.assertEqual(len(row), 1, name)
                self.assertEqual(row[0][-1], unit, name)
                self.assertEqual(result["metrics"][name]["unit"], unit, name)
                self.assertTrue(math.isfinite(result["metrics"][name]["value"]), name)
            self.assertEqual(set(result["metrics"]), {s["name"] for s in BENCHMARK[listed]})

    def test_corrupted_reference_counts_as_failure(self):
        references = tiny_run(False).makespans
        key = next(k for k in references if "/exact/" in k)
        for bad in (references[key] * 1.001, "not a number", None, float("nan")):
            outcome = tiny_run(False, {**references, key: bad})
            self.assertEqual(outcome.failed, harness.MIN_PASSES, bad)
            self.assertEqual(outcome.attempted, harness.MIN_PASSES * len(TINY.solves))
            self.assertIn("reference", outcome.problems[0])
        self.assertEqual(tiny_run(False, references).failed, 0)

    def test_raising_and_invalid_solves_count_as_failures(self):
        def tampered(inst, model):
            report = EXACT.run(inst, model)
            report.tour.makespan -= 1.0
            return report

        def raising(inst, model):
            raise drpe.InfeasibleError("no tour")

        def out_of_range(inst, model):
            report = RTS.run(inst, model)
            parts = list(report.tour.elements)
            op = parts[-2]
            parts[-2:] = [drpe.Operation(op.start_rl, op.destinations, 99),
                          drpe.RechargingLeg(99, parts[-1].to_rl)]
            report.tour = drpe.DroneTour(tuple(parts), report.tour.makespan)
            return report

        broken = dataclasses.replace(TINY, solves=(
            Solve("tampered", "exact_s", "base", tampered),
            Solve("raising", "ls_s", "base", raising),
            Solve("out-of-range", "rts_s", "base", out_of_range), RTS))
        outcome = tiny_run(False, workload=broken)
        passes = harness.MIN_PASSES
        self.assertEqual((outcome.attempted, outcome.failed), (4 * passes, 3 * passes))
        self.assertIn("invalid tour", outcome.problems[0])
        self.assertIn("raised InfeasibleError", outcome.problems[1])
        self.assertIn("out-of-range", outcome.problems[2])

    def test_counts_repeat_exactly(self):
        first, second = tiny_run(True), tiny_run(True)
        self.assertEqual(first.problems, [])
        self.assertEqual(first.counts, second.counts)
        self.assertEqual(tiny_run(False, seed=8).counts["solves"], first.counts["solves"])
        run.OUT.mkdir(exist_ok=True)
        path = run.OUT / "selftest-counts.json"
        path.unlink(missing_ok=True)
        try:
            self.assertEqual(run.compare_counts(path, first.counts), [])
            self.assertEqual(run.compare_counts(path, second.counts), [])
            changed = {"solves": [[c + 1 for c in sig] for sig in first.counts["solves"]]}
            self.assertEqual(len(run.compare_counts(path, changed)), 1)
        finally:
            path.unlink(missing_ok=True)


if __name__ == "__main__":
    unittest.main()
