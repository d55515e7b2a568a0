"""Acceptance suite: every release criterion at its stated tolerance.

Each test prints one `[criterion N] PASS/FAIL` line (run pytest with -s or
check the captured output). The benchmark-campaign criterion generates the
full small data set and runs every solver on it, so the module takes a few
minutes on a laptop-class machine.
"""

import csv
import math
import os
import time

import numpy as np
import pytest

from drpe.baselines import initial_tsp_sequence
from drpe.cli import BENCH_COUNTS, main
from drpe.energy import (
    DroneEnergyParams,
    ExtendedCostModel,
    ExtendedCosts,
    battery_current,
    case_study_instance,
    pract,
)
from drpe.exact import solve_exact
from drpe.generator import random_instance
from drpe.metagraph import (
    count_bs_sequences,
    enumerate_valid_patterns,
    get_transition_lookup,
    solve_meta,
)
from drpe.model import BaseCostModel, validate_tour
from drpe.opsgraph import build_ops_graph
from drpe.oracle import enumerate_bs_neighbors, is_bs_neighbor, split_optimal
from drpe.search import shifted_permutations, vlsn, vlsn_ls

from tests.conftest import FlightPricing, dense_view
from tests.oracles import (
    brute_force_optimum,
    degenerate_costs,
    enumerate_valid_operation_sequences,
    ops_nonterminal_state_bound,
)
from tests.test_metagraph import PUBLISHED_PATTERNS_P4, PUBLISHED_TRANSITIONS_P4


def _verdict(num: int, ok: bool, detail: str) -> None:
    print(f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_c01_exact_equals_brute_force():
    worst = 0.0
    rng = np.random.default_rng(101)
    for k in range(50):
        n_d = int(rng.integers(3, 8))
        n_r = int(rng.integers(2, 5))
        inst = random_instance(1000 + k, n_d=n_d, n_r=n_r)
        gap = abs(solve_exact(inst).makespan - brute_force_optimum(inst).makespan)
        worst = max(worst, gap)
    _verdict(1, worst <= 1e-9, f"50 instances, worst |exact - brute| = {worst:.2e}")


def test_c02_width_one_is_the_splitter_exactly():
    mismatches = 0
    rng = np.random.default_rng(202)
    for k in range(100):
        n_d = int(rng.integers(2, 13))
        n_r = int(rng.integers(2, 7))
        inst = random_instance(2000 + k, n_d=n_d, n_r=n_r)
        x = tuple(rng.permutation(n_d).tolist())
        if vlsn(inst, x, 1).makespan != split_optimal(x, inst).makespan:
            mismatches += 1
    _verdict(2, mismatches == 0, f"100 instances, {mismatches} value mismatches")


def test_c03_c04_full_width_convergence_and_monotonicity():
    worst = 0.0
    rng = np.random.default_rng(304)
    monotone = True
    for k in range(30):
        n_d = int(rng.integers(5, 9))
        inst = random_instance(3000 + k, n_d=n_d, n_r=3)
        opt = solve_exact(inst).makespan
        for _ in range(3):
            x = tuple(rng.permutation(n_d).tolist())
            prev = math.inf
            for p in range(1, n_d + 1):
                val = vlsn(inst, x, p).makespan
                if val > prev + 1e-9:
                    monotone = False
                prev = val
            worst = max(worst, abs(prev - opt))
    _verdict(3, worst <= 1e-9,
             f"30 instances x 3 orders, worst |vlsn(p=n_d) - exact| = {worst:.2e}")
    _verdict(4, monotone, "vlsn value non-increasing over p = 1..n_d everywhere")


def test_c05_neighborhood_counts():
    table_ok = len(enumerate_bs_neighbors(tuple(range(5)), 2)) == 8
    bound_ok = True
    for n_d in range(2, 9):
        x = tuple(range(n_d))
        for p in range(1, 6):
            count = len(enumerate_bs_neighbors(x, p))
            if count < ((p - 1) / math.e) ** (n_d - 1) - 1e-12:
                bound_ok = False
    # the published p=2 counts also hold the single-depot wrap-around
    # orders that fall outside the neighborhood: 8+2, 21+2, 55+2, 144+2
    published = {5: 10, 7: 23, 9: 57, 11: 146}
    ours, oracle_ok = {}, True
    for n_d in published:
        x = tuple(range(n_d))
        wrap = sum(not is_bs_neighbor(x, y, 2) for y in shifted_permutations(x, 2))
        ours[n_d] = count_bs_sequences(n_d, 2) + wrap
        if n_d <= 8 and count_bs_sequences(n_d, 2) != len(enumerate_bs_neighbors(x, 2)):
            oracle_ok = False
    _verdict(5, table_ok and bound_ok and oracle_ok and ours == published,
             "8 neighbors at (n_d=5, p=2); size lower bound holds for n_d<=8, p<=5; "
             f"p=2 counts with wrap-around orders {ours} match the published table")


def test_c06_pattern_table():
    counts_ok = all(len(enumerate_valid_patterns(p)) == 2 ** (p - 1)
                    for p in range(1, 9))
    pats = enumerate_valid_patterns(4)
    rows_ok = [(q.minus, q.plus) for q in pats] == PUBLISHED_PATTERNS_P4
    lookup = get_transition_lookup(4)
    trans_ok = True
    for a_id, per_h in PUBLISHED_TRANSITIONS_P4.items():
        for h, expect in per_h.items():
            if [b + 1 for b, _ in lookup.successors(a_id - 1, h)] != expect:
                trans_ok = False
    _verdict(6, counts_ok and rows_ok and trans_ok,
             "2^(p-1) patterns for p in [1,8]; p=4 rows and h in {1,2,3} "
             "transitions reproduce the published lookup table")


def test_c07_ops_table_optimality_unlimited_energy():
    worst = 0.0
    keys_ok = True
    for seed in (7001, 7002):
        base = random_instance(seed, n_d=6, n_r=3)
        from drpe.model import Instance
        inst = Instance(n_d=6, n_r=3, c_d=base.c_d, c_r=base.c_r,
                        w0=base.w0, wt=base.wt, e_max=1e18)
        x = tuple(np.random.default_rng(seed).permutation(6).tolist())
        for p in (2, 3):
            # the table holds flights, not makespans, to compare with them
            table = build_ops_graph(inst, x, p, model=FlightPricing(BaseCostModel(inst)))
            oracle = {}
            for s in enumerate_valid_operation_sequences(6, p):
                m = sum(1 << t for t in s)
                dests = [x[t] for t in s]
                inner = sum(inst.cd_dd[a, b] for a, b in zip(dests, dests[1:]))
                mat = (inst.cd_rd[:, dests[0], None] + inner
                       + inst.cd_dr[None, dests[-1], :])
                oracle[m] = mat if m not in oracle else np.minimum(oracle[m], mat)
            dense = dense_view(table)
            if set(dense) != set(oracle):
                keys_ok = False
            for m, mat in dense.items():
                worst = max(worst, float(np.abs(mat - oracle[m]).max()))
    _verdict(7, keys_ok and worst <= 1e-9,
             f"(n_d=6, p in {{2,3}}, e_max=inf): worst entry error {worst:.2e}, "
             f"key sets {'match' if keys_ok else 'differ'}")


def test_c08_state_count_bounds():
    ops_ok = meta_ok = True
    p = 3
    rng = np.random.default_rng(808)
    for k in range(20):
        n_d = int(rng.integers(10, 17))
        n_r = int(rng.integers(3, 7))
        inst = random_instance(8000 + k, n_d=n_d, n_r=n_r)
        x = initial_tsp_sequence(inst)
        table = build_ops_graph(inst, x, p)
        if table.stats.nonterminal_states > ops_nonterminal_state_bound(n_d, n_r, p):
            ops_ok = False
        _, stats = solve_meta(table, inst)
        for stage in range(p - 1, n_d - p + 2):
            if stats.patterns_per_stage[stage] * n_r != n_r * 2 ** (p - 1):
                meta_ok = False
    _verdict(8, ops_ok and meta_ok,
             "20 instances: ops states within the closed-form cap, "
             "meta states = n_r * 2^(p-1) at every typical stage")


# ---------------------------------------------------------------------------
# Benchmark campaign
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def campaign(tmp_path_factory):
    root = tmp_path_factory.mktemp("campaign")
    inst_dir = root / "instances"
    for setting in ("Basis", "SpLow", "SpHigh", "EnLow", "EnHigh",
                    "LocLow", "LocHigh", "DenLow", "DenHigh"):
        rc = main(["generate", "--setting", setting, "--size", "small",
                   "--seed", "1", "--count", "10", "--out", str(inst_dir)])
        assert rc == 0
    table = root / "summary.csv"
    cells = root / "cells.csv"
    workers = min(8, os.cpu_count() or 1)
    t0 = time.perf_counter()
    rc = main(["bench", "--instances", str(inst_dir),
               "--algos", "exact,vlsn-ls,vlsn-vnd,rts,limop",
               "--p", "4", "--p0", "2", "--p-max", "8", "--klim", "2",
               "--workers", str(workers),
               "--out", str(table), "--per-instance", str(cells)])
    assert rc == 0
    elapsed = time.perf_counter() - t0
    summary = list(csv.DictReader(table.open()))
    detail = list(csv.DictReader(cells.open()))
    return {"summary": summary, "detail": detail, "elapsed": elapsed,
            "dir": inst_dir}


def test_c09_small_campaign_dominance(campaign):
    rows = {(r["setting"], r["algorithm"]): r for r in campaign["summary"]}
    settings = sorted({s for s, _ in rows})
    assert len(settings) == 9

    order_ok = True
    negative_gap = False
    for s in settings:
        vnd = float(rows[(s, "vlsn-vnd")]["avg_gap_pct"])
        ls = float(rows[(s, "vlsn-ls")]["avg_gap_pct"])
        rts_gap = float(rows[(s, "rts")]["avg_gap_pct"])
        if not (vnd <= ls + 1e-9 and ls <= rts_gap + 1e-9):
            order_ok = False
        print(f"   {s:8s} vnd={vnd:6.2f}%  ls={ls:6.2f}%  rts={rts_gap:6.2f}%  "
              f"limop={float(rows[(s, 'limop')]['avg_gap_pct']):6.2f}%")
    for cell in campaign["detail"]:
        if cell["gap_pct"] and float(cell["gap_pct"]) < -1e-7:
            negative_gap = True

    vnd_cells = [float(c["gap_pct"]) for c in campaign["detail"]
                 if c["algorithm"] == "vlsn-vnd" and c["gap_pct"]]
    total_avg = sum(vnd_cells) / len(vnd_cells)
    print(f"   total vlsn-vnd average gap: {total_avg:.3f}% over {len(vnd_cells)} "
          f"instances ({campaign['elapsed']:.0f}s wall)")
    _verdict(9, order_ok and not negative_gap and total_avg <= 3.0,
             f"9 settings x 10 seeds: per-setting vnd<=ls<=rts {order_ok}, "
             f"no heuristic beat the optimum, vnd total avg {total_avg:.3f}% <= 3%")


def test_c10_exact_scale(campaign):
    times = [float(c["runtime_s"]) for c in campaign["detail"]
             if c["algorithm"] == "exact" and c["setting"] == "Basis"]
    worst = max(times)
    _verdict(10, len(times) == 10 and worst < 1200.0,
             f"all 10 base-setting instances solved exactly, worst {worst:.1f}s "
             "< 20 min")


def test_c11_energy_model():
    params = DroneEnergyParams(k=3.1e-3, weight=60.0, drag_coeff=0.011)
    rel = []
    for v in (0.0, 2.0, 8.0):
        level = battery_current(params, v, 0.0)
        closed = params.k * (params.weight ** 2 + (params.drag_coeff * v * v) ** 2) ** 0.75
        rel.append(abs(level - closed) / closed)
    hover = battery_current(params, 0.0, 0.4)
    rel.append(abs(hover - params.k * params.weight ** 1.5) / hover)
    closed_ok = max(rel) <= 1e-12

    worst_degen = 0.0
    for seed in range(20):
        inst = random_instance(11000 + seed, n_d=6, n_r=3)
        base = solve_exact(inst).makespan
        ext = solve_exact(inst, model=ExtendedCostModel(inst, degenerate_costs(inst))).makespan
        worst_degen = max(worst_degen, abs(ext - base))
    degen_ok = worst_degen <= 1e-9

    costs = ExtendedCosts()
    dominated = valid = 0
    improvements = []
    for seed in range(10):
        inst = case_study_instance(seed)
        model = ExtendedCostModel(inst, costs)
        pr = pract(inst, costs)
        ls = vlsn_ls(inst, p=4, model=model)
        if validate_tour(pr.tour, inst, model, energy_required=False).passed:
            valid += 1
        if pr.makespan >= ls.makespan - 1e-9:
            dominated += 1
        improvements.append((pr.makespan - ls.makespan) / pr.makespan * 100.0)
    print(f"   search vs practitioner baseline: mean improvement "
          f"{np.mean(improvements):.1f}% (published case reports 20%)")
    _verdict(11, closed_ok and degen_ok and valid == 10 and dominated == 10,
             f"closed forms at 1e-12; degeneration worst {worst_degen:.2e}; "
             f"practitioner tours valid {valid}/10 and dominated {dominated}/10")


def test_c12_determinism(tmp_path):
    gen_args = ["generate", "--setting", "EnLow", "--size", "small",
                "--seed", "5", "--count", "2"]
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(gen_args + ["--out", str(a)]) == 0
    assert main(gen_args + ["--out", str(b)]) == 0
    gen_same = all(fa.read_bytes() == fb.read_bytes()
                   for fa, fb in zip(sorted(a.glob("*.json")), sorted(b.glob("*.json"))))

    inst = next(a.glob("EnLow_small_s5.json"))
    sols = []
    for tag in ("s1", "s2"):
        path = tmp_path / f"{tag}.json"
        assert main(["solve", "--algo", "vlsn-vnd", "-i", str(inst),
                     "--seed", "3", "--out", str(path)]) == 0
        sols.append(path.read_bytes())
    solve_same = sols[0] == sols[1]

    tables, counts = [], []
    for tag in ("t1", "t2"):
        out, cells = tmp_path / f"{tag}.csv", tmp_path / f"{tag}.cells.csv"
        assert main(["bench", "--instances", str(a), "--algos", "rts,sa,rts3nn,vlsn-ls",
                     "--budget", "30", "--seed", "7", "--out", str(out),
                     "--per-instance", str(cells)]) == 0
        rows = list(csv.DictReader(out.open()))
        tables.append([(r["setting"], r["algorithm"], r["avg_gap_pct"],
                        r["worst_gap_pct"], r["matches"]) for r in rows])
        counts.append([(r["instance"], r["algorithm"], *(r[n] for n in BENCH_COUNTS))
                       for r in csv.DictReader(cells.open())])
    bench_same = tables[0] == tables[1]
    # the search's work counts are nonzero, so equal counts say something
    counts_same = counts[0] == counts[1] and any(
        int(row[2]) > 0 for row in counts[0] if row[1] == "vlsn-ls")
    _verdict(12, gen_same and solve_same and bench_same and counts_same,
             f"instances byte-identical {gen_same}; solutions byte-identical "
             f"{solve_same}; campaign value columns identical {bench_same}; "
             f"per-instance work counts identical {counts_same}")
