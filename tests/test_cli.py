import argparse
import csv
import json

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import drpe.cli
from drpe.cli import build_parser, main
from drpe.io import load_instance, load_solution, save_instance, save_solution
from drpe.generator import random_instance
from drpe.model import validate_tour
from drpe.oracle import split_optimal


def _gen(tmp_path, count=2, setting="Basis", seed=1):
    out = tmp_path / "instances"
    rc = main(["generate", "--setting", setting, "--size", "small",
               "--seed", str(seed), "--count", str(count), "--out", str(out)])
    assert rc == 0
    return out


def test_generate_writes_instances_and_manifest(tmp_path):
    out = _gen(tmp_path, count=3)
    files = sorted(out.glob("Basis_small_s*.json"))
    assert len(files) == 3
    manifest = json.loads((out / "manifest.json").read_text())
    assert len(manifest["instances"]) == 3
    for rec in manifest["instances"]:
        inst = load_instance(out / rec["file"])
        assert inst.n_d == rec["n_d"] == 16


def test_generate_deterministic(tmp_path):
    a = _gen(tmp_path / "a")
    b = _gen(tmp_path / "b")
    for fa, fb in zip(sorted(a.glob("*.json")), sorted(b.glob("*.json"))):
        assert fa.read_bytes() == fb.read_bytes()


def test_invalid_setting_is_usage_error(tmp_path):
    with pytest.raises(SystemExit) as err:
        main(["generate", "--setting", "Nope", "--out", str(tmp_path)])
    assert err.value.code == 2


def test_solve_writes_validated_solution(tmp_path):
    out = _gen(tmp_path, count=1)
    inst_path = next(out.glob("Basis_small_s*.json"))
    sol_path = tmp_path / "sol.json"
    rc = main(["solve", "--algo", "rts", "-i", str(inst_path), "--out", str(sol_path)])
    assert rc == 0
    tour = load_solution(sol_path)
    assert validate_tour(tour, load_instance(inst_path)).passed


def test_solve_deterministic_output(tmp_path):
    out = _gen(tmp_path, count=1)
    inst_path = next(out.glob("*s1.json"))
    s1, s2 = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["solve", "--algo", "vlsn-ls", "--p", "3", "-i", str(inst_path),
                 "--out", str(s1)]) == 0
    assert main(["solve", "--algo", "vlsn-ls", "--p", "3", "-i", str(inst_path),
                 "--out", str(s2)]) == 0
    assert s1.read_bytes() == s2.read_bytes()


def test_exact_size_guard_exit_code(tmp_path):
    inst = random_instance(0, n_d=20, n_r=3)
    path = tmp_path / "big.json"
    save_instance(inst, path)
    rc = main(["solve", "--algo", "exact", "-i", str(path)])
    assert rc == 3


def test_exact_alias(tmp_path):
    inst = random_instance(1, n_d=5, n_r=3)
    path = tmp_path / "small.json"
    save_instance(inst, path)
    assert main(["exact", "-i", str(path)]) == 0


def test_validate_subcommand(tmp_path):
    out = _gen(tmp_path, count=1)
    inst_path = next(out.glob("Basis_small_s*.json"))
    sol = tmp_path / "sol.json"
    main(["solve", "--algo", "rts", "-i", str(inst_path), "--out", str(sol)])
    assert main(["validate", "-i", str(inst_path), "-s", str(sol)]) == 0
    doc = json.loads(sol.read_text())
    doc["makespan"] += 5.0
    sol.write_text(json.dumps(doc))
    assert main(["validate", "-i", str(inst_path), "-s", str(sol)]) == 1


def test_validate_malformed_solution_is_clean_error(tmp_path, capsys):
    inst = random_instance(2, n_d=4, n_r=3)
    inst_path, sol = tmp_path / "inst.json", tmp_path / "sol.json"
    save_instance(inst, inst_path)
    save_solution(split_optimal(tuple(range(4)), inst), sol)
    good = json.loads(sol.read_text())
    for mutate, why in ((lambda el: el.update(type="hop"), "unknown element type"),
                        (lambda el: el.update(dests=[]), "at least one destination")):
        doc = json.loads(json.dumps(good))
        mutate(doc["elements"][1])
        sol.write_text(json.dumps(doc))
        assert main(["validate", "-i", str(inst_path), "-s", str(sol)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and why in err


def test_malformed_extended_file_is_clean_error(tmp_path, capsys):
    inst_path, costs = tmp_path / "inst.json", tmp_path / "costs.json"
    save_instance(random_instance(2, n_d=4, n_r=3), inst_path)
    for doc, why in (({"bogus": 1}, "unknown key 'bogus'"),
                     ([1, 2], "JSON object"),
                     ({"r_fl": "abc"}, "'r_fl' is not a number")):
        costs.write_text(json.dumps(doc))
        assert main(["solve", "--algo", "rts", "--model", "extended", "--extended",
                     str(costs), "-i", str(inst_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and why in err


def test_zero_flight_current_is_clean_error(tmp_path, capsys):
    inst_path, costs = tmp_path / "inst.json", tmp_path / "costs.json"
    save_instance(random_instance(2, n_d=4, n_r=3), inst_path)
    costs.write_text(json.dumps({"r_fl": 0, "r_hov": 0}))
    assert main(["solve", "--algo", "rts", "--model", "extended", "--extended",
                 str(costs), "-i", str(inst_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "r_fl" in err


def test_infeasible_solve_is_clean_error(tmp_path, capsys):
    # the usable charge covers takeoff and landing and almost no flight, so
    # no tour exists; ``main`` reports it like any other solver error
    inst_path, costs = tmp_path / "inst.json", tmp_path / "costs.json"
    save_instance(random_instance(2, n_d=4, n_r=3), inst_path)
    costs.write_text(json.dumps({"xi_max": (581658.0 + 15202.0 + 1.0) / 0.9}))
    for algo in ("exact", "limop", "vlsn"):
        assert main(["solve", "--algo", algo, "--model", "extended", "--extended",
                     str(costs), "-i", str(inst_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "no feasible tour" in err


# a JSON number that parses to +inf
BIG = "__1e400__"
# top-level fields of a saved instance (the free-text name aside), and the
# fields of a saved solution: its own and those of its first leg and first
# operation
INSTANCE_FIELDS = ("version", "n_d", "n_r", "depot_start", "depot_target", "e_max",
                   "rover_speed", "metrics", "destinations", "rls", "extra")
SOLUTION_FIELDS = ("makespan", "elements", "type", "from", "to", "start", "dests", "end")


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(target=st.tuples(st.just("instance"), st.sampled_from(INSTANCE_FIELDS))
       | st.tuples(st.just("solution"), st.sampled_from(SOLUTION_FIELDS)),
       value=st.sampled_from([None, [None], BIG, -1, True, False]) | st.text(max_size=4))
def test_malformed_field_is_clean_error(tmp_path, capsys, target, value):
    inst = random_instance(2, n_d=4, n_r=3)
    inst_path, sol_path = tmp_path / "inst.json", tmp_path / "sol.json"
    save_instance(inst, inst_path)
    save_solution(split_optimal(tuple(range(4)), inst), sol_path)
    kind, key = target
    path = inst_path if kind == "instance" else sol_path
    doc = json.loads(path.read_text())
    owner = (doc["elements"][0] if key in ("type", "from", "to")
             else doc["elements"][1] if key in ("start", "dests", "end") else doc)
    assume(json.dumps(owner[key]) != json.dumps(value))  # False == 0 in Python
    owner[key] = value
    path.write_text(json.dumps(doc).replace(json.dumps(BIG), "1e400"))
    capsys.readouterr()
    if kind == "instance":
        rc = main(["solve", "--algo", "vlsn", "--p", "2", "-i", str(inst_path)])
    else:
        rc = main(["validate", "-i", str(inst_path), "-s", str(sol_path)])
    assert rc in (1, 3)
    assert capsys.readouterr().err.startswith("error: ")


def test_enumerate_subcommand(capsys):
    assert main(["enumerate", "--n-d", "5", "--p", "2"]) == 0
    text = capsys.readouterr().out
    assert "8" in text and "agree" in text


def test_too_wide_pattern_tables_are_size_guard_exits(tmp_path, capsys):
    out = _gen(tmp_path, count=1)
    inst_path = str(next(out.glob("Basis_small_s1.json")))
    lookup = tmp_path / "lookup.csv"
    for argv in (["solve", "--algo", "vlsn", "--p", "16", "-i", inst_path],
                 ["enumerate", "--n-d", "5", "--p", "13"],
                 ["dump-lookup", "--p", "13", "--out", str(lookup)]):
        assert main(argv) == 3
        assert capsys.readouterr().err.startswith("error: ")
    assert not lookup.exists()


def test_dump_lookup_matches_published_rows(tmp_path, capsys):
    assert main(["dump-lookup", "--p", "4"]) == 0
    rows = list(csv.reader(capsys.readouterr().out.strip().splitlines()))
    assert rows[0][:3] == ["id", "s_minus", "s_plus"]
    body = rows[1:]
    assert len(body) == 8
    assert body[7][1] == "{k+1,k+2}"
    assert body[7][3] == "2,3"          # transitions of the paired pattern at h=1
    assert body[0][5] == "1,2,3,4,5,6,7,8"
    # --out writes the same rows, complete once main returns
    path = tmp_path / "lookup.csv"
    assert main(["dump-lookup", "--p", "4", "--out", str(path)]) == 0
    with path.open(newline="") as fh:
        assert list(csv.reader(fh)) == rows


def test_bench_single_cell(tmp_path):
    out = _gen(tmp_path, count=1)
    table = tmp_path / "bench.csv"
    rc = main(["bench", "--instances", str(out), "--algos", "rts",
               "--out", str(table)])
    assert rc == 0
    rows = list(csv.DictReader(table.open()))
    assert len(rows) == 1
    assert rows[0]["setting"] == "Basis" and rows[0]["algorithm"] == "rts"
    assert float(rows[0]["avg_gap_pct"]) == 0.0  # rts is its own reference


def test_bench_names_the_instance_files_it_cannot_read(tmp_path, capsys):
    out = _gen(tmp_path, count=1)
    good = next(out.glob("Basis_small_s*.json"))
    (out / "cut.json").write_bytes(good.read_bytes()[:100])
    (out / "latin.json").write_bytes('{"name": "caf\xe9"}'.encode("latin-1"))
    table = tmp_path / "bench.csv"
    rc = main(["bench", "--instances", str(out), "--algos", "rts", "--out", str(table)])
    assert rc == 0
    err = capsys.readouterr().err.splitlines()
    for name, reason in (("cut.json", "Expecting"), ("latin.json", "utf-8")):
        assert any(line.startswith(f"warning: skipping {out / name}: ") and reason in line
                   for line in err), err
    # the readable instance still runs
    rows = list(csv.DictReader(table.open()))
    assert [(r["algorithm"], r["instances"], r["failed"]) for r in rows] == [("rts", "1", "0")]


def test_bench_deterministic_value_columns(tmp_path):
    out = _gen(tmp_path, count=2)
    t1, t2 = tmp_path / "b1.csv", tmp_path / "b2.csv"
    args = ["bench", "--instances", str(out), "--algos", "exact,vlsn-ls,rts"]
    assert main(args + ["--out", str(t1)]) == 0
    assert main(args + ["--out", str(t2)]) == 0

    def values(path):
        rows = list(csv.DictReader(path.open()))
        return [(r["setting"], r["algorithm"], r["avg_gap_pct"],
                 r["worst_gap_pct"], r["matches"]) for r in rows]

    assert values(t1) == values(t2)
    # gap ordering on this sample: search at least as good as splitting
    rows = {r["algorithm"]: r for r in csv.DictReader(t1.open())}
    assert float(rows["vlsn-ls"]["avg_gap_pct"]) <= float(rows["rts"]["avg_gap_pct"]) + 1e-9
    assert float(rows["exact"]["avg_gap_pct"]) == 0.0


def test_bench_per_instance_appends_layer_columns(tmp_path):
    out = _gen(tmp_path, count=1)
    cells = tmp_path / "cells.csv"
    assert main(["bench", "--instances", str(out), "--algos", "vlsn-ls,sa",
                 "--out", str(tmp_path / "b.csv"), "--per-instance", str(cells)]) == 0
    header, *rows = list(csv.reader(cells.open()))
    assert header[:16] == ["setting", "instance", "algorithm", "value", "reference",
                           "gap_pct", "runtime_s", "seed", "config", "status",
                           "ops_states", "ops_arcs", "meta_states", "meta_arcs",
                           "neighborhoods", "iterations"]
    layers = header[16:]
    assert {"stage1_s", "stage2_s", "recovery_s"} <= set(layers)
    by_algo = {row[2]: dict(zip(layers, row[16:])) for row in rows}
    counts = {row[2]: dict(zip(header[9:16], row[9:16])) for row in rows}
    assert counts["vlsn-ls"]["status"] == counts["sa"]["status"] == "ok"
    assert int(counts["vlsn-ls"]["neighborhoods"]) > 0
    assert int(counts["vlsn-ls"]["ops_states"]) > 0 and int(counts["vlsn-ls"]["meta_arcs"]) > 0
    assert all(float(v) >= 0.0 for v in by_algo["vlsn-ls"].values())
    # sa reports no layers
    assert set(by_algo["sa"].values()) == {""}


def test_bench_registry_keeps_cost_models_apart(tmp_path, capsys):
    # with e_max=1250 the base model's tours are shorter than the default
    # extended model's; keyed by file hash alone, the extended run's values
    # became the base run's references and rts "beat" them
    out = _gen(tmp_path, count=1, setting="EnHigh")
    args = ["bench", "--instances", str(out), "--algos", "rts,vlsn-ls",
            "--out", str(tmp_path / "b.csv")]
    assert main(args + ["--model", "extended"]) == 0
    assert main(args) == 0
    registry = json.loads((out / "best_known.json").read_text())
    assert sorted(k.split(":")[1] for k in registry) == ["base", "extended"]

    # a heuristic beating the reference stays a hard failure, reported cleanly
    for entry in registry.values():
        entry["value"] *= 2.0
    (out / "best_known.json").write_text(json.dumps(registry))
    capsys.readouterr()
    assert main(args + ["--algos", "rts"]) == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_bench_summary_counts_failed_cells(tmp_path, capsys):
    out = tmp_path / "instances"
    out.mkdir()
    save_instance(random_instance(0, n_d=20, n_r=3), out / "big.json")
    table = tmp_path / "bench.csv"
    assert main(["bench", "--instances", str(out), "--algos", "exact,rts",
                 "--out", str(table), "--latex"]) == 0
    rows = {r["algorithm"]: r for r in csv.DictReader(table.open())}
    assert rows["exact"]["instances"] == "0" and rows["exact"]["failed"] == "1"
    assert rows["exact"]["avg_gap_pct"] == rows["exact"]["worst_gap_pct"] == ""
    assert rows["rts"]["instances"] == "1" and rows["rts"]["failed"] == "0"
    assert "& -- & 0.00 & -- & 0.00" in capsys.readouterr().out


def test_bench_counts_a_tour_failing_validation_as_failed(tmp_path, monkeypatch):
    # a solver whose tour caches the wrong makespan: its value must not
    # reach the gap table
    real_rts = drpe.cli.rts

    def stale_rts(inst, model=None):
        report = real_rts(inst, model=model)
        report.tour.makespan += 1.0
        return report

    monkeypatch.setattr(drpe.cli, "rts", stale_rts)
    out = _gen(tmp_path, count=1)
    table, cells = tmp_path / "bench.csv", tmp_path / "cells.csv"
    assert main(["bench", "--instances", str(out), "--algos", "vlsn,rts",
                 "--out", str(table), "--per-instance", str(cells)]) == 0
    rows = {r["algorithm"]: r for r in csv.DictReader(table.open())}
    assert rows["rts"]["instances"] == "0" and rows["rts"]["failed"] == "1"
    assert rows["rts"]["avg_gap_pct"] == rows["rts"]["worst_gap_pct"] == ""
    assert rows["vlsn"]["instances"] == "1" and rows["vlsn"]["failed"] == "0"
    cells = {r["algorithm"]: r for r in csv.DictReader(cells.open())}
    assert cells["rts"]["value"] == cells["rts"]["gap_pct"] == ""
    assert cells["rts"]["status"] == "error: failed validation"
    assert cells["vlsn"]["status"] == "ok"


@pytest.mark.parametrize("options, message", [
    (["--algos", "rts,pract"], "pract requires --model extended"),
    (["--algos", "rts,vlsn-vnd", "--p0", "9"], "need 1 <= p0 <= p_max"),
    (["--algos", "rts,limop", "--klim", "0"], "klim must be >= 1"),
    (["--algos", "rts,vlsn", "--p", "0"], "p must be >= 1"),
    (["--algos", "rts,vlsn-ls", "--p", "0"], "p must be >= 1"),
])
def test_bench_refuses_bad_solver_options_before_any_cell(tmp_path, monkeypatch, capsys,
                                                          options, message):
    # the rts cells come first; the usage error must stop the campaign
    # before them, writing no table and no registry
    calls = []
    monkeypatch.setattr(drpe.cli, "rts", lambda *args, **kwargs: calls.append(args))
    out = _gen(tmp_path, count=1)
    table = tmp_path / "bench.csv"
    assert main(["bench", "--instances", str(out), *options, "--out", str(table)]) == 2
    assert f"error: {message}" in capsys.readouterr().err
    assert calls == [] and not table.exists() and not (out / "best_known.json").exists()


def test_solver_options_are_read_only_by_their_solvers(tmp_path):
    # p0 and p_max configure the variable neighborhood descent alone, so
    # neither stops the solvers that ignore them; vlsn-ls searches at --p
    path = tmp_path / "small.json"
    save_instance(random_instance(1, n_d=5, n_r=3), path)
    assert main(["solve", "--algo", "rts", "--p-max", "1", "-i", str(path)]) == 0
    assert main(["solve", "--algo", "exact", "--p0", "9", "-i", str(path)]) == 0
    assert main(["solve", "--algo", "vlsn-ls", "--p", "3", "--p0", "9", "-i", str(path)]) == 0
    assert main(["solve", "--algo", "vlsn-vnd", "--p0", "9", "-i", str(path)]) == 1
    # drpe solve reports the solvers' own usage errors as failures
    assert main(["solve", "--algo", "limop", "--klim", "0", "-i", str(path)]) == 1
    assert main(["solve", "--algo", "vlsn", "--p", "0", "-i", str(path)]) == 1


@pytest.mark.parametrize("options, message", [
    (["--algo", "vlsn-ls", "--time-limit", "nan"], "--time-limit must be a finite number"),
    (["--algo", "vlsn-ls", "--time-limit", "-1"], "--time-limit must be a finite number"),
    (["--algo", "rts3nn", "--budget", "-3"], "--budget must be >= 0"),
    (["--algo", "rts3nn", "--seed", "-1"], "--seed must be >= 0"),
])
def test_run_options_no_run_can_honor_are_usage_errors(tmp_path, capsys, options, message):
    # each once ran: with no limit, returning the initial split, with zero
    # iterations, or into numpy's own error (exit 1)
    path, out = tmp_path / "small.json", tmp_path / "sol.json"
    save_instance(random_instance(1, n_d=5, n_r=3), path)
    with pytest.raises(SystemExit) as err:
        main(["solve", "-i", str(path), *options, "--out", str(out)])
    assert err.value.code == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_time_limit_reaches_exact_and_limop(tmp_path, capsys):
    out = _gen(tmp_path, count=1)
    inst_path = str(next(out.glob("Basis_small_s1.json")))
    for algo in ("vlsn", "exact", "limop"):
        assert main(["solve", "--algo", algo, "-i", inst_path,
                     "--time-limit", "0"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "time limit" in err
    table = tmp_path / "bench.csv"
    assert main(["bench", "--instances", str(out), "--algos", "exact,rts",
                 "--time-limit", "0", "--out", str(table)]) == 0
    rows = {r["algorithm"]: r for r in csv.DictReader(table.open())}
    assert rows["exact"]["failed"] == "1" and rows["rts"]["failed"] == "0"


def test_search_stats_print_layers_and_timeout(tmp_path, capsys):
    out = _gen(tmp_path, count=1)
    inst_path = str(next(out.glob("Basis_small_s1.json")))
    for algo in ("vlsn-ls", "vlsn-vnd"):
        assert main(["solve", "--algo", algo, "-i", inst_path,
                     "--time-limit", "0", "--stats"]) == 0
        printed = capsys.readouterr().out
        assert "iters=0" in printed and "timed_out: True" in printed
        assert "layers: {'initial_order_s': " in printed
        assert "'recovery_s': " in printed
    assert main(["solve", "--algo", "rts", "-i", inst_path, "--stats"]) == 0
    assert "layers: {'initial_order_s': " in capsys.readouterr().out


def test_validate_metric_closure(tmp_path):
    # the direct 0-1 flight is longer than the detour through node 2, so the
    # instance loads only with the closure
    doc = {
        "version": 1, "name": "detour", "n_d": 1, "n_r": 2,
        "depot_start": 0, "depot_target": 1, "e_max": 30.0,
        "metrics": {"drone": "matrix", "rover": "matrix"},
        "c_d": [[0, 10, 1], [10, 0, 1], [1, 1, 0]],
        "c_r": [[0, 1], [1, 0]],
    }
    inst_path, sol = tmp_path / "inst.json", tmp_path / "sol.json"
    inst_path.write_text(json.dumps(doc))
    assert main(["solve", "--algo", "exact", "--metric-closure", "-i",
                 str(inst_path), "--out", str(sol)]) == 0
    assert main(["validate", "-i", str(inst_path), "-s", str(sol)]) == 1
    assert main(["validate", "--metric-closure", "-i", str(inst_path),
                 "-s", str(sol)]) == 0


# every subcommand's options: (option strings, type, default, choices,
# required), as the shared option groups were introduced with
INSTANCE_OPTIONS = [(("-i", "--instance"), None, None, None, True),
                    (("--metric-closure",), None, False, None, False)]
COST_OPTIONS = [(("--model",), None, "base", ("base", "extended"), False),
                (("--extended",), None, None, None, False)]
SOLVER_OPTIONS = [(("--p",), int, 4, None, False), (("--p0",), int, 2, None, False),
                  (("--p-max",), int, 8, None, False), (("--klim",), int, 2, None, False),
                  (("--budget",), int, 200, None, False)]
RUN_OPTIONS = [(("--seed",), int, 0, None, False),
               (("--time-limit",), float, None, None, False),
               (("--out",), None, None, None, False)]
STATS = (("--stats",), None, False, None, False)
CLI_OPTIONS = {
    "generate": RUN_OPTIONS + [
        (("--setting",), None, "Basis", ("Basis", "SpLow", "SpHigh", "EnLow", "EnHigh",
                                         "LocLow", "LocHigh", "DenLow", "DenHigh", "all"),
         False),
        (("--size",), None, "small", ("small", "large"), False),
        (("--count",), int, 10, None, False)],
    "solve": INSTANCE_OPTIONS + SOLVER_OPTIONS + COST_OPTIONS + RUN_OPTIONS + [
        STATS,
        (("--algo",), None, "vlsn-ls", ("vlsn", "vlsn-ls", "vlsn-vnd", "rts", "exact",
                                        "limop", "rts3nn", "sa", "pract"), False)],
    "exact": INSTANCE_OPTIONS + SOLVER_OPTIONS + COST_OPTIONS + RUN_OPTIONS + [STATS],
    "validate": INSTANCE_OPTIONS + COST_OPTIONS + [
        (("-s", "--solution"), None, None, None, True)],
    "enumerate": [(("--n-d",), int, None, None, True), (("--p",), int, None, None, True),
                  (("--oracle-limit",), int, 8, None, False)],
    "dump-lookup": [(("--p",), int, None, None, True), (("--out",), None, None, None, False)],
    "bench": SOLVER_OPTIONS + COST_OPTIONS + RUN_OPTIONS + [
        (("--instances",), None, None, None, True),
        (("--algos",), None, "exact,vlsn-ls,vlsn-vnd,rts,limop", None, False),
        (("--workers",), int, 1, None, False),
        (("--per-instance",), None, None, None, False),
        (("--latex",), None, False, None, False)],
}


def test_subcommand_options_are_unchanged():
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    assert sorted(sub.choices) == sorted(CLI_OPTIONS)
    for name, parser in sub.choices.items():
        got = [(tuple(a.option_strings), a.type, a.default, a.choices, a.required)
               for a in parser._actions if a.dest != "help"]
        assert sorted(got, key=repr) == sorted(CLI_OPTIONS[name], key=repr), name
