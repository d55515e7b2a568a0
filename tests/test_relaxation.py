"""Stage 2's batched relaxation and exact-equality walk-back against the
per-arc loops they replaced, kept here as oracles."""

import dataclasses
import time

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from drpe.baselines import _capped_op_table, initial_tsp_sequence, limop
import drpe.exact
from drpe.exact import _masks_by_popcount, _sweep_values, full_meta_sweep, solve_exact
from drpe.generator import get_setting, generate, metrics_from_coords, random_instance
import drpe.metagraph
import drpe.opsgraph
from drpe.metagraph import _meta_values, get_transition_lookup, solve_meta
from drpe.model import (
    BaseCostModel,
    InfeasibleError,
    Instance,
    Operation,
    RechargingLeg,
    TimeLimitError,
    build_tour,
)
from drpe.opsgraph import OperationCostTable, build_ops_graph, recover_operation_order
from tests.conftest import FlightPricing, binding_extended_model, dense_view, two_step_price
from tests.oracles import arcs_into_by_filter, brute_force_optimum, valid_at_stage

MODELS = [BaseCostModel, binding_extended_model]


def _per_arc_solve_meta(costs, inst, x, p, model):
    """The per-arc stage-2 loop with pointer arrays, pricing each arc's
    flights from ``costs`` (a table of minimal flights): (zeta, eps, tour)."""
    n_d, n_r = inst.n_d, inst.n_r
    c_r = inst.c_r
    lookup = get_transition_lookup(p)
    patterns = lookup.patterns
    n_pat = len(patterns)
    valid_at = [[valid_at_stage(pat, k, n_d) for pat in patterns]
                for k in range(n_d + 1)]
    zeta = np.full((n_d + 1, n_pat, n_r), np.inf)
    eps = np.full((n_d + 1, n_pat, n_r), np.inf)
    ptr_zeta = np.full((n_d + 1, n_pat, n_r), -1, dtype=np.int64)
    ptr_eps = [[[None] * n_r for _ in range(n_pat)] for _ in range(n_d + 1)]
    zeta[0, 0] = c_r[inst.w0]
    h_max = min(costs.max_op_size, n_d)
    dense = dense_view(costs)
    for k in range(n_d + 1):
        if k > 0:
            for b_id in range(n_pat):
                row = eps[k, b_id]
                if not valid_at[k][b_id] or not np.isfinite(row).any():
                    continue
                cand = row[:, None] + c_r
                zeta[k, b_id] = cand.min(axis=0)
                ptr_zeta[k, b_id] = cand.argmin(axis=0)
        if k == n_d:
            break
        for a_id in range(n_pat):
            za = zeta[k, a_id]
            if not valid_at[k][a_id] or not np.isfinite(za).any():
                continue
            for h in range(1, min(h_max, n_d - k) + 1):
                for b_id, ops in lookup.successors(a_id, h):
                    mask = ops << k >> (p - 1)
                    if not valid_at[k + h][b_id] or mask not in dense:
                        continue
                    cand = za[:, None] + two_step_price(model, dense[mask])
                    best = cand.min(axis=0)
                    improved = best < eps[k + h, b_id]
                    eps[k + h, b_id][improved] = best[improved]
                    arg = cand.argmin(axis=0)
                    for wp in np.flatnonzero(improved):
                        ptr_eps[k + h][b_id][wp] = (k, a_id, int(arg[wp]), mask)
    steps = []  # (operation, its start RL, its end RL, next RL), last first
    k, pat, w = n_d, 0, inst.wt
    while k > 0:
        wp = int(ptr_zeta[k, pat, w])
        k_prev, a_id, wpp, mask = ptr_eps[k][pat][wp]
        steps.append((mask, wpp, wp, w))
        k, pat, w = k_prev, a_id, wpp
    steps.reverse()
    items = [RechargingLeg(inst.w0, w)]
    for (_, wpp, wp, after), order in zip(
            steps, recover_operation_order(inst, x, [s[:3] for s in steps], p)):
        items += [Operation(wpp, tuple(x[t] for t in order), wp), RechargingLeg(wp, after)]
    return zeta, eps, build_tour(inst, items, model)


def _dense_sweep(inst, op_flights, model):
    """The per-entry exact sweep on full (n_r, n_r) weights, priced from
    minimal flights: (zeta, eps, arcs)."""
    n, n_r = inst.n_d, inst.n_r
    full = (1 << n) - 1
    c_r = inst.c_r
    masks_pc = _masks_by_popcount(n)
    items = []
    for mask in sorted(op_flights):
        weights = two_step_price(model, op_flights[mask])
        if np.isfinite(weights).any():
            items.append((mask, mask.bit_count(), weights))
    zeta = np.full((full + 1, n_r), np.inf)
    eps = np.full((full + 1, n_r), np.inf)
    zeta[0] = c_r[inst.w0]
    reach = np.zeros(full + 1, dtype=bool)
    reach[0] = True
    arcs = 0
    for k in range(n + 1):
        Ms = masks_pc[k]
        if k > 0:
            live = Ms[np.isfinite(eps[Ms]).any(axis=1)]
            if live.size:
                zeta[live] = (eps[live][:, :, None] + c_r[None, :, :]).min(axis=1)
                reach[live] = True
        if k == n:
            break
        src = Ms[reach[Ms]]
        for mask, pc, weights in items:
            Ts = src[(src & mask) == 0] if pc <= n - k else src[:0]
            if Ts.size:
                cand = (zeta[Ts][:, :, None] + weights[None, :, :]).min(axis=1)
                eps[Ts | mask] = np.minimum(eps[Ts | mask], cand)
                arcs += Ts.size
    return zeta, eps, arcs


def _twin_instance(seed, n_d=6, n_r=4):
    """RLs 1 and 2 share their coordinates, so every value through one
    equals the value through the other bitwise."""
    base = random_instance(seed, n_d=n_d, n_r=n_r)
    rl_xy = base.rl_xy.copy()
    rl_xy[1] = rl_xy[2] = base.dest_xy.mean(axis=0)
    c_d, c_r = metrics_from_coords(base.dest_xy, rl_xy, 0.5)
    return Instance(n_d=n_d, n_r=n_r, c_d=c_d, c_r=c_r, w0=0, wt=n_r - 1,
                    e_max=base.e_max, dest_xy=base.dest_xy, rl_xy=rl_xy)


def _rls_used(tour):
    used = set()
    for el in tour.elements:
        if isinstance(el, RechargingLeg):
            used |= {el.from_rl, el.to_rl}
        else:
            used |= {el.start_rl, el.end_rl}
    return used


@pytest.mark.parametrize("make_model", MODELS)
def test_batched_stage2_matches_per_arc_loop(make_model):
    cases = [(random_instance(seed, n_d=n_d, n_r=n_r), p)
             for seed, n_d, n_r in ((0, 6, 3), (1, 7, 4), (2, 8, 2), (3, 5, 1))
             for p in (1, 2, 3, 5)]
    cases += [(_twin_instance(4), 3)]
    for inst, p in cases:
        model = make_model(inst)
        x = initial_tsp_sequence(inst)
        table = build_ops_graph(inst, x, p, model=model)
        flights = build_ops_graph(inst, x, p, model=FlightPricing(model))
        zeta, eps, tour = _per_arc_solve_meta(flights, inst, x, p, model)
        new_zeta, new_eps, _, _ = _meta_values(table, inst)
        assert np.array_equal(new_zeta, zeta.reshape(new_zeta.shape))
        assert np.array_equal(new_eps, eps.reshape(new_eps.shape))
        assert repr(solve_meta(table, inst, model)[0]) == repr(tour)


def _assert_sweep_matches_dense_loop(inst, model, build):
    """``_sweep_values`` on the table ``build(model)`` against ``_dense_sweep``
    on the same table priced from its minimal flights: value bytes and arc
    count. Returns the sweep's (zeta, eps, arcs)."""
    zeta, eps, arcs = _dense_sweep(inst, dense_view(build(FlightPricing(model))), model)
    new_zeta, new_eps, new_arcs = _sweep_values(inst, build(model))
    assert np.ascontiguousarray(new_zeta.T).tobytes() == zeta.tobytes()
    assert np.ascontiguousarray(new_eps.T).tobytes() == eps.tobytes()
    assert new_arcs == arcs
    return new_zeta, new_eps, new_arcs


@pytest.mark.parametrize("make_model", MODELS)
def test_batched_sweep_matches_dense_loop(make_model):
    insts = [random_instance(seed, n_d=n_d, n_r=n_r)
             for seed, n_d, n_r in ((0, 6, 3), (1, 8, 4), (2, 9, 2), (3, 5, 1))]
    insts += [_twin_instance(5), generate(get_setting("Basis", "small"), 1)]
    for inst in insts:
        _assert_sweep_matches_dense_loop(
            inst, make_model(inst),
            lambda m: build_ops_graph(inst, tuple(range(inst.n_d)), None, model=m))


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 10_000), n_d=st.integers(1, 12), n_r=st.integers(1, 4),
       emax_scale=st.sampled_from([0.5, 1.0, 2.5]), make_model=st.sampled_from(MODELS),
       klim=st.sampled_from([None, 1, 2, 3]))
def test_sweep_matches_dense_loop_on_generated_tables(seed, n_d, n_r, emax_scale,
                                                      make_model, klim):
    # at half the generated e_max the farthest destinations are often out
    # of reach, so every set holding one is unreachable and so is every
    # source that holds one: the arc count must leave those sources out
    inst = random_instance(seed, n_d=n_d, n_r=n_r)
    inst = dataclasses.replace(inst, e_max=inst.e_max * emax_scale)
    if klim is None:
        build = lambda model: build_ops_graph(inst, tuple(range(n_d)), None, model=model)
    else:
        build = lambda model: _capped_op_table(inst, klim, model)
    _assert_sweep_matches_dense_loop(inst, make_model(inst), build)


@pytest.mark.parametrize("make_model", MODELS)
def test_sweep_edges_match_dense_loop(make_model):
    # one destination: one set, one level with a source
    inst = random_instance(5, n_d=1, n_r=3)
    model = make_model(inst)
    _assert_sweep_matches_dense_loop(
        inst, model, lambda m: build_ops_graph(inst, (0,), None, model=m))
    assert len(full_meta_sweep(inst, build_ops_graph(inst, (0,), None, model=model),
                               model)[0].operations()) == 1
    # a table of one set, the full one: one batch, relaxed from mask 0 only
    inst = random_instance(6, n_d=3, n_r=3, emax_factor=8.0)
    model = make_model(inst)
    full = build_ops_graph(inst, (0, 1, 2), None, model=FlightPricing(model))
    one_set = lambda m: OperationCostTable.from_dense(
        3, 3, [(0b111, m.price(dense_view(full)[0b111]))])
    _, _, arcs = _assert_sweep_matches_dense_loop(inst, model, one_set)
    assert arcs == 1
    tour, _ = full_meta_sweep(inst, one_set(model), model)
    assert len(tour.operations()) == 1


@pytest.mark.parametrize("make_model", MODELS)
def test_sweep_raises_infeasible_without_a_tour(make_model):
    # at half its e_max, destination 4 of this instance is out of reach
    inst = random_instance(3, n_d=5, n_r=3)
    inst = dataclasses.replace(inst, e_max=inst.e_max * 0.5)
    model = make_model(inst)
    build = lambda m: build_ops_graph(inst, tuple(range(5)), None, model=m)
    zeta, _, _ = _assert_sweep_matches_dense_loop(inst, model, build)
    assert not np.isfinite(zeta[:, -1]).any()
    with pytest.raises(InfeasibleError):
        full_meta_sweep(inst, build(model), model)


def test_time_limit_trips_inside_a_sweep_level(monkeypatch):
    # tiny blocks split level 0 (the empty source) into several; once one
    # block has run the limit counts as passed, so no further block runs
    inst = random_instance(1, n_d=8, n_r=3)
    table = build_ops_graph(inst, tuple(range(8)), None)
    monkeypatch.setattr(drpe.opsgraph, "CHUNK_VALUES", 64)
    levels = []
    relax_block = drpe.exact._relax_block

    def counted(zeta, eps, S, *rest):
        levels.append(int(S[0, 0]).bit_count())
        relax_block(zeta, eps, S, *rest)
    monkeypatch.setattr(drpe.exact, "_relax_block", counted)
    _sweep_values(inst, table)
    assert levels.count(0) > 1
    levels.clear()

    def check_deadline(deadline):
        if levels:
            raise TimeLimitError("time limit reached")
    monkeypatch.setattr(drpe.exact, "check_deadline", check_deadline)
    with pytest.raises(TimeLimitError):
        _sweep_values(inst, table, deadline=0.0)
    assert levels == [0]


@pytest.mark.parametrize("make_model", MODELS)
def test_table_rebuilt_from_its_dense_view_sweeps_alike(make_model):
    insts = [random_instance(seed, n_d=n_d, n_r=n_r)
             for seed, n_d, n_r in ((0, 6, 3), (1, 8, 4), (3, 5, 1))]
    insts += [_twin_instance(5), generate(get_setting("Basis", "small"), 1)]
    for inst in insts:
        model = make_model(inst)
        table = build_ops_graph(inst, tuple(range(inst.n_d)), None, model=model)
        rebuilt = OperationCostTable.from_dense(inst.n_d, inst.n_r, dense_view(table).items())
        zeta, eps, arcs = _sweep_values(inst, table)
        new_zeta, new_eps, new_arcs = _sweep_values(inst, rebuilt)
        assert zeta.tobytes() == new_zeta.tobytes() and eps.tobytes() == new_eps.tobytes()
        assert new_arcs == arcs
        assert (repr(full_meta_sweep(inst, rebuilt, model)[0])
                == repr(full_meta_sweep(inst, table, model)[0]))


@pytest.mark.parametrize("make_model", MODELS)
def test_stage2_values_do_not_depend_on_the_batch_size(make_model, monkeypatch):
    # chunks of one entry, chunks that span arcs of several gaps, and one
    # chunk larger than the whole table, which spans every stage
    cases = [(random_instance(seed, n_d=n_d, n_r=n_r, emax_factor=4.0), p)
             for seed, n_d, n_r in ((0, 8, 3), (1, 9, 2)) for p in (2, 4)]
    cases += [(_twin_instance(4), 3)]
    for inst, p in cases:
        model = make_model(inst)
        x = initial_tsp_sequence(inst)
        table = build_ops_graph(inst, x, p, model=model)
        zeta, eps, stats, _ = _meta_values(table, inst)
        tour = repr(solve_meta(table, inst, model)[0])
        for batch in (1, 7, 64, 1 << 40):
            monkeypatch.setattr(drpe.metagraph, "RELAX_BATCH", batch)
            new_zeta, new_eps, new_stats, _ = _meta_values(table, inst)
            assert np.array_equal(new_zeta, zeta) and np.array_equal(new_eps, eps)
            assert new_stats.arcs == stats.arcs
            assert repr(solve_meta(table, inst, model)[0]) == tour


@pytest.mark.parametrize("make_model", MODELS)
def test_walk_back_reads_the_arcs_a_filter_over_all_arcs_reads(make_model):
    cases = [(random_instance(seed, n_d=n_d, n_r=n_r, emax_factor=f), p)
             for seed, n_d, n_r, f in ((0, 8, 3, 4.0), (1, 9, 2, 1.6), (2, 7, 4, 4.0))
             for p in (1, 2, 4)]
    cases += [(_twin_instance(4), 3), (_twin_instance(6, n_d=8), 2)]
    for inst, p in cases:
        table = build_ops_graph(inst, initial_tsp_sequence(inst), p, model=make_model(inst))
        _, eps, _, arcs_into = _meta_values(table, inst)
        for row, wp in zip(*np.nonzero(np.isfinite(eps))):
            batches = list(arcs_into(int(row), int(wp)))
            assert len(batches) == 1
            want = arcs_into_by_filter(table, inst, int(row), int(wp))
            assert want[0].size
            for got, expected in zip(batches[0], want):
                assert got.dtype == expected.dtype and np.array_equal(got, expected)


def test_time_limit_stops_stage2_at_a_stage():
    inst = random_instance(2, n_d=8, n_r=3)
    x = initial_tsp_sequence(inst)
    table = build_ops_graph(inst, x, 3)
    with pytest.raises(TimeLimitError):
        solve_meta(table, inst, deadline=0.0)


def _twin_exact(inst):
    return solve_exact(inst).tour


def _twin_meta(inst):
    x = initial_tsp_sequence(inst)
    return solve_meta(build_ops_graph(inst, x, 3), inst)[0]


@pytest.mark.parametrize("solve", [_twin_exact, _twin_meta])
def test_twin_rls_resolve_to_the_lower_index(solve):
    # the walk-back takes the first equal match, so of two RLs that tie on
    # every value the tour uses the lower one only
    for seed in (0, 1, 4):
        used = _rls_used(solve(_twin_instance(seed)))
        assert 1 in used and 2 not in used


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 10_000), n_d=st.integers(2, 7), n_r=st.integers(1, 4),
       emax_factor=st.sampled_from([1.6, 4.0]), make_model=st.sampled_from(MODELS))
def test_exact_equals_brute_force_and_full_width(seed, n_d, n_r, emax_factor,
                                                 make_model):
    inst = random_instance(seed, n_d=n_d, n_r=n_r, emax_factor=emax_factor)
    model = make_model(inst)
    exact = solve_exact(inst, model=model).makespan
    assert exact == pytest.approx(brute_force_optimum(inst, model).makespan, abs=1e-9)
    x = initial_tsp_sequence(inst)
    meta, _ = solve_meta(build_ops_graph(inst, x, n_d, model=model), inst, model)
    assert meta.makespan == pytest.approx(exact, abs=1e-9)


def test_time_limit_trips_inside_the_stage1_build():
    # the p=None build of the loose instance holds 2.9M states; a limit far
    # below its run time must stop it between two of its levels
    setting = dataclasses.replace(get_setting("Basis", "small"), e_max=3000.0)
    inst = generate(setting, 1)
    order = tuple(range(inst.n_d))
    with pytest.raises(TimeLimitError):
        build_ops_graph(inst, order, None, deadline=time.perf_counter())
    with pytest.raises(TimeLimitError) as raised:
        solve_exact(inst, time_limit=0.05)
    assert any(entry.name == "build_ops_graph" for entry in raised.traceback)


def test_time_limit_stops_exact_and_limop():
    inst = generate(get_setting("Basis", "small"), 1)
    with pytest.raises(TimeLimitError):
        solve_exact(inst, time_limit=0)
    with pytest.raises(TimeLimitError):
        limop(inst, klim=2, time_limit=0)
    table = build_ops_graph(inst, tuple(range(inst.n_d)), None)
    with pytest.raises(TimeLimitError):
        full_meta_sweep(inst, table, deadline=0.0)


def test_reports_carry_layer_times():
    inst = random_instance(1, n_d=6, n_r=3)
    for rep in (solve_exact(inst, time_limit=60), limop(inst, klim=2)):
        layers = rep.extras["layers"]
        assert sorted(layers) == ["recovery_s", "stage1_s", "sweep_s"]
        assert all(v >= 0.0 for v in layers.values())
