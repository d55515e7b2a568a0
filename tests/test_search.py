import time

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import drpe.metagraph
import drpe.search
from drpe.exact import solve_exact
from drpe.generator import generate, get_setting, random_instance
from drpe.metagraph import solve_meta
from drpe.model import EPS, BaseCostModel, SizeGuardError, TimeLimitError, validate_tour
from drpe.opsgraph import build_ops_graph, recover_operation_order
from drpe.oracle import block_prices, is_bs_neighbor, split_optimal
from drpe.search import (
    SearchConfig,
    rts,
    shifted_permutations,
    vlsn,
    vlsn_ls,
    vlsn_vnd,
)
from drpe.baselines import initial_tsp_sequence
from tests.conftest import binding_extended_model, twin_destination_instance, twin_rl_instance
from tests.oracles import brute_force_optimum


def test_width_one_is_the_splitter():
    for make_model in (BaseCostModel, binding_extended_model):
        for seed in range(8):
            inst = random_instance(seed, n_d=8, n_r=4)
            model = make_model(inst)
            x = tuple(np.random.default_rng(seed).permutation(8).tolist())
            assert (vlsn(inst, x, 1, model=model).makespan
                    == split_optimal(x, inst, model).makespan)


def test_full_width_is_exact():
    inst = random_instance(4, n_d=6, n_r=4)
    x = tuple(range(6))
    got = vlsn(inst, x, 6).makespan
    assert got == pytest.approx(brute_force_optimum(inst).makespan, abs=1e-9)


def test_value_monotone_in_width():
    for seed in range(6):
        inst = random_instance(seed, n_d=6, n_r=3)
        x = initial_tsp_sequence(inst)
        values = [vlsn(inst, x, p).makespan for p in range(1, 7)]
        for a, b in zip(values, values[1:]):
            assert b <= a + 1e-9


def test_reports_validate_and_respect_membership():
    for seed in range(4):
        inst = random_instance(seed, n_d=7, n_r=3)
        x = initial_tsp_sequence(inst)
        tour, _ = solve_meta(build_ops_graph(inst, x, 3), inst)
        assert validate_tour(tour, inst).passed
        assert is_bs_neighbor(x, tour.destination_order(), 3)


def test_ls_fixed_point_at_optimum():
    inst = random_instance(9, n_d=6, n_r=3)
    best = brute_force_optimum(inst)
    rep = vlsn_ls(inst, best.destination_order(), p=2)
    assert rep.makespan == pytest.approx(best.makespan, abs=1e-9)
    assert rep.iterations <= 2


def test_ls_improves_monotonically_and_beats_rts():
    for seed in range(5):
        inst = random_instance(seed, n_d=10, n_r=4)
        base = rts(inst)
        ls = vlsn_ls(inst, p=3)
        assert ls.makespan <= base.makespan + 1e-9
        assert validate_tour(ls.tour, inst).passed


def test_ls_not_below_exact():
    for seed in range(4):
        inst = random_instance(seed, n_d=6, n_r=3)
        assert vlsn_ls(inst, p=4).makespan >= solve_exact(inst).makespan - 1e-9


def test_vnd_degenerate_schedule_is_ls():
    inst = random_instance(11, n_d=8, n_r=3)
    cfg = SearchConfig(p0=3, p_max=3)
    vnd = vlsn_vnd(inst, config=cfg)
    ls = vlsn_ls(inst, p=3)
    assert vnd.makespan == pytest.approx(ls.makespan, abs=1e-9)


def test_vnd_zero_budget_returns_split_baseline():
    inst = random_instance(12, n_d=8, n_r=3)
    x0 = initial_tsp_sequence(inst)
    rep = vlsn_vnd(inst, x0, SearchConfig(time_limit=0.0))
    assert rep.makespan == split_optimal(x0, inst).makespan
    assert rep.iterations == 0


def test_vnd_reaches_exact_with_full_widths():
    inst = random_instance(13, n_d=10, n_r=3)
    rep = vlsn_vnd(inst, config=SearchConfig(p0=2, p_max=10))
    assert rep.makespan == pytest.approx(solve_exact(inst).makespan, abs=1e-9)


def test_widths_beyond_n_d_are_searched_at_n_d():
    # at p >= n_d every order is a neighbor, so LS and VND search a wider
    # width at n_d instead of skipping it or building a larger graph
    inst = random_instance(14, n_d=6, n_r=3)
    exact = solve_exact(inst).makespan
    wide, at_n_d = vlsn_ls(inst, p=9), vlsn_ls(inst, p=6)
    assert wide.algorithm == "vlsn-ls(p=9)" and wide.extras["p"] == 9
    assert wide.makespan == at_n_d.makespan == pytest.approx(exact, abs=1e-9)
    assert (wide.neighborhoods, wide.ops_states) == (at_n_d.neighborhoods, at_n_d.ops_states)
    vnd = vlsn_vnd(inst, config=SearchConfig(p0=8, p_max=9))
    assert vnd.neighborhoods >= 1
    assert vnd.makespan == pytest.approx(exact, abs=1e-9)


def test_rts_identity():
    for seed in range(4):
        inst = random_instance(seed, n_d=9, n_r=4)
        x = initial_tsp_sequence(inst)
        assert rts(inst).makespan == vlsn(inst, x, 1).makespan


def test_ls_never_worse_than_rts_at_benchmark_size():
    from drpe.generator import generate, get_setting
    inst = generate(get_setting("Basis", "small"), seed=4)
    assert vlsn_ls(inst, p=4).makespan <= rts(inst).makespan + 1e-9


def test_rts_free_rover_reduces_to_flight_split():
    import numpy as np
    from drpe.model import Instance
    from tests.test_oracle import _block_split_best
    base = random_instance(17, n_d=6, n_r=3)
    inst = Instance(n_d=6, n_r=3, c_d=base.c_d, c_r=np.zeros((3, 3)),
                    w0=base.w0, wt=base.wt, e_max=1e18)
    x = initial_tsp_sequence(inst)
    assert rts(inst).makespan == pytest.approx(_block_split_best(x, inst), abs=1e-9)


def test_shifted_permutations_shape():
    x = tuple(range(12))
    for p in (2, 3, 4, 5):
        perms = shifted_permutations(x, p)
        assert len(perms) == p * (p - 1)
        assert len(set(perms)) == len(perms)
        for y in perms:
            assert sorted(y) == list(x)
            assert y != x


def _copied_block_shifted_permutations(x, p):
    """The two copied pop/insert blocks ``shifted_permutations`` replaced,
    kept as its oracle."""
    x = list(x)
    n = len(x)
    out, seen = [], {tuple(x)}
    for a in range(min(p - 1, n)):
        for b in range(p - 1 - a):
            y = list(x)
            v = y.pop(a)
            y.insert(len(y) - b, v)
            t = tuple(y)
            if t not in seen:
                seen.add(t)
                out.append(t)
            y = list(x)
            v = y.pop(n - 1 - a)
            y.insert(b, v)
            t = tuple(y)
            if t not in seen:
                seen.add(t)
                out.append(t)
    return out


def test_shifted_permutations_match_the_copied_blocks():
    # vlsn keeps the first strictly better order, so the order counts too
    for n in range(12):
        x = tuple(np.random.default_rng(n).permutation(n).tolist())
        for p in range(1, 10):
            assert shifted_permutations(x, p) == _copied_block_shifted_permutations(x, p)


def test_single_depot_extension_only_helps():
    for seed in range(4):
        inst = random_instance(seed, n_d=7, n_r=3, single_depot=True)
        x = initial_tsp_sequence(inst)
        with_ext = vlsn(inst, x, 3).makespan
        without = solve_meta(build_ops_graph(inst, x, 3), inst)[0].makespan
        assert with_ext <= without + 1e-9


@pytest.mark.parametrize("make_model", [BaseCostModel, binding_extended_model])
def test_incumbent_screen_skips_only_neighborhoods_that_cannot_win(make_model, monkeypatch):
    recovered = []

    def counted(*args, **kwargs):
        recovered.append(None)
        return recover_operation_order(*args, **kwargs)

    monkeypatch.setattr(drpe.metagraph, "recover_operation_order", counted)
    improved = []
    for seed in range(6):
        inst = random_instance(seed, n_d=8, n_r=3, single_depot=seed % 2 == 1)
        model = make_model(inst)
        x = initial_tsp_sequence(inst)
        center = split_optimal(x, inst, model)
        for p in (1, 2, 3, 4):
            plain = vlsn(inst, x, p, model=model)
            # no tour of the neighborhood or of the wrap-around orders
            # beats the search's own result: no walk-back, no recovery
            recovered.clear()
            assert vlsn(inst, x, p, model=model, incumbent=plain.tour).tour is plain.tour
            assert not recovered
            # against the center's split: the same tour when the search
            # beats it, else the incumbent itself
            screened = vlsn(inst, x, p, model=model, incumbent=center).tour
            improved.append(plain.makespan < center.makespan - EPS)
            if improved[-1]:
                assert repr(screened) == repr(plain.tour)
            else:
                assert screened is center
    assert 0 < sum(improved) < len(improved)


DESCENT_COUNTS = ("neighborhoods", "iterations", "ops_states", "ops_arcs", "meta_states",
                  "meta_arcs")


def _descents():
    for p0, p_max in ((1, 4), (2, 5), (1, 6), (2, 6)):
        yield lambda inst, model, p0=p0, p_max=p_max: vlsn_vnd(
            inst, config=SearchConfig(p0=p0, p_max=p_max), model=model)
    for p in (2, 3, 4):
        yield lambda inst, model, p=p: vlsn_ls(inst, p=p, model=model)


@pytest.mark.parametrize("make_model", [BaseCostModel, binding_extended_model])
def test_descents_split_each_order_once_and_return_what_resplitting_did(
        make_model, monkeypatch):
    split = []

    def counted(y, *args, **kwargs):
        split.append(tuple(y))
        return split_optimal(y, *args, **kwargs)

    def unsettled(*args, settled=None, **kwargs):
        return vlsn(*args, **kwargs)

    monkeypatch.setattr(drpe.search, "split_optimal", counted)
    insts = [random_instance(seed, n_d=n_d, n_r=n_r, single_depot=True)
             for seed, n_d, n_r in ((4, 9, 4), (8, 7, 3), (10, 7, 3), (14, 8, 3), (0, 8, 3))]
    insts += [twin_rl_instance(4), twin_destination_instance(5),
              twin_rl_instance(4, single_depot=True),
              twin_destination_instance(5, single_depot=True)]
    repeats = 0
    for inst in insts:
        model = make_model(inst)
        for descend in _descents():
            split.clear()
            settled = descend(inst, model)
            assert len(set(split)) == len(split) == 1 + settled.extras["shifted_orders"]
            with monkeypatch.context() as m:
                m.setattr(drpe.search, "vlsn", unsettled)
                split.clear()
                resplit = descend(inst, model)
            repeats += len(split) - len(set(split))
            assert repr(settled.tour) == repr(resplit.tour)
            assert settled.makespan == resplit.makespan
            assert ([getattr(settled, f) for f in DESCENT_COUNTS]
                    == [getattr(resplit, f) for f in DESCENT_COUNTS])
            assert (settled.extras["shifted_orders"] + settled.extras["settled_orders"]
                    == resplit.extras["shifted_orders"])
            assert resplit.extras["settled_orders"] == 0
    assert repeats > 0


def test_descent_prices_each_center_once(monkeypatch):
    # the initial split and every search of a center read one pricing of
    # it, however many widths fail there
    priced = []

    def counted(x, *args, **kwargs):
        priced.append(tuple(x))
        return block_prices(x, *args, **kwargs)

    monkeypatch.setattr(drpe.search, "block_prices", counted)
    for seed in range(3):
        inst = random_instance(seed, n_d=8, n_r=3, single_depot=True)
        rep = vlsn_vnd(inst, config=SearchConfig(p0=2, p_max=5))
        assert priced[0] == tuple(rep.extras["x0"])
        assert len(set(priced)) == len(priced) < rep.iterations + 1
        priced.clear()
    # without wrap-around orders only the initial split reads prices
    vlsn_ls(random_instance(0, n_d=8, n_r=3), p=3)
    assert len(priced) == 1


def test_search_config_validation():
    with pytest.raises(ValueError):
        SearchConfig(p0=5, p_max=3)


VLSN_LAYERS = ["recovery_s", "split_s", "stage1_s", "stage2_s"]
SEARCH_LAYERS = ["initial_order_s", "initial_split_s", *VLSN_LAYERS]


def test_search_reports_carry_layer_times():
    inst = random_instance(3, n_d=7, n_r=3, single_depot=True)
    x = initial_tsp_sequence(inst)
    step = vlsn(inst, x, 3)
    assert sorted(step.extras["layers"]) == VLSN_LAYERS
    assert step.extras["layers"]["recovery_s"] > 0.0
    # seed 0's descents improve in stage 2; seed 3's never beat the initial
    # split, so none of their neighborhoods is walked back
    for seed, walked_back in ((0, True), (3, False)):
        inst = random_instance(seed, n_d=7, n_r=3, single_depot=True)
        for rep in (vlsn_ls(inst, p=3), vlsn_vnd(inst, config=SearchConfig(p0=2, p_max=4))):
            layers = rep.extras["layers"]
            assert sorted(layers) == SEARCH_LAYERS
            assert all(v >= 0.0 for v in layers.values())
            assert layers["stage1_s"] > 0.0 and layers["split_s"] > 0.0
            assert (layers["recovery_s"] > 0.0) == walked_back
            assert "timed_out" not in rep.extras
    for rep in (rts(inst), rts(inst, x0=x)):
        layers = rep.extras["layers"]
        assert sorted(layers) == ["initial_order_s", "initial_split_s"]
        assert all(v >= 0.0 for v in layers.values())
        assert layers["initial_split_s"] > 0.0


def test_time_limit_returns_the_split_incumbent():
    inst = random_instance(5, n_d=7, n_r=3)
    x = initial_tsp_sequence(inst)
    split = split_optimal(x, inst)
    for rep in (vlsn_ls(inst, p=3, time_limit=0),
                vlsn_vnd(inst, config=SearchConfig(time_limit=0))):
        assert rep.iterations == 0 and rep.neighborhoods == 0
        assert rep.extras["timed_out"] is True
        assert repr(rep.tour) == repr(split)


def test_too_wide_search_is_refused_before_stage_2():
    # stage 1 at p=16 holds about a thousand states on Basis-small s1, so
    # stage 2's pattern table is the first to refuse the width
    inst = generate(get_setting("Basis", "small"), 1)
    x = initial_tsp_sequence(inst)
    with pytest.raises(SizeGuardError, match="too wide for stage 2"):
        vlsn(inst, x, 16)
    rep = vlsn_ls(inst, p=16)
    assert rep.extras["stopped_by_state_budget"] is True
    assert rep.iterations == 0 and repr(rep.tour) == repr(split_optimal(x, inst))


def test_vlsn_past_its_deadline_raises():
    inst = random_instance(5, n_d=7, n_r=3, single_depot=True)
    x = initial_tsp_sequence(inst)
    with pytest.raises(TimeLimitError):
        vlsn(inst, x, 3, deadline=time.perf_counter())


def test_time_limit_inside_the_first_neighborhood_keeps_the_split(monkeypatch):
    # the search starts its first neighborhood before the limit, and stage
    # 1 passes the limit while it builds
    built = []

    def slow_build(*args, deadline=None, **kwargs):
        built.append(deadline)
        time.sleep(max(0.0, deadline - time.perf_counter()) + 0.01)
        return build_ops_graph(*args, deadline=deadline, **kwargs)

    monkeypatch.setattr(drpe.search, "build_ops_graph", slow_build)
    inst = random_instance(5, n_d=7, n_r=3)
    x = initial_tsp_sequence(inst)
    split = split_optimal(x, inst)
    config = SearchConfig(p0=2, p_max=4, time_limit=0.3)
    for search in (lambda: vlsn_ls(inst, x, p=3, time_limit=config.time_limit),
                   lambda: vlsn_vnd(inst, x, config=config)):
        rep = search()
        assert built.pop() is not None and not built
        assert rep.iterations == 0 and rep.neighborhoods == 0
        assert rep.extras["timed_out"] is True
        assert repr(rep.tour) == repr(split)


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 10_000), n_d=st.integers(1, 6), n_r=st.integers(1, 4),
       emax_factor=st.sampled_from([1.1, 1.6, 4.0]), single_depot=st.booleans(),
       make_model=st.sampled_from([BaseCostModel, binding_extended_model]))
def test_property_value_monotone_in_width_and_tours_validate(
        seed, n_d, n_r, emax_factor, single_depot, make_model):
    inst = random_instance(seed, n_d=n_d, n_r=n_r, emax_factor=emax_factor,
                           single_depot=single_depot)
    model = make_model(inst)
    x = tuple(np.random.default_rng(seed).permutation(n_d).tolist())
    values = []
    for p in range(1, n_d + 1):
        rep = vlsn(inst, x, p, model=model)
        assert validate_tour(rep.tour, inst, model).passed
        values.append(rep.makespan)
    for a, b in zip(values, values[1:]):
        assert b <= a + EPS
