import itertools

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import drpe.opsgraph
from drpe.baselines import initial_tsp_sequence
from drpe.generator import generate, get_setting, metrics_from_coords, random_instance
from drpe.model import BaseCostModel, Instance, Operation, SizeGuardError, operation_flight_time
from drpe.opsgraph import (
    SetKey,
    _levels,
    _min_over_rows,
    build_ops_graph,
    recover_operation_order,
)
from tests.conftest import FlightPricing, binding_extended_model, dense_view, entries
from tests.oracles import (
    enumerate_valid_operation_sequences,
    ops_nonterminal_state_bound,
    replayed_operation_order,
    set_window_valid,
    valid_successor_indices,
)


def _mask(*positions):
    out = 0
    for t in positions:
        out |= 1 << t
    return out


def _unlimited(inst):
    return Instance(n_d=inst.n_d, n_r=inst.n_r, c_d=inst.c_d, c_r=inst.c_r,
                    w0=inst.w0, wt=inst.wt, e_max=1e18)


def test_successors_of_first_position():
    # from {first element} with a 2-wide window the next three positions open
    assert valid_successor_indices(_mask(0), 2, 5) == [1, 2, 3]


def test_successors_everything_open_at_full_width():
    n = 6
    for k in range(n):
        got = valid_successor_indices(_mask(k), n, n)
        assert got == [i for i in range(n) if i != k]


def _two_interval_scan(mask, p, n_d):
    """Reference successor rule: a position inside the trailing window
    [M-p+1, max(M-1, m+2p-1)], or one of the next p positions beyond M
    provided every index the jump would strand (those at least p below it,
    from m+p on) is already in the set; clamped to [0, n_d-1]."""
    m = (mask & -mask).bit_length() - 1
    M = mask.bit_length() - 1
    out = [i for i in range(max(M - p + 1, 0), min(max(M - 1, m + 2 * p - 1), n_d - 1) + 1)
           if not (mask >> i) & 1]
    for i in range(max(M + 1, m + 2 * p, 0), min(M + p, n_d - 1) + 1):
        if (mask >> i) & 1 or i in out:
            continue
        if all((mask >> j) & 1 for j in range(m + p, i - p + 1)):
            out.append(i)
    return sorted(out)


def test_successor_rule_matches_two_interval_scan():
    for n_d in range(1, 11):
        for p in range(1, n_d + 2):
            for mask in range(1, 1 << n_d):
                if set_window_valid(mask, p):
                    assert (valid_successor_indices(mask, p, n_d)
                            == _two_interval_scan(mask, p, n_d)), (mask, p, n_d)
    # window-valid sets wider than 64 bits: a full interior between random
    # boundary bits
    rng = np.random.default_rng(0)
    for _ in range(2000):
        p = int(rng.integers(1, 9))
        m, M = int(rng.integers(0, 30)), int(rng.integers(65, 100))
        mask = (1 << m) | (1 << M) | ((1 << (M - p + 1)) - (1 << (m + p)))
        for t in range(m + 1, M):
            if rng.random() < 0.5:
                mask |= 1 << t
        assert set_window_valid(mask, p) and mask.bit_length() > 64
        assert valid_successor_indices(mask, p, 100) == _two_interval_scan(mask, p, 100)


def test_invalid_set_is_never_reached():
    # {v1,v2,v4,v5} with p=2 misses interior v3 and must not appear as a key
    inst = random_instance(0, n_d=5, n_r=3)
    table = build_ops_graph(_unlimited(inst), tuple(range(5)), 2)
    assert _mask(0, 1, 3, 4) not in table.sets()[0].tolist()
    assert not set_window_valid(_mask(0, 1, 3, 4), 2)


def test_successors_match_enumeration_oracle():
    # a position may follow a partial set iff some neighbor order contains
    # the extended set as an operation prefix
    n_d, p = 5, 2
    seqs = enumerate_valid_operation_sequences(n_d, p)
    prefixes = {s[:k] for s in seqs for k in range(1, len(s) + 1)}
    for size in (1, 2, 3):
        for combo in itertools.combinations(range(n_d), size):
            m = _mask(*combo)
            if not set_window_valid(m, p):
                continue
            for last in combo:
                # orderings of combo ending at last that are real prefixes
                witnesses = [s for s in prefixes
                             if len(s) == size and set(s) == set(combo) and s[-1] == last]
                if not witnesses:
                    continue
                allowed = set(valid_successor_indices(m, p, n_d))
                truth = {s2[size] for s2 in prefixes
                         if len(s2) == size + 1 and s2[:size] in witnesses}
                # every oracle-extension must be allowed by the rule
                assert truth <= allowed


def test_p1_table_is_exactly_contiguous_blocks():
    inst = random_instance(2, n_d=6, n_r=3)
    x = tuple(np.random.default_rng(5).permutation(6).tolist())
    table = build_ops_graph(_unlimited(inst), x, 1)
    blocks = set()
    for a in range(6):
        for b in range(a, 6):
            blocks.add(_mask(*range(a, b + 1)))
    assert set(table.sets()[0].tolist()) == blocks


def _finalized(table, model):
    """Apply the cost model's feasibility filter to {set: flight matrix};
    sets left without a feasible endpoint pair drop out, as in stage 1."""
    out = {m: FlightPricing(model).price(mat) for m, mat in table.items()}
    return {m: mat for m, mat in out.items() if np.isfinite(mat).any()}


def _flight_table(inst, x, p, model, **kwargs):
    """Stage 1's table built with ``FlightPricing(model)``, so it holds
    minimal flights, once the table built with ``model`` itself is checked
    to hold exactly ``model.price`` of them."""
    flights = build_ops_graph(inst, x, p, model=FlightPricing(model), **kwargs)
    table = build_ops_graph(inst, x, p, model=model, **kwargs)
    dense, flight = dense_view(table), dense_view(flights)
    assert set(dense) == set(flight)
    for m, mat in flight.items():
        assert np.array_equal(dense[m], model.price(mat))
    return flights


def _sequence_flights(inst, x, sequences):
    """Minimal flight per (w, set, w') over the given position sequences."""
    out = {}
    for s in sequences:
        m = _mask(*s)
        dests = [x[t] for t in s]
        inner = sum(inst.cd_dd[a, b] for a, b in zip(dests, dests[1:]))
        mat = inst.cd_rd[:, dests[0], None] + inner + inst.cd_dr[None, dests[-1], :]
        cur = out.get(m)
        out[m] = mat if cur is None else np.minimum(cur, mat)
    return out


def _oracle_table(inst, x, p, model):
    """Feasible minimal flight per (w, set, w') over all neighbor-embeddable
    orderings, computed straight from the enumeration oracle."""
    seqs = enumerate_valid_operation_sequences(inst.n_d, p)
    return _finalized(_sequence_flights(inst, x, seqs), model)


def _capped_table(inst, x, size_cap, model):
    """Feasible minimal flight per (w, set, w') over every ordering of every
    set of at most size_cap destinations."""
    seqs = [perm for k in range(1, size_cap + 1)
            for perm in itertools.permutations(range(inst.n_d), k)]
    return _finalized(_sequence_flights(inst, x, seqs), model)


def _assert_same_table(table, oracle):
    dense = dense_view(table)
    assert set(dense) == set(oracle)
    for m, mat in dense.items():
        assert np.allclose(mat, oracle[m], atol=1e-9)


# (instance transform, cost model): unlimited energy, the instance's own
# e_max, and an extended model whose flight cap binds as often
ENERGY_SETUPS = (
    (_unlimited, BaseCostModel),
    (lambda inst: inst, BaseCostModel),
    (lambda inst: inst, binding_extended_model),
)


@pytest.mark.parametrize("p", [2, 3])
def test_table_matches_ordering_oracle_unlimited(p):
    for seed in (0, 1):
        for energy, make_model in ENERGY_SETUPS:
            inst = energy(random_instance(seed, n_d=5, n_r=3))
            model = make_model(inst)
            x = tuple(np.random.default_rng(seed + 9).permutation(5).tolist())
            table = _flight_table(inst, x, p, model)
            _assert_same_table(table, _oracle_table(inst, x, p, model))


@pytest.mark.parametrize("size_cap", [1, 2, 3])
def test_unrestricted_size_cap_matches_capped_bruteforce(size_cap):
    for seed in (0, 1):
        for energy, make_model in ENERGY_SETUPS:
            inst = energy(random_instance(seed + 30, n_d=5, n_r=3))
            model = make_model(inst)
            x = tuple(np.random.default_rng(seed + 9).permutation(5).tolist())
            table = _flight_table(inst, x, None, model, size_cap=size_cap)
            assert table.max_op_size <= size_cap
            _assert_same_table(table, _capped_table(inst, x, size_cap, model))


def test_table_respects_energy_filter():
    inst = random_instance(4, n_d=5, n_r=3)
    table = build_ops_graph(inst, tuple(range(5)), 2, model=FlightPricing(BaseCostModel(inst)))
    for m, mat in dense_view(table).items():
        finite = mat[np.isfinite(mat)]
        assert (finite <= inst.e_max + 1e-9).all()


def test_values_monotone_in_p():
    inst = random_instance(6, n_d=6, n_r=3)
    x = tuple(range(6))
    model = FlightPricing(BaseCostModel(inst))
    tables = {p: dense_view(build_ops_graph(inst, x, p, model=model))
              for p in (1, 2, 3, 6)}
    for p_small, p_big in ((1, 2), (2, 3), (3, 6)):
        small, big = tables[p_small], tables[p_big]
        for m, mat in small.items():
            assert m in big
            assert (big[m] <= mat + 1e-9).all()


def test_stage_one_count_and_bound():
    inst = _unlimited(random_instance(1, n_d=10, n_r=3))
    x = tuple(range(10))
    stats = build_ops_graph(inst, x, 3).stats
    assert stats.per_stage[1] == inst.n_d * inst.n_r
    assert stats.nonterminal_states <= ops_nonterminal_state_bound(10, 3, 3)


def test_recover_reproduces_best_order():
    inst = random_instance(8, n_d=6, n_r=3, emax_factor=2.5)
    x = tuple(np.random.default_rng(1).permutation(6).tolist())
    # p=None: the exact solver's unrestricted table and recovery
    for make_model, p in itertools.product([BaseCostModel, binding_extended_model],
                                           [2, 3, 4, None]):
        table = build_ops_graph(inst, x, p, model=FlightPricing(make_model(inst)))
        dense = dense_view(table)
        cells = [(m, int(w), int(wp)) for m, mat in dense.items()
                 for w, wp in zip(*np.nonzero(np.isfinite(mat)))]
        for (m, w, wp), order in zip(cells, recover_operation_order(inst, x, cells, p)):
            assert sorted(order) == [t for t in range(6) if (m >> t) & 1]
            op = Operation(w, tuple(x[t] for t in order), wp)
            assert operation_flight_time(op, inst) == dense[m][w, wp]
        assert len(cells) > 200


def test_recover_breaks_bitwise_ties_at_the_smallest_position():
    # destinations 1 and 2 are twins: every operation over both has two
    # orders with bitwise-equal flights
    dest = np.array([[0.0, 3.0], [4.0, 1.0], [4.0, 1.0], [8.0, 2.0]])
    rls = np.array([[0.0, 0.0], [6.0, 0.0]])
    c_d, c_r = metrics_from_coords(dest, rls, rover_speed=1.0)
    inst = Instance(n_d=4, n_r=2, c_d=c_d, c_r=c_r, w0=0, wt=1, e_max=100.0)
    for x in [(0, 1, 2, 3), (3, 2, 1, 0)]:
        # walking back, the last position is the smaller twin position,
        # its predecessor the larger one
        lo, hi = sorted((x.index(1), x.index(2)))
        cells = [(_mask(lo, hi), w, wp) for w, wp in [(0, 0), (0, 1), (1, 1)]]
        for p in (2, None):
            assert recover_operation_order(inst, x, cells, p) == [(hi, lo)] * 3


def _check_recovered_orders(inst, x, p, model, per_table=None):
    """Every recovered order (or ``per_table`` sampled ones), re-flown,
    reproduces its table entry bitwise (the table holds flights)."""
    table = build_ops_graph(inst, x, p, model=FlightPricing(model))
    dense = dense_view(table)
    cells = [(m, int(w), int(wp)) for m, mat in dense.items()
             for w, wp in zip(*np.nonzero(np.isfinite(mat)))]
    if per_table is not None and len(cells) > per_table:
        pick = np.random.default_rng(len(cells)).choice(len(cells), per_table, replace=False)
        cells = [cells[i] for i in sorted(pick)]
    for (m, w, wp), order in zip(cells, recover_operation_order(inst, x, cells, p)):
        assert sorted(order) == [t for t in range(inst.n_d) if (m >> t) & 1]
        op = Operation(w, tuple(x[t] for t in order), wp)
        assert operation_flight_time(op, inst) == dense[m][w, wp]
    return len(cells)


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 10_000), n_d=st.integers(1, 8), n_r=st.integers(1, 4),
       emax_factor=st.sampled_from([1.6, 4.0]), p=st.sampled_from([2, 3, 4, 5, None]),
       make_model=st.sampled_from([BaseCostModel, binding_extended_model]))
def test_property_recovered_orders_reproduce_their_entries(seed, n_d, n_r, emax_factor,
                                                           p, make_model):
    inst = random_instance(seed, n_d=n_d, n_r=n_r, emax_factor=emax_factor)
    x = tuple(np.random.default_rng(seed).permutation(n_d).tolist())
    _check_recovered_orders(inst, x, p, make_model(inst), per_table=300)


@pytest.mark.parametrize("make_model", [BaseCostModel, binding_extended_model])
def test_recovered_orders_reproduce_their_entries_past_64_destinations(make_model):
    # sets are wider than an int64 bitmask here
    inst = random_instance(64, n_d=70, n_r=3, emax_factor=2.5)
    x = tuple(np.random.default_rng(64).permutation(70).tolist())
    for p in (2, 3, 4, 5):
        assert _check_recovered_orders(inst, x, p, make_model(inst), per_table=80) == 80


def _replayed_or_unreachable(inst, x, cell, p):
    try:
        return replayed_operation_order(inst, x, *cell, p)
    except ValueError:
        return None


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 10_000), n_d=st.integers(2, 9), n_r=st.integers(1, 3),
       width=st.integers(0, 9), integral=st.booleans(),
       make_model=st.sampled_from([BaseCostModel, binding_extended_model]))
@example(seed=5, n_d=9, n_r=2, width=0, integral=True, make_model=BaseCostModel)
@example(seed=6, n_d=8, n_r=3, width=2, integral=True, make_model=binding_extended_model)
def test_property_batched_recovery_equals_the_replay_oracle(seed, n_d, n_r, width, integral,
                                                            make_model):
    # width 0 is p=None; integral distances make bitwise ties common, so the
    # smallest-position rule decides many orders; flights are uncapped, so
    # the table holds operations of every size
    p = None if width == 0 else min(width, n_d)
    inst = random_instance(seed, n_d=n_d, n_r=n_r)
    scale = 1.0 / 8 if integral else 1.0
    inst = Instance(n_d=n_d, n_r=n_r, c_d=np.round(inst.c_d * scale, 0 if integral else 12),
                    c_r=np.round(inst.c_r * scale, 0 if integral else 12),
                    w0=inst.w0, wt=inst.wt, e_max=1e9)
    rng = np.random.default_rng(seed)
    x = tuple(rng.permutation(n_d).tolist())
    table = build_ops_graph(inst, x, p, model=make_model(inst))
    cells = [(m, int(w), int(wp)) for m, mat in dense_view(table).items()
             for w, wp in zip(*np.nonzero(np.isfinite(mat)))]
    cells = [cells[i] for i in sorted(rng.choice(len(cells), min(len(cells), 120),
                                                 replace=False))]
    # besides the table's entries: every position at once (past 6 when
    # n_d > 6), and random sets with holes, which the width may forbid
    extra = [(1 << n_d) - 1, *(int(m) for m in rng.integers(3, 1 << n_d, 6))]
    unreachable = []
    for mask in extra:
        cell = (mask, int(rng.integers(n_r)), int(rng.integers(n_r)))
        if _replayed_or_unreachable(inst, x, cell, p) is not None:
            cells.append(cell)
        elif mask & (mask - 1):
            with pytest.raises(ValueError):
                recover_operation_order(inst, x, [cell], p)
            unreachable.append(cell)
    want = [replayed_operation_order(inst, x, *cell, p) for cell in cells]
    assert recover_operation_order(inst, x, cells, p) == want
    # one entry at a time, too: no entry's order depends on its batch
    assert [recover_operation_order(inst, x, [cell], p)[0] for cell in cells[:20]] == want[:20]
    # one unreachable entry fails its whole batch, wherever it sorts by size
    for cell in unreachable:
        with pytest.raises(ValueError):
            recover_operation_order(inst, x, [*cells, cell], p)


def _dense_table(inst, x, p, model, size_cap=None):
    """The dense close that the sparse table replaced, kept as its oracle:
    every level's sets closed at every (w, w') pair at once and priced, and
    each set with a finite makespan kept as bitmask -> (n_r, n_r) matrix,
    ascending by bitmask."""
    idx = np.asarray(x, dtype=np.intp)
    layout = SetKey(inst.n_d, p)
    cdp_dr = inst.cd_dr[idx]
    levels = _levels(layout, np.arange(inst.n_d), inst.cd_dd[np.ix_(idx, idx)],
                     inst.cd_rd[:, idx].T, inst.nearest_rl_time()[idx], model.flight_cap)
    out = {}
    for set_keys, count, first, pos, _, val in itertools.islice(levels, size_cap or inst.n_d):
        order, close = _min_over_rows(
            count, first, np.arange(set_keys.size),
            lambda rows, sel, o: np.add(val[rows][:, :, None], cdp_dr[pos[rows]][:, None, :],
                                        out=o),
            (inst.n_r, inst.n_r))
        close = model.price(close)
        for m, mat in zip(layout.masks(set_keys[order]).tolist(), close):
            if np.isfinite(mat).any():
                out[m] = mat
    return dict(sorted(out.items()))


def _assert_matches_dense_close(inst, x, p, model, size_cap=None):
    table = build_ops_graph(inst, x, p, model=model, size_cap=size_cap)
    dense = _dense_table(inst, x, p, model, size_cap)
    view = dense_view(table)
    assert list(view) == list(dense)
    for m, mat in dense.items():
        assert np.array_equal(view[m], mat)
    # the tracer's ``opsgraph.build_ops_graph.entries`` reads terminal_entries
    stored = entries(table)[3].size
    assert table.stats.terminal_entries == stored
    assert stored == sum(int(np.isfinite(mat).sum()) for mat in dense.values())


def test_batch_whose_keys_cannot_share_one_layout_recovers_in_runs():
    # three 3-destination entries spanning 47 positions: stacked in one
    # layout at p=24 their keys need 64 bits, where one entry's need 60
    # and the build's at p=24 need 60 too
    inst = generate(get_setting("Basis", "large"), 1)
    x = tuple(range(inst.n_d))
    batch = [(_mask(s, 23 + s, 46 + s), 0, 0) for s in range(3)]
    with pytest.raises(SizeGuardError, match="64-bit"):
        SetKey(3 * (47 + 2 * 24 - 1), 24)
    orders = recover_operation_order(inst, x, batch, 24)
    assert orders == [recover_operation_order(inst, x, [e], 24)[0] for e in batch]
    assert [sorted(order) for order in orders] == [[s, 23 + s, 46 + s] for s in range(3)]
    # an entry whose keys cannot fit on their own still raises
    with pytest.raises(SizeGuardError):
        recover_operation_order(inst, x, [(_mask(0, 25), 0, 0)], 26)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 10_000), n_d=st.integers(1, 8), n_r=st.integers(1, 8),
       emax_factor=st.sampled_from([1.05, 1.1, 1.6, 4.0]),
       p=st.sampled_from([1, 2, 3, 4, 5, None]), size_cap=st.sampled_from([1, 2, 3, None]),
       make_model=st.sampled_from([BaseCostModel, binding_extended_model]))
def test_property_sparse_table_equals_dense_close(seed, n_d, n_r, emax_factor, p,
                                                  size_cap, make_model):
    # at emax_factor 1.05 most (set, start RL) pairs hold no finite flight
    inst = random_instance(seed, n_d=n_d, n_r=n_r, emax_factor=emax_factor)
    x = tuple(np.random.default_rng(seed).permutation(n_d).tolist())
    _assert_matches_dense_close(inst, x, p, make_model(inst), size_cap)


@pytest.mark.parametrize("make_model", [BaseCostModel, binding_extended_model])
def test_sparse_table_is_independent_of_the_close_block_size(make_model, monkeypatch):
    # blocks of one to three (set, start RL) pairs split every level into
    # many closes, and a set's pairs across blocks
    for seed, n_r in ((0, 1), (1, 3), (2, 4)):
        inst = random_instance(seed, n_d=8, n_r=n_r, emax_factor=4.0)
        x = tuple(range(8))
        for chunk in (1, 2 * n_r, 3 * n_r):
            monkeypatch.setattr(drpe.opsgraph, "CHUNK_VALUES", chunk)
            for p in (2, 4, None):
                _assert_matches_dense_close(inst, x, p, make_model(inst))


def test_close_keeps_a_flight_exactly_at_the_cap():
    # a flight equal to the cost model's cap is feasible
    inst = random_instance(7, n_d=5, n_r=3)
    model = BaseCostModel(inst)
    model.flight_cap = float(inst.cd_rd[0, 0] + inst.cd_dr[0, 0])
    _assert_matches_dense_close(inst, tuple(range(5)), 2, model)
    table = build_ops_graph(inst, tuple(range(5)), 2, model=model)
    assert dense_view(table)[1][0, 0] == model.flight_cap


@pytest.mark.parametrize("make_model", [BaseCostModel, binding_extended_model])
def test_sparse_table_equals_dense_close_past_62_destinations(make_model):
    # Basis-large (n_d=100, n_r=49): set masks are Python ints, and 7-9% of
    # the (set, start RL) pairs hold a finite partial flight
    inst = generate(get_setting("Basis", "large"), 1)
    _assert_matches_dense_close(inst, initial_tsp_sequence(inst), 2, make_model(inst))


def test_large_p3_table_holds_under_2mb():
    # the dense (n_r x n_r) matrices of this table took 35.8 MB, of which
    # 0.39% was finite
    inst = generate(get_setting("Basis", "large"), 1)
    table = build_ops_graph(inst, initial_tsp_sequence(inst), 3)
    arrays = table.keys, table.starts, table.stops, table.cells, table.values
    assert table.stats.terminal_entries == 18_519
    assert sum(a.nbytes for field in arrays for a in field) < 2_000_000
