import itertools

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from drpe.generator import metrics_from_coords, random_instance
from drpe.model import BaseCostModel, Instance, Operation, operation_flight_time
from drpe.opsgraph import (
    build_ops_graph,
    ops_nonterminal_state_bound,
    recover_operation_order,
    set_window_valid,
    valid_successor_indices,
)
from drpe.oracle import enumerate_valid_operation_sequences
from tests.conftest import FlightPricing, binding_extended_model


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
    assert _mask(0, 1, 3, 4) not in table.entries
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
    assert set(table.entries) == blocks


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
    assert set(table.entries) == set(flights.entries)
    for m, mat in flights.entries.items():
        assert np.array_equal(table.entries[m], model.price(mat))
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
    assert set(table.entries) == set(oracle)
    for m, mat in table.entries.items():
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
    for m, mat in table.entries.items():
        finite = mat[np.isfinite(mat)]
        assert (finite <= inst.e_max + 1e-9).all()


def test_values_monotone_in_p():
    inst = random_instance(6, n_d=6, n_r=3)
    x = tuple(range(6))
    model = FlightPricing(BaseCostModel(inst))
    tables = {p: build_ops_graph(inst, x, p, model=model) for p in (1, 2, 3, 6)}
    for p_small, p_big in ((1, 2), (2, 3), (3, 6)):
        small, big = tables[p_small], tables[p_big]
        for m, mat in small.entries.items():
            assert m in big.entries
            assert (big.entries[m] <= mat + 1e-9).all()


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
        checked = 0
        for m, mat in table.entries.items():
            for w, wp in zip(*np.nonzero(np.isfinite(mat))):
                order = recover_operation_order(inst, x, m, int(w), int(wp), p)
                assert sorted(order) == [t for t in range(6) if (m >> t) & 1]
                op = Operation(int(w), tuple(x[t] for t in order), int(wp))
                assert operation_flight_time(op, inst) == mat[w, wp]
                checked += 1
        assert checked > 200


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
        for w, wp in [(0, 0), (0, 1), (1, 1)]:
            assert recover_operation_order(inst, x, _mask(lo, hi), w, wp, 2) == (hi, lo)
            assert recover_operation_order(inst, x, _mask(lo, hi), w, wp,
                                           None) == (hi, lo)


def _check_recovered_orders(inst, x, p, model, per_table=None):
    """Every recovered order (or ``per_table`` sampled ones), re-flown,
    reproduces its table entry bitwise (the table holds flights)."""
    table = build_ops_graph(inst, x, p, model=FlightPricing(model))
    cells = [(m, int(w), int(wp)) for m, mat in table.entries.items()
             for w, wp in zip(*np.nonzero(np.isfinite(mat)))]
    if per_table is not None and len(cells) > per_table:
        pick = np.random.default_rng(len(cells)).choice(len(cells), per_table, replace=False)
        cells = [cells[i] for i in sorted(pick)]
    for m, w, wp in cells:
        order = recover_operation_order(inst, x, m, w, wp, p)
        assert sorted(order) == [t for t in range(inst.n_d) if (m >> t) & 1]
        op = Operation(w, tuple(x[t] for t in order), wp)
        assert operation_flight_time(op, inst) == table.entries[m][w, wp]
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
