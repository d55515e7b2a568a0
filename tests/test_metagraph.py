import numpy as np
import pytest

from drpe.generator import random_instance
from drpe.metagraph import (
    MetaPattern,
    count_bs_sequences,
    enumerate_valid_patterns,
    get_transition_lookup,
    solve_meta,
)
from drpe.model import Instance, SizeGuardError, validate_tour
from drpe.opsgraph import build_ops_graph
from drpe.oracle import enumerate_bs_neighbors, is_bs_neighbor, split_optimal
from tests.oracles import (
    brute_force_optimum,
    transition_destination_set,
    valid_at_stage,
    valid_pattern_transitions,
)

# published lookup table for p=4: patterns and their valid transitions
# (1-based ids) toward stages k+1, k+2, k+3
PUBLISHED_PATTERNS_P4 = [
    ((), ()),
    ((1,), (-2,)),
    ((1,), (-1,)),
    ((2,), (-1,)),
    ((1,), (0,)),
    ((2,), (0,)),
    ((3,), (0,)),
    ((1, 2), (-1, 0)),
]
PUBLISHED_TRANSITIONS_P4 = {
    1: {1: [1, 5, 6, 7], 2: [1, 3, 4, 5, 6, 7, 8], 3: [1, 2, 3, 4, 5, 6, 7, 8]},
    2: {1: [1], 2: [1, 5, 6, 7], 3: [1, 3, 4, 5, 6, 7, 8]},
    3: {1: [1, 2], 2: [1, 5, 6, 7], 3: [1, 3, 4, 5, 6, 7, 8]},
    4: {1: [2, 5], 2: [1, 3, 4], 3: [1, 2, 5, 6, 7]},
    5: {1: [1, 3, 4], 2: [1, 2, 5, 6, 7], 3: [1, 3, 4, 5, 6, 7, 8]},
    6: {1: [3, 5, 8], 2: [1, 2, 3, 4], 3: [1, 2, 5, 6, 7]},
    7: {1: [4, 6, 8], 2: [2, 3, 5, 8], 3: [1, 2, 3, 4]},
    8: {1: [2, 3], 2: [1, 2], 3: [1, 5, 6, 7]},
}


def test_pattern_list_matches_published_table():
    pats = enumerate_valid_patterns(4)
    assert [(p.minus, p.plus) for p in pats] == PUBLISHED_PATTERNS_P4


def test_pattern_counts_are_powers_of_two():
    for p in range(1, 9):
        assert len(enumerate_valid_patterns(p)) == 2 ** (p - 1)


def test_pattern_trivial_widths():
    assert [(p.minus, p.plus) for p in enumerate_valid_patterns(1)] == [((), ())]
    assert [(p.minus, p.plus) for p in enumerate_valid_patterns(2)] == [
        ((), ()), ((1,), (0,))]


def test_transition_lists_match_published_table():
    lookup = get_transition_lookup(4)
    for a_id, per_h in PUBLISHED_TRANSITIONS_P4.items():
        for h, expect in per_h.items():
            got = [b + 1 for b, _ in lookup.successors(a_id - 1, h)]
            assert got == expect, (a_id, h)


def test_leg_transition_requires_identity():
    pats = enumerate_valid_patterns(4)
    for a in pats:
        for b in pats:
            assert valid_pattern_transitions(a, b, 0, 4) == (a == b)


def test_wide_gaps_accept_every_pattern():
    pats = enumerate_valid_patterns(4)
    for a in pats:
        for b in pats:
            assert valid_pattern_transitions(a, b, 2 * 4 - 2, 4)


def _displacement_rule(a, b, h):
    """Reference for valid_pattern_transitions at h >= 1, stated on the
    displacements: every early visit still pending stays pending, no early
    visit is postponed again, and postponements reaching back before the
    source stage were already postponed there."""
    for da in a.minus:
        if da > h:
            if (da - h) not in b.minus:
                return False
        elif (da - h) in b.plus:
            return False
    return all(db + h > 0 or db + h in a.plus for db in b.plus)


def _displacement_offsets(a, b, h):
    """Reference for an arc's operation: offsets from the source stage k of
    the destinations flown, 1-based (k+1 is the first position after k)."""
    base = set(range(1, h + 1)) | set(a.plus) | {db + h for db in b.minus}
    return base - {db + h for db in b.plus} - set(a.minus)


def test_lookup_matches_displacement_rules():
    for p in range(1, 9):
        lookup = get_transition_lookup(p)
        pats = lookup.patterns
        for h in range(1, 2 * p + 1):
            n_d = h + 2 * p
            for a_id, a in enumerate(pats):
                succ = lookup.successors(a_id, h)
                want = [b_id for b_id, b in enumerate(pats) if _displacement_rule(a, b, h)]
                assert [b_id for b_id, _ in succ] == want
                assert want == [b_id for b_id, b in enumerate(pats)
                                if valid_pattern_transitions(a, b, h, p)]
                for b_id, ops in succ:
                    b = pats[b_id]
                    offs = _displacement_offsets(a, b, h)
                    assert len(offs) == h
                    # every stage up to p where both patterns are valid;
                    # from stage p-1 on both sides only translate with k
                    stages = [k for k in range(p + 1) if valid_at_stage(a, k, n_d)
                              and valid_at_stage(b, k + h, n_d)]
                    want = {stages[0] + d - 1 for d in offs}
                    assert transition_destination_set(a, b, stages[0], h) == want
                    want = sum(1 << t for t in want)
                    for k in stages:
                        assert ops << k >> (p - 1) == want << (k - stages[0])


def test_lookup_refuses_widths_past_the_state_budget():
    # each gap's pattern-pair test holds 4^(p-1) values: 4.2M at p=12,
    # 16.8M at p=13, past SEARCH_STATE_BUDGET
    assert len(get_transition_lookup(12).patterns) == 2 ** 11
    with pytest.raises(SizeGuardError, match="p=13"):
        get_transition_lookup(13)


def test_destination_set_examples():
    empty = MetaPattern((), ())
    pulled = MetaPattern((1, 2), (-1, 0))
    # stage 0, gap 3: the operation flies positions {0, 3, 4} (v1, v4, v5)
    assert transition_destination_set(empty, pulled, 0, 3) == frozenset({0, 3, 4})
    # untangled single step
    for k in (0, 2, 5):
        assert transition_destination_set(empty, empty, k, 1) == frozenset({k})
    # stage 3, gap 2, untangling a displaced pair: positions {2, 4} (v3, v5)
    a = MetaPattern((1,), (0,))
    assert transition_destination_set(a, empty, 3, 2) == frozenset({2, 4})


def test_sequence_counts_match_enumeration_oracle():
    for n_d in (4, 5, 6, 7):
        for p in (1, 2, 3, 4):
            dp = count_bs_sequences(n_d, p)
            oracle = len(enumerate_bs_neighbors(tuple(range(n_d)), p))
            assert dp == oracle, (n_d, p)


def test_typical_stage_state_count():
    for p in (2, 3, 4, 5):
        lookup = get_transition_lookup(p)
        valid_at = lookup.valid_at(16)
        assert valid_at.tolist() == [[valid_at_stage(pat, k, 16) for pat in lookup.patterns]
                                     for k in range(17)]
        counts = valid_at.sum(axis=1)
        for k in range(p - 1, 16 - p + 2):
            assert counts[k] == 2 ** (p - 1)
        assert counts[0] == 1 and counts[16] == 1


def _solve(inst, x, p, model=None):
    table = build_ops_graph(inst, x, p, model=model)
    return solve_meta(table, inst, model=model)


def test_width_one_equals_split_exactly():
    for seed in range(10):
        inst = random_instance(seed, n_d=7, n_r=4)
        x = tuple(np.random.default_rng(seed + 3).permutation(7).tolist())
        tour, _ = _solve(inst, x, 1)
        assert tour.makespan == split_optimal(x, inst).makespan


def test_full_width_equals_brute_force():
    for seed in range(6):
        inst = random_instance(seed, n_d=6, n_r=4)
        x = tuple(np.random.default_rng(seed).permutation(6).tolist())
        tour, _ = _solve(inst, x, 6)
        assert tour.makespan == pytest.approx(brute_force_optimum(inst).makespan, abs=1e-9)


def test_free_rover_unlimited_energy_reduces_to_flight_split():
    from tests.test_oracle import _block_split_best
    for seed in range(4):
        base = random_instance(seed, n_d=6, n_r=3)
        inst = Instance(n_d=6, n_r=3, c_d=base.c_d, c_r=np.zeros((3, 3)),
                        w0=base.w0, wt=base.wt, e_max=1e18)
        x = tuple(np.random.default_rng(seed).permutation(6).tolist())
        tour, _ = _solve(inst, x, 1)
        assert tour.makespan == pytest.approx(_block_split_best(x, inst), abs=1e-9)


def test_solution_is_member_and_valid():
    for seed in range(6):
        inst = random_instance(seed, n_d=7, n_r=3)
        x = tuple(np.random.default_rng(seed + 7).permutation(7).tolist())
        for p in (2, 3):
            tour, _ = _solve(inst, x, p)
            assert validate_tour(tour, inst).passed
            assert is_bs_neighbor(x, tour.destination_order(), p)


def test_value_monotone_in_width():
    for seed in range(5):
        inst = random_instance(seed, n_d=7, n_r=4)
        x = tuple(np.random.default_rng(seed).permutation(7).tolist())
        prev = np.inf
        for p in range(1, 8):
            tour, _ = _solve(inst, x, p)
            assert tour.makespan <= prev + 1e-9
            prev = tour.makespan


def test_dp_equals_min_over_enumerated_neighbors():
    # searching the neighborhood == taking the best optimal split over every
    # neighbor order, which the enumeration oracle can afford at this size
    for seed in (2, 4):
        inst = random_instance(seed, n_d=5, n_r=3)
        x = tuple(range(5))
        for p in (2, 3):
            tour, _ = _solve(inst, x, p)
            best = min(split_optimal(nb, inst).makespan
                       for nb in enumerate_bs_neighbors(x, p))
            assert tour.makespan == pytest.approx(best, abs=1e-9)
