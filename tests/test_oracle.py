import itertools
import math

import numpy as np
import pytest

from drpe.energy import ExtendedCostModel, ExtendedCosts
from drpe.exact import solve_exact
from drpe.generator import metrics_from_coords, random_instance
from drpe.model import (
    BaseCostModel,
    Instance,
    Operation,
    RechargingLeg,
    SizeGuardError,
    operation_flight_time,
    validate_tour,
)
from drpe.oracle import enumerate_bs_neighbors, is_bs_neighbor, split_optimal
from drpe.search import vlsn
from tests.conftest import binding_extended_model
from tests.oracles import brute_force_optimum, enumerate_valid_operation_sequences

X5 = (0, 1, 2, 3, 4)

# all p=2 neighbors of a 5-element order, as published
TABLE1_NEIGHBORS = {
    (0, 1, 2, 3, 4),
    (0, 1, 2, 4, 3),
    (0, 1, 3, 2, 4),
    (0, 2, 1, 3, 4),
    (0, 2, 1, 4, 3),
    (1, 0, 2, 3, 4),
    (1, 0, 2, 4, 3),
    (1, 0, 3, 2, 4),
}


def test_membership_examples():
    assert is_bs_neighbor(X5, (1, 0, 3, 2, 4), 2)
    assert is_bs_neighbor(X5, X5, 2)
    assert is_bs_neighbor(X5, X5, 1)
    # element 2 lands behind element 4 -> positions violate the window
    assert not is_bs_neighbor(X5, (0, 1, 3, 4, 2), 2)


def test_membership_rejects_non_permutations():
    with pytest.raises(ValueError):
        is_bs_neighbor(X5, (0, 1, 2, 3), 2)
    with pytest.raises(ValueError):
        is_bs_neighbor(X5, (0, 0, 2, 3, 4), 2)


def test_enumeration_matches_published_table():
    got = enumerate_bs_neighbors(X5, 2)
    assert set(got) == TABLE1_NEIGHBORS
    assert len(got) == 8
    assert got == sorted(got)  # deterministic lexicographic order


def test_enumeration_trivial_widths():
    assert enumerate_bs_neighbors(X5, 1) == [X5]
    assert len(enumerate_bs_neighbors((0, 1, 2, 3), 4)) == 24
    assert len(enumerate_bs_neighbors((0, 1, 2, 3), 7)) == 24


def test_enumeration_guard():
    with pytest.raises(SizeGuardError):
        enumerate_bs_neighbors(tuple(range(11)), 2)


def test_neighborhoods_nest():
    for n in (4, 5, 6):
        x = tuple(range(n))
        prev = None
        for p in range(1, n + 1):
            cur = set(enumerate_bs_neighbors(x, p))
            if prev is not None:
                assert prev <= cur
            prev = cur


def test_size_lower_bound():
    for n in (4, 5, 6, 7):
        for p in (2, 3, 4):
            count = len(enumerate_bs_neighbors(tuple(range(n)), p))
            assert count >= ((p - 1) / math.e) ** (n - 1)


def test_operation_sequences_are_blocks_of_neighbors():
    seqs = enumerate_valid_operation_sequences(5, 2)
    assert (0, 1) in seqs and (1, 0) in seqs
    # the published invalid set: {v1,v2,v4,v5} strands v3, no ordering of it
    # can appear inside any neighbor
    assert all(frozenset(s) != frozenset((0, 1, 3, 4)) for s in seqs)


# ---------------------------------------------------------------------------
# split_optimal
# ---------------------------------------------------------------------------

def test_split_single_destination_picks_best_rl_pair():
    inst = random_instance(7, n_d=1, n_r=3)
    tour = split_optimal((0,), inst)
    model = BaseCostModel(inst)
    best = math.inf
    for w in range(3):
        for wp in range(3):
            flight = inst.cd_rd[w, 0] + inst.cd_dr[0, wp]
            if flight > inst.e_max:
                continue
            cand = (inst.c_r[inst.w0, w]
                    + max(flight, inst.c_r[w, wp])
                    + inst.c_r[wp, inst.wt])
            best = min(best, cand)
    assert tour.makespan == pytest.approx(best, abs=1e-9)


def _block_split_best(x, inst, model=None):
    """Brute force over the 2^(n-1) block splits of x; for each split, a
    chain DP over the RLs between blocks, priced one operation at a time
    with the model's rule."""
    model = model or BaseCostModel(inst)
    n = len(x)
    best = math.inf
    for pattern in range(1 << (n - 1)):
        cuts = [i + 1 for i in range(n - 1) if (pattern >> i) & 1]
        blocks = [x[a:b] for a, b in zip([0] + cuts, cuts + [n])]
        at = inst.c_r[inst.w0].copy()  # best time standing at each RL
        for blk in blocks:
            end = np.full(inst.n_r, math.inf)
            for w, wp in itertools.product(range(inst.n_r), repeat=2):
                flight = operation_flight_time(Operation(w, blk, wp), inst)
                makespan, feasible = model.cost(flight, inst.c_r[w, wp])
                if feasible:
                    end[wp] = min(end[wp], at[w] + makespan)
            at = (end[:, None] + inst.c_r).min(axis=0)
        best = min(best, at[inst.wt])
    return best


def test_split_flight_only_matches_block_bruteforce():
    for seed in range(5):
        base = random_instance(seed, n_d=6, n_r=3)
        inst = Instance(n_d=6, n_r=3, c_d=base.c_d, c_r=np.zeros((3, 3)),
                        w0=base.w0, wt=base.wt, e_max=1e18)
        x = tuple(np.random.default_rng(seed).permutation(6).tolist())
        tour = split_optimal(x, inst)
        assert tour.makespan == pytest.approx(_block_split_best(x, inst), abs=1e-9)


@pytest.mark.parametrize("make_model", [BaseCostModel, binding_extended_model])
def test_split_matches_block_bruteforce(make_model):
    for seed in range(6):
        inst = random_instance(seed + 20, n_d=6, n_r=3, emax_factor=1.2,
                               single_depot=seed % 2 == 0)
        model = make_model(inst)
        x = tuple(np.random.default_rng(seed).permutation(6).tolist())
        tour = split_optimal(x, inst, model)
        assert tour.makespan == pytest.approx(_block_split_best(x, inst, model),
                                              abs=1e-9)


def test_split_ties_keep_the_lowest_rl():
    # RLs 1 and 2 share coordinates next to the only destination, which is
    # out of the drone's range from the depot RL 0: riding to either twin and
    # flying out and back costs the same, and the first minimum is RL 1
    dest = np.array([[10.0, 1.0]])
    rls = np.array([[0.0, 0.0], [10.0, 0.0], [10.0, 0.0]])
    c_d, c_r = metrics_from_coords(dest, rls, 1.0)
    inst = Instance(n_d=1, n_r=3, c_d=c_d, c_r=c_r, w0=0, wt=0, e_max=3.0)
    tour = split_optimal((0,), inst)
    assert tour.elements == (RechargingLeg(0, 1), Operation(1, (0,), 1),
                             RechargingLeg(1, 0))
    assert tour.makespan == 22.0


def test_split_keeps_a_block_whose_flight_is_within_the_energy_tolerance():
    # Both destinations sit on RL 1, k away from RL 0. The extended model's
    # energy tolerance admits the operation RL 0 -> d0 -> d1 -> RL 1 (flight
    # k, just over max_flight), which ties with riding to RL 1 first. The
    # splitter cuts blocks at the model's flight cap, which includes that
    # tolerance, so the block from RL 0 survives and wins the tie.
    k = 4.0
    c_d = np.array([[0, 0, k, 0], [0, 0, k, 0], [k, k, 0, k], [0, 0, k, 0]])
    c_r = np.array([[0.0, k], [1.0, 0.0]])
    inst = Instance(n_d=2, n_r=2, c_d=c_d, c_r=c_r, w0=0, wt=0, e_max=k)
    costs = dict(c_tkof=0.0, c_land=0.0, c_swap=1.0)
    c = ExtendedCosts(**costs)
    xi_max = ((k - 2e-8) * c.r_fl + c.xi_tkof + c.xi_land) / (1 - c.residual)
    model = ExtendedCostModel(inst, ExtendedCosts(xi_max=xi_max, **costs))
    assert model.max_flight + 1e-9 < k <= model.flight_cap
    assert model.cost(k, c_r[0, 1])[1]
    tour = split_optimal((0, 1), inst, model)
    assert tour.elements == (RechargingLeg(0, 0), Operation(0, (0, 1), 1),
                             RechargingLeg(1, 0))
    assert tour.makespan == 6.0


def test_one_flight_cap_for_split_search_and_exact():
    # The flight RL 0 -> d0 -> RL 1 is 3, 2e-8 over max_flight but inside
    # the extended model's energy tolerance: every solver must accept it.
    dest = np.array([[2.0, 0.0]])
    rls = np.array([[0.0, 0.0], [3.0, 0.0], [2.0, 1.5]])
    c_d, c_r = metrics_from_coords(dest, rls, rover_speed=1.0)
    inst = Instance(n_d=1, n_r=3, c_d=c_d, c_r=c_r, w0=0, wt=1, e_max=3.0 - 2e-8)
    model = binding_extended_model(inst)
    values = {
        "split": split_optimal((0,), inst, model).makespan,
        "brute force": brute_force_optimum(inst, model).makespan,
        "vlsn(p=1)": vlsn(inst, (0,), 1, model=model).makespan,
        "exact": solve_exact(inst, model).makespan,
    }
    assert values == dict.fromkeys(values, 22.0)


def test_split_on_worked_instance(worked_instance):
    tour = split_optimal((0, 1, 2, 3, 4), worked_instance)
    assert tour.makespan <= 22.0 + 1e-9
    assert validate_tour(tour, worked_instance).passed


def test_split_keeps_order_and_validates():
    for seed in range(8):
        inst = random_instance(seed, n_d=7, n_r=4)
        x = tuple(np.random.default_rng(seed + 50).permutation(7).tolist())
        tour = split_optimal(x, inst)
        assert tour.destination_order() == x
        assert validate_tour(tour, inst).passed


# ---------------------------------------------------------------------------
# brute_force_optimum
# ---------------------------------------------------------------------------

def test_brute_force_single_destination_equals_split():
    inst = random_instance(3, n_d=1, n_r=3)
    assert brute_force_optimum(inst).makespan == split_optimal((0,), inst).makespan


def test_brute_force_guard():
    inst = random_instance(0, n_d=8, n_r=3)
    with pytest.raises(SizeGuardError):
        brute_force_optimum(inst)


def test_brute_force_single_operation_dominates_when_energy_is_free():
    # all destinations huddled next to one RL, battery generous: one sortie
    # through all of them beats any plan with extra legs
    dest = np.array([[10.0 + d, 10.0] for d in range(4)])
    rls = np.array([[10.0, 9.0], [50.0, 50.0]])
    from drpe.generator import metrics_from_coords
    c_d, c_r = metrics_from_coords(dest, rls, 0.5)
    inst = Instance(n_d=4, n_r=2, c_d=c_d, c_r=c_r, w0=0, wt=0, e_max=1e6)
    best = brute_force_optimum(inst)
    assert len(best.operations()) == 1
    # check against explicit enumeration of single-operation tours
    single_best = math.inf
    for perm in itertools.permutations(range(4)):
        flight = (inst.cd_rd[0, perm[0]]
                  + sum(inst.cd_dd[a, b] for a, b in zip(perm, perm[1:]))
                  + inst.cd_dr[perm[-1], 0])
        single_best = min(single_best, flight)
    assert best.makespan == pytest.approx(single_best, abs=1e-9)
