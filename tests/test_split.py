"""The sparse splitter against the per-block dense DP it replaced, kept here
as an oracle, and split properties on generated instances."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from drpe.baselines import initial_tsp_sequence
from drpe.generator import get_setting, generate, metrics_from_coords, random_instance
from drpe.model import (
    EPS,
    BaseCostModel,
    InfeasibleError,
    Instance,
    Operation,
    RechargingLeg,
    build_tour,
)
from drpe.oracle import split_optimal
from drpe.search import shifted_permutations, vlsn
from tests.conftest import binding_extended_model, two_step_price
from tests.test_oracle import _block_split_best
from tests.test_relaxation import _twin_instance

MODELS = [BaseCostModel, binding_extended_model]


def _per_block_split(x, inst, model):
    """The dense DP: one (start RL x end RL) makespan matrix per block, with
    parent pointers that keep the first minimum."""
    n_d, n_r = inst.n_d, inst.n_r
    c_r, cd_rd, cd_dr, cd_dd = inst.c_r, inst.cd_rd, inst.cd_dr, inst.cd_dd
    cut = model.flight_cap
    f = np.full((n_d + 1, n_r), np.inf)
    g = np.full((n_d + 1, n_r), np.inf)
    f_parent = np.zeros((n_d + 1, n_r), dtype=np.intp)
    g_parent = np.zeros((n_d + 1, n_r), dtype=np.intp)
    f[0] = c_r[inst.w0]
    for i in range(n_d):
        acc = np.where(np.isfinite(f[i]), cd_rd[:, x[i]], np.inf)
        for j in range(i + 1, n_d + 1):
            last = x[j - 1]
            cand = f[i][:, None] + two_step_price(model, acc[:, None] + cd_dr[last])
            best = cand.min(axis=0)
            better = best < g[j]
            if better.any():
                g[j, better] = best[better]
                g_parent[j, better] = i * n_r + cand.argmin(axis=0)[better]
            acc[acc > cut] = np.inf
            if j == n_d or not np.isfinite(acc).any():
                break
            acc += cd_dd[last, x[j]]
        legs = g[i + 1][:, None] + c_r
        f[i + 1] = legs.min(axis=0)
        f_parent[i + 1] = legs.argmin(axis=0)
    if not np.isfinite(f[n_d, inst.wt]):
        raise InfeasibleError("no feasible replenishment insertion for this order")
    rev = []
    j, w = n_d, inst.wt
    while j > 0:
        wp = int(f_parent[j, w])
        rev.append(RechargingLeg(wp, w))
        i, ws = divmod(int(g_parent[j, wp]), n_r)
        rev.append(Operation(ws, tuple(x[i:j]), wp))
        j, w = i, ws
    rev.append(RechargingLeg(inst.w0, w))
    return build_tour(inst, reversed(rev), model)


def _prefix_masked_instance(cap):
    """Destinations 0 and 1 and RLs 0 (the depot) and 1. From RL 0 the
    flight to destination 0 overshoots ``cap`` by EPS/4, the hop to
    destination 1 is -EPS/2 and the landing back on RL 0 is free, so the
    whole flight RL 0 -> 0 -> 1 -> RL 0 is within the cap but its prefix is
    not. Everything else is served from RL 1, a 20-unit ride away."""
    c_d = np.array([[0.0, -EPS / 2, cap + EPS / 4, 1.0],
                    [-EPS / 2, 0.0, 0.0, 1.0],
                    [cap + EPS / 4, 100.0, 0.0, 30.0],
                    [1.0, 1.0, 30.0, 0.0]])
    c_r = np.array([[0.0, 20.0], [20.0, 0.0]])
    return Instance(n_d=2, n_r=2, c_d=c_d, c_r=c_r, w0=0, wt=0, e_max=10.0)


def _assert_same_split(x, inst, model):
    want = _per_block_split(x, inst, model)
    got = split_optimal(x, inst, model)
    assert repr(got) == repr(want)
    assert got.makespan == want.makespan


@pytest.mark.parametrize("make_model", MODELS)
def test_sparse_split_matches_per_block_dp_on_random_instances(make_model):
    insts = [random_instance(seed, n_d=n_d, n_r=n_r, emax_factor=factor,
                             single_depot=single)
             for seed, n_d, n_r, factor, single in (
                 (0, 8, 3, 1.1, False), (1, 9, 4, 1.1, True), (2, 7, 2, 4.0, False),
                 (3, 10, 5, 4.0, True), (4, 6, 1, 1.6, True), (5, 1, 3, 1.6, False))]
    insts.append(_twin_instance(6, n_d=8))
    for inst in insts:
        model = make_model(inst)
        rng = np.random.default_rng(inst.n_d)
        orders = [initial_tsp_sequence(inst)]
        orders += [tuple(rng.permutation(inst.n_d).tolist()) for _ in range(3)]
        for x in orders:
            _assert_same_split(x, inst, model)


@pytest.mark.parametrize("make_model", MODELS)
def test_sparse_split_keeps_the_prefix_masking_rule(make_model):
    # the model's cap depends on e_max, not on the travel times, so measure
    # it on a first copy of the instance and build the times around it
    cap = make_model(_prefix_masked_instance(0.0)).flight_cap
    inst = _prefix_masked_instance(cap)
    model = make_model(inst)
    for x in ((0, 1), (1, 0)):
        _assert_same_split(x, inst, model)
    # the one-operation tour from RL 0 is feasible, but its prefix flight is
    # over the cap, so the splitter rides to RL 1 and the block brute force,
    # which checks whole flights only, does better
    tour = split_optimal((0, 1), inst, model)
    assert tour.makespan > _block_split_best((0, 1), inst, model) + 10.0


@pytest.mark.parametrize("make_model", MODELS)
def test_sparse_split_matches_per_block_dp_on_basis_small(make_model):
    inst = generate(get_setting("Basis", "small"), 1)
    model = make_model(inst)
    x = initial_tsp_sequence(inst)
    for y in [x] + shifted_permutations(x, 4):
        _assert_same_split(y, inst, model)


def test_split_block_start_tie_keeps_the_earlier_cut():
    # one RL between the two destinations on a line: flying 0 and 1 as one
    # operation (1 + 3 + 2) ties exactly with two operations (2, then 4);
    # the walk-back keeps the lowest block start, so one operation
    dest = np.array([[-1.0, 0.0], [2.0, 0.0]])
    rls = np.array([[0.0, 0.0]])
    c_d, c_r = metrics_from_coords(dest, rls, 1.0)
    inst = Instance(n_d=2, n_r=1, c_d=c_d, c_r=c_r, w0=0, wt=0, e_max=10.0)
    tour = split_optimal((0, 1), inst)
    assert tour.elements == (RechargingLeg(0, 0), Operation(0, (0, 1), 0),
                             RechargingLeg(0, 0))
    assert tour.makespan == 6.0
    _assert_same_split((0, 1), inst, BaseCostModel(inst))


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 10_000), n_d=st.integers(1, 6), n_r=st.integers(1, 4),
       emax_factor=st.sampled_from([1.1, 1.6, 4.0]), single_depot=st.booleans(),
       make_model=st.sampled_from(MODELS))
def test_split_equals_block_brute_force_and_width_one(seed, n_d, n_r, emax_factor,
                                                      single_depot, make_model):
    inst = random_instance(seed, n_d=n_d, n_r=n_r, emax_factor=emax_factor,
                           single_depot=single_depot)
    model = make_model(inst)
    x = tuple(np.random.default_rng(seed).permutation(n_d).tolist())
    split = split_optimal(x, inst, model).makespan
    assert split == pytest.approx(_block_split_best(x, inst, model), abs=1e-9)
    assert vlsn(inst, x, 1, model=model).makespan == split
