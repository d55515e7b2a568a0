"""Baselines; the initial order against the scalar subset DP and descents
it replaced, kept here as oracles."""

import itertools

import numpy as np
import pytest

from drpe.baselines import (
    HELD_KARP_LIMIT,
    BaselineConfig,
    _capped_op_table,
    _nearest_neighbor,
    _path_cost,
    initial_tsp_sequence,
    limop,
    rts_3nn,
    sa_rts_3opt,
)
from drpe.exact import _masks_by_popcount, solve_exact
from drpe.generator import get_setting, generate, metrics_from_coords, random_instance
from drpe.model import BaseCostModel, Instance, SizeGuardError, validate_tour
from drpe.opsgraph import build_ops_graph
from drpe.oracle import split_optimal
from drpe.search import rts
from tests.conftest import binding_extended_model, entries


# ---------------------------------------------------------------------------
# initial order
# ---------------------------------------------------------------------------

def _scalar_held_karp_path(inst):
    """The subset DP with one (sets x n x n) broadcast per level."""
    n = inst.n_d
    cd_dd, start, finish = inst.cd_dd, inst.cd_rd[inst.w0], inst.cd_dr[:, inst.wt]
    full = (1 << n) - 1
    val = np.full((full + 1, n), np.inf)
    for v in range(n):
        val[1 << v, v] = start[v]
    masks_pc = _masks_by_popcount(n)
    for k in range(1, n):
        Ms = masks_pc[k]
        A = val[Ms]
        rows = np.isfinite(A).any(axis=1)
        Ms, A = Ms[rows], A[rows]
        B = (A[:, :, None] + cd_dd[None, :, :]).min(axis=1)
        for u in range(n):
            free = (Ms >> u) & 1 == 0
            if not free.any():
                continue
            tgt = Ms[free] | (1 << u)
            val[tgt, u] = np.minimum(val[tgt, u], B[free, u])

    ends = val[full] + finish
    order = []
    v = int(np.argmin(ends))
    mask = full
    while mask:
        order.append(v)
        prev = mask & ~(1 << v)
        if prev == 0:
            break
        cand = val[prev] + cd_dd[:, v]
        v = int(np.argmin(np.where(np.isfinite(val[prev]), cand, np.inf)))
        mask = prev
    order.reverse()
    return tuple(order)


def _scalar_two_opt(order, inst):
    """First-improvement 2-opt, one scalar gain at a time."""
    if not np.allclose(inst.c_d, inst.c_d.T):
        return list(order)
    order = list(order)
    n = len(order)
    cd = inst.c_d
    nd = inst.n_d

    def node(i):
        if i < 0:
            return nd + inst.w0
        if i >= n:
            return nd + inst.wt
        return order[i]

    improved = True
    while improved:
        improved = False
        for i in range(n - 1):
            a = node(i - 1)
            for j in range(i + 1, n):
                b = node(j + 1)
                delta = (cd[a, order[j]] + cd[order[i], b]
                         - cd[a, order[i]] - cd[order[j], b])
                if delta < -1e-9:
                    order[i:j + 1] = reversed(order[i:j + 1])
                    improved = True
    return order


def _scalar_or_opt(order, inst):
    """Best-insertion or-opt, one scalar gain at a time."""
    order = list(order)
    n = len(order)
    cd = inst.c_d
    nd = inst.n_d

    def node(i):
        if i < 0:
            return nd + inst.w0
        if i >= len(order):
            return nd + inst.wt
        return order[i]

    improved = True
    while improved:
        improved = False
        for seg in (1, 2, 3):
            for i in range(0, n - seg + 1):
                chunk = order[i:i + seg]
                rest = order[:i] + order[i + seg:]
                base_gain = (cd[node(i - 1), chunk[0]]
                             + cd[chunk[-1], node(i + seg)]
                             - cd[node(i - 1), node(i + seg)])
                best_j, best_delta = None, -1e-9
                for j in range(len(rest) + 1):
                    if j == i:
                        continue
                    prev = rest[j - 1] if j > 0 else nd + inst.w0
                    nxt = rest[j] if j < len(rest) else nd + inst.wt
                    add = cd[prev, chunk[0]] + cd[chunk[-1], nxt] - cd[prev, nxt]
                    delta = add - base_gain
                    if delta < best_delta:
                        best_delta, best_j = delta, j
                if best_j is not None:
                    order = rest[:best_j] + chunk + rest[best_j:]
                    improved = True
    return order


def _scalar_initial_order(inst):
    if inst.n_d <= HELD_KARP_LIMIT:
        return _scalar_held_karp_path(inst)
    order = _nearest_neighbor(inst)
    while True:
        before = _path_cost(order, inst)
        order = _scalar_two_opt(order, inst)
        order = _scalar_or_opt(order, inst)
        if _path_cost(order, inst) >= before - 1e-9:
            break
    return tuple(order)


def _asymmetric(inst, seed):
    """The instance with every drone leg lengthened by its own random
    amount, so that c_d is no longer symmetric."""
    rng = np.random.default_rng(seed)
    c_d = inst.c_d + rng.uniform(0.0, 5.0, inst.c_d.shape)
    np.fill_diagonal(c_d, 0.0)
    return Instance(n_d=inst.n_d, n_r=inst.n_r, c_d=c_d, c_r=inst.c_r,
                    w0=inst.w0, wt=inst.wt, e_max=inst.e_max)


def _grid_instance(n_d, line=False, single_depot=False):
    """Destinations on unit grid points (or one line), RLs on the corners:
    many equal distances, so every tie rule is exercised."""
    side = int(np.ceil(np.sqrt(n_d)))
    cells = np.arange(n_d)
    dest = (np.stack([cells, np.zeros(n_d)], axis=1) if line
            else np.stack([cells % side, cells // side], axis=1)).astype(float)
    far = dest.max(axis=0)
    rls = np.array([[-1.0, -1.0], [far[0] + 1, -1.0], [-1.0, far[1] + 1],
                    [far[0] + 1, far[1] + 1]])
    c_d, c_r = metrics_from_coords(dest, rls, 1.0)
    return Instance(n_d=n_d, n_r=4, c_d=c_d, c_r=c_r, w0=0,
                    wt=0 if single_depot else 3, e_max=50.0)


@pytest.mark.parametrize("n_d", range(1, HELD_KARP_LIMIT + 1))
def test_held_karp_matches_scalar_oracle(n_d):
    for seed in range(2):
        inst = random_instance(seed, n_d=n_d, n_r=3, single_depot=seed == 1)
        assert initial_tsp_sequence(inst) == _scalar_held_karp_path(inst)


@pytest.mark.parametrize("n_d", [17, 23, 31, 48, 75, 120])
def test_descent_matches_scalar_oracle(n_d):
    for seed in range(2):
        inst = random_instance(seed, n_d=n_d, n_r=4, single_depot=seed == 1)
        assert initial_tsp_sequence(inst) == _scalar_initial_order(inst)


@pytest.mark.parametrize("n_d", [9, 16, 17, 40])
def test_asymmetric_metric_skips_two_opt(n_d):
    inst = _asymmetric(random_instance(n_d, n_d=n_d, n_r=3), n_d)
    assert not np.allclose(inst.c_d, inst.c_d.T)
    assert initial_tsp_sequence(inst) == _scalar_initial_order(inst)


@pytest.mark.parametrize("n_d", [6, 12, 16, 17, 24, 30, 49, 81])
@pytest.mark.parametrize("line", [False, True])
def test_equal_distances_keep_the_tie_rules(n_d, line):
    for single_depot in (False, True):
        inst = _grid_instance(n_d, line=line, single_depot=single_depot)
        assert initial_tsp_sequence(inst) == _scalar_initial_order(inst)


def test_gains_at_the_threshold_are_not_taken():
    # a zero metric but for one edge of 1e-9 on the nearest-neighbor path:
    # the 2-opt reversal and the or-opt insertion that drop it both gain
    # exactly 1e-9, which is not an improvement
    n_d = HELD_KARP_LIMIT + 1
    c_d = np.zeros((n_d + 2, n_d + 2))
    c_d[n_d - 2, n_d - 1] = c_d[n_d - 1, n_d - 2] = 1e-9
    inst = Instance(n_d=n_d, n_r=2, c_d=c_d, c_r=np.zeros((2, 2)), w0=0, wt=1,
                    e_max=1.0)
    assert initial_tsp_sequence(inst) == _scalar_initial_order(inst) == tuple(range(n_d))


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_basis_large_matches_scalar_oracle(seed):
    inst = generate(get_setting("Basis", "large"), seed)
    assert initial_tsp_sequence(inst) == _scalar_initial_order(inst)


def test_tsp_collinear_order():
    dest = np.array([[2.0, 0.0], [4.0, 0.0], [6.0, 0.0]])
    rls = np.array([[0.0, 0.0], [8.0, 0.0]])
    c_d, c_r = metrics_from_coords(dest, rls, 1.0)
    inst = Instance(n_d=3, n_r=2, c_d=c_d, c_r=c_r, w0=0, wt=1, e_max=16.0)
    assert initial_tsp_sequence(inst) == (0, 1, 2)


def test_tsp_matches_factorial_oracle():
    inst = random_instance(3, n_d=8, n_r=3)
    x = initial_tsp_sequence(inst)
    best = min(_path_cost(o, inst) for o in itertools.permutations(range(8)))
    assert _path_cost(x, inst) == pytest.approx(best, abs=1e-9)


def test_tsp_heuristic_quality_reported(capsys):
    # informational: heuristic order above the exact-DP limit
    inst = random_instance(0, n_d=24, n_r=4)
    x = initial_tsp_sequence(inst)
    assert sorted(x) == list(range(24))
    cost = _path_cost(x, inst)
    print(f"heuristic initial order at n_d=24: path cost {cost:.1f}")


def test_tsp_deterministic():
    inst = random_instance(5, n_d=20, n_r=4)
    assert initial_tsp_sequence(inst) == initial_tsp_sequence(inst)


# ---------------------------------------------------------------------------
# limop
# ---------------------------------------------------------------------------

def test_limop_unrestricted_equals_exact():
    inst = random_instance(7, n_d=4, n_r=3)
    assert limop(inst, 4).makespan == pytest.approx(solve_exact(inst).makespan, abs=1e-9)


def _single_visit_oracle(inst):
    """Optimum over tours that replenish after every destination: brute
    force over orders, per order a tiny DP over (position, current RL)."""
    best = np.inf
    n_r = inst.n_r
    for perm in itertools.permutations(range(inst.n_d)):
        f = inst.c_r[inst.w0].copy()
        for v in perm:
            g = np.full(n_r, np.inf)
            for w in range(n_r):
                if not np.isfinite(f[w]):
                    continue
                for wp in range(n_r):
                    flight = inst.cd_rd[w, v] + inst.cd_dr[v, wp]
                    if flight > inst.e_max + 1e-9:
                        continue
                    g[wp] = min(g[wp], f[w] + max(flight, inst.c_r[w, wp]))
            f = np.array([min(g[wp] + inst.c_r[wp, w2] for wp in range(n_r))
                          for w2 in range(n_r)])
        best = min(best, f[inst.wt])
    return best


def test_limop_single_visit_matches_assignment_oracle():
    for seed in (0, 2):
        inst = random_instance(seed, n_d=5, n_r=3)
        assert limop(inst, 1).makespan == pytest.approx(_single_visit_oracle(inst), abs=1e-9)


def test_limop_monotone_in_cap():
    inst = random_instance(9, n_d=6, n_r=3)
    values = [limop(inst, k).makespan for k in (1, 2, 3, 4)]
    for a, b in zip(values, values[1:]):
        assert b <= a + 1e-9
    assert values[-1] >= solve_exact(inst).makespan - 1e-9


def test_limop_guards():
    inst = random_instance(1, n_d=5, n_r=3)
    with pytest.raises(SizeGuardError):
        limop(inst, 5)
    with pytest.raises(ValueError):
        limop(inst, 0)


@pytest.mark.parametrize("make_model", [BaseCostModel, binding_extended_model])
def test_limop_table_equals_the_capped_stage1_table(make_model):
    # the same (set, w, w') entries; makespans bitwise up to klim = 2, and
    # from 3 destinations on within 1e-12, since the exhaustive orderings
    # sum each flight in another order than stage 1's levels do
    for seed in range(12):
        inst = random_instance(seed, n_d=7, n_r=3)
        model = make_model(inst)
        for klim in (1, 2, 3, 4):
            got = entries(_capped_op_table(inst, klim, model))
            want = entries(build_ops_graph(inst, tuple(range(7)), None, model=model,
                                           size_cap=klim))
            for got_field, want_field in zip(got[:3], want[:3]):
                assert np.array_equal(got_field, want_field)
            if klim <= 2:
                assert np.array_equal(got[3], want[3])
            else:
                assert np.allclose(got[3], want[3], rtol=0, atol=1e-12)


def test_limop_not_below_exact_small_setting():
    inst = random_instance(10, n_d=7, n_r=4)
    assert limop(inst, 2).makespan >= solve_exact(inst).makespan - 1e-9


# ---------------------------------------------------------------------------
# randomized baselines
# ---------------------------------------------------------------------------

def test_rts3nn_single_iteration_contract():
    inst = random_instance(4, n_d=8, n_r=3)
    rep = rts_3nn(inst, BaselineConfig(iterations=1, seed=11))
    from drpe.baselines import _randomized_3nn_order
    order = _randomized_3nn_order(inst, np.random.default_rng(11))
    assert rep.makespan == split_optimal(order, inst).makespan
    assert rep.iterations == 1


def test_rts3nn_running_minimum():
    inst = random_instance(4, n_d=8, n_r=3)
    values = [rts_3nn(inst, BaselineConfig(iterations=n, seed=3)).makespan
              for n in (1, 3, 6, 12)]
    for a, b in zip(values, values[1:]):
        assert b <= a + 1e-12


def test_rts3nn_not_below_exact():
    inst = random_instance(6, n_d=6, n_r=3)
    rep = rts_3nn(inst, BaselineConfig(iterations=10, seed=0))
    assert rep.makespan >= solve_exact(inst).makespan - 1e-9
    assert validate_tour(rep.tour, inst).passed


def test_sa_zero_temperature_is_hill_climbing():
    inst = random_instance(8, n_d=8, n_r=3)
    cfg = BaselineConfig(iterations=60, seed=5, sa_t0_fraction=0.0)
    rep = sa_rts_3opt(inst, cfg)
    assert rep.makespan <= rts(inst).makespan + 1e-9


def test_sa_not_below_exact_and_deterministic():
    inst = random_instance(2, n_d=6, n_r=3)
    a = sa_rts_3opt(inst, BaselineConfig(iterations=40, seed=9))
    b = sa_rts_3opt(inst, BaselineConfig(iterations=40, seed=9))
    assert a.makespan == b.makespan
    assert a.tour.destination_order() == b.tour.destination_order()
    assert a.makespan >= solve_exact(inst).makespan - 1e-9
    assert validate_tour(a.tour, inst).passed
