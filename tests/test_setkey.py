"""The int64 set key shared by stage 1, the cost table and stage 2."""

import numpy as np
import pytest

from drpe.generator import random_instance
from drpe.metagraph import get_transition_lookup, table_arcs
from drpe.model import SizeGuardError
from drpe.opsgraph import (
    OperationCostTable,
    OpsGraphStats,
    SetKey,
    _ctz,
    _top_bit,
    build_ops_graph,
)
from tests.oracles import set_window_valid, valid_successor_indices


def _check_layout(layout, masks):
    """Keys round-trip, and the array successor rule and growth match the
    scalar rule on every mask."""
    n, p = layout.n, layout.p
    keys = np.array([layout.key(m) for m in masks], dtype=np.int64)
    assert layout.masks(keys).tolist() == masks
    owner, u = layout.successors(keys)
    got = [[] for _ in masks]
    for o, t in zip(owner.tolist(), u.tolist()):
        got[o].append(t)
    for mask, succ in zip(masks, got):
        assert succ == valid_successor_indices(mask, p, n), (n, p, bin(mask))
    grown = layout.grow(keys[owner], u)
    want = [layout.key(masks[o] | (1 << t)) for o, t in zip(owner.tolist(), u.tolist())]
    assert grown.tolist() == want


@pytest.mark.parametrize("n", range(1, 11))
def test_array_rule_matches_scalar_rule_on_every_valid_mask(n):
    for p in range(1, n + 2):
        layout = SetKey(n, p)
        masks = [m for m in range(1, 1 << n) if set_window_valid(m, p)]
        _check_layout(layout, masks)
        # the key is one-to-one on window-valid sets
        assert len({layout.key(m) for m in masks}) == len(masks)


def _random_valid_mask(rng, n, p):
    m = int(rng.integers(n))
    M = int(rng.integers(m, min(n, m + int(rng.integers(1, 40)))))
    mask = (1 << m) | (1 << M)
    for t in range(m + 1, M):
        inner = m + p <= t <= M - p
        if inner or rng.random() < 0.6:
            mask |= 1 << t
    return mask


@pytest.mark.parametrize("p", [*range(1, 9), 12, 25])
def test_array_rule_matches_scalar_rule_at_100_destinations(p):
    rng = np.random.default_rng(p)
    masks = [_random_valid_mask(rng, 100, p) for _ in range(400)]
    assert all(set_window_valid(m, p) for m in masks)
    _check_layout(SetKey(100, p), masks)


def _table(n_d, q, masks):
    """A cost table at width q holding exactly ``masks`` (zero makespans)."""
    layout = SetKey(n_d, q)
    by_size = {}
    for m in masks:
        by_size.setdefault(m.bit_count(), []).append(layout.key(m))
    top = max(by_size, default=0)
    keys = [np.sort(np.array(by_size.get(k, []), dtype=np.int64)) for k in range(top + 1)]
    rows = [np.arange(ks.size) for ks in keys]
    return OperationCostTable(keys=keys, starts=rows, stops=[r + 1 for r in rows],
                              cells=[np.zeros(ks.size, np.uint8) for ks in keys],
                              values=[np.zeros(ks.size) for ks in keys],
                              layout=layout, p=q, x=tuple(range(n_d)), n_r=1,
                              stats=OpsGraphStats())


def _lookup_against_dict(p, q, share, seed=0):
    """Compare ``table_arcs`` with the per-arc dict membership test on a
    width-q table holding a random ``share`` of the operations of width-p
    arcs: every arc (a, b, h), through gaps past the key's cut
    (h > 3p - 1), from every stage at p <= 5 and from the first typical
    stage p - 1 above. Returns how many arcs fly a set that no width-q
    table can hold (one with a hole in its window's interior); the table
    holds the set that fills each such hole."""
    n_d = 4 * p + 3
    lookup = get_transition_lookup(p)
    valid_at = lookup.valid_at(n_d)
    stages = range(n_d) if p <= 5 else [p - 1]
    width = n_d if q is None else q
    rng = np.random.default_rng(seed)
    arcs, held, holes = [], set(), 0
    for k in stages:
        for a_id in np.flatnonzero(valid_at[k]).tolist():
            for h in range(1, min(n_d - k, 3 * p + 2) + 1):
                for b_id, ops in lookup.successors(a_id, h):
                    if not valid_at[k + h, b_id]:
                        continue
                    mask = ops << k >> (p - 1)
                    arcs.append((k, h, a_id, b_id, mask))
                    if not set_window_valid(mask, width):
                        # the table gets the set that fills the hole, whose
                        # key the holed set would alias
                        holes += 1
                        m, M = (mask & -mask).bit_length() - 1, mask.bit_length() - 1
                        held.add(mask | ((1 << (M - width + 1)) - (1 << (m + width))))
                    elif rng.random() < share:
                        held.add(mask)
    table = _table(n_d, q, held)
    assert set(table.sets()[0].tolist()) == held
    stage, gap, a, b, keys, rows = table_arcs(table, lookup, valid_at)
    masks = table.layout.masks(keys).tolist()
    got = [arc for arc in zip(stage.tolist(), gap.tolist(), a.tolist(), b.tolist(), masks)
           if arc[0] in stages and arc[1] <= 3 * p + 2]
    assert got == sorted(arc for arc in arcs if arc[4] in held)
    for h, r, mask in zip(gap.tolist(), rows.tolist(), masks):
        assert table.layout.masks(table.keys[h][r:r + 1]).tolist() == [mask]
    return holes


def test_bit_scans_match_python_ints():
    # _top_bit reads the exponent of a rounded float: near 2^k it may round
    # up, and the correction must undo that up to bit 62
    rng = np.random.default_rng(7)
    x = np.concatenate([rng.integers(1, 1 << 62, 20_000), 1 << np.arange(63),
                        (1 << np.arange(1, 63)) - 1, [2 ** 63 - 1, 2 ** 53 + 1, 2 ** 54 - 1]])
    x = x.astype(np.int64)
    assert _top_bit(x).tolist() == [int(v).bit_length() - 1 for v in x.tolist()]
    assert _ctz(x).tolist() == [(int(v) & -int(v)).bit_length() - 1 for v in x.tolist()]


@pytest.mark.parametrize("n", [16, 100])
@pytest.mark.parametrize("p", [1, 2, 3, 4, None])
def test_scalar_mask_inverts_the_key(n, p):
    if p is None and n > 27:
        with pytest.raises(SizeGuardError):
            SetKey(n, p)
        return
    layout = SetKey(n, p)
    rng = np.random.default_rng(n)
    masks = [_random_valid_mask(rng, n, layout.p) for _ in range(400)]
    masks += [1, 1 << (n - 1), (1 << n) - 1]
    # ``masks`` inverts the scalar ``key``, on a batch and on single keys
    keys = [layout.key(m) for m in masks]
    assert layout.masks(keys).tolist() == masks
    for k, m in zip(keys[:40] + keys[-3:], masks[:40] + masks[-3:]):
        assert layout.masks([k])[0] == m


@pytest.mark.parametrize("p", range(1, 9))
def test_stage2_lookup_equals_dict_membership(p):
    # stage 2's operations are window-valid at its own width
    assert _lookup_against_dict(p, p, 0.5) == 0
    if p <= 4:
        # a p=None table (every subset) under a width-p stage 2
        _lookup_against_dict(p, None, 0.5)


@pytest.mark.parametrize("p", [3, 4, 5])
def test_operation_with_an_interior_hole_is_a_miss(p):
    # under a narrower table some operations have interior holes; the set
    # that fills such a hole is in the table, and its key must not answer
    # for the holed one
    assert _lookup_against_dict(p, p - 1, 1.0) > 0


def test_key_that_cannot_fit_is_refused_before_the_first_level(monkeypatch):
    from drpe import opsgraph

    def no_levels(*args, **kwargs):
        raise AssertionError("stage 1 started")

    monkeypatch.setattr(opsgraph, "_levels", no_levels)
    inst = random_instance(0, n_d=100, n_r=2)
    x = tuple(range(100))
    # 7-bit positions: 2 * 7 + 2p - 2 bits, which passes 63 at p = 26
    with pytest.raises(SizeGuardError, match="set keys"):
        build_ops_graph(inst, x, 26)
    assert SetKey(100, 25).shift_m + 7 == 62
    # p=None keys are the whole mask plus its ends: 18 destinations fit
    SetKey(18, None)
    with pytest.raises(SizeGuardError):
        SetKey(28, None)
