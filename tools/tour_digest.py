"""One sha256 over the tours, makespans and validation reports of a fixed
list of solves, over a fixed list of stage-1 tables and over the initial
orders of a fixed list of instances.

    python3 tools/tour_digest.py [SRC]

SRC is the `src` directory of the tree to check (default: this tree's). Run
it on two trees to check that a change keeps every tour, and the report of
`validate_tour` on it under the cost model it was solved with, bitwise
identical, and every listed stage-1 table and initial order too: the
digests must be equal.
The list of solves covers every solve of the perfbench workloads (read
from the perfbench directory next to SRC), `solve_exact` and `limop`
(klim 1-3) under both cost models, `vlsn` at p 1-4, and `split_optimal`
from the initial order and from random orders, on random instances, on
two instances that force bitwise ties (`tie_instances`) and on the Basis
instances, `solve_exact` and `vlsn` at p 4 and 7 under both cost models on
random instances with loose flights, whose tours but one hold operations
of 7 to 11 destinations, `vlsn` at p 2-4 under both cost models on
single-depot random instances, where it also splits the wrap-around
orders, and `pract` on the case-study instances of seeds 0-2 at residual
charge 0.1 and 0.3 (its energy audited, not required).

The tables are stage 1's from the perfbench workloads' initial (TSP)
orders, at each width the workload searches and under each cost model its
solves use, and Basis-small s1's at p=None under both cost models. A
table is hashed as each set's key with its run of (cell, makespan)
entries, in key order, read from the table's `keys`, `starts`, `stops`,
`cells` and `values` fields alone, so the script reads older trees'
tables as well.

The initial orders are `initial_tsp_sequence`'s on the instances above 16
destinations (the nearest-neighbor, 2-opt and or-opt descent) that the
initial-order tests check against their scalar oracle: random instances
of 17 to 120 destinations, asymmetric ones of 17 and 40, and Basis-large
seeds 1-3.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import sys
from pathlib import Path


def binding_model(drpe, inst):
    """Extended model whose zero-hover flight cap equals the instance's
    e_max, so the energy budget binds as often as under the base model."""
    costs = dict(c_tkof=3.0, c_land=5.0, c_swap=11.0, xi_tkof=40.0,
                 xi_land=7.0, r_fl=1.0, r_hov=0.65, residual=0.1)
    xi_max = (inst.e_max + costs["xi_tkof"] + costs["xi_land"]) / (1 - costs["residual"])
    return drpe.ExtendedCostModel(inst, drpe.ExtendedCosts(xi_max=xi_max, **costs))


def solves(drpe, workloads):
    """(label, instance, cost model, thunk, energy_required) of every
    solve, in a fixed order: the thunk solves under that model, and the
    tour is validated under it (``energy_required=False`` audits the
    energy of a tour that may knowingly overrun it)."""
    import numpy as np

    for w in workloads.WORKLOADS.values():
        for inst in w.bases():
            for s in w.solves:
                model = workloads.cost_model(s.model, inst)
                yield (f"{w.name} {inst.name} {s.label}", inst, model,
                       lambda s=s, inst=inst, model=model: s.run(inst, model), True)

    small = drpe.generate(drpe.get_setting("Basis", "small"), 1)
    large = drpe.generate(drpe.get_setting("Basis", "large"), 1)
    loose = drpe.generate(dataclasses.replace(drpe.get_setting("Basis", "small"),
                                              e_max=3000.0), 1)
    randoms = [drpe.random_instance(seed, n_d=n_d, n_r=n_r)
               for seed, n_d, n_r in ((0, 6, 3), (1, 8, 4), (2, 9, 2), (3, 7, 1))]
    models = {"base": lambda inst: drpe.BaseCostModel(inst),
              "binding": lambda inst: binding_model(drpe, inst)}
    ties = list(tie_instances(drpe))
    for inst in [*randoms, *ties, small]:
        x = drpe.initial_tsp_sequence(inst)
        for name, make_model in models.items():
            model = make_model(inst)
            yield (f"exact {inst.name} {name}", inst, model,
                   lambda inst=inst, model=model: drpe.solve_exact(inst, model=model), True)
            for klim in (1, 2, 3):
                yield (f"limop {inst.name} {name} klim={klim}", inst, model,
                       lambda inst=inst, model=model, klim=klim:
                       drpe.limop(inst, klim, model=model), True)
            for p in (1, 2, 3, 4):
                yield (f"vlsn {inst.name} {name} p={p}", inst, model,
                       lambda inst=inst, model=model, x=x, p=p:
                       drpe.vlsn(inst, x, p, model=model), True)
    # loose flights: 29 of these 30 tours hold an operation of 7 to 11
    # destinations, recovered at p=None by exact and at width p by vlsn
    for seed, n_d, emax_factor in ((11, 12, 2.5), (14, 12, 2.0), (15, 14, 1.8),
                                   (16, 12, 2.2), (17, 13, 2.0)):
        inst = drpe.random_instance(seed, n_d=n_d, n_r=3, emax_factor=emax_factor)
        x = drpe.initial_tsp_sequence(inst)
        for name, make_model in models.items():
            model = make_model(inst)
            yield (f"exact {inst.name} {name} e_max x{emax_factor}", inst, model,
                   lambda inst=inst, model=model: drpe.solve_exact(inst, model=model), True)
            for p in (4, 7):
                yield (f"vlsn {inst.name} {name} e_max x{emax_factor} p={p}", inst, model,
                       lambda inst=inst, model=model, x=x, p=p:
                       drpe.vlsn(inst, x, p, model=model), True)
    # 12 of these 24 searches return the tour of a wrap-around order
    for seed, n_d, n_r in ((4, 9, 4), (8, 7, 3), (10, 7, 3), (14, 8, 3)):
        inst = drpe.random_instance(seed, n_d=n_d, n_r=n_r, single_depot=True)
        x = drpe.initial_tsp_sequence(inst)
        for name, make_model in models.items():
            model = make_model(inst)
            for p in (2, 3, 4):
                yield (f"vlsn {inst.name} {name} p={p}", inst, model,
                       lambda inst=inst, model=model, x=x, p=p:
                       drpe.vlsn(inst, x, p, model=model), True)
    for inst in [*randoms, *ties, small, loose, large]:
        x = drpe.initial_tsp_sequence(inst)
        orders = [x, *(tuple(np.random.default_rng(seed).permutation(inst.n_d).tolist())
                       for seed in range(3))]
        for i, order in enumerate(orders):
            yield (f"split {inst.name} order {i}", inst, drpe.BaseCostModel(inst),
                   lambda inst=inst, order=order: drpe.split_optimal(order, inst), True)
    for seed in range(3):
        inst = drpe.case_study_instance(seed)
        for residual in (0.1, 0.3):
            costs = drpe.ExtendedCosts(residual=residual)
            yield (f"pract {inst.name} residual={residual}", inst,
                   drpe.ExtendedCostModel(inst, costs),
                   lambda inst=inst, costs=costs: drpe.pract(inst, costs), False)


def tie_instances(drpe):
    """Instances that force bitwise ties, where only the walk-backs' tie
    rules pick the tour: RLs 1 and 2 at the same coordinates (the twin-RL
    instance of the relaxation tests), and destinations 0 and 1 at the
    same coordinates."""
    from drpe.generator import metrics_from_coords

    base = drpe.random_instance(4, n_d=6, n_r=4)
    rl_xy = base.rl_xy.copy()
    rl_xy[1] = rl_xy[2] = base.dest_xy.mean(axis=0)
    c_d, c_r = metrics_from_coords(base.dest_xy, rl_xy, 0.5)
    yield drpe.Instance(n_d=6, n_r=4, c_d=c_d, c_r=c_r, w0=0, wt=3, e_max=base.e_max,
                        dest_xy=base.dest_xy, rl_xy=rl_xy, name="twin-rl_s4_6x4")
    base = drpe.random_instance(5, n_d=7, n_r=3)
    dest_xy = base.dest_xy.copy()
    dest_xy[1] = dest_xy[0]
    c_d, c_r = metrics_from_coords(dest_xy, base.rl_xy, 0.5)
    yield drpe.Instance(n_d=7, n_r=3, c_d=c_d, c_r=c_r, w0=base.w0, wt=base.wt,
                        e_max=base.e_max, dest_xy=dest_xy, rl_xy=base.rl_xy,
                        name="twin-dest_s5_7x3")


def tables(drpe, workloads):
    """(label, thunk) of every hashed stage-1 table, in a fixed order; the
    thunk builds the table."""
    cases = [(w.name, inst, name, p) for w in workloads.WORKLOADS.values()
             for inst in w.bases() for name in sorted({s.model for s in w.solves})
             for p in w.widths]
    small = drpe.generate(drpe.get_setting("Basis", "small"), 1)
    cases += [("every-subset", small, name, None) for name in ("base", "extended")]
    for label, inst, name, p in cases:
        x = drpe.initial_tsp_sequence(inst)
        model = workloads.cost_model(name, inst)
        yield (f"table {label} {inst.name} {name} p={p}",
               lambda inst=inst, x=x, p=p, model=model:
               drpe.build_ops_graph(inst, x, p, model=model))


def descent_instances(drpe):
    """(label, instance) of every hashed initial order, in a fixed order."""
    import numpy as np

    for n_d in (17, 23, 31, 48, 75, 120):
        for seed in (0, 1):
            yield (f"order random n_d={n_d} seed={seed}",
                   drpe.random_instance(seed, n_d=n_d, n_r=4, single_depot=seed == 1))
    for n_d in (17, 40):
        # every drone leg lengthened by its own random amount
        inst = drpe.random_instance(n_d, n_d=n_d, n_r=3)
        c_d = inst.c_d + np.random.default_rng(n_d).uniform(0.0, 5.0, inst.c_d.shape)
        np.fill_diagonal(c_d, 0.0)
        yield (f"order asymmetric n_d={n_d}",
               drpe.Instance(n_d=n_d, n_r=inst.n_r, c_d=c_d, c_r=inst.c_r,
                             w0=inst.w0, wt=inst.wt, e_max=inst.e_max))
    for seed in (1, 2, 3):
        yield f"order Basis-large s{seed}", drpe.generate(drpe.get_setting("Basis", "large"), seed)


def table_bytes(table):
    """Each set's key with its (cell, makespan) run, in key order, size by
    size."""
    import numpy as np

    for keys, starts, stops, cells, values in zip(
            table.keys, table.starts, table.stops, table.cells, table.values):
        n = stops - starts
        at = np.repeat(starts - (np.cumsum(n) - n), n) + np.arange(n.sum())
        for part in (keys, n, cells[at], values[at]):
            yield part.tobytes()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("src", nargs="?", default=str(Path(__file__).resolve().parents[1] / "src"))
    args = ap.parse_args(argv)
    src = Path(args.src).resolve()
    sys.path[:0] = [str(src), str(src.parent / "perfbench")]
    import drpe
    import workloads
    if Path(drpe.__file__).resolve().parent != src / "drpe":
        raise SystemExit(f"error: imported drpe from {drpe.__file__}, not {src}")

    digest, count = hashlib.sha256(), 0
    for label, inst, model, run, energy_required in solves(drpe, workloads):
        result = run()
        tour = getattr(result, "tour", result)
        check = drpe.validate_tour(tour, inst, model, energy_required=energy_required)
        digest.update(f"{label}\n{tour!r}\n{tour.makespan!r}\n{check}\n".encode())
        count += 1
    n_tables = 0
    for label, build in tables(drpe, workloads):
        digest.update(f"{label}\n".encode())
        for part in table_bytes(build()):
            digest.update(part)
        n_tables += 1
    n_orders = 0
    for label, inst in descent_instances(drpe):
        digest.update(f"{label}\n{drpe.initial_tsp_sequence(inst)!r}\n".encode())
        n_orders += 1
    print(f"{digest.hexdigest()}  {count} solves, {n_tables} tables, {n_orders} orders")
    return 0


if __name__ == "__main__":
    sys.exit(main())
