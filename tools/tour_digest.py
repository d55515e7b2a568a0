"""One sha256 over the tours and makespans of a fixed list of solves.

    python3 tools/tour_digest.py [SRC]

SRC is the `src` directory of the tree to check (default: this tree's). Run
it on two trees to check that a change keeps every tour bitwise identical:
the digests must be equal. The list covers every solve of the perfbench
workloads (read from the perfbench directory next to SRC), `solve_exact`
and `limop` (klim 1-3) under both cost models, `vlsn` at p 1-4, and
`split_optimal` from the initial order and from random orders, on random
instances and on the Basis instances.
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
    """(label, thunk) of every solve, in a fixed order."""
    import numpy as np

    for w in workloads.WORKLOADS.values():
        for inst in w.bases():
            for s in w.solves:
                yield (f"{w.name} {inst.name} {s.label}",
                       lambda s=s, inst=inst: s.run(inst, workloads.cost_model(s.model, inst)))

    small = drpe.generate(drpe.get_setting("Basis", "small"), 1)
    large = drpe.generate(drpe.get_setting("Basis", "large"), 1)
    loose = drpe.generate(dataclasses.replace(drpe.get_setting("Basis", "small"),
                                              e_max=3000.0), 1)
    randoms = [drpe.random_instance(seed, n_d=n_d, n_r=n_r)
               for seed, n_d, n_r in ((0, 6, 3), (1, 8, 4), (2, 9, 2), (3, 7, 1))]
    models = {"base": lambda inst: drpe.BaseCostModel(inst),
              "binding": lambda inst: binding_model(drpe, inst)}
    for inst in [*randoms, small]:
        x = drpe.initial_tsp_sequence(inst)
        for name, model in models.items():
            yield (f"exact {inst.name} {name}",
                   lambda inst=inst, model=model: drpe.solve_exact(inst, model=model(inst)))
            for klim in (1, 2, 3):
                yield (f"limop {inst.name} {name} klim={klim}",
                       lambda inst=inst, model=model, klim=klim:
                       drpe.limop(inst, klim, model=model(inst)))
            for p in (1, 2, 3, 4):
                yield (f"vlsn {inst.name} {name} p={p}",
                       lambda inst=inst, model=model, x=x, p=p:
                       drpe.vlsn(inst, x, p, model=model(inst)))
    for inst in [*randoms, small, loose, large]:
        x = drpe.initial_tsp_sequence(inst)
        orders = [x, *(tuple(np.random.default_rng(seed).permutation(inst.n_d).tolist())
                       for seed in range(3))]
        for i, order in enumerate(orders):
            yield (f"split {inst.name} order {i}",
                   lambda inst=inst, order=order: drpe.split_optimal(order, inst))


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
    for label, run in solves(drpe, workloads):
        result = run()
        tour = getattr(result, "tour", result)
        digest.update(f"{label}\n{tour!r}\n{tour.makespan!r}\n".encode())
        count += 1
    print(f"{digest.hexdigest()}  {count} solves")
    return 0


if __name__ == "__main__":
    sys.exit(main())
