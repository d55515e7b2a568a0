"""Workload definitions: which instances each workload builds from its seed,
which solves one pass runs, and which lookup caches set-up fills.

The workload seed relabels the destinations of fixed base instances. Every
solver except the exact sweep works on positions in a destination order, so
a relabelled instance does the same work and has the same optimum as its
base instance: makespans can be checked against one recorded reference per
base instance, and timings stay comparable across seeds. Changing the base
instances with the seed would not: `exact` takes 2.8 s to 6.3 s and
`vlsn-vnd` 2.5 s to 5.3 s across Basis-small seeds 1-4.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable

import numpy as np

import drpe


@dataclass(frozen=True)
class Solve:
    """One solver call of a pass. `label` names the algorithm in reports
    and references; `metric` is the end-to-end time it adds to."""

    label: str
    metric: str
    model: str  # "base" or "extended"
    run: Callable  # (inst, model) -> SolveReport


@dataclass(frozen=True)
class Workload:
    name: str
    bases: Callable  # () -> list of base instances
    solves: tuple
    # (lower, higher): the lower solve's makespan may not exceed the higher
    # one's on the same instance; both use the same cost model
    dominance: tuple
    widths: tuple  # neighborhood widths p the solves use

    def instances(self, seed: int) -> list:
        return [relabel(inst, seed) for inst in self.bases()]


def relabel(inst: drpe.Instance, seed: int) -> drpe.Instance:
    """The instance with its destinations renumbered by a permutation drawn
    from `seed`; RLs keep their numbers."""
    perm = np.random.default_rng(seed).permutation(inst.n_d)
    idx = np.concatenate([perm, inst.n_d + np.arange(inst.n_r)])
    return drpe.Instance(
        n_d=inst.n_d, n_r=inst.n_r, c_d=inst.c_d[np.ix_(idx, idx)],
        c_r=inst.c_r, w0=inst.w0, wt=inst.wt, e_max=inst.e_max,
        dest_xy=None if inst.dest_xy is None else inst.dest_xy[perm],
        rl_xy=inst.rl_xy, name=inst.name,
        meta={**inst.meta, "relabel_seed": seed})


def cost_model(name: str, inst: drpe.Instance):
    if name == "extended":
        return drpe.ExtendedCostModel(inst)
    return drpe.BaseCostModel(inst)


def fill_caches(workload: Workload, instances: list) -> None:
    """Fill the per-(n_d, p) lookup caches through public calls, so that no
    pass pays for them: the transition lookup of every width (including
    its lazily built wide gaps) and one capped stage-1 build per width."""
    for inst in instances:
        order = tuple(range(inst.n_d))
        for p in workload.widths:
            lookup = drpe.get_transition_lookup(p)
            for h in range(1, inst.n_d + 1):
                lookup.successors(0, h)
            drpe.build_ops_graph(inst, order, p, size_cap=1)


def _vnd(inst, model):
    return drpe.vlsn_vnd(inst, config=drpe.SearchConfig(p0=2, p_max=8),
                         model=model)


def _ls(p: int, model: str = "base") -> Solve:
    return Solve(f"vlsn-ls(p={p})", "ls_s", model,
                 lambda inst, m: drpe.vlsn_ls(inst, p=p, model=m))


EXACT = Solve("exact", "exact_s", "base",
              lambda inst, model: drpe.solve_exact(inst, model=model))
LIMOP = Solve("limop(klim=2)", "limop_s", "base",
              lambda inst, model: drpe.limop(inst, klim=2, model=model))
VND = Solve("vlsn-vnd(p0=2,p_max=8)", "vnd_s", "base", _vnd)
LS4 = _ls(4)
LS4_EXT = _ls(4, "extended")
RTS = Solve("rts", "rts_s", "base", lambda inst, model: drpe.rts(inst, model=model))


def _basis(size: str, seeds, **changes) -> Callable:
    def build():
        setting = dataclasses.replace(drpe.get_setting("Basis", size), **changes)
        return [drpe.generate(setting, s) for s in seeds]
    return build


# Why each workload exists is recorded in BENCHMARK.json and README.md. A
# pass takes 3-9 s and no solve more than about 3.5 s: the reference
# kernel runs between solves, and the longer a solve, the less the
# kernel's samples tell about the host's speed during it (harness.py).
WORKLOADS = {w.name: w for w in (
    Workload(
        name="small-tight",
        bases=_basis("small", (1,)),
        solves=(EXACT, LIMOP, VND, LS4_EXT),
        dominance=(("exact", "limop(klim=2)"),
                   ("exact", "vlsn-vnd(p0=2,p_max=8)")),
        widths=(2, 3, 4, 5, 6, 7, 8)),
    Workload(
        name="large-ls",
        bases=_basis("large", (1,)),
        solves=(_ls(2), _ls(3), RTS),
        dominance=(("vlsn-ls(p=2)", "rts"), ("vlsn-ls(p=3)", "rts")),
        widths=(2, 3)),
    Workload(
        name="small-loose",
        bases=_basis("small", (1,), e_max=3000.0),
        # p=7 first: the peak RSS is then set on a fresh heap; after p=6 it
        # varied by 16 MB between seeds
        solves=(_ls(7), _ls(6)),
        dominance=(),
        widths=(6, 7)),
)}
