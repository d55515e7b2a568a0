"""Result container shared by all solvers."""

from __future__ import annotations

from dataclasses import dataclass, field

from .model import DroneTour


@dataclass
class SolveReport:
    algorithm: str
    tour: DroneTour
    iterations: int = 1
    neighborhoods: int = 0
    ops_states: int = 0
    ops_arcs: int = 0
    meta_states: int = 0
    meta_arcs: int = 0
    wall_time: float = 0.0
    extras: dict = field(default_factory=dict)

    @property
    def makespan(self) -> float:
        return self.tour.makespan

    def summary(self) -> str:
        return (f"{self.algorithm}: makespan={self.makespan:.6f} "
                f"iters={self.iterations} neighborhoods={self.neighborhoods} "
                f"states={self.ops_states + self.meta_states} "
                f"arcs={self.ops_arcs + self.meta_arcs} "
                f"time={self.wall_time:.2f}s")
