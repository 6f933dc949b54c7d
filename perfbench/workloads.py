"""The benchmark's workloads: which m2msim commands each one runs.

Pure data, free of any m2msim import, so that run.py can read it without
loading the package.  Every workload is a list of scenarios; one repetition
("rep") runs each scenario once through ``m2msim.cli.main`` in-process.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

SWEEP_SEEDS = 2
SWEEP_VALUES = ("0.1..0.8:0.1", 8)   # the README's epsilon range and its size


@dataclass(frozen=True)
class Scenario:
    name: str                       # output subdirectory of a rep
    command: str                    # "run" or "sweep"
    config: str                     # shipped profile name
    overrides: Tuple[str, ...] = ()
    extra: Tuple[str, ...] = ()     # command flags after the common ones
    runs: int = 1                   # simulation runs one invocation makes

    def argv(self, seed: int, out: str) -> List[str]:
        args = [self.command, "--config", self.config]
        for item in self.overrides:
            args += ["--set", item]
        return args + list(self.extra) + ["--seed", str(seed), "--out", out]


def _devices(total: int, first: int, rest: int) -> Tuple[str, ...]:
    return (f"topology.devices={total}", f"slices.0.devices={first}",
            *(f"slices.{i}.devices={rest}" for i in range(1, 5)))


_SOLVER = ("observation.force_equal_noise=false", "observation.phi=0.2",
           "controller_enabled=false", "timebase.periods=1",
           "timebase.slots_per_period=8")

WORKLOADS: Dict[str, List[Scenario]] = {
    "sweep": [Scenario(
        "sweep", "sweep", "five-slice",
        extra=("--axis", "epsilon", "--values", SWEEP_VALUES[0],
               "--seeds", str(SWEEP_SEEDS)),
        runs=SWEEP_VALUES[1] * SWEEP_SEEDS)],
    "scale": [Scenario("scale", "run", "five-slice", _devices(5000, 4000, 250))],
    "slots": [Scenario("slots", "run", "five-slice",
                       _devices(500, 400, 25) + ("timebase.periods=10",),
                       extra=("--slots",))],
    # controller off: with it on, slices grow to R=3 and the exact solver
    # does not finish (auto picks exact for R <= 2 and horizon <= 8)
    "solver": [
        Scenario("exact", "run", "two-slice",
                 _SOLVER + ("slices.0.access_rbs=2", "slices.1.access_rbs=2")),
        Scenario("grid", "run", "two-slice",
                 _SOLVER + ("slices.0.access_rbs=3", "slices.1.access_rbs=3",
                            "policy.grid_points=21")),
    ],
}
