"""Watch the reallocation controller track a step change in the share targets.

On the idealised linear plant (real-valued RB corrections, a fixed rate gain
per RB) the loop is designed to be deadbeat: one period after the targets
move, the filtered shares sit on them exactly.  The second half of the script
breaks the assumed gain on purpose and shows the graceful degradation, and
the last part walks the integer layer: rounding, clamping, and trimming when
the requested increases overflow the access pool.
"""

import numpy as np

from m2msim.channel import CellTopology
from m2msim.controller import (ControllerParams, apply_allocation,
                               closed_loop_reference)


def tracking(plant_mu=None) -> None:
    params = ControllerParams(omega=0.8, mu=2.0)
    targets = np.vstack([np.tile([0.5, 0.5], (4, 1)),
                         np.tile([0.75, 0.25], (8, 1))])
    ref = closed_loop_reference(params, [3.0, 1.0], targets, plant_mu=plant_mu)
    label = "matched gain" if plant_mu is None else f"plant gain {plant_mu}"
    print(f"\n{label}:")
    print("period  xi_1     xi_2     |gap|")
    for y, (xi, gap) in enumerate(zip(ref["xi"], ref["gap"])):
        print(f"{y:6d}  {xi[0]:.5f}  {xi[1]:.5f}  {np.max(np.abs(gap)):.2e}")


def integer_layer() -> None:
    topo = CellTopology(total_rbs=12, access_rbs=10, data_rbs=2, devices=8)
    print("\ninteger layer on a 10-RB access pool:")
    for prev, deltas in [([5, 5], [+2.0, +2.0]),
                         ([5, 5], [+2.0, -2.0]),
                         ([4, 4], [+1.6, -0.4]),
                         ([1, 9], [-3.0, 0.0])]:
        new = apply_allocation(prev, deltas, topo)
        print(f"  {prev} + {deltas} -> {new}")


def main() -> None:
    tracking()
    tracking(plant_mu=3.0)
    integer_layer()


if __name__ == "__main__":
    main()
