"""Inspect the three planner backends on a small two-RB, three-slot instance.

The exact backend carries piecewise-linear value functions (alpha vectors),
the grid backend tabulates values on a belief lattice, and the myopic backend
just ranks expected immediate rates.  With equal sensing noise on every RB
and sensing that continues during sleep, the myopic rule is exactly optimal;
this script shows all three agreeing with the brute-force enumeration value
and prints where each backend would send the device.
"""

import numpy as np

from m2msim.channel import RbMarkov
from m2msim.pomdp import (MyopicPolicy, ObservationModel, PomdpModel,
                          exhaustive_value, solve_exact, solve_grid)


def main() -> None:
    model = PomdpModel(
        markov=RbMarkov(0.9, 0.1, 0.95, 0.05),
        obs=ObservationModel.symmetric(0.2),
        horizon=3, discount=0.9,
        rate_idle=np.array([1.0, 1.4]),
        rate_busy=np.array([0.3, 0.1]))

    exact = solve_exact(model)
    grid = solve_grid(model, grid_points=201)
    myopic = MyopicPolicy(model)

    beliefs = np.array([[0.9, 0.9], [0.9, 0.2], [0.2, 0.9],
                        [0.5, 0.5], [0.05, 0.05]])
    reference = exhaustive_value(model, beliefs)

    print("belief          enumeration   exact        grid         actions e/g/m")
    for b, ref in zip(beliefs, reference):
        ve, vg = exact.value(b), grid.value(b)
        acts = f"{exact.act(b, 0)}/{grid.act(b, 0)}/{myopic.act(b, 0)}"
        print(f"({b[0]:.2f}, {b[1]:.2f})    {ref:11.6f}  {ve:11.6f}  "
              f"{vg:11.6f}   {acts}")
    print(f"\nexact vs enumeration: max gap "
          f"{np.max(np.abs([exact.value(b) for b in beliefs] - reference)):.2e}")
    print("\nexact policy: alpha vectors kept per slot (sleep, access-1, access-2)")
    for k, table in enumerate(exact.per_action):
        print(f"slot {k}: " + ", ".join(str(len(table[a])) for a in sorted(table)))


if __name__ == "__main__":
    main()
