"""Sweep the per-slice RB budget and compare access strategies.

For each budget the same seeds (and therefore the same channel realisations)
are run through three arms: belief-driven selection with the reallocation
controller, the same without the controller, and uninformed uniform random
selection.  More RBs help every arm.  The informed arm draws each device's
RB from the slice access rule, which spreads the slice's devices over its
RBs as random selection does; sensing carries little information at this
occupancy, so the two stay within a hair of each other; see notes in the
package docs.
"""

import dataclasses

import numpy as np

from m2msim import load_config, run_sweep


def arm_means(cfg, budgets, seeds) -> np.ndarray:
    """Seed-mean reward per budget; the arm's runs go through one batch."""
    rows = run_sweep(cfg, "rbs", budgets, seeds)
    rewards = [row.summary.mean_discounted_reward for row in rows]
    return np.array(rewards).reshape(len(budgets), len(seeds)).mean(axis=1)


def main() -> None:
    base = load_config("five-slice", ["timebase.periods=15"])
    seeds = range(1, 9)
    arms = {
        "with controller": base,
        "no controller": dataclasses.replace(base, controller_enabled=False),
        "random": dataclasses.replace(base, controller_enabled=False,
                                      policy_mode="random"),
    }
    budgets = (1, 2, 3, 4, 5)
    means = [arm_means(cfg, budgets, seeds) for cfg in arms.values()]
    print("budget  " + "".join(f"{name:>18}" for name in arms))
    for i, budget in enumerate(budgets):
        print(f"{budget:6d}  " + "".join(f"{m[i]:18.4g}" for m in means))


if __name__ == "__main__":
    main()
