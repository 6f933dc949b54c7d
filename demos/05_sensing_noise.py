"""Sweep the sensing flip probability and watch the reward respond.

The informed devices draw their RBs from the slice access rule, so they
spread over their slice whatever the noise.  The occupancy chain forgets in
one slot, so a reading is worth little and the curve barely moves below
chance level.  At chance level the readings carry nothing, every belief
collapses to the chain's stationary point, and the rule draws the same RBs
as uniform random choice.  Beyond chance level the planner caps its trust (a
mostly-wrong sensor is not an inverted oracle), so the curve stays flat
instead of recovering.  The clairvoyant column feeds the rule each slot's
true occupancy.
"""

import dataclasses

import numpy as np

from m2msim import load_config, run_batch, run_sweep


def main() -> None:
    base = load_config("five-slice",
                       ["timebase.periods=15", "controller_enabled=false"])
    seeds = range(1, 9)
    grid = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8)
    # every flip rate and seed in one batch; the clairvoyant arm knows the
    # occupancy, so it does not depend on the flip rate
    rows = run_sweep(base, "epsilon", grid, seeds)
    informed = np.array([row.summary.mean_discounted_reward for row in rows]).reshape(
        len(grid), len(seeds)).mean(axis=1)
    clair = np.mean([run.mean_discounted_reward for run in run_batch(
        [dataclasses.replace(base, policy_mode="perfect", seed=s) for s in seeds])])

    print("eps    informed      clairvoyant   ratio")
    for eps, inf in zip(grid, informed):
        print(f"{eps:.1f}  {inf:12.4g}  {clair:12.4g}  {inf / clair:6.3f}")


if __name__ == "__main__":
    main()
