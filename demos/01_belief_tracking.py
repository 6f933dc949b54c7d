"""Track one resource block through its occupancy chain with a noisy sensor.

A device never sees the true idle/busy state, only a reading that is flipped
with some probability.  This script runs a single chain for a few dozen slots
and prints the evolving idle-probability next to the truth for two sensor
qualities, then shows that a chance-level sensor (flip probability 0.5)
leaves the device with nothing but the chain's own statistics.
"""

import numpy as np

from m2msim.channel import BUSY, IDLE, RbMarkov, evolve_many
from m2msim.pomdp import ObservationModel, belief_propagate, belief_update, reading


def track(eps: float, slots: int = 25, seed: int = 4) -> None:
    rng = np.random.default_rng(seed)
    markov = RbMarkov(0.9, 0.1, 0.95, 0.05)
    obs_model = ObservationModel.symmetric(eps)
    state = IDLE
    belief = np.array([markov.stationary_idle()])

    print(f"\nflip probability {eps}")
    print("slot  truth  reading  P(idle)")
    for k in range(slots):
        state = int(evolve_many(state, markov, rng.random()))
        seen = int(reading(state, rng.random(), eps))
        belief = belief_update(belief, 1, np.array([seen]), markov, obs_model)
        mark = " <- busy" if state == BUSY else ""
        print(f"{k:4d}  {state:5d}  {seen:7d}  {belief[0]:7.3f}{mark}")


def chance_level(seed: int = 9) -> None:
    rng = np.random.default_rng(seed)
    markov = RbMarkov(0.9, 0.1, 0.95, 0.05)
    obs_model = ObservationModel.symmetric(0.5)
    belief = np.array([0.3])
    drift = 0.0
    for _ in range(200):
        reading = rng.integers(0, 2)
        updated = belief_update(belief, 1, np.array([reading]), markov, obs_model)
        drift = max(drift, abs(updated[0] - belief_propagate(belief, markov)[0]))
        belief = updated
    print(f"\nchance-level sensor: max deviation from pure propagation {drift:.1e}")
    print(f"belief settled at {belief[0]:.6f} "
          f"(stationary idle {markov.stationary_idle():.6f})")


def main() -> None:
    track(0.1)
    track(0.4)
    chance_level()


if __name__ == "__main__":
    main()
