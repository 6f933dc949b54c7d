"""Shared scenario builders for the test suite."""

import copy
import dataclasses
from collections import defaultdict

import numpy as np

from m2msim.channel import CellTopology, RadioParams, RbMarkov, Timebase
from m2msim.controller import ControllerParams
from m2msim.engine import ScenarioConfig, run_batch, run_simulation
from m2msim.pomdp import ObservationModel
from m2msim.slicing import VirtualNetwork

PINNED_MARKOV = RbMarkov(0.9, 0.1, 0.95, 0.05)

# the benchmark's exact-solver scenario, as two-slice overrides: epsilon !=
# phi takes it off the greedy fast path, but at the profile's discount of 0.9
# its access is certified, so solver auto returns the greedy rule and solves
# no planner; at discount 0.5 it is not certified and each run solves exactly
EXACT_SOLVER = ("observation.force_equal_noise=false", "observation.phi=0.2",
                "controller_enabled=false", "timebase.periods=1",
                "timebase.slots_per_period=8", "slices.0.access_rbs=2",
                "slices.1.access_rbs=2")


def small_radio(noise: float = 0.02, busy=None) -> RadioParams:
    return RadioParams(bandwidth_per_rb=1.8e5, tx_power=0.1,
                       noise_power=noise, busy_power=busy)


def tiny_config(**overrides) -> ScenarioConfig:
    """One slice, three devices, two RBs; cheap enough for exact solving."""
    base = dict(
        topology=CellTopology(total_rbs=2, access_rbs=2, data_rbs=0, devices=3),
        timebase=Timebase(slot_duration=1e-3, slots_per_period=3, periods=2),
        slices=(VirtualNetwork(slice_id=1, devices=3, access_rbs=2,
                               data_rbs=0, weight=1.0),),
        radio=small_radio(),
        markov=PINNED_MARKOV,
        obs=ObservationModel.symmetric(0.1),
        discount=0.9,
        controller=ControllerParams(omega=0.8, mu=9e5),
        controller_enabled=False,
        seed=1)
    base.update(overrides)
    return ScenarioConfig(**base)


def paired(cfg: ScenarioConfig, **overrides) -> ScenarioConfig:
    return dataclasses.replace(cfg, **overrides)


def _keeper():
    """A slot sink that copies each period's records, by run, and a function
    giving run i's whole run of them, by period, slot and device."""
    periods = defaultdict(list)
    return (lambda i, records: periods[i].append(records.copy()),
            lambda i: np.concatenate(periods[i]))


def recorded_run(config):
    """run_simulation with every slot record kept: (summary, records)."""
    sink, records = _keeper()
    return run_simulation(config, slot_sink=sink), records(0)


def recorded_batch(configs):
    """run_batch with every slot record kept: a (summary, records) per run."""
    sink, records = _keeper()
    return [(summary, records(i))
            for i, summary in enumerate(run_batch(configs, slot_sink=sink))]


def unscreened(rule):
    """A `SliceAccess` with its screen off: every row takes the first step."""
    other = copy.copy(rule)
    other._settle_gap = np.full_like(rule._settle_gap, np.inf)
    return other
