"""Discrete-time cell simulator tying channels, device policies and control together.

Time is organised as periods of K slots.  Within a period every slice holds a
fixed block of access RBs; its devices independently sense, plan and access
those RBs slot by slot.  At each period boundary the slice rates are
aggregated and (when enabled) the reallocation controller shifts RBs between
slices and the data pool.

Randomness is split into fixed-rate streams (occupancy, own gains, background
gains, sensing noise, baseline action draws), each consuming the same number
of draws per slot regardless of policy or allocation.  Runs with equal seeds
therefore share channel realisations across policy arms, which keeps paired
comparisons tight, and a repeated run reproduces its output exactly.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import controller as ctrl
from . import pomdp, slicing
from .channel import (BUSY, IDLE, CellTopology, RadioParams, RbMarkov,
                      Timebase, evolve_many, rate)
from .pomdp import ObservationModel, PomdpModel
from .slicing import VirtualNetwork

POLICY_MODES = ("pomdp", "random", "perfect")
SOLVER_MODES = ("auto", "exact", "grid", "myopic")
# each sweep axis and the document key it sets
SWEEP_AXES = {"rbs": "slices", "epsilon": "observation.epsilon", "beta": "policy.discount",
              "omega": "controller.omega", "mu": "controller.mu",
              "devices": "topology.devices"}


class ConfigError(ValueError):
    """Invalid scenario; `path` names the offending document key."""

    def __init__(self, path: str, message: str):
        super().__init__(path, message)
        self.path = path

    def __str__(self) -> str:
        path, message = self.args
        return f"{path}: {message}" if path else message


@dataclass(frozen=True)
class ScenarioConfig:
    topology: CellTopology
    timebase: Timebase
    slices: Tuple[VirtualNetwork, ...]
    radio: RadioParams
    markov: RbMarkov
    obs: ObservationModel
    discount: float
    controller: ctrl.ControllerParams
    controller_enabled: bool = True
    policy_mode: str = "pomdp"
    solver_mode: str = "auto"
    grid_points: int = 101
    sleep_sensing: bool = True
    hard_collision: bool = False
    force_equal_noise: bool = True
    seed: int = 1

    def __post_init__(self):
        object.__setattr__(self, "slices", tuple(self.slices))

    def validate(self) -> None:
        """The rules that span keys or sections; each refusal names its key."""
        if self.policy_mode not in POLICY_MODES:
            raise ConfigError("policy.mode", f"must be one of {', '.join(POLICY_MODES)}; "
                                             f"got {self.policy_mode!r}")
        if self.solver_mode not in SOLVER_MODES:
            raise ConfigError("policy.solver", f"must be one of {', '.join(SOLVER_MODES)}; "
                                               f"got {self.solver_mode!r}")
        if self.grid_points < 2:
            raise ConfigError("policy.grid_points", f"must be >= 2, got {self.grid_points}")
        if not 0.0 <= self.discount <= 1.0:
            raise ConfigError("policy.discount", f"must lie in [0, 1], got {self.discount}")
        if not self.slices:
            raise ConfigError("slices", "at least one slice is required")
        if sum(s.devices for s in self.slices) != self.topology.devices:
            raise ConfigError("slices", "slice device counts must sum to the cell total")
        if sum(s.access_rbs for s in self.slices) > self.topology.access_rbs:
            raise ConfigError("slices", "initial slice access RBs exceed the access pool")
        weights = [s.weight for s in self.slices]
        if any(a < b for a, b in zip(weights, weights[1:])):
            raise ConfigError("slices", "slice weights must be non-increasing")
        if self.force_equal_noise and self.obs.epsilon != self.obs.phi:
            raise ConfigError("observation.phi", "epsilon and phi differ; "
                                                 "set force_equal_noise false to allow that")


# One device-slot, named as slots.csv's columns but for reward, which repeats
# the rate.  action is 0 (sleep) or r >= 1 (the slice's r-th RB); a sleeper
# reads -1 in rb_global (pool index), rb_state and observation (its reading).
SLOT_RECORD = np.dtype([(name, np.int64) for name in (
    "period", "slot", "slice", "device", "action", "rb_global", "rb_state",
    "observation")] + [("rate", np.float64)])


@dataclass(frozen=True)
class PeriodRow:
    period: int
    slice_id: int
    obtained_rate: float
    filtered_rate: float
    xi: float
    xi_star: float
    gap: float
    delta_raw: float
    delta_applied: int
    access_rbs: int


@dataclass
class RunSummary:
    """One run's results.  mean_discounted_reward is the mean over periods of
    the device mean horizon total; slot_records is one SLOT_RECORD per
    device-slot (by period, slot, device) when slots are recorded, else None."""

    seed: int
    mean_discounted_reward: float
    final_max_abs_gap: float
    period_rows: List[PeriodRow]
    slot_records: Optional[np.ndarray] = None


def planning_rates(radio: RadioParams) -> Tuple[float, float]:
    """Mean-gain planning rates on an idle / busy RB (one busy-source interferer)."""
    idle = rate(radio.tx_power, 0.0, radio)
    busy = rate(radio.tx_power, radio.effective_busy_power, radio)
    return float(idle), float(busy)


class Simulation:
    """One seeded scenario run; use run() or step through run_period()."""

    def __init__(self, config: ScenarioConfig, record_slots: bool = False):
        config.validate()
        self.config = config
        self.record_slots = record_slots
        self.n_devices = config.topology.devices
        self.pool = config.topology.access_rbs
        self.n_slices = len(config.slices)

        seq = np.random.SeedSequence(config.seed)
        (self._state_rng, self._gain_rng, self._bg_rng,
         self._obs_rng, self._policy_rng) = map(np.random.default_rng, seq.spawn(5))

        self.device_slice = np.repeat(np.arange(self.n_slices),
                                      [s.devices for s in config.slices])
        self.allocation = [s.access_rbs for s in config.slices]
        self.weights = np.array([s.weight for s in config.slices], dtype=float)

        stationary = config.markov.stationary_idle()
        self.rb_states = np.where(
            self._state_rng.random(self.pool) < stationary, IDLE, BUSY)

        self.rate_idle, self.rate_busy = planning_rates(config.radio)

        self.filtered_rates: Optional[np.ndarray] = None
        self.prev_gap = np.zeros(self.n_slices)
        self.period_index = 0
        self.beliefs: Optional[np.ndarray] = None
        self._belief_offsets: Optional[np.ndarray] = None
        self._belief_widths: Optional[np.ndarray] = None
        self._belief_cols: Optional[np.ndarray] = None
        self._policies: Dict[int, object] = {}
        self._access: Optional[pomdp.SliceAccess] = None
        self._slice_sizes = np.array([s.devices for s in config.slices],
                                     dtype=float)[self.device_slice]
        # the busy-source power per RB, plus a silent bin that sleepers point at
        self._busy_power = np.zeros(self.pool + 1)
        # reused: a fresh (devices, pool) array per slot re-faults pages at scale
        self._obs_u = np.empty((self.n_devices, self.pool))

        self.period_rows: List[PeriodRow] = []
        self.period_mean_rewards: List[float] = []
        self._slot_blocks: List[np.ndarray] = []
        self._final_gap = np.zeros(self.n_slices)

    # -- policies and block layout ------------------------------------------

    def _policy(self, width: int):
        """The planning policy of a slice `width` RBs wide, solved once per run.

        Under solver auto, outside the myopic case, a model whose planners
        provably always access gets `pomdp.AccessPolicy` and no solve."""
        if width not in self._policies:
            model = PomdpModel(
                markov=self.config.markov, obs=self.config.obs,
                horizon=self.config.timebase.slots_per_period,
                discount=self.config.discount,
                rate_idle=np.full(width, self.rate_idle),
                rate_busy=np.full(width, self.rate_busy),
                sleep_sensing=self.config.sleep_sensing)
            if (self.config.solver_mode == "auto"
                    and not model.action_independent_observations()
                    and pomdp.access_certified(model)):
                self._policies[width] = pomdp.AccessPolicy(model)
            else:
                self._policies[width] = pomdp.solve(model, mode=self.config.solver_mode,
                                                    grid_points=self.config.grid_points)
        return self._policies[width]

    def _offsets(self) -> np.ndarray:
        return np.concatenate([[0], np.cumsum(self.allocation)[:-1]]).astype(int)

    # -- slot dynamics ------------------------------------------------------

    def run_slot(self, slot: int) -> Dict[str, np.ndarray]:
        """Advance occupancy, let every device act, return the slot outcome."""
        cfg = self.config
        n = self.n_devices

        # fixed-rate draws, consumed whether or not they end up used
        state_u = self._state_rng.random(self.pool)
        own_gain = self._gain_rng.standard_normal(n) ** 2
        bg_gain = self._bg_rng.standard_normal(self.pool) ** 2
        obs_u = self._obs_rng.random(out=self._obs_u)
        policy_u = self._policy_rng.random(n)

        self.rb_states = evolve_many(self.rb_states, cfg.markov, state_u)
        idle_now = (self.rb_states == IDLE)[self._belief_cols]   # each device's blocks
        predicted = pomdp.belief_propagate(self.beliefs, cfg.markov)

        actions = self._choose_actions(slot, policy_u, predicted, idle_now)

        accessing = actions > 0
        # sleepers point at the silent bin past the pool
        rb = np.where(accessing, self._belief_offsets + actions - 1, self.pool)
        own = cfg.radio.tx_power * own_gain
        heard = np.bincount(rb, weights=own, minlength=self.pool + 1)
        busy = self._busy_power
        np.multiply(self.rb_states == BUSY, cfg.radio.effective_busy_power * bg_gain,
                    out=busy[:self.pool])
        rates = rate(own, heard[rb] - own + busy[rb], cfg.radio)
        if cfg.hard_collision:
            accessing = accessing & (np.bincount(rb, minlength=self.pool + 1)[rb] == 1)
        rates = np.where(accessing, rates, 0.0)

        saw_idle = self._sense_and_update(actions, obs_u, predicted, idle_now)

        slice_rates = np.bincount(self.device_slice, weights=rates,
                                  minlength=self.n_slices)

        if self.record_slots:
            self._record(slot, actions, rb, rates, saw_idle)
        return {"rates": rates, "slice_rates": slice_rates, "actions": actions}

    def _choose_actions(self, slot: int, policy_u: np.ndarray,
                        predicted: np.ndarray, idle_now: np.ndarray) -> np.ndarray:
        cfg = self.config
        if cfg.policy_mode == "random":
            return (policy_u * self._belief_widths).astype(int) + 1
        if cfg.policy_mode == "perfect":
            # clairvoyant baseline: the slice access rule fed the slot's true
            # occupancy (idle probability 1 or 0) in place of predicted beliefs;
            # every device accesses.  Its shares maximise the rule's expected
            # slice rate with the occupancy known: a ceiling in expectation,
            # not for every draw
            return self._access.draw(idle_now, policy_u)
        # the planner decides sleep or access; the access rule picks the RB
        widest = self._policy(self.beliefs.shape[1])
        if widest.any_width:       # myopic or certified: the cheaper sign
            access = widest.accesses(self.beliefs, self._belief_mask, slot)
        else:
            access = np.empty(self.n_devices, dtype=bool)
            for width in set(self.allocation):
                rows = self._belief_widths == width
                access[rows] = self._policy(width).act_batch(
                    self.beliefs[rows, :width], self._belief_mask[rows, :width], slot) > 0
        return np.where(access, self._access.draw(predicted, policy_u), 0)

    def _sense_and_update(self, actions: np.ndarray, obs_u: np.ndarray,
                          predicted: np.ndarray, idle_now: np.ndarray) -> np.ndarray:
        """Per-device noisy readings of their slice's RBs, then Bayes step;
        returns where each device read idle."""
        obs = self.config.obs
        # readings flip with probability phi, the accessed RB's with epsilon
        u = obs_u[:, :self.beliefs.shape[1]]
        saw_idle = pomdp.reading(idle_now, u, obs.phi)
        if obs.epsilon != obs.phi:
            rows = np.flatnonzero(actions > 0)
            cols = actions[rows] - 1
            saw_idle[rows, cols] = pomdp.reading(idle_now[rows, cols], u[rows, cols],
                                                 obs.epsilon)
        self.beliefs = pomdp.bayes_update(predicted, actions, saw_idle, obs,
                                          self.config.sleep_sensing) * self._belief_mask
        return saw_idle

    def _record(self, slot, actions, rb, rates, saw_idle):
        """Append the slot's block of SLOT_RECORDs, one per device."""
        devices = np.arange(self.n_devices)
        block = np.empty(self.n_devices, dtype=SLOT_RECORD)
        block["period"] = self.period_index
        block["slot"] = slot
        block["slice"] = np.array([s.slice_id for s in self.config.slices])[self.device_slice]
        block["device"] = devices
        block["action"] = actions
        # sleepers point at the silent bin past the pool, which reads -1
        block["rb_global"] = np.append(np.arange(self.pool), -1)[rb]
        block["rb_state"] = np.append(self.rb_states, -1)[rb]
        heard = np.where(saw_idle[devices, actions - 1], IDLE, BUSY)
        block["observation"] = np.where(actions > 0, heard, -1)
        block["rate"] = rates
        self._slot_blocks.append(block)

    def _rebuild_beliefs(self) -> None:
        """Lay out per-device beliefs for the current allocation.

        Knowledge persists across periods: an RB that stays inside the
        device's slice block keeps its belief (tracked by pool index), RBs the
        slice just gained start at the stationary idle probability.
        """
        cfg = self.config
        width = max(self.allocation)
        stationary = cfg.markov.stationary_idle()
        r_l = np.array(self.allocation)[self.device_slice]
        offsets = self._offsets()[self.device_slice]
        self._belief_mask = np.arange(width)[None, :] < r_l[:, None]

        fresh = np.where(self._belief_mask, stationary, 0.0)
        if self.beliefs is not None:
            cols_global = offsets[:, None] + np.arange(width)[None, :]
            old_local = cols_global - self._belief_offsets[:, None]
            carried = (self._belief_mask
                       & (old_local >= 0)
                       & (old_local < self._belief_widths[:, None]))
            gather = np.take_along_axis(
                self.beliefs, np.clip(old_local, 0, self.beliefs.shape[1] - 1),
                axis=1)
            fresh = np.where(carried, gather, fresh)
        self.beliefs = fresh
        self._belief_offsets = offsets
        self._belief_widths = r_l
        # masked columns read a real RB's state, which the mask then discards
        self._belief_cols = np.minimum(offsets[:, None] + np.arange(width)[None, :],
                                       self.pool - 1)
        if cfg.policy_mode != "random":
            self._access = pomdp.SliceAccess(self._belief_mask, self._slice_sizes,
                                             cfg.radio)

    # -- period dynamics ----------------------------------------------------

    def run_period(self) -> List[PeriodRow]:
        cfg = self.config
        self.period_index += 1
        k_slots = cfg.timebase.slots_per_period

        self._rebuild_beliefs()

        slot_totals = np.zeros((k_slots, self.n_slices))
        device_rewards = np.zeros((self.n_devices, k_slots))
        for k in range(k_slots):
            out = self.run_slot(k)
            slot_totals[k] = out["slice_rates"]
            device_rewards[:, k] = out["rates"]

        horizon_totals = pomdp.total_discounted_reward(device_rewards, cfg.discount)
        self.period_mean_rewards.append(float(horizon_totals.mean()))

        obtained = np.array([slicing.period_average_rate(slot_totals[:, s], cfg.timebase)
                             for s in range(self.n_slices)])
        xi, xi_star, gap = slicing.ratios(obtained, self.weights)
        self._final_gap = gap

        raw = np.zeros(self.n_slices)
        applied = np.zeros(self.n_slices, dtype=int)
        if self.filtered_rates is None:
            # warm-up: seed the filter, leave the allocation alone
            self.filtered_rates = obtained.copy()
            self.prev_gap = np.zeros(self.n_slices)
        else:
            self.filtered_rates = ctrl.smooth(self.filtered_rates, obtained,
                                              cfg.controller.omega)
            if cfg.controller_enabled:
                q_sum = float(self.filtered_rates.sum())
                if q_sum > 0.0:
                    xi_f = self.filtered_rates / q_sum
                    gap_f = xi_star - xi_f
                    raw = ctrl.delta_rbs(gap_f, self.prev_gap, q_sum, cfg.controller)
                    new_alloc = ctrl.apply_allocation(self.allocation, raw,
                                                      cfg.topology)
                    applied = np.array(new_alloc) - np.array(self.allocation)
                    self.allocation = new_alloc
                    self.prev_gap = gap_f

        rows = [PeriodRow(
            period=self.period_index, slice_id=cfg.slices[s].slice_id,
            obtained_rate=float(obtained[s]),
            filtered_rate=float(self.filtered_rates[s]),
            xi=float(xi[s]), xi_star=float(xi_star[s]), gap=float(gap[s]),
            delta_raw=float(raw[s]), delta_applied=int(applied[s]),
            access_rbs=int(self.allocation[s])) for s in range(self.n_slices)]
        self.period_rows.extend(rows)
        return rows

    def run(self) -> RunSummary:
        for _ in range(self.config.timebase.periods):
            self.run_period()
        return RunSummary(
            seed=self.config.seed,
            mean_discounted_reward=float(np.mean(self.period_mean_rewards)),
            final_max_abs_gap=float(np.max(np.abs(self._final_gap))),
            period_rows=self.period_rows,
            slot_records=np.concatenate(self._slot_blocks) if self.record_slots else None)


def run_simulation(config: ScenarioConfig, record_slots: bool = False) -> RunSummary:
    return Simulation(config, record_slots=record_slots).run()


# ---------------------------------------------------------------------------
# parameter sweeps

@dataclass(frozen=True)
class SweepRow:
    axis: str
    axis_value: float
    seed: int
    config: ScenarioConfig   # the run's own scenario, axis value and seed applied
    summary: RunSummary


def with_axis_value(config: ScenarioConfig, axis: str, value) -> ScenarioConfig:
    """config with the sweep axis set to value.  A value its guard refuses
    raises ConfigError under the axis's document key, with the guard's message."""
    if axis not in SWEEP_AXES:
        raise ValueError(f"unknown sweep axis {axis!r}; valid axes: {', '.join(SWEEP_AXES)}")
    try:
        return _set_axis(config, axis, value)
    except ValueError as exc:
        raise ConfigError(SWEEP_AXES[axis], str(exc)) from exc


def _set_axis(config: ScenarioConfig, axis: str, value) -> ScenarioConfig:
    if axis == "rbs":
        budget = int(value)
        slices = tuple(dataclasses.replace(s, access_rbs=budget)
                       for s in config.slices)
        return dataclasses.replace(config, slices=slices)
    if axis == "epsilon":
        return dataclasses.replace(
            config, obs=ObservationModel(float(value), float(value)))
    if axis == "beta":
        return dataclasses.replace(config, discount=float(value))
    if axis == "omega":
        return dataclasses.replace(
            config, controller=ctrl.ControllerParams(float(value), config.controller.mu))
    if axis == "mu":
        return dataclasses.replace(
            config, controller=ctrl.ControllerParams(config.controller.omega, float(value)))
    if axis == "devices":
        total = int(value)
        if total < len(config.slices):
            raise ValueError("devices axis value must cover one device per slice")
        current = np.array([s.devices for s in config.slices], dtype=float)
        share = current * total / current.sum()
        counts = np.floor(share).astype(int)
        counts = np.maximum(counts, 1)
        order = np.argsort(-(share - counts), kind="stable")
        i = 0
        while counts.sum() < total:
            counts[order[i % len(order)]] += 1
            i += 1
        while counts.sum() > total:
            j = order[::-1][i % len(order)]
            if counts[j] > 1:
                counts[j] -= 1
            i += 1
        slices = tuple(dataclasses.replace(s, devices=int(c))
                       for s, c in zip(config.slices, counts))
        topo = dataclasses.replace(config.topology, devices=total)
        return dataclasses.replace(config, slices=slices, topology=topo)


def run_sweep(config: ScenarioConfig, axis: str, values: Sequence[float],
              seeds: Sequence[int], map_fn: Callable = map) -> List[SweepRow]:
    """Run the scenario across an axis with every seed; rows keyed (value, seed).

    map_fn runs the jobs in order; an executor's map spreads them over processes.
    """
    jobs = [(float(value),
             dataclasses.replace(with_axis_value(config, axis, value), seed=int(seed)))
            for value in values for seed in seeds]
    summaries = map_fn(run_simulation, [cfg for _, cfg in jobs])
    return [SweepRow(axis=axis, axis_value=value, seed=cfg.seed, config=cfg, summary=summary)
            for (value, cfg), summary in zip(jobs, summaries)]


def aggregate_sweep(rows: Sequence[SweepRow]) -> List[Tuple[float, float, float]]:
    """Per axis value: (value, mean reward, standard error over seeds)."""
    by_value: Dict[float, List[float]] = {}
    for row in rows:
        by_value.setdefault(row.axis_value, []).append(
            row.summary.mean_discounted_reward)
    out = []
    for value in sorted(by_value):
        vals = np.array(by_value[value])
        stderr = float(vals.std(ddof=1) / np.sqrt(len(vals))) if len(vals) > 1 else 0.0
        out.append((value, float(vals.mean()), stderr))
    return out
