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
        if self.solver_mode == "myopic":
            # the engine's per-RB rates are equal, so one RB stands for every width
            try:
                pomdp.MyopicPolicy(_planning_model(self, 1))
            except ValueError as exc:
                raise ConfigError("policy.solver", str(exc)) from None


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


# Takes (run index in the batch, that run's SLOT_RECORDs of one period, by
# slot then device).  The array is the engine's reused buffer: it is valid only
# during the call, so a sink that keeps records copies them.
SlotSink = Callable[[int, np.ndarray], None]


@dataclass
class RunSummary:
    """One run's results.  mean_discounted_reward is the mean over periods of
    the device mean horizon total."""

    seed: int
    mean_discounted_reward: float
    final_max_abs_gap: float
    period_rows: List[PeriodRow]


@dataclass
class BatchSummary:
    """A batch's results: runs[i] is the run of the batch's i-th config."""

    runs: List[RunSummary]

    @property
    def period_rows(self) -> List[PeriodRow]:
        """Every run's period rows, run after run."""
        return [row for run in self.runs for row in run.period_rows]


def planning_rates(radio: RadioParams) -> Tuple[float, float]:
    """Mean-gain planning rates on an idle / busy RB (one busy-source interferer)."""
    idle = rate(radio.tx_power, 0.0, radio)
    busy = rate(radio.tx_power, radio.effective_busy_power, radio)
    return float(idle), float(busy)


def _planning_model(config: ScenarioConfig, width: int) -> PomdpModel:
    """One device's planning model over a block `width` RBs wide."""
    idle, busy = planning_rates(config.radio)
    return PomdpModel(markov=config.markov, obs=config.obs,
                      horizon=config.timebase.slots_per_period, discount=config.discount,
                      rate_idle=np.full(width, idle), rate_busy=np.full(width, busy),
                      sleep_sensing=config.sleep_sensing)


# what the runs of a batch share: the slot loop's clock, the channel and the arm
BATCH_SHARED = ("timebase", "markov", "radio", "policy_mode", "sleep_sensing",
                "hard_collision")
# bytes of the RB-step, gain and policy draws made at a time: a period of
# them for small batches, a slot at a time at 5000 devices
_DRAW_BYTES = 1 << 17


def _fill(draw, out: np.ndarray) -> None:
    """Fill out with a generator's next values in C order; in place where out
    is contiguous."""
    if out.flags.c_contiguous:
        draw(out=out)
    else:
        out[...] = draw(out.shape)


def _per_row(values: Sequence[float], rows: Sequence[int]):
    """values[i] for the rows[i] rows of run i: a float when all are equal,
    else an (N, 1) column."""
    if all(v == values[0] for v in values):
        return float(values[0])
    return np.repeat(values, rows)[:, None]


class _Run:
    """One run of a batch: its rows, RBs and slices in the batch, its random
    streams, and its own controller and policy state."""

    def __init__(self, config: ScenarioConfig, rows: slice, rbs: slice, slices: slice):
        self.config, self.rows, self.rbs, self.slices = config, rows, rbs, slices
        seq = np.random.SeedSequence(config.seed)
        self.streams = tuple(map(np.random.default_rng, seq.spawn(5)))
        self.weights = np.array([s.weight for s in config.slices], dtype=float)
        self.policies: Dict[int, object] = {}
        self.sensing: Optional[np.ndarray] = None     # its rows of the sensing draws
        self.width = 0                          # its widest block this period
        self.filtered_rates: Optional[np.ndarray] = None
        self.prev_gap = np.zeros(len(config.slices))
        self.final_gap = np.zeros(len(config.slices))
        self.period_rows: List[PeriodRow] = []
        self.period_mean_rewards: List[float] = []


class Simulation:
    """A batch of seeded scenario runs stepped through one slot loop; use
    run() or step through run_period().

    The runs' device rows are stacked, run after run, and so are their RB
    pools and their slices; the beliefs are padded to the widest block of
    the batch and `_belief_mask` masks the padding out.  Each run keeps its
    own random streams, allocation, controller state, policies and access-rule
    tables.  Elementwise steps, bincounts over the stacked bins and sums down
    a device's beliefs give each row the bits it gets in a run of its own; a
    matrix product's sums depend on the operand's shape, so every one runs
    once per run on the run's own rows.  Row i of a batch is therefore
    `run_simulation(configs[i])` bit for bit.  The runs must share
    BATCH_SHARED.
    """

    def __init__(self, configs: Sequence[ScenarioConfig],
                 slot_sink: Optional[SlotSink] = None):
        configs = list(configs)
        if not configs:
            raise ValueError("a batch needs at least one run")
        for cfg in configs:
            cfg.validate()
        for cfg in configs[1:]:
            for name in BATCH_SHARED:
                if getattr(cfg, name) != getattr(configs[0], name):
                    raise ValueError(f"the runs of a batch must share {name}")
        self._slot_sink = slot_sink
        self._shared = configs[0]      # read for BATCH_SHARED fields only

        self.runs: List[_Run] = []
        n = pool = n_slices = 0
        for cfg in configs:
            rows = slice(n, n + cfg.topology.devices)
            rbs = slice(pool, pool + cfg.topology.access_rbs)
            slices = slice(n_slices, n_slices + len(cfg.slices))
            self.runs.append(_Run(cfg, rows, rbs, slices))
            n, pool, n_slices = rows.stop, rbs.stop, slices.stop
        self.n_devices, self.pool, self.n_slices = n, pool, n_slices

        slices = [s for cfg in configs for s in cfg.slices]     # by (run, slice)
        slice_devices = np.array([s.devices for s in slices])
        run_slices = [len(cfg.slices) for cfg in configs]
        run_devices = [cfg.topology.devices for cfg in configs]
        self.device_slice = np.repeat(np.arange(n_slices), slice_devices)
        self.allocation = [s.access_rbs for s in slices]
        self._slice_sizes = slice_devices.astype(float)[self.device_slice]
        # each slice's run: its first slice and its first RB; each row's last RB
        self._run_first_slice = np.repeat([r.slices.start for r in self.runs], run_slices)
        self._run_first_rb = np.repeat([r.rbs.start for r in self.runs], run_slices)
        self._last_rb = np.repeat([r.rbs.stop - 1 for r in self.runs], run_devices)
        # the flip rates, raw and trusted: one float when the runs share it,
        # else a column of one per row (broadcasting a column costs time at scale)
        obs = [cfg.obs for cfg in configs]
        self._epsilon = _per_row([o.epsilon for o in obs], run_devices)
        self._phi = _per_row([o.phi for o in obs], run_devices)
        self._trust_eps = _per_row([o.trusted_epsilon for o in obs], run_devices)
        self._trust_phi = _per_row([o.trusted_phi for o in obs], run_devices)
        self._unequal_noise = any(o.epsilon != o.phi for o in obs)
        self._row_bounds = [r.rows.start for r in self.runs] + [n]

        stationary = self._shared.markov.stationary_idle()
        self.rb_states = np.concatenate([
            np.where(r.streams[0].random(r.config.topology.access_rbs) < stationary,
                     IDLE, BUSY) for r in self.runs])

        self.period_index = 0
        self.beliefs: Optional[np.ndarray] = None
        self._belief_offsets: Optional[np.ndarray] = None
        self._belief_widths: Optional[np.ndarray] = None
        self._belief_cols: Optional[np.ndarray] = None
        self._access: Optional[pomdp.SliceAccess] = None
        # the busy-source power per RB, plus a silent bin that sleepers point at
        self._busy_power = np.zeros(self.pool + 1)
        self._block_slots = max(1, min(_DRAW_BYTES // (8 * (2 * self.pool + 2 * n)),
                                       self._shared.timebase.slots_per_period))
        self._draws: Tuple[np.ndarray, ...] = ()
        # reused: a fresh (devices, pool) array per slot re-faults pages at scale
        self._obs_u = np.empty((n, max(cfg.topology.access_rbs for cfg in configs)))
        for run in self.runs:
            run.sensing = self._obs_u[run.rows, :run.config.topology.access_rbs]
        if slot_sink is not None:
            # one period's slot records, by slot and device row, refilled each
            # period; the slot, slice and device columns never change.  The
            # pool index reads -1 in the silent bin that sleepers point at
            k_slots = self._shared.timebase.slots_per_period
            self._records = np.empty((k_slots, n), dtype=SLOT_RECORD)
            self._records["slot"] = np.arange(k_slots)[:, None]
            self._records["slice"] = np.array([s.slice_id for s in slices])[self.device_slice]
            self._rows = np.arange(n)
            self._records["device"] = self._rows - np.repeat(self._row_bounds[:-1], run_devices)
            self._rb_global = np.concatenate(
                [np.arange(c.topology.access_rbs) for c in configs] + [[-1]])

    # -- policies and block layout ------------------------------------------

    def _policy(self, run: _Run, width: int):
        """The planning policy of a slice `width` RBs wide, solved once per run.

        Under solver auto, outside the myopic case, a model whose planners
        provably always access gets the greedy rule, whose sign is then
        theirs, and no solve."""
        if width not in run.policies:
            cfg = run.config
            model = _planning_model(cfg, width)
            if (cfg.solver_mode == "auto"
                    and not model.action_independent_observations()
                    and pomdp.access_certified(model)):
                run.policies[width] = pomdp.MyopicPolicy(model)
            else:
                run.policies[width] = pomdp.solve(model, mode=cfg.solver_mode,
                                                  grid_points=cfg.grid_points)
        return run.policies[width]

    # -- slot dynamics ------------------------------------------------------

    def _slot_draws(self, slot: int) -> Tuple[np.ndarray, ...]:
        """The slot's fixed-rate draws of every run, stacked: RB steps, own
        gains, background gains, sensing and policy uniforms.  The sensing
        uniforms, devices x pool of them, are drawn a slot at a time into one
        reused array; the other streams `_block_slots` slots at a time, which
        gives the same values as one slot at a time."""
        j = slot % self._block_slots
        if j == 0:
            slots = min(self._block_slots, self._shared.timebase.slots_per_period - slot)
            n, pool = self.n_devices, self.pool
            self._draws = (np.empty((slots, pool)), np.empty((slots, n)),
                           np.empty((slots, pool)), np.empty((slots, n)))
            for run in self.runs:
                state, gain, bg, _, policy = run.streams
                parts = (self._draws[0][:, run.rbs], self._draws[1][:, run.rows],
                         self._draws[2][:, run.rbs], self._draws[3][:, run.rows])
                for draw, part in zip((state.random, gain.standard_normal,
                                       bg.standard_normal, policy.random), parts):
                    _fill(draw, part)
        for run in self.runs:
            _fill(run.streams[3].random, run.sensing)
        state_u, own_gain, bg_gain, policy_u = self._draws
        return state_u[j], own_gain[j], bg_gain[j], self._obs_u, policy_u[j]

    def run_slot(self, slot: int) -> Dict[str, np.ndarray]:
        """Advance occupancy, let every device act, return the slot outcome."""
        radio = self._shared.radio
        # fixed-rate draws, consumed whether or not they end up used
        state_u, own_gain, bg_gain, obs_u, policy_u = self._slot_draws(slot)

        self.rb_states = evolve_many(self.rb_states, self._shared.markov, state_u)
        idle_now = (self.rb_states == IDLE)[self._belief_cols]   # each device's blocks
        predicted = pomdp.belief_propagate(self.beliefs, self._shared.markov)

        actions = self._choose_actions(slot, policy_u, predicted, idle_now)

        accessing = actions > 0
        # sleepers point at the silent bin past the pool
        rb = np.where(accessing, self._belief_offsets + actions - 1, self.pool)
        own = radio.tx_power * own_gain ** 2
        heard = np.bincount(rb, weights=own, minlength=self.pool + 1)
        busy = self._busy_power
        np.multiply(self.rb_states == BUSY, radio.effective_busy_power * bg_gain ** 2,
                    out=busy[:self.pool])
        rates = rate(own, heard[rb] - own + busy[rb], radio)
        if self._shared.hard_collision:
            accessing = accessing & (np.bincount(rb, minlength=self.pool + 1)[rb] == 1)
        rates = np.where(accessing, rates, 0.0)

        saw_idle = self._sense_and_update(actions, obs_u, predicted, idle_now)

        slice_rates = np.bincount(self.device_slice, weights=rates,
                                  minlength=self.n_slices)

        if self._slot_sink is not None:
            self._record(slot, actions, rb, rates, saw_idle)
        return {"rates": rates, "slice_rates": slice_rates, "actions": actions}

    def _choose_actions(self, slot: int, policy_u: np.ndarray,
                        predicted: np.ndarray, idle_now: np.ndarray) -> np.ndarray:
        if self._shared.policy_mode == "random":
            return (policy_u * self._belief_widths).astype(int) + 1
        if self._shared.policy_mode == "perfect":
            # clairvoyant baseline: the slice access rule fed the slot's true
            # occupancy (idle probability 1 or 0) in place of predicted beliefs;
            # every device accesses.  Its shares maximise the rule's expected
            # slice rate with the occupancy known: a ceiling in expectation,
            # not for every draw
            return self._access.draw(idle_now, policy_u)
        # each run's planner decides sleep or access; the access rule picks the RB
        access = None
        for run in self.runs:
            widest = self._policy(run, run.width)
            if isinstance(widest, pomdp.MyopicPolicy) and widest.all_access(slot):
                continue
            if access is None:
                access = np.ones(self.n_devices, dtype=bool)
            beliefs = self.beliefs[run.rows, :run.width]
            valid = self._belief_mask[run.rows, :run.width]
            if isinstance(widest, pomdp.MyopicPolicy):    # any width, the cheaper sign
                access[run.rows] = widest.accesses(beliefs, valid, slot)
                continue
            mine, widths = access[run.rows], self._belief_widths[run.rows]
            for width in set(self.allocation[run.slices]):
                rows = widths == width
                mine[rows] = self._policy(run, width).act_batch(
                    beliefs[rows, :width], valid[rows, :width], slot) > 0
        actions = self._access.draw(predicted, policy_u)
        return actions if access is None else np.where(access, actions, 0)

    def _sense_and_update(self, actions: np.ndarray, obs_u: np.ndarray,
                          predicted: np.ndarray, idle_now: np.ndarray) -> np.ndarray:
        """Per-device noisy readings of their slice's RBs, then Bayes step;
        returns where each device read idle."""
        # readings flip with probability phi, the accessed RB's with epsilon
        u = obs_u[:, :self.beliefs.shape[1]]
        saw_idle = pomdp.reading(idle_now, u, self._phi)
        if self._unequal_noise:
            rows = np.flatnonzero(actions > 0)
            cols = actions[rows] - 1
            epsilon = (self._epsilon[rows, 0] if isinstance(self._epsilon, np.ndarray)
                       else self._epsilon)
            saw_idle[rows, cols] = pomdp.reading(idle_now[rows, cols], u[rows, cols], epsilon)
        self.beliefs = pomdp.bayes_update(
            predicted, actions, saw_idle, self._trust_eps, self._trust_phi,
            self._shared.sleep_sensing) * self._belief_mask
        return saw_idle

    def _record(self, slot, actions, rb, rates, saw_idle):
        """Fill the slot's row of the period's records, one per device row."""
        block = self._records[slot]
        block["period"] = self.period_index
        block["action"] = actions
        # sleepers point at the silent bin past the pool, which reads -1
        block["rb_global"] = self._rb_global[rb]
        block["rb_state"] = np.append(self.rb_states, -1)[rb]
        heard = np.where(saw_idle[self._rows, actions - 1], IDLE, BUSY)
        block["observation"] = np.where(actions > 0, heard, -1)
        block["rate"] = rates

    def _rebuild_beliefs(self) -> None:
        """Lay out per-device beliefs for the current allocation.

        Knowledge persists across periods: an RB that stays inside the
        device's slice block keeps its belief (tracked by pool index), RBs the
        slice just gained start at the stationary idle probability.
        """
        allocation = np.array(self.allocation)
        width = allocation.max()
        stationary = self._shared.markov.stationary_idle()
        # each block's first RB: past the blocks before it in its run's pool
        starts = np.cumsum(allocation) - allocation
        starts += self._run_first_rb - starts[self._run_first_slice]
        offsets = starts[self.device_slice]
        r_l = allocation[self.device_slice]
        self._belief_mask = np.arange(width)[None, :] < r_l[:, None]
        for run in self.runs:
            run.width = max(self.allocation[run.slices])

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
        # masked columns read a real RB of the run's pool, which the mask then
        # discards
        self._belief_cols = np.minimum(offsets[:, None] + np.arange(width)[None, :],
                                       self._last_rb[:, None])
        if self._shared.policy_mode != "random":
            self._access = pomdp.SliceAccess(self._belief_mask, self._slice_sizes,
                                             self._shared.radio, self._row_bounds)

    # -- period dynamics ----------------------------------------------------

    def run_period(self) -> List[PeriodRow]:
        """One period of every run; returns their rows, run after run."""
        self.period_index += 1
        k_slots = self._shared.timebase.slots_per_period

        self._rebuild_beliefs()

        slot_totals = np.zeros((k_slots, self.n_slices))
        device_rewards = np.zeros((self.n_devices, k_slots))
        for k in range(k_slots):
            out = self.run_slot(k)
            slot_totals[k] = out["slice_rates"]
            device_rewards[:, k] = out["rates"]
        return [row for run in self.runs
                for row in self._close_period(run, slot_totals[:, run.slices],
                                              device_rewards[run.rows])]

    def _close_period(self, run: _Run, slot_totals: np.ndarray,
                      device_rewards: np.ndarray) -> List[PeriodRow]:
        """One run's period accounting and controller step."""
        cfg = run.config
        n_slices = len(cfg.slices)
        horizon_totals = pomdp.total_discounted_reward(device_rewards, cfg.discount)
        run.period_mean_rewards.append(float(horizon_totals.mean()))

        obtained = np.array([slicing.period_average_rate(slot_totals[:, s], cfg.timebase)
                             for s in range(n_slices)])
        xi, xi_star, gap = slicing.ratios(obtained, run.weights)
        run.final_gap = gap

        allocation = self.allocation[run.slices]
        raw = np.zeros(n_slices)
        applied = np.zeros(n_slices, dtype=int)
        if run.filtered_rates is None:
            # warm-up: seed the filter, leave the allocation alone
            run.filtered_rates = obtained.copy()
            run.prev_gap = np.zeros(n_slices)
        else:
            run.filtered_rates = ctrl.smooth(run.filtered_rates, obtained,
                                             cfg.controller.omega)
            if cfg.controller_enabled:
                q_sum = float(run.filtered_rates.sum())
                if q_sum > 0.0:
                    xi_f = run.filtered_rates / q_sum
                    gap_f = xi_star - xi_f
                    raw = ctrl.delta_rbs(gap_f, run.prev_gap, q_sum, cfg.controller)
                    new_alloc = ctrl.apply_allocation(allocation, raw, cfg.topology)
                    applied = np.array(new_alloc) - np.array(allocation)
                    allocation = self.allocation[run.slices] = new_alloc
                    run.prev_gap = gap_f

        rows = [PeriodRow(
            period=self.period_index, slice_id=cfg.slices[s].slice_id,
            obtained_rate=float(obtained[s]),
            filtered_rate=float(run.filtered_rates[s]),
            xi=float(xi[s]), xi_star=float(xi_star[s]), gap=float(gap[s]),
            delta_raw=float(raw[s]), delta_applied=int(applied[s]),
            access_rbs=int(allocation[s])) for s in range(n_slices)]
        run.period_rows.extend(rows)
        return rows

    def run(self) -> BatchSummary:
        """Every period of every run; after each period, the slot sink, if
        any, gets each run's records of it, run after run."""
        for _ in range(self._shared.timebase.periods):
            self.run_period()
            if self._slot_sink is not None:
                for i, run in enumerate(self.runs):
                    self._slot_sink(i, self._records[:, run.rows].reshape(-1))
        return BatchSummary([RunSummary(
            seed=run.config.seed,
            mean_discounted_reward=float(np.mean(run.period_mean_rewards)),
            final_max_abs_gap=float(np.max(np.abs(run.final_gap))),
            period_rows=run.period_rows)
            for run in self.runs])


def run_simulation(config: ScenarioConfig,
                   slot_sink: Optional[SlotSink] = None) -> RunSummary:
    """One run: the batch of one."""
    return Simulation([config], slot_sink=slot_sink).run().runs[0]


def run_batch(configs: Sequence[ScenarioConfig],
              slot_sink: Optional[SlotSink] = None) -> List[RunSummary]:
    """Runs that share BATCH_SHARED, through one slot loop; each equals its
    run_simulation bit for bit."""
    return Simulation(configs, slot_sink=slot_sink).run().runs


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
              seeds: Sequence[int], map_fn: Callable = map,
              batches: int = 1) -> List[SweepRow]:
    """Run the scenario across an axis with every seed; rows keyed (value, seed).

    The jobs, in row order, are cut into `batches` contiguous batches of
    near-equal size, each run by run_batch; map_fn maps run_batch over the
    batches in order, and an executor's map spreads them over processes.
    """
    jobs = [(float(value),
             dataclasses.replace(with_axis_value(config, axis, value), seed=int(seed)))
            for value in values for seed in seeds]
    configs = [cfg for _, cfg in jobs]
    count = min(batches, len(configs))
    cuts = [len(configs) * i // count for i in range(count + 1)]
    parts = [configs[lo:hi] for lo, hi in zip(cuts[:-1], cuts[1:])]
    summaries = [summary for part in map_fn(run_batch, parts) for summary in part]
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
