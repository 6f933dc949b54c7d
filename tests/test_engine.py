import dataclasses
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from conftest import (EXACT_SOLVER, PINNED_MARKOV, paired, recorded_batch, recorded_run,
                      small_radio, tiny_config, unscreened)
from m2msim import engine, pomdp
from m2msim.channel import BUSY, IDLE, CellTopology, RbMarkov, Timebase
from m2msim.config import ConfigError, load_config
from m2msim.controller import ControllerParams
from m2msim.engine import (POLICY_MODES, SLOT_RECORD, SWEEP_AXES, ScenarioConfig,
                           Simulation, aggregate_sweep, planning_rates, run_batch,
                           run_simulation, run_sweep, with_axis_value)
from m2msim.pomdp import ObservationModel
from m2msim.slicing import VirtualNetwork


def test_planning_rates_formula():
    radio = small_radio(noise=0.02)
    idle, busy = planning_rates(radio)
    assert idle == pytest.approx(1.8e5 * np.log2(1 + 0.1 / 0.02), rel=1e-12)
    assert busy == pytest.approx(1.8e5 * np.log2(1 + 0.1 / 0.12), rel=1e-12)
    loud = small_radio(noise=0.02, busy=0.5)
    assert planning_rates(loud)[1] == pytest.approx(
        1.8e5 * np.log2(1 + 0.1 / 0.52), rel=1e-12)


def test_uninformative_sensing_draws_the_random_arms_rbs():
    """At flip rate 0.5 every belief stays equal, so the access rule is uniform
    and each device accesses the RB the random arm draws from its uniform."""
    cfg = tiny_config(
        topology=CellTopology(total_rbs=5, access_rbs=5, data_rbs=0, devices=7),
        slices=(VirtualNetwork(slice_id=1, devices=5, access_rbs=3,
                               data_rbs=0, weight=2.0),
                VirtualNetwork(slice_id=2, devices=2, access_rbs=2,
                               data_rbs=0, weight=1.0)),
        obs=ObservationModel.symmetric(0.5), controller_enabled=True, seed=12)
    _, informed = recorded_run(cfg)
    _, blind = recorded_run(paired(cfg, policy_mode="random"))
    assert np.array_equal(informed["action"], blind["action"])


@pytest.mark.parametrize("seed", [3, 12])
def test_uninformative_sensing_draws_the_random_arms_rbs_on_a_drifting_chain(seed):
    """On a chain whose stationary point is a two-value roundoff orbit, one-
    device slices (whose access rule turns a unit of roundoff into a share
    move of 1e-4) and a reallocation after an odd slot count, which puts a
    carried and a fresh RB of one block a unit of roundoff apart.  At flip
    rate 0.6 each device still accesses the RB the random arm draws."""
    cfg = tiny_config(
        topology=CellTopology(total_rbs=6, access_rbs=6, data_rbs=0, devices=3),
        slices=tuple(VirtualNetwork(slice_id=i, devices=1, access_rbs=2, data_rbs=0,
                                    weight=weight)
                     for i, weight in enumerate((3.0, 1.5, 1.0), 1)),
        timebase=Timebase(slot_duration=1e-3, slots_per_period=7, periods=10),
        markov=RbMarkov(0.7, 0.3, 0.95, 0.05), obs=ObservationModel.symmetric(0.6),
        controller=ControllerParams(omega=0.8, mu=3e5), controller_enabled=True,
        seed=seed)
    summary, informed = recorded_run(cfg)
    assert any(row.delta_applied != 0 for row in summary.period_rows)
    _, blind = recorded_run(paired(cfg, policy_mode="random"))
    assert np.array_equal(informed["action"], blind["action"])


def _one_rb_slot(devices, **overrides):
    """Run one slot of `devices` random-arm devices on one RB; return the slot
    records, one per device in device order, and each device's SINR rate
    recomputed by hand from the run's own random streams."""
    cfg = tiny_config(
        topology=CellTopology(total_rbs=1, access_rbs=1, data_rbs=0, devices=devices),
        slices=(VirtualNetwork(slice_id=1, devices=devices, access_rbs=1,
                               data_rbs=0, weight=1.0),),
        timebase=Timebase(slot_duration=1e-3, slots_per_period=1, periods=1),
        policy_mode="random", discount=1.0, seed=42, **overrides)
    _, records = recorded_run(cfg)

    seq = np.random.SeedSequence(42).spawn(5)
    state_rng, gain_rng, bg_rng = map(np.random.default_rng, seq[:3])
    start = np.where(state_rng.random(1) < PINNED_MARKOV.stationary_idle(),
                     IDLE, BUSY)
    state_u = state_rng.random(1)
    own = gain_rng.standard_normal(devices) ** 2
    bg = bg_rng.standard_normal(1) ** 2
    p_idle = PINNED_MARKOV.p_idle_idle if start[0] == IDLE else PINNED_MARKOV.p_busy_idle
    state = IDLE if state_u[0] < p_idle else BUSY

    p, noise = cfg.radio.tx_power, cfg.radio.noise_power
    extra = p * bg[0] if state == BUSY else 0.0
    expected = [
        cfg.radio.bandwidth_per_rb
        * np.log2(1 + p * own[i] / (p * (own.sum() - own[i]) + extra + noise))
        for i in range(devices)]
    assert np.array_equal(records["device"], np.arange(devices))
    assert np.all(records["action"] == 1) and np.all(records["rb_state"] == state)
    return records, expected


def test_two_devices_interfere_on_shared_rb():
    records, expected = _one_rb_slot(2)
    for i in range(2):
        assert records["rate"][i] == pytest.approx(expected[i], rel=1e-12)


def test_hard_collision_zeroes_shared_rbs_only():
    """With hard_collision, two accessors of one RB both earn nothing, while
    a lone accessor keeps its SINR rate."""
    shared, _ = _one_rb_slot(2, hard_collision=True)
    assert np.all(shared["rate"] == 0.0)
    alone, expected = _one_rb_slot(1, hard_collision=True)
    assert alone["rate"][0] == pytest.approx(expected[0], rel=1e-12)
    assert alone["rate"][0] > 0.0


def test_single_rb_budget_admits_no_choice():
    cfg = tiny_config(
        topology=CellTopology(total_rbs=1, access_rbs=1, data_rbs=0, devices=3),
        slices=(VirtualNetwork(slice_id=1, devices=3, access_rbs=1,
                               data_rbs=0, weight=1.0),),
        seed=9)
    informed = run_simulation(cfg)
    blind = run_simulation(paired(cfg, policy_mode="random"))
    assert informed.mean_discounted_reward == blind.mean_discounted_reward


def test_repeated_runs_are_identical():
    cfg = tiny_config(controller_enabled=True, seed=5)
    (a, a_records), (b, b_records) = recorded_run(cfg), recorded_run(cfg)
    assert a.period_rows == b.period_rows
    assert np.array_equal(a_records, b_records)
    assert a.mean_discounted_reward == b.mean_discounted_reward


def test_the_sink_gets_each_period_of_each_run():
    """One call per period and run, with that run's SLOT_RECORDs of the
    period, by slot and device; here the runs differ in device count."""
    four = tiny_config(
        topology=CellTopology(total_rbs=2, access_rbs=2, data_rbs=0, devices=4),
        slices=(VirtualNetwork(slice_id=1, devices=4, access_rbs=2,
                               data_rbs=0, weight=1.0),),
        seed=6)
    configs = [tiny_config(seed=5), four]
    calls = []

    def sink(i, records):
        calls.append((i, records.dtype, records.shape, records["period"].tolist(),
                      records["slot"].tolist(), records["device"].tolist()))

    run_batch(configs, slot_sink=sink)
    tb = configs[0].timebase
    want = []
    for period in range(1, tb.periods + 1):
        for i, cfg in enumerate(configs):
            n = cfg.topology.devices
            want.append((i, SLOT_RECORD, (tb.slots_per_period * n,),
                         [period] * (tb.slots_per_period * n),
                         np.repeat(np.arange(tb.slots_per_period), n).tolist(),
                         list(range(n)) * tb.slots_per_period))
    assert calls == want


def test_a_recorded_runs_heap_does_not_grow_with_its_periods():
    """With a sink that keeps nothing, a run holds one period of records at
    most: its traced peak at 8 periods is its peak at 2 plus 256 KB at most.
    The controller is off, so every period lays out the same arrays (with it
    on, period 3's wider block raises any longer run's peak by 0.7 MB)."""
    base = load_config("five-slice", ["topology.devices=500", "slices.0.devices=400",
                                      *(f"slices.{i}.devices=25" for i in range(1, 5)),
                                      "controller_enabled=false"])

    def peak(periods):
        cfg = paired(base, timebase=dataclasses.replace(base.timebase, periods=periods))
        tracemalloc.start()
        try:
            run_simulation(cfg, slot_sink=lambda i, records: None)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(8)     # fill the caches that outlive a run, such as the start terms
    assert peak(8) <= peak(2) + 256 * 1024


def test_policy_arms_share_channel_randomness():
    cfg = tiny_config(seed=3)
    sims = [Simulation([paired(cfg, policy_mode=mode)])
            for mode in ("pomdp", "random", "perfect")]
    for _ in range(2):
        for sim in sims:
            sim.run_period()
        for sim in sims[1:]:
            assert np.array_equal(sims[0].rb_states, sim.rb_states)


def test_share_errors_cancel_and_pools_conserve():
    cfg = tiny_config(
        topology=CellTopology(total_rbs=6, access_rbs=4, data_rbs=2, devices=6),
        slices=(VirtualNetwork(slice_id=1, devices=4, access_rbs=2,
                               data_rbs=0, weight=2.0),
                VirtualNetwork(slice_id=2, devices=2, access_rbs=2,
                               data_rbs=0, weight=1.0)),
        timebase=Timebase(slot_duration=1e-3, slots_per_period=5, periods=6),
        controller_enabled=True, seed=2)
    summary = run_simulation(cfg)
    assert cfg.topology.access_rbs + cfg.topology.data_rbs == cfg.topology.total_rbs
    by_period = {}
    for row in summary.period_rows:
        by_period.setdefault(row.period, []).append(row)
    for rows in by_period.values():
        assert abs(sum(r.gap for r in rows)) < 1e-12
        total = sum(r.access_rbs for r in rows)
        assert total <= cfg.topology.access_rbs
        assert all(r.access_rbs >= 1 for r in rows)


def test_warmup_period_only_seeds_the_filter():
    cfg = tiny_config(controller_enabled=True, seed=4)
    summary = run_simulation(cfg)
    first = [r for r in summary.period_rows if r.period == 1]
    for row in first:
        assert row.delta_applied == 0
        assert row.delta_raw == 0.0
        assert row.filtered_rate == row.obtained_rate


def test_disabled_controller_freezes_allocation():
    cfg = tiny_config(
        topology=CellTopology(total_rbs=4, access_rbs=4, data_rbs=0, devices=6),
        slices=(VirtualNetwork(slice_id=1, devices=4, access_rbs=2,
                               data_rbs=0, weight=2.0),
                VirtualNetwork(slice_id=2, devices=2, access_rbs=2,
                               data_rbs=0, weight=1.0)),
        timebase=Timebase(slot_duration=1e-3, slots_per_period=4, periods=5),
        controller_enabled=False, seed=6)
    summary = run_simulation(cfg)
    for row in summary.period_rows:
        assert row.access_rbs == 2
        assert row.delta_applied == 0


def test_greedy_fast_path_matches_exact_planner():
    cfg = tiny_config(seed=11, solver_mode="auto")
    slow = paired(cfg, solver_mode="exact")
    fast_summary, fast_records = recorded_run(cfg)
    slow_summary, slow_records = recorded_run(slow)
    fields = ["period", "slot", "device", "action"]
    assert np.array_equal(fast_records[fields], slow_records[fields])
    assert fast_summary.mean_discounted_reward == slow_summary.mean_discounted_reward


@pytest.mark.parametrize("solver_mode", ["grid", "auto"])
def test_each_slice_width_is_solved_once_per_run(solver_mode, monkeypatch):
    cfg = tiny_config(
        topology=CellTopology(total_rbs=6, access_rbs=4, data_rbs=2, devices=6),
        slices=(VirtualNetwork(slice_id=1, devices=4, access_rbs=2,
                               data_rbs=0, weight=2.0),
                VirtualNetwork(slice_id=2, devices=2, access_rbs=2,
                               data_rbs=0, weight=1.0)),
        timebase=Timebase(slot_duration=1e-3, slots_per_period=5, periods=6),
        controller_enabled=True, solver_mode=solver_mode, grid_points=5, seed=2)
    solved = _count_solves(monkeypatch)
    summary = run_simulation(cfg)
    widths = {row.access_rbs for row in summary.period_rows}
    assert len(widths) > 1  # the controller moved RBs, so widths changed
    assert set(solved.values()) == {1}
    solved_widths = {width for width, _ in solved}
    if solver_mode == "grid":
        assert solved_widths == widths     # one planner per width in use
    else:
        # the widest greedy rule's all-access skip leaves the others unasked
        assert solved_widths <= widths


def _count_solves(monkeypatch) -> Counter:
    """Count `pomdp.solve` calls by (RB count, returned policy's mode) from here on."""
    solved = Counter()
    real_solve = pomdp.solve

    def counting_solve(model, **kwargs):
        policy = real_solve(model, **kwargs)
        solved[model.n_rbs, policy.mode] += 1
        return policy

    monkeypatch.setattr(pomdp, "solve", counting_solve)
    return solved


def test_certified_auto_run_solves_nothing_and_matches_exact(monkeypatch):
    """With eps != phi the planners provably always access here, so solver
    auto returns the greedy rule, solves no planner, and its run equals the
    exact planner's."""
    cfg = tiny_config(obs=ObservationModel(0.1, 0.3), force_equal_noise=False,
                      timebase=Timebase(slot_duration=1e-3, slots_per_period=4,
                                        periods=3), seed=11)
    solved = _count_solves(monkeypatch)
    auto, auto_records = recorded_run(cfg)
    assert {mode for _, mode in solved} == {"myopic"}
    solved.clear()
    exact, exact_records = recorded_run(paired(cfg, solver_mode="exact"))
    assert solved == {(2, "exact"): 1}
    assert auto.period_rows == exact.period_rows
    assert np.array_equal(auto_records, exact_records)


@pytest.mark.parametrize("mode", ["random", "perfect"])
def test_baseline_arms_never_solve(mode, monkeypatch):
    """Where access is not certified the informed arm solves its planners;
    the baselines always access and solve nothing."""
    cfg = load_config("two-slice", EXACT_SOLVER + ("policy.discount=0.5",
                                                   f"policy.mode={mode}"))
    solved = _count_solves(monkeypatch)
    run_simulation(cfg)
    assert not solved


def test_uninformative_wide_slices_without_sleep_sensing_solve_nothing(monkeypatch):
    """At flip rate 0.6 no reading carries information, so the belief path
    cannot depend on the action even without sleep sensing: auto returns the
    greedy rule at every width and solves no planner.  five-slice once sent
    each 5-RB block to a 101**5 grid, past its cap, and exited.  The access
    rule reads equal idle probabilities, so devices draw the random arm's
    RBs."""
    cfg = load_config("five-slice", ["observation.epsilon=0.6", "observation.phi=0.6",
                                     "observation.sleep_sensing=false", "timebase.periods=4"])
    solved = _count_solves(monkeypatch)
    summary, records = recorded_run(cfg)
    assert solved and {mode for _, mode in solved} == {"myopic"}
    assert any(row.delta_applied != 0 for row in summary.period_rows)
    _, blind = recorded_run(paired(cfg, policy_mode="random"))
    assert np.array_equal(records["action"], blind["action"])


def test_certified_wide_slices_need_no_grid(monkeypatch):
    """two-slice at 5 RBs a slice with phi 0.2 once sent auto to a 101**5
    grid, past its cap; access is certified there, so auto returns the
    greedy rule, the run completes without an exact or grid solve and every
    device accesses every slot."""
    cfg = load_config("two-slice", ["observation.force_equal_noise=false",
                                    "observation.phi=0.2", "controller_enabled=false",
                                    "timebase.slots_per_period=8", "timebase.periods=2"])
    solved = _count_solves(monkeypatch)
    _, records = recorded_run(cfg)
    assert solved == {(5, "myopic"): 1}
    assert np.all(records["action"] > 0)
    with pytest.raises(pomdp.SolverCapError, match="101\\*\\*5"):
        run_simulation(paired(cfg, solver_mode="grid"))


@pytest.mark.parametrize("mode", POLICY_MODES)
def test_zero_transmit_power_earns_nothing(mode):
    """At tx_power 0 every rate is 0.  The informed arm's expected rates are
    all 0, so it sleeps; the access rule's shares stay uniform, so the
    baselines draw the random arm's RBs."""
    cfg = tiny_config(radio=dataclasses.replace(small_radio(), tx_power=0.0),
                      policy_mode=mode, seed=5)
    summary, records = recorded_run(cfg)
    assert summary.mean_discounted_reward == 0.0
    assert np.all(records["rate"] == 0.0)
    if mode == "pomdp":
        assert np.all(records["action"] == 0)
    else:
        _, blind = recorded_run(paired(cfg, policy_mode="random"))
        assert np.array_equal(records["action"], blind["action"])


@pytest.mark.parametrize("controller", [False, True])
def test_an_unchanged_allocation_keeps_its_layout(controller, monkeypatch):
    """A batch lays out beliefs and access-rule tables once, and again only
    after a period whose allocation changed; the runs equal runs that lay
    everything out afresh every period."""
    base = load_config("five-slice", ["timebase.periods=6",
                                      f"controller_enabled={str(controller).lower()}"])
    configs = [paired(base, seed=seed) for seed in (1, 2)]
    built = []
    access = pomdp.SliceAccess

    def counting(*args, **kwargs):
        built.append(1)
        return access(*args, **kwargs)

    monkeypatch.setattr(pomdp, "SliceAccess", counting)
    batch = recorded_batch(configs)
    # a change applied after the last period is never laid out
    changed = {row.period for summary, _ in batch for row in summary.period_rows
               if row.delta_applied != 0 and row.period < base.timebase.periods}
    assert bool(changed) == controller
    assert len(built) == 1 + len(changed)

    rebuild = Simulation._rebuild_beliefs

    def afresh(sim):
        sim._laid_out = None
        rebuild(sim)

    monkeypatch.setattr(Simulation, "_rebuild_beliefs", afresh)
    for (got, got_records), (want, want_records) in zip(batch, recorded_batch(configs)):
        assert got.period_rows == want.period_rows
        assert np.array_equal(got_records, want_records)
    assert len(built) == 1 + len(changed) + base.timebase.periods


def test_belief_carry_over_follows_pool_indices():
    cfg = tiny_config(
        topology=CellTopology(total_rbs=4, access_rbs=4, data_rbs=0, devices=2),
        slices=(VirtualNetwork(slice_id=1, devices=1, access_rbs=2,
                               data_rbs=0, weight=2.0),
                VirtualNetwork(slice_id=2, devices=1, access_rbs=2,
                               data_rbs=0, weight=1.0)),
        seed=1)
    sim = Simulation([cfg])
    sim._rebuild_beliefs()
    sim.beliefs = np.array([[0.11, 0.22], [0.33, 0.44]])
    # slice 1 grows to 3 RBs: slice 2's block shifts from pool RBs (2,3) to (3,)
    sim.allocation = [3, 1]
    sim._rebuild_beliefs()
    stationary = cfg.markov.stationary_idle()
    assert np.allclose(sim.beliefs[0], [0.11, 0.22, stationary])
    # the surviving RB of slice 2 is pool index 3, previously local index 1
    assert sim.beliefs[1][0] == 0.44
    assert not sim._belief_mask[1][1] and not sim._belief_mask[1][2]


def test_sleeping_devices_record_no_channel():
    cfg = tiny_config(discount=0.0, seed=8)  # zero weight on early slots
    _, records = recorded_run(cfg)
    early = records[records["slot"] < 2]
    assert early.size and np.all(early["action"] == 0)
    assert np.all((early["rb_global"] == -1) & (early["rb_state"] == -1)
                  & (early["observation"] == -1) & (early["rate"] == 0.0))


def test_clairvoyant_arm_upper_bounds_informed_arm():
    cfg = tiny_config(
        topology=CellTopology(total_rbs=3, access_rbs=3, data_rbs=0, devices=4),
        slices=(VirtualNetwork(slice_id=1, devices=4, access_rbs=3,
                               data_rbs=0, weight=1.0),),
        timebase=Timebase(slot_duration=1e-3, slots_per_period=6, periods=4))
    diffs = []
    for seed in range(1, 9):
        ceiling = run_simulation(paired(cfg, policy_mode="perfect", seed=seed))
        informed = run_simulation(paired(cfg, seed=seed))
        diffs.append(ceiling.mean_discounted_reward
                     - informed.mean_discounted_reward)
    assert np.mean(diffs) >= 0.0


# -- a batch against its runs one at a time ------------------------------------

# each sweep axis and three values of it, two of them apart from five-slice's
BATCH_VALUES = {"rbs": (1, 3, 5), "epsilon": (0.1, 0.4, 0.7), "beta": (0.0, 0.5, 0.9),
                "omega": (0.5, 0.8, 0.95), "mu": (1e5, 3.3e5, 1e6),
                "devices": (8, 50, 90)}


def _batch_of(base, axis, seeds=(1, 2)):
    return [paired(with_axis_value(base, axis, value), seed=seed)
            for value in BATCH_VALUES[axis] for seed in seeds]


def _assert_rows_are_single_runs(configs, monkeypatch):
    """Each run of the batch equals the run on its own, exactly, in its
    period rows, mean reward, final gap and slot records; every matrix
    product of the batch sees one run's rows."""
    sizes = {cfg.topology.devices for cfg in configs}
    totals = pomdp.total_discounted_reward

    def one_run_at_a_time(rewards, discount):
        assert len(rewards) in sizes
        return totals(rewards, discount)

    monkeypatch.setattr(pomdp, "total_discounted_reward", one_run_at_a_time)
    batch = recorded_batch(configs)
    assert len(batch) == len(configs)
    for cfg, (got, got_records) in zip(configs, batch):
        want, want_records = recorded_run(cfg)
        assert got.period_rows == want.period_rows
        assert got.mean_discounted_reward == want.mean_discounted_reward
        assert got.final_max_abs_gap == want.final_max_abs_gap
        assert np.array_equal(got_records, want_records)


@pytest.mark.parametrize("axis", sorted(SWEEP_AXES))
def test_batch_rows_equal_single_runs_along_each_axis(axis, monkeypatch):
    """Controller on, so allocations diverge within the batch; the devices
    axis mixes device counts."""
    base = load_config("five-slice", ["timebase.periods=4"])
    _assert_rows_are_single_runs(_batch_of(base, axis), monkeypatch)


@pytest.mark.parametrize("mode", ["random", "perfect"])
def test_batch_rows_equal_single_runs_for_each_arm(mode, monkeypatch):
    """The baseline arms over mixed device counts; the clairvoyant arm's
    access rule sees beliefs of 0 and 1, and so solves rows to convergence,
    each run's at its own width."""
    base = load_config("five-slice", ["timebase.periods=4", f"policy.mode={mode}"])
    solved = []
    converge = pomdp.SliceAccess._converge

    def recording(rule, p, y, moved, rows):
        solved.append((rule._runs, np.asarray(rows)))
        return converge(rule, p, y, moved, rows)

    monkeypatch.setattr(pomdp.SliceAccess, "_converge", recording)
    _assert_rows_are_single_runs(_batch_of(base, "devices"), monkeypatch)
    if mode == "perfect":
        batched = [(runs, rows) for runs, rows in solved if len(runs) > 1]
        assert batched
        for runs, rows in batched:
            assert any(run.start <= rows.min() and rows.max() < run.stop for run in runs)


def test_batch_rows_equal_single_runs_across_arms(monkeypatch):
    """Every arm at mixed device counts in one batch, with an informed run at
    flip rate 0.6, whose beliefs stay equal.  A random run's rows settle at
    the uniform pick one by one, alone and beside rows that take the first
    Newton step, and must draw the same RBs.  The clairvoyant arm's rule sees
    beliefs of 0 and 1, and so solves rows to convergence, each run's at its
    own width."""
    base = load_config("five-slice", ["timebase.periods=4"])
    configs = [paired(with_axis_value(base, "devices", devices), policy_mode=mode, seed=seed)
               for seed, devices in enumerate(BATCH_VALUES["devices"], 1)
               for mode in engine.POLICY_MODES]
    configs.append(paired(with_axis_value(base, "epsilon", 0.6), seed=4))
    solved = []
    converge = pomdp.SliceAccess._converge

    def recording(rule, p, y, moved, rows):
        solved.append((rule._runs, np.asarray(rows)))
        return converge(rule, p, y, moved, rows)

    monkeypatch.setattr(pomdp.SliceAccess, "_converge", recording)
    _assert_rows_are_single_runs(configs, monkeypatch)
    batched = [(runs, rows) for runs, rows in solved if len(runs) > 1]
    assert batched
    for runs, rows in batched:
        assert any(run.start <= rows.min() and rows.max() < run.stop for run in runs)
    # the clairvoyant runs' rows among them
    clairvoyant = [run for run, cfg in zip(batched[0][0], configs)
                   if cfg.policy_mode == "perfect"]
    assert any(run.start <= rows.min() < run.stop for run in clairvoyant for _, rows in batched)


@pytest.mark.parametrize("markov", [None, RbMarkov(0.7, 0.3, 0.95, 0.05)],
                         ids=["shipped", "drifting"])
def test_access_rows_keep_within_the_engines_spread_bound(markov, monkeypatch):
    """Every slot, each row's idle probabilities spread no wider than the
    bound the engine gives the access rule, and the screened rule draws
    what the rule without the screen draws: every arm, with an informed run
    at flip rate 0.6, whose readings carry no information, across
    reallocations.  On the drifting chain that run's beliefs alternate
    between two values a unit of roundoff apart, so with an odd number of
    slots a period a reallocation mixes carried and fresh RBs that differ;
    the rule reads the random arm's equal idle probabilities for it, so its
    bound and spread are 0 on both chains."""
    base = load_config("five-slice", ["timebase.periods=6", "timebase.slots_per_period=7"])
    if markov is not None:
        base = paired(base, markov=markov)
    configs = [paired(base, policy_mode=mode, seed=seed)
               for seed, mode in enumerate(POLICY_MODES, 1)]
    configs.append(paired(with_axis_value(base, "epsilon", 0.6), seed=4))
    sim = Simulation(configs)
    flat = sim.runs[-1].rows
    draw = pomdp.SliceAccess.draw
    widest = []

    def checking(rule, idle, u):
        valid = rule._valid.T
        spread = (np.where(valid, idle, -np.inf).max(axis=1)
                  - np.where(valid, idle, np.inf).min(axis=1))
        assert np.all(spread <= sim._spread)
        widest.append(spread[flat].max())
        got = draw(rule, idle, u)
        assert np.array_equal(got, draw(unscreened(rule), idle, u))
        return got

    monkeypatch.setattr(pomdp.SliceAccess, "draw", checking)
    summary = sim.run()
    assert len(widest) == 6 * base.timebase.slots_per_period
    moved = [row.delta_applied != 0 for run in summary.runs[3:] for row in run.period_rows]
    assert any(moved)
    assert sim._spread[flat.start] == max(widest)
    assert max(widest) == 0.0


def test_a_sleeping_batch_without_sleep_sensing_equals_its_runs(monkeypatch):
    """Two informed runs that differ in epsilon, without sleep sensing, so
    each row weighs its accessed reading at its own trusted epsilon.  At
    tx_power 0 every expected rate is 0 and every device sleeps in every
    slot, so no reading is heard; each run equals the run on its own."""
    radio = dataclasses.replace(small_radio(), tx_power=0.0)
    configs = [tiny_config(radio=radio, sleep_sensing=False, seed=seed,
                           obs=ObservationModel.symmetric(epsilon))
               for seed, epsilon in ((5, 0.1), (6, 0.3))]
    _assert_rows_are_single_runs(configs, monkeypatch)
    for _, records in recorded_batch(configs):
        assert np.all(records["action"] == 0)


def test_batch_rows_equal_single_runs_with_a_solved_planner(monkeypatch):
    """The exact-solver scenario at discount 0.5, where access is not
    certified: each run solves its exact planner and acts through it, on its
    own rows.  (At its own discount of 0.9 access is certified.)"""
    base = load_config("two-slice", EXACT_SOLVER + ("policy.discount=0.5",))
    configs = [paired(base, seed=seed) for seed in (1, 2)]
    solved = _count_solves(monkeypatch)
    _assert_rows_are_single_runs(configs, monkeypatch)
    assert solved == {(2, "exact"): 2 * len(configs)}    # once in the batch, once alone


def test_draws_by_the_period_equal_draws_by_the_slot(monkeypatch):
    """The random streams give the same values drawn one slot at a time."""
    configs = _batch_of(load_config("five-slice", ["timebase.periods=2"]), "epsilon")
    whole = recorded_batch(configs)
    monkeypatch.setattr(engine, "_DRAW_BYTES", 1)
    assert Simulation(configs)._block_slots == 1
    for (got, got_records), (want, want_records) in zip(recorded_batch(configs), whole):
        assert got.period_rows == want.period_rows
        assert np.array_equal(got_records, want_records)


def test_a_batch_shares_its_slot_loop():
    cfg = tiny_config(seed=3)
    with pytest.raises(ValueError, match="timebase"):
        Simulation([cfg, paired(cfg, timebase=Timebase(slot_duration=1e-3,
                                                       slots_per_period=4, periods=2))])
    with pytest.raises(ValueError, match="at least one"):
        Simulation([])


# (ScenarioConfig fields built in code, the document key the refusal names)
CODE_REFUSALS = {
    "mode": (dict(policy_mode="oracle"), "policy.mode"),
    "solver": (dict(solver_mode="magic"), "policy.solver"),
    "grid-points": (dict(grid_points=1), "policy.grid_points"),
    "discount": (dict(discount=1.5), "policy.discount"),
    "no-slice": (dict(slices=()), "slices"),
    "device-sum": (dict(topology=CellTopology(total_rbs=2, access_rbs=2, data_rbs=0,
                                              devices=5)), "slices"),
    "pool": (dict(slices=(VirtualNetwork(slice_id=1, devices=3, access_rbs=3,
                                         data_rbs=0, weight=1.0),)), "slices"),
    "weight-order": (dict(
        topology=CellTopology(total_rbs=4, access_rbs=4, data_rbs=0, devices=2),
        slices=(VirtualNetwork(slice_id=1, devices=1, access_rbs=2, data_rbs=0, weight=1.0),
                VirtualNetwork(slice_id=2, devices=1, access_rbs=2, data_rbs=0,
                               weight=2.0))), "slices"),
    "equal-noise": (dict(obs=ObservationModel(0.1, 0.3)), "observation.phi"),
    # neither RB state is ever left, so there is no stationary law to start from
    "frozen-chain": (dict(markov=RbMarkov(1.0, 0.0, 0.0, 1.0)), "markov.busy_to_idle"),
}


class TestScenarioValidation:
    @pytest.mark.parametrize("case", CODE_REFUSALS)
    def test_refusal_names_its_key(self, case):
        fields, key = CODE_REFUSALS[case]
        with pytest.raises(ConfigError) as err:
            tiny_config(**fields).validate()
        assert err.value.path == key

    def test_device_counts_must_sum(self):
        with pytest.raises(ValueError, match="sum"):
            tiny_config(topology=CellTopology(total_rbs=2, access_rbs=2,
                                              data_rbs=0, devices=5)).validate()

    def test_weights_must_be_non_increasing(self):
        with pytest.raises(ValueError, match="non-increasing"):
            tiny_config(
                topology=CellTopology(total_rbs=4, access_rbs=4, data_rbs=0,
                                      devices=2),
                slices=(VirtualNetwork(slice_id=1, devices=1, access_rbs=2,
                                       data_rbs=0, weight=1.0),
                        VirtualNetwork(slice_id=2, devices=1, access_rbs=2,
                                       data_rbs=0, weight=2.0))).validate()

    def test_unequal_noise_needs_opt_in(self):
        with pytest.raises(ValueError, match="force_equal_noise"):
            tiny_config(obs=ObservationModel(0.1, 0.3)).validate()
        cfg = tiny_config(obs=ObservationModel(0.1, 0.3),
                          force_equal_noise=False)
        cfg.validate()

    def test_slice_budgets_respect_pool(self):
        with pytest.raises(ValueError, match="pool"):
            tiny_config(
                slices=(VirtualNetwork(slice_id=1, devices=3, access_rbs=3,
                                       data_rbs=0, weight=1.0),)).validate()


class TestSweeps:
    base = tiny_config(
        topology=CellTopology(total_rbs=4, access_rbs=4, data_rbs=0, devices=6),
        slices=(VirtualNetwork(slice_id=1, devices=4, access_rbs=2,
                               data_rbs=0, weight=2.0),
                VirtualNetwork(slice_id=2, devices=2, access_rbs=2,
                               data_rbs=0, weight=1.0)))

    def test_rbs_axis_sets_every_slice(self):
        v = with_axis_value(self.base, "rbs", 1)
        assert all(s.access_rbs == 1 for s in v.slices)

    def test_epsilon_axis_sets_both_flip_rates(self):
        v = with_axis_value(self.base, "epsilon", 0.4)
        assert v.obs.epsilon == 0.4 and v.obs.phi == 0.4

    def test_scalar_axes(self):
        assert with_axis_value(self.base, "beta", 0.5).discount == 0.5
        assert with_axis_value(self.base, "omega", 0.6).controller.omega == 0.6
        assert with_axis_value(self.base, "mu", 3.0).controller.mu == 3.0

    def test_devices_axis_rescales_proportionally(self):
        v = with_axis_value(self.base, "devices", 12)
        assert v.topology.devices == 12
        assert sum(s.devices for s in v.slices) == 12
        assert v.slices[0].devices == 8 and v.slices[1].devices == 4
        tiny = with_axis_value(self.base, "devices", 2)
        assert all(s.devices == 1 for s in tiny.slices)
        # uneven splits: the largest remainders take the leftover devices,
        # and where the floor of 1 overshoots the smallest remainders give back
        five = load_config("five-slice")
        for base, total, counts in ((self.base, 5, (3, 2)), (self.base, 7, (5, 2)),
                                    (five, 7, (3, 1, 1, 1, 1)),
                                    (five, 53, (32, 6, 5, 5, 5))):
            v = with_axis_value(base, "devices", total)
            assert tuple(s.devices for s in v.slices) == counts
            assert v.topology.devices == total

    def test_unknown_axis_rejected(self):
        with pytest.raises(ValueError, match="axis"):
            with_axis_value(self.base, "banana", 1)

    def test_sweep_rows_and_aggregate(self):
        rows = run_sweep(self.base, "rbs", [1, 2], seeds=[1, 2, 3])
        assert [(r.axis_value, r.seed) for r in rows] == [
            (1.0, 1), (1.0, 2), (1.0, 3), (2.0, 1), (2.0, 2), (2.0, 3)]
        assert all(r.config == paired(with_axis_value(self.base, "rbs", r.axis_value),
                                      seed=r.seed) for r in rows)
        agg = aggregate_sweep(rows)
        assert [a[0] for a in agg] == [1.0, 2.0]
        vals = [r.summary.mean_discounted_reward for r in rows[:3]]
        assert agg[0][1] == pytest.approx(np.mean(vals), rel=1e-12)
        assert agg[0][2] == pytest.approx(
            np.std(vals, ddof=1) / np.sqrt(3), rel=1e-12)

    def test_sweep_runs_through_the_given_map(self):
        calls = []

        def recording_map(fn, jobs):
            jobs = list(jobs)
            calls.append(len(jobs))
            return map(fn, jobs)

        # the map sees the batches, here one run each; rows are those of one batch
        rows = run_sweep(self.base, "rbs", [1, 2], seeds=[4], map_fn=recording_map,
                         batches=2)
        assert calls == [2]
        assert rows == run_sweep(self.base, "rbs", [1, 2], seeds=[4])
