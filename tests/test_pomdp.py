import numpy as np
import pytest

from conftest import PINNED_MARKOV
from m2msim.channel import RbMarkov
from m2msim.pomdp import (SLEEP, BeliefUpdateError, MyopicPolicy,
                          ObservationModel, PomdpModel, SolverCapError,
                          belief_propagate, belief_update,
                          exhaustive_policy_value, exhaustive_value, observe,
                          solve, solve_exact, solve_grid, total_discounted_reward)


def small_model(n_rbs=2, horizon=3, eps=0.2, phi=None, discount=0.9,
                sleep_sensing=True) -> PomdpModel:
    return PomdpModel(
        markov=PINNED_MARKOV,
        obs=ObservationModel(eps, eps if phi is None else phi),
        horizon=horizon, discount=discount,
        rate_idle=np.linspace(1.0, 1.5, n_rbs),
        rate_busy=np.linspace(0.3, 0.2, n_rbs),
        sleep_sensing=sleep_sensing)


class TestBeliefs:
    def test_propagation(self):
        m = belief_propagate(np.array([0.6]), PINNED_MARKOV)
        assert m[0] == pytest.approx(0.6 * 0.9 + 0.4 * 0.95, abs=1e-15)

    def test_chance_level_reading_changes_nothing(self):
        # flip probability one half carries zero evidence, so the posterior
        # is the propagated prior itself: 0.6*0.9 + 0.4*0.95 = 0.92
        post = belief_update(np.array([0.6]), 1, np.array([0]),
                             PINNED_MARKOV, ObservationModel.symmetric(0.5))
        assert post[0] == 0.92

    def test_sharp_reading_pulls_toward_it(self):
        obs_model = ObservationModel.symmetric(0.1)
        m = 0.92
        post_idle = belief_update(np.array([0.6]), 1, np.array([0]),
                                  PINNED_MARKOV, obs_model)
        expected = m * 0.9 / (m * 0.9 + (1 - m) * 0.1)
        assert post_idle[0] == pytest.approx(expected, abs=1e-15)
        post_busy = belief_update(np.array([0.6]), 1, np.array([1]),
                                  PINNED_MARKOV, obs_model)
        assert post_busy[0] < m < post_idle[0]

    def test_chance_level_equals_propagation_exactly(self):
        rng = np.random.default_rng(2)
        obs_model = ObservationModel.symmetric(0.5)
        belief = rng.random(5)
        for _ in range(2000):
            obs = rng.integers(0, 2, size=5)
            updated = belief_update(belief, 3, obs, PINNED_MARKOV, obs_model)
            assert np.array_equal(updated, belief_propagate(belief, PINNED_MARKOV))
            belief = updated

    def test_beliefs_stay_probabilities(self):
        rng = np.random.default_rng(7)
        for eps in (0.0, 0.2, 0.45, 0.9):
            obs_model = ObservationModel.symmetric(eps)
            belief = rng.random(4)
            for _ in range(500):
                obs = rng.integers(0, 2, size=4)
                action = int(rng.integers(0, 5))
                try:
                    belief = belief_update(belief, action, obs,
                                           PINNED_MARKOV, obs_model)
                except BeliefUpdateError:
                    belief = belief_propagate(belief, PINNED_MARKOV)
                assert np.all(belief >= 0.0) and np.all(belief <= 1.0)

    def test_unsensed_rbs_only_propagate(self):
        obs_model = ObservationModel.symmetric(0.1)
        belief = np.array([0.6, 0.3])
        post = belief_update(belief, 1, np.array([0, -1]),
                             PINNED_MARKOV, obs_model)
        assert post[1] == belief_propagate(belief, PINNED_MARKOV)[1]

    def test_impossible_reading_raises(self):
        frozen_idle = RbMarkov(1.0, 0.0, 0.95, 0.05)
        with pytest.raises(BeliefUpdateError):
            belief_update(np.array([1.0]), 1, np.array([1]),
                          frozen_idle, ObservationModel.symmetric(0.0))

    def test_worse_than_chance_sensor_is_capped(self):
        belief = np.array([0.6, 0.4])
        obs = np.array([0, 1])
        inverted = belief_update(belief, 1, obs, PINNED_MARKOV,
                                 ObservationModel.symmetric(0.8))
        capped = belief_update(belief, 1, obs, PINNED_MARKOV,
                               ObservationModel.symmetric(0.5))
        assert np.array_equal(inverted, capped)
        assert ObservationModel.symmetric(0.8).trusted_epsilon == 0.5


class TestObserve:
    def test_flip_extremes(self):
        rng = np.random.default_rng(1)
        assert all(observe(0, 0.0, rng) == 0 for _ in range(50))
        assert all(observe(0, 1.0, rng) == 1 for _ in range(50))
        assert all(observe(1, 1.0, rng) == 0 for _ in range(50))

    def test_flip_frequency(self):
        rng = np.random.default_rng(3)
        flips = sum(observe(0, 0.3, rng) for _ in range(20_000))
        assert flips / 20_000 == pytest.approx(0.3, abs=0.01)


class TestRewards:
    def test_late_slot_weighting(self):
        assert total_discounted_reward((5.0, 7.0, 9.0), 0.0) == 9.0
        assert total_discounted_reward((4.0, 4.0, 4.0), 0.5) == 7.0
        assert total_discounted_reward((5.0, 7.0, 9.0), 1.0) == 21.0

    def test_zero_discount_keeps_only_last_slot(self):
        assert total_discounted_reward((100.0,), 0.0) == 100.0


class TestObservationModel:
    def test_range_validation(self):
        with pytest.raises(ValueError, match="epsilon"):
            ObservationModel(1.5, 0.1)
        with pytest.raises(ValueError, match="phi"):
            ObservationModel(0.1, -0.1)

    def test_action_independence_detection(self):
        assert small_model(eps=0.2).action_independent_observations()
        assert not small_model(eps=0.2, phi=0.3).action_independent_observations()
        assert not small_model(eps=0.2, sleep_sensing=False
                               ).action_independent_observations()
        # both flip rates cap to one half, so the readings carry the same
        # (empty) information whatever the action
        assert small_model(eps=0.6, phi=0.5).action_independent_observations()


class TestTieBreaks:
    def test_sleep_wins_ties(self):
        model = PomdpModel(markov=PINNED_MARKOV,
                           obs=ObservationModel.symmetric(0.1),
                           horizon=2, discount=1.0,
                           rate_idle=np.zeros(2), rate_busy=np.zeros(2))
        policy = MyopicPolicy(model)
        assert policy.act(np.array([0.5, 0.5]), 0) == SLEEP

    def test_lowest_rb_wins_access_ties(self):
        model = PomdpModel(markov=PINNED_MARKOV,
                           obs=ObservationModel.symmetric(0.1),
                           horizon=2, discount=1.0,
                           rate_idle=np.array([1.0, 1.0]),
                           rate_busy=np.array([0.2, 0.2]))
        policy = MyopicPolicy(model)
        assert policy.act(np.array([0.7, 0.7]), 0) == 1

    def test_myopic_compares_rates_exactly(self):
        # RB 2's expected rate is higher by a relative 3e-10, inside the
        # planners' 1e-9 tie band; the greedy rule still prefers it
        model = PomdpModel(markov=PINNED_MARKOV,
                           obs=ObservationModel.symmetric(0.1),
                           horizon=1, discount=1.0,
                           rate_idle=np.full(2, 4.6e5),
                           rate_busy=np.full(2, 1.5e5))
        assert MyopicPolicy(model).act(np.array([0.5, 0.5 - 1e-8]), 0) == 2


class TestActBatch:
    """act_batch over N rows equals act row by row, for every backend."""

    @pytest.mark.parametrize("backend", ["myopic", "exact", "grid"])
    def test_rows_match_single_acts(self, backend):
        rng = np.random.default_rng(12)
        model = small_model(n_rbs=2, horizon=3, eps=0.25, discount=0.8)
        policy = solve(model, mode=backend, grid_points=21)
        beliefs = rng.random((30, 2))
        beliefs[:3] = [[0.5, 0.5], [0.0, 1.0], [1.0, 1.0]]
        valid = np.ones(beliefs.shape, dtype=bool)
        for slot in range(model.horizon):
            got = policy.act_batch(beliefs, valid, slot)
            assert got.tolist() == [policy.act(b, slot) for b in beliefs]

    def test_myopic_masks_narrower_rows(self):
        rng = np.random.default_rng(13)
        widths = np.array([1, 3, 2, 3, 1, 2] * 5)
        beliefs = rng.random((widths.size, 3))
        valid = np.arange(3)[None, :] < widths[:, None]
        beliefs[~valid] = 0.0  # busy now predicts idle next best, so a leak would show
        uniform = {w: MyopicPolicy(PomdpModel(
            markov=PINNED_MARKOV, obs=ObservationModel.symmetric(0.2),
            horizon=3, discount=0.7, rate_idle=np.full(w, 4.6e5),
            rate_busy=np.full(w, 1.5e5))) for w in (1, 2, 3)}
        for slot in range(3):
            got = uniform[3].act_batch(beliefs, valid, slot)
            want = [uniform[w].act(b[:w], slot) for b, w in zip(beliefs, widths)]
            assert got.tolist() == want


class TestSolvers:
    def test_exact_matches_enumeration(self):
        rng = np.random.default_rng(4)
        model = small_model(n_rbs=2, horizon=3, eps=0.3, discount=0.5)
        beliefs = rng.random((10, 2))
        reference = exhaustive_value(model, beliefs)
        policy = solve_exact(model)
        got = np.array([policy.value(b) for b in beliefs])
        assert np.max(np.abs(got - reference)) < 1e-12

    def test_myopic_matches_exact_when_valid(self):
        rng = np.random.default_rng(5)
        model = small_model(n_rbs=2, horizon=4, eps=0.25, discount=0.8)
        exact = solve_exact(model)
        myopic = MyopicPolicy(model)
        for b in rng.random((40, 2)):
            for slot in range(model.horizon):
                assert myopic.act(b, slot) == exact.act(b, slot)
        for b in rng.random((5, 2)):
            assert exhaustive_policy_value(model, b, myopic) == pytest.approx(
                exact.value(b), abs=1e-12)

    def test_myopic_requires_action_independence(self):
        with pytest.raises(ValueError):
            MyopicPolicy(small_model(eps=0.1, phi=0.4))

    def test_grid_converges_to_exact(self):
        rng = np.random.default_rng(6)
        model = small_model(n_rbs=2, horizon=3, eps=0.3, discount=0.9)
        exact = solve_exact(model)
        beliefs = rng.random((20, 2))
        errors = []
        for pts in (11, 51, 201):
            grid = solve_grid(model, grid_points=pts)
            errors.append(max(abs(grid.value(b) - exact.value(b))
                              for b in beliefs))
        assert errors[2] <= errors[0] + 1e-12
        assert errors[2] < 5e-3

    def test_grid_cap(self):
        with pytest.raises(SolverCapError):
            solve_grid(small_model(n_rbs=2), grid_points=3000)

    def test_exact_cap(self):
        model = PomdpModel(markov=PINNED_MARKOV,
                           obs=ObservationModel.symmetric(0.1),
                           horizon=2, discount=0.9,
                           rate_idle=np.ones(5), rate_busy=np.zeros(5))
        with pytest.raises(SolverCapError):
            solve_exact(model)

    def test_auto_mode_selection(self):
        assert solve(small_model(eps=0.2), mode="auto").mode == "myopic"
        assert solve(small_model(eps=0.2, phi=0.3), mode="auto").mode == "exact"
        wide = PomdpModel(markov=PINNED_MARKOV,
                          obs=ObservationModel(0.2, 0.3),
                          horizon=3, discount=0.9,
                          rate_idle=np.ones(3), rate_busy=np.zeros(3))
        assert solve(wide, mode="auto", grid_points=21).mode == "grid"
        with pytest.raises(ValueError, match="mode"):
            solve(small_model(), mode="banana")

    def test_horizon_one_is_pure_greedy(self):
        model = small_model(n_rbs=2, horizon=1, eps=0.3, discount=0.0)
        policy = solve_exact(model)
        b = np.array([0.9, 0.1])
        expected = np.max(np.concatenate(
            [[0.0], belief_propagate(b, model.markov) * model.rate_idle
             + (1 - belief_propagate(b, model.markov)) * model.rate_busy]))
        assert policy.value(b) == pytest.approx(expected, abs=1e-12)

    def test_dumps_are_structured(self):
        model = small_model(n_rbs=1, horizon=2)
        for policy in (solve_exact(model), solve_grid(model, 11),
                       MyopicPolicy(model)):
            text = policy.dump()
            assert text.startswith("policy-dump v1")
            assert f"mode: {policy.mode}" in text


class TestModelValidation:
    def test_rate_table_shapes(self):
        with pytest.raises(ValueError):
            PomdpModel(markov=PINNED_MARKOV,
                       obs=ObservationModel.symmetric(0.1),
                       horizon=2, discount=0.9,
                       rate_idle=np.ones(2), rate_busy=np.ones(3))

    def test_horizon_and_discount_ranges(self):
        with pytest.raises(ValueError):
            small_model(horizon=0)
        with pytest.raises(ValueError):
            small_model(discount=1.5)
