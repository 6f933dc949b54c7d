import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import PINNED_MARKOV, small_radio
from m2msim import cli, pomdp
from m2msim.channel import RbMarkov
from m2msim.pomdp import (SLEEP, BeliefUpdateError, MyopicPolicy,
                          ObservationModel, PomdpModel, SliceAccess,
                          SolverCapError, access_certified, belief_propagate,
                          belief_update, exhaustive_policy_value, exhaustive_value,
                          observe, solve, solve_exact, solve_grid,
                          total_discounted_reward)


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
        # the accessed RB's reading is weighed at epsilon, the others' at phi
        post = belief_update(np.array([0.6, 0.6]), 2, np.array([0, 0]),
                             PINNED_MARKOV, ObservationModel(0.1, 0.3))
        assert post[0] == pytest.approx(m * 0.7 / (m * 0.7 + (1 - m) * 0.3), abs=1e-15)
        assert post[1] == pytest.approx(expected, abs=1e-15)

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


@pytest.mark.parametrize("sleep_sensing", [True, False])
@pytest.mark.parametrize("eps, phi", [(0.2, 0.2), (0.1, 0.3), (0.3, 0.0),
                                      (0.8, 0.2), (0.1, 0.7)])
def test_bayes_update_rows_match_belief_update(eps, phi, sleep_sensing):
    """The engine's batched Bayes step equals `belief_update` row by row, bit
    for bit, for sleepers and accessors; flip rates past 0.5 are capped."""
    rng = np.random.default_rng(5)
    obs_model = ObservationModel(eps, phi)
    n, width = 200, 4
    for markov in (PINNED_MARKOV, RbMarkov(0.3, 0.7, 0.6, 0.4)):
        beliefs = rng.random((n, width))
        actions = rng.integers(0, width + 1, size=n)
        saw_idle = rng.random((n, width)) < 0.5
        batched = pomdp.bayes_update(belief_propagate(beliefs, markov), actions,
                                     saw_idle, obs_model, sleep_sensing)
        readings = np.where(saw_idle, 0, 1)
        if not sleep_sensing:
            readings[np.arange(width) != actions[:, None] - 1] = -1
        rows = np.array([belief_update(beliefs[i], actions[i], readings[i],
                                       markov, obs_model) for i in range(n)])
        assert np.array_equal(batched, rows)


flips = st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(0.0, 1.0))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.data())
def test_beliefs_stay_in_bounds(data):
    """`bayes_update` and `belief_update` keep every entry finite and in
    [0, 1], for flip rates on both sides of 0.5 (phi = 0 and eps != phi
    among them), with and without sleep sensing."""
    p_ii, p_bi = data.draw(flips, label="p_ii"), data.draw(flips, label="p_bi")
    markov = RbMarkov(p_ii, 1.0 - p_ii, p_bi, 1.0 - p_bi)
    obs_model = ObservationModel(data.draw(flips, label="eps"),
                                 data.draw(flips, label="phi"))
    sleep_sensing = data.draw(st.booleans(), label="sleep_sensing")
    n, width = data.draw(st.integers(1, 6), label="n"), data.draw(st.integers(1, 4))
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    rng = np.random.default_rng(seed)
    beliefs = rng.random((n, width))
    beliefs[rng.random((n, width)) < 0.2] = 0.0
    beliefs[rng.random((n, width)) < 0.2] = 1.0
    for _ in range(20):
        actions = rng.integers(0, width + 1, size=n)
        saw_idle = rng.random((n, width)) < 0.5
        readings = np.where(saw_idle, 0, 1)
        if not sleep_sensing:
            readings[np.arange(width) != actions[:, None] - 1] = -1
        for b, a, o in zip(beliefs, actions, readings):
            try:
                post = belief_update(b, a, o, markov, obs_model)
            except BeliefUpdateError:
                continue
            assert np.all(np.isfinite(post))
            assert np.all((post >= 0.0) & (post <= 1.0))
        beliefs = pomdp.bayes_update(belief_propagate(beliefs, markov), actions, saw_idle,
                                     obs_model, sleep_sensing)
        assert np.all(np.isfinite(beliefs))
        assert np.all((beliefs >= 0.0) & (beliefs <= 1.0))


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
        ok, detail = cli.VERIFY_CHECKS["discount"]()
        assert ok, detail

    def test_zero_discount_keeps_only_last_slot(self):
        assert total_discounted_reward((100.0,), 0.0) == 100.0

    def test_each_row_is_one_horizon(self):
        # the engine's per-device totals: one row of K slot rewards per device
        rows = np.array([[5.0, 7.0, 9.0], [4.0, 4.0, 4.0]])
        assert total_discounted_reward(rows, 0.5).tolist() == [13.75, 7.0]


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


def test_myopic_accesses_is_the_sign_of_act_batch():
    """Also when a zero rate lets an expected rate reach 0, and in a slot of
    weight 0 (discount 0 keeps only the last slot)."""
    rng = np.random.default_rng(14)
    beliefs = rng.random((40, 3))
    beliefs[:4] = [[1.0, 1.0, 1.0], [0.0, 0.0, 0.0], [0.5, 0.0, 1.0], [0.0, 1.0, 0.0]]
    valid = np.ones(beliefs.shape, dtype=bool)
    markov = RbMarkov(1.0, 0.0, 0.0, 1.0)   # beliefs of 0 stay 0 after propagation
    for rate_busy in (0.3, 0.0):
        policy = MyopicPolicy(PomdpModel(
            markov=markov, obs=ObservationModel.symmetric(0.2), horizon=3,
            discount=0.0, rate_idle=np.full(3, 1.0), rate_busy=np.full(3, rate_busy)))
        for slot in range(3):
            assert np.array_equal(policy.accesses(beliefs, valid, slot),
                                  policy.act_batch(beliefs, valid, slot) > 0)


def _layout(widths, devices):
    widths = np.asarray(widths)
    valid = np.arange(widths.max())[None, :] < widths[:, None]
    return valid, SliceAccess(valid, np.asarray(devices, dtype=float), small_radio())


class TestSliceAccess:
    """The slice access rule: q on the simplex, optimal, and drawn as promised."""

    widths = [1, 3, 5, 2, 5, 3, 1, 4] * 4
    devices = [1, 4, 30, 2, 5, 3, 7, 4000] * 4

    def test_one_rb_slice_always_draws_rb_1(self):
        rng = np.random.default_rng(21)
        valid, rule = _layout(self.widths, self.devices)
        one = np.asarray(self.widths) == 1
        for _ in range(20):
            idle = rng.random(valid.shape)
            assert np.all(rule.draw(idle, rng.random(len(valid)))[one] == 1)
            assert np.all(rule.shares(idle)[one, 0] == 1.0)

    def test_equal_beliefs_draw_the_random_arms_rb(self):
        rng = np.random.default_rng(22)
        valid, rule = _layout(self.widths, self.devices)
        width = valid.sum(axis=1)
        u = np.concatenate([rng.random(len(valid) - 4), [0.0, 1 / 3, 0.6, 1 - 1e-16]])
        for level in (0.0, 0.3, 0.9, 0.95, 1.0):
            idle = np.where(valid, level, 0.0)
            assert np.all(rule.shares(idle)[valid] == (1.0 / width).repeat(width))
            assert rule.draw(idle, u).tolist() == ((u * width).astype(int) + 1).tolist()

    def test_shares_lie_on_the_simplex(self):
        rng = np.random.default_rng(23)
        valid, rule = _layout(self.widths, self.devices)
        for idle in (rng.random(valid.shape), (rng.random(valid.shape) < 0.8) * 1.0,
                     0.9 + 0.05 * rng.random(valid.shape)):
            q = rule.shares(idle)
            assert np.all(q >= 0.0) and np.all(q[~valid] == 0.0)
            assert np.allclose(q.sum(axis=1), 1.0, rtol=0.0, atol=1e-12)

    def test_shares_maximise_the_slice_rate(self):
        """No transfer of share between two RBs raises the slice's expected
        total rate under faded own and occupant gains, with k = (n - 1) q
        co-accessors at mean power; the rates come from adaptive quadrature,
        not from the rule's own nodes."""
        from scipy.integrate import quad
        radio = small_radio()
        p, n0, pb = radio.tx_power, radio.noise_power, radio.effective_busy_power
        rng = np.random.default_rng(24)

        def rate(k, busy):
            # ln(1 + a / b) = int (1 - e^-at) e^-bt dt / t; E e^(-g x) = (1 + 2x)^-1/2
            def f(t):
                return (np.exp(-t * (k * p + n0)) * (1 + 2 * t * pb * busy) ** -0.5
                        * (1 - (1 + 2 * t * p) ** -0.5) / t)
            return quad(f, 0, np.inf, epsabs=0.0, epsrel=1e-13, limit=400)[0]

        def slice_rate(q, idle, n):
            return sum(qr * (pr * rate((n - 1) * qr, 0) + (1 - pr) * rate((n - 1) * qr, 1))
                       for qr, pr in zip(q, idle))

        for width, n in ((2, 2), (3, 4), (5, 30), (4, 5), (3, 1)):
            valid, rule = _layout([width], [n])
            for idle in (rng.random(width), (rng.random(width) < 0.7) * 1.0):
                q = rule.shares(idle[None, :])[0]
                best = slice_rate(q, idle, n)
                for i in range(width):
                    for j in range(width):
                        moved = min(1e-4, q[i])
                        if i == j or moved == 0.0:
                            continue
                        trial = q.copy()
                        trial[i] -= moved
                        trial[j] += moved
                        assert slice_rate(trial, idle, n) <= best * (1 + 1e-12)

    def test_faded_rates_match_direct_integration(self):
        """The rule's quadrature of the expected faded rate, against direct
        integration over the gains (g = z^2 with z a standard normal)."""
        from scipy.integrate import dblquad, quad
        radio = small_radio(noise=0.02, busy=0.05)
        p, n0, pb = radio.tx_power, radio.noise_power, radio.effective_busy_power
        rule = SliceAccess(np.ones((1, 1), dtype=bool), np.array([2.0]), radio)

        def half_normal(z):
            return 2.0 * np.exp(-0.5 * z * z) / np.sqrt(2.0 * np.pi)

        for k in (0.0, 0.7, 6.0, 150.0):
            idle = quad(lambda z: np.log1p(z * z * p / (k * p + n0)) * half_normal(z),
                        0, np.inf)[0]
            busy = dblquad(lambda w, z: np.log1p(z * z * p / (k * p + w * w * pb + n0))
                           * half_normal(z) * half_normal(w), 0, np.inf, 0, np.inf)[0]
            got = rule._weights @ np.exp(-rule._nodes * k)
            assert got == pytest.approx([idle, busy], rel=1e-6)

    def test_first_step_stays_within_its_error_bound(self):
        """The bound `draw` relies on: after a first step of size D at most
        the settle step, every share lies within K E^2 of the converged one,
        E = D / (1 - 2 K D), over slices of 1 to 5000 devices on 1 to 25 RBs."""
        rng = np.random.default_rng(26)
        widths = rng.integers(1, 26, 400)
        devices = np.where(rng.random(400) < 0.5, rng.integers(1, 40, 400),
                           rng.integers(40, 5001, 400))
        valid, rule = _layout(widths, devices)
        checked = 0
        for idle in (0.9 + 0.05 * rng.random(valid.shape), rng.random(valid.shape),
                     0.5 + 0.01 * rng.random(valid.shape),
                     (rng.random(valid.shape) < 0.8) * 1.0):
            p = np.ascontiguousarray(idle.T)
            y1, moved = rule._first_step(p)
            best = rule.shares(idle).T * valid.sum(axis=1)
            settled = moved <= rule._settle_step
            reach = moved / (1.0 - 2.0 * rule._quad * moved)
            error = np.abs(y1 - best).max(axis=0)
            assert np.all(error[settled] <= rule._quad[settled] * reach[settled] ** 2)
            checked += settled.sum()
        assert checked > 800

    def test_draw_matches_the_converged_shares(self):
        """Each drawn RB is the inverse-CDF pick from the shares, also for
        quantiles just either side of a CDF edge."""
        rng = np.random.default_rng(25)
        valid, rule = _layout(self.widths * 8, self.devices * 8)
        width = valid.sum(axis=1)
        for idle in ([0.9 + 0.05 * rng.random(valid.shape) for _ in range(20)]
                     + [(rng.random(valid.shape) < 0.8) * 1.0, rng.random(valid.shape)]):
            edges = np.cumsum(rule.shares(idle) * width[:, None], axis=1)[:, :-1]
            near = edges[np.arange(len(valid)), rng.integers(0, width.max(), len(valid))
                         % np.maximum(width - 1, 1)]
            for u in (rng.random(len(valid)), (near - 1e-9) / width, (near + 1e-9) / width):
                u = np.clip(u, 0.0, 1.0 - 1e-16)
                want = (((u * width)[:, None] >= edges) & valid[:, 1:]).sum(axis=1) + 1
                assert rule.draw(idle, u).tolist() == want.tolist()


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


def _mesh(n_rbs: int, points: int) -> np.ndarray:
    axes = [np.linspace(0.0, 1.0, points)] * n_rbs
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, n_rbs)


def _sleeps(policy, beliefs: np.ndarray) -> bool:
    valid = np.ones(beliefs.shape, dtype=bool)
    return any(np.any(policy.act_batch(beliefs, valid, k) == SLEEP)
               for k in range(policy.model.horizon))


class TestAccessCertificate:
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(st.data())
    def test_certified_models_are_never_slept_by_a_solver(self, data):
        """Wherever `access_certified` holds, grid (11 points) and exact (R <=
        2, horizon <= 4) access at 300 random beliefs and the 11-point mesh,
        at every slot."""
        n_rbs = data.draw(st.integers(1, 3), label="rbs")
        horizon = data.draw(st.integers(1, 6), label="horizon")
        # half the draws from the sticky, low-busy-rate corner where sleep can pay
        p_ii = data.draw(st.one_of(st.floats(0.0, 1.0), st.floats(0.95, 1.0)), label="p_ii")
        p_bi = data.draw(st.one_of(st.floats(0.0, 1.0), st.floats(0.0, 0.05)), label="p_bi")
        rate_idle = np.array(data.draw(st.lists(st.floats(1.0, 1e6), min_size=n_rbs,
                                                max_size=n_rbs), label="rate_idle"))
        ratios = st.one_of(st.floats(0.0, 1.0), st.floats(0.0, 1e-3))
        busy_ratio = np.array(data.draw(st.lists(ratios, min_size=n_rbs, max_size=n_rbs),
                                        label="busy/idle"))
        model = PomdpModel(
            markov=RbMarkov(p_ii, 1.0 - p_ii, p_bi, 1.0 - p_bi),
            obs=ObservationModel(data.draw(st.floats(0.0, 0.5), label="eps"),
                                 data.draw(st.floats(0.0, 0.5), label="phi")),
            horizon=horizon,
            discount=data.draw(st.sampled_from([0.0, 0.5, 0.9, 1.0]), label="discount"),
            rate_idle=rate_idle, rate_busy=rate_idle * busy_ratio,
            sleep_sensing=data.draw(st.booleans(), label="sleep_sensing"))
        assume(access_certified(model))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        beliefs = np.vstack([rng.random((300, n_rbs)), _mesh(n_rbs, 11)])
        assert not _sleeps(solve_grid(model, 11), beliefs)
        if n_rbs <= 2 and horizon <= 4:
            assert not _sleeps(solve_exact(model), beliefs)

    def test_sleep_paying_regime_falls_back_to_the_solver(self):
        """A sticky chain, a busy/idle rate ratio of 1e-3 and eps >> phi make
        sleep pay near all-busy beliefs: not certified, and grid sleeps."""
        model = PomdpModel(markov=RbMarkov(0.99, 0.01, 0.01, 0.99),
                           obs=ObservationModel(0.45, 0.02), horizon=3, discount=0.9,
                           rate_idle=np.ones(2), rate_busy=np.full(2, 1e-3))
        assert not access_certified(model)
        assert _sleeps(solve_grid(model, 41), _mesh(2, 41))

    def test_zero_discount_is_never_certified(self):
        # earlier slots weigh 0, so access earns nothing there
        assert not access_certified(small_model(horizon=3, eps=0.1, phi=0.3, discount=0.0))
        assert access_certified(small_model(horizon=3, eps=0.1, phi=0.3, discount=0.9))

    def test_access_policy_always_accesses(self):
        model = small_model(n_rbs=3, eps=0.1, phi=0.3)
        policy = pomdp.AccessPolicy(model)
        beliefs = np.random.default_rng(8).random((50, 3))
        valid = np.arange(3) < np.array([1, 2, 3] * 16 + [3, 3])[:, None]
        assert np.all(policy.accesses(beliefs, valid, 0))
        actions = policy.act_batch(beliefs * valid, valid, 0)
        assert np.all((actions >= 1) & (actions <= valid.sum(axis=1)))


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
