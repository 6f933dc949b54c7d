import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import cdist

from conftest import PINNED_MARKOV, small_radio, unscreened
from m2msim import cli, pomdp
from m2msim.channel import RbMarkov
from m2msim.pomdp import (SLEEP, BeliefUpdateError, MyopicPolicy,
                          ObservationModel, PomdpModel, SliceAccess,
                          SolverCapError, access_certified, belief_propagate,
                          belief_update, exhaustive_value, reading,
                          solve, solve_exact, solve_grid,
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


def exhaustive_policy_value(model: PomdpModel, belief: np.ndarray, policy) -> float:
    """Exact expected total of a given policy, by `exhaustive_value`'s tree
    expansion with the policy's action in place of the max."""

    def recurse(b: np.ndarray, k: int) -> float:
        if k == model.horizon:
            return 0.0
        a = policy.act(b, k)
        m = belief_propagate(b, model.markov)
        if a == SLEEP:
            total = 0.0
        else:
            pred = m[a - 1] * model.rate_idle[a - 1] + (1 - m[a - 1]) * model.rate_busy[a - 1]
            total = model.slot_weight(k) * pred
        for li, lb in zip(*pomdp._obs_branches(model, a)):
            prob, post = pomdp._branch_step(m, li, lb)
            if prob > 0.0:
                total += prob * recurse(post, k + 1)
        return total

    return recurse(np.asarray(belief, dtype=float), 0)


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
        batched = pomdp.bayes_update(belief_propagate(beliefs, markov), actions, saw_idle,
                                     obs_model.trusted_epsilon, obs_model.trusted_phi,
                                     sleep_sensing)
        readings = np.where(saw_idle, 0, 1)
        if not sleep_sensing:
            readings[np.arange(width) != actions[:, None] - 1] = -1
        rows = np.array([belief_update(beliefs[i], actions[i], readings[i],
                                       markov, obs_model) for i in range(n)])
        assert np.array_equal(batched, rows)


def test_posterior_is_the_bayes_ratio_wherever_no_reading_can_be_impossible():
    """At every trust in [2^-1021, 1), priors 0, 1 and subnormal among them,
    no likelihood is 0 and the posterior is the plain Bayes ratio, bit for
    bit, for a float trust and for a column of them.  A zero-likelihood
    reading (trust 0) keeps the prior."""
    priors = np.array([0.0, 1.0, 5e-324, 2.0 ** -1022, 0.3, 0.5, 1.0 - 2.0 ** -53])
    trusts = [2.0 ** -1021, 1e-300, 0.1, 0.5, 0.9, 1.0 - 2.0 ** -53]
    for saw in (True, False):
        saw_idle = np.full(priors.shape, saw)
        for trust in trusts + [np.array(trusts + [0.5])[:, None]]:
            like_idle = np.where(saw_idle, 1.0 - trust, trust)
            like_busy = np.where(saw_idle, trust, 1.0 - trust)
            denom = like_busy * (1.0 - priors) + like_idle * priors
            assert np.all(denom > 0.0)
            got = pomdp._posterior(np.broadcast_to(priors, denom.shape), saw_idle, trust)
            assert np.array_equal(got, like_idle * priors / denom)
    kept = pomdp._posterior(np.array([0.0, 1.0, 0.4]), np.array([True, False, True]), 0.0)
    assert kept.tolist() == [0.0, 1.0, 1.0]


def test_bayes_update_keeps_the_prediction_when_every_device_sleeps():
    """Without sleep sensing a slot in which every device sleeps hears
    nothing, also where the rows weigh the accessed reading at trusted
    epsilons of their own (the runs of a batch that differ in it): the
    step redoes no entry and returns the prediction."""
    rng = np.random.default_rng(11)
    predicted = rng.random((6, 3))
    saw_idle = rng.random((6, 3)) < 0.5
    trust_eps = np.repeat([0.1, 0.3], 3)[:, None]
    for trust_phi in (0.2, trust_eps):
        got = pomdp.bayes_update(predicted, np.zeros(6, dtype=int), saw_idle,
                                 trust_eps, trust_phi, sleep_sensing=False)
        assert np.array_equal(got, predicted)


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
                                     obs_model.trusted_epsilon, obs_model.trusted_phi,
                                     sleep_sensing)
        assert np.all(np.isfinite(beliefs))
        assert np.all((beliefs >= 0.0) & (beliefs <= 1.0))


class TestObserve:
    """The sensor's reading law, `reading`, on single states."""

    def test_flip_extremes(self):
        u = np.random.default_rng(1).random(50)
        assert np.all(reading(0, u, 0.0) == 0)
        assert np.all(reading(0, u, 1.0) == 1)
        assert np.all(reading(1, u, 1.0) == 0)

    def test_flip_frequency(self):
        u = np.random.default_rng(3).random(20_000)
        assert reading(0, u, 0.3).mean() == pytest.approx(0.3, abs=0.01)


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
        # (empty) information whatever the action, heard or not
        assert small_model(eps=0.6, phi=0.5).action_independent_observations()
        assert small_model(eps=0.6, phi=0.5, sleep_sensing=False
                           ).action_independent_observations()
        assert ObservationModel(0.6, 0.5).uninformative
        assert not ObservationModel(0.5, 0.4).uninformative


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

    @pytest.mark.parametrize("backend", [
        MyopicPolicy, solve_exact, lambda model: solve_grid(model, grid_points=21)],
        ids=["myopic", "exact", "grid"])
    def test_rows_match_single_acts(self, backend):
        rng = np.random.default_rng(12)
        model = small_model(n_rbs=2, horizon=3, eps=0.25, discount=0.8)
        policy = backend(model)
        beliefs = rng.random((30, 2))
        beliefs[:3] = [[0.5, 0.5], [0.0, 1.0], [1.0, 1.0]]
        for slot in range(model.horizon):
            got = policy.act_batch(beliefs, slot)
            assert got.tolist() == [policy.act(b, slot) for b in beliefs]


def _layout(widths, devices):
    widths = np.asarray(widths)
    valid = np.arange(widths.max())[None, :] < widths[:, None]
    return valid, SliceAccess(valid, np.asarray(devices, dtype=float), small_radio())


def _step_bound(rule, spread):
    """D of the `SliceAccess` docstring per row, from the layout's tables."""
    low = np.minimum(rule._curv_busy0, rule._curv_busy0 + rule._curv_gap0)
    return np.abs(rule._gain_gap0) * spread * rule._width / low


def _stacked_layout(rng, runs=3, least_devices=1):
    """Runs of 1 to 40 rows stacked in one layout, each row of 1 to 25 RBs
    and its own slice size, each run padded to its widest row: the valid
    mask, the run bounds and the slice sizes.  The first row is one RB wide
    and, with least_devices 1, the second is a one-device slice."""
    widths = [rng.integers(1, 26, rng.integers(2, 41)) for _ in range(runs)]
    widths[0][0] = 1
    top = max(w.max() for w in widths)
    valid = np.concatenate([np.arange(top)[None, :] < w[:, None] for w in widths])
    bounds = np.cumsum([0] + [len(w) for w in widths])
    devices = np.where(rng.random(len(valid)) < 0.5, rng.integers(least_devices, 40, len(valid)),
                       rng.integers(40, 5001, len(valid))).astype(float)
    devices[1] = least_devices
    return valid, bounds, devices


def _near_integers(rng, width, scale):
    """u putting t = u * width on an interior integer (scale 0) or within
    scale of one, either side; one-RB rows draw at random."""
    j = rng.integers(1, np.maximum(width, 2))
    u = (j + scale * rng.choice([-1.0, 1.0], len(width))) / width
    return np.where(width > 1, np.clip(u, 0.0, 1.0 - 2.0 ** -53), rng.random(len(width)))


def _screen_beliefs(rng, valid, case):
    """Idle probabilities (N, R) and a per-row bound on their spread.

    narrow: inside [lo, lo + 0.05], as the informed arm's predictions lie in
    [p_bi, p_ii], with each row's first and last RB at the ends, so the
    spread equals its bound; corners: 0 and 1, bound 1; wide: anywhere in
    [0, 1], bound 1; equal: one value per row, bound 0 (the random arm);
    ulp: one value per row, every other RB one unit of roundoff above it,
    under a bound of 0."""
    n, top = valid.shape
    width = valid.sum(axis=1)
    if case == "narrow":
        lo = rng.uniform(0.0, 0.95, (n, 1))
        hi = lo + 0.05
        idle = np.clip(lo + 0.05 * rng.random((n, top)), lo, hi)
        idle[:, 0] = lo[:, 0]
        idle[np.arange(n), width - 1] = hi[:, 0]
        spread = (hi - lo)[:, 0]
    elif case == "corners":
        idle, spread = (rng.random((n, top)) < 0.7) * 1.0, np.ones(n)
    elif case == "wide":
        idle, spread = rng.random((n, top)), np.ones(n)
    else:
        idle = np.repeat(rng.uniform(0.0, 1.0, (n, 1)), top, axis=1)
        if case == "ulp":
            idle[:, 1::2] = np.nextafter(idle[:, 1::2], 2.0)
        spread = np.zeros(n)
    return np.where(valid, idle, rng.random((n, top))), spread


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

    def test_stacked_runs_draw_as_their_own_layouts(self, monkeypatch):
        """Runs stacked in one rule, each padded to the widest run, draw and
        share what each run's own rule gives, bit for bit, and solve to
        convergence the same rows (beliefs of 0 and 1, slices of thousands,
        quantiles at a row's last edge), each run's on its own."""
        runs = [([1, 3, 5, 2], [1, 4, 30, 2]), ([2, 3, 2], [4000, 7, 7]), ([4, 1], [5, 900])]
        own_widths = [max(widths) for widths, _ in runs]
        own = [_layout(widths, devices)[1] for widths, devices in runs]
        bounds = np.cumsum([0] + [len(widths) for widths, _ in runs])
        valid = np.concatenate([np.arange(max(own_widths))[None, :]
                                < np.asarray(widths)[:, None] for widths, _ in runs])
        stacked = SliceAccess(valid, np.concatenate([d for _, d in runs]).astype(float),
                              small_radio(), bounds)
        solved = {id(rule): [] for rule in [stacked] + own}
        converge = SliceAccess._converge

        def recording(rule, p, y, moved, rows):
            solved[id(rule)].append(np.asarray(rows))
            return converge(rule, p, y, moved, rows)

        def solved_by_run():
            """(run, rows within it) of each solve since the last call, by the
            stacked rule and by the runs' own rules; a stacked solve lies in
            one run."""
            got = []
            for rows in solved[id(stacked)]:
                run = int(np.searchsorted(bounds, rows.max(), "right")) - 1
                assert rows.min() >= bounds[run]
                got.append((run, (rows - bounds[run]).tolist()))
            want = [(run, rows.tolist()) for run, rule in enumerate(own)
                    for rows in solved[id(rule)]]
            for calls in solved.values():
                calls.clear()
            return got, want

        monkeypatch.setattr(SliceAccess, "_converge", recording)
        rng = np.random.default_rng(27)
        for idle in ((rng.random(valid.shape) < 0.8) * 1.0, rng.random(valid.shape),
                     0.9 + 0.05 * rng.random(valid.shape)):
            u = rng.random(len(valid))
            u[1::2] = 1.0 - 1e-12          # at each row's last edge
            drawn = stacked.draw(idle, u)
            for rule, width, lo, hi in zip(own, own_widths, bounds[:-1], bounds[1:]):
                assert np.array_equal(drawn[lo:hi], rule.draw(idle[lo:hi, :width], u[lo:hi]))
            got, want = solved_by_run()
            assert got == want
            shares = stacked.shares(idle)
            for rule, width, lo, hi in zip(own, own_widths, bounds[:-1], bounds[1:]):
                assert np.array_equal(shares[lo:hi, :width],
                                      rule.shares(idle[lo:hi, :width]))
            got, want = solved_by_run()
            assert got == want and len(got) == len(runs)

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

    @pytest.mark.parametrize("case", ["narrow", "corners", "wide", "equal", "ulp"])
    def test_screen_draws_what_the_unscreened_rule_draws(self, case, monkeypatch):
        """Over random stacked layouts (runs of different widths, one-RB rows,
        one-device slices), the screened rule draws every row's RB as the
        rule without the screen does, and converges the same rows in the same
        stacks, at random quantiles, on interior integers and within 1e-12 of
        them.  Under the ulp case's zero bound the slices have two devices
        or more: a lone device's curvature floor turns one unit of roundoff
        into a share move of about 1e-4, so no fixed slack covers it."""
        solved = {}
        converge = SliceAccess._converge
        stepped = []
        first_step = SliceAccess._first_step

        def recording(rule, p, y, moved, rows):
            solved.setdefault(id(rule), []).append(np.asarray(rows).tolist())
            return converge(rule, p, y, moved, rows)

        def counting(rule, p, rows=slice(None)):
            stepped.append(p.shape[1])
            return first_step(rule, p, rows)

        monkeypatch.setattr(SliceAccess, "_converge", recording)
        monkeypatch.setattr(SliceAccess, "_first_step", counting)
        rng = np.random.default_rng(28)
        rows = settled = 0
        for _ in range(4):
            valid, bounds, devices = _stacked_layout(rng, least_devices=2 if case == "ulp" else 1)
            idle, spread = _screen_beliefs(rng, valid, case)
            rule = SliceAccess(valid, devices, small_radio(), bounds, spread)
            reference = unscreened(rule)
            width = valid.sum(axis=1)
            for at_random, u in ((True, rng.random(len(valid))),
                                 (False, _near_integers(rng, width, 0.0)),
                                 (False, _near_integers(rng, width, 1e-12)),
                                 (False, _near_integers(rng, width, 1e-9))):
                stepped.clear()
                got = rule.draw(idle, u)
                if at_random:
                    rows += len(u)
                    settled += len(u) - sum(stepped)
                assert got.tolist() == reference.draw(idle, u).tolist()
                assert solved.pop(id(rule), []) == solved.pop(id(reference), [])
        if case in ("narrow", "equal", "ulp"):       # the screen does settle rows
            assert settled > rows / 2

    def test_first_step_stays_within_the_screen_bound(self):
        """Every share moves by at most D in the first step, and first-step
        CDF edge j lies within j (w - j) / w * D of the integer j, for
        beliefs that meet the row's spread bound (rows with D < 1/2, where
        no share can turn negative)."""
        rng = np.random.default_rng(29)
        checked = 0
        for _ in range(6):
            valid, bounds, devices = _stacked_layout(rng)
            for case in ("narrow", "corners", "wide", "equal"):
                idle, spread = _screen_beliefs(rng, valid, case)
                rule = SliceAccess(valid, devices, small_radio(), bounds, spread)
                width = valid.sum(axis=1)
                bound = _step_bound(rule, np.where(width > 1, spread, 0.0))
                y, moved = rule._first_step(np.ascontiguousarray(idle.T))
                free = bound < 0.5
                assert np.all(moved[free] <= bound[free] * (1.0 + 1e-12) + 1e-15)
                j = np.arange(1, valid.shape[1])[:, None]
                edge = np.abs(np.cumsum(y, axis=0)[:-1] - j)
                room = j * (width - j) / width * bound + 1e-12
                inner = (j < width) & free
                assert np.all(edge[inner] <= room[inner])
                checked += free.sum()
        assert checked > 200

    def test_random_rows_settle_in_a_mixed_batch(self, monkeypatch):
        """Rows with equal idle probabilities (bound 0) settle at the uniform
        pick one by one, beside rows that must take the first step."""
        rng = np.random.default_rng(30)
        valid = _layout(self.widths * 4, self.devices * 4)[0]
        n = len(valid)
        spread = np.where(np.arange(n) % 2 == 0, 0.0, 1.0)
        rule = SliceAccess(valid, np.asarray(self.devices * 4, dtype=float),
                           small_radio(), spread=spread)
        idle = np.where(np.arange(n)[:, None] % 2 == 0, 1.0, rng.random(valid.shape))
        stepped = []
        first_step = SliceAccess._first_step

        def recording(rule, p, rows=slice(None)):
            stepped.append(np.arange(n)[rows])
            return first_step(rule, p, rows)

        monkeypatch.setattr(SliceAccess, "_first_step", recording)
        u = rng.random(n)
        assert rule.draw(idle, u).tolist() == unscreened(rule).draw(idle, u).tolist()
        screened, full = stepped
        assert len(full) == n and np.all(screened % 2 == 1)

    @pytest.mark.parametrize("width, devices, spread", [(10, 30, 0.02), (6, 5, 0.01)])
    def test_the_screens_edge_bound_is_nearly_tight(self, width, devices, spread):
        """Half a row's RBs at the top of its spread and half at the bottom
        move the middle CDF edge by over 99% of the screen's bound,
        j (w - j) / w * D; a t between that edge and its integer must not
        settle at int(t) + 1, and does not."""
        valid = np.ones((1, width), dtype=bool)
        rule = SliceAccess(valid, np.array([float(devices)]), small_radio(),
                           spread=np.array([spread]))
        j = width // 2
        idle = np.r_[np.full(j, spread), np.zeros(width - j)][None, :]
        edge = np.cumsum(rule._first_step(np.ascontiguousarray(idle.T))[0][:, 0])[j - 1]
        bound = j * (width - j) / width * _step_bound(rule, spread)[0]
        assert 0.99 * bound < abs(edge - j) <= bound
        for part in (0.5, 0.9, 0.99):
            u = np.array([(j + part * (edge - j)) / width])
            drawn = rule.draw(idle, u)
            assert drawn.tolist() == unscreened(rule).draw(idle, u).tolist()
            assert drawn[0] != int(u[0] * width) + 1

    def test_a_lone_unsettled_row_steps_as_in_the_whole_layout(self, monkeypatch):
        """Where the screen leaves one row, its first step still runs on two
        columns: numpy adds a lone column's axis pairwise, which changes the
        bits of the step and so of the shares `_converge` starts from."""
        n = 31
        valid, _ = _layout([12] + [5] * (n - 1), [50] * n)
        rule = SliceAccess(valid, np.full(n, 50.0), small_radio(),
                           spread=np.r_[1.0, np.zeros(n - 1)])
        reference = unscreened(rule)
        solved = {id(rule): [], id(reference): []}
        converge = SliceAccess._converge

        def recording(rule, p, y, moved, rows):
            solved[id(rule)].append((np.asarray(rows).tolist(), y.tobytes(), moved.tobytes()))
            return converge(rule, p, y, moved, rows)

        monkeypatch.setattr(SliceAccess, "_converge", recording)
        rng = np.random.default_rng(31)
        for _ in range(20):
            idle = np.where(valid, 0.9, 0.0)
            idle[0] = rng.random(12) < 0.5
            u = np.r_[rng.random(), np.full(n - 1, 0.5)]    # t = 2.5: settled
            assert rule.draw(idle, u).tolist() == reference.draw(idle, u).tolist()
        assert solved[id(rule)] == solved[id(reference)]
        assert sum(rows == [0] for rows, _, _ in solved[id(rule)]) >= 10


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

    def test_myopic_is_optimal_without_information(self):
        """No reading carries information and sleepers hear nothing: the
        greedy rule's value is the optimum at every belief, and so is the
        exact solver's, which shares one future among the actions here."""
        rng = np.random.default_rng(9)
        model = small_model(n_rbs=2, horizon=3, eps=0.7, phi=0.5, discount=0.0,
                            sleep_sensing=False)
        myopic, exact = MyopicPolicy(model), solve_exact(model)
        beliefs = rng.random((8, 2))
        optimum = exhaustive_value(model, beliefs)
        for b, best in zip(beliefs, optimum):
            assert exhaustive_policy_value(model, b, myopic) == pytest.approx(best, abs=1e-12)
            assert exact.value(b) == pytest.approx(best, abs=1e-12)

    def test_myopic_requires_action_independence(self):
        # neither action-independent nor certified: discount 0 never is
        model = small_model(eps=0.1, phi=0.4, discount=0.0)
        assert not access_certified(model)
        with pytest.raises(ValueError, match="myopic"):
            MyopicPolicy(model)

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

    def test_grid_cap_counts_every_array_it_holds(self, monkeypatch):
        # horizon + 1 value tables, the (G**R, R) mesh and the (G**R, R + 1)
        # action values; 1001**2 points fit the cap as one table, not as 9
        model = small_model(n_rbs=2, horizon=3)
        assert 1001 ** 2 <= 4_000_000
        with pytest.raises(SolverCapError, match="1001\\*\\*2"):
            solve_grid(model, grid_points=1001)
        entries = 11 ** 2 * (3 + 1 + 2 + 2 + 1)
        monkeypatch.setattr(pomdp, "_GRID_CAP", entries)
        solve_grid(model, grid_points=11)
        monkeypatch.setattr(pomdp, "_GRID_CAP", entries - 1)
        with pytest.raises(SolverCapError):
            solve_grid(model, grid_points=11)

    @pytest.mark.parametrize("n_rbs,points,horizon", [(3, 41, 8), (1, 401, 6)])
    def test_grid_cap_bounds_the_peak(self, n_rbs, points, horizon):
        """The backup runs over the mesh in chunks, so the traced peak stays
        within the counted entries plus 64 KB of fixed overhead (the branch
        lists and small arrays that no count scales with)."""
        model = small_model(n_rbs=n_rbs, horizon=horizon, eps=0.1, phi=0.3)
        counted = 8 * points ** n_rbs * (horizon + 1 + n_rbs + n_rbs + 1)
        solve_grid(model, grid_points=3)         # warm the branch lists
        tracemalloc.start()
        try:
            solve_grid(model, grid_points=points)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= counted + 64 * 1024

    def test_exact_cap(self):
        model = PomdpModel(markov=PINNED_MARKOV,
                           obs=ObservationModel.symmetric(0.1),
                           horizon=2, discount=0.9,
                           rate_idle=np.ones(5), rate_busy=np.zeros(5))
        with pytest.raises(SolverCapError):
            solve_exact(model)

    def test_auto_mode_selection(self):
        # action-independent observations, then a certified model: the greedy rule
        assert solve(small_model(eps=0.2), mode="auto").mode == "myopic"
        certified = small_model(eps=0.2, phi=0.3)
        assert access_certified(certified)
        assert solve(certified, mode="auto").mode == "myopic"
        # neither (discount 0 is never certified): exact up to 2 RBs, grid beyond
        for n_rbs, mode in ((1, "exact"), (2, "exact"), (3, "grid")):
            model = small_model(n_rbs=n_rbs, eps=0.2, phi=0.3, discount=0.0)
            assert not access_certified(model)
            assert solve(model, mode="auto", grid_points=21).mode == mode
        # and exact only up to 8 slots
        long = small_model(n_rbs=1, horizon=9, eps=0.2, phi=0.3, discount=0.0)
        assert solve(long, mode="auto", grid_points=21).mode == "grid"
        # readings that carry no information, without sleep sensing: the greedy rule
        blind = small_model(eps=0.6, phi=0.5, discount=0.0, sleep_sensing=False)
        assert not access_certified(blind)
        assert solve(blind, mode="auto").mode == "myopic"
        for mode in ("banana", "myopic"):
            with pytest.raises(ValueError, match="mode"):
                solve(small_model(), mode=mode)

    def test_horizon_one_is_pure_greedy(self):
        model = small_model(n_rbs=2, horizon=1, eps=0.3, discount=0.0)
        policy = solve_exact(model)
        b = np.array([0.9, 0.1])
        expected = np.max(np.concatenate(
            [[0.0], belief_propagate(b, model.markov) * model.rate_idle
             + (1 - belief_propagate(b, model.markov)) * model.rate_busy]))
        assert policy.value(b) == pytest.approx(expected, abs=1e-12)


class TestJointTables:
    """The bit table the exact solver and the oracle share, checked on its own
    at random beliefs and at every corner of {0, 1}**R."""

    @staticmethod
    def beliefs(n_rbs: int) -> np.ndarray:
        corners = (pomdp._state_bits(n_rbs) == 0).astype(float)
        return np.vstack([np.random.default_rng(n_rbs).random((50, n_rbs)), corners])

    def test_bits_count_in_binary_with_rb_0_on_top(self):
        assert pomdp._state_bits(0).shape == (1, 0)
        for n_rbs in range(1, 5):
            bits = pomdp._state_bits(n_rbs)
            assert bits.shape == (2 ** n_rbs, n_rbs)
            assert (bits @ 2 ** np.arange(n_rbs)[::-1]).tolist() == list(range(2 ** n_rbs))

    def test_branch_probabilities_sum_to_one(self):
        for n_rbs, sleep_sensing in itertools.product(range(1, 5), (True, False)):
            model = small_model(n_rbs=n_rbs, eps=0.1, phi=0.3, sleep_sensing=sleep_sensing)
            m = self.beliefs(n_rbs)
            for a in range(n_rbs + 1):
                li, lb = pomdp._obs_branches(model, a)
                assert len(li) == 2 ** (n_rbs if sleep_sensing else int(a != SLEEP))
                prob, _ = pomdp._branch_step(m, li[:, None, :], lb[:, None, :])
                np.testing.assert_allclose(prob.sum(axis=0), 1.0, rtol=0.0, atol=1e-12)

    def test_branch_posteriors_match_belief_update(self):
        """Branch j is the reading `_state_bits` lists j-th over the heard RBs,
        and its posterior is `belief_update`'s after that reading."""
        for n_rbs, sleep_sensing in itertools.product(range(1, 4), (True, False)):
            model = small_model(n_rbs=n_rbs, eps=0.1, phi=0.3, sleep_sensing=sleep_sensing)
            b = np.random.default_rng(n_rbs).random(n_rbs)
            m = belief_propagate(b, model.markov)
            for a in range(n_rbs + 1):
                heard = np.full(n_rbs, sleep_sensing) | (np.arange(n_rbs) == a - 1)
                patterns = pomdp._state_bits(int(heard.sum()))
                for li, lb, pattern in zip(*pomdp._obs_branches(model, a), patterns):
                    reading = np.full(n_rbs, -1)
                    reading[heard] = pattern
                    want = belief_update(b, a, reading, model.markov, model.obs)
                    np.testing.assert_allclose(pomdp._branch_step(m, li, lb)[1], want,
                                               rtol=0.0, atol=1e-12)

    def test_product_law_has_the_beliefs_as_marginals(self):
        for n_rbs in range(1, 5):
            beliefs = self.beliefs(n_rbs)
            joint = pomdp.AlphaPolicy._joint(beliefs)
            np.testing.assert_allclose(joint.sum(axis=1), 1.0, rtol=0.0, atol=1e-12)
            idle = pomdp._state_bits(n_rbs) == 0
            np.testing.assert_allclose(joint @ idle, beliefs, rtol=0.0, atol=1e-12)


def _tangents(points: np.ndarray, centre: np.ndarray) -> np.ndarray:
    """Alpha vectors of the tangent planes of |x - centre|**2 at `points`:
    on the simplex (sum x = 1) row i dotted with x is the plane at points[i]."""
    grad = 2.0 * (points - centre)
    offset = np.sum((points - centre) ** 2, axis=1) - np.sum(grad * points, axis=1)
    return grad + offset[:, None]


def _envelope(rows: np.ndarray, beliefs: np.ndarray) -> np.ndarray:
    return np.concatenate([np.max(chunk @ rows.T, axis=1)
                           for chunk in np.array_split(beliefs, 20)])


@pytest.mark.parametrize("s", [2, 4])
def test_prune_keeps_the_envelope_through_the_witness_lp(s):
    """Tangents of a strictly convex function each win alone at their own
    touch point.  One touches at every probe, so each probe certifies its
    own; three touch in the widest gap between the probes, so no probe
    certifies them and only the witness LP can keep them.  With three, one
    pending vector beats another at its witness and is promoted."""
    rng = np.random.default_rng(17)
    probes = pomdp._probes(s)
    candidates = rng.dirichlet(np.ones(s), size=5_000)
    dist = cdist(candidates, probes).min(axis=1)
    far = candidates[np.argmax(dist)]
    # the other two gap points step half the gap radius from the farthest
    # one, towards its nearest corner and towards the simplex centre
    gap = [far]
    for target in (np.eye(s)[np.argmax(far)], np.full(s, 1.0 / s)):
        step = target - far
        gap.append(far + 0.5 * dist.max() * step / np.linalg.norm(step))
    rows = _tangents(np.vstack([probes, gap]), centre=np.linspace(0.1, 0.3, s))
    kept = pomdp._prune(rows)
    as_sets = lambda a: {tuple(r) for r in a}
    assert as_sets(kept) <= as_sets(rows)
    assert as_sets(rows[-3:]) <= as_sets(kept)
    beliefs = np.vstack([probes, rng.dirichlet(np.ones(s), size=100_000)])
    np.testing.assert_allclose(_envelope(kept, beliefs), _envelope(rows, beliefs),
                               rtol=1e-13, atol=0.0)


def _mesh(n_rbs: int, points: int) -> np.ndarray:
    axes = [np.linspace(0.0, 1.0, points)] * n_rbs
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, n_rbs)


def _sleeps(policy, beliefs: np.ndarray) -> bool:
    return any(np.any(policy.act_batch(beliefs, k) == SLEEP)
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
        """On a certified model the greedy rule is admitted although eps !=
        phi, and it accesses at every belief and slot, at any width."""
        rng = np.random.default_rng(8)
        for width in (1, 2, 3):
            model = small_model(n_rbs=width, eps=0.1, phi=0.3)
            assert access_certified(model) and not model.action_independent_observations()
            policy = MyopicPolicy(model)
            beliefs = rng.random((50, width))
            for slot in range(model.horizon):
                assert policy.all_access(slot)
                actions = policy.act_batch(beliefs, slot)
                assert np.all((actions >= 1) & (actions <= width))


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
