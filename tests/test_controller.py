import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from m2msim.channel import CellTopology
from m2msim.controller import (ControllerParams, apply_allocation,
                               closed_loop_reference, delta_rbs, smooth)


class TestParams:
    def test_omega_strictly_inside_unit_interval(self):
        for bad in (0.0, 1.0, -0.1, 1.1):
            with pytest.raises(ValueError):
                ControllerParams(omega=bad, mu=2.0)

    def test_mu_positive(self):
        for bad in (0.0, math.nan, math.inf):
            with pytest.raises(ValueError):
                ControllerParams(omega=0.8, mu=bad)


class TestSmoothing:
    def test_example(self):
        assert smooth(10.0, 20.0, 0.8) == pytest.approx(12.0, abs=1e-15)

    def test_vector_form(self):
        q = smooth(np.array([10.0, 4.0]), np.array([20.0, 8.0]), 0.5)
        assert np.allclose(q, [15.0, 6.0])

    def test_fixed_point(self):
        assert smooth(7.0, 7.0, 0.8) == pytest.approx(7.0, abs=1e-15)


class TestDeltaRbs:
    def test_example(self):
        params = ControllerParams(omega=0.8, mu=2.0)
        d = delta_rbs(np.array([0.1]), np.array([0.0]), 4.0, params)
        assert d[0] == pytest.approx(1.0, abs=1e-15)

    def test_linearity_in_gap(self):
        params = ControllerParams(omega=0.5, mu=1.0)
        a = delta_rbs(np.array([0.2, -0.2]), np.array([0.1, -0.1]), 3.0, params)
        b = delta_rbs(np.array([0.4, -0.4]), np.array([0.2, -0.2]), 3.0, params)
        assert np.allclose(2.0 * a, b, atol=1e-15)

    def test_memory_term_subtracts(self):
        params = ControllerParams(omega=0.8, mu=2.0)
        steady = delta_rbs(np.array([0.1]), np.array([0.125]), 4.0, params)
        assert steady[0] == pytest.approx(0.0, abs=1e-15)

    def test_negative_rate_sum_rejected(self):
        with pytest.raises(ValueError):
            delta_rbs(np.array([0.1]), np.array([0.0]), -1.0,
                      ControllerParams(omega=0.8, mu=2.0))


class TestApplyAllocation:
    topo = CellTopology(total_rbs=12, access_rbs=10, data_rbs=2, devices=4)

    def test_full_pool_increases_are_trimmed_away(self):
        assert apply_allocation([5, 5], [2.0, 2.0], self.topo) == [5, 5]

    def test_zero_sum_swap(self):
        assert apply_allocation([5, 5], [2.0, -2.0], self.topo) == [7, 3]

    def test_rounding_half_away_from_zero(self):
        assert apply_allocation([4, 4], [0.5, -0.5], self.topo) == [5, 3]
        assert apply_allocation([4, 4], [0.49, -0.49], self.topo) == [4, 4]

    def test_floor_of_one_rb(self):
        assert apply_allocation([1, 9], [-3.0, 0.0], self.topo) == [1, 9]
        assert apply_allocation([2, 8], [-5.0, 0.0], self.topo) == [1, 8]

    def test_cap_to_pool(self):
        wide = CellTopology(total_rbs=10, access_rbs=8, data_rbs=2, devices=4)
        assert apply_allocation([6], [10.0], wide) == [8]

    def test_partial_trim_prefers_larger_requests(self):
        # pool 10, requests (+3, +1) from (4, 4): two must be trimmed
        got = apply_allocation([4, 4], [3.0, 1.0], self.topo)
        assert sum(got) == 10
        assert got == [6, 4] or got == [5, 5]
        assert got[0] >= got[1]

    def test_never_exceeds_pool(self):
        rng = np.random.default_rng(8)
        for _ in range(300):
            n = int(rng.integers(2, 6))
            prev = rng.integers(1, 4, size=n)
            while prev.sum() > self.topo.access_rbs:
                prev[np.argmax(prev)] -= 1
            deltas = rng.normal(0.0, 2.0, size=n)
            new = apply_allocation(list(prev), deltas, self.topo)
            assert sum(new) <= self.topo.access_rbs
            assert all(1 <= r <= self.topo.access_rbs for r in new)
            assert all(isinstance(r, int) for r in new)

    def test_rejects_oversubscribed_start(self):
        with pytest.raises(ValueError):
            apply_allocation([9, 9], [0.0, 0.0], self.topo)

    @settings(max_examples=500, deadline=None, derandomize=True)
    @given(st.data())
    def test_only_increases_are_trimmed(self, data):
        """Any valid prior allocation and real corrections: every slice lands
        in [1, pool], the total within the pool, and a slice lands between
        min(prev, want) and want, where want is prev plus the correction
        rounded half away from zero, clamped to [1, pool]."""
        pool = data.draw(st.integers(1, 40), label="pool")
        n = data.draw(st.integers(1, min(pool, 8)), label="slices")
        prev, spare = [], pool - n        # RBs left above every slice's floor of 1
        for _ in range(n):
            extra = data.draw(st.integers(0, spare))
            prev.append(1 + extra)
            spare -= extra
        halves = st.integers(-2 * pool, 2 * pool).map(lambda k: k + 0.5)
        deltas = data.draw(st.lists(
            st.one_of(st.floats(-2.0 * pool, 2.0 * pool), halves),
            min_size=n, max_size=n), label="deltas")
        topo = CellTopology(total_rbs=pool, access_rbs=pool, data_rbs=0, devices=n)

        new = apply_allocation(prev, deltas, topo)

        want = [min(pool, max(1, p + int(math.copysign(math.floor(abs(d) + 0.5), d))))
                for p, d in zip(prev, deltas)]
        assert all(1 <= r <= pool for r in new)
        assert sum(new) <= pool
        assert all(min(p, w) <= r <= w for p, w, r in zip(prev, want, new))


class TestClosedLoop:
    def test_deadbeat_step_tracking(self):
        params = ControllerParams(omega=0.8, mu=2.0)
        targets = np.vstack([np.tile([0.5, 0.5], (3, 1)),
                             np.tile([0.7, 0.3], (7, 1))])
        ref = closed_loop_reference(params, [2.0, 1.0], targets)
        assert np.max(np.abs(ref["gap"][4:])) < 1e-9

    def test_mismatched_plant_gain_breaks_deadbeat(self):
        params = ControllerParams(omega=0.8, mu=2.0)
        targets = np.vstack([np.tile([0.5, 0.5], (3, 1)),
                             np.tile([0.7, 0.3], (7, 1))])
        ref = closed_loop_reference(params, [2.0, 1.0], targets, plant_mu=4.0)
        assert np.max(np.abs(ref["gap"][4:])) > 1e-3

    def test_target_rows_must_be_normalised(self):
        params = ControllerParams(omega=0.8, mu=2.0)
        with pytest.raises(ValueError):
            closed_loop_reference(params, [1.0, 1.0],
                                  np.array([[0.7, 0.7]]))

    def test_width_mismatch_rejected(self):
        params = ControllerParams(omega=0.8, mu=2.0)
        with pytest.raises(ValueError):
            closed_loop_reference(params, [1.0, 1.0, 1.0],
                                  np.array([[0.5, 0.5]]))
