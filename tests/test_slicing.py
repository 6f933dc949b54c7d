import logging

import numpy as np
import pytest

from m2msim.channel import Timebase
from m2msim.slicing import VirtualNetwork, period_average_rate, ratios


class TestVirtualNetwork:
    def test_validation(self):
        with pytest.raises(ValueError, match="device"):
            VirtualNetwork(slice_id=1, devices=0, access_rbs=5, data_rbs=0,
                           weight=1.0)
        with pytest.raises(ValueError, match="weight"):
            VirtualNetwork(slice_id=1, devices=5, access_rbs=5, data_rbs=0,
                           weight=0.0)
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="weight"):
                VirtualNetwork(slice_id=1, devices=5, access_rbs=5, data_rbs=0,
                               weight=bad)
        with pytest.raises(ValueError, match="access"):
            VirtualNetwork(slice_id=1, devices=5, access_rbs=0, data_rbs=0,
                           weight=1.0)


class TestPeriodAverage:
    def test_uniform_slots(self):
        tb = Timebase(slot_duration=1e-3, slots_per_period=4, periods=1)
        assert period_average_rate([3.0, 3.0, 3.0, 3.0], tb) == pytest.approx(3.0)

    def test_mixed_slots_average(self):
        tb = Timebase(slot_duration=2e-3, slots_per_period=5, periods=1)
        rates = [0.0, 10.0, 20.0, 30.0, 40.0]
        assert period_average_rate(rates, tb) == pytest.approx(20.0)

    def test_slot_count_enforced(self):
        tb = Timebase(slot_duration=1e-3, slots_per_period=4, periods=1)
        with pytest.raises(ValueError, match="4"):
            period_average_rate([1.0, 2.0], tb)


class TestRatios:
    def test_shares_and_gaps(self):
        weights = np.array([3.0, 1.5, 1.5, 1.5, 1.0])
        rates = np.array([10.0, 10.0, 10.0, 10.0, 10.0])
        xi, xi_star, gap = ratios(rates, weights)
        assert np.allclose(xi, 0.2)
        assert np.allclose(xi_star, weights / 8.5)
        assert np.allclose(gap, xi_star - xi)
        assert gap.sum() == pytest.approx(0.0, abs=1e-15)

    def test_desired_shares_sum_to_one(self):
        _, xi_star, _ = ratios(np.array([1.0, 2.0]), np.array([3.0, 1.0]))
        assert xi_star.sum() == pytest.approx(1.0, abs=1e-15)
        assert xi_star[0] == pytest.approx(0.75)

    def test_dead_period_logged_not_raised(self, caplog):
        with caplog.at_level(logging.WARNING):
            xi, xi_star, gap = ratios(np.zeros(3), np.array([2.0, 1.0, 1.0]))
        assert np.all(xi == 0.0)
        assert np.allclose(gap, xi_star)
        assert any("no traffic" in rec.message for rec in caplog.records)

    def test_negative_rates_rejected(self):
        with pytest.raises(ValueError):
            ratios(np.array([-1.0, 2.0]), np.array([1.0, 1.0]))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            ratios(np.array([1.0, 2.0, 3.0]), np.array([1.0, 1.0]))
