import numpy as np
import pytest

from m2msim.channel import (BUSY, IDLE, CellTopology, RadioParams, RbMarkov,
                            Timebase, dbm_to_watts, evolve_many, rate)


def test_dbm_conversion():
    assert dbm_to_watts(0.0) == pytest.approx(1e-3, rel=1e-15)
    assert dbm_to_watts(20.0) == pytest.approx(0.1, rel=1e-15)
    assert dbm_to_watts(30.0) == pytest.approx(1.0, rel=1e-15)


class TestRbMarkov:
    def test_matrix_rows_sum_to_one(self):
        m = RbMarkov(0.9, 0.1, 0.95, 0.05).as_matrix()
        assert np.allclose(m.sum(axis=1), 1.0)

    def test_row_sum_violation_rejected(self):
        with pytest.raises(ValueError, match="row"):
            RbMarkov(0.9, 0.2, 0.95, 0.05)

    def test_probability_range_rejected(self):
        with pytest.raises(ValueError, match="p_idle_idle"):
            RbMarkov(1.2, -0.2, 0.95, 0.05)

    def test_stationary_idle_value(self):
        # solve pi = pi P by hand: idle mass = p_bi / (p_ib + p_bi)
        chain = RbMarkov(0.9, 0.1, 0.95, 0.05)
        assert chain.stationary_idle() == pytest.approx(0.95 / 1.05, abs=1e-15)

    def test_stationary_needs_movement(self):
        with pytest.raises(ValueError, match="absorbing"):
            RbMarkov(1.0, 0.0, 0.0, 1.0).stationary_idle()


class TestEvolution:
    def test_vectorised_matches_scalar(self):
        chain = RbMarkov(0.7, 0.3, 0.4, 0.6)
        rng = np.random.default_rng(3)
        states = rng.integers(0, 2, size=200)
        uniforms = rng.random(200)
        got = evolve_many(states, chain, uniforms)
        # scalar rule applied elementwise with the same uniforms
        expected = np.array([
            IDLE if u < (chain.p_idle_idle if s == IDLE else chain.p_busy_idle)
            else BUSY
            for s, u in zip(states, uniforms)])
        assert np.array_equal(got, expected)

    def test_scalar_long_run_frequency(self):
        chain = RbMarkov(0.9, 0.1, 0.95, 0.05)
        rng = np.random.default_rng(11)
        state, idles = IDLE, 0
        n = 40_000
        for _ in range(n):
            state = int(evolve_many(state, chain, rng.random()))
            idles += state == IDLE
        assert idles / n == pytest.approx(chain.stationary_idle(), abs=0.01)

    def test_deterministic_chains(self):
        frozen = RbMarkov(1.0, 0.0, 0.0, 1.0)
        u = np.array([0.3, 0.99])
        assert np.array_equal(evolve_many(np.array([IDLE, BUSY]), frozen, u),
                              np.array([IDLE, BUSY]))


class TestRadio:
    def test_rate_formula(self):
        params = RadioParams(bandwidth_per_rb=1e6, tx_power=0.1,
                             noise_power=0.01)
        clean = rate(0.1, 0.0, params)
        assert clean == pytest.approx(1e6 * np.log2(1 + 10.0), rel=1e-12)
        jammed = rate(0.1, 0.1 * 2.0, params)
        assert jammed == pytest.approx(
            1e6 * np.log2(1 + 0.1 / (0.2 + 0.01)), rel=1e-12)
        assert jammed < clean
        per_device = rate(np.array([0.1, 0.1, 0.0]), np.array([0.0, 0.2, 0.2]), params)
        assert np.array_equal(per_device, [clean, jammed, 0.0])

    def test_busy_power_defaults_to_tx_power(self):
        p = RadioParams(bandwidth_per_rb=1e6, tx_power=0.1, noise_power=0.01)
        assert p.effective_busy_power == 0.1
        q = RadioParams(bandwidth_per_rb=1e6, tx_power=0.1, noise_power=0.01,
                        busy_power=0.5)
        assert q.effective_busy_power == 0.5

    def test_validation(self):
        with pytest.raises(ValueError, match="noise_power"):
            RadioParams(bandwidth_per_rb=1e6, tx_power=0.1, noise_power=0.0)
        with pytest.raises(ValueError, match="busy_power"):
            RadioParams(bandwidth_per_rb=1e6, tx_power=0.1, noise_power=0.01,
                        busy_power=-1.0)
        good = dict(bandwidth_per_rb=1e6, tx_power=0.1, noise_power=0.01,
                    busy_power=0.1)
        for key in good:
            for bad in (float("nan"), float("inf")):
                with pytest.raises(ValueError, match=key):
                    RadioParams(**{**good, key: bad})


class TestTimebase:
    def test_period_duration(self):
        tb = Timebase(slot_duration=1e-3, slots_per_period=20, periods=30)
        assert tb.period_duration == pytest.approx(0.02, rel=1e-15)

    def test_validation(self):
        with pytest.raises(ValueError):
            Timebase(slot_duration=0.0, slots_per_period=20, periods=30)
        with pytest.raises(ValueError):
            Timebase(slot_duration=1e-3, slots_per_period=0, periods=30)
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="slot_duration"):
                Timebase(slot_duration=bad, slots_per_period=20, periods=30)


class TestTopology:
    def test_pool_split_must_cover_total(self):
        with pytest.raises(ValueError, match="total"):
            CellTopology(total_rbs=25, access_rbs=20, data_rbs=4, devices=50)

    def test_valid_split(self):
        topo = CellTopology(total_rbs=25, access_rbs=25, data_rbs=0, devices=50)
        assert topo.access_rbs + topo.data_rbs == topo.total_rbs
