"""Physical-layer primitives: slotted two-state resource blocks and Shannon rates.

Each resource block (RB) is an independent two-state Markov chain over
{idle, busy} that steps once per slot.  A transmitting device sees a
chi-square fading power gain (squared unit normal, mean 1) and achieves a
Shannon rate against the summed interference it experiences on its RB.
`rate` is that law, vectorised over devices; the simulator's slot rates and
its mean-gain planning rates both call it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

IDLE = 0
BUSY = 1


def dbm_to_watts(dbm: float) -> float:
    return 10.0 ** (dbm / 10.0) * 1e-3


@dataclass(frozen=True)
class Timebase:
    """Slot/period clock: a period is slots_per_period slots of slot_duration seconds."""

    slot_duration: float
    slots_per_period: int
    periods: int

    def __post_init__(self):
        if not 0.0 < self.slot_duration < np.inf:
            raise ValueError("slot_duration must be positive")
        if self.slots_per_period < 1:
            raise ValueError("slots_per_period must be >= 1")
        if self.periods < 1:
            raise ValueError("periods must be >= 1")

    @property
    def period_duration(self) -> float:
        return self.slot_duration * self.slots_per_period


@dataclass(frozen=True)
class RbMarkov:
    """Per-slot RB occupancy transition probabilities (rows sum to 1)."""

    p_idle_idle: float
    p_idle_busy: float
    p_busy_idle: float
    p_busy_busy: float

    def __post_init__(self):
        for name in ("p_idle_idle", "p_idle_busy", "p_busy_idle", "p_busy_busy"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {p}")
        if abs(self.p_idle_idle + self.p_idle_busy - 1.0) > 1e-12:
            raise ValueError("idle row must sum to 1")
        if abs(self.p_busy_idle + self.p_busy_busy - 1.0) > 1e-12:
            raise ValueError("busy row must sum to 1")

    def as_matrix(self) -> np.ndarray:
        return np.array(
            [[self.p_idle_idle, self.p_idle_busy],
             [self.p_busy_idle, self.p_busy_busy]]
        )

    def stationary_idle(self) -> float:
        """Long-run idle occupancy; requires the chain to actually move."""
        denom = self.p_idle_busy + self.p_busy_idle
        if denom == 0.0:
            raise ValueError("chain has two absorbing states, no unique stationary law")
        return self.p_busy_idle / denom


@dataclass(frozen=True)
class RadioParams:
    """Link-level constants shared by every RB.

    bandwidth_per_rb: Hz carried by one RB.
    tx_power: device transmit power in watts (already converted from dBm).
    noise_power: receiver noise power in watts.
    busy_power: received power of the exogenous occupant of a busy RB; None
    means it transmits like a device (tx_power).
    """

    bandwidth_per_rb: float
    tx_power: float
    noise_power: float
    busy_power: Optional[float] = None

    def __post_init__(self):
        if not 0.0 < self.bandwidth_per_rb < np.inf:
            raise ValueError("bandwidth_per_rb must be positive")
        if not 0.0 <= self.tx_power < np.inf:
            raise ValueError("tx_power must be non-negative")
        if not 0.0 < self.noise_power < np.inf:
            raise ValueError("noise_power must be positive")
        if self.busy_power is not None and not 0.0 <= self.busy_power < np.inf:
            raise ValueError("busy_power must be non-negative")

    @property
    def effective_busy_power(self) -> float:
        return self.tx_power if self.busy_power is None else self.busy_power


@dataclass(frozen=True)
class CellTopology:
    """Cell-wide RB budget split into a random-access pool and a data pool."""

    total_rbs: int
    access_rbs: int
    data_rbs: int
    devices: int

    def __post_init__(self):
        if self.access_rbs < 1:
            raise ValueError("access_rbs must be >= 1")
        if self.data_rbs < 0:
            raise ValueError("data_rbs must be >= 0")
        if self.access_rbs + self.data_rbs != self.total_rbs:
            raise ValueError("access_rbs + data_rbs must equal total_rbs")
        if self.devices < 1:
            raise ValueError("devices must be >= 1")


def evolve_many(states: np.ndarray, markov: RbMarkov, uniforms: np.ndarray) -> np.ndarray:
    """Next occupancy of each RB: one uniform draw per RB, supplied by the caller."""
    p_idle = np.where(states == IDLE, markov.p_idle_idle, markov.p_busy_idle)
    return np.where(uniforms < p_idle, IDLE, BUSY)


def rate(own_power, interference, radio: RadioParams):
    """Shannon rate in bit/s: B log2(1 + own / (interference + N0)).

    own_power and interference are received powers in watts, scalars or
    arrays of one entry per transmitting device; interference is everything
    else heard on the device's RB, 0 on a clean channel.
    """
    return radio.bandwidth_per_rb * np.log2(1.0 + own_power / (interference + radio.noise_power))
