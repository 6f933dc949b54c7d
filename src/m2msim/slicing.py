"""Per-slice traffic accounting: period-average rates, obtained and desired shares."""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from .channel import Timebase

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class VirtualNetwork:
    """One slice: its device population, RB budgets and share weight."""

    slice_id: int
    devices: int
    access_rbs: int
    data_rbs: int
    weight: float

    def __post_init__(self):
        if self.devices < 1:
            raise ValueError("a slice needs at least one device")
        if self.access_rbs < 1:
            raise ValueError("a slice needs at least one access RB")
        if self.data_rbs < 0:
            raise ValueError("data_rbs must be >= 0")
        if not 0.0 < self.weight < np.inf:
            raise ValueError("weight must be positive")


def period_average_rate(slot_rates: Sequence[float], timebase: Timebase) -> float:
    """Average one slice's per-slot aggregate rates over a full period."""
    rates = np.asarray(slot_rates, dtype=float)
    if rates.size != timebase.slots_per_period:
        raise ValueError(
            f"expected {timebase.slots_per_period} slot rates, got {rates.size}")
    return float(rates.sum() * timebase.slot_duration / timebase.period_duration)


def ratios(obtained_rates: Sequence[float],
           weights: Sequence[float]) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Obtained shares, weight-implied desired shares, and their gaps.

    A dead period (all rates zero) cannot define obtained shares; they are
    reported as 0 so the gap equals the full desired share, and the event is
    logged rather than raised.
    """
    c = np.asarray(obtained_rates, dtype=float)
    x = np.asarray(weights, dtype=float)
    if c.shape != x.shape or c.ndim != 1:
        raise ValueError("rates and weights must be 1-d and equally long")
    if np.any(c < 0):
        raise ValueError("rates must be non-negative")
    xi_star = x / x.sum()
    total = c.sum()
    if total == 0.0:
        log.warning("period produced no traffic in any slice; shares undefined")
        xi = np.zeros_like(c)
    else:
        xi = c / total
    return xi, xi_star, xi_star - xi
