"""Per-period RB reallocation loop steering slice rate shares to their targets.

The measured slice rates pass through a first-order low-pass filter; the
controller inverts the loop around that filter so that, on the idealised
linear plant, a step in the desired shares is tracked after exactly one
period.  The raw (real-valued) RB corrections are then forced onto the
integer allocation under the cell's budget constraints.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from .channel import CellTopology

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class ControllerParams:
    """omega: low-pass forgetting factor.  mu: assumed rate gain per RB."""

    omega: float
    mu: float

    def __post_init__(self):
        if not 0.0 < self.omega < 1.0:
            raise ValueError("omega must lie strictly inside (0, 1)")
        if not 0.0 < self.mu < np.inf:
            raise ValueError("mu must be positive")


def smooth(q_prev, c_now, omega: float):
    """Low-pass step: omega * old + (1 - omega) * new."""
    return omega * q_prev + (1.0 - omega) * c_now


def delta_rbs(gap_now, gap_prev, q_sum: float, params: ControllerParams):
    """Raw RB correction per slice for the current period.

    Scales the gap movement (gap_now - omega * gap_prev) by the inverse plant
    gain; q_sum is the summed filtered rates, converting share error into a
    rate error.
    """
    if q_sum < 0:
        raise ValueError("q_sum must be non-negative")
    gain = q_sum / (params.mu * (1.0 - params.omega))
    return gain * (np.asarray(gap_now, dtype=float)
                   - params.omega * np.asarray(gap_prev, dtype=float))


def _round_half_away(x: np.ndarray) -> np.ndarray:
    return np.sign(x) * np.floor(np.abs(x) + 0.5)


def apply_allocation(prev: Sequence[int], deltas: Sequence[float],
                     topology: CellTopology) -> List[int]:
    """Integerise and apply raw corrections under the cell budget.

    Corrections are rounded half away from zero, every slice is clamped to
    [1, access pool size], and if the summed request overflows the pool the
    increases are trimmed back proportionally (largest remainder first).
    Whatever the access phase gains beyond what shrinking slices release
    comes out of the data pool, so access + data always equals the cell total.
    """
    prev = [int(p) for p in prev]
    cap = topology.access_rbs
    if sum(prev) > cap:
        raise ValueError("previous allocation already exceeds the access pool")
    d = _round_half_away(np.asarray(deltas, dtype=float)).astype(int)
    desired = [int(min(cap, max(1, p + dd))) for p, dd in zip(prev, d)]
    excess = sum(desired) - cap
    if excess > 0:
        grew = np.array([max(0, want - p) for want, p in zip(desired, prev)])
        trims = _largest_remainder(grew, excess)
        log.info("access pool full: trimming %s RBs off requested increases", excess)
        desired = [int(want - tr) for want, tr in zip(desired, trims)]
    return desired


def _largest_remainder(caps: np.ndarray, total: int) -> np.ndarray:
    """Split `total` proportionally to caps, integer result bounded by caps."""
    if total > caps.sum():
        raise ValueError("cannot trim more than the requested increases")
    share = caps * total / caps.sum()
    out = np.floor(share).astype(int)
    remainder = total - out.sum()
    order = np.argsort(-(share - out), kind="stable")
    for i in order:
        if remainder == 0:
            break
        if out[i] < caps[i]:
            out[i] += 1
            remainder -= 1
    return out


def closed_loop_reference(params: ControllerParams,
                          initial_rates: Sequence[float],
                          targets: np.ndarray,
                          plant_mu: Optional[float] = None) -> dict:
    """Idealised linear closed loop, for verifying the tracking design.

    The plant is linear (a rate change of plant_mu per RB, materialising one
    period later) and RB corrections stay real-valued.  targets has one row
    of desired shares per period.  Returns the share / gap / correction
    trajectories; with plant_mu equal to params.mu a target step is tracked
    exactly from the following period onward.
    """
    targets = np.asarray(targets, dtype=float)
    if targets.ndim != 2:
        raise ValueError("targets must be (periods, slices)")
    periods, n = targets.shape
    if not np.allclose(targets.sum(axis=1), 1.0, atol=1e-12):
        raise ValueError("each row of targets must sum to 1")
    mu_true = params.mu if plant_mu is None else plant_mu

    c = np.asarray(initial_rates, dtype=float).copy()
    if c.shape != (n,):
        raise ValueError("initial_rates must match the target width")
    q = c.copy()
    prev_gap = np.zeros(n)
    delta = np.zeros(n)

    xi_hist = np.empty((periods, n))
    gap_hist = np.empty((periods, n))
    delta_hist = np.empty((periods, n))
    for y in range(periods):
        if y > 0:
            c = c + mu_true * delta
            q = smooth(q, c, params.omega)
        xi = q / q.sum()
        gap = targets[y] - xi
        delta = delta_rbs(gap, prev_gap, float(q.sum()), params)
        xi_hist[y] = xi
        gap_hist[y] = gap
        delta_hist[y] = delta
        prev_gap = gap
    return {"xi": xi_hist, "gap": gap_hist, "delta": delta_hist}
