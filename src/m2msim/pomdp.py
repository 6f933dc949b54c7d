"""Per-device channel-selection planner over partially observed RB occupancy.

A device holds one idle-probability per RB of its slice (per-RB beliefs are
independent because RBs evolve and are sensed independently).  Each slot it
either sleeps (zero reward) or accesses one RB; the realized reward is the
rate on the chosen RB after the occupancy chain has stepped.  A planner
prices an RB by its occupancy alone, one device on its own; in the
simulator it decides only whether a device sleeps or accesses (the sign of
its action), and `SliceAccess` draws the RB, from the distribution over the
slice's RBs that maximises the slice's expected total rate when every
device of the slice draws from it, so devices with the same beliefs spread
instead of colliding.  Observations are per-RB busy/idle readings flipped
with probability epsilon on the accessed RB and phi elsewhere.

`bayes_update` is the Bayes step the simulator runs for all devices at once;
`belief_update` is its one-row case after one prediction step.  Readings
rated worse than chance carry no evidence: the belief update and the
solvers weight a reading with flip probability min(p, 0.5).  A device has no
grounds to treat a mostly-wrong sensor as an inverted oracle, so sensing value
degrades monotonically as the flip probability grows instead of rebounding
past 0.5.  The environment itself still flips readings at the raw rate.

Horizon-K planning maximises  sum_k  discount**(K-1-k) * reward_k,  i.e. the
final slot carries full weight and earlier slots are attenuated (0**0 := 1,
so discount 0 keeps only the last slot).

Two solvers and a greedy rule:

  exact   joint-state piecewise-linear value functions (one alpha-vector set
          per slot, dominated vectors pruned), exact on the product-belief
          manifold.  Exponential in the RB count, so capped.
  grid    value tables on a per-RB belief grid with nearest-point lookup.
  myopic  `MyopicPolicy`, the per-slot argmax of expected immediate rate.
          When epsilon == phi and sleepers hear every RB, or no reading
          carries information, beliefs evolve the same way whatever the
          device does, and the greedy rule is provably optimal.  This is
          the production path for wide slices.

`solve` is the one planning decision.  Modes exact and grid run that
solver.  Mode auto returns the greedy rule where the observations are
action-independent or `access_certified` proves that exact and grid access
at every belief and slot; there every expected rate is positive, so the
greedy rule accesses too, and the simulator, which reads only the sign of a
planner's action, solves nothing.  On a certified model the greedy rule's
RB choice need not be a solver's.  Elsewhere auto solves exact up to 2 RBs
and 8 slots, and grid beyond.

Every policy has `act_batch(beliefs (N, R), slot) -> (N,)` over full-width
rows; the greedy rule also says when it is access for every belief
(`all_access`).
Ties: myopic rates are one product per RB and carry no float noise, so it
takes their exact argmax (lowest RB first; sleep only when the best rate is
<= 0).  Exact and grid values do carry noise, so `_pick_action` counts
values within a relative 1e-9 as tied and sleep wins.  The access rule has
no ties to break: equal beliefs give the uniform distribution, and the RB
is drawn from the device's own uniform; the random arm is this rule fed
equal idle probabilities.

`exhaustive_value` evaluates the optimum by direct expectimax over the full
action/observation tree and is the reference the exact solver is checked
against.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .channel import RadioParams, RbMarkov

SLEEP = 0  # actions: 0 sleeps, r in 1..R accesses RB r


class BeliefUpdateError(ValueError):
    """Observation has zero likelihood under the model."""


class SolverCapError(RuntimeError):
    """Exact or grid representation would exceed its configured cap."""


@dataclass(frozen=True)
class ObservationModel:
    """Flip probabilities of the busy/idle sensor.

    epsilon applies to the RB a device is accessing, phi to every other RB it
    hears.  A reading equals the true post-transition state with probability
    1 - flip.
    """

    epsilon: float
    phi: float

    def __post_init__(self):
        if not 0.0 <= self.epsilon <= 1.0:
            raise ValueError("epsilon must lie in [0, 1]")
        if not 0.0 <= self.phi <= 1.0:
            raise ValueError("phi must lie in [0, 1]")

    @classmethod
    def symmetric(cls, eps: float) -> "ObservationModel":
        return cls(epsilon=eps, phi=eps)

    @property
    def trusted_epsilon(self) -> float:
        """Flip rate the device reasons with; capped at chance level."""
        return min(self.epsilon, 0.5)

    @property
    def trusted_phi(self) -> float:
        return min(self.phi, 0.5)

    @property
    def uninformative(self) -> bool:
        """Both trusted flip rates are 0.5: every posterior is its prediction."""
        return self.trusted_epsilon == self.trusted_phi == 0.5


@dataclass(frozen=True)
class PomdpModel:
    """One device's planning model over the R RBs of its slice.

    rate_idle[r] / rate_busy[r] are the planning rates (mean-gain Shannon
    rates) earned by accessing RB r when it lands idle resp. busy.
    sleep_sensing=False silences every RB the device is not accessing.
    """

    markov: RbMarkov
    obs: ObservationModel
    horizon: int
    discount: float
    rate_idle: np.ndarray
    rate_busy: np.ndarray
    sleep_sensing: bool = True

    def __post_init__(self):
        ri = np.asarray(self.rate_idle, dtype=float)
        rb = np.asarray(self.rate_busy, dtype=float)
        object.__setattr__(self, "rate_idle", ri)
        object.__setattr__(self, "rate_busy", rb)
        if ri.ndim != 1 or ri.shape != rb.shape or ri.size < 1:
            raise ValueError("rate tables must be equal-length 1-d vectors")
        if self.horizon < 1:
            raise ValueError("horizon must be >= 1")
        if not 0.0 <= self.discount <= 1.0:
            raise ValueError("discount must lie in [0, 1]")

    @property
    def n_rbs(self) -> int:
        return self.rate_idle.size

    def slot_weight(self, k: int) -> float:
        return self.discount ** (self.horizon - 1 - k)

    def action_independent_observations(self) -> bool:
        """Whether the belief path cannot depend on the action: every RB is
        heard at one trusted flip rate whatever the device does, or none is
        worth hearing."""
        return self.obs.uninformative or (
            self.sleep_sensing and self.obs.trusted_epsilon == self.obs.trusted_phi)


# ---------------------------------------------------------------------------
# belief machinery

def belief_propagate(belief: np.ndarray, markov: RbMarkov) -> np.ndarray:
    """One prediction step: P(idle next) for each RB."""
    b = np.asarray(belief, dtype=float)
    return b * markov.p_idle_idle + (1.0 - b) * markov.p_busy_idle


def _posterior(prior: np.ndarray, saw_idle: np.ndarray, trust: float) -> np.ndarray:
    """Idle probabilities after readings that flip with probability trust."""
    # in place: at scale each (devices, width) temporary costs peak memory
    joint_idle = np.where(saw_idle, 1.0 - trust, trust)
    joint_idle *= prior
    denom = np.where(saw_idle, trust, 1.0 - trust)
    denom *= 1.0 - prior
    denom += joint_idle
    # a zero-likelihood reading cannot steer the belief; keep the prior there
    steered = denom > 0.0
    if steered.all():
        return np.divide(joint_idle, denom, out=joint_idle)
    posterior = np.divide(joint_idle, denom, out=joint_idle, where=steered)
    np.copyto(posterior, prior, where=~steered)
    return posterior


def bayes_update(predicted: np.ndarray, actions: np.ndarray, saw_idle: np.ndarray,
                 trust_eps, trust_phi, sleep_sensing: bool = True) -> np.ndarray:
    """Bayes step of N devices' per-RB idle probabilities after one slot's readings.

    predicted (N, R) holds the propagated beliefs, saw_idle (N, R) where each
    reading said idle, actions (N,) 0 to sleep or r to access column r - 1.
    Readings are weighed at the trusted phi, the accessed one at the trusted
    epsilon (`ObservationModel.trusted_phi`, `trusted_epsilon`), each a float
    or an (N, 1) column of one per row; without sleep_sensing only the
    accessed RB is heard and the others keep their prediction.  A
    zero-likelihood reading keeps the prior.
    """
    if sleep_sensing:
        posterior = _posterior(predicted, saw_idle, trust_phi)
    else:
        posterior = predicted.copy()    # only the accessed RB is heard
    # the accessed entries are redone only where that changes them
    redo = np.not_equal(trust_eps, trust_phi) | (not sleep_sensing)
    if not redo.any():
        return posterior
    accessing = actions > 0
    rows = np.flatnonzero(accessing if redo.ndim == 0 else accessing & redo[:, 0])
    cols = actions[rows] - 1
    trust = trust_eps[rows, 0] if isinstance(trust_eps, np.ndarray) else trust_eps
    posterior[rows, cols] = _posterior(predicted[rows, cols], saw_idle[rows, cols], trust)
    return posterior


def belief_update(belief: np.ndarray, action: int, observation: np.ndarray,
                  markov: RbMarkov, obs_model: ObservationModel) -> np.ndarray:
    """One device's prediction step, then `bayes_update` as its one-row case.

    observation holds one reading per RB: 0 idle, 1 busy, -1 not sensed
    (entries the device did not hear are advanced by the prior alone).
    Raises BeliefUpdateError if the joint reading has zero likelihood.
    """
    b = np.asarray(belief, dtype=float)
    obs = np.asarray(observation)
    if obs.shape != b.shape:
        raise ValueError("observation and belief must have the same length")
    m = belief_propagate(b, markov)
    saw_idle, sensed = obs == 0, obs >= 0
    flip = np.where(np.arange(b.size) == action - 1,
                    obs_model.trusted_epsilon, obs_model.trusted_phi)
    # zero likelihood takes a sensor that cannot err reading a state ruled out
    if np.any(sensed & (flip == 0.0) & (m == np.where(saw_idle, 0.0, 1.0))):
        raise BeliefUpdateError("observation impossible under the model")
    out = bayes_update(m[None, :], np.array([action]), saw_idle[None, :],
                       obs_model.trusted_epsilon, obs_model.trusted_phi)[0]
    return np.where(sensed, out, m)


def reading(truth, u, flip_prob):
    """The sensor's reading law: truth flipped where the uniform u < flip_prob.
    truth is a state (IDLE/BUSY) or an idle flag, scalar or array."""
    return truth ^ (u < flip_prob)


# ---------------------------------------------------------------------------
# rewards

def total_discounted_reward(rewards: np.ndarray, discount: float) -> float | np.ndarray:
    """Horizon total with late-slot emphasis: sum_k discount**(K-1-k) * r_k over
    the last axis of rewards (..., K); a float for one horizon's K rewards."""
    r = np.asarray(rewards, dtype=float)
    k = np.arange(r.shape[-1])
    totals = r @ np.float_power(discount, r.shape[-1] - 1 - k)
    return totals if r.ndim > 1 else float(totals)


# ---------------------------------------------------------------------------
# joint states and readings shared by the solvers and the reference evaluator
#
# `_state_bits` is the planner layer's one enumeration of bit patterns: the
# exact solver's joint states, its transition matrix and the product law over
# them, and every action's joint readings (branches) are tables built from it.
# A branch is one joint reading the device can receive after taking an
# action: per-RB likelihoods given idle / busy next-state, entries 1.0 for RBs
# that yield no reading.  Branch likelihoods sum to 1 over an action's table.

def _state_bits(n_rbs: int) -> np.ndarray:
    """(2**R, R) bit patterns, 1 for busy, in index order with RB 0 (or the
    first heard RB) on the top bit; one empty row at zero RBs."""
    return (np.arange(2 ** n_rbs)[:, None] >> np.arange(n_rbs - 1, -1, -1)) & 1


def _obs_branches(model: PomdpModel, action: int) -> Tuple[np.ndarray, np.ndarray]:
    """Likelihood rows (B, R) of the action's joint readings given each RB
    lands idle resp. busy; reading j is row j of `_state_bits` over the heard RBs."""
    heard = np.full(model.n_rbs, model.sleep_sensing)
    flip = np.full(model.n_rbs, model.obs.trusted_phi)
    if action != SLEEP:
        heard[action - 1] = True
        flip[action - 1] = model.obs.trusted_epsilon
    bits = _state_bits(int(heard.sum()))
    saw_busy = np.zeros((len(bits), model.n_rbs), dtype=bool)
    saw_busy[:, heard] = bits
    li = np.where(heard, np.where(saw_busy, flip, 1.0 - flip), 1.0)
    lb = np.where(heard, np.where(saw_busy, 1.0 - flip, flip), 1.0)
    return li, lb


def _branch_step(m: np.ndarray, li: np.ndarray, lb: np.ndarray):
    """Probability of one branch at predicted beliefs m (..., R), and the
    posterior it leads to; entries of zero likelihood keep the prediction."""
    d = m * li + (1.0 - m) * lb
    safe = np.where(d > 0.0, d, 1.0)
    return np.prod(d, axis=-1), np.where(d > 0.0, m * li / safe, m)


def _predicted_rates(model: PomdpModel, beliefs: np.ndarray) -> np.ndarray:
    """Expected access rates per RB after the occupancy step, shape (..., R)."""
    m = belief_propagate(beliefs, model.markov)
    return m * model.rate_idle + (1.0 - m) * model.rate_busy


# ---------------------------------------------------------------------------
# policies

def _act_one(policy, belief: np.ndarray, slot: int) -> int:
    b = np.asarray(belief, dtype=float)[None, :]
    return int(policy.act_batch(b, slot)[0])


class MyopicPolicy:
    """Greedy per-slot rule: optimal when observations ignore the action
    (equal noise with sleep sensing, or uninformative readings), and on a
    model `access_certified` holds for, the planners' sign (every expected
    rate is then positive, so it accesses at every belief and slot).

    Exact argmax of the unweighted expected rates, with no tie band (see the
    module docstring); every device sleeps when the slot weight is 0.
    """

    mode = "myopic"

    def __init__(self, model: PomdpModel):
        if not (model.action_independent_observations() or access_certified(model)):
            raise ValueError("myopic rule requires epsilon == phi and sleep sensing, "
                             "uninformative readings, or a model whose access is certified")
        self.model = model
        # then every expected rate is positive, whatever the belief
        self._rates_positive = bool(np.all(model.rate_idle > 0.0)
                                    and np.all(model.rate_busy > 0.0))

    def act(self, belief: np.ndarray, slot: int) -> int:
        return _act_one(self, belief, slot)

    def act_batch(self, beliefs: np.ndarray, slot: int) -> np.ndarray:
        """Actions (N,) for beliefs (N, R)."""
        if self.model.slot_weight(slot) == 0.0:
            return np.zeros(len(beliefs), dtype=int)
        exp_rate = _predicted_rates(self.model, beliefs)
        best = np.argmax(exp_rate, axis=1)
        q = exp_rate[np.arange(len(beliefs)), best]
        return np.where(q > 0.0, best + 1, 0)

    def all_access(self, slot: int) -> bool:
        """Whether every belief accesses at this slot, known without beliefs."""
        return self._rates_positive and self.model.slot_weight(slot) != 0.0


class AlphaPolicy:
    """Slot-indexed alpha-vector sets over the joint RB state space."""

    mode = "exact"

    def __init__(self, model: PomdpModel, per_action: List[dict]):
        self.model = model
        self.per_action = per_action  # [slot] -> {action: (n_alpha, S) array}

    @staticmethod
    def _joint(beliefs: np.ndarray) -> np.ndarray:
        # product law over `_state_bits`' joint states, one row per belief;
        # the factors multiply from the last RB to the first
        last_first = np.arange(beliefs.shape[1])[::-1]
        b = beliefs[:, None, last_first]
        busy = _state_bits(len(last_first))[:, last_first] == 1
        return np.prod(np.where(busy, 1.0 - b, b), axis=-1)

    def action_values(self, beliefs: np.ndarray, slot: int) -> np.ndarray:
        joint = self._joint(np.asarray(beliefs, dtype=float))
        return np.stack([np.max(joint @ self.per_action[slot][a].T, axis=1)
                         for a in range(self.model.n_rbs + 1)], axis=1)

    def act(self, belief: np.ndarray, slot: int) -> int:
        return _act_one(self, belief, slot)

    def act_batch(self, beliefs: np.ndarray, slot: int) -> np.ndarray:
        return _pick_action(self.action_values(beliefs, slot))

    def value(self, belief: np.ndarray, slot: int = 0) -> float:
        return float(np.max(self.action_values(np.asarray(belief)[None, :], slot)))


class GridPolicy:
    """Per-slot value tables over the product of per-RB belief grids."""

    mode = "grid"

    def __init__(self, model: PomdpModel, grid_points: int, tables: List[np.ndarray]):
        self.model = model
        self.grid_points = grid_points
        self.tables = tables  # [slot] -> array of shape (G,) * R, tables[K] == 0

    def action_values(self, beliefs: np.ndarray, slot: int) -> np.ndarray:
        return _grid_action_values(self.model, np.asarray(beliefs, dtype=float), slot,
                                   self.tables[slot + 1], self.grid_points)

    def act(self, belief: np.ndarray, slot: int) -> int:
        return _act_one(self, belief, slot)

    def act_batch(self, beliefs: np.ndarray, slot: int) -> np.ndarray:
        return _pick_action(self.action_values(beliefs, slot))

    def value(self, belief: np.ndarray, slot: int = 0) -> float:
        return float(np.max(self.action_values(np.asarray(belief)[None, :], slot)))


def access_certified(model: PomdpModel) -> bool:
    """Whether every backend (true optimum, exact, grid) accesses at every
    belief and slot of the model, by a closed-form bound; no solve.

    Write w_k = slot_weight(k), W_k = sum_{j>k} w_j, lam = |p_ii - p_bi|,
    g = max_r |rate_idle[r] - rate_busy[r]| and a_min the least expected
    access rate after one prediction step, over RBs and beliefs (the
    predicted idle probability lies between p_bi and p_ii).  The model is
    certified iff for every slot k

        w_k a_min - g lam W_k  >  1e-9 max(1, c (w_k + W_k)),

    where c is the largest |rate|: the right side is `_pick_action`'s tie
    band at the largest |q| any backend can produce, so sleep cannot win a tie.

    Proof.  Let T_k be a backend's value at slot k: the true value, the
    exact solver's alpha envelope (equal to it on product beliefs), or the
    grid table read at the nearest point.  Let osc_r(T) be the largest change
    of T when RB r's belief moves and the others stay fixed.  Claim:
    osc_r(T_k) <= g lam (w_k + W_k).  T_K = 0; for k < K, T_k is a max over
    actions, and a max moves no more than its largest term.  An action's
    immediate term depends on RB r's belief only through the prediction
    step, which scales its move by lam, so it moves by at most w_k g lam.
    Its future term is an expectation of T_{k+1} at the posterior.  Beliefs
    stay product-form and the other RBs' readings have a law that does not
    depend on RB r's belief, so for each reading of the others the posterior
    differs only in RB r's coordinate (the grid rounds each coordinate on its
    own), and the conditional mean of T_{k+1} moves by at most
    osc_r(T_{k+1}) <= g lam W_k.  Now sleep and access-r differ only in RB
    r's reading law (flip phi or epsilon, or heard or not), so given the
    other readings their future terms are both means of T_{k+1} over RB r's
    coordinate alone and differ by at most g lam W_k, while access-r earns at
    least w_k a_min now.  Hence q(access-r) - q(sleep) >= w_k a_min -
    g lam W_k, which beats the tie band.

    The bound does not decay with |lam|^(j-k): that holds for the true value
    but not for the grid, whose nearest-point lookup does not contract.
    Discount 0 with horizon >= 2 gives w_k = 0 and is never certified.
    """
    ri, rb = model.rate_idle, model.rate_busy
    p_ii, p_bi = model.markov.p_idle_idle, model.markov.p_busy_idle
    lam = abs(p_ii - p_bi)
    g = np.max(np.abs(ri - rb))
    a_min = min(np.min(rb + p_ii * (ri - rb)), np.min(rb + p_bi * (ri - rb)))
    w = np.array([model.slot_weight(k) for k in range(model.horizon)])
    later = np.append(np.cumsum(w[::-1])[::-1][1:], 0.0)       # W_k
    band = 1e-9 * np.maximum(1.0, np.max(np.abs(np.append(ri, rb))) * (w + later))
    return bool(np.all(w * a_min - g * lam * later > band))


def _pick_action(q: np.ndarray) -> np.ndarray:
    """Actions from planner values q (N, R + 1); sleep, then the lowest RB, wins ties.

    Values within a relative 1e-9 band count as tied, so the float noise of
    alpha-vector sums and grid lookups cannot pick between equal actions.
    MyopicPolicy's one-product rates have no such noise and compare exactly.
    """
    tol = 1e-9 * np.maximum(1.0, np.max(np.abs(q), axis=1))
    best = np.max(q[:, 1:], axis=1)
    return np.argmax(q >= (best - tol)[:, None], axis=1)


# ---------------------------------------------------------------------------
# slice access rule: which RB an accessing device draws

_CURVATURE_FLOOR = 1e-12
_STEP_TOL = 1e-6           # converged: no share moves further (uniform share = 1)
_MAX_STEPS = 30
_SETTLE_STEP = 0.05        # largest first step for which the one-step bound holds
_SCREEN_SLACK = 2.0 ** -40  # per squared width: `draw`'s screen's cover for rounding
_NODE_STEP = 0.25          # quadrature step in log(s) of the fading integral
_TERMS_BLOCK = 1 << 20     # elements of each (nodes, k) temporary in `_rate_terms`


@functools.lru_cache(maxsize=4)
def _fading_quadrature(radio: RadioParams):
    """Nodes s and weights w (idle, busy) with E[ln(1 + g P / (k P + h Pb + N0))]
    = sum_s w(s) e^(-s k) for the engine's mean-one chi-square gains g, h.

    ln(1 + a / b) = int_0^inf (1 - e^(-a t)) e^(-b t) dt / t, and a mean-one
    chi-square gain has E[e^(-g x)] = (1 + 2 x)^(-1/2); with s = t P the
    integrand is smooth in log s and decays fast at both ends, so the
    trapezoid rule in log s converges geometrically.  The nodes span
    [1e-12, 60 P / N0], past which the integrand is below e^-60 of its scale.
    """
    p = radio.tx_power
    # at least one node: below 60 P / N0 = 1e-12 its weights underflow to 0,
    # and at P = 0 they are 0, as every rate is
    top = max(60.0 * p / radio.noise_power, 1e-12)
    s = np.exp(np.arange(np.log(1e-12), np.log(top) + _NODE_STEP, _NODE_STEP))
    if p == 0.0:
        return s, np.zeros((2, s.size))
    idle = np.exp(-s * radio.noise_power / p) * (1.0 - (1.0 + 2.0 * s) ** -0.5) * _NODE_STEP
    busy = idle * (1.0 + 2.0 * s * radio.effective_busy_power / p) ** -0.5
    return s, np.stack([idle, busy])


def _rate_terms(nodes: np.ndarray, weights: np.ndarray, k: np.ndarray, order: int = 1):
    """Marginal rate G = d/dq [q rate(m q)] and c = -dG/dk at k co-accessors
    (order 1), or the bend G'' = d^2 G / dk^2 (order 2), stacked (idle,
    busy), in nats per unit bandwidth, from `_fading_quadrature`'s nodes and
    weights.

    Each rate is a sum over quadrature nodes s of w(s) e^(-s k), so
    G = sum w (1 - s k) e^(-s k), c = sum w s (2 - s k) e^(-s k) and
    G'' = sum w s^2 (3 - s k) e^(-s k).
    """
    s = nodes[:, None]
    flat = np.asarray(k, dtype=float).reshape(-1)
    chunk = max(1, _TERMS_BLOCK // len(nodes))
    parts = []
    for lo in range(0, flat.size, chunk):
        sk = s * flat[lo:lo + chunk]
        e = np.exp(-sk)
        if order == 2:
            parts.append([weights @ (e * s * s * (3.0 - sk))])
        else:
            parts.append([weights @ (e * (1.0 - sk)),
                          weights @ (e * s * (2.0 - sk))])
    out = [np.concatenate(col, axis=1).reshape((2,) + np.shape(k))
           for col in zip(*parts)]
    return out[0] if order == 2 else tuple(out)


@functools.lru_cache(maxsize=1024)
def _start_terms(radio: RadioParams, kappa: bytes):
    """G and c (idle, busy) at the start, and the largest bend over shares
    >= 0.9, at each of a layout's distinct kappas (float64 bytes).  A run's
    layouts repeat from period to period and across the runs of a batch."""
    nodes, weights = _fading_quadrature(radio)
    k = np.frombuffer(kappa)
    gain, curv = _rate_terms(nodes, weights, k)
    bend = _rate_terms(nodes, weights, (1.0 - 2.0 * _SETTLE_STEP) * k, order=2).max(axis=0)
    return gain, curv, bend


def _layout_tables(radio: RadioParams, per_share: np.ndarray):
    """`_start_terms` per row of one run: every row of a slice starts at the
    same k, so each distinct one is evaluated once."""
    kappa, layout = np.unique(per_share, return_inverse=True)
    gain, curv, bend = _start_terms(radio, kappa.tobytes())
    return gain[:, layout], curv[:, layout], bend[layout]


class SliceAccess:
    """The RB an accessing device draws, for a cell's block layout or a stack of them.

    Each device assumes that all n devices of its slice draw their RB from
    the same distribution q over the slice's R RBs, so k = (n - 1) q_r of
    them share RB r with it on average.  q maximises the slice's expected
    total rate  sum_r q_r [p_r rate_idle(k) + (1 - p_r) rate_busy(k)],  with
    p_r the device's idle probability of RB r and the expected rates under
    the engine's fading (g, h: the mean-one chi-square gains of the device's
    own link and of the busy RB's occupant), the k co-accessors at their
    mean power:

        rate_idle(k) = B E[log2(1 + g P / (k P + N0))]
        rate_busy(k) = B E[log2(1 + g P / (k P + h P_busy + N0))]

    The fading matters: mean gains price a lone device on an idle RB at
    log2(1 + P / N0), far above its expected rate, and fed a slot's true
    occupancy the rule then gave a block it knows is busy more than a
    uniform share (4 devices on 3 RBs, one busy: 0.339; faded: 0.319).  The
    co-accessors are kept at their mean because with their gains and their
    binomial count drawn too the objective is not concave past a few
    co-accessors per RB.

    For fixed gains the rate is ln(1 + a / (k + b)); with u = 1 / (k + b),
    v = 1 / (k + b + a) and k u, k v < 1, the marginal rate G = d/dq
    [q rate(m q)] has slope -(u - v)(2 - k (u + v)) < 0 and bend
    (u - v)(3 (u + v) - 2 k (u^2 + u v + v^2)) > 0 in k, and the bend's own
    slope (u - v)(6 k (u + v)(u^2 + v^2) - 8 (u^2 + u v + v^2)) is < 0, since
    k u, k v < 1 and 2 u v <= u^2 + v^2.  The expectation over the gains
    keeps all three signs: each q_r-term is concave, and the marginal rate
    is convex with a falling curvature.  So Newton steps on the simplex (an
    RB whose share would turn negative is dropped for that step) converge
    from the uniform start; `shares` runs them until no share moves by more
    than 1e-6 of a uniform share, which by quadratic convergence leaves the
    shares within about 1e-12 of the optimum.  Equal idle probabilities
    take no step and keep q exactly uniform, and a one-RB slice has
    q = (1,).

    Shares are kept scaled so that a row sums to its width (uniform is
    exactly 1 per RB), and `draw` picks an RB by inverse CDF at
    t = u * width; with uniform q, as the random arm's equal beliefs give,
    this is int(u * width) + 1, bit for bit.  Solving every row to convergence
    made a slot 3.2 times as slow at 5000 devices, so `draw` solves only
    the rows whose pick the first step leaves in doubt.  Every row starts
    at the same point, so its first Newton step comes from per-layout
    tables.  By the convexity above, after a first step whose
    largest share change is d <= 0.05, each share still lies within K E^2
    of the optimum, where E = d / (1 - 2 K d) bounds the distance from the
    start while 4 K d <= 1, and K = kappa max G''(0.9 kappa) /
    (2 min c(kappa)) over idle and busy, kappa = (n - 1) / R and c = -dG/dk.
    A CDF edge sums at most floor(R / 2) such errors, so a row whose t lies
    farther than floor(R / 2) K E^2 from every edge draws the same RB from
    the first step as from the optimum; the other rows (beliefs of exactly
    0 or 1 among them) are solved to convergence first.

    Most rows need not take the first step either: `draw` screens them with
    a bound on it.  From the uniform start the step on RB r is
    (s_r - l) w / c_r, with w the row's width, s_r = (p_r - p_1)
    (G_idle - G_busy) at the start, l the mean of the s_r under weights
    w / c_r, and c_r = c_busy + p_r (c_idle - c_busy) the curvature at the
    start (times n - 1, plus a floor).  The mean l lies between the least
    and the largest s_r, so |s_r - l| <= |G_idle - G_busy| S, where S bounds
    the row's spread max p - min p; and c_r >= min(c_busy, c_idle) for p_r
    in [0, 1], c being linear in p_r.  So whatever the beliefs, no share
    moves by more than

        D = |G_idle - G_busy| S w / min(c_busy, c_idle).

    (D <= 0.05 keeps every share positive, so the step is not cut back.)
    The first step's CDF edge j is the integer j plus the moves of RBs 1 to
    j.  With P and Q the weights w / c_r summed over RBs 1 to j and over the
    rest, and s_P and s_Q the weighted means of the s_r over each, those
    moves add up to P Q (s_P - s_Q) / (P + Q), as l is the mean of s_P and
    s_Q under P and Q.  That is at most |G_idle - G_busy| S P Q / (P + Q),
    which grows with P <= j w / c and Q <= (w - j) w / c, c = min(c_busy,
    c_idle); so edge j lies within j (w - j) / w D <= H D of j, with
    H = floor(w / 2) ceil(w / 2) / w.  Take a row with D <= the settle step
    whose t lies farther than H D + floor(w / 2) K E^2 from every such
    integer, E taken at d = D.  Then t lies farther than floor(w / 2) K E^2
    from every first-step edge, and on the same side of edge j as of j: the
    doubt test passes (E grows with d <= D), and the first step picks
    int(t) + 1.  Such a row settles at int(t) + 1 before any (width x
    devices) work, and draws what the unscreened rule draws.  Only the
    other rows are gathered and first-stepped.  The doubt set lies inside
    them, so `_converge` gets the same rows in the same stacks as without
    the screen.  The integers are 1 to w - 1, and w where the run is wider
    than the row: the edges past a row's width sit at its width.  D = 0
    (equal beliefs, as the random arm's) settles every t off the integers.

    The float slack: the computed step exceeds its exact bound by at most
    (w + 13) u D (the weighted mean sums w terms; u = 2^-53), a share change
    read as (1 + step) - 1 by 2 u more, and a CDF edge, w sums of terms at
    most w, is off by at most w^2 u.  With sigma = 2^-40 w^2, which is
    8192 w^2 u, the screen takes D' = D (1 + sigma) + sigma for D and adds
    sigma to the distance; E at D' bounds the doubt test's E in floats too,
    since each operation of E rounds monotonically.

    S is the caller's `spread`, per row.  It must bound the computed idle
    probabilities' spread, their rounding included.  It is 1 by default,
    which any probabilities obey, and a one-RB row has none.

    valid (N, R) marks each device's RBs (a prefix of its row); devices (N,)
    is the size n of each device's slice.  Rows are stored transposed,
    (R, N), so sums over a device's RBs run along the fast axis.

    The rows may stack the layouts of several runs, run after run, with
    `bounds` the first row of each run and the row count, and R the widest
    block of any of them.  A share is computed from its own column and sums
    down it, so a column is the same in any stack of two or more columns,
    bit for bit (numpy adds a lone column's axis pairwise), but a matrix
    product's sums depend on its operand's shape.  So each run's tables and
    solves run on its own rows at its own width, as in a layout of its own,
    and its CDF edges stop at its own width.
    """

    def __init__(self, valid: np.ndarray, devices: np.ndarray, radio: RadioParams,
                 bounds: Optional[Sequence[int]] = None,
                 spread: Optional[np.ndarray] = None):
        self._valid = np.ascontiguousarray(np.asarray(valid, dtype=bool).T)
        self._inner = self._valid[1:]          # edges between a row's RBs
        self._width = self._valid.sum(axis=0).astype(float)
        self._span = self._width * self._valid
        self._crowd = np.asarray(devices, dtype=float) - 1.0
        self._per_share = self._crowd / self._width  # kappa: co-accessors per unit share
        self._nodes, self._weights = _fading_quadrature(radio)
        bounds = [0, self._valid.shape[1]] if bounds is None else list(bounds)
        self._runs = [slice(lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:])]
        self._run_widths = [int(self._width[rows].max()) for rows in self._runs]
        gain, curv, bend = (np.concatenate(t, axis=-1) for t in zip(
            *[_layout_tables(radio, self._per_share[rows]) for rows in self._runs]))
        self._gain_gap0 = gain[0] - gain[1]
        # a lone device's objective is linear in q (and every rate is 0 at zero
        # power); the floor keeps the Newton step finite, so the step puts all
        # of q on the best RBs
        self._curv_busy0 = self._crowd * curv[1] + _CURVATURE_FLOOR
        self._curv_gap0 = self._crowd * (curv[0] - curv[1])
        # K of the class docstring: the marginal rate's largest bend over
        # shares >= 0.9, against its smallest slope at the start
        self._quad = 0.5 * self._per_share * bend / np.maximum(curv.min(axis=0), 1e-300)
        self._settle_step = np.minimum(_SETTLE_STEP, 0.25 / np.maximum(self._quad, 1e-300))
        half = np.floor(self._width / 2.0)
        self._edge_quad = half * self._quad
        # edges past a run's own width, which a run of its own would not have
        run_width = np.repeat(self._run_widths, np.diff(bounds))
        pad = np.arange(len(self._inner))[:, None] >= run_width - 1
        self._edge_pad = pad if pad.any() else None
        # the screen of the class docstring: D' per row, and the distance from
        # the integers past which t settles (never, where D' passes the settle step)
        spread = np.where(self._width > 1.0, 1.0 if spread is None else spread, 0.0)
        low = np.minimum(self._curv_busy0, self._curv_busy0 + self._curv_gap0)
        step = np.abs(self._gain_gap0) * spread * self._width / np.maximum(low, 1e-300)
        slack = _SCREEN_SLACK * self._width ** 2
        step = step * (1.0 + slack) + slack
        reach = step / np.maximum(1.0 - 2.0 * self._quad * step, 0.5)
        most = half * (self._width - half) / self._width      # H of the class docstring
        self._settle_gap = np.where(step <= self._settle_step,
                                    most * step + self._edge_quad * reach * reach + slack,
                                    np.inf)
        # the integers the first step's edges sit near: 1 to width - 1, and the
        # width where the run is wider; a row with none has no edge to pass
        self._top = self._width - (self._width == run_width)
        self._settle_gap[self._top < 1.0] = -1.0

    def _newton_step(self, y, slope, curv, rows):
        """One Newton step of the scaled shares y (R, n) of `rows` on the simplex.

        slope is each RB's marginal rate minus that of the row's first RB,
        curv the negated second derivative (overwritten); RBs whose share
        would turn negative are dropped and the step is solved again without
        them.  Returns the new shares and each row's largest share change.
        """
        width = len(y)
        reach = np.divide(self._span[:width, rows], curv, out=curv)   # 0 off the row
        free = None
        while True:
            if free is None:                 # rows already sum to their width
                wf, yf = reach, y
                level = np.add.reduce(wf * slope, 0) / np.add.reduce(wf, 0)
            else:
                wf, yf = np.where(free, reach, 0.0), np.where(free, y, 0.0)
                level = ((np.add.reduce(wf * slope, 0)
                          - (self._width[rows] - np.add.reduce(yf, 0)))
                         / np.add.reduce(wf, 0))
            step = slope - level
            step *= wf
            new = yf + step
            if new.min() >= 0.0:
                if free is not None:
                    step = new - y
                return new, np.maximum.reduce(np.abs(step, out=step), 0)
            free = (self._valid[:width, rows] if free is None else free) & (new >= 0.0)

    def _first_step(self, p, rows=slice(None)):
        """The Newton step from the uniform start of the rows `rows`, from the
        layout's tables."""
        slope = p - p[0]
        slope *= self._gain_gap0[rows]
        curv = self._curv_gap0[rows] * p
        curv += self._curv_busy0[rows]
        return self._newton_step(self._valid[:, rows], slope, curv, rows)   # y = 1 per RB

    def _converge(self, p, y, moved, rows):
        per_share, crowd = self._per_share[rows], self._crowd[rows]
        for _ in range(_MAX_STEPS):
            if moved.max() <= _STEP_TOL:
                break
            gain, curv = _rate_terms(self._nodes, self._weights, y * per_share)
            g = gain[1] + p * (gain[0] - gain[1])
            curv = crowd * (curv[1] + p * (curv[0] - curv[1])) + _CURVATURE_FLOOR
            y, moved = self._newton_step(y, g - g[0], curv, rows)
        return y

    def _solve(self, p, y, moved, cols, at):
        """Converge the columns `at` of p, y and moved, which hold the rows
        cols[at] (sorted), each run's at its own width; yields each run's
        columns and their shares."""
        rows = cols[at]
        cuts = np.searchsorted(rows, [run.start for run in self._runs] + [len(self._width)])
        for lo, hi, width in zip(cuts[:-1], cuts[1:], self._run_widths):
            if hi > lo:
                mine = at[lo:hi]
                yield mine, self._converge(p[:width, mine], y[:width, mine], moved[mine],
                                           rows[lo:hi])

    def _pick(self, y, t, rows):
        """RB (1-based) at quantile t of each row's shares, and the CDF edges."""
        edges = y[:-1].copy()
        for r in range(1, len(edges)):    # row by row: numpy's cumsum over axis 0 is slow
            edges[r] += edges[r - 1]
        return np.add.reduce((t >= edges) & self._inner[:len(edges), rows], 0) + 1, edges

    def shares(self, idle: np.ndarray) -> np.ndarray:
        """q (N, R) for idle probabilities (N, R); rows sum to 1, zero off-row."""
        p = np.ascontiguousarray(np.asarray(idle, dtype=float).T)
        y, moved = self._first_step(p)
        every = np.arange(p.shape[1])
        for rows, solved in self._solve(p, y, moved, every, every):
            y[:len(solved), rows] = solved
        return (y / self._width).T

    def draw(self, idle: np.ndarray, u: np.ndarray) -> np.ndarray:
        """Access actions 1..width (N,): each row's RB drawn from q at u in [0, 1)."""
        t = u * self._width
        rb = t.astype(int) + 1
        # the screen: the rows left are those it cannot settle at int(t) + 1
        near = np.rint(t)
        np.maximum(near, 1.0, out=near)
        np.minimum(near, self._top, out=near)
        near -= t
        left = np.flatnonzero(np.abs(near, out=near) <= self._settle_gap)
        if not left.size:
            return rb
        if left.size == 1 and len(t) > 1:
            # two columns at least, summed row by row as in the whole layout;
            # the other, a settled row, stays settled
            left = np.sort(np.r_[left, int(left[0] == 0)])
        p = np.ascontiguousarray(np.asarray(idle, dtype=float)[left].T)
        t = t[left]
        y, moved = self._first_step(p, left)
        pick, edges = self._pick(y, t, left)
        # E of the class docstring: the optimum's largest distance from the start
        reach = moved / np.maximum(1.0 - 2.0 * self._quad[left] * moved, 0.5)
        # edges past a row's width sit at the width: at worst a needless solve
        edges -= t
        np.abs(edges, out=edges)
        if self._edge_pad is not None:
            edges[self._edge_pad[:, left]] = np.inf
        gap = np.minimum.reduce(edges, 0, initial=np.inf)
        doubt = np.flatnonzero((moved > self._settle_step[left])
                               | (gap <= self._edge_quad[left] * reach * reach))
        for at, solved in self._solve(p, y, moved, left, doubt):
            pick[at] = self._pick(solved, t[at], left[at])[0]
        rb[left] = pick
        return rb


# ---------------------------------------------------------------------------
# exact solver: joint-state alpha vectors with dominated-vector pruning

@functools.lru_cache(maxsize=None)
def _probes(n_states: int) -> np.ndarray:
    rng = np.random.default_rng(97 + n_states)
    pts = rng.dirichlet(np.ones(n_states), size=512)
    corners = np.eye(n_states)
    centre = np.full((1, n_states), 1.0 / n_states)
    return np.vstack([corners, centre, pts])


def _dedupe(vectors: np.ndarray) -> np.ndarray:
    scale = max(1.0, float(np.max(np.abs(vectors))))
    keys = np.round(vectors / scale, 13)
    _, keep = np.unique(keys, axis=0, return_index=True)
    return vectors[np.sort(keep)]


_ALPHA_CAP = 200_000       # candidate alpha vectors one prune takes


def _prune(vectors: np.ndarray, tol: float = 1e-11) -> np.ndarray:
    """Keep a subset whose pointwise max over the simplex matches the input.

    One algorithm for every joint-state size: dedupe, then certify winners
    on a fixed probe set, discard vectors pointwise-dominated by a certified
    winner, and settle the remainder with the standard witness-point linear
    program.
    """
    vecs = _dedupe(np.asarray(vectors, dtype=float))
    n, s = vecs.shape
    if n > _ALPHA_CAP:
        raise SolverCapError(
            f"{n} candidate alpha vectors exceed the cap {_ALPHA_CAP}; use grid mode")
    if n <= 1:
        return vecs

    scores = vecs @ _probes(s).T
    top = np.max(scores, axis=0)
    tied = scores >= top - 1e-13 * np.maximum(1.0, np.abs(top))
    # each probe's winner is the lexicographically largest of its tied rows,
    # for determinism; after _dedupe no two rows are equal
    order = np.lexsort(vecs.T[::-1])[::-1]
    winner_mask = np.zeros(n, dtype=bool)
    winner_mask[order[np.argmax(tied[order], axis=0)]] = True
    kept = vecs[winner_mask]

    rest = vecs[~winner_mask]
    if len(rest):
        slack = 1e-13 * max(1.0, float(np.max(np.abs(vecs))))
        dominated = np.zeros(len(rest), dtype=bool)
        for start in range(0, len(kept), 64):
            block = kept[start:start + 64]
            dominated |= np.all(rest[:, None, :] <= block[None, :, :] + slack,
                                axis=2).any(axis=1)
        rest = rest[~dominated]

    # witness LP: does v beat every kept vector somewhere on the simplex?
    from scipy.optimize import linprog  # deferred: importing it is slow
    pending = [tuple(v) for v in rest]
    pending.sort(reverse=True)
    pending = [np.array(v) for v in pending]
    kept_list = list(kept)
    while pending:
        v = pending.pop(0)
        diffs = np.array(kept_list) - v[None, :]
        # max d  s.t.  x @ (v - u) >= d  for all kept u,  x in simplex
        a_ub = np.hstack([diffs, np.ones((len(diffs), 1))])
        c = np.zeros(s + 1)
        c[-1] = -1.0
        res = linprog(c, A_ub=a_ub, b_ub=np.zeros(len(diffs)),
                      A_eq=[[1.0] * s + [0.0]], b_eq=[1.0],
                      bounds=[(0.0, 1.0)] * s + [(None, None)], method="highs")
        if not res.success or res.x is None:
            kept_list.append(v)  # solver hiccup: keeping is always safe
            continue
        if -res.fun <= tol:
            continue
        x = res.x[:s]
        # promote whichever pending vector is best at the witness point
        vals = [float(np.dot(x, u)) for u in pending]
        self_val = float(np.dot(x, v))
        if vals and max(vals) > self_val:
            j = int(np.argmax(vals))
            kept_list.append(pending.pop(j))
            pending.insert(0, v)
        else:
            kept_list.append(v)
    # rows of vecs, so distinct at the first _dedupe's rounding scale (the
    # input's); not re-deduplicated at the kept rows' own, finer scale
    return np.array(kept_list)


def _cross_sum(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return (a[:, None, :] + b[None, :, :]).reshape(-1, a.shape[1])


def solve_exact(model: PomdpModel) -> AlphaPolicy:
    """Backward induction with one pruned alpha-vector set per slot and action."""
    n = model.n_rbs
    if n > 4:
        raise SolverCapError(
            f"exact mode over {n} RBs needs 2**{n} joint states; use grid mode")
    s = 2 ** n
    bits = _state_bits(n)
    # joint transition: the product of the per-RB chains, from RB 0 on
    t = np.prod(model.markov.as_matrix()[bits[:, None, :], bits[None, :, :]], axis=-1)
    actions = list(range(n + 1))

    # expected post-step reward of each action as a function of the pre-step
    # joint state, and each action's branch likelihoods per post-step state
    post = np.where(bits.T == 1, model.rate_busy[:, None], model.rate_idle[:, None])
    imm = [np.zeros(s)] + [t @ rates for rates in post]
    branch_like = [np.prod(np.where(bits == 0, li[:, None, :], lb[:, None, :]), axis=-1)
                   for li, lb in (_obs_branches(model, a) for a in actions)]
    shared_future = model.action_independent_observations()

    per_action: List[Optional[dict]] = [None] * model.horizon
    gamma = np.zeros((1, s))  # value beyond the last slot
    for k in range(model.horizon - 1, -1, -1):
        w = model.slot_weight(k)

        def folded_future(a: int) -> np.ndarray:
            out = np.zeros((1, s))
            for like in branch_like[a]:
                g = gamma @ (t * like[None, :]).T
                g = _prune(g)
                out = _prune(_cross_sum(out, g))
            return out

        # adding the same immediate-reward vector to a pruned set keeps it
        # pruned (values shift identically at every belief), so no re-prune
        if shared_future:
            common = folded_future(SLEEP)
            table = {a: common + w * imm[a][None, :] for a in actions}
        else:
            table = {a: folded_future(a) + w * imm[a][None, :] for a in actions}
        per_action[k] = table
        gamma = _prune(np.vstack(list(table.values())))
    return AlphaPolicy(model, per_action)


# ---------------------------------------------------------------------------
# grid solver

def _grid_action_values(model: PomdpModel, beliefs: np.ndarray, slot: int,
                        next_table: np.ndarray, grid_points: int) -> np.ndarray:
    """Backup at arbitrary beliefs (N, R) against the next slot's grid table."""
    n_pts, n = beliefs.shape
    w = model.slot_weight(slot)
    m = belief_propagate(beliefs, model.markov)
    pred = m * model.rate_idle + (1.0 - m) * model.rate_busy
    q = np.empty((n_pts, n + 1))
    for a in range(n + 1):
        future = np.zeros(n_pts)
        for li, lb in zip(*_obs_branches(model, a)):
            prob, post = _branch_step(m, li, lb)
            idx = np.rint(post * (grid_points - 1)).astype(np.intp)
            future += prob * next_table[tuple(idx.T)]
        q[:, a] = future if a == SLEEP else w * pred[:, a - 1] + future
    return q


# float entries per mesh row that a backup over a chunk of the mesh holds at
# its peak, over R RBs: the row itself and its index temporaries, m, the
# predicted rates, q, the future value, and in one branch d, its guard, the
# posterior and its grid index (measured with tracemalloc: about 10 R + 4.5
# for R = 1 to 5)
def _grid_row_entries(n_rbs: int) -> int:
    return 10 * n_rbs + 8


_GRID_CAP = 4_000_000      # float entries one grid solve holds (32 MB of float64)


def solve_grid(model: PomdpModel, grid_points: int = 101) -> GridPolicy:
    """Value tables on the product belief grid, nearest-point lookups.

    Refused up front when the float entries it keeps exceed `_GRID_CAP`:
    horizon + 1 value tables, the (G**R, R) mesh and the (G**R, R + 1)
    action values.  The backup runs over the mesh a chunk of rows at a time,
    each chunk's temporaries within the mesh's and the action values' share
    of that count, so the count bounds the peak; every step is row by row,
    so the tables are those of one pass."""
    n = model.n_rbs
    if grid_points < 2:
        raise ValueError("grid_points must be >= 2")
    entries = grid_points ** n * (model.horizon + 1 + n + n + 1)
    if entries > _GRID_CAP:
        raise SolverCapError(
            f"grid of {grid_points}**{n} points over {model.horizon} slots holds "
            f"{entries} entries, past the cap of {_GRID_CAP}; "
            "reduce grid_points, the RB count or the horizon")
    axis = np.linspace(0.0, 1.0, grid_points)
    shape = (grid_points,) * n
    points = grid_points ** n
    chunk = max(1, points * (n + n + 1) // _grid_row_entries(n))
    tables = [np.zeros(shape) for _ in range(model.horizon + 1)]
    for k in range(model.horizon - 1, -1, -1):
        values = tables[k].reshape(-1)
        for lo in range(0, points, chunk):
            rows = np.arange(lo, min(lo + chunk, points))
            mesh = axis[np.column_stack(np.unravel_index(rows, shape))]
            values[rows] = np.max(_grid_action_values(model, mesh, k, tables[k + 1],
                                                      grid_points), axis=1)
    return GridPolicy(model, grid_points, tables)


SOLVER_MODES = ("auto", "exact", "grid")


def solve(model: PomdpModel, mode: str = "auto", grid_points: int = 101):
    """Plan one horizon in one of `SOLVER_MODES`; returns a policy with
    .act_batch(beliefs, slot).

    auto: the greedy rule where observations are action-independent or
    access is certified, else exact up to 2 RBs and 8 slots, else grid."""
    if mode not in SOLVER_MODES:
        raise ValueError(f"unknown solver mode {mode!r}")
    if mode == "auto":
        if model.action_independent_observations() or access_certified(model):
            return MyopicPolicy(model)
        mode = "exact" if model.n_rbs <= 2 and model.horizon <= 8 else "grid"
    return solve_exact(model) if mode == "exact" else solve_grid(model, grid_points)


# ---------------------------------------------------------------------------
# brute-force reference: expectimax over the full action/observation tree

def exhaustive_value(model: PomdpModel, beliefs: np.ndarray) -> np.ndarray:
    """Exact optimal values at the given beliefs (N, R), no alpha vectors.

    Expands every action/observation history level by level, every node by
    one `_branch_step` over all actions' branches stacked action after action;
    feasible for the small instances the exact solver is verified on.
    """
    b0 = np.atleast_2d(np.asarray(beliefs, dtype=float))
    n_actions = model.n_rbs + 1
    tables = [_obs_branches(model, a) for a in range(n_actions)]
    owner = np.repeat(np.arange(n_actions), [len(li) for li, _ in tables])
    li, lb = (np.concatenate(rows)[:, None, :] for rows in zip(*tables))

    levels, probs = [b0], []    # per level: nodes (M, R), branch probabilities (B, M)
    for _ in range(model.horizon - 1):
        prob, post = _branch_step(belief_propagate(levels[-1], model.markov), li, lb)
        levels.append(post.reshape(-1, model.n_rbs))
        probs.append(prob)

    # last slot: only the immediate term remains
    value = np.max(np.concatenate(
        [np.zeros((levels[-1].shape[0], 1)),
         model.slot_weight(model.horizon - 1) * _predicted_rates(model, levels[-1])],
        axis=1), axis=1)

    for k in range(model.horizon - 2, -1, -1):
        terms = probs[k] * value.reshape(len(owner), -1)
        # a running sum over each action's branches, in branch order
        q = np.zeros((len(levels[k]), n_actions))
        for a, term in zip(owner, terms):
            q[:, a] += term
        q[:, 1:] += model.slot_weight(k) * _predicted_rates(model, levels[k])
        value = np.max(q, axis=1)
    return value
