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

Three interchangeable solver modes:

  exact   joint-state piecewise-linear value functions (one alpha-vector set
          per slot, dominated vectors pruned), exact on the product-belief
          manifold.  Exponential in the RB count, so capped.
  grid    value tables on a per-RB belief grid with nearest-point lookup.
  myopic  per-slot argmax of expected immediate rate.  When epsilon == phi
          and sleeping devices still hear every RB, the observation law does
          not depend on the action, beliefs evolve the same way whatever the
          device does, and the greedy rule is provably optimal.  This is the
          production path for wide slices.

The simulator reads only the sign of a planner's action, so under solver
auto it certifies before it solves: where `access_certified` proves that
exact and grid would access at every belief and slot, `AccessPolicy` stands
in for them and nothing is solved.  The myopic case keeps its own rule.

Every policy has `act_batch(beliefs (N, R), valid (N, R), slot) -> (N,)`;
the planners need full-width rows.  The myopic rule and `AccessPolicy` also
give the sign alone (`accesses`), which skips the argmax.
Ties: myopic rates are one product per RB and carry no float noise, so it
takes their exact argmax (lowest RB first; sleep only when the best rate is
<= 0).  Exact and grid values do carry noise, so `_pick_action` counts
values within a relative 1e-9 as tied and sleep wins.  The access rule has
no ties to break: equal beliefs give the uniform distribution, and the RB
is drawn from the device's own uniform, the same RB the random arm picks.

`exhaustive_value` evaluates the optimum by direct expectimax over the full
action/observation tree and is the reference the exact solver is checked
against.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import List, Optional, Tuple

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
        return (self.sleep_sensing
                and self.obs.trusted_epsilon == self.obs.trusted_phi)


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
    posterior = np.divide(joint_idle, denom, out=joint_idle, where=steered)
    np.copyto(posterior, prior, where=~steered)
    return posterior


def bayes_update(predicted: np.ndarray, actions: np.ndarray, saw_idle: np.ndarray,
                 obs_model: ObservationModel, sleep_sensing: bool = True) -> np.ndarray:
    """Bayes step of N devices' per-RB idle probabilities after one slot's readings.

    predicted (N, R) holds the propagated beliefs, saw_idle (N, R) where each
    reading said idle, actions (N,) 0 to sleep or r to access column r - 1.
    Readings are weighed at the trusted phi, the accessed one at the trusted
    epsilon; without sleep_sensing only the accessed RB is heard and the
    others keep their prediction.  A zero-likelihood reading keeps the prior.
    """
    if sleep_sensing:
        posterior = _posterior(predicted, saw_idle, obs_model.trusted_phi)
    else:
        posterior = predicted.copy()    # only the accessed RB is heard
    # the accessed entries are redone only where that changes them
    if obs_model.trusted_epsilon != obs_model.trusted_phi or not sleep_sensing:
        rows = np.flatnonzero(actions > 0)
        cols = actions[rows] - 1
        posterior[rows, cols] = _posterior(predicted[rows, cols], saw_idle[rows, cols],
                                           obs_model.trusted_epsilon)
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
    out = bayes_update(m[None, :], np.array([action]), saw_idle[None, :], obs_model)[0]
    return np.where(sensed, out, m)


def reading(truth, u, flip_prob):
    """The sensor's reading law: truth flipped where the uniform u < flip_prob.
    truth is a state (IDLE/BUSY) or an idle flag, scalar or array."""
    return truth ^ (u < flip_prob)


def observe(true_state: int, flip_prob: float, rng: np.random.Generator) -> int:
    """Noisy reading of one RB: reading's one-draw case."""
    return int(reading(true_state, rng.random(), flip_prob))


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
# observation branches shared by the solvers and the reference evaluator
#
# A branch is one joint reading the device can receive after taking an
# action: per-RB likelihood vectors given idle / busy next-state, entries 1.0
# for RBs that yield no reading.  Branch likelihoods sum to 1 over the list.

def _obs_branches(model: PomdpModel, action: int) -> List[Tuple[np.ndarray, np.ndarray]]:
    n = model.n_rbs
    if model.sleep_sensing:
        heard = list(range(n))
    else:
        heard = [] if action == SLEEP else [action - 1]
    if not heard:
        return [(np.ones(n), np.ones(n))]
    flip = np.full(n, model.obs.trusted_phi)
    if action != SLEEP:
        flip[action - 1] = model.obs.trusted_epsilon
    branches = []
    for pattern in itertools.product((0, 1), repeat=len(heard)):
        li = np.ones(n)
        lb = np.ones(n)
        for rb, saw_busy in zip(heard, pattern):
            if saw_busy:
                li[rb] = flip[rb]
                lb[rb] = 1.0 - flip[rb]
            else:
                li[rb] = 1.0 - flip[rb]
                lb[rb] = flip[rb]
        branches.append((li, lb))
    return branches


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
    return int(policy.act_batch(b, np.ones(b.shape, dtype=bool), slot)[0])


def _scalar_if_equal(rates: np.ndarray):
    return rates[0] if np.all(rates == rates[0]) else rates


class MyopicPolicy:
    """Greedy per-slot rule, optimal when observations ignore the action.

    Exact argmax of the unweighted expected rates, with no tie band (see the
    module docstring); every device sleeps when the slot weight is 0.  RBs are
    scored one by one, so narrower rows can be masked in via `valid` (any_width).
    """

    mode = "myopic"
    any_width = True

    def __init__(self, model: PomdpModel):
        if not model.action_independent_observations():
            raise ValueError("myopic rule requires epsilon == phi and sleep sensing")
        self.model = model
        # scalar rates are far cheaper than broadcasting equal rate vectors
        self._rate_idle = _scalar_if_equal(model.rate_idle)
        self._rate_busy = _scalar_if_equal(model.rate_busy)
        # then every expected rate is positive, whatever the belief
        self._rates_positive = bool(np.all(model.rate_idle > 0.0)
                                    and np.all(model.rate_busy > 0.0))

    def act(self, belief: np.ndarray, slot: int) -> int:
        return _act_one(self, belief, slot)

    def act_batch(self, beliefs: np.ndarray, valid: np.ndarray, slot: int) -> np.ndarray:
        """Actions (N,) for beliefs (N, R); valid (N, R) marks each row's RBs."""
        if self.model.slot_weight(slot) == 0.0:
            return np.zeros(len(beliefs), dtype=int)
        m = belief_propagate(beliefs, self.model.markov)
        exp_rate = m * self._rate_idle + (1.0 - m) * self._rate_busy
        exp_rate[~valid] = -np.inf
        best = np.argmax(exp_rate, axis=1)
        q = exp_rate[np.arange(len(beliefs)), best]
        return np.where(q > 0.0, best + 1, 0)

    def accesses(self, beliefs: np.ndarray, valid: np.ndarray, slot: int) -> np.ndarray:
        """act_batch(...) > 0 (N,), without the argmax when no device can sleep."""
        if self._rates_positive and self.model.slot_weight(slot) != 0.0:
            return np.ones(len(beliefs), dtype=bool)
        return self.act_batch(beliefs, valid, slot) > 0

    def dump(self) -> str:
        lines = ["policy-dump v1", "mode: myopic",
                 f"rbs: {self.model.n_rbs}", f"horizon: {self.model.horizon}",
                 f"discount: {self.model.discount:.12g}",
                 "rate_idle: " + " ".join(f"{v:.12g}" for v in self.model.rate_idle),
                 "rate_busy: " + " ".join(f"{v:.12g}" for v in self.model.rate_busy)]
        return "\n".join(lines) + "\n"


class AlphaPolicy:
    """Slot-indexed alpha-vector sets over the joint RB state space."""

    mode = "exact"
    any_width = False

    def __init__(self, model: PomdpModel, per_action: List[dict]):
        self.model = model
        self.per_action = per_action  # [slot] -> {action: (n_alpha, S) array}

    def _joint(self, beliefs: np.ndarray) -> np.ndarray:
        # product law over joint states, one row per belief; RB 0 owns the
        # top bit of the index, matching _joint_transition and _state_bits
        joint = np.ones((len(beliefs), 1))
        for b in reversed(beliefs.T[:, :, None]):
            joint = np.hstack([joint * b, joint * (1.0 - b)])
        return joint

    def action_values(self, beliefs: np.ndarray, slot: int) -> np.ndarray:
        joint = self._joint(np.asarray(beliefs, dtype=float))
        return np.stack([np.max(joint @ self.per_action[slot][a].T, axis=1)
                         for a in range(self.model.n_rbs + 1)], axis=1)

    def act(self, belief: np.ndarray, slot: int) -> int:
        return _act_one(self, belief, slot)

    def act_batch(self, beliefs: np.ndarray, valid: np.ndarray, slot: int) -> np.ndarray:
        return _pick_action(self.action_values(beliefs, slot))

    def value(self, belief: np.ndarray, slot: int = 0) -> float:
        return float(np.max(self.action_values(np.asarray(belief)[None, :], slot)))

    def dump(self) -> str:
        lines = ["policy-dump v1", "mode: exact",
                 f"rbs: {self.model.n_rbs}", f"horizon: {self.model.horizon}",
                 f"discount: {self.model.discount:.12g}"]
        names = ["sleep"] + [f"access-{r}" for r in range(1, self.model.n_rbs + 1)]
        for k, table in enumerate(self.per_action):
            lines.append(f"slot {k}")
            for a, vecs in table.items():
                lines.append(f"  action {names[a]}")
                for v in vecs:
                    lines.append("    alpha " + " ".join(f"{x:.12g}" for x in v))
        return "\n".join(lines) + "\n"


class GridPolicy:
    """Per-slot value tables over the product of per-RB belief grids."""

    mode = "grid"
    any_width = False

    def __init__(self, model: PomdpModel, grid_points: int, tables: List[np.ndarray]):
        self.model = model
        self.grid_points = grid_points
        self.tables = tables  # [slot] -> array of shape (G,) * R, tables[K] == 0

    def action_values(self, beliefs: np.ndarray, slot: int) -> np.ndarray:
        return _grid_action_values(self.model, np.asarray(beliefs, dtype=float), slot,
                                   self.tables[slot + 1], self.grid_points)

    def act(self, belief: np.ndarray, slot: int) -> int:
        return _act_one(self, belief, slot)

    def act_batch(self, beliefs: np.ndarray, valid: np.ndarray, slot: int) -> np.ndarray:
        return _pick_action(self.action_values(beliefs, slot))

    def value(self, belief: np.ndarray, slot: int = 0) -> float:
        return float(np.max(self.action_values(np.asarray(belief)[None, :], slot)))

    def dump(self) -> str:
        lines = ["policy-dump v1", "mode: grid",
                 f"rbs: {self.model.n_rbs}", f"horizon: {self.model.horizon}",
                 f"discount: {self.model.discount:.12g}",
                 f"grid_points: {self.grid_points}"]
        for k, t in enumerate(self.tables[:-1]):
            lines.append(f"slot {k} value min {t.min():.12g} max {t.max():.12g}")
        return "\n".join(lines) + "\n"


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


class AccessPolicy:
    """Always access: what exact and grid choose wherever `access_certified`
    holds, known without solving.  Only the sign is certified, and it is all
    the simulator reads; act_batch names the greedy RB (the lowest of the
    best expected rates), as the myopic rule does.  Any width (see MyopicPolicy).
    """

    mode = "certified"
    any_width = True

    def __init__(self, model: PomdpModel):
        self.model = model

    def act_batch(self, beliefs: np.ndarray, valid: np.ndarray, slot: int) -> np.ndarray:
        exp_rate = _predicted_rates(self.model, beliefs)
        exp_rate[~valid] = -np.inf
        return np.argmax(exp_rate, axis=1) + 1

    def accesses(self, beliefs: np.ndarray, valid: np.ndarray, slot: int) -> np.ndarray:
        return np.ones(len(beliefs), dtype=bool)


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
_NODE_STEP = 0.25          # quadrature step in log(s) of the fading integral
_TERMS_BLOCK = 1 << 20     # elements of each (nodes, k) temporary in `_terms`


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
    log_s = np.arange(np.log(1e-12), np.log(60.0 * p / radio.noise_power) + _NODE_STEP,
                      _NODE_STEP)
    s = np.exp(log_s)
    idle = np.exp(-s * radio.noise_power / p) * (1.0 - (1.0 + 2.0 * s) ** -0.5) * _NODE_STEP
    busy = idle * (1.0 + 2.0 * s * radio.effective_busy_power / p) ** -0.5
    return s, np.stack([idle, busy])


class SliceAccess:
    """The RB an accessing device draws, for one block layout of the cell.

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
    t = u * width; with uniform q this is the random arm's
    int(u * width) + 1, bit for bit.  Solving every row to convergence
    made a slot 3.2 times as slow at 5000 devices, so `draw` solves only
    the rows whose pick the first step leaves in doubt.  Every row starts
    at the same point, so its first Newton step comes from per-layout
    tables.  By the convexity above, after a first step whose
    largest share change is D <= 0.05, each share still lies within K E^2
    of the optimum, where E = D / (1 - 2 K D) bounds the distance from the
    start while 4 K D <= 1, and K = kappa max G''(0.9 kappa) /
    (2 min c(kappa)) over idle and busy, kappa = (n - 1) / R and c = -dG/dk.
    A CDF edge sums at most floor(R / 2) such errors, so a row whose t lies
    farther than floor(R / 2) K E^2 from every edge draws the same RB from
    the first step as from the optimum; the other rows (beliefs of exactly
    0 or 1 among them) are solved to convergence first.

    valid (N, R) marks each device's RBs (a prefix of its row); devices (N,)
    is the size n of each device's slice.  Rows are stored transposed,
    (R, N), so sums over a device's RBs run along the fast axis.
    """

    def __init__(self, valid: np.ndarray, devices: np.ndarray, radio: RadioParams):
        self._valid = np.ascontiguousarray(np.asarray(valid, dtype=bool).T)
        self._inner = self._valid[1:]          # edges between a row's RBs
        self._width = self._valid.sum(axis=0).astype(float)
        self._span = self._width * self._valid
        self._invalid = ~self._valid
        self._crowd = np.asarray(devices, dtype=float) - 1.0
        self._per_share = self._crowd / self._width  # kappa: co-accessors per unit share
        self._nodes, self._weights = _fading_quadrature(radio)
        # every row of a slice starts at the same k: evaluate each distinct one once
        kappa, layout = np.unique(self._per_share, return_inverse=True)
        gain, curv = (t[..., layout][:, None, :] for t in self._terms(kappa))
        self._gain_gap0 = gain[0, 0] - gain[1, 0]
        # a lone device's objective is linear in q (and every rate is 0 at zero
        # power); the floor keeps the Newton step finite, so the step puts all
        # of q on the best RBs
        self._curv_busy0 = self._crowd * curv[1, 0] + _CURVATURE_FLOOR
        self._curv_gap0 = self._crowd * (curv[0, 0] - curv[1, 0])
        # K of the class docstring: the marginal rate's largest bend over
        # shares >= 0.9, against its smallest slope at the start
        bend = self._terms((1.0 - 2.0 * _SETTLE_STEP) * kappa, order=2).max(axis=0)[layout]
        self._quad = 0.5 * self._per_share * bend / np.maximum(curv.min(axis=0)[0], 1e-300)
        self._settle_step = np.minimum(_SETTLE_STEP, 0.25 / np.maximum(self._quad, 1e-300))
        self._edge_quad = np.floor(self._width / 2.0) * self._quad

    def _terms(self, k: np.ndarray, order: int = 1):
        """Marginal rate G = d/dq [q rate(m q)] and c = -dG/dk at k
        co-accessors (order 1), or the bend G'' = d^2 G / dk^2 (order 2),
        stacked (idle, busy), in nats per unit bandwidth.

        Each rate is a sum over quadrature nodes s of w(s) e^(-s k), so
        G = sum w (1 - s k) e^(-s k), c = sum w s (2 - s k) e^(-s k) and
        G'' = sum w s^2 (3 - s k) e^(-s k).
        """
        s = self._nodes[:, None]
        flat = np.asarray(k, dtype=float).reshape(-1)
        chunk = max(1, _TERMS_BLOCK // len(self._nodes))
        parts = []
        for lo in range(0, flat.size, chunk):
            sk = s * flat[lo:lo + chunk]
            e = np.exp(-sk)
            if order == 2:
                parts.append([self._weights @ (e * s * s * (3.0 - sk))])
            else:
                parts.append([self._weights @ (e * (1.0 - sk)),
                              self._weights @ (e * s * (2.0 - sk))])
        out = [np.concatenate(col, axis=1).reshape((2,) + np.shape(k))
               for col in zip(*parts)]
        return out[0] if order == 2 else tuple(out)

    def _newton_step(self, y, slope, curv, rows):
        """One Newton step of the scaled shares y (R, n) of `rows` on the simplex.

        slope is each RB's marginal rate minus that of the row's first RB,
        curv the negated second derivative (overwritten); RBs whose share
        would turn negative are dropped and the step is solved again without
        them.  Returns the new shares and each row's largest share change.
        """
        reach = np.divide(self._span[:, rows], curv, out=curv)   # 0 off the row
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
            free = (self._valid[:, rows] if free is None else free) & (new >= 0.0)

    def _first_step(self, p):
        """The Newton step from the uniform start, from the layout's tables."""
        slope = p - p[0]
        slope *= self._gain_gap0
        curv = self._curv_gap0 * p
        curv += self._curv_busy0
        return self._newton_step(self._valid, slope, curv, slice(None))   # y = 1 per RB

    def _converge(self, p, y, moved, rows):
        per_share, crowd = self._per_share[rows], self._crowd[rows]
        for _ in range(_MAX_STEPS):
            if moved.max() <= _STEP_TOL:
                break
            gain, curv = self._terms(y * per_share)
            g = gain[1] + p * (gain[0] - gain[1])
            curv = crowd * (curv[1] + p * (curv[0] - curv[1])) + _CURVATURE_FLOOR
            y, moved = self._newton_step(y, g - g[0], curv, rows)
        return y

    def _pick(self, y, t, rows):
        """RB (1-based) at quantile t of each row's shares, and the CDF edges."""
        edges = y[:-1].copy()
        for r in range(1, len(edges)):    # row by row: numpy's cumsum over axis 0 is slow
            edges[r] += edges[r - 1]
        return np.add.reduce((t >= edges) & self._inner[:, rows], 0) + 1, edges

    def shares(self, idle: np.ndarray) -> np.ndarray:
        """q (N, R) for idle probabilities (N, R); rows sum to 1, zero off-row."""
        p = np.ascontiguousarray(np.asarray(idle, dtype=float).T)
        y = self._converge(p, *self._first_step(p), slice(None))
        return (y / self._width).T

    def draw(self, idle: np.ndarray, u: np.ndarray) -> np.ndarray:
        """Access actions 1..width (N,): each row's RB drawn from q at u in [0, 1)."""
        p = np.ascontiguousarray(np.asarray(idle, dtype=float).T)
        t = u * self._width
        if ((p == p[0]) | self._invalid).all():
            # uniform q: the random arm's pick, as the zero first step would
            # give; from flip rate 0.5 on every slot of a run lands here
            return t.astype(int) + 1
        y, moved = self._first_step(p)
        rb, edges = self._pick(y, t, slice(None))
        # E of the class docstring: the optimum's largest distance from the start
        reach = moved / np.maximum(1.0 - 2.0 * self._quad * moved, 0.5)
        # edges past a row's width sit at the width: at worst a needless solve
        edges -= t
        gap = np.minimum.reduce(np.abs(edges, out=edges), 0, initial=np.inf)
        rows = np.flatnonzero((moved > self._settle_step)
                              | (gap <= self._edge_quad * reach * reach))
        if rows.size:
            y = self._converge(p[:, rows], y[:, rows], moved[rows], rows)
            rb[rows] = self._pick(y, t[rows], rows)[0]
        return rb


# ---------------------------------------------------------------------------
# exact solver: joint-state alpha vectors with dominated-vector pruning

def _joint_transition(markov: RbMarkov, n_rbs: int) -> np.ndarray:
    # repeated kron puts RB 0 on the most significant bit of the state index
    p = markov.as_matrix()
    t = np.ones((1, 1))
    for _ in range(n_rbs):
        t = np.kron(t, p)
    return t


def _state_bits(n_rbs: int) -> np.ndarray:
    """(S, R) matrix of per-RB states for each joint state index."""
    idx = np.arange(2 ** n_rbs)
    return np.array([(idx >> (n_rbs - 1 - r)) & 1 for r in range(n_rbs)]).T


_PROBE_CACHE: dict = {}


def _probes(n_states: int) -> np.ndarray:
    if n_states not in _PROBE_CACHE:
        rng = np.random.default_rng(97 + n_states)
        pts = rng.dirichlet(np.ones(n_states), size=512)
        corners = np.eye(n_states)
        centre = np.full((1, n_states), 1.0 / n_states)
        _PROBE_CACHE[n_states] = np.vstack([corners, centre, pts])
    return _PROBE_CACHE[n_states]


def _dedupe(vectors: np.ndarray) -> np.ndarray:
    scale = max(1.0, float(np.max(np.abs(vectors))))
    keys = np.round(vectors / scale, 13)
    _, keep = np.unique(keys, axis=0, return_index=True)
    return vectors[np.sort(keep)]

def _prune_lines(vectors: np.ndarray, tol: float = 1e-12) -> np.ndarray:
    """Exact upper envelope for the 2-state case (no LPs needed).

    At belief (t, 1-t) a vector is the line t*v0 + (1-t)*v1; the classic
    increasing-slope hull scan finds the envelope, then lines whose winning
    interval misses [0, 1] are dropped.
    """
    vecs = _dedupe(vectors)
    if len(vecs) <= 1:
        return vecs
    slope = vecs[:, 0] - vecs[:, 1]
    inter = vecs[:, 1]
    order = np.lexsort((inter, slope))
    lines: List[int] = []
    for i in order:
        if lines and abs(slope[i] - slope[lines[-1]]) <= 1e-13 * max(1.0, abs(slope[i])):
            lines[-1] = i  # parallel: ascending sort means i has the higher intercept
        else:
            lines.append(i)
    hull: List[int] = []
    lefts: List[float] = []
    for i in lines:
        while hull:
            j = hull[-1]
            x = (inter[i] - inter[j]) / (slope[j] - slope[i])
            if x <= lefts[-1] + 1e-15:
                hull.pop()
                lefts.pop()
                continue
            break
        if hull:
            lefts.append((inter[i] - inter[hull[-1]]) / (slope[hull[-1]] - slope[i]))
        else:
            lefts.append(-np.inf)
        hull.append(i)
    keep = []
    for m, i in enumerate(hull):
        right = lefts[m + 1] if m + 1 < len(hull) else np.inf
        if right >= -tol and lefts[m] <= 1.0 + tol:
            keep.append(i)
    return vecs[sorted(keep)]


def _prune(vectors: np.ndarray, tol: float = 1e-11, cap: int = 0) -> np.ndarray:
    """Keep a subset whose pointwise max over the simplex matches the input.

    Dedupe, then certify winners on a fixed probe set, discard vectors
    pointwise-dominated by a certified winner, and settle the remainder with
    the standard witness-point linear program.
    """
    vecs = _dedupe(np.asarray(vectors, dtype=float))
    n, s = vecs.shape
    if cap and n > cap:
        raise SolverCapError(
            f"{n} candidate alpha vectors exceed the cap {cap}; use grid mode")
    if n <= 1:
        return vecs
    if s == 2:
        return _prune_lines(vecs)

    scores = vecs @ _probes(s).T
    top = np.max(scores, axis=0)
    winner_mask = np.zeros(n, dtype=bool)
    for col in range(scores.shape[1]):
        cands = np.flatnonzero(scores[:, col] >= top[col] - 1e-13 * max(1.0, abs(top[col])))
        # lexicographically largest of the tied vectors, for determinism
        best = max(cands, key=lambda i: tuple(vecs[i]))
        winner_mask[best] = True
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
    return _dedupe(np.array(kept_list))


def _cross_sum(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return (a[:, None, :] + b[None, :, :]).reshape(-1, a.shape[1])


def solve_exact(model: PomdpModel, alpha_cap: int = 200_000) -> AlphaPolicy:
    """Backward induction with one pruned alpha-vector set per slot and action."""
    n = model.n_rbs
    if n > 4:
        raise SolverCapError(
            f"exact mode over {n} RBs needs 2**{n} joint states; use grid mode")
    s = 2 ** n
    t = _joint_transition(model.markov, n)
    bits = _state_bits(n)
    actions = list(range(n + 1))

    # expected post-step reward as a function of the pre-step joint state
    imm = {SLEEP: np.zeros(s)}
    for a in range(1, n + 1):
        post = np.where(bits[:, a - 1] == 1, model.rate_busy[a - 1],
                        model.rate_idle[a - 1])
        imm[a] = t @ post

    branch_like = {}
    for a in actions:
        like = []
        for li, lb in _obs_branches(model, a):
            per_state = np.prod(np.where(bits == 0, li[None, :], lb[None, :]), axis=1)
            like.append(per_state)
        branch_like[a] = like
    shared_future = model.action_independent_observations()

    per_action: List[Optional[dict]] = [None] * model.horizon
    gamma = np.zeros((1, s))  # value beyond the last slot
    for k in range(model.horizon - 1, -1, -1):
        w = model.slot_weight(k)

        def folded_future(a: int) -> np.ndarray:
            out = np.zeros((1, s))
            for like in branch_like[a]:
                g = gamma @ (t * like[None, :]).T
                g = _prune(g, cap=alpha_cap)
                out = _prune(_cross_sum(out, g), cap=alpha_cap)
            return out

        # adding the same immediate-reward vector to a pruned set keeps it
        # pruned (values shift identically at every belief), so no re-prune
        if shared_future:
            common = folded_future(SLEEP)
            table = {a: common + w * imm[a][None, :] for a in actions}
        else:
            table = {a: folded_future(a) + w * imm[a][None, :] for a in actions}
        per_action[k] = table
        gamma = _prune(np.vstack(list(table.values())), cap=alpha_cap)
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
        for li, lb in _obs_branches(model, a):
            prob, post = _branch_step(m, li, lb)
            idx = np.rint(post * (grid_points - 1)).astype(np.intp)
            future += prob * next_table[tuple(idx.T)]
        q[:, a] = future if a == SLEEP else w * pred[:, a - 1] + future
    return q


def solve_grid(model: PomdpModel, grid_points: int = 101,
               max_table: int = 4_000_000) -> GridPolicy:
    """Value tables on the product belief grid, nearest-point lookups."""
    n = model.n_rbs
    if grid_points < 2:
        raise ValueError("grid_points must be >= 2")
    if grid_points ** n > max_table:
        raise SolverCapError(
            f"grid of {grid_points}**{n} points exceeds {max_table} entries; "
            "reduce grid_points or the RB count")
    axes = [np.linspace(0.0, 1.0, grid_points)] * n
    mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, n)
    shape = (grid_points,) * n
    tables = [np.zeros(shape) for _ in range(model.horizon + 1)]
    for k in range(model.horizon - 1, -1, -1):
        q = _grid_action_values(model, mesh, k, tables[k + 1], grid_points)
        tables[k] = np.max(q, axis=1).reshape(shape)
    return GridPolicy(model, grid_points, tables)


def solve(model: PomdpModel, mode: str = "auto", grid_points: int = 101,
          alpha_cap: int = 200_000):
    """Plan one horizon; returns a policy with .act_batch(beliefs, valid, slot)."""
    if mode == "exact":
        return solve_exact(model, alpha_cap=alpha_cap)
    if mode == "grid":
        return solve_grid(model, grid_points=grid_points)
    if mode == "myopic":
        return MyopicPolicy(model)
    if mode == "auto":
        if model.action_independent_observations():
            return MyopicPolicy(model)
        if model.n_rbs <= 2 and model.horizon <= 8:
            return solve_exact(model, alpha_cap=alpha_cap)
        return solve_grid(model, grid_points=grid_points)
    raise ValueError(f"unknown solver mode {mode!r}")


# ---------------------------------------------------------------------------
# brute-force reference: expectimax over the full action/observation tree

def exhaustive_value(model: PomdpModel, beliefs: np.ndarray) -> np.ndarray:
    """Exact optimal values at the given beliefs (N, R), no alpha vectors.

    Expands every action/observation history level by level; feasible for the
    small instances the exact solver is verified on.
    """
    b0 = np.atleast_2d(np.asarray(beliefs, dtype=float))
    actions = list(range(model.n_rbs + 1))
    branches = {a: _obs_branches(model, a) for a in actions}

    levels = [b0]
    meta = []  # per level: list of (action, probs (M,)) in child-block order
    for k in range(model.horizon - 1):
        cur = levels[-1]
        m = belief_propagate(cur, model.markov)
        blocks = []
        info = []
        for a in actions:
            for li, lb in branches[a]:
                prob, post = _branch_step(m, li, lb)
                blocks.append(post)
                info.append((a, prob))
        levels.append(np.concatenate(blocks, axis=0))
        meta.append(info)

    # last slot: only the immediate term remains
    value = np.max(np.concatenate(
        [np.zeros((levels[-1].shape[0], 1)),
         model.slot_weight(model.horizon - 1) * _predicted_rates(model, levels[-1])],
        axis=1), axis=1)

    for k in range(model.horizon - 2, -1, -1):
        cur = levels[k]
        n_nodes = cur.shape[0]
        w = model.slot_weight(k)
        pred = _predicted_rates(model, cur)
        q = np.full((n_nodes, len(actions)), -np.inf)
        child = value.reshape(-1, n_nodes)
        block = 0
        for a in actions:
            total = np.zeros(n_nodes)
            for _ in branches[a]:
                total += meta[k][block][1] * child[block]
                block += 1
            q[:, a] = total if a == SLEEP else w * pred[:, a - 1] + total
        value = np.max(q, axis=1)
    return value


def exhaustive_policy_value(model: PomdpModel, belief: np.ndarray, policy) -> float:
    """Exact expected total of a given policy, by the same tree expansion."""

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
        for li, lb in _obs_branches(model, a):
            prob, post = _branch_step(m, li, lb)
            if prob > 0.0:
                total += prob * recurse(post, k + 1)
        return total

    return recurse(np.asarray(belief, dtype=float), 0)
