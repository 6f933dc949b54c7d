"""Per-device channel-selection planner over partially observed RB occupancy.

A device holds one idle-probability per RB of its slice (per-RB beliefs are
independent because RBs evolve and are sensed independently).  Each slot it
either sleeps (zero reward) or accesses one RB; the realized reward is the
rate on the chosen RB after the occupancy chain has stepped.  Observations
are per-RB busy/idle readings flipped with probability epsilon on the
accessed RB and phi elsewhere.

Readings rated worse than chance carry no evidence: the belief update and the
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

Every policy has `act_batch(beliefs (N, R), valid (N, R), slot) -> (N,)`; the
planners need full-width rows.  Ties: myopic rates are one product per RB and
carry no float noise, so it takes their exact argmax (lowest RB first; sleep
only when the best rate is <= 0).  Exact and grid values do carry noise, so
`_pick_action` counts values within a relative 1e-9 as tied and sleep wins.

`exhaustive_value` evaluates the optimum by direct expectimax over the full
action/observation tree and is the reference the exact solver is checked
against.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .channel import RbMarkov

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


def belief_update(belief: np.ndarray, action: int, observation: np.ndarray,
                  markov: RbMarkov, obs_model: ObservationModel) -> np.ndarray:
    """Bayes update of the per-RB idle probabilities.

    observation holds one reading per RB: 0 idle, 1 busy, -1 not sensed
    (entries the device did not hear are advanced by the prior alone).
    Raises BeliefUpdateError if the joint reading has zero likelihood.
    """
    b = np.asarray(belief, dtype=float)
    obs = np.asarray(observation)
    if obs.shape != b.shape:
        raise ValueError("observation and belief must have the same length")
    m = belief_propagate(b, markov)
    flip = np.full(b.shape, obs_model.trusted_phi)
    if action != SLEEP:
        flip[action - 1] = obs_model.trusted_epsilon
    saw_idle = obs == 0
    like_idle = np.where(saw_idle, 1.0 - flip, flip)
    like_busy = np.where(saw_idle, flip, 1.0 - flip)
    denom = m * like_idle + (1.0 - m) * like_busy
    sensed = obs >= 0
    if np.any(denom[sensed] <= 0.0):
        raise BeliefUpdateError("observation impossible under the model")
    out = m.copy()
    out[sensed] = m[sensed] * like_idle[sensed] / denom[sensed]
    return out


def observe(true_state: int, flip_prob: float, rng: np.random.Generator) -> int:
    """Noisy reading of one RB: the true state, flipped with flip_prob."""
    if rng.random() < flip_prob:
        return 1 - true_state
    return true_state


# ---------------------------------------------------------------------------
# rewards

def total_discounted_reward(rewards: Sequence[float], discount: float) -> float:
    """Horizon total with late-slot emphasis: sum_k discount**(K-1-k) * r_k."""
    r = np.asarray(rewards, dtype=float)
    k = np.arange(r.size)
    weights = np.float_power(discount, r.size - 1 - k)
    return float(np.dot(weights, r))


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
            d = m * li + (1.0 - m) * lb
            prob = np.prod(d, axis=1)
            safe = np.where(d > 0.0, d, 1.0)
            post = np.where(d > 0.0, m * li / safe, m)
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
                d = m * li + (1.0 - m) * lb
                prob = np.prod(d, axis=1)
                safe = np.where(d > 0.0, d, 1.0)
                post = np.where(d > 0.0, m * li / safe, m)
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
            d = m * li + (1.0 - m) * lb
            prob = float(np.prod(d))
            if prob <= 0.0:
                continue
            post = m * li / np.where(d > 0.0, d, 1.0)
            total += prob * recurse(post, k + 1)
        return total

    return recurse(np.asarray(belief, dtype=float), 0)
