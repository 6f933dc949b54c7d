"""Outside-in layer trace: time m2msim's public entry points without editing it.

``Tracer`` replaces each entry point below with a timing wrapper while it is
installed and puts the original object back when it is removed.  Spans nest
through a stack, so every span's self time excludes the spans called inside
it.  The wrapper's own bookkeeping is charged to no span; it shows up in
``other_s`` and ``trace_overhead_s``.
"""

from __future__ import annotations

import functools
import hashlib
import pickle
import statistics
import time
from collections import defaultdict
from typing import Dict, List

import numpy as np

from m2msim import cli, config, controller, engine, pomdp, slicing

# (owner, attribute, span).  Entry points are patched where their callers look
# them up: the engine calls channel.evolve_many through its own imported name.
ENTRY_POINTS = [
    (cli, "main", "cli"),
    (config, "load_config", "config.load"),
    (engine.Simulation, "__init__", "engine.run"),
    (engine.Simulation, "run", "engine.run"),
    (engine.Simulation, "run_period", "engine.period"),
    (engine.Simulation, "run_slot", "engine.slot"),
    (engine, "evolve_many", "channel.evolve"),
    (pomdp, "belief_propagate", "pomdp.propagate"),
    (pomdp, "solve", "pomdp.solve"),
    (pomdp.MyopicPolicy, "act", "pomdp.act"),
    (pomdp.AlphaPolicy, "act", "pomdp.act"),
    (pomdp.GridPolicy, "act", "pomdp.act"),
    (slicing, "period_average_rate", "slicing"),
    (slicing, "ratios", "slicing"),
    (controller, "smooth", "controller"),
    (controller, "delta_rbs", "controller"),
    (controller, "apply_allocation", "controller"),
]


class Tracer:
    """Spans and counters of one traced rep; use as a context manager."""

    def __init__(self):
        self.calls: Dict[str, int] = defaultdict(int)
        self.self_s: Dict[str, float] = defaultdict(float)
        self.solve_s: Dict[str, float] = defaultdict(float)   # by policy mode
        self.models = set()
        self.slot_self_us: List[float] = []
        self.device_slots = 0
        self.accessing = 0
        self.collided = 0
        self.rbs_moved = 0
        self._stack: List[float] = []    # child time of each open span
        self._originals = [(owner, attr, vars(owner)[attr])
                           for owner, attr, _ in ENTRY_POINTS]
        self._hooks = {"engine.slot": self._on_slot, "pomdp.solve": self._on_solve,
                       "engine.run": self._on_run}

    def __enter__(self) -> "Tracer":
        for (owner, attr, original), (_, _, span) in zip(self._originals, ENTRY_POINTS):
            setattr(owner, attr, self._wrap(original, span))
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in self._originals:
            setattr(owner, attr, original)

    def restored(self) -> bool:
        """True when every entry point is the original object again."""
        return all(vars(owner)[attr] is original
                   for owner, attr, original in self._originals)

    def _wrap(self, original, span: str):
        stack = self._stack
        clock = time.perf_counter
        hook = self._hooks.get(span)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            entered = clock()
            stack.append(0.0)
            start = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                own = clock() - start - stack.pop()
            self.calls[span] += 1
            self.self_s[span] += own
            if hook is not None:
                hook(own, args, kwargs, result)
            if stack:
                stack[-1] += clock() - entered
            return result

        return traced

    # -- counters read at the boundaries ------------------------------------

    def _on_slot(self, own, args, kwargs, result) -> None:
        sim = args[0]
        actions = result["actions"]
        self.slot_self_us.append(own * 1e6)
        self.device_slots += actions.size
        accessing = actions > 0
        offsets = np.concatenate([[0], np.cumsum(sim.allocation)[:-1]])
        rb = offsets[sim.device_slice[accessing]] + actions[accessing] - 1
        load = np.bincount(rb, minlength=sim.pool)
        self.accessing += int(accessing.sum())
        self.collided += int((load[rb] > 1).sum())

    def _on_solve(self, own, args, kwargs, result) -> None:
        self.solve_s[result.mode] += own
        self.models.add(hashlib.sha256(pickle.dumps((args, kwargs))).hexdigest())

    def _on_run(self, own, args, kwargs, result) -> None:
        if result is not None:           # __init__ shares the span and returns None
            self.rbs_moved += sum(abs(r.delta_applied) for r in result.period_rows)

    # -- per-rep metrics ------------------------------------------------------

    def metrics(self, wall_s: float) -> Dict[str, float]:
        s, c = self.self_s, self.calls
        solves = c["pomdp.solve"]
        return {
            "engine.slot_self_s": s["engine.slot"],
            "engine.period_self_s": s["engine.period"],
            "engine.run_self_s": s["engine.run"],
            "engine.slots": c["engine.slot"],
            "engine.device_slots": self.device_slots,
            "engine.access_frac": self.accessing / max(self.device_slots, 1),
            "engine.collision_frac": self.collided / max(self.accessing, 1),
            "pomdp.propagate_calls": c["pomdp.propagate"],
            "pomdp.propagate_s": s["pomdp.propagate"],
            "pomdp.solve_calls": solves,
            "pomdp.solve_exact_s": self.solve_s["exact"],
            "pomdp.solve_grid_s": self.solve_s["grid"],
            "pomdp.solve_unique_ratio": len(self.models) / solves if solves else 0.0,
            "pomdp.act_calls": c["pomdp.act"],
            "pomdp.act_s": s["pomdp.act"],
            "channel.evolve_calls": c["channel.evolve"],
            "channel.evolve_s": s["channel.evolve"],
            "slicing.calls": c["slicing"],
            "slicing.s": s["slicing"],
            "controller.calls": c["controller"],
            "controller.s": s["controller"],
            "controller.rbs_moved": self.rbs_moved,
            "config.load_s": s["config.load"],
            "cli.self_s": s["cli"],
            "other_s": wall_s - sum(s.values()),
        }


def summarize(tracers: List[Tracer], walls: List[float]) -> Dict[str, float]:
    """Median of every per-rep metric; slot percentiles over all reps' slots."""
    reps = [t.metrics(w) for t, w in zip(tracers, walls)]
    out = {name: statistics.median(r[name] for r in reps) for name in reps[0]}
    slots = np.concatenate([t.slot_self_us for t in tracers])
    out["engine.slot_self_us_p50"] = float(np.percentile(slots, 50))
    out["engine.slot_self_us_p95"] = float(np.percentile(slots, 95))
    return out
