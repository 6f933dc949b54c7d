"""Simulator of sliced M2M random access with belief-driven channel selection
and per-period feedback reallocation of resource blocks."""

from .channel import (BUSY, IDLE, CellTopology, RadioParams, RbMarkov,
                      Timebase, dbm_to_watts, rate)
from .config import ConfigError, list_profiles, load_config, serialize
from .controller import (ControllerParams, apply_allocation, closed_loop_reference,
                         delta_rbs, smooth)
from .engine import (RunSummary, ScenarioConfig, Simulation, aggregate_sweep,
                     run_batch, run_simulation, run_sweep, with_axis_value)
from .pomdp import (ObservationModel, PomdpModel, belief_propagate, belief_update,
                    solve, total_discounted_reward)
from .slicing import VirtualNetwork, period_average_rate, ratios

__version__ = "0.1.0"

__all__ = [
    "BUSY", "IDLE", "CellTopology", "RadioParams", "RbMarkov", "Timebase",
    "dbm_to_watts", "rate",
    "ControllerParams", "apply_allocation", "closed_loop_reference",
    "delta_rbs", "smooth",
    "ConfigError", "list_profiles", "load_config", "serialize",
    "RunSummary", "ScenarioConfig", "Simulation", "aggregate_sweep",
    "run_batch", "run_simulation", "run_sweep", "with_axis_value",
    "ObservationModel", "PomdpModel", "belief_propagate",
    "belief_update", "solve", "total_discounted_reward",
    "VirtualNetwork", "period_average_rate", "ratios",
    "__version__",
]
