"""Scenario files: schema-checked YAML with dotted-path overrides and profiles.

A scenario document maps one-to-one onto ScenarioConfig, and SCHEMA lists
each of its keys once, with its kind and default.  Loading is strict:
unknown keys are rejected (with a spelling hint), required keys must be
present, and every type or range violation is reported with the dotted path
of the offending key.  The rules that span keys live in
ScenarioConfig.validate and name their key too.  Shipped profiles live next
to the package and are addressed by name ("five-slice", "two-slice")
wherever a file path is accepted.
"""

from __future__ import annotations

import copy
import dataclasses
import difflib
from importlib import resources
from pathlib import Path
from typing import Any, Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple, Union

import yaml

from .channel import CellTopology, RadioParams, RbMarkov, Timebase, dbm_to_watts
from .controller import ControllerParams
from .engine import ConfigError, ScenarioConfig
from .pomdp import ObservationModel
from .slicing import VirtualNetwork


class _Kind(NamedTuple):
    types: Tuple[type, ...]
    name: str               # what a wrong type is told it should have been
    nullable: bool = False  # null is a value of this kind
    unit: bool = False      # the value must lie in [0, 1]


NUMBER = _Kind((int, float), "a number")
INTEGER = _Kind((int,), "an integer")
BOOLEAN = _Kind((bool,), "a boolean")
STRING = _Kind((str,), "a string")
OPTIONAL_NUMBER = NUMBER._replace(nullable=True)
UNIT = NUMBER._replace(unit=True)

# Every document key: a section maps to its keys, a list to its item's keys,
# and a key to (kind,) when it is required or (kind, default) when it is not.
# An absent key takes the default; a null is checked like any other value.
SCHEMA: Dict[str, Any] = {
    "topology": {"total_rbs": (INTEGER,), "access_rbs": (INTEGER,),
                 "data_rbs": (INTEGER,), "devices": (INTEGER,)},
    "timebase": {"slot_duration": (NUMBER,), "slots_per_period": (INTEGER,),
                 "periods": (INTEGER,)},
    "slices": [{"slice_id": (INTEGER,), "devices": (INTEGER,), "access_rbs": (INTEGER,),
                "data_rbs": (INTEGER, 0), "weight": (NUMBER,)}],
    "radio": {"bandwidth_per_rb": (NUMBER,), "tx_power": (OPTIONAL_NUMBER, None),
              "tx_power_dbm": (OPTIONAL_NUMBER, None), "noise_power": (NUMBER,),
              "busy_power": (OPTIONAL_NUMBER, None)},
    "markov": {"idle_to_idle": (UNIT,), "idle_to_busy": (UNIT,),
               "busy_to_idle": (UNIT,), "busy_to_busy": (UNIT,)},
    "observation": {"epsilon": (UNIT,), "phi": (UNIT, None),   # absent: epsilon
                    "sleep_sensing": (BOOLEAN, True), "force_equal_noise": (BOOLEAN, True)},
    "policy": {"mode": (STRING, "pomdp"), "solver": (STRING, "auto"),
               "grid_points": (INTEGER, 101), "discount": (NUMBER,)},
    "controller": {"omega": (NUMBER,), "mu": (NUMBER,)},
    "controller_enabled": (BOOLEAN, True),
    "hard_collision": (BOOLEAN, False),
    "seed": (INTEGER, 1),
}


def _join(path: str, key: Any) -> str:
    return f"{path}.{key}" if path else str(key)


def _markov_key(field: str) -> str:
    """The document key of an RbMarkov field: p_idle_busy is idle_to_busy."""
    return field[2:].replace("_", "_to_")


def _value(raw: Any, kind: _Kind, path: str) -> Any:
    if raw is None and kind.nullable:
        return None
    if not isinstance(raw, kind.types) or (isinstance(raw, bool) and kind is not BOOLEAN):
        raise ConfigError(path, f"expected {kind.name}, got {raw!r}")
    value = float(raw) if float in kind.types else raw
    if kind.unit and not 0.0 <= value <= 1.0:
        raise ConfigError(path, f"must lie in [0, 1], got {value}")
    return value


def _read(section: Any, schema: Mapping, path: str) -> Dict[str, Any]:
    """Check a section against its schema; its values in schema order, defaults filled."""
    if not isinstance(section, Mapping):
        raise ConfigError(path, "expected a key/value section")
    for key in section:
        if key not in schema:
            hint = difflib.get_close_matches(str(key), list(schema), n=1)
            detail = (f"unknown key (did you mean {hint[0]!r}?)" if hint else
                      f"unknown key; known keys: {', '.join(sorted(schema))}")
            raise ConfigError(_join(path, key), detail)
    out = {}
    for key, spec in schema.items():
        where = _join(path, key)
        if isinstance(spec, tuple):
            if key in section:
                out[key] = _value(section[key], spec[0], where)
            elif len(spec) == 2:
                out[key] = spec[1]
            else:
                raise ConfigError(where, "required key is missing")
        elif key not in section:
            raise ConfigError(where, "required section is missing")
        elif isinstance(spec, list):
            items = section[key]
            if not isinstance(items, Sequence) or isinstance(items, (str, bytes)):
                raise ConfigError(where, "expected a list of slice sections")
            out[key] = [_read(item, spec[0], _join(where, i)) for i, item in enumerate(items)]
        else:
            out[key] = _read(section[key], spec, where)
    return out


def _construct(factory, kwargs: Dict[str, Any], path: str):
    try:
        return factory(**kwargs)
    except ValueError as exc:
        raise ConfigError(path, str(exc)) from exc


def build_config(doc: Mapping) -> ScenarioConfig:
    """Turn a parsed scenario document into a validated ScenarioConfig."""
    if not isinstance(doc, Mapping):
        raise ConfigError("", "top level must be a key/value document")
    values = _read(doc, SCHEMA, "")
    radio, obs, policy = values["radio"], values["observation"], values["policy"]
    dbm = radio.pop("tx_power_dbm")
    if (radio["tx_power"] is None) == (dbm is None):
        raise ConfigError("radio", "give exactly one of tx_power (watts) or tx_power_dbm")
    if dbm is not None:
        radio["tx_power"] = dbm_to_watts(dbm)
    markov = {f.name: values["markov"][_markov_key(f.name)]
              for f in dataclasses.fields(RbMarkov)}
    cfg = ScenarioConfig(
        topology=_construct(CellTopology, values["topology"], "topology"),
        timebase=_construct(Timebase, values["timebase"], "timebase"),
        slices=tuple(_construct(VirtualNetwork, item, f"slices.{i}")
                     for i, item in enumerate(values["slices"])),
        radio=_construct(RadioParams, radio, "radio"),
        markov=_construct(RbMarkov, markov, "markov"),
        obs=ObservationModel(epsilon=obs["epsilon"],
                             phi=obs["epsilon"] if obs["phi"] is None else obs["phi"]),
        discount=policy["discount"],
        controller=_construct(ControllerParams, values["controller"], "controller"),
        controller_enabled=values["controller_enabled"],
        policy_mode=policy["mode"],
        solver_mode=policy["solver"],
        grid_points=policy["grid_points"],
        sleep_sensing=obs["sleep_sensing"],
        hard_collision=values["hard_collision"],
        force_equal_noise=obs["force_equal_noise"],
        seed=values["seed"])
    cfg.validate()
    return cfg


def to_document(cfg: ScenarioConfig) -> Dict[str, Any]:
    """Canonical document form; build_config(to_document(cfg)) == cfg."""
    asdict = dataclasses.asdict
    return {
        "topology": asdict(cfg.topology),
        "timebase": asdict(cfg.timebase),
        "slices": [asdict(s) for s in cfg.slices],
        "radio": asdict(cfg.radio),
        "markov": {_markov_key(field): p for field, p in asdict(cfg.markov).items()},
        "observation": {**asdict(cfg.obs), "sleep_sensing": cfg.sleep_sensing,
                        "force_equal_noise": cfg.force_equal_noise},
        "policy": {"mode": cfg.policy_mode, "solver": cfg.solver_mode,
                   "grid_points": cfg.grid_points, "discount": cfg.discount},
        "controller": asdict(cfg.controller),
        "controller_enabled": cfg.controller_enabled,
        "hard_collision": cfg.hard_collision,
        "seed": cfg.seed,
    }


def serialize(cfg: ScenarioConfig) -> str:
    return yaml.safe_dump(to_document(cfg), sort_keys=False)


# -- overrides ----------------------------------------------------------------

def apply_overrides(doc: Mapping, overrides: Sequence[str]) -> Dict[str, Any]:
    """Apply `dotted.path=value` assignments on a deep copy of the document.

    Values are parsed as YAML scalars, so booleans and numbers come out typed;
    list elements are addressed by integer, e.g. slices.0.devices=10.
    """
    out = copy.deepcopy(dict(doc))
    for item in overrides:
        key, sep, raw = item.partition("=")
        key = key.strip()
        if not sep or not key:
            raise ConfigError("", f"override {item!r} must look like key.path=value")
        try:
            value = yaml.safe_load(raw) if raw.strip() else ""
        except yaml.YAMLError:
            value = raw
        _set_path(out, key.split("."), value, key)
    return out


def _set_path(node: Any, parts: List[str], value: Any, full: str) -> None:
    head, rest = parts[0], parts[1:]
    if isinstance(node, list):
        try:
            idx = int(head)
        except ValueError:
            raise ConfigError(full, f"{head!r} is not a list index") from None
        if not 0 <= idx < len(node):
            raise ConfigError(full, f"index {idx} is out of range")
        if rest:
            _set_path(node[idx], rest, value, full)
        else:
            node[idx] = value
        return
    if not isinstance(node, dict):
        raise ConfigError(full, "override path descends into a scalar")
    if rest:
        child = node.get(head)
        if child is None:
            child = node[head] = {}
        _set_path(child, rest, value, full)
    else:
        node[head] = value


# -- sources and profiles -----------------------------------------------------

def _profile_root():
    return resources.files("m2msim") / "profiles"


def list_profiles() -> List[str]:
    return sorted(entry.name[:-5].replace("_", "-")
                  for entry in _profile_root().iterdir()
                  if entry.name.endswith(".yaml"))


def read_source(source: Union[str, Path]) -> Tuple[str, str]:
    """Resolve a path or profile name; returns (text, label)."""
    path = Path(source)
    if path.is_file():
        return path.read_text(), path.stem
    name = str(source).replace("-", "_")
    candidate = _profile_root() / f"{name}.yaml"
    if candidate.is_file():
        return candidate.read_text(), str(source)
    raise ConfigError("", f"no config file or profile named {source!r}; "
                          f"shipped profiles: {', '.join(list_profiles())}")


def load_config(source: Union[str, Path], overrides: Sequence[str] = (),
                seed: Optional[int] = None) -> ScenarioConfig:
    """Load a scenario from a file path or shipped profile name."""
    text, _ = read_source(source)
    try:
        doc = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigError("", f"not parseable as YAML: {exc}") from exc
    if not isinstance(doc, Mapping):
        raise ConfigError("", "top level must be a key/value document")
    doc = apply_overrides(doc, overrides)
    if seed is not None:
        doc["seed"] = int(seed)
    return build_config(doc)
