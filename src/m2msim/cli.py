"""Batch command-line front end: seeded runs, axis sweeps, self-verification.

Every invocation is deterministic: output files carry no timestamps, run ids
are derived from the scenario content and seed, and repeating a command
reproduces its CSVs byte for byte.  Floats are serialized with 9 significant
digits.  Exit codes: 0 success, 1 configuration or usage error, 2 runtime
failure, 3 verification failure.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import contextlib
import csv
import dataclasses
import functools
import hashlib
import io
import itertools
import logging
import math
import os
import sys
import tempfile
import time
from pathlib import Path
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from . import config as cfglib
from . import engine, pomdp
from .channel import RbMarkov
from .config import ConfigError
from .controller import ControllerParams, closed_loop_reference
from .engine import ScenarioConfig, SWEEP_AXES, run_simulation
from .pomdp import ObservationModel, PomdpModel

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_RUNTIME = 2
EXIT_VERIFY = 3

OUT_ENV = "M2MSIM_OUT"

PERIOD_HEADER = ["period", "slice", "C_l", "Q_l", "xi_l", "xi_star_l", "e_l",
                 "delta_R_raw", "delta_R_applied", "R_l"]
SUMMARY_HEADER = ["run_id", "seed", "axis_value",
                  "mean_discounted_reward", "final_max_abs_gap"]
SLOT_HEADER = [*engine.SLOT_RECORD.names, "reward"]   # reward repeats the rate
AGG_HEADER = ["axis_value", "mean", "stderr"]
SLOT_BLOCK = 2048   # slot records formatted and written at a time
# slot record int fields formatted together, once per distinct tuple in a
# block; grouped as they repeat in the engine's layout: period and slot along
# a slot row, slice and device across rows, the rest over a few small values
_SLOT_GROUPS = (("period", "slot"), ("slice", "device"),
                ("action", "rb_global", "rb_state", "observation"))


def _fmt(x: float) -> str:
    return format(float(x), ".9g")


def _run_id(cfg: ScenarioConfig, label: str) -> str:
    digest = hashlib.sha1(cfglib.serialize(cfg).encode()).hexdigest()[:10]
    return f"{label}-s{cfg.seed}-{digest}"


def _label(source: str) -> str:
    return Path(str(source)).stem.replace("_", "-")


def _out_dir(args) -> Path:
    out = Path(args.out or os.environ.get(OUT_ENV) or "out")
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_csv(path: Path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _log_to_stderr(level) -> None:
    """Send the package's log records at `level` and above to stderr; also
    the sweep pool's initializer, so workers not forked from main log too."""
    logger = logging.getLogger(__package__)
    logger.setLevel(level)
    if not logger.handlers:
        handler = logging.StreamHandler()
        handler.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))
        logger.addHandler(handler)


def _period_rows(summary: engine.RunSummary) -> List[List]:
    return [[r.period, r.slice_id, _fmt(r.obtained_rate), _fmt(r.filtered_rate),
             _fmt(r.xi), _fmt(r.xi_star), _fmt(r.gap), _fmt(r.delta_raw),
             r.delta_applied, r.access_rbs] for r in summary.period_rows]


def _dense_codes(column: np.ndarray) -> Tuple[np.ndarray, int]:
    """The column as codes below m that are equal where its values are, and
    m, which is at most the column's size."""
    lo = int(column.min())
    span = int(column.max()) - lo + 1
    if span <= column.size:
        return column - lo, span
    values, codes = np.unique(column, return_inverse=True)
    return codes, values.size


def _group_texts(block: np.ndarray, names: Sequence[str]) -> np.ndarray:
    """The block's "f1,f2,...," texts of the int fields `names`, one a
    record, as an object array; each distinct tuple is formatted once,
    found by one int64 key of the fields' dense codes (below
    SLOT_BLOCK**len(names), so it cannot overflow for four fields)."""
    key = np.zeros(block.size, dtype=np.int64)
    for name in names:
        codes, size = _dense_codes(block[name])
        key = key * size + codes
    _, first, which = np.unique(key, return_index=True, return_inverse=True)
    values = np.column_stack([block[name][first] for name in names]).ravel()
    table = ("%d," * len(names) + "\n") * first.size % tuple(values.tolist())
    return np.array(table.splitlines(), dtype=object)[which]


def _write_slots(fh, records: np.ndarray) -> None:
    """Append slot records to slots.csv one SLOT_BLOCK at a time, formatting
    each repeated group of fields once per block.

    Every field is a number, so nothing needs quoting, `%d` equals str and
    `%.9g` equals `_fmt`; rows end in csv.writer's CRLF.  A block is a table
    of seven texts a record: one per field group of _SLOT_GROUPS
    (`_group_texts`), the rate, a comma, the rate again as the reward, and
    the line end.  Each rate is formatted once.  A block is joined and
    written as one string."""
    for start in range(0, records.size, SLOT_BLOCK):
        block = records[start:start + SLOT_BLOCK]
        texts = np.empty((block.size, 7), dtype=object)
        for column, names in enumerate(_SLOT_GROUPS):
            texts[:, column] = _group_texts(block, names)
        texts[:, 3] = texts[:, 5] = (
            "%.9g\n" * block.size % tuple(block["rate"].tolist())).splitlines()
        texts[:, 4] = ","
        texts[:, 6] = "\r\n"
        fh.write("".join(texts.ravel().tolist()))


@contextlib.contextmanager
def _slots_csv(path: Path):
    """A slot sink that appends each period's records to slots.csv as the run
    makes them.  The file is written under a temporary name beside `path`
    and moved into place when the block exits cleanly; when it raises, the
    temporary file is removed, so a failed run leaves no partial file."""
    part = path.with_name(path.name + ".part")
    try:
        with part.open("w", newline="") as fh:
            fh.write(",".join(SLOT_HEADER) + "\r\n")
            yield lambda _run, records: _write_slots(fh, records)
        os.replace(part, path)
    finally:
        part.unlink(missing_ok=True)


# -- run ----------------------------------------------------------------------

def cmd_run(args) -> int:
    cfg = cfglib.load_config(args.config, args.overrides, seed=args.seed)
    out = _out_dir(args)
    with _slots_csv(out / "slots.csv") if args.slots else contextlib.nullcontext() as sink:
        summary = run_simulation(cfg, slot_sink=sink)
    rid = _run_id(cfg, _label(args.config))
    _write_csv(out / "periods.csv", PERIOD_HEADER, _period_rows(summary))
    _write_csv(out / "summary.csv", SUMMARY_HEADER,
               [[rid, cfg.seed, "", _fmt(summary.mean_discounted_reward),
                 _fmt(summary.final_max_abs_gap)]])
    print(f"{rid}: mean_discounted_reward={_fmt(summary.mean_discounted_reward)} "
          f"final_max_abs_gap={_fmt(summary.final_max_abs_gap)} -> {out}")
    return EXIT_OK


# -- sweep ----------------------------------------------------------------------

def _require_finite(numbers: Iterable[float], text: str) -> None:
    if not all(map(math.isfinite, numbers)):
        raise ConfigError("values", f"sweep values must be finite, got {text!r}")


def _parse_values(axis: str, text: str) -> List[float]:
    text = text.strip()
    if ".." in text:
        span, _, step_text = text.partition(":")
        lo_text, _, hi_text = span.partition("..")
        try:
            lo, hi = float(lo_text), float(hi_text)
            step = float(step_text) if step_text else 1.0
        except ValueError:
            raise ConfigError("values",
                              f"bad range {text!r}; use start..stop:step") from None
        _require_finite((lo, hi, step), text)
        if step <= 0 or hi < lo:
            raise ConfigError("values", f"empty range {text!r}")
        count = int(round((hi - lo) / step))
        values = [round(lo + i * step, 12) for i in range(count + 1)
                  if lo + i * step <= hi + 1e-12]
    else:
        try:
            values = [float(v) for v in text.split(",") if v.strip()]
        except ValueError:
            raise ConfigError("values",
                              f"bad value list {text!r}; use v1,v2,...") from None
        _require_finite(values, text)
    if not values:
        raise ConfigError("values", "no sweep values given")
    if axis in ("rbs", "devices"):
        if any(v != int(v) for v in values):
            raise ConfigError("values", f"axis {axis!r} takes integer values")
        values = [int(v) for v in values]
    return values


def _run_sweep(cfg: ScenarioConfig, axis: str, values: List[float],
               seeds: List[int]) -> List[engine.SweepRow]:
    """The sweep's runs as one batch per worker process, or in-process as
    one batch where processes cannot be started."""
    workers = min(len(values) * len(seeds), os.cpu_count() or 1, 8)
    if workers > 1:
        try:
            level = logging.getLogger(__package__).level
            with concurrent.futures.ProcessPoolExecutor(
                    max_workers=workers, initializer=_log_to_stderr,
                    initargs=(level,)) as pool:
                return engine.run_sweep(cfg, axis, values, seeds, pool.map, batches=workers)
        except (OSError, concurrent.futures.process.BrokenProcessPool):
            pass  # no subprocess support here; fall back to in-process
    return engine.run_sweep(cfg, axis, values, seeds)


def cmd_sweep(args) -> int:
    cfg = cfglib.load_config(args.config, args.overrides, seed=args.seed)
    values = _parse_values(args.axis, args.values)
    if args.seeds < 1:
        raise ConfigError("seeds", "at least one seed is required")
    seeds = [cfg.seed + i for i in range(args.seeds)]
    rows = _run_sweep(cfg, args.axis, values, seeds)

    out = _out_dir(args)
    label = _label(args.config)
    table = [[_run_id(row.config, f"{label}-{row.axis}{_fmt(row.axis_value)}"),
              row.seed, _fmt(row.axis_value),
              _fmt(row.summary.mean_discounted_reward),
              _fmt(row.summary.final_max_abs_gap)] for row in rows]
    _write_csv(out / "sweep.csv", SUMMARY_HEADER, table)
    agg = engine.aggregate_sweep(rows)
    _write_csv(out / "sweep_agg.csv", AGG_HEADER,
               [[_fmt(v), _fmt(mean), _fmt(err)] for v, mean, err in agg])
    print(f"{label}: axis={args.axis} values={len(values)} seeds={len(seeds)} "
          f"rows={len(table)} -> {out}")
    return EXIT_OK


# -- verify ---------------------------------------------------------------------

# Each check is one property of the package, run by `m2msim verify` and
# asserted by the test that pairs with it; `ok` is the AND of every clause.

def _check_deadbeat() -> Tuple[bool, str]:
    """On the linear reference plant a target step is absorbed after exactly
    one period: the first post-step gap is large, every later gap < 1e-9."""
    periods, step_at = 12, 3
    worst_after, smallest_at_step = 0.0, np.inf
    for n, omega, mu in itertools.product((2, 5), (0.5, 0.8), (1.0, 2.0)):
        before = np.full(n, 1.0 / n)
        after = np.arange(1, n + 1, dtype=float)
        after /= after.sum()
        targets = np.vstack([np.tile(before, (step_at, 1)),
                             np.tile(after, (periods - step_at, 1))])
        ref = closed_loop_reference(ControllerParams(omega=omega, mu=mu),
                                    1.0 + np.arange(n, dtype=float), targets)
        gap = np.abs(ref["gap"])
        worst_after = max(worst_after, float(gap[step_at + 1:].max()))
        smallest_at_step = min(smallest_at_step, float(gap[step_at].max()))
    return (worst_after < 1e-9 and smallest_at_step > 1e-3,
            f"max residual gap {worst_after:.3e} (bound 1e-9), "
            f"step-period gap {smallest_at_step:.3e} (want > 1e-3)")


def _check_pomdp_oracle() -> Tuple[bool, str]:
    """Alpha-vector backward induction equals brute-force tree expansion on
    every instance small enough to enumerate: 1 or 2 RBs, horizons 1 to 4,
    flip rates 0 to 0.5, late-slot emphasis 0 to 1, 25 beliefs each."""
    rng = np.random.default_rng(2026)
    beliefs = {n: rng.random((25, n)) for n in (1, 2)}
    grid = list(itertools.product((1, 2), (1, 2, 3, 4), (0.0, 0.1, 0.3, 0.5),
                                  (0.0, 0.5, 1.0)))
    worst = 0.0
    for n, horizon, eps, beta in grid:
        model = PomdpModel(markov=RbMarkov(0.9, 0.1, 0.95, 0.05),
                           obs=ObservationModel.symmetric(eps),
                           horizon=horizon, discount=beta,
                           rate_idle=np.linspace(1.0, 1.5, n),
                           rate_busy=np.linspace(0.2, 0.3, n))
        reference = pomdp.exhaustive_value(model, beliefs[n])
        policy = pomdp.solve_exact(model)
        got = np.array([policy.value(b) for b in beliefs[n]])
        worst = max(worst, float(np.max(np.abs(got - reference))))
    return (worst < 1e-9,
            f"{len(grid)} instances, max |solver - enumeration| {worst:.3e} (bound 1e-9)")


def _check_belief() -> Tuple[bool, str]:
    """10^4 random update steps keep beliefs in [0, 1]; flip rate 0.5 updates
    equal pure Markov propagation exactly, bit for bit."""
    markov = RbMarkov(0.9, 0.1, 0.95, 0.05)
    rng = np.random.default_rng(31)
    n = 4

    belief = rng.random(n)
    lo, hi = 1.0, 0.0
    for _ in range(10_000):
        obs_model = ObservationModel.symmetric(float(rng.uniform(0.0, 1.0)))
        action = int(rng.integers(0, n + 1))
        obs = rng.integers(0, 2, size=n)
        belief = pomdp.belief_update(belief, action, obs, markov, obs_model)
        lo = min(lo, float(belief.min()))
        hi = max(hi, float(belief.max()))

    chance = ObservationModel.symmetric(0.5)
    belief = rng.random(n)
    exact_matches = 0
    for _ in range(10_000):
        obs = rng.integers(0, 2, size=n)
        updated = pomdp.belief_update(belief, 1, obs, markov, chance)
        exact_matches += int(np.array_equal(updated,
                                            pomdp.belief_propagate(belief, markov)))
        belief = updated
    return (0.0 <= lo and hi <= 1.0 and exact_matches == 10_000,
            f"range [{lo:.6f}, {hi:.6f}] over 10^4 noisy steps; "
            f"{exact_matches}/10000 chance-level steps identical to propagation")


def _check_discount() -> Tuple[bool, str]:
    """The horizon total weighs slot k by discount**(K-1-k)."""
    got = [pomdp.total_discounted_reward((5.0, 7.0, 9.0), 0.0),
           pomdp.total_discounted_reward((4.0, 4.0, 4.0), 0.5),
           pomdp.total_discounted_reward((5.0, 7.0, 9.0), 1.0)]
    return got == [9.0, 7.0, 21.0], f"late-slot totals {got} (want [9.0, 7.0, 21.0])"


def _check_determinism() -> Tuple[bool, str]:
    """Every period keeps the cell covered: slice allocations stay within the
    access pool, the data share never dips below its configured floor, share
    errors cancel to 1e-9; a repeated seeded command reproduces its CSVs
    byte for byte."""
    worst_gap_sum, covered = 0.0, True
    for profile in ("five-slice", "two-slice"):
        cfg = cfglib.load_config(profile)
        topo = cfg.topology
        covered &= topo.access_rbs + topo.data_rbs == topo.total_rbs
        for summary in engine.run_batch([dataclasses.replace(cfg, seed=seed)
                                         for seed in (1, 2, 3)]):
            for _, rows in itertools.groupby(summary.period_rows, lambda r: r.period):
                rows = list(rows)
                worst_gap_sum = max(worst_gap_sum, abs(sum(r.gap for r in rows)))
                access_total = sum(r.access_rbs for r in rows)
                covered &= (access_total <= topo.access_rbs
                            and all(1 <= r.access_rbs <= topo.access_rbs for r in rows)
                            and topo.total_rbs - access_total >= topo.data_rbs)

    args = ["run", "--config", "two-slice", "--set", "timebase.periods=6",
            "--seed", "11"]
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
        a, b = Path(tmp, "a"), Path(tmp, "b")
        identical = (main([*args, "--out", str(a)]) == EXIT_OK
                     and main([*args, "--out", str(b)]) == EXIT_OK
                     and all((a / name).read_bytes() == (b / name).read_bytes()
                             for name in ("periods.csv", "summary.csv")))
    return (covered and worst_gap_sum < 1e-9 and identical,
            f"allocations within the pool={covered}, "
            f"max |sum of share errors| {worst_gap_sum:.3e} (bound 1e-9), "
            f"byte-identical rerun={identical}")


VERIFY_CHECKS = {
    "deadbeat": _check_deadbeat,
    "pomdp-oracle": _check_pomdp_oracle,
    "belief": _check_belief,
    "discount": _check_discount,
    "determinism": _check_determinism,
}


def cmd_verify(args) -> int:
    names = [args.only] if args.only else list(VERIFY_CHECKS)
    failures = 0
    for name in names:
        start = time.perf_counter()
        ok, detail = VERIFY_CHECKS[name]()
        took = time.perf_counter() - start
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail} [{took:.2f}s]")
        failures += 0 if ok else 1
    return EXIT_OK if failures == 0 else EXIT_VERIFY


# -- entry point ------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", default="five-slice",
                     help="scenario file path or shipped profile name")
    sub.add_argument("--set", dest="overrides", action="append", default=[],
                     metavar="KEY=VALUE", help="override a config key (repeatable)")
    sub.add_argument("--seed", type=int, default=None,
                     help="override the scenario seed")
    sub.add_argument("--out", default=None,
                     help=f"output directory (default ${OUT_ENV} or ./out)")
    sub.add_argument("--log-level", choices=("debug", "info", "warning", "error"),
                     default="warning",
                     help="least severe log message printed to stderr")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="m2msim",
                     description="Sliced-cell random access simulator")
    commands = parser.add_subparsers(dest="command", required=True)

    run = commands.add_parser("run", parents=[], help="one seeded scenario run")
    _add_common(run)
    run.add_argument("--slots", action="store_true",
                     help="also write the per-device slot records")
    run.set_defaults(func=cmd_run)

    sweep = commands.add_parser("sweep", help="run a scenario across an axis")
    _add_common(sweep)
    sweep.add_argument("--axis", required=True, choices=SWEEP_AXES)
    sweep.add_argument("--values", required=True,
                       help="comma list (1,2,3) or range (0.1..0.8:0.1)")
    sweep.add_argument("--seeds", type=int, default=10,
                       help="number of consecutive seeds per value")
    sweep.set_defaults(func=cmd_sweep)

    verify = commands.add_parser("verify", help="run the built-in self-checks")
    verify.add_argument("--only", choices=sorted(VERIFY_CHECKS), default=None)
    verify.set_defaults(func=cmd_verify)
    return parser


@functools.lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The parser `main` uses, built on its first call and kept for the
    process: parsing leaves it as it was."""
    return build_parser()


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    logger = logging.getLogger(__package__)
    saved = logger.level, list(logger.handlers)
    _log_to_stderr(getattr(args, "log_level", "warning").upper())
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"m2msim: config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:
        print(f"m2msim: error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    finally:
        logger.setLevel(saved[0])
        logger.handlers[:] = saved[1]


if __name__ == "__main__":
    sys.exit(main())
