"""Run one workload in this fresh interpreter and print its measurements as JSON.

run.py starts this file with ``PYTHONPATH=src``.  Set-up time runs from
just before m2msim, and with it numpy and scipy, is imported until the
workload's first scenario has been loaded, the last step before the first
slot.  A rep calls ``m2msim.cli.main`` once per scenario and is timed around
those calls only; its CSVs are then checked and deleted.

  --setup-only          report set-up time and exit
  --trace 0             one warm-up rep, then reps until --seconds have passed,
                        with a calibration of the host's speed before and
                        after each rep
  --trace 1             one warm-up rep, then pairs of an untraced and a
                        traced rep until --seconds have passed; both must write
                        the same bytes, and the tracer must leave every entry
                        point as it found it
  --record-digests A-B  rewrite the workload's digests in digests.json for
                        seeds A..B, for when the program's outputs change on
                        purpose
"""

import argparse
import contextlib
import csv
import hashlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

from workloads import WORKLOADS

DIGESTS = Path(__file__).resolve().parent / "digests.json"
MIN_REPS = 3


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", required=True, help="scratch directory for CSVs")
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--record-digests", metavar="A-B", default=None)
    return p.parse_args(argv)


@contextlib.contextmanager
def _one_cpu():
    """Make the CLI see one CPU, so that its sweep runs the jobs in-process."""
    real = os.cpu_count
    os.cpu_count = lambda: 1
    try:
        yield
    finally:
        os.cpu_count = real


def invoke(cli, sc, seed: int, out: Path, serial: bool = False):
    """One ``m2msim`` command in-process; returns (seconds, exit code)."""
    with contextlib.redirect_stdout(io.StringIO()), \
            _one_cpu() if serial else contextlib.nullcontext():
        start = time.perf_counter()
        code = cli.main(sc.argv(seed, str(out / sc.name)))
        return time.perf_counter() - start, code


def _calibration_piece() -> float:
    """A fixed mix of the simulator's kinds of work: small and wide numpy
    arrays, an interpreted loop and float formatting (about 12 ms)."""
    import numpy as np
    rng = np.random.default_rng(0)
    small, wide = rng.random((50, 25)), rng.random((5000, 25))
    acc = 0.0
    for _ in range(60):
        m = 0.9 * small + 0.05
        small = np.where(m > 0.5, m * 0.95, m)
        acc += float(np.bincount(np.argmax(small, axis=1), minlength=25).max())
    for _ in range(6):
        wide = np.where(wide > 0.5, wide * 0.9, wide * 1.1)
        wide /= wide.max()
    for i in range(30_000):
        acc += i * i
    return acc + len(",".join(format(float(x), ".9g") for x in small.ravel()))


def calibrate(pieces: int = 8) -> float:
    """Median seconds of the calibration piece: the host's speed right now."""
    times = []
    for _ in range(pieces):
        start = time.perf_counter()
        _calibration_piece()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def file_digests(out: Path):
    return {str(p.relative_to(out)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.rglob("*.csv"))}


# -- output checks ------------------------------------------------------------------

def _rows(path: Path):
    with path.open(newline="") as fh:
        return list(csv.reader(fh))[1:]


def _finite(values) -> bool:
    return all(math.isfinite(float(v)) for v in values)


def check_run(cfg, out: Path, slots: bool):
    problems = []
    periods, k = cfg.timebase.periods, cfg.timebase.slots_per_period
    pool, n_slices = cfg.topology.access_rbs, len(cfg.slices)
    rows = _rows(out / "periods.csv")
    if len(rows) != periods * n_slices:
        problems.append(f"periods.csv has {len(rows)} rows, want {periods * n_slices}")
    by_period = {}
    for row in rows:
        if not _finite(row):
            problems.append(f"non-finite period row {row}")
        by_period.setdefault(row[0], []).append(row)
    for period, group in by_period.items():
        blocks = [int(r[9]) for r in group]
        if not all(1 <= b <= pool for b in blocks) or sum(blocks) > pool:
            problems.append(f"period {period}: allocation {blocks} outside pool {pool}")
        share_sum = sum(float(r[6]) for r in group)
        if abs(share_sum) >= 1e-9:
            problems.append(f"period {period}: sum of share errors {share_sum:.3e}")
    summary = _rows(out / "summary.csv")
    if len(summary) != 1 or not _finite(summary[0][3:]):
        problems.append(f"bad summary.csv {summary}")
    if slots:   # 12 MB: scan the bytes rather than parse every field
        data = (out / "slots.csv").read_bytes()
        want = periods * k * cfg.topology.devices + 1
        lines = data.count(b"\n")
        if lines != want:
            problems.append(f"slots.csv has {lines} lines, want {want}")
        if b"nan" in data or b"inf" in data:
            problems.append("slots.csv holds a non-finite value")
    return problems


def check_sweep(sc, out: Path):
    problems = []
    rows = _rows(out / "sweep.csv")
    agg = _rows(out / "sweep_agg.csv")
    if len(rows) != sc.runs:
        problems.append(f"sweep.csv has {len(rows)} rows, want {sc.runs}")
    if not all(_finite(r[1:]) for r in rows + agg):
        problems.append("sweep output holds a non-finite value")
    for value, mean, _ in agg:
        rewards = [float(r[3]) for r in rows if float(r[2]) == float(value)]
        if not rewards or abs(statistics.fmean(rewards) - float(mean)) > 1e-6 * abs(float(mean)):
            problems.append(f"sweep_agg mean at {value} disagrees with sweep.csv")
    return problems


def check_scenario(config, sc, seed: int, out: Path, recorded):
    """Invariants at any seed; at a recorded seed also the exact CSV digests."""
    try:
        cfg = config.load_config(sc.config, sc.overrides, seed=seed)
        if sc.command == "sweep":
            problems = check_sweep(sc, out / sc.name)
        else:
            problems = check_run(cfg, out / sc.name, "--slots" in sc.extra)
    except (OSError, ValueError, IndexError) as exc:
        return [f"{sc.name}: unreadable output: {exc!r}"]
    if recorded is not None:
        prefix = sc.name + "/"
        want = {k: v for k, v in recorded.items() if k.startswith(prefix)}
        got = {k: v for k, v in file_digests(out).items() if k.startswith(prefix)}
        if got != want:
            problems.append(f"{sc.name}: CSV digests differ from those recorded "
                            f"for seed {seed}")
    return [f"{sc.name}: {p}" for p in problems]


# -- modes ------------------------------------------------------------------------------

def record_digests(cli, config, workload: str, seeds, scratch: Path) -> None:
    table = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    table[workload] = {}
    for seed in seeds:
        out = Path(tempfile.mkdtemp(dir=scratch))
        for sc in WORKLOADS[workload]:
            _, code = invoke(cli, sc, seed, out)
            problems = check_scenario(config, sc, seed, out, None)
            if code or problems:
                raise SystemExit(f"{workload} seed {seed}: exit {code} {problems}")
        table[workload][str(seed)] = file_digests(out)
        shutil.rmtree(out)
    DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")


def measure(args, cli, config, scenarios, scratch: Path) -> dict:
    recorded = json.loads(DIGESTS.read_text()).get(args.workload, {}).get(str(args.seed))
    serial = args.trace == 1 and args.workload == "sweep"
    counts = {"attempted": 0, "failed": 0}
    problems = []

    def rep(tracer=None):
        """One checked rep; returns (wall, CSV digests, bytes written)."""
        out = Path(tempfile.mkdtemp(dir=scratch))
        wall = 0.0
        for sc in scenarios:
            with tracer or contextlib.nullcontext():
                took, code = invoke(cli, sc, args.seed, out, serial)
            wall += took
            found = ([f"{sc.name}: exit code {code}"] if code else
                     check_scenario(config, sc, args.seed, out, recorded))
            counts["attempted"] += 1
            counts["failed"] += bool(found)
            problems.extend(found)
        files = file_digests(out)
        written = sum((out / name).stat().st_size for name in files)
        shutil.rmtree(out)
        return wall, files, written

    def more(done: int, start: float) -> bool:
        return done < MIN_REPS or time.perf_counter() - start < args.seconds

    walls = []
    result = dict(walls=walls, sweep_serial=serial)
    rep()                                           # warm-up, checked but not timed
    start = time.perf_counter()
    if args.trace == 0:
        calibrations = result["calibrations"] = [calibrate()]
        while more(len(walls), start):
            walls.append(rep()[0])
            calibrations.append(calibrate())
    else:
        import tracer as tracing
        traced, tracers, written = [], [], []
        identical = restored = True
        while more(len(traced), start):
            wall, plain_files, _ = rep()
            tr = tracing.Tracer()
            traced_wall, traced_files, size = rep(tr)
            restored &= tr.restored()
            identical &= plain_files == traced_files
            walls.append(wall)
            traced.append(traced_wall)
            tracers.append(tr)
            written.append(size)
        layers = tracing.summarize(tracers, traced)
        layers["cli.bytes_written"] = statistics.median(written)
        layers["trace_overhead_s"] = statistics.median(traced) - statistics.median(walls)
        result.update(traced_walls=traced, layers=layers, identical=identical,
                      restored=restored)
    result.update(counts, problems=problems[:10])
    return result


def main(argv=None) -> int:
    args = parse_args(argv)
    scenarios = WORKLOADS[args.workload]
    start = time.perf_counter()
    from m2msim import cli, config
    first = scenarios[0]
    config.load_config(first.config, first.overrides, seed=args.seed)
    setup_s = time.perf_counter() - start
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    scratch = Path(args.out)
    scratch.mkdir(parents=True, exist_ok=True)
    if args.record_digests:
        lo, _, hi = args.record_digests.partition("-")
        record_digests(cli, config, args.workload, range(int(lo), int(hi or lo) + 1),
                       scratch)
        return 0

    import numpy
    import scipy
    result = measure(args, cli, config, scenarios, scratch)
    usage = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    slots = device_slots = 0
    for sc in scenarios:
        cfg = config.load_config(sc.config, sc.overrides, seed=args.seed)
        run_slots = cfg.timebase.periods * cfg.timebase.slots_per_period * sc.runs
        slots += run_slots
        device_slots += run_slots * cfg.topology.devices
    sweep = scenarios[0].command == "sweep"
    result.update(
        setup_s=setup_s, peak_rss_mb=usage / 1024.0,
        runs=sum(sc.runs for sc in scenarios), slots=slots, device_slots=device_slots,
        pool_workers=min(scenarios[0].runs, os.cpu_count() or 1, 8) if sweep else 0,
        versions={"python": sys.version.split()[0], "numpy": numpy.__version__,
                  "scipy": scipy.__version__})
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
