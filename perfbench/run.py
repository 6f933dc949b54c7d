"""m2msim benchmark: run one workload and print its metrics.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 20 --trace 0

--trace 0 prints the end-to-end metrics: set-up time from fresh interpreters,
then the median of repeated, checked reps in one fresh worker process.
--trace 1 prints the per-layer metrics of a traced run.  The last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics.  A full record, with versions and counts, goes to
.perfbench/<workload>-trace<0|1>.json.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SCRATCH = ROOT / ".perfbench"
SETUP_PROBES = 4
IMPORT_PROBES = 3
DEADLINE_S = 170.0

# seconds the calibration piece takes on the reference host (2-vCPU Xeon at
# 2.1 GHz, Python 3.11, numpy 2.4) when nothing else slows it
REF_PIECE_S = 0.012


class BenchError(RuntimeError):
    pass


def python(args, deadline: float) -> subprocess.CompletedProcess:
    """Run the interpreter on ROOT with the package on the path; wait for it."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    left = deadline - time.monotonic()
    if left <= 0:
        raise BenchError("out of time before starting a process")
    try:
        return subprocess.run([sys.executable, *args], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=left)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{args[:2]} did not finish in time") from exc


def worker(args, deadline: float) -> dict:
    proc = python([str(BENCH / "worker.py"), *args, "--out", str(SCRATCH / "out")],
                  deadline)
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def import_times(deadline: float):
    """(total, scipy) import seconds of ``import m2msim.cli`` from -X importtime."""
    totals, scipy_totals = [], []
    for _ in range(IMPORT_PROBES):
        proc = python(["-X", "importtime", "-c", "import m2msim.cli"], deadline)
        if proc.returncode != 0:
            raise BenchError(f"import failed:\n{proc.stderr[-2000:]}")
        total = scipy_total = 0
        for line in proc.stderr.splitlines():
            if not line.startswith("import time:") or "imported package" in line:
                continue
            own, _, name = line[len("import time:"):].split("|")
            total += int(own)
            if name.strip().split(".")[0] == "scipy":
                scipy_total += int(own)
        totals.append(total * 1e-6)
        scipy_totals.append(scipy_total * 1e-6)
    return statistics.median(totals), statistics.median(scipy_totals)


def end_to_end(res: dict, setups) -> dict:
    """Rep times at the reference host speed (see README), set-up, memory."""
    cal = res["calibrations"]
    ratios = [w / (0.5 * (cal[i] + cal[i + 1])) for i, w in enumerate(res["walls"])]
    wall = statistics.median(ratios) * REF_PIECE_S
    return {
        "wall_ref_s": wall,
        "setup_s": statistics.median(setups),
        "runs_per_ref_s": res["runs"] / wall,
        "slot_ref_us": wall / res["slots"] * 1e6,
        "device_slot_ref_ns": wall / res["device_slots"] * 1e9,
        "peak_rss_mb": res["peak_rss_mb"],
    }


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    target = ROOT / ".git" / ref[5:]
    if target.is_file():
        return target.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    if not (ROOT / "src" / "m2msim" / "__init__.py").is_file():
        print(f"perfbench: no m2msim package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"]
             for m in spec["per_layer" if args.trace else "end_to_end"]}

    common = ["--workload", args.workload, "--seed", str(args.seed)]
    try:
        if args.trace == 0:
            setups = [worker(common + ["--setup-only"], deadline)["setup_s"]
                      for _ in range(SETUP_PROBES)]
            res = worker(common + ["--seconds", str(args.seconds), "--trace", "0"],
                         deadline)
            setups.append(res["setup_s"])
            metrics = end_to_end(res, setups)
            correct = res["failed"] == 0
        else:
            import_s, scipy_s = import_times(deadline)
            res = worker(common + ["--seconds", str(args.seconds), "--trace", "1"],
                         deadline)
            metrics = dict(res["layers"], **{"import.s": import_s,
                                             "import.scipy_s": scipy_s})
            correct = res["failed"] == 0 and res["identical"] and res["restored"]
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "nproc": os.cpu_count(),
        "platform": platform.platform(), "commit": commit(),
        "source_sha256": source_digest(), "worker": res,
        "failed_frac": res["failed"] / max(res["attempted"], 1),
        "raw_wall_median_s": statistics.median(res["walls"]),
    }
    SCRATCH.mkdir(exist_ok=True)
    (SCRATCH / f"{args.workload}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"attempted {res['attempted']} failed {res['failed']} "
          f"failed_frac {record['failed_frac']:.3g}")
    print(f"nproc {record['nproc']} python {res['versions']['python']} "
          f"numpy {res['versions']['numpy']} scipy {res['versions']['scipy']} "
          f"commit {record['commit']} src {record['source_sha256'][:12]}")
    if args.workload == "sweep":
        print(f"sweep pool workers {res['pool_workers']}; traced reps run serially "
              f"in-process: {res['sweep_serial']}")
    print(f"{len(res['walls'])} timed reps, raw median rep wall "
          f"{record['raw_wall_median_s']:.4g} s")
    for problem in res["problems"]:
        print(f"check failed: {problem}")
    if args.trace:
        print(f"traced output identical to untraced: {res['identical']}; "
              f"entry points restored: {res['restored']}")
    for name, unit in units.items():
        print(f"{name} {metrics[name]:.6g} {unit}")
    print(json.dumps({
        "correct": correct, "attempted": res["attempted"], "failed": res["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
