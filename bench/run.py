"""Benchmark of qcalib: an analyst calibrating offline, a service answering
one interval at a time, and a batch job scoring CSV files through the CLI.

Run from the repository root:

    python3 bench/run.py --workload knn_d5_fixed --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --seed 1        # every workload, each in a fresh interpreter

It prints the metrics by name and unit, then as its last line one JSON
object: {"correct", "attempted", "failed", "metrics"}. ``--trace 1`` reports
the per-layer metrics instead of the end-to-end ones and writes the spans to
``bench/traces/``. Exit code 0 when every check passed, 1 when one failed,
2 when the program's sources are not found.
"""

import os

# one thread of work: thread pools read these when numpy is first imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
PACKAGE = ROOT / "src" / "qcalib"
WORKLOADS = ("knn_d5_fixed", "ols_auto_d20", "cli_wide_csv")
CHILD_TIMEOUT_S = 600


def _require_sources() -> None:
    if not (PACKAGE / "__init__.py").is_file():
        print(f"error: no qcalib sources at {PACKAGE}", file=sys.stderr)
        raise SystemExit(2)


def _use_checkout_sources() -> None:
    """Import qcalib from this checkout's src/, never from anywhere else."""
    _require_sources()
    sys.path.insert(0, str(PACKAGE.parent))
    import qcalib

    if Path(qcalib.__file__).resolve().parent != PACKAGE.resolve():
        print(f"error: qcalib was imported from {qcalib.__file__}", file=sys.stderr)
        raise SystemExit(2)


def _print_table(title: str, run) -> None:
    print(title)
    for name, (value, unit) in run.metrics.items():
        print(f"  {name:34s} {value:>14.6g} {unit}")
    for name, (value, unit) in run.reference.items():
        print(f"  {name:34s} {value:>14.6g} {unit}  (reference, no bound)")
    print(f"  operations: {run.attempted} attempted, {run.failed} failed")
    for error in run.errors[:3]:
        print(f"  failed operation: {error}")
    print(f"  checks: {run.checks_passed} passed, {len(run.problems)} failed")
    for problem in run.problems:
        print(f"  CHECK FAILED {problem}")


def run_one(name: str, seed: int, seconds: int, trace: bool) -> int:
    _use_checkout_sources()
    import workloads

    workdir = BENCH / ".runs" / f"{name}-seed{seed}-pid{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        run = workloads.measure(
            name, seed, seconds, trace, workdir, BENCH / "traces" / f"{name}-seed{seed}.json"
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    mode = "traced, per layer" if trace else "end to end"
    _print_table(f"{name}  seed {seed}  seconds {seconds}  ({mode})", run)
    correct = not run.problems
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in run.metrics.items()}
    print(json.dumps({"correct": correct, "attempted": run.attempted, "failed": run.failed, "metrics": metrics}))
    return 0 if correct else 1


def run_all(seed: int, seconds: int, trace: bool) -> int:
    """Every workload in its own interpreter, so each peak RSS is its own."""
    _require_sources()
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))]
        child = subprocess.run(argv, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S)
        lines = child.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if child.returncode != 0 or not lines:
            status = 1
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            summary["correct"] = False
            continue
        summary["correct"] &= result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            summary["metrics"][f"{name}.{metric}"] = entry
    print(json.dumps(summary))
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--seconds", type=int, default=30, help="seconds of measured rounds; the last round starts before they end"
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be nonnegative and --seconds at least 1")
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    raise SystemExit(main())
