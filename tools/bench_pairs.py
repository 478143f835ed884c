"""Run the benchmark in alternating pairs, a parent commit against the
working tree, and write the record as a ``BENCH_*.json`` file.

Usage::

    python tools/bench_pairs.py --parent REF --out FILE [--workload W ...]
        [--seed S] [--seconds T] [--pairs N]

The parent side is ``git archive REF`` unpacked in one temporary directory;
the change side is the working tree's tracked files (``git ls-files``), as
they are on disk, copied into another. Each pair runs the command of
``BENCHMARK.json`` (``python3 bench/run.py --workload W --seed S --seconds T
--trace 0``) once in each tree, one run at a time: pair 1 runs the parent
first, and the order alternates. Each run's last line of output is its JSON
result. The workloads default to every one in ``BENCHMARK.json``, ``--seconds``
to its ``run_seconds``, the seed to 1 and the pairs to 10.

FILE gets, for each workload and each end-to-end metric of
``BENCHMARK.json``, each side's median, quartiles and runs, the metric's
bound, ``change_wins``, the pairs where the change read better (ties count
for neither), and a ``verdict``; then the operations attempted and failed on
each side, in total and, for the attempted ones, per run (median, quartiles
and runs, printed beside the verdicts: a benchmark whose serving loop runs
for a share of the sequence's time attempts fewer operations when the
sequence gets faster), whether every check passed, the host and the
command. A run that exits non-zero stops the tool with exit code 1 and no
FILE; the temporary trees are removed either way.

The verdict, also printed one line per workload and metric, is the first of
these that holds:

- ``gain``: the change won at least 9 in 10 pairs, its median is better than
  the parent's by more than the parent's interquartile range, and no more
  operations failed than at the parent;
- ``worse``: the change's median is worse than the parent's by more than the
  bound, taken relative to the parent's median;
- ``unresolved``: either side's interquartile range, relative to its median,
  is wider than the bound, and not every change run beat every parent run;
- ``unchanged``: anything else.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
METHOD = (
    "each side ran from its own copy of the tree (the parent a git archive of its commit, "
    "the change a copy of the working tree's tracked files), one run at a time; medians and "
    "quartiles over the runs (statistics.quantiles, n=4, inclusive); change_wins counts pairs "
    "where the change read better, ties counting for neither"
)


def _side(values: list[float]) -> dict:
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "runs": values}


def _verdict(entry: dict, sign: int, pairs: int, more_failed: bool) -> str:
    """``gain``, ``worse``, ``unresolved`` or ``unchanged``; see the module
    docstring. ``sign`` is 1 where higher is better, -1 where lower is."""
    parent, change, bound = entry["parent"], entry["change"], entry["bound"]
    better_by = sign * (change["median"] - parent["median"])
    if (
        entry["change_wins"] >= math.ceil(0.9 * pairs)
        and better_by > parent["q3"] - parent["q1"]
        and not more_failed
    ):
        return "gain"
    if -better_by > bound * abs(parent["median"]):
        return "worse"
    wide = any(side["q3"] - side["q1"] > bound * abs(side["median"]) for side in (parent, change))
    if wide and not all(sign * (y - x) > 0 for x in parent["runs"] for y in change["runs"]):
        return "unresolved"
    return "unchanged"


def summarize(end_to_end: list[dict], parent: list[dict], change: list[dict]) -> dict:
    """One workload's record from its runs' JSON results, ``parent[i]`` and
    ``change[i]`` being pair i."""
    failed = {"parent": sum(r["failed"] for r in parent), "change": sum(r["failed"] for r in change)}
    metrics = {}
    for spec in end_to_end:
        name = spec["name"]
        a, b = ([run["metrics"][name]["value"] for run in side] for side in (parent, change))
        sign = 1 if spec["better"] == "higher" else -1
        entry = metrics[name] = {
            "unit": spec["unit"],
            "better": spec["better"],
            "bound": spec["bound"],
            "parent": _side(a),
            "change": _side(b),
            "change_wins": sum(sign * (y - x) > 0 for x, y in zip(a, b)),
        }
        entry["verdict"] = _verdict(entry, sign, len(parent), failed["change"] > failed["parent"])
    return {
        "pairs": len(parent),
        "order": "pair 1 runs the parent first, and the order alternates",
        "attempted": {"parent": sum(r["attempted"] for r in parent), "change": sum(r["attempted"] for r in change)},
        "attempted_per_run": {
            "parent": _side([r["attempted"] for r in parent]),
            "change": _side([r["attempted"] for r in change]),
        },
        "failed": failed,
        "all_checks_passed": all(run["correct"] for run in parent + change),
        "metrics": metrics,
    }


def report(workload: str, entry: dict) -> list[str]:
    """The printed lines of one workload's record: each metric's verdict,
    then the operations attempted per run."""

    def spread(side: dict) -> str:
        return f"{side['median']:.6g} [{side['q1']:.6g}, {side['q3']:.6g}]"

    lines = [
        f"{workload} {name}: {m['verdict']} (parent {spread(m['parent'])}, change "
        f"{spread(m['change'])}, change won {m['change_wins']}/{entry['pairs']})"
        for name, m in entry["metrics"].items()
    ]
    ops = entry["attempted_per_run"]
    lines.append(
        f"{workload} operations attempted per run: parent {spread(ops['parent'])}, "
        f"change {spread(ops['change'])}"
    )
    return lines


def _git(*args: str) -> bytes:
    return subprocess.run(["git", "-C", str(ROOT), *args], stdout=subprocess.PIPE, check=True).stdout


def _parent_tree(ref: str, dest: Path) -> None:
    with tarfile.open(fileobj=io.BytesIO(_git("archive", ref))) as tar:
        tar.extractall(dest, **({"filter": "data"} if hasattr(tarfile, "data_filter") else {}))


def _change_tree(dest: Path) -> None:
    for name in _git("ls-files", "-z").decode().split("\0"):
        source = ROOT / name
        if name and source.exists():  # a tracked file deleted on disk is left out
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, dest / name, follow_symlinks=False)


def _host(python: str) -> dict:
    versions = subprocess.run(
        [python, "-c", "import platform, numpy; print(platform.python_version(), numpy.__version__)"],
        stdout=subprocess.PIPE, text=True, check=True,
    ).stdout.split()
    cpu = platform.processor()
    with contextlib.suppress(OSError), open("/proc/cpuinfo", encoding="utf-8", errors="replace") as fh:
        cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    return {
        "cpus": os.cpu_count(),
        "cpu": cpu,
        "machine": platform.machine(),
        "system": platform.system(),
        "python": versions[0],
        "numpy": versions[1],
    }


def _run(tree: Path, argv: list[str], label: str) -> dict:
    child = subprocess.run(argv, cwd=tree, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    lines = child.stdout.strip().splitlines()
    if child.returncode != 0 or not lines:
        sys.stderr.write(child.stdout[-2000:] + child.stderr[-2000:])
        raise SystemExit(f"error: {label} exited {child.returncode}")
    result = json.loads(lines[-1])
    print(f"{label}: exit 0, {result['attempted']} operations, {result['failed']} failed", flush=True)
    return result


def main(argv: list[str] | None = None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--parent", required=True, help="commit to compare against")
    parser.add_argument("--out", required=True, help="JSON record to write")
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)
    if args.pairs < 1 or args.seconds < 1:
        parser.error("--pairs and --seconds must be at least 1")
    parent_sha = _git("rev-parse", "--verify", args.parent + "^{commit}").decode().strip()
    record = {
        "parent": parent_sha,
        "change": f"the working tree's tracked files over {_git('rev-parse', 'HEAD').decode().strip()}",
        "host": _host(bench["command"][0]),
        "method": METHOD,
        "runs": {},
    }
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        trees = {"parent": Path(tmp, "parent"), "change": Path(tmp, "change")}
        _parent_tree(parent_sha, trees["parent"])
        _change_tree(trees["change"])
        for workload in args.workload or names:
            command = [*bench["command"], "--workload", workload, "--seed", str(args.seed),
                       "--seconds", str(args.seconds), "--trace", "0"]
            results = {"parent": [], "change": []}
            for pair in range(args.pairs):
                sides = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
                for side in sides:
                    label = f"{workload} pair {pair + 1}/{args.pairs} {side}"
                    results[side].append(_run(trees[side], command, label))
            entry = summarize(bench["end_to_end"], results["parent"], results["change"])
            print("\n".join(report(workload, entry)), flush=True)
            record["runs"][f"{workload} seed {args.seed}"] = {
                "workload": workload, "seed": args.seed, "trace": 0, **entry, "command": " ".join(command),
            }
    Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
