#!/usr/bin/env python3
"""Record the end-to-end benchmark of a change against its parent.

    python3 tools/bench_record.py --parent ../parent-checkout \\
        --out BENCH_<n>.json

Each of :data:`ROUNDS` rounds runs ``perfbench/run.py --workload all
--trace 0`` once in the parent checkout and once in this one,
alternating (the host's speed drifts, so the two sides share every
stretch of it), and reads the metrics from the JSON object perfbench
prints as its last line.  A timed
tier-1 run (``python -m pytest -x -q``) of each checkout follows.  The
record holds, per workload and end-to-end metric, each side's median
and interquartile range over the rounds, the raw values and the rounds
the change won, with the host, the Python version, both commits and the
mean calibration time perfbench scaled its times by.

perfbench is only run, never imported: it stays the independent
measuring stick.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

ROOT = Path(__file__).resolve().parents[1]
SCHEMA = 1
SIDES = ("parent", "change")
#: alternating pairs per record: a claimed gain must win at least 9 of
#: 10 pairs, by more than the parent's interquartile range
ROUNDS = 10
#: perfbench ``--seconds`` per workload and round
SECONDS = 5
#: perfbench ``--seed``, the committed baselines' seed; it also names
#: the per-workload files the calibration is read from
SEED = 2008


def _commit(checkout: Path) -> Optional[str]:
    """HEAD of ``checkout``, suffixed ``+dirty`` when the working tree
    differs from it (a change measured before it is committed)."""
    def git(*args: str) -> str:
        return subprocess.run(
            ["git", "-C", str(checkout), *args],
            capture_output=True, text=True, check=True,
        ).stdout.strip()

    try:
        head = git("rev-parse", "HEAD")
        dirty = git("status", "--porcelain")
    except (OSError, subprocess.CalledProcessError):
        return None
    return f"{head}+dirty" if dirty else head


def _cpu() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def perfbench(checkout: Path) -> dict:
    """One ``--workload all`` run in ``checkout``: the metrics of its
    last stdout line plus the calibration of each workload's record."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "all",
         "--seconds", str(SECONDS), "--seed", str(SEED), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(
            f"perfbench failed in {checkout} (exit {proc.returncode}):\n"
            f"{proc.stderr[-2000:]}"
        )
    summary = json.loads(lines[-1])
    if not summary.get("correct"):
        raise RuntimeError(f"perfbench reported wrong output in {checkout}")
    metrics = {key: row["value"] for key, row in summary["metrics"].items()}
    # only this run's records: perfbench/out keeps those of other seeds
    calibration = {}
    for name in sorted({key.split("/", 1)[0] for key in metrics}):
        record = (checkout / "perfbench" / "out"
                  / f"{name}-seed{SEED}-trace0.json")
        data = json.loads(record.read_text(encoding="utf-8"))
        calibration[name] = data["calibration_s"]["mean"]
    return {"metrics": metrics, "calibration_s": calibration}


def tier1(checkout: Path) -> dict:
    """Wall time and outcome of the tier-1 suite in ``checkout``."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q",
         "-p", "no:cacheprovider"],
        cwd=checkout, env=env, capture_output=True, text=True,
    )
    wall = time.perf_counter() - t0
    tail = proc.stdout.strip().splitlines()[-1:] or [""]
    counts = {kind: int(n) for n, kind in
              re.findall(r"(\d+) (passed|failed|errors?|skipped)", tail[0])}
    return {"wall_s": round(wall, 2), "exit": proc.returncode,
            "summary": tail[0], **counts}


def spread(values: Sequence[float]) -> dict:
    """Median and interquartile range of one side's per-round values."""
    q1, median, q3 = (statistics.quantiles(values, n=4)
                      if len(values) > 1 else (values[0],) * 3)
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1,
            "n": len(values), "values": list(values)}


def record(rounds: List[Dict[str, dict]], tier1_runs: Dict[str, dict],
           commits: Dict[str, Optional[str]]) -> dict:
    """The record document from per-round perfbench results."""
    workloads: Dict[str, dict] = {}
    for key in rounds[0]["change"]["metrics"]:
        workload, metric = key.split("/", 1) if "/" in key else ("", key)
        values = {side: [r[side]["metrics"][key] for r in rounds]
                  for side in SIDES}
        parent, change = (spread(values[side]) for side in SIDES)
        workloads.setdefault(workload, {})[metric] = {
            "parent": parent,
            "change": change,
            "change_pct": 100.0 * (change["median"] / parent["median"] - 1)
            if parent["median"] else None,
            # every end-to-end metric is lower-is-better
            "change_wins": sum(c < p for p, c in zip(values["parent"],
                                                     values["change"])),
        }
    calibration = {
        side: statistics.mean(v for r in rounds
                              for v in r[side]["calibration_s"].values())
        for side in SIDES
    }
    return {
        "schema": SCHEMA,
        "commits": commits,
        "host": {"platform": platform.platform(), "cpu": _cpu(),
                 "nproc": len(os.sched_getaffinity(0))},
        "python": platform.python_version(),
        "calibration_s": calibration,
        "rounds": len(rounds),
        "workloads": workloads,
        "tier1": tier1_runs,
    }


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True,
                        help="a checkout of the parent commit")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    checkouts = {"parent": args.parent.resolve(), "change": ROOT}
    for side, checkout in checkouts.items():
        if not (checkout / "perfbench" / "run.py").is_file():
            parser.error(f"{side} checkout {checkout} has no perfbench")
    rounds = []
    for n in range(ROUNDS):
        # alternate which side goes first, so neither always runs on
        # the cooler (or warmer) half of a round
        order = SIDES if n % 2 == 0 else SIDES[::-1]
        rounds.append({side: perfbench(checkouts[side]) for side in order})
        print(f"round {n + 1}/{ROUNDS} done", file=sys.stderr)
    tier1_runs = {side: tier1(checkouts[side]) for side in SIDES}
    doc = record(rounds, tier1_runs,
                 {side: _commit(checkouts[side]) for side in SIDES})
    args.out.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n",
                        encoding="utf-8")
    print(f"wrote {args.out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
