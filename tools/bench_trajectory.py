#!/usr/bin/env python3
"""Print every committed bench record as one table, one row per PR.

    python3 tools/bench_trajectory.py            # records in the repo root
    python3 tools/bench_trajectory.py --root DIR

Each ``BENCH_<n>.json`` (written by ``tools/bench_record.py``) becomes
row ``n``.  Each workload's cell holds the parent's and the change's
median ``wall_s`` (reference-host seconds), the change in percent and
the rounds the change won, e.g. ``1.119 -> 1.007 (-10.0%, 7/10)``.  A
workload a record does not hold reads ``-``.  The output is a Markdown
table, so it pastes into the docs as it is.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parents[1]
METRIC = "wall_s"
_NAME = re.compile(r"BENCH_(\d+)\.json")


def load_records(root: Path) -> List[Tuple[int, dict]]:
    """``(n, record)`` for every ``BENCH_<n>.json`` in ``root``, by n."""
    records = []
    for path in root.iterdir():
        match = _NAME.fullmatch(path.name)
        if match:
            records.append((int(match.group(1)),
                            json.loads(path.read_text(encoding="utf-8"))))
    return sorted(records, key=lambda item: item[0])


def cell(entry: Optional[dict]) -> str:
    """One workload's ``wall_s`` in one record."""
    if entry is None:
        return "-"
    parent, change = entry["parent"], entry["change"]
    pct = entry["change_pct"]
    moved = "n/a" if pct is None else f"{pct:+.1f}%"
    return (f"{parent['median']:.3f} -> {change['median']:.3f} "
            f"({moved}, {entry['change_wins']}/{change['n']})")


def table(records: Sequence[Tuple[int, dict]]) -> List[str]:
    """The Markdown lines of the trajectory table."""
    workloads = sorted({name for _, record in records
                        for name, metrics in record["workloads"].items()
                        if METRIC in metrics})
    header = ["PR", *(f"{name} {METRIC}" for name in workloads)]
    rows = [[str(n), *(cell(record["workloads"].get(name, {}).get(METRIC))
                       for name in workloads)]
            for n, record in records]
    widths = [max(len(row[i]) for row in (header, *rows))
              for i in range(len(header))]

    def line(row: Sequence[str]) -> str:
        return "| " + " | ".join(
            text.rjust(width) for text, width in zip(row, widths)) + " |"

    rule = "| " + " | ".join("-" * (width - 1) + ":"
                             for width in widths) + " |"
    return [line(header), rule, *(line(row) for row in rows)]


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path, default=ROOT,
                        help="directory holding the BENCH_<n>.json files")
    args = parser.parse_args(argv)
    records = load_records(args.root)
    if not records:
        print(f"no BENCH_<n>.json in {args.root}", file=sys.stderr)
        return 1
    print("\n".join(table(records)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
