"""``repro telemetry <dir>`` — summarize a run's or sweep's points.

Answers the questions a long sweep leaves behind: where did the time
go (slowest points, per-job utilization), what failed and how often
(failure clusters keyed by the final traceback line), how well the
store served resume (hit ratio), and what the kernels actually did
(counter rollups across every instrumented point).

Each point is logged once, in the sweep's journal; ``telemetry.json``
is the one summary, written when a ``repro run --out`` or ``repro
sweep --out`` finishes, and holds one record per point plus the
execution width.  :func:`summarize` reads that snapshot when it has a
``points`` list.  A fabric directory is reported from its workers'
journal segments, one row per worker.  Otherwise it reads
``journal.jsonl``: a killed or still-running sweep has no snapshot
yet.  The journal carries each point's duration, completion stamp and
counter deltas, but no store hits and no width, so the report says so
rather than inventing them.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

#: file names mirrored here so this module stays import-time leaf-only
#: (the store and the sweep pipeline pull in the whole runner)
_JOURNAL_FILENAME = "journal.jsonl"
_SNAPSHOT_FILENAME = "telemetry.json"


class TelemetryError(ValueError):
    """No per-point records could be read from the target."""


def _point_label(params) -> str:
    """``a=1,b=x`` from codec-style ``[name, value]`` pairs."""
    if not params:
        return "default"
    return ",".join(f"{name}={value}" for name, value in params)


@dataclass
class TelemetryReport:
    """Everything the ``repro telemetry`` subcommand prints/exports."""

    source: str                       # file the report was built from
    scenario: str = ""
    jobs: Optional[int] = None        # None: the width was not recorded
    points: List[Dict[str, object]] = field(default_factory=list)
    has_store_info: bool = False      # a run and the journal lack it
    #: set when built from a fabric directory: one row per worker
    #: segment — ``{"worker", "points", "busy_s", "span_s",
    #: "utilization"}`` (utilization None for an untimestamped segment)
    worker_rows: List[Dict[str, object]] = field(default_factory=list)

    # ------------------------------------------------------------------
    @property
    def total(self) -> int:
        return len(self.points)

    @property
    def failed(self) -> List[Dict[str, object]]:
        return [p for p in self.points if not p.get("ok", True)]

    @property
    def store_hits(self) -> int:
        return sum(1 for p in self.points if p.get("store_hit"))

    @property
    def store_hit_ratio(self) -> Optional[float]:
        if not self.has_store_info or not self.points:
            return None
        return self.store_hits / len(self.points)

    @property
    def total_duration_s(self) -> float:
        return sum(p.get("duration_s") or 0.0 for p in self.points)

    @property
    def wall_span_s(self) -> Optional[float]:
        """Elapsed wall time covered by the timestamped points."""
        stamps = [
            (p["t_mono"] - (p.get("duration_s") or 0.0), p["t_mono"])
            for p in self.points
            if p.get("t_mono") is not None
        ]
        if not stamps:
            return None
        return max(end for _, end in stamps) - min(s for s, _ in stamps)

    @property
    def utilization(self) -> Optional[float]:
        """Busy fraction per job: sum(durations) / (jobs * wall span);
        ``None`` without a recorded width."""
        span = self.wall_span_s
        if span is None or span <= 0 or not self.jobs:
            return None
        return min(self.total_duration_s / (self.jobs * span), 1.0)

    def _labeler(self):
        """Labels points by params, prefixed by scenario when the
        points span several (a ``repro run`` of many scenarios)."""
        several = len({p.get("scenario") for p in self.points}) > 1

        def label(point: Dict[str, object]) -> str:
            text = _point_label(point.get("params"))
            return f"{point.get('scenario')}: {text}" if several else text

        return label

    def slowest(self, n: int = 5) -> List[Tuple[str, float]]:
        label = self._labeler()
        timed = [
            (label(p), p["duration_s"])
            for p in self.points
            if p.get("duration_s") is not None
        ]
        timed.sort(key=lambda item: (-item[1], item[0]))
        return timed[:n]

    def failure_clusters(self) -> List[Tuple[str, int, str]]:
        """``(error, count, example point)`` — most common first."""
        label = self._labeler()
        clusters: Dict[str, List[str]] = {}
        for p in self.failed:
            error = str(p.get("error") or "unknown error")
            clusters.setdefault(error, []).append(label(p))
        ranked = sorted(
            clusters.items(), key=lambda kv: (-len(kv[1]), kv[0])
        )
        return [(err, len(pts), pts[0]) for err, pts in ranked]

    def counter_rollup(self) -> Dict[str, int]:
        """Sum every ``counter:<name>`` delta across all points."""
        totals: Dict[str, int] = {}
        for p in self.points:
            for key, value in (p.get("metrics") or {}).items():
                if key.startswith("counter:"):
                    name = key[len("counter:"):]
                    totals[name] = totals.get(name, 0) + value
        return dict(sorted(totals.items()))

    # ------------------------------------------------------------------
    def to_json(self) -> Dict[str, object]:
        ratio = self.store_hit_ratio
        return {
            "source": self.source,
            "scenario": self.scenario,
            "jobs": self.jobs,
            "points": self.total,
            "failed": len(self.failed),
            "store_hit_ratio": ratio,
            "total_duration_s": self.total_duration_s,
            "wall_span_s": self.wall_span_s,
            "utilization": self.utilization,
            "slowest": [
                {"point": label, "duration_s": dur}
                for label, dur in self.slowest()
            ],
            "failure_clusters": [
                {"error": err, "count": count, "example": example}
                for err, count, example in self.failure_clusters()
            ],
            "counters": self.counter_rollup(),
            **({"workers": self.worker_rows} if self.worker_rows
               else {}),
        }

    def to_csv(self) -> str:
        """One row per point: the flat facts, counters excluded.

        Fabric reports gain a trailing ``worker`` column naming which
        worker segment each point came from; other reports
        keep the original header shape.
        """
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        header = ["scenario", "point", "ok", "store_hit", "duration_s"]
        if self.worker_rows:
            header.append("worker")
        writer.writerow(header)
        for p in self.points:
            row = [
                p.get("scenario", self.scenario),
                _point_label(p.get("params")),
                p.get("ok", True),
                p.get("store_hit", "") if self.has_store_info else "",
                p.get("duration_s", ""),
            ]
            if self.worker_rows:
                row.append(p.get("worker", ""))
            writer.writerow(row)
        return buf.getvalue()

    def render(self) -> str:
        lines = [
            f"telemetry: {self.source}",
            f"scenario:  {self.scenario or '?'}"
            + (f"  (jobs={self.jobs})" if self.jobs and self.jobs > 1
               else ""),
            f"points:    {self.total} total, {len(self.failed)} failed",
        ]
        ratio = self.store_hit_ratio
        if ratio is not None:
            lines.append(
                f"store:     {self.store_hits}/{self.total} hits "
                f"({100 * ratio:.0f}%)"
            )
        if any(p.get("duration_s") is not None for p in self.points):
            lines.append(f"busy time: {self.total_duration_s:.3f} s")
            span = self.wall_span_s
            util = self.utilization
            if span is not None:
                text = f"wall span: {span:.3f} s"
                if util is not None:
                    text += f"  ({100 * util:.0f}% per-job utilization)"
                elif self.jobs is None:
                    text += ("  (per-job utilization unknown: "
                             "no width recorded)")
                lines.append(text)
            lines.append("slowest points:")
            for label, dur in self.slowest():
                lines.append(f"  {dur:9.3f} s  {label}")
        clusters = self.failure_clusters()
        if clusters:
            lines.append("failure clusters:")
            for err, count, example in clusters:
                lines.append(f"  {count:4d} x {err}  (e.g. {example})")
        if self.worker_rows:
            lines.append("per-worker utilization:")
            width = max(len(str(r["worker"])) for r in self.worker_rows)
            for row in self.worker_rows:
                util = row.get("utilization")
                util_text = (
                    f"{100 * util:.0f}% busy" if util is not None
                    else "no timestamps"
                )
                lines.append(
                    f"  {str(row['worker']):<{width}}  "
                    f"{row['points']:4d} point(s)  "
                    f"{row['busy_s']:9.3f} s busy  {util_text}"
                )
        counters = self.counter_rollup()
        if counters:
            lines.append("kernel counters (summed over points):")
            width = max(len(name) for name in counters)
            for name, value in counters.items():
                lines.append(f"  {name:<{width}}  {value}")
        return "\n".join(lines)


# ----------------------------------------------------------------------
def _snapshot(path: Path) -> Optional[Dict[str, object]]:
    """The snapshot at ``path`` if it holds a ``points`` list (one
    written before the journal became the per-point log holds a count
    there), else ``None``."""
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError, json.JSONDecodeError):
        return None
    if isinstance(doc, dict) and isinstance(doc.get("points"), list):
        return doc
    return None


def _from_snapshot(path: Path, doc: Dict[str, object]) -> TelemetryReport:
    points = [p for p in doc["points"]
              if isinstance(p, dict) and p.get("kind") == "point"]
    # a run's points name their own scenarios; a sweep's share one
    scenario = doc.get("scenario") or ", ".join(
        dict.fromkeys(str(p.get("scenario", "")) for p in points))
    return TelemetryReport(
        source=str(path),
        scenario=str(scenario),
        jobs=int(doc["jobs"]) if doc.get("jobs") else None,
        points=points,
        # only a sweep reads the run store; a run's snapshot has no count
        has_store_info="store_hits" in doc,
    )


def _from_journal(path: Path) -> TelemetryReport:
    # lazy: both pull in the runner
    from ..runner.sweep import point_record
    from ..store import journal as journal_mod

    header, outcomes = journal_mod.load(path)
    return TelemetryReport(
        source=str(path),
        scenario=str(header.get("scenario", "")),
        points=[point_record(outcome) for outcome in outcomes],
        has_store_info=False,
    )


def _segment_utilization(
    points: List[Dict[str, object]]
) -> Tuple[float, Optional[float], Optional[float]]:
    """``(busy_s, span_s, utilization)`` of one worker's points."""
    busy = sum(p.get("duration_s") or 0.0 for p in points)
    stamps = [
        (p["t_mono"] - (p.get("duration_s") or 0.0), p["t_mono"])
        for p in points
        if p.get("t_mono") is not None
    ]
    if not stamps:
        return busy, None, None
    span = max(end for _, end in stamps) - min(s for s, _ in stamps)
    if span <= 0:
        return busy, span, None
    return busy, span, min(busy / span, 1.0)


def _from_fabric(target: Path) -> Optional[TelemetryReport]:
    """Aggregate every worker's journal segment in a fabric directory
    (``None`` when ``target`` holds no worker segments).

    The merged report sums counter rollups and point lists across the
    whole fleet (each point tagged with its worker), treats the worker
    count as the job count for fleet-wide utilization, and adds one
    per-worker utilization row per segment.  A damaged segment
    contributes its valid prefix and an unreadable one — a worker
    SIGKILLed before writing its header — is skipped, the rule salvage
    uses too.  Workers never read the run store, so every point counts
    as a store miss.
    """
    # lazy: all three pull in the runner
    from ..fabric.transport import FileTransport
    from ..runner.sweep import point_record
    from ..store import journal as journal_mod

    segments = FileTransport(target).segment_journals()
    if not segments:
        return None
    report = TelemetryReport(
        source=str(target),
        has_store_info=True,
        worker_rows=[],
    )
    for segment in segments:
        worker_id = segment.parent.name
        try:
            header, outcomes = journal_mod.load(segment)
        except (journal_mod.JournalError, OSError):
            continue
        if not report.scenario:
            report.scenario = str(header.get("scenario", ""))
        segment_points = []
        for outcome in outcomes:
            point = point_record(outcome)
            point["worker"] = worker_id
            segment_points.append(point)
        report.points.extend(segment_points)
        busy, span, util = _segment_utilization(segment_points)
        report.worker_rows.append({
            "worker": worker_id,
            "points": len(segment_points),
            "busy_s": busy,
            "span_s": span,
            "utilization": util,
        })
    if not report.worker_rows:
        raise TelemetryError(
            f"{target}: no readable worker journal segments"
        )
    report.jobs = len(report.worker_rows)
    return report


def summarize(target) -> TelemetryReport:
    """Build a report for a run or sweep directory (or a snapshot or
    journal file directly).

    Reads ``telemetry.json`` when it holds a ``points`` list; otherwise
    a fabric directory (one with ``workers/*/journal.jsonl`` segments)
    aggregates every worker's segment, and anything else falls back to
    the journal, which carries per-point durations too.
    """
    target = Path(target)
    if target.is_file():
        if target.name == _JOURNAL_FILENAME:
            return _from_journal(target)
        doc = _snapshot(target)
        if doc is None:
            raise TelemetryError(f"{target}: not a snapshot with a "
                                 f"points list")
        return _from_snapshot(target, doc)
    snapshot = target / _SNAPSHOT_FILENAME
    doc = _snapshot(snapshot)
    if doc is not None:
        return _from_snapshot(snapshot, doc)
    report = _from_fabric(target)
    if report is not None:
        return report
    journal_file = target / _JOURNAL_FILENAME
    if journal_file.exists():
        return _from_journal(journal_file)
    raise FileNotFoundError(
        f"{target}: no {_SNAPSHOT_FILENAME} with points, "
        f"workers/*/{_JOURNAL_FILENAME} or {_JOURNAL_FILENAME} found"
    )
