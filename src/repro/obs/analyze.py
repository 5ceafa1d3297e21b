"""``repro telemetry <dir>`` — summarize a sweep's telemetry stream.

Answers the questions a long sweep leaves behind: where did the time
go (slowest points, per-job utilization), what failed and how often
(failure clusters keyed by the final traceback line), how well the
store served resume (hit ratio), and what the kernels actually did
(counter rollups across every instrumented point).

The primary source is ``telemetry.jsonl``.  When a sweep ran without
telemetry the journal still carries per-point durations (a satellite
of the same PR), so :func:`summarize` falls back to ``journal.jsonl``
— store hits and kernel counters are simply absent there, and the
report says so rather than inventing zeros.  A fabric directory is
reported from its workers' journal segments, one row per worker.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from . import telemetry as telemetry_mod

#: the journal's filename, mirrored here so this module stays
#: import-time leaf-only (the store package pulls in the whole runner,
#: and the kernels import repro.obs at module scope)
_JOURNAL_FILENAME = "journal.jsonl"


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
    jobs: int = 1
    points: List[Dict[str, object]] = field(default_factory=list)
    summary: Dict[str, object] = field(default_factory=dict)
    has_store_info: bool = False      # journal fallback lacks store hits
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
        """Busy fraction per job: sum(durations) / (jobs * wall span)."""
        span = self.wall_span_s
        if span is None or span <= 0 or self.jobs <= 0:
            return None
        return min(self.total_duration_s / (self.jobs * span), 1.0)

    def slowest(self, n: int = 5) -> List[Tuple[str, float]]:
        timed = [
            (_point_label(p.get("params")), p["duration_s"])
            for p in self.points
            if p.get("duration_s") is not None
        ]
        timed.sort(key=lambda item: (-item[1], item[0]))
        return timed[:n]

    def failure_clusters(self) -> List[Tuple[str, int, str]]:
        """``(error, count, example point)`` — most common first."""
        clusters: Dict[str, List[str]] = {}
        for p in self.failed:
            error = str(p.get("error") or "unknown error")
            clusters.setdefault(error, []).append(
                _point_label(p.get("params"))
            )
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
        worker segment each point came from; single-stream reports
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
            + (f"  (jobs={self.jobs})" if self.jobs > 1 else ""),
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
def _from_stream(path: Path) -> TelemetryReport:
    header, records = telemetry_mod.read_stream(path)
    report = TelemetryReport(
        source=str(path),
        scenario=str(header.get("scenario", "")),
        jobs=int(header.get("jobs", 1) or 1),
        has_store_info=True,
    )
    for record in records:
        kind = record.get("kind")
        if kind == "point":
            report.points.append(record)
        elif kind == "summary":
            report.summary = record
    return report


def _from_journal(path: Path) -> TelemetryReport:
    from ..store import journal as journal_mod  # lazy: pulls in runner

    header, outcomes = journal_mod.load(path)
    report = TelemetryReport(
        source=str(path),
        scenario=str(header.get("scenario", "")),
        has_store_info=False,
    )
    for outcome in outcomes:
        report.points.append(telemetry_mod.point_record(outcome))
    return report


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
    # lazy: both pull in the runner
    from ..fabric.transport import FileTransport
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
            point = telemetry_mod.point_record(outcome)
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
        raise telemetry_mod.TelemetryError(
            f"{target}: no readable worker journal segments"
        )
    report.jobs = len(report.worker_rows)
    return report


def summarize(target) -> TelemetryReport:
    """Build a report for a sweep directory (or a stream file directly).

    Prefers ``telemetry.jsonl``; a fabric directory (one with
    ``workers/*/journal.jsonl`` segments and no top-level stream)
    aggregates every worker's segment; otherwise falls back to the
    journal, which carries per-point durations too.
    """
    target = Path(target)
    if target.is_file():
        if target.name == _JOURNAL_FILENAME:
            return _from_journal(target)
        return _from_stream(target)
    stream = telemetry_mod.stream_path(target)
    if stream.exists():
        return _from_stream(stream)
    report = _from_fabric(target)
    if report is not None:
        return report
    journal_file = target / _JOURNAL_FILENAME
    if journal_file.exists():
        return _from_journal(journal_file)
    raise FileNotFoundError(
        f"{target}: no {telemetry_mod.STREAM_FILENAME}, "
        f"workers/*/{_JOURNAL_FILENAME} or {_JOURNAL_FILENAME} found"
    )
