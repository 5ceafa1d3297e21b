"""Structured JSONL telemetry stream + end-of-run snapshot.

A sweep with telemetry enabled appends ``telemetry.jsonl`` beside its
journal: a header line, one ``point`` line per completed grid point
(flushed the moment the engine yields the outcome, like the journal),
and a final ``summary`` line with sweep-level rollups.  Unlike the
journal, the stream is *not* part of the deterministic artifact
contract — it exists to carry exactly the volatile facts (wall-clock
durations, kernel counter deltas, store hits, job utilization) that
the journal's determinism forbids it from owning alone.

The encoding mirrors :mod:`repro.store.codec`: JSON-native scalars
survive verbatim, parameters travel as ``[name, value]`` pairs, and
reading a stream back loses nothing the analytics consume.  Torn-tail
recovery is byte-for-byte the journal's discipline: a line counts only
if it is newline-terminated *and* parseable; everything after the
first damaged line is dropped (:func:`recover_stream` also truncates
the file so later appends continue a well-formed stream).

``telemetry.json`` is the companion end-of-run snapshot: one JSON
document (metrics registry snapshot, per-point summaries, wall time)
written once when the run finishes — the cheap thing dashboards read
without replaying a stream.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

#: file names inside a sweep/run output directory
STREAM_FILENAME = "telemetry.jsonl"
SNAPSHOT_FILENAME = "telemetry.json"

STREAM_VERSION = 1


class TelemetryError(ValueError):
    """Malformed telemetry stream: missing/invalid header."""


def stream_path(out_dir) -> Path:
    return Path(out_dir) / STREAM_FILENAME


def snapshot_path(out_dir) -> Path:
    return Path(out_dir) / SNAPSHOT_FILENAME


def point_record(outcome, store_hit: bool = False) -> Dict[str, object]:
    """One stream line's payload for a completed grid point.

    ``outcome`` is a :class:`repro.runner.engine.RunOutcome` (typed
    loosely here so this module stays import-time dependency-free — the
    kernels import :mod:`repro.obs` and must not drag the runner in).
    """
    request = outcome.request
    record: Dict[str, object] = {
        "kind": "point",
        "scenario": request.scenario_id,
        "params": [[name, value] for name, value in request.params],
        "fast": request.fast,
        "ok": outcome.ok,
        "raised": bool(outcome.error),
        "store_hit": store_hit,
        "duration_s": outcome.duration_s,
        "t_mono": outcome.t_mono,
    }
    if outcome.error:
        # the last traceback line identifies the failure cluster; the
        # journal keeps the full text for resume
        record["error"] = outcome.error.strip().splitlines()[-1]
    if outcome.metrics:
        record["metrics"] = dict(outcome.metrics)
    return record


class TelemetryWriter:
    """Writer side: header once, flushed line per point, summary last."""

    def __init__(self, path) -> None:
        self.path = Path(path)

    def start(self, scenario_id: str, fingerprint: str = "",
              jobs: int = 1, total_points: int = 0) -> None:
        """(Re)create the stream with a fresh header line."""
        self.path.parent.mkdir(parents=True, exist_ok=True)
        header = {
            "kind": "header",
            "version": STREAM_VERSION,
            "scenario": scenario_id,
            "fingerprint": fingerprint,
            "jobs": jobs,
            "total_points": total_points,
        }
        self.path.write_text(
            json.dumps(header, sort_keys=True) + "\n", encoding="utf-8"
        )

    def _append(self, record: Dict[str, object]) -> None:
        with self.path.open("a", encoding="utf-8") as fh:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
            fh.flush()

    def append_point(self, outcome, store_hit: bool = False) -> None:
        """Durably record one completed point (open-write-close)."""
        self._append(point_record(outcome, store_hit=store_hit))

    def finish(self, summary: Dict[str, object]) -> None:
        """Append the sweep-level rollup line."""
        record = {"kind": "summary"}
        record.update(summary)
        self._append(record)


def read_valid_prefix(
    path: Path, error: type, noun: str,
    accept: Optional[Callable[[Dict[str, object]], bool]] = None,
) -> Tuple[List[Dict[str, object]], int]:
    """A JSONL log's valid prefix: ``(entries, valid_bytes)``.

    A line counts only if it is newline-terminated, parses, and passes
    ``accept`` (the journal's per-line checksum); the walk stops at the
    first line that fails, since a writer killed mid-line leaves a torn
    tail and nothing after damage is trusted.  The first entry must be
    a header; an empty or headerless log raises ``error``.  Shared by
    the journal and telemetry readers.
    """
    entries: List[Dict[str, object]] = []
    valid_bytes = 0
    with path.open("rb") as fh:
        raw = fh.read()
    for line in raw.splitlines(keepends=True):
        if not line.endswith(b"\n"):
            break
        try:
            entry = json.loads(line.decode("utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError):
            break  # killed mid-write; the rest is untrustworthy
        if accept is not None and not accept(entry):
            break
        if not entries and entry.get("kind") != "header":
            raise error(f"{path}: first line is not a {noun} header")
        entries.append(entry)
        valid_bytes += len(line)
    if not entries:
        raise error(f"{path}: empty or headerless {noun}")
    return entries, valid_bytes


def _read(path: Path) -> Tuple[Dict[str, object],
                               List[Dict[str, object]], int]:
    """Parse the stream; also return the valid-prefix byte length."""
    entries, valid_bytes = read_valid_prefix(
        path, TelemetryError, "telemetry stream"
    )
    return entries[0], entries[1:], valid_bytes


def read_stream(path) -> Tuple[Dict[str, object], List[Dict[str, object]]]:
    """Read a stream back: ``(header, records)``, torn tail dropped."""
    header, records, _ = _read(Path(path))
    return header, records


def recover_stream(path) -> Tuple[Dict[str, object],
                                  List[Dict[str, object]]]:
    """Like :func:`read_stream`, but truncates the file to its valid
    prefix so subsequent appends continue a well-formed stream."""
    path = Path(path)
    header, records, valid_bytes = _read(path)
    if valid_bytes < path.stat().st_size:
        with path.open("r+b") as fh:
            fh.truncate(valid_bytes)
    return header, records


def write_snapshot(out_dir, document: Dict[str, object]) -> Path:
    """Write the ``telemetry.json`` end-of-run snapshot; returns its path."""
    path = snapshot_path(out_dir)
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = {"version": STREAM_VERSION}
    payload.update(document)
    path.write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    return path
