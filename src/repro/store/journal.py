"""Append-only JSONL sweep journal — the resume log.

The sweep CLI writes one journal per output directory: a header line
naming the scenario and the code fingerprint, then one line per
completed grid point, appended (and flushed to disk) the moment the
engine yields the outcome.  Killing a sweep at any instant therefore
leaves a journal whose intact prefix is exactly the completed work;
``repro sweep --resume <dir>`` reloads it, skips those points, and
appends the rest — the finished journal and artifact tree are
byte-identical to an uninterrupted run's.

Journal lines carry a small *volatile* side-band — per-point wall
duration, monotonic completion stamp, and (when metrics are enabled)
kernel counter deltas — so resume, ``repro telemetry`` and the live
progress ETA all share one source of truth.  Everything else is part
of the deterministic artifact contract: :func:`canonical_bytes`
projects a journal onto exactly that deterministic part, and the
byte-identity guarantees (kill-then-resume, ``--jobs N`` vs serial,
``--progress`` on vs off) hold over that projection plus, unchanged,
over every other file in the artifact tree.  Old journals without the
side-band load fine (readers treat the fields as optional).
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Dict, Iterable, List, Sequence, Tuple

from ..obs.telemetry import read_valid_prefix
from ..runner.engine import RunOutcome
from . import codec
from .store import code_fingerprint, request_key

#: the journal's name inside a sweep output directory
FILENAME = "journal.jsonl"

JOURNAL_VERSION = 1


class JournalError(ValueError):
    """Malformed journal: missing/invalid header."""


def journal_path(out_dir) -> Path:
    return Path(out_dir) / FILENAME


def _entry_line(outcome: RunOutcome) -> str:
    """The exact serialized journal line for one outcome.

    Each line carries an integrity checksum over its deterministic
    body (volatile side-band excluded), so append and the canonical
    rewrite stamp identical hashes and bit rot is detectable per line.
    """
    entry = {
        "kind": "outcome",
        "key": request_key(outcome.request),
        **codec.outcome_to_record(outcome),
    }
    return json.dumps(codec.attach_hash(entry), sort_keys=True) + "\n"


def _header_line(scenario_id: str, fingerprint: str) -> str:
    header = {
        "kind": "header",
        "version": JOURNAL_VERSION,
        "scenario": scenario_id,
        "fingerprint": fingerprint or code_fingerprint(),
    }
    return json.dumps(header, sort_keys=True) + "\n"


class Journal:
    """Writer side: header once, then one flushed line per outcome."""

    def __init__(self, path) -> None:
        self.path = Path(path)

    def start(self, scenario_id: str, fingerprint: str = "") -> None:
        """(Re)create the journal with a fresh header line."""
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.path.write_text(_header_line(scenario_id, fingerprint),
                             encoding="utf-8")

    def append(self, outcome: RunOutcome) -> None:
        """Durably record one completed point (open-write-close)."""
        with self.path.open("a", encoding="utf-8") as fh:
            fh.write(_entry_line(outcome))
            fh.flush()

    def rewrite(self, scenario_id: str, outcomes: Sequence[RunOutcome],
                fingerprint: str = "") -> None:
        """Atomically replace the journal with ``outcomes`` in order.

        The written bytes are exactly what ``start`` + ``append`` per
        outcome would have produced, so a completed sweep that appended
        in completion order (``--jobs N``, fabric workers) normalizes
        to the canonical grid-order journal — raw-byte-identical to a
        ``--jobs 1`` run — without ever exposing a half-written file.
        A crash mid-rewrite leaves the old journal intact, and the old
        journal already contains every outcome, so resume still works.
        """
        lines = [_header_line(scenario_id, fingerprint)]
        lines.extend(_entry_line(outcome) for outcome in outcomes)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        tmp = self.path.with_name(f"{self.path.name}.{os.getpid()}.tmp")
        tmp.write_text("".join(lines), encoding="utf-8")
        os.replace(tmp, self.path)


def _read(path: Path) -> Tuple[Dict[str, object], List[RunOutcome], int]:
    """Parse the journal; also returns the byte length of the valid
    prefix (newline-terminated, parseable lines with intact checksums —
    a sweep killed mid-write leaves a torn tail, bit rot fails the
    checksum)."""
    entries, valid_bytes = _valid_prefix(path)
    outcomes = [
        codec.outcome_from_record(entry) for entry in entries[1:]
        if entry.get("kind") == "outcome"
    ]
    return entries[0], outcomes, valid_bytes


def _valid_prefix(path: Path) -> Tuple[List[Dict[str, object]], int]:
    return read_valid_prefix(
        path, JournalError, "journal",
        accept=lambda entry: codec.verify_hash(entry) is not False,
    )


def load(path) -> Tuple[Dict[str, object], List[RunOutcome]]:
    """Read a journal back: ``(header, completed outcomes)``.

    A torn final line is dropped along with anything after it;
    everything before the damage is trusted.
    """
    header, outcomes, _ = _read(Path(path))
    return header, outcomes


def recover(path) -> Tuple[Dict[str, object], List[RunOutcome]]:
    """Like :func:`load`, but also truncates the file to its valid
    prefix so subsequent appends continue a well-formed journal."""
    path = Path(path)
    header, outcomes, valid_bytes = _read(path)
    if valid_bytes < path.stat().st_size:
        with path.open("r+b") as fh:
            fh.truncate(valid_bytes)
    return header, outcomes


def canonical_bytes(path) -> bytes:
    """The journal's deterministic projection, as bytes.

    Each line is re-serialized with :data:`codec.VOLATILE_FIELDS`
    removed, so two runs that computed the same work — whatever their
    wall-clock weather — compare equal.  Used by the byte-identity
    tests and ``repro diff``-style tooling; raises like :func:`load`
    on a headerless file.
    """
    entries, _ = _valid_prefix(Path(path))
    return "".join(
        json.dumps(codec.strip_volatile(entry), sort_keys=True) + "\n"
        for entry in entries
    ).encode("utf-8")


def merge_segments(segment_paths: Iterable) -> Dict[str, RunOutcome]:
    """Fold per-worker journal segments into one key→outcome map.

    Segments are read in sorted path order and the first occurrence of
    each request key wins, so the merge is deterministic regardless of
    which worker finished first.  Torn tails and entirely unreadable
    segments (a worker killed before writing its header) are skipped —
    a dead worker's damage is bounded to its own unpublished tail.
    Re-executed points publish canonically identical records, so
    first-wins loses nothing but volatile timings.
    """
    merged: Dict[str, RunOutcome] = {}
    for path in sorted(Path(p) for p in segment_paths):
        try:
            _, outcomes = load(path)
        except (JournalError, OSError):
            continue
        for outcome in outcomes:
            merged.setdefault(request_key(outcome.request), outcome)
    return merged
