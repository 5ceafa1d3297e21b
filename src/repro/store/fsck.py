"""Integrity checking and repair for sweep artifacts and fabric state.

``repro fsck <dir>`` walks whatever durable state the directory holds —
sweep journals (the one per-point log a sweep appends), run-store
objects, and fabric control-plane files (plan, leases, published
results, per-worker segments) — verifies every record it finds
(structure + the additive sha256 checksums stamped by the writers),
and repairs what it safely can:

* **torn tails** (a writer killed mid-append) are truncated away, the
  damaged bytes preserved in the quarantine sidecar;
* **corrupt interior lines** (bit rot, an in-place scribble) are
  quarantined and the file rewritten from its remaining valid lines —
  unlike the readers' conservative stop-at-damage rule, fsck keeps the
  valid lines *after* the damage too, so nothing intact is lost;
* **corrupt store objects / published result records** are moved whole
  into the quarantine sidecar (the store treats the miss as "not yet
  computed" and heals on the next sweep);
* **stale lease debris** (unreadable records, leases whose every
  point already published) is quarantined or removed so a resumed
  fabric doesn't trip over ghosts.  An expired lease of an unfinished
  item is kept: its attempt count is what quarantines a poisoned item.

Nothing valid is ever deleted, and every removed byte lands in
``fsck-quarantine/`` first — fsck is safe to run on a tree you still
care about.  ``repair=False`` (CLI ``--dry-run``) only reports.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Set

from . import codec
from .journal import FILENAME as JOURNAL_FILENAME

#: sidecar directory (under the fsck root) holding quarantined bytes
QUARANTINE_DIRNAME = "fsck-quarantine"


@dataclass(frozen=True)
class Issue:
    """One problem fsck found, and what it did (or would do) about it."""

    path: str  # relative to the fsck root
    kind: str  # corruption class, e.g. "torn-tail", "bad-checksum"
    detail: str
    action: str  # "truncated" | "quarantined" | "removed" | "reported"

    def render(self) -> str:
        return f"{self.kind:<16} {self.path}: {self.detail} [{self.action}]"


@dataclass
class FsckReport:
    root: str
    repaired: bool  # False for a dry run
    issues: List[Issue] = field(default_factory=list)
    files_checked: int = 0
    records_checked: int = 0

    @property
    def clean(self) -> bool:
        return not self.issues

    @property
    def ok(self) -> bool:
        """True when every issue was actually handled (repair mode and
        nothing left in the "reported" (unrepairable) state)."""
        if not self.repaired:
            return self.clean
        return all(issue.action != "reported" for issue in self.issues)

    def to_json(self) -> Dict[str, object]:
        return {
            "root": self.root,
            "repaired": self.repaired,
            "files_checked": self.files_checked,
            "records_checked": self.records_checked,
            "clean": self.clean,
            "ok": self.ok,
            "issues": [
                {
                    "path": i.path,
                    "kind": i.kind,
                    "detail": i.detail,
                    "action": i.action,
                }
                for i in self.issues
            ],
        }

    def render(self) -> str:
        lines = [
            f"fsck {self.root}: {self.files_checked} file(s), "
            f"{self.records_checked} record(s) checked"
        ]
        for issue in self.issues:
            lines.append("  " + issue.render())
        if self.clean:
            lines.append("  clean")
        elif self.repaired:
            lines.append(
                f"  {len(self.issues)} issue(s) "
                + ("repaired" if self.ok else "found; some NOT repairable")
            )
        else:
            lines.append(f"  {len(self.issues)} issue(s) found (dry run)")
        return "\n".join(lines)


class _Fsck:
    def __init__(self, root: Path, repair: bool,
                 quarantine_dir: Optional[Path]) -> None:
        self.root = root
        self.repair = repair
        self.qdir = quarantine_dir or (root / QUARANTINE_DIRNAME)
        self.report = FsckReport(root=str(root), repaired=repair)

    # ------------------------------------------------------------------
    def _rel(self, path: Path) -> str:
        try:
            return str(path.relative_to(self.root))
        except ValueError:
            return str(path)

    def _issue(self, path: Path, kind: str, detail: str,
               action: str) -> None:
        self.report.issues.append(
            Issue(path=self._rel(path), kind=kind, detail=detail,
                  action=action)
        )

    def _quarantine_bytes(self, source: Path, tag: str,
                          payload: bytes) -> None:
        if not self.repair:
            return
        self.qdir.mkdir(parents=True, exist_ok=True)
        name = self._rel(source).replace("/", "__") + f".{tag}"
        (self.qdir / name).write_bytes(payload)

    def _quarantine_file(self, path: Path) -> None:
        if not self.repair:
            return
        self._quarantine_bytes(path, "file", path.read_bytes())
        path.unlink()

    # -- journals ------------------------------------------------------
    def _check_journal(self, path: Path) -> None:
        """Validate a journal line by line; repair in place.

        Invalid tail lines are truncated, invalid interior lines
        quarantined; either way the file is rewritten from exactly its
        valid lines.
        """
        self.report.files_checked += 1
        raw = path.read_bytes()
        lines = raw.splitlines(keepends=True)
        keep: List[bytes] = []
        dirty = False
        for i, line in enumerate(lines):
            entry = None
            problem = None
            if not line.endswith(b"\n"):
                problem = "not newline-terminated (torn write)"
            else:
                try:
                    entry = json.loads(line.decode("utf-8"))
                except (json.JSONDecodeError, UnicodeDecodeError):
                    problem = "unparseable JSON"
            if entry is not None and problem is None:
                self.report.records_checked += 1
                problem = self._journal_entry(entry, i)
            if problem is None:
                keep.append(line)
                continue
            dirty = True
            is_tail = i == len(lines) - 1
            kind = "torn-tail" if is_tail else "corrupt-line"
            action = ("truncated" if is_tail else "quarantined") \
                if self.repair else "reported"
            self._issue(path, kind, f"line {i + 1}: {problem}", action)
            self._quarantine_bytes(path, f"line{i + 1}", line)
        if self.repair and dirty:
            tmp = path.with_name(path.name + ".fsck.tmp")
            tmp.write_bytes(b"".join(keep))
            tmp.replace(path)

    def _journal_entry(self, entry: object, lineno: int) -> Optional[str]:
        if not isinstance(entry, dict):
            return "not a JSON object"
        if codec.verify_hash(entry) is False:
            return "checksum mismatch"
        kind = entry.get("kind")
        if lineno == 0:
            return None if kind == "header" else "first line is not a header"
        if kind not in {"header", "outcome"}:
            return f"unknown journal line kind {kind!r}"
        if kind == "outcome":
            try:
                codec.outcome_from_record(entry)
            except (KeyError, TypeError, ValueError) as exc:
                return f"undecodable outcome ({exc})"
        return None

    # -- whole-file JSON records ---------------------------------------
    def _load_record(self, path: Path) -> Optional[dict]:
        self.report.files_checked += 1
        try:
            record = json.loads(path.read_text(encoding="utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError, OSError):
            return None
        if not isinstance(record, dict):
            return None
        self.report.records_checked += 1
        return record

    def _check_store_object(self, path: Path) -> None:
        record = self._load_record(path)
        action = "quarantined" if self.repair else "reported"
        if record is None:
            self._issue(path, "corrupt-object", "unreadable store object",
                        action)
            self._quarantine_file(path)
            return
        if codec.verify_hash(record) is False:
            self._issue(path, "bad-checksum",
                        "store payload fails its sha256", action)
            self._quarantine_file(path)
            return
        if record.get("key") != path.stem:
            self._issue(path, "key-mismatch",
                        f"record key {record.get('key')!r} does not match "
                        f"the object's content address", action)
            self._quarantine_file(path)

    def _check_result_record(self, path: Path) -> None:
        record = self._load_record(path)
        action = "quarantined" if self.repair else "reported"
        if record is None:
            self._issue(path, "corrupt-result",
                        "unreadable/truncated published result", action)
            self._quarantine_file(path)
            return
        if codec.verify_hash(record) is False:
            self._issue(path, "bad-checksum",
                        "published result fails its sha256", action)
            self._quarantine_file(path)
            return
        try:
            codec.outcome_from_record(record)
        except (KeyError, TypeError, ValueError) as exc:
            self._issue(path, "corrupt-result",
                        f"undecodable result record ({exc})", action)
            self._quarantine_file(path)

    # -- fabric control plane ------------------------------------------
    def _check_fabric(self) -> None:
        from ..fabric.transport import LeaseRecord, PLAN_FILENAME

        plan_path = self.root / PLAN_FILENAME
        plan_items: Optional[List[dict]] = None
        if plan_path.is_file():
            plan = self._load_record(plan_path)
            if plan is None or not isinstance(plan.get("items"), list):
                self._issue(
                    plan_path, "corrupt-plan",
                    "unreadable fabric plan (fabric state unusable)",
                    "quarantined" if self.repair else "reported")
                self._quarantine_file(plan_path)
            else:
                plan_items = list(plan["items"])

        results_dir = self.root / "results"
        published: Set[int] = set()
        if results_dir.is_dir():
            for path in sorted(results_dir.glob("*.json")):
                self._check_result_record(path)
                if path.exists():  # still there ⇒ it verified clean
                    try:
                        published.add(int(path.stem))
                    except ValueError:
                        pass

        leases_dir = self.root / "leases"
        if leases_dir.is_dir():
            for path in sorted(leases_dir.glob("*.json")):
                data = self._load_record(path)
                record = None
                if data is not None:
                    try:
                        record = LeaseRecord.from_json(data)
                    except (KeyError, TypeError, ValueError):
                        record = None
                if record is None:
                    self._issue(
                        path, "lease-debris",
                        "unreadable lease record (writer died mid-write)",
                        "quarantined" if self.repair else "reported")
                    self._quarantine_file(path)
                    continue
                done = False
                if plan_items is not None:
                    try:
                        index = int(path.stem.rsplit("-", 1)[1])
                        indices = plan_items[index]["indices"]
                        done = all(int(i) in published for i in indices)
                    except (IndexError, KeyError, TypeError, ValueError):
                        done = False
                if done:
                    action = "removed" if self.repair else "reported"
                    self._issue(path, "stale-lease",
                                "every point already published", action)
                    if self.repair:
                        self._quarantine_bytes(path, "file",
                                               path.read_bytes())
                        path.unlink()
                # a lease of an unfinished item is healthy, expired or
                # not: the next claim takes it over, attempt count and
                # all, so deleting it would let a poisoned item run again

    # ------------------------------------------------------------------
    def run(self) -> FsckReport:
        skip = {self.qdir.resolve()}

        def skipped(path: Path) -> bool:
            return any(parent in skip for parent in
                       [path.resolve(), *path.resolve().parents])

        for path in sorted(self.root.rglob(JOURNAL_FILENAME)):
            if not skipped(path):
                self._check_journal(path)
        objects = self.root / "objects"
        if objects.is_dir():
            for path in sorted(objects.rglob("*.json")):
                if not skipped(path):
                    self._check_store_object(path)
        self._check_fabric()
        return self.report


def fsck_tree(root, repair: bool = True,
              quarantine_dir=None) -> FsckReport:
    """Verify (and with ``repair=True`` fix) every record under ``root``.

    Handles any mix of sweep output directories, run stores, and fabric
    directories — each known artifact class present is checked, unknown
    files are ignored.  Returns the :class:`FsckReport`; nothing valid
    is deleted, and all removed bytes are preserved under the
    quarantine sidecar (default ``<root>/fsck-quarantine/``).
    """
    root = Path(root)
    if not root.is_dir():
        raise FileNotFoundError(f"fsck target {root} is not a directory")
    qdir = Path(quarantine_dir) if quarantine_dir is not None else None
    return _Fsck(root, repair=repair, quarantine_dir=qdir).run()
