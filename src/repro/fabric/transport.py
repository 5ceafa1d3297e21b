"""Lease protocol and the shared-directory transport.

The fabric's control plane is three tiny record kinds plus the
workers' journal segments:

* the **plan** — one document naming the scenario, the code
  fingerprint, every grid request in canonical order, and the work
  items (solo requests or batch-packed groups) the engine planned;
* **leases** — one record per in-flight work item: owner, deadline,
  attempt count.  A live owner renews its deadline; a dead one lets
  it lapse, and the next worker to claim the item takes the record
  over in :meth:`FileTransport.try_claim` (attempt + 1).  That is the
  only way a lease changes hands: nobody deletes an expired record,
  so its attempt count survives to drive quarantine;
* **results** — one published record per completed grid point, keyed
  by the point's index in the plan.  Publishing is idempotent: the
  first record wins, duplicates are dropped (two workers racing the
  same re-leased point compute canonically identical records anyway —
  the store content key pins that);
* **journal segments** — each worker appends every outcome to its own
  segment before publishing it.  :meth:`FileTransport.salvage`
  republishes what a dead owner journaled but never published, and
  ``repro telemetry`` reads the segments' per-point timings.

:class:`FileTransport` keeps them in a shared directory with the repo's
usual atomicity discipline (write-temp-then-link for claims,
write-temp-then-rename for everything else), so the fabric works across
processes — and across machines sharing a mount — with no daemon in the
middle.

Layout::

    <fabric>/
      plan.json                     # the grid + work items
      leases/item-000007.json       # one lease per claimed work item
      results/000042.json           # one record per completed point
      workers/<id>/journal.jsonl    # per-worker journal segment
"""

from __future__ import annotations

import json
import os
import socket
import time
import uuid
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set

from ..obs.metrics import REGISTRY
from ..runner.engine import RunRequest
from ..store import codec
from ..store import journal as journal_mod

PLAN_FILENAME = "plan.json"
PLAN_VERSION = 1

#: extra slack beyond the lease deadline before anyone may take over —
#: absorbs clock skew between hosts sharing a mount
EXPIRY_GRACE_S = 1.0


class FabricError(RuntimeError):
    """Fabric misuse: missing plan, plan mismatch, worker exhaustion."""


def worker_identity(prefix: str = "wk") -> str:
    """A collision-safe worker id: host, pid, and a random suffix.

    Owner equality is what the lease protocol trusts, so two workers
    must never share an identity — not even a respawned worker on the
    same host reusing a pid.
    """
    return (
        f"{prefix}-{socket.gethostname()}-{os.getpid()}"
        f"-{uuid.uuid4().hex[:6]}"
    )


@dataclass(frozen=True)
class LeaseRecord:
    """One work item's ownership claim."""

    item: str
    owner: str
    deadline: float  # unix epoch seconds
    attempt: int = 1

    def expired(self, now: Optional[float] = None) -> bool:
        if now is None:
            now = time.time()
        return now > self.deadline + EXPIRY_GRACE_S

    def to_json(self) -> Dict[str, object]:
        return {
            "item": self.item,
            "owner": self.owner,
            "deadline": self.deadline,
            "attempt": self.attempt,
        }

    @classmethod
    def from_json(cls, data: Dict[str, object]) -> "LeaseRecord":
        return cls(
            item=str(data["item"]),
            owner=str(data["owner"]),
            deadline=float(data["deadline"]),
            attempt=int(data.get("attempt", 1)),
        )


def item_id(index: int) -> str:
    """Stable lease id of the ``index``-th planned work item."""
    return f"item-{index:06d}"


def encode_requests(requests: Sequence[RunRequest]) -> List[dict]:
    """Plan-document encoding of the grid, in canonical order."""
    return [
        {
            "params": [[name, value] for name, value in r.params],
            "fast": r.fast,
        }
        for r in requests
    ]


def decode_requests(plan: Dict[str, object]) -> List[RunRequest]:
    """Rebuild the grid requests exactly as the coordinator planned them.

    Values were coerced before planning and JSON round-trips every
    coerced type loss-free, so the rebuilt requests hash — and content-
    address — identically to the originals.
    """
    scenario_id = str(plan["scenario"])
    return [
        RunRequest(
            scenario_id=scenario_id,
            params=tuple((name, value) for name, value in r["params"]),
            fast=bool(r["fast"]),
        )
        for r in plan["requests"]
    ]


class FileTransport:
    """The shared-directory transport (see the module docstring)."""

    def __init__(self, root) -> None:
        self.root = Path(root)

    # ------------------------------------------------------------------
    @property
    def plan_path(self) -> Path:
        return self.root / PLAN_FILENAME

    def _lease_path(self, item: str) -> Path:
        return self.root / "leases" / f"{item}.json"

    def _result_path(self, index: int) -> Path:
        return self.root / "results" / f"{index:06d}.json"

    def worker_dir(self, worker_id: str) -> Path:
        """Per-worker segment directory (the journal segment lives here)."""
        path = self.root / "workers" / worker_id
        path.mkdir(parents=True, exist_ok=True)
        return path

    def segment_journals(self) -> List[Path]:
        """Every worker's journal segment, sorted by worker id."""
        workers = self.root / "workers"
        if not workers.is_dir():
            return []
        return sorted(workers.glob("*/journal.jsonl"))

    # ------------------------------------------------------------------
    @staticmethod
    def _write_temp(path: Path, payload: Dict[str, object]) -> Path:
        """``payload`` written in full to a fresh sibling of ``path``."""
        tmp = path.with_name(
            f"{path.name}.{os.getpid()}.{uuid.uuid4().hex[:6]}.tmp"
        )
        tmp.write_text(
            json.dumps(payload, sort_keys=True) + "\n", encoding="utf-8"
        )
        return tmp

    def _write_atomic(self, path: Path, payload: Dict[str, object]) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        os.replace(self._write_temp(path, payload), path)

    @staticmethod
    def _read_json(path: Path) -> Optional[Dict[str, object]]:
        try:
            return json.loads(path.read_text(encoding="utf-8"))
        except FileNotFoundError:
            return None
        except (json.JSONDecodeError, UnicodeDecodeError, OSError):
            # a reader racing os.replace never sees half a file, but a
            # crashed writer's debris (or a foreign file) reads as "not
            # a record" rather than an exception — counted so recovery
            # paths are observable instead of silent
            if REGISTRY.enabled:
                REGISTRY.counter("fabric.corrupt_records").inc()
            return None

    # -- plan ----------------------------------------------------------
    def read_plan(self) -> Optional[Dict[str, object]]:
        return self._read_json(self.plan_path)

    def write_plan(self, plan: Dict[str, object]) -> None:
        self._write_atomic(self.plan_path, plan)

    # -- leases --------------------------------------------------------
    def try_claim(self, item: str, owner: str,
                  ttl: float) -> Optional[LeaseRecord]:
        """Claim an unleased item, or take an expired lease over
        (attempt + 1); ``None`` if lost.  The only way a lease changes
        hands."""
        now = time.time()
        path = self._lease_path(item)
        record = LeaseRecord(item=item, owner=owner,
                             deadline=now + ttl, attempt=1)
        path.parent.mkdir(parents=True, exist_ok=True)
        # the full record is written aside, then hard-linked onto the
        # lease path: the link is exclusive and a racing claimer never
        # sees the lease file empty
        tmp = self._write_temp(path, record.to_json())
        try:
            os.link(tmp, path)
        except FileExistsError:
            existing = self.lease(item)
            if existing is not None and not existing.expired(now):
                return None
            # stale takeover: replace the record, then read back — the
            # last writer wins and only the winner sees itself as owner.
            # An unreadable record can only be debris (a foreign or
            # damaged file): leaving it would block the item forever.
            attempt = existing.attempt + 1 if existing else 1
            record = LeaseRecord(item=item, owner=owner,
                                 deadline=now + ttl,
                                 attempt=attempt)
            self._write_atomic(path, record.to_json())
            current = self.lease(item)
            if (current is not None and current.owner == owner
                    and current.deadline == record.deadline):
                return record
            return None
        finally:
            tmp.unlink()
        return record

    def renew(self, item: str, owner: str, ttl: float) -> bool:
        """Heartbeat an owned lease; ``False`` if ownership was lost."""
        path = self._lease_path(item)
        existing = self.lease(item)
        if existing is None or existing.owner != owner:
            return False
        renewed = LeaseRecord(item=item, owner=owner,
                              deadline=time.time() + ttl,
                              attempt=existing.attempt)
        self._write_atomic(path, renewed.to_json())
        return True

    def release(self, item: str, owner: str) -> None:
        """Drop an owned lease (after its results are published)."""
        existing = self.lease(item)
        if existing is not None and existing.owner == owner:
            self._lease_path(item).unlink(missing_ok=True)

    def lease(self, item: str) -> Optional[LeaseRecord]:
        data = self._read_json(self._lease_path(item))
        if data is None:
            return None
        try:
            return LeaseRecord.from_json(data)
        except (KeyError, TypeError, ValueError):
            return None

    def leases(self) -> Dict[str, LeaseRecord]:
        leases_dir = self.root / "leases"
        out: Dict[str, LeaseRecord] = {}
        if not leases_dir.is_dir():
            return out
        for path in sorted(leases_dir.glob("item-*.json")):
            record = self.lease(path.stem)
            if record is not None:
                out[record.item] = record
        return out

    # -- results -------------------------------------------------------
    def publish_result(self, index: int,
                       record: Dict[str, object]) -> bool:
        """Idempotently publish one point; ``False`` if already there."""
        path = self._result_path(index)
        if path.exists():
            existing = self._read_json(path)
            if (existing is not None
                    and codec.verify_hash(existing) is not False):
                return False
            # unreadable or checksum-failed debris at the result path
            # (a torn non-atomic write) would otherwise block the real
            # record forever — overwrite it
            if REGISTRY.enabled:
                REGISTRY.counter("fabric.corrupt_results").inc()
        self._write_atomic(path, record)
        return True

    def read_result(self, index: int) -> Optional[Dict[str, object]]:
        return self._read_json(self._result_path(index))

    def discard_result(self, index: int) -> bool:
        """Coordinator-side: drop a corrupt record so it is republished."""
        try:
            self._result_path(index).unlink()
        except FileNotFoundError:
            return False
        return True

    def result_indices(self) -> Set[int]:
        results = self.root / "results"
        if not results.is_dir():
            return set()
        out: Set[int] = set()
        for path in results.glob("*.json"):
            try:
                out.add(int(path.stem))
            except ValueError:
                continue
        return out

    def salvage(self, key_to_index: Dict[str, int],
                have: Set[int]) -> int:
        """Publish journaled-but-unpublished outcomes; returns how many.

        A worker killed between its journal append and its publish left
        a durable record of finished work.  Every point of
        ``key_to_index`` (request key to grid index) that is not in
        ``have`` and sits in some worker's journal segment is published
        here, so its item never re-executes it.  A damaged segment
        contributes its valid prefix.  Publication stays idempotent, so
        racing an actually-alive worker is harmless.
        """
        salvaged = 0
        merged = journal_mod.merge_segments(self.segment_journals())
        for key, outcome in merged.items():
            index = key_to_index.get(key)
            if index is None or index in have:
                continue
            record = codec.outcome_to_record(outcome)
            record["key"] = key
            record["worker"] = "salvage"
            if self.publish_result(index, codec.attach_hash(record)):
                salvaged += 1
        return salvaged
