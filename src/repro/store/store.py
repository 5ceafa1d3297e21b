"""Content-addressed, on-disk run store.

Every stored outcome is keyed by the sha-256 of its *identity*: the
scenario id, the coerced parameter overrides, the fast flag, and a
fingerprint of the package's own source code.  Two consequences:

* "is this point already done?" is one ``exists()`` — the sweep CLI
  uses it (``--store``) to skip grid points that any earlier sweep on
  the same code already computed;
* editing any source file changes the fingerprint, so stale results
  can never be served for new code — the store is self-invalidating
  across commits, which is what makes cross-commit ``repro diff``
  trustworthy.

Layout (git-friendly, one JSON object per run)::

    <root>/objects/<key[:2]>/<key>.json

Only successful executions are stored (a run whose *checks* failed is
still a valid, cacheable result; a run that *raised* is not — it holds
no data worth serving).
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Dict, Iterator, Optional

from ..runner.engine import RunOutcome, RunRequest
from . import codec

_fingerprint_cache: Optional[str] = None


def code_fingerprint() -> str:
    """Stable hash of every ``.py`` source file in the repro package.

    Computed once per process; 16 hex chars is plenty to distinguish
    commits while staying readable in ``repro history`` output.
    """
    global _fingerprint_cache
    if _fingerprint_cache is None:
        import hashlib

        package_root = Path(__file__).resolve().parents[1]
        digest = hashlib.sha256()
        for path in sorted(package_root.rglob("*.py")):
            digest.update(str(path.relative_to(package_root)).encode())
            digest.update(b"\0")
            digest.update(path.read_bytes())
            digest.update(b"\0")
        _fingerprint_cache = digest.hexdigest()[:16]
    return _fingerprint_cache


def request_key(request: RunRequest, fingerprint: Optional[str] = None) -> str:
    """Content address of one run: scenario + params + fast + code."""
    import hashlib

    payload = json.dumps(
        {
            "scenario": request.scenario_id,
            "params": [[name, value] for name, value in request.params],
            "fast": request.fast,
            "fingerprint": fingerprint or code_fingerprint(),
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode()).hexdigest()


class RunStore:
    """Persistent map from run identity to its recorded outcome."""

    def __init__(self, root, fingerprint: Optional[str] = None) -> None:
        self.root = Path(root)
        self.fingerprint = fingerprint or code_fingerprint()

    # ------------------------------------------------------------------
    def key(self, request: RunRequest) -> str:
        return request_key(request, self.fingerprint)

    def _object_path(self, key: str) -> Path:
        return self.root / "objects" / key[:2] / f"{key}.json"

    def get(self, request: RunRequest) -> Optional[RunOutcome]:
        """The stored outcome for this exact identity, or ``None``."""
        path = self._object_path(self.key(request))
        if not path.exists():
            return None
        try:
            record = json.loads(path.read_text(encoding="utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError, OSError):
            return None  # unreadable object: treat as a miss, re-execute
        if codec.verify_hash(record) is False:
            # bit rot under the content address — self-healing: report a
            # miss so the caller recomputes and put() replaces the object
            return None
        return codec.outcome_from_record(record)

    def put(self, outcome: RunOutcome) -> str:
        """Store a successful execution; returns its key.

        Raising scenarios are rejected — cache entries must hold a
        result, and a deterministic failure re-raises identically on
        re-execution anyway.
        """
        if outcome.error:
            raise ValueError(
                f"refusing to store failed outcome of "
                f"{outcome.request.scenario_id!r}: cache entries must "
                f"hold a result"
            )
        from ..runner.artifacts import point_slug

        key = self.key(outcome.request)
        # store objects are content-addressed and compared across runs,
        # so the volatile observability fields (durations, timestamps,
        # counter deltas) stay out — a cache hit replays the result,
        # not the weather of the run that produced it
        record = codec.attach_hash({
            "key": key,
            "fingerprint": self.fingerprint,
            "point": point_slug(outcome),
            **codec.strip_volatile(codec.outcome_to_record(outcome)),
        })
        path = self._object_path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        # atomic publish: a reader never sees a half-written object, and
        # the pid suffix keeps concurrent writers (sweeps sharing a
        # store) from clobbering each other's temp file
        tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
        tmp.write_text(
            json.dumps(record, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        os.replace(tmp, path)
        return key

    # ------------------------------------------------------------------
    def records(self) -> Iterator[Dict[str, object]]:
        """Every stored record, in deterministic (key) order."""
        objects = self.root / "objects"
        if not objects.is_dir():
            return
        for path in sorted(objects.rglob("*.json")):
            yield json.loads(path.read_text(encoding="utf-8"))
