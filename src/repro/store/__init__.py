"""Persistent result store, resumable sweep journal, regression diffing.

The execution layer (:mod:`repro.runner`) made sweeps declarative and
parallel; this package makes them *durable* and *comparable*:

* :mod:`~repro.store.store` — content-addressed on-disk store keyed by
  ``(scenario, params, fast, code fingerprint)``: "is this point
  already done?" is a lookup, and results can never leak across code
  versions;
* :mod:`~repro.store.journal` — append-only JSONL journal written as
  outcomes complete, powering ``repro sweep --resume``;
* :mod:`~repro.store.diff` — structured comparison of two artifact
  trees (new failures, check drift beyond tolerance, row deltas),
  powering ``repro diff`` and the CI regression gate;
* :mod:`~repro.store.codec` — the loss-free outcome round-trip the
  other three share, plus the additive sha256 integrity checksums;
* :mod:`~repro.store.fsck` — offline verification and repair of all of
  the above (and fabric state), powering ``repro fsck``.

``diff`` and ``fsck`` serve one subcommand each, so this package does
not import them.
"""

from .codec import outcome_from_record, outcome_to_record
from .journal import Journal, JournalError, journal_path
from .store import RunStore, code_fingerprint, request_key
from . import journal

__all__ = [
    "Journal",
    "JournalError",
    "RunStore",
    "code_fingerprint",
    "journal",
    "journal_path",
    "outcome_from_record",
    "outcome_to_record",
    "request_key",
]
