"""JSON (de)serialization of engine outcomes.

The store and the sweep journal both persist :class:`RunOutcome`
values; this module is the single round-trip codec they share.  The
encoding is loss-free for everything the artifact writer consumes —
reconstructed outcomes produce byte-identical CSV/JSON artifacts —
which is what makes ``sweep --resume`` safe: a resumed sweep finishes
from journaled outcomes and nobody can tell from the output tree.

Only JSON-native cell values (str/int/float/bool/None) survive
verbatim; anything else is stringified, which is exactly what the CSV
writer would have done to it anyway.

Records also carry *volatile* observability fields — per-point wall
duration, monotonic completion stamp, kernel counter deltas — which
two otherwise identical runs will disagree on.  They are quarantined
in :data:`VOLATILE_FIELDS`: readers tolerate their absence (old
journals load fine), and :func:`strip_volatile` removes them wherever
byte-level determinism is being compared.
"""

from __future__ import annotations

import json
from typing import Dict, Optional

from ..experiments.common import Check, ExperimentResult
from ..runner.engine import RunOutcome, RunRequest

#: bump when the record layout changes incompatibly
RECORD_VERSION = 1

#: additive integrity field on persisted records; readers tolerate its
#: absence (old journals/stores verify as "unchecksummed", not corrupt)
CHECKSUM_FIELD = "sha256"

#: record keys that vary between identical runs (observability
#: side-band); everything else is part of the deterministic contract
VOLATILE_FIELDS = frozenset({"duration_s", "t_mono", "metrics"})

_SCALARS = (str, int, float, bool)


def _cell(value: object) -> object:
    if value is None or isinstance(value, _SCALARS):
        return value
    return str(value)


def result_to_dict(result: Optional[ExperimentResult]) -> Optional[dict]:
    """Encode an experiment result (``None`` passes through)."""
    if result is None:
        return None
    return {
        "experiment_id": result.experiment_id,
        "description": result.description,
        "headers": [_cell(h) for h in result.headers],
        "rows": [[_cell(c) for c in row] for row in result.rows],
        "checks": [
            {
                "name": c.name,
                "measured": c.measured,
                "paper": c.paper,
                "tolerance": c.tolerance,
                "mode": c.mode,
            }
            for c in result.checks
        ],
        "notes": result.notes,
    }


def result_from_dict(data: Optional[dict]) -> Optional[ExperimentResult]:
    if data is None:
        return None
    return ExperimentResult(
        experiment_id=data["experiment_id"],
        description=data["description"],
        headers=tuple(data["headers"]),
        rows=[list(row) for row in data["rows"]],
        checks=[
            Check(
                name=c["name"],
                measured=c["measured"],
                paper=c["paper"],
                tolerance=c["tolerance"],
                mode=c["mode"],
            )
            for c in data["checks"]
        ],
        notes=data.get("notes", ""),
    )


def outcome_to_record(outcome: RunOutcome) -> Dict[str, object]:
    """Encode one outcome (request + result-or-error) as a JSON dict."""
    request = outcome.request
    result = outcome.result
    if result is not None and not isinstance(result, ExperimentResult):
        raise TypeError(
            f"cannot encode result of type {type(result).__name__}; "
            f"scenarios must return ExperimentResult"
        )
    record: Dict[str, object] = {
        "version": RECORD_VERSION,
        "scenario": request.scenario_id,
        "params": [[name, value] for name, value in request.params],
        "fast": request.fast,
        "error": outcome.error,
        "resolved_params": {
            name: _cell(value)
            for name, value in outcome.resolved_params.items()
        },
        "result": result_to_dict(result),
    }
    if outcome.duration_s is not None:
        record["duration_s"] = outcome.duration_s
    if outcome.t_mono is not None:
        record["t_mono"] = outcome.t_mono
    if outcome.metrics:
        record["metrics"] = dict(outcome.metrics)
    return record


def outcome_from_record(record: Dict[str, object]) -> RunOutcome:
    """Rebuild the outcome; the request hashes/compares like the original."""
    request = RunRequest(
        scenario_id=record["scenario"],
        params=tuple(sorted((name, value) for name, value in record["params"])),
        fast=record["fast"],
    )
    return RunOutcome(
        request=request,
        result=result_from_dict(record.get("result")),
        error=record.get("error", ""),
        resolved_params=dict(record.get("resolved_params") or {}),
        # volatile observability fields: absent in old records
        duration_s=record.get("duration_s"),
        t_mono=record.get("t_mono"),
        metrics=dict(record.get("metrics") or {}),
    )


def strip_volatile(record: Dict[str, object]) -> Dict[str, object]:
    """The record minus :data:`VOLATILE_FIELDS` — the deterministic
    part two identical runs must agree on byte-for-byte."""
    return {k: v for k, v in record.items() if k not in VOLATILE_FIELDS}


def integrity_hash(record: Dict[str, object]) -> str:
    """sha256 over the record's deterministic body.

    Volatile fields and the checksum field itself are excluded, so the
    hash is stable across identical reruns and across append/rewrite —
    the same property :func:`strip_volatile` gives byte comparisons.
    """
    import hashlib

    body = {
        k: v
        for k, v in record.items()
        if k != CHECKSUM_FIELD and k not in VOLATILE_FIELDS
    }
    payload = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def attach_hash(record: Dict[str, object]) -> Dict[str, object]:
    """Stamp the record with its integrity hash (mutates and returns)."""
    record[CHECKSUM_FIELD] = integrity_hash(record)
    return record


def verify_hash(record: Dict[str, object]) -> Optional[bool]:
    """``True``/``False`` for a (mis)matching checksum, ``None`` if the
    record predates checksums (absent field: tolerated, not corrupt)."""
    if not isinstance(record, dict):
        return False
    stated = record.get(CHECKSUM_FIELD)
    if stated is None:
        return None
    return stated == integrity_hash(record)
