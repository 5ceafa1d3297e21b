"""CSV + JSON artifact output for engine outcomes.

Layout under the output directory::

    <out>/
      summary.json                         # machine-readable index
      <scenario>/<point>.rows.csv          # the result table
      <scenario>/<point>.checks.csv        # paper-vs-measured checks

``<point>`` encodes the request's parameter overrides (``default`` when
none).  Content is fully deterministic — no timestamps, host names or
durations — so a ``--jobs 4`` sweep is byte-identical to ``--jobs 1``
and artifact diffs are meaningful in CI.
"""

from __future__ import annotations

import json
import re
from pathlib import Path
from typing import Sequence, Union

from .engine import RunOutcome

_UNSAFE = re.compile(r"[^A-Za-z0-9._=+-]+")


def point_slug(outcome: RunOutcome) -> str:
    """Filesystem-safe name for one grid point's parameter overrides.

    Sanitizing is lossy (``"a b"`` and ``"a-b"`` both read ``a-b``),
    so a short hash of the *unsanitized* parameters is appended —
    distinct points can never share artifact files.  The hash is
    content-derived, making slugs stable across processes and runs.
    """
    params = outcome.request.params
    if not params:
        return "default"
    import hashlib

    parts = [f"{name}={value}" for name, value in params]
    digest = hashlib.sha256(repr(params).encode()).hexdigest()[:8]
    return f"{_UNSAFE.sub('-', '_'.join(parts))}-{digest}"


def _check_record(check) -> dict:
    return {
        "name": check.name,
        "measured": check.measured,
        "paper": check.paper,
        "tolerance": check.tolerance,
        "mode": check.mode,
        "error": check.error,
        "ok": check.ok,
    }


def write_artifacts(
    outcomes: Sequence[RunOutcome],
    out_dir: Union[str, Path],
) -> Path:
    """Write every outcome's tables plus a ``summary.json`` index.

    Returns the summary path.  Failed outcomes appear in the summary
    with their captured traceback and produce no CSV files.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    records = []
    for outcome in outcomes:
        request = outcome.request
        slug = point_slug(outcome)
        record = {
            "scenario": request.scenario_id,
            "point": slug,
            "params": {name: value for name, value in request.params},
            "fast": request.fast,
            "ok": outcome.ok,
        }
        if outcome.error:
            record["error"] = outcome.error
        else:
            result = outcome.result
            scenario_dir = out / request.scenario_id
            scenario_dir.mkdir(parents=True, exist_ok=True)
            rows_path = scenario_dir / f"{slug}.rows.csv"
            checks_path = scenario_dir / f"{slug}.checks.csv"
            result.to_csv(rows_path)
            checks_path.write_text(result.checks_csv(), encoding="utf-8")
            record["rows_csv"] = str(rows_path.relative_to(out))
            record["checks_csv"] = str(checks_path.relative_to(out))
            record["checks"] = [_check_record(c) for c in result.checks]
        records.append(record)
    summary_path = out / "summary.json"
    summary_path.write_text(
        json.dumps({"runs": records}, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    return summary_path
