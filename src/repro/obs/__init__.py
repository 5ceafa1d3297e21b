"""Unified observability layer.

Four pieces, layered so that each backend pays nothing when the layer
is off and nobody above it needs to know which kernel ran:

* :mod:`repro.obs.metrics` — the process-wide metrics registry
  (counters, gauges, fixed-bucket histograms).  Disabled by
  default; every instrumentation site in the kernels guards on a
  single attribute check (``if REGISTRY.enabled:``), so the hot paths
  of all three backends are untouched until somebody opts in.
* :mod:`repro.obs.telemetry` — the structured JSONL telemetry stream a
  sweep appends beside its journal, plus the ``telemetry.json``
  end-of-run snapshot.  Same torn-tail recovery discipline as the
  sweep journal.
* :mod:`repro.obs.progress` — the ``cs/upd.py``-style live single-line
  sweep status (done/total, rate, ETA, failures), degrading to
  periodic log lines when stdout is not a TTY.
* :mod:`repro.obs.analyze` — ``repro telemetry <dir>``: summarize a
  sweep's stream (slowest points, failure clusters, store-hit ratio,
  kernel counter rollups) with JSON/CSV export.  Only that subcommand
  needs it, so this package does not import it.
"""

from .metrics import (  # noqa: F401
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    REGISTRY,
    collecting,
    disable,
    enable,
    snapshot_delta,
)
from .telemetry import (  # noqa: F401
    STREAM_FILENAME,
    SNAPSHOT_FILENAME,
    TelemetryError,
    TelemetryWriter,
    read_stream,
    recover_stream,
    stream_path,
    snapshot_path,
    write_snapshot,
)
from .progress import SweepProgress  # noqa: F401
