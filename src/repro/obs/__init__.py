"""Unified observability layer.

Three pieces, layered so that each backend pays nothing when the layer
is off and nobody above it needs to know which kernel ran:

* :mod:`repro.obs.metrics` — the process-wide metrics registry
  (counters, gauges, fixed-bucket histograms).  Disabled by
  default; every instrumentation site in the kernels guards on a
  single attribute check (``if REGISTRY.enabled:``), so the hot paths
  of all three backends are untouched until somebody opts in.
* :mod:`repro.obs.progress` — the ``cs/upd.py``-style live single-line
  sweep status (done/total, rate, ETA, failures), degrading to
  periodic log lines when stdout is not a TTY.
* :mod:`repro.obs.analyze` — ``repro telemetry <dir>``: summarize a
  run's or sweep's points (slowest points, failure clusters, store-hit
  ratio, kernel counter rollups) with JSON/CSV export, from the
  ``telemetry.json`` snapshot a finished run writes, or else from the
  journal, the one per-point log a sweep appends.  Only that
  subcommand needs it, so this package does not import it.
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
from .progress import SweepProgress  # noqa: F401
