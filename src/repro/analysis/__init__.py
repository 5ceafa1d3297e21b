"""Evaluation models: timing, wires, area, power, reporting.

Each module maps to part of the paper's Section V:

* :mod:`repro.analysis.timing` — the per-transfer/per-word cycle-delay
  equations and throughput upper bounds;
* :mod:`repro.analysis.wires` — wires-vs-bandwidth (Fig 10);
* :mod:`repro.analysis.area` — wiring area (Fig 11) and circuit area
  (Tables 1–2);
* :mod:`repro.analysis.power` — analytical power (Figs 12–14) and
  activity-based shape verification;
* :mod:`repro.analysis.report` — the ASCII table/series renderers the
  benchmark harness prints.
"""

from .timing import (
    ThroughputEstimate,
    per_transfer_cycle_delay,
    per_word_cycle_delay,
    scaled_word_timings,
)
from .wires import (
    WireCountPoint,
    async_wires_needed,
    fig10_series,
    sync_wires_needed,
)
from .area import (
    AreaBreakdown,
    fig11_series,
    link_area,
    table1,
    table2,
    wire_area_um2,
)
from .power import (
    COMPONENT_CATEGORIES,
    ActivityReport,
    buffer_sweep,
    link_power_uw,
    measure_link_activity,
    power_breakdown,
    power_saving_percent,
)
from .report import format_table, relative_error

__all__ = [
    "ThroughputEstimate",
    "per_transfer_cycle_delay",
    "per_word_cycle_delay",
    "scaled_word_timings",
    "WireCountPoint",
    "async_wires_needed",
    "fig10_series",
    "sync_wires_needed",
    "AreaBreakdown",
    "fig11_series",
    "link_area",
    "table1",
    "table2",
    "wire_area_um2",
    "COMPONENT_CATEGORIES",
    "ActivityReport",
    "buffer_sweep",
    "link_power_uw",
    "measure_link_activity",
    "power_breakdown",
    "power_saving_percent",
    "format_table",
    "relative_error",
]
