"""A no-op grid point: the dispatch-overhead measuring stick.

``sweep-noop`` computes nothing — one row echoing its grid index —
so sweeping it prices the machinery *around* scenario execution:
engine planning, journal flushes, fabric lease traffic.
The bench sweep suite (``repro bench --suite sweep``) times a grid of
these points through the coordinator and through the bare engine; the
ratio is pure scheduling overhead, uncontaminated by simulation work.

The batch hook packs adjacent points (up to 16 per lease) exactly like
the compiled backend's lane packing, so the fabric's per-item file
traffic amortizes the way a real batched sweep's would.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..runner.registry import ParamSpec, scenario
from .common import ExperimentResult


def _result(point: int) -> ExperimentResult:
    return ExperimentResult(
        experiment_id="sweep-noop",
        description="no-op dispatch-overhead workload",
        headers=("point", "value"),
        rows=[[point, 0]],
        checks=[],
    )


def _batch(tech=None, param_sets: Optional[List[Dict[str, object]]] = None
           ) -> List[ExperimentResult]:
    return [_result(int(p["point"])) for p in (param_sets or [])]


@scenario(
    "sweep-noop",
    description="no-op grid point for scheduling-overhead benchmarks",
    tags=("bench",),
    params=(
        ParamSpec("point", int, 0, help="grid index (the only axis)"),
    ),
    batch=_batch,
    batch_axis="point",
    batch_lanes=16,
)
def run(tech=None, point: int = 0) -> ExperimentResult:
    return _result(point)
