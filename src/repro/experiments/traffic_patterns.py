"""Traffic-pattern workloads: hotspot, transpose, bit-complement.

The ``noc.traffic`` generators have supported these standard synthetic
patterns since the seed; these scenarios finally expose them to the
sweep engine, each sweeping injection rate so ``python -m repro sweep
traffic-hotspot`` (etc.) traces an accepted-throughput/latency curve
under the chosen link implementation.

The patterns stress the mesh differently — and therefore stress the
serialized links differently:

* **hotspot** — a fraction of all traffic converges on one node, the
  classic congestion collapse probe;
* **transpose** — (x, y) → (y, x): long diagonal paths, adversarial
  for dimension-ordered (XY) routing;
* **bit-complement** — (x, y) → (cols-1-x, rows-1-y): every packet
  crosses the bisection, the worst case for link bandwidth.

Checks are invariants (flit conservation, traffic actually delivered),
not paper numbers: the paper evaluates a single link, these are
extension studies.

The scenarios register from one table (:data:`PATTERNS`) over the
``mesh-design-space`` point core (:func:`.mesh_design_space.mesh_point`);
the parameters, checks and table cells come from :mod:`.common`.
"""

from __future__ import annotations

from typing import Optional

from ..runner.registry import ParamSpec, scenario
from ..tech.technology import Technology
from .common import (
    CYCLES, FREQ_MHZ, INJECTION_RATE, KIND, MESH_SIZE, SEED,
    ExperimentResult, noc_cells, noc_checks, noc_cost,
)
from .mesh_design_space import describe, mesh_point

#: one scenario per row: id, generator pattern, result title,
#: description and the parameters beyond the shared ones
PATTERNS = (
    (
        "traffic-hotspot", "hotspot", "Hotspot traffic",
        "Hotspot traffic sweep: a fraction of all packets converge on "
        "the mesh centre (congestion probe)",
        (ParamSpec("hotspot_fraction", float, 0.5,
                   help="fraction of traffic aimed at the hotspot node"),),
    ),
    (
        "traffic-transpose", "transpose", "Transpose traffic",
        "Transpose traffic sweep: (x, y) sends to (y, x) — adversarial "
        "for XY routing",
        (),
    ),
    (
        "traffic-bit-complement", "bit_complement", "Bit-complement traffic",
        "Bit-complement traffic sweep: (x, y) sends to "
        "(cols-1-x, rows-1-y) — every packet crosses the bisection",
        (),
    ),
)

HEADERS = (
    "mesh", "link", "pattern", "offered (flit/node/cyc)", "accepted",
    "mean lat (cyc)", "p99 lat (cyc)", "est. link power (mW)",
)


def _register(scenario_id: str, pattern: str, title: str,
              description: str, extra: tuple) -> None:
    @scenario(
        scenario_id,
        description=description,
        tags=("noc", "sweep", "traffic", "extension"),
        params=(MESH_SIZE, INJECTION_RATE, KIND, FREQ_MHZ, CYCLES, SEED)
        + extra,
        fast_params={"cycles": 200},
        cost=noc_cost,
    )
    def run(
        tech: Optional[Technology] = None,
        *,
        mesh_size: int,
        injection_rate: float,
        kind: str,
        freq_mhz: float,
        cycles: int,
        seed: int,
        **pattern_params,
    ) -> ExperimentResult:
        # the registry passes every declared parameter, defaults included
        point, mesh_power_mw = mesh_point(
            tech, mesh_size, kind, freq_mhz,
            injection_rate=injection_rate, cycles=cycles, pattern=pattern,
            seed=seed, **pattern_params,
        )
        return ExperimentResult(
            experiment_id=title,
            description=describe(
                mesh_size, kind, pattern, injection_rate, freq_mhz
            ),
            headers=HEADERS,
            rows=[[
                f"{mesh_size}x{mesh_size}",
                kind,
                pattern,
                injection_rate,
                *noc_cells(point),
                f"{mesh_power_mw:.1f}",
            ]],
            checks=noc_checks(point),
        )


for _row in PATTERNS:
    _register(*_row)
