"""Mesh design-space point — system-level payoff of the serialized link.

The paper evaluates one point-to-point link; the question its
introduction poses is what happens to a *whole NoC* when every
inter-switch connection is replaced by the serialized asynchronous
design.  This scenario answers it for one operating point — mesh size ×
injection rate × link kind — and the sweep engine expands the declared
axes into the full design space (``python -m repro sweep
mesh-design-space``): 2×2 … 8×8 meshes at low/nominal/high load.

Each point runs seeded uniform traffic on a ``mesh_size`` ×
``mesh_size`` mesh whose links all use the behavioural parameters of
the chosen implementation (I1 synchronous baseline, I2 per-transfer
ack, I3 per-word ack), drains every in-flight flit, and reports
accepted throughput, packet latency, total wiring and the Fig 12/13
link-power estimate.  The checks are invariants, not paper numbers:
the run must conserve flits and actually deliver traffic.

:func:`mesh_point` is the point core of the NoC scenarios whose links
are all alike: the three ``traffic-*`` scenarios
(:mod:`.traffic_patterns`) run it with their own pattern.  The
parameters, checks and table cells that all six NoC scenarios share
live in :mod:`.common`.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, Optional, Tuple

from ..analysis.power import link_power_uw
from ..link.behavioral import derive_link_params
from ..noc import Topology, run_mesh_point
from ..runner.registry import ParamSpec, scenario
from ..tech.technology import Technology
from .common import (
    CYCLES, FREQ_MHZ, INJECTION_RATE, KIND, MESH_SIZE, SEED,
    ExperimentResult, noc_cells, noc_checks, noc_cost, resolve_tech,
)


def mesh_point(
    tech: Optional[Technology],
    mesh_size: int,
    kind: str,
    freq_mhz: float,
    **traffic,
) -> Tuple[Dict[str, float], float]:
    """One drained run of a ``mesh_size`` x ``mesh_size`` mesh whose
    links are all ``kind`` at ``freq_mhz`` (``traffic`` holds the
    ``run_mesh_point`` keywords).  Returns its metrics and the
    estimated power of all its links, mW."""
    tech = resolve_tech(tech)
    topology = Topology(mesh_size, mesh_size)
    point = run_mesh_point(
        topology, derive_link_params(tech, kind, freq_mhz), **traffic
    )
    link_uw = link_power_uw(tech, kind, 4, freq_mhz, usage=0.5)
    return point, link_uw * topology.n_directed_links / 1000.0


def describe(mesh_size: int, kind: str, pattern: str,
             injection_rate: float, freq_mhz: float) -> str:
    """The result description of a :func:`mesh_point` run."""
    return (
        f"{mesh_size}x{mesh_size} mesh, {kind} links, {pattern} "
        f"traffic at {injection_rate} flit/node/cycle, "
        f"{freq_mhz:.0f} MHz"
    )


@scenario(
    "mesh-design-space",
    description=(
        "Mesh NoC design-space point: size x injection rate x link kind "
        "(throughput, latency, wires, link power)"
    ),
    tags=("noc", "sweep", "extension"),
    params=(
        replace(MESH_SIZE, sweep=MESH_SIZE.choices),
        replace(INJECTION_RATE, sweep=(0.05, 0.15, 0.25)),
        KIND,
        FREQ_MHZ,
        CYCLES,
        ParamSpec("pattern", str, "uniform",
                  choices=("uniform", "transpose", "bit_complement",
                           "hotspot", "neighbor")),
        SEED,
    ),
    cost=noc_cost,
)
def run(
    tech: Optional[Technology] = None,
    mesh_size: int = 4,
    injection_rate: float = 0.15,
    kind: str = "I3",
    freq_mhz: float = 300.0,
    cycles: int = 800,
    pattern: str = "uniform",
    seed: int = 2008,
) -> ExperimentResult:
    point, mesh_power_mw = mesh_point(
        tech, mesh_size, kind, freq_mhz,
        injection_rate=injection_rate, cycles=cycles, pattern=pattern,
        seed=seed,
    )
    return ExperimentResult(
        experiment_id="Mesh design space",
        description=describe(
            mesh_size, kind, pattern, injection_rate, freq_mhz
        ),
        headers=(
            "mesh", "link", "offered (flit/node/cyc)", "accepted",
            "mean lat (cyc)", "p99 lat (cyc)", "total wires",
            "est. link power (mW)",
        ),
        rows=[[
            f"{mesh_size}x{mesh_size}",
            kind,
            injection_rate,
            *noc_cells(point),
            point["total_wires"],
            f"{mesh_power_mw:.1f}",
        ]],
        checks=noc_checks(point),
    )
