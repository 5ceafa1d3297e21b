"""GALS mixed-clock mesh workload (thin wrapper over the noc layer).

The paper's serialized asynchronous links never clock the wire, so the
two switch domains they join need not share a frequency — the
gate-level GALS tests (``tests/test_gals.py``) drive the links with
independent, even mutually prime, clocks and show lossless in-order
delivery.  This scenario lifts that property to whole-mesh scale using
the behavioural kernel's per-link parameter hook
(``Network(link_params_for=...)``): the mesh is split into a fast west
half and a slow east half.

The behavioural kernel counts *switch cycles*, so the simulation cycle
is pinned to the **fast** domain's clock and every link touching the
slow domain is rescaled by the clock ratio: sustained rate multiplied
by ``slow/fast`` (the slow side accepts at most one flit per slow
cycle) and delivery latency divided by it (the same wall-clock
traversal spans more fast-domain cycles).  Links wholly inside the
fast half keep the plain parameters.  All reported latencies are in
fast-domain cycles.

Checks are invariants (flit conservation, traffic delivered), not paper
numbers: the paper evaluates a single link, this is an extension study
exercising the activity-driven cycle kernel with heterogeneous links.
The parameters, checks and table cells it shares with the other NoC
scenarios live in :mod:`.common`; the per-link hook keeps it off the
``mesh-design-space`` point core, whose links are all alike.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional

from ..design import Design, MeshDesign
from ..link.behavioral import derive_link_params
from ..noc import Topology, run_mesh_point
from ..runner.registry import ParamSpec, scenario
from ..tech.technology import Technology
from .common import (
    CYCLES, INJECTION_RATE, KIND, MESH_SIZE, SEED,
    ExperimentResult, noc_cells, noc_checks, noc_cost, resolve_tech,
)


def build_design(
    tech: Optional[Technology] = None,
    mesh_size: int = 4,
    kind: str = "I3",
    fast_mhz: float = 400.0,
    slow_mhz: float = 200.0,
    **_ignored,
) -> Design:
    """The mixed-clock mesh as a structural tree: every node carries
    its clock-domain label, every link touching the slow domain its
    rescaled behavioural parameters (``repro inspect gals-mesh``)."""
    if fast_mhz <= 0 or slow_mhz <= 0:
        raise ValueError("clock frequencies must be positive")
    tech = resolve_tech(tech)
    mesh = MeshDesign(Topology(mesh_size, mesh_size))
    split_col = mesh_size // 2  # nodes with x < split_col are "fast"
    mesh.assign_domains(
        lambda node: "slow" if node.x >= split_col else "fast"
    )
    base = derive_link_params(tech, kind, fast_mhz)
    # simulation cycle = fast clock; links touching the slow domain run
    # at the clock ratio (never above 1: a "slow" domain faster than
    # the fast one degenerates to a uniform mesh)
    ratio = min(1.0, slow_mhz / fast_mhz)
    slow_params = replace(
        base,
        kind=f"{kind}-gals",
        latency_cycles=max(1, round(base.latency_cycles / ratio)),
        rate_flits_per_cycle=max(
            min(base.rate_flits_per_cycle * ratio, 1.0), 1e-3
        ),
    )
    for link in mesh.links():
        src_domain = mesh.node_at(link.src).domain
        dst_domain = mesh.node_at(link.dst).domain
        if src_domain == "slow" or dst_domain == "slow":
            link.params = slow_params
            link.tag = (
                "cross-domain" if src_domain != dst_domain else "slow"
            )
    mesh.base_params = base
    return Design(mesh)


@scenario(
    "gals-mesh",
    description=(
        "GALS mixed-clock mesh: fast west half, slow east half; links "
        "touching the slow domain are rescaled by the clock ratio"
    ),
    tags=("noc", "gals", "extension", "sweep"),
    params=(
        MESH_SIZE,
        INJECTION_RATE,
        KIND,
        ParamSpec("fast_mhz", float, 400.0,
                  help="clock of the west (fast) domain"),
        ParamSpec("slow_mhz", float, 200.0,
                  help="clock of the east (slow) domain"),
        CYCLES,
        SEED,
    ),
    fast_params={"cycles": 200},
    design=build_design,
    cost=noc_cost,
)
def run(
    tech: Optional[Technology] = None,
    mesh_size: int = 4,
    injection_rate: float = 0.15,
    kind: str = "I3",
    fast_mhz: float = 400.0,
    slow_mhz: float = 200.0,
    cycles: int = 800,
    seed: int = 2008,
) -> ExperimentResult:
    # clock domains are assigned on the structural mesh tree by node
    # path; the kernel's per-link hook reads the tree back
    # (build_design validates the frequencies for both entry points)
    mesh = build_design(
        tech=tech, mesh_size=mesh_size, kind=kind,
        fast_mhz=fast_mhz, slow_mhz=slow_mhz,
    ).top
    point = run_mesh_point(
        mesh.topology,
        mesh.base_params,
        injection_rate=injection_rate,
        cycles=cycles,
        seed=seed,
        link_params_for=mesh.link_params_for(),
    )
    return ExperimentResult(
        experiment_id="GALS mixed-clock mesh",
        description=(
            f"{mesh_size}x{mesh_size} mesh, {kind} links, west domain "
            f"{fast_mhz:.0f} MHz / east domain {slow_mhz:.0f} MHz, "
            f"uniform traffic at {injection_rate} flit/node/cycle"
        ),
        headers=(
            "mesh", "link", "west clk (MHz)", "east clk (MHz)",
            "cross-domain links", "offered (flit/node/cyc)", "accepted",
            "mean lat (fast cyc)", "p99 lat (fast cyc)",
        ),
        rows=[[
            f"{mesh_size}x{mesh_size}",
            kind,
            f"{fast_mhz:.0f}",
            f"{slow_mhz:.0f}",
            len(mesh.cross_domain_links()),
            injection_rate,
            *noc_cells(point),
        ]],
        checks=noc_checks(point),
    )
