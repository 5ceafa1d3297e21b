"""Fault-injection campaign workload (thin wrapper over the noc layer).

The gate-level failure tests (``tests/test_failure_injection.py``)
break individual links — stuck handshakes, severed wires — and assert
loud failure.  This scenario runs the mesh-scale counterpart: a seeded
campaign degrades a chosen number of directed links (reduced sustained
rate, added latency — the behavioural signature of a marginal or
partially failed serializer chain) via the kernel's per-link parameter
hook, then drives traffic across the damaged mesh.

With the default ``west_first`` adaptive routing the mesh is expected
to *route around* the slow links; the scenario also runs the identical
traffic on a healthy mesh so the reported table shows the latency cost
of the faults directly.  Checks are invariants: degraded links must
slow traffic down, never drop it.

The scenario registers a ``batch`` hook on ``n_faults``: sweep requests
that differ only in the fault count pack into one call, and the group
simulates each distinct mesh once.  The healthy run does not depend on
``n_faults``, so every member shares it, and a member with no fault
sites reuses it as its damaged run — a ``{0, 1, 3, 6}`` group simulates
four networks instead of eight.  Every member's result is identical to
its solo run (``tests/test_scenarios_gals_fault.py`` pins that).

The parameters, checks and table cells it shares with the other NoC
scenarios live in :mod:`.common`; the per-link hook keeps it off the
``mesh-design-space`` point core, whose links are all alike.
"""

from __future__ import annotations

import random
from dataclasses import replace
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..design import Design, MeshDesign
from ..link.behavioral import BehavioralLinkParams, derive_link_params
from ..noc import Topology, run_mesh_point
from ..runner.registry import ParamSpec, scenario
from ..tech.technology import Technology
from .common import (
    CYCLES, FREQ_MHZ, INJECTION_RATE, KIND, MESH_SIZE, SEED,
    ExperimentResult, noc_cells, noc_checks, noc_cost, resolve_tech,
)


def degraded_params(
    base: BehavioralLinkParams,
    rate_factor: float,
    latency_penalty: int,
) -> BehavioralLinkParams:
    """Behavioural parameters of a marginal link: slower and later."""
    return replace(
        base,
        kind=f"{base.kind}-degraded",
        latency_cycles=base.latency_cycles + latency_penalty,
        rate_flits_per_cycle=max(base.rate_flits_per_cycle * rate_factor,
                                 1e-3),
        serial_ceiling_mflits=base.serial_ceiling_mflits * rate_factor,
    )


def pick_faulty_links(
    topology: Topology,
    n_faults: int,
    fault_seed: int,
) -> Set[Tuple[Tuple[int, int], object]]:
    """Deterministically sample ``n_faults`` directed links to degrade."""
    all_links = [(src, port) for src, port, _dst in topology.links()]
    rng = random.Random(fault_seed)
    return set(rng.sample(all_links, min(n_faults, len(all_links))))


def pick_faulty_paths(
    mesh: MeshDesign,
    n_faults: int,
    fault_seed: int,
) -> List[str]:
    """The seeded fault sites as instance paths (``node[y][x].east``)."""
    faulty = pick_faulty_links(mesh.topology, n_faults, fault_seed)
    return sorted(mesh.link_path(src, port) for src, port in faulty)


def parse_fault_paths(raw: str) -> List[str]:
    """Split a comma-separated ``fault_paths`` parameter value."""
    return [p.strip() for p in str(raw).split(",") if p.strip()]


def build_design(
    tech: Optional[Technology] = None,
    mesh_size: int = 4,
    n_faults: int = 3,
    rate_factor: float = 0.5,
    latency_penalty: int = 4,
    kind: str = "I3",
    freq_mhz: float = 300.0,
    fault_seed: int = 13,
    fault_paths: str = "",
    **_ignored,
) -> Design:
    """The campaign's structural view: a mesh tree with the degraded
    links attached at their instance paths (the ``repro inspect
    fault-injection --tree`` payload and the scenario's own wiring)."""
    if not (0.0 < rate_factor <= 1.0):
        raise ValueError(
            f"rate_factor must be in (0, 1], got {rate_factor}"
        )
    if latency_penalty < 0:
        raise ValueError(
            f"latency_penalty must be >= 0, got {latency_penalty}"
        )
    tech = resolve_tech(tech)
    mesh = MeshDesign(Topology(mesh_size, mesh_size))
    n_links = mesh.topology.n_directed_links
    if not (0 <= n_faults <= n_links):
        raise ValueError(
            f"n_faults must be in [0, {n_links}] (the {mesh_size}x"
            f"{mesh_size} mesh's directed links), got {n_faults}"
        )
    base = derive_link_params(tech, kind, freq_mhz)
    slow = degraded_params(base, rate_factor, latency_penalty)
    paths = (
        parse_fault_paths(fault_paths)
        if fault_paths
        else pick_faulty_paths(mesh, n_faults, fault_seed)
    )
    for path in paths:
        mesh.degrade(path, slow)
    mesh.base_params = base
    mesh.fault_paths = paths
    return Design(mesh)


def _batch(tech: Optional[Technology] = None,
           param_sets: Sequence[Dict[str, object]] = ()
           ) -> List[ExperimentResult]:
    """Shared solo/batch core: one result per parameter set, one
    network simulation per distinct mesh across the whole list."""
    runs: Dict[Tuple, Dict[str, float]] = {}
    return [_point(runs, tech, **params) for params in param_sets]


@scenario(
    "fault-injection",
    description=(
        "Fault-injection campaign: seeded set of degraded links "
        "(slower, later); adaptive routing steers around the damage"
    ),
    tags=("noc", "fault", "extension", "sweep"),
    params=(
        MESH_SIZE,
        replace(INJECTION_RATE, default=0.10, sweep=(0.05, 0.10, 0.15)),
        ParamSpec(
            "n_faults", int, 3,
            help="number of degraded directed links",
            sweep=(0, 1, 3, 6),
        ),
        ParamSpec(
            "rate_factor", float, 0.5,
            help="sustained-rate multiplier of a degraded link (0, 1]",
        ),
        ParamSpec(
            "latency_penalty", int, 4,
            help="extra delivery latency of a degraded link, cycles",
        ),
        ParamSpec(
            "routing", str, "west_first",
            help="routing mode (west_first adapts around slow links)",
            choices=("xy", "west_first"),
        ),
        KIND,
        FREQ_MHZ,
        CYCLES,
        SEED,
        ParamSpec("fault_seed", int, 13,
                  help="seed of the fault-site sampler"),
        ParamSpec(
            "fault_paths", str, "",
            help="explicit fault sites as comma-separated instance "
                 "paths (node[y][x].east,...); overrides the seeded "
                 "sampler",
        ),
    ),
    fast_params={"cycles": 200},
    design=build_design,
    batch=_batch,
    batch_axis="n_faults",
    # a group runs serially in one worker; 4 holds the default n_faults
    # sweep, and a larger group saves one healthy run per group it
    # absorbs at the cost of longer serial items
    batch_lanes=4,
    cost=noc_cost,
)
def run(tech: Optional[Technology] = None, **params) -> ExperimentResult:
    """One campaign point; parameters and defaults as :func:`_point`."""
    return _batch(tech, [params])[0]


def _point(
    runs: Dict[Tuple, Dict[str, float]],
    tech: Optional[Technology] = None,
    mesh_size: int = 4,
    injection_rate: float = 0.10,
    n_faults: int = 3,
    rate_factor: float = 0.5,
    latency_penalty: int = 4,
    routing: str = "west_first",
    kind: str = "I3",
    freq_mhz: float = 300.0,
    cycles: int = 800,
    seed: int = 2008,
    fault_seed: int = 13,
    fault_paths: str = "",
) -> ExperimentResult:
    # the structural view owns the fault sites (build_design resolves
    # tech and validates n_faults/rate_factor/latency_penalty for both
    # entry points): links are addressed by instance path and the
    # kernel hook reads the tree
    mesh = build_design(
        tech=tech, mesh_size=mesh_size, n_faults=n_faults,
        rate_factor=rate_factor, latency_penalty=latency_penalty,
        kind=kind, freq_mhz=freq_mhz, fault_seed=fault_seed,
        fault_paths=fault_paths,
    ).top
    faulty = mesh.fault_paths
    # ``runs`` holds one simulation per distinct mesh, keyed by every
    # parameter that shapes the network and its traffic, then by the
    # fault-site set: empty for the healthy mesh, which a point without
    # sites (not merely n_faults == 0: fault_paths overrides the
    # sampler) reuses as its damaged run
    mesh_key = (mesh_size, kind, freq_mhz, rate_factor, latency_penalty,
                injection_rate, cycles, seed, routing)

    def simulate(sites, **hook) -> Dict[str, float]:
        key = (mesh_key, frozenset(sites))
        if key not in runs:
            runs[key] = run_mesh_point(
                mesh.topology, mesh.base_params, **hook,
                injection_rate=injection_rate, cycles=cycles, seed=seed,
                routing=routing,
            )
        return runs[key]

    healthy = simulate(())
    damaged = simulate(faulty, link_params_for=mesh.link_params_for())
    return ExperimentResult(
        experiment_id="Fault-injection campaign",
        description=(
            f"{mesh_size}x{mesh_size} mesh, {kind} links, "
            f"{len(faulty)} degraded link(s) "
            f"(rate x{rate_factor:g}, +{latency_penalty} cycles), "
            f"{routing} routing at {injection_rate} flit/node/cycle"
            + (f"; fault sites: {', '.join(faulty)}" if faulty else "")
        ),
        headers=(
            "mesh", "link", "routing", "faulty links",
            "offered (flit/node/cyc)", "accepted", "mean lat (cyc)",
            "p99 lat (cyc)",
        ),
        rows=[
            [f"{mesh_size}x{mesh_size}", link, routing, count,
             injection_rate, *noc_cells(point)]
            for link, point, count in (
                (kind, healthy, 0),
                (f"{kind} (damaged)", damaged, len(faulty)),
            )
        ],
        checks=noc_checks(
            damaged,
            "flit conservation on the damaged mesh",
            "traffic delivered through the damage (packets >= 1)",
        ) + noc_checks(healthy, "healthy mesh conserves flits too", None),
    )
