"""Section V worked example — cycle delay and throughput upper bounds.

The paper evaluates the per-word equation with its measured constants
(Tp = 0, Tinv = 0.011 ns, Tburst ≈ 1.1 ns, Tvalidwordack ≈ 0.7 ns,
Tackout ≈ 1.4 ns), quoting D = 3.21 ns → ≈311 MFlit/s, "which matches
the supported bandwidths shown in Fig 10".  Evaluating the published
formula with the published constants actually yields 3.288 ns →
304 MFlit/s — a 2.4 % arithmetic discrepancy in the original that we
flag rather than hide; both values support the ≥300 MFlit/s claim.

This experiment reports three numbers per link:

* the analytical cycle delay / ceiling from the equations;
* the *simulated* ceiling from the gate-level link driven by an
  overclocked switch (so the serial path, not the clock, limits);
* the delivered throughput behind a 300 MHz switch (the paper's
  headline operating point).

The equations and the Table 1 area model take slice and buffer counts
as parameters.  On the simulate path the structure checks read those
counts off the links just simulated instead (the ``*_from_tree``
walkers), so a builder that drifts from the formulas fails here.
"""

from __future__ import annotations

from typing import Optional, Tuple

from ..sim.clock import Clock
from ..sim.kernel import Simulator
from ..tech.technology import Technology
from ..link.assemblies import LinkConfig, LinkInstance, build_link
from ..link.testbench import measure_throughput
from ..analysis.area import link_area, link_area_from_tree
from ..analysis.timing import (
    link_timing_from_tree,
    per_transfer_cycle_delay,
    per_word_cycle_delay,
)
from ..analysis.wires import async_wires_needed, link_wire_count_from_tree
from ..runner.registry import ParamSpec, scenario
from .common import Check, ExperimentResult, resolve_tech

PAPER_PER_WORD_DELAY_NS = 3.21
PAPER_PER_WORD_CEILING_MFLITS = 311.0
PAPER_OPERATING_MFLITS = 300.0
#: switch clock fast enough that the serial path, not the clock, limits
OVERCLOCK_MHZ = 1000.0


def simulate_link(
    kind: str,
    tech: Technology,
    freq_mhz: float,
    n_buffers: int = 4,
    n_flits: int = 24,
) -> Tuple[float, LinkInstance]:
    """Delivered throughput (MFlit/s) behind a switch at ``freq_mhz``,
    and the gate-level link that delivered it."""
    sim = Simulator()
    clock = Clock.from_mhz(sim, freq_mhz)
    link = build_link(sim, clock.signal, kind,
                      LinkConfig(n_buffers=n_buffers), tech)
    measurement = measure_throughput(sim, clock, link, n_flits=n_flits)
    return measurement.throughput_mflits, link


def simulate_ceiling_mflits(
    kind: str,
    tech: Technology,
    n_buffers: int = 4,
    n_flits: int = 32,
    overclock_mhz: float = OVERCLOCK_MHZ,
) -> float:
    """Gate-level serial ceiling: overclock the switch, measure the link."""
    return simulate_link(kind, tech, overclock_mhz, n_buffers, n_flits)[0]


def build_design(
    tech: Optional[Technology] = None,
    n_buffers: int = 4,
    kind: str = "I3",
    freq_mhz: float = 300.0,
    **_ignored,
):
    """The measured link as an elaborated instance tree — the
    gate-level netlist behind ``repro inspect throughput --tree``."""
    from ..design import link_design

    return link_design(
        kind=kind,
        config=LinkConfig(n_buffers=n_buffers),
        tech=resolve_tech(tech),
        freq_mhz=freq_mhz,
        sim=Simulator(),
    )


@scenario(
    "throughput",
    description="Section V — cycle-delay equations vs gate-level throughput",
    tags=("paper", "section-v", "simulated"),
    design=build_design,
    params=(
        ParamSpec("n_buffers", int, 4),
        ParamSpec("simulate", bool, True,
                  help="cross-check against gate-level runs"),
    ),
    fast_params={"simulate": False},
)
def run(
    tech: Optional[Technology] = None,
    n_buffers: int = 4,
    simulate: bool = True,
) -> ExperimentResult:
    tech = resolve_tech(tech)
    pw = per_word_cycle_delay(tech.handshake, n_buffers=n_buffers)
    pt = per_transfer_cycle_delay(tech.handshake, n_buffers=n_buffers)

    rows: list[list[object]] = [
        ["I2 analytic (per-transfer eqn)", f"{pt.cycle_delay_ns:.3f}",
         f"{pt.mflits:.1f}"],
        ["I3 analytic (per-word eqn)", f"{pw.cycle_delay_ns:.3f}",
         f"{pw.mflits:.1f}"],
    ]
    checks = [
        Check("I3 analytic cycle delay (ns)", pw.cycle_delay_ns,
              PAPER_PER_WORD_DELAY_NS, 0.03),
        Check("I3 analytic ceiling (MFlit/s)", pw.mflits,
              PAPER_PER_WORD_CEILING_MFLITS, 0.03),
    ]

    if simulate:
        sim_i2, link_i2 = simulate_link("I2", tech, OVERCLOCK_MHZ,
                                        n_buffers, n_flits=32)
        sim_i3, link_i3 = simulate_link("I3", tech, OVERCLOCK_MHZ,
                                        n_buffers, n_flits=32)
        at300_i3, _ = simulate_link("I3", tech, 300.0, n_buffers)
        rows.extend(
            [
                ["I2 gate-level ceiling", f"{1e3 / sim_i2:.3f}",
                 f"{sim_i2:.1f}"],
                ["I3 gate-level ceiling", f"{1e3 / sim_i3:.3f}",
                 f"{sim_i3:.1f}"],
                ["I3 behind 300 MHz switch", "-", f"{at300_i3:.1f}"],
            ]
        )
        checks.extend(
            [
                Check("I2 gate-level vs analytic (MFlit/s)", sim_i2,
                      pt.mflits, 0.05),
                Check("I3 gate-level vs analytic (MFlit/s)", sim_i3,
                      pw.mflits, 0.05),
                Check("I3 delivered @300 MHz switch", at300_i3,
                      PAPER_OPERATING_MFLITS, 0.02),
                # exact: the models' counts against the built links' own
                Check("I2 cycle delay: structure vs eqn (ns)",
                      link_timing_from_tree(link_i2, tech).cycle_delay_ns,
                      pt.cycle_delay_ns, 0.0),
                Check("I3 cycle delay: structure vs eqn (ns)",
                      link_timing_from_tree(link_i3, tech).cycle_delay_ns,
                      pw.cycle_delay_ns, 0.0),
                Check("I3 area: structure vs Table 1 (um2)",
                      link_area_from_tree(link_i3, tech).total_um2,
                      link_area(tech, "I3", n_buffers).total_um2, 0.0),
                Check("I3 wires: structure vs wire model",
                      link_wire_count_from_tree(link_i3),
                      async_wires_needed(pw.mflits, tech,
                                         n_buffers=n_buffers,
                                         count_control=True), 0.0),
            ]
        )

    return ExperimentResult(
        experiment_id="Sec V eqns",
        description="Cycle delay and throughput upper bounds",
        headers=("link / model", "cycle delay (ns)", "ceiling (MFlit/s)"),
        rows=rows,
        checks=checks,
        notes=(
            "The paper's 3.21 ns / 311 MFlit/s involves a ~2 % arithmetic "
            "slip; the published formula with the published constants gives "
            "3.288 ns / 304 MFlit/s. Checks use 3 % tolerance to span both."
        ),
    )
