"""Power models reproducing Figs 12–14.

Two complementary estimates:

**Analytical** — per-component linear models in clock frequency and link
usage, with coefficients calibrated in :mod:`repro.tech.st012` against
every power number the paper publishes.  This regenerates the absolute
µW values of Figs 12–14.

**Activity-based** — the event-driven link simulation counts transitions
on every net, grouped by component.  Absolute watts cannot come out of a
behavioural simulation (the paper's numbers came from transistor-level
Spectre runs), so this path reports *switched activity* (cap-weighted
transitions per flit) and is used to verify the paper's shape claims:

* I1 buffer activity grows linearly with the buffer count; I2/I3 do not;
* I2's latching wire buffers switch an order of magnitude more than
  I3's inverter repeaters (the 82 µW vs 9 µW effect);
* the I3 shift-register de-serializer clocks all its registers on every
  slice, unlike I2's one-latch-per-slice design.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence

from ..sim.clock import Clock
from ..sim.kernel import Simulator
from ..tech.technology import Technology
from ..link.assemblies import LinkConfig, build_link
from ..link.testbench import WORST_CASE_PATTERN, LinkTestbench

#: Fig 14 legend categories
COMPONENT_CATEGORIES = ("Ser/Des", "Buffers", "Asynch Synch Conv.")


def _component(static: float, per_mhz: float, data_per_mhz: float,
               freq_mhz: float, usage: float) -> float:
    """P = static + per_mhz·f + usage·data_per_mhz·f  (µW)."""
    return static + per_mhz * freq_mhz + usage * data_per_mhz * freq_mhz


def power_breakdown(
    tech: Technology,
    kind: str,
    n_buffers: int = 4,
    freq_mhz: float = 100.0,
    usage: float = 0.5,
) -> Dict[str, float]:
    """Per-category power (µW) of one link — the Fig 14 bars."""
    if not (0.0 <= usage <= 1.0):
        raise ValueError(f"usage must be within [0, 1], got {usage}")
    if n_buffers < 1:
        raise ValueError(f"n_buffers must be >= 1, got {n_buffers}")
    p = tech.power
    kind = kind.upper()
    if kind == "I1":
        per_stage = _component(
            p.sync_buf_static, p.sync_buf_per_mhz, p.sync_buf_data_per_mhz,
            freq_mhz, usage,
        )
        return {
            "Ser/Des": 0.0,
            "Buffers": n_buffers * per_stage,
            "Asynch Synch Conv.": 0.0,
        }
    if kind == "I2":
        serdes = _component(p.serdes_i2_static, 0.0, p.serdes_i2_data_per_mhz,
                            freq_mhz, usage)
        per_buf = _component(p.async_buf_i2_static, 0.0,
                             p.async_buf_i2_data_per_mhz, freq_mhz, usage)
    elif kind == "I3":
        serdes = _component(p.serdes_i3_static, 0.0, p.serdes_i3_data_per_mhz,
                            freq_mhz, usage)
        per_buf = _component(p.async_buf_i3_static, 0.0,
                             p.async_buf_i3_data_per_mhz, freq_mhz, usage)
    else:
        raise ValueError(f"unknown link kind {kind!r}")
    conv = _component(p.conv_static, p.conv_per_mhz, p.conv_data_per_mhz,
                      freq_mhz, usage)
    return {
        "Ser/Des": serdes,
        "Buffers": n_buffers * per_buf,
        "Asynch Synch Conv.": conv,
    }


def link_power_uw(
    tech: Technology,
    kind: str,
    n_buffers: int = 4,
    freq_mhz: float = 100.0,
    usage: float = 0.5,
) -> float:
    """Total link power in µW (the Fig 12/13 curves)."""
    return sum(power_breakdown(tech, kind, n_buffers, freq_mhz, usage).values())


def buffer_sweep(
    tech: Technology,
    freq_mhz: float,
    buffer_counts: Sequence[int] = (2, 4, 6, 8),
    usage: float = 0.5,
) -> Dict[str, list[tuple[int, float]]]:
    """Power-vs-buffers curves for all three links (Fig 12 / Fig 13)."""
    curves: Dict[str, list[tuple[int, float]]] = {}
    for kind, label in (("I1", "I1-Synch"), ("I2", "I2-Asynch"),
                        ("I3", "I3-Asynch")):
        curves[label] = [
            (n, link_power_uw(tech, kind, n, freq_mhz, usage))
            for n in buffer_counts
        ]
    return curves


def power_saving_percent(tech: Technology, n_buffers: int = 8,
                         freq_mhz: float = 300.0, usage: float = 0.5) -> float:
    """The headline number: I3 saving over I1 (paper: 65 % at 8/300)."""
    sync = link_power_uw(tech, "I1", n_buffers, freq_mhz, usage)
    asyn = link_power_uw(tech, "I3", n_buffers, freq_mhz, usage)
    return 100.0 * (sync - asyn) / sync


# ----------------------------------------------------------------------
# activity-based (simulation) estimate
# ----------------------------------------------------------------------
@dataclass
class ActivityReport:
    """Switched activity of one simulated link run, grouped by component."""

    kind: str
    n_buffers: int
    freq_mhz: float
    flits: int
    #: cap-weighted transitions per group over the run
    switched_by_group: Dict[str, float]
    #: plain transition counts per group
    transitions_by_group: Dict[str, int]

    def per_flit(self, group: str) -> float:
        """Cap-weighted transitions per delivered flit for ``group``."""
        if self.flits == 0:
            return 0.0
        return self.switched_by_group.get(group, 0.0) / self.flits


def measure_link_activity(
    kind: str,
    n_buffers: int = 4,
    freq_mhz: float = 100.0,
    n_flits: int = 32,
    tech: Optional[Technology] = None,
    config: Optional[LinkConfig] = None,
    pattern: Sequence[int] = WORST_CASE_PATTERN,
) -> ActivityReport:
    """Run a gate-level link and report per-component switched activity.

    The flit pattern defaults to the paper's worst-case alternating
    0xA5A5A5A5 / 0x5A5A5A5A stream.
    """
    from ..tech.st012 import st012

    tech = tech or st012()
    config = config or LinkConfig(n_buffers=n_buffers)
    sim = Simulator()
    clock = Clock.from_mhz(sim, freq_mhz)
    link = build_link(sim, clock.signal, kind, config, tech)
    link.monitor.snapshot()
    bench = LinkTestbench(sim, clock, link)
    flits = [pattern[i % len(pattern)] for i in range(n_flits)]
    bench.run(flits, timeout_ns=1e7)
    switched = {
        group: link.monitor.switched_energy_fj(
            group, tech.power.energy_per_transition_fj
        )
        for group in link.monitor.groups
    }
    transitions = {
        group: link.monitor.transitions(group) for group in link.monitor.groups
    }
    return ActivityReport(
        kind=link.kind,
        n_buffers=config.n_buffers,
        freq_mhz=freq_mhz,
        flits=n_flits,
        switched_by_group=switched,
        transitions_by_group=transitions,
    )


# ----------------------------------------------------------------------
# tree-walking activity (hierarchy API)
# ----------------------------------------------------------------------
def activity_by_instance(
    root,
    sim,
    energy_per_transition_fj: float = 1.0,
) -> list:
    """Per-instance switched activity, walking the design tree.

    Returns pre-order rows ``(path, depth, class_name, n_nets,
    transitions, switched_fj)`` where the counts cover the nets each
    instance *itself* created (children report their own).  Testbench
    nets owned by no instance are appended under path ``""``.
    """
    from ..design.design import Design

    def tally(nets):
        transitions = sum(sig.rising + sig.falling for sig in nets)
        switched = sum(
            (sig.rising + sig.falling) * sig.cap_ff
            * energy_per_transition_fj
            for sig in nets
        )
        return transitions, switched

    design = Design(root, sim)
    grouped = design.nets_by_instance()
    rows = []
    for path, comp in root.walk():
        nets = grouped.pop(path, [])
        transitions, switched = tally(nets)
        rows.append((
            path, comp.tree_depth, type(comp).__name__,
            len(nets), transitions, switched,
        ))
    leftovers = [sig for nets in grouped.values() for sig in nets]
    if leftovers:
        transitions, switched = tally(leftovers)
        rows.append(
            ("", 0, "-", len(leftovers), transitions, switched)
        )
    return rows
