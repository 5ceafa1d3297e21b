"""Analytical delay/throughput models (Section V of the paper).

The paper closes its evaluation with two cycle-delay equations that
upper-bound the serial links' throughput:

per-transfer (I2, Fig 15)::

    D = n_slices * (n_tp * Tp + Treqreq + Treqack + Tackack + Tackout)
        + Tnextflit

per-word (I3, Fig 16)::

    D = n_segments_roundtrip * Tp + n_inverters * Tinv
        + Tvalidwordack + Tackout + Tburst

With the paper's measured constants (Tp = 0, Tinv = 0.011 ns,
Tburst ≈ 1.1 ns, Tvalidwordack ≈ 0.7 ns, Tackout ≈ 1.4 ns) the per-word
delay evaluates to ≈3.29 ns → ≈304 MFlit/s.  The paper quotes 3.21 ns /
≈311 MFlit/s from the same inputs — a ~2 % arithmetic discrepancy in the
original; we reproduce the formula faithfully and document the gap in
EXPERIMENTS.md.  Both round to the "~300 MFlit/s at a 300 MHz switch
clock" headline.

The segment/inverter counts generalize with the buffer count ``k``:
forward path ``k+1`` segments with ``2k`` repeater inverters, acknowledge
return ``k+1`` segments — for the paper's ``k = 4``: 10 Tp and 8 Tinv,
matching the published equation.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..tech.technology import HandshakeTimings, Technology


@dataclass(frozen=True)
class ThroughputEstimate:
    """Result of an analytical link-delay evaluation."""

    cycle_delay_ps: float
    #: upper-bound throughput in MFlit/s
    mflits: float

    @property
    def cycle_delay_ns(self) -> float:
        return self.cycle_delay_ps / 1000.0


def per_transfer_cycle_delay(
    timings: HandshakeTimings,
    n_slices: int = 4,
    n_buffers: int = 4,
) -> ThroughputEstimate:
    """I2 cycle delay: every slice pays a full request/acknowledge cycle.

    ``n_buffers`` sets the wire-segment count per slice (the paper's
    four-buffer link has four Tp terms inside the parenthesis).
    """
    if n_slices < 1 or n_buffers < 1:
        raise ValueError(
            f"counts must be >= 1: n_slices={n_slices}, n_buffers={n_buffers}"
        )
    per_slice = (
        n_buffers * timings.t_p_per_segment
        + timings.t_reqreq
        + timings.t_reqack
        + timings.t_ackack
        + timings.t_ackout_i2
    )
    delay = n_slices * per_slice + timings.t_nextflit
    return ThroughputEstimate(delay, 1e6 / delay)


def scaled_word_timings(
    timings: HandshakeTimings, n_slices: int, reference_slices: int = 4
) -> HandshakeTimings:
    """Rescale the burst period for a different serialization ratio.

    The calibrated ``t_burst`` covers ``reference_slices`` slice launches
    (the paper's 32→8 configuration); changing the slice width changes
    the number of launches per word while the per-slice interval — set by
    the ring oscillator — stays fixed.
    """
    from dataclasses import replace

    if n_slices < 1:
        raise ValueError(f"n_slices must be >= 1, got {n_slices}")
    per_slice = timings.t_burst // reference_slices
    return replace(timings, t_burst=per_slice * n_slices)


def per_word_cycle_delay(
    timings: HandshakeTimings,
    n_slices: int = 4,
    n_buffers: int = 4,
    inverters_per_station: int = 2,
) -> ThroughputEstimate:
    """I3 cycle delay: one burst plus one word-level ack round trip."""
    if n_slices < 1 or n_buffers < 1:
        raise ValueError(
            f"counts must be >= 1: n_slices={n_slices}, n_buffers={n_buffers}"
        )
    n_segments_roundtrip = 2 * (n_buffers + 1)
    n_inverters = inverters_per_station * n_buffers
    delay = (
        n_segments_roundtrip * timings.t_p_per_segment
        + n_inverters * timings.t_inv
        + timings.t_validwordack
        + timings.t_ackout_i3
        + timings.t_burst
    )
    return ThroughputEstimate(delay, 1e6 / delay)


# ----------------------------------------------------------------------
# tree-walking timing (hierarchy API)
# ----------------------------------------------------------------------
def link_timing_from_tree(link, tech: Technology) -> ThroughputEstimate:
    """Cycle-delay estimate with every count read off the built tree.

    The analytical models take slice and buffer counts as parameters;
    here they are *derived from the structure* — how many wire-buffer
    stages / repeater stations the link actually instantiated, and the
    serializer's real slicing factor — so the estimate can never drift
    from the netlist.  The synchronous link has no serial cycle delay
    and raises ``ValueError``.
    """
    from ..elements.fourphase import WireBufferStage
    from ..link.serializer import Serializer
    from ..link.wiring import RepeatedWireBus
    from ..link.word_level import WordSerializer

    serializer = word_serializer = None
    n_wire_buffers = n_stations = 0
    inverters_per_station = 2
    for _path, comp in link.walk():
        if isinstance(comp, Serializer):
            serializer = comp
        elif isinstance(comp, WordSerializer):
            word_serializer = comp
        elif isinstance(comp, WireBufferStage):
            n_wire_buffers += 1
        elif isinstance(comp, RepeatedWireBus):
            n_stations += 1
            inverters_per_station = comp.n_inverters
    if word_serializer is not None:
        timings = scaled_word_timings(
            tech.handshake, word_serializer.n_slices
        )
        return per_word_cycle_delay(
            timings,
            n_slices=word_serializer.n_slices,
            n_buffers=max(1, n_stations),
            inverters_per_station=inverters_per_station,
        )
    if serializer is not None:
        return per_transfer_cycle_delay(
            tech.handshake,
            n_slices=serializer.n_slices,
            n_buffers=max(1, n_wire_buffers),
        )
    raise ValueError(
        f"{getattr(link, 'name', link)!r} has no serializer: the "
        "synchronous link is clock-bound, one flit per switch clock"
    )
