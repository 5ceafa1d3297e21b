"""Wires-versus-bandwidth model (Fig 10 of the paper).

A synchronous link moving ``width``-bit flits at clock ``f`` needs
``width × B / f`` data wires to sustain a bandwidth of ``B`` flits/s:
at 300 MFlit/s the 32-bit link needs 32 wires at a 300 MHz clock but 96
wires at 100 MHz.  The proposed asynchronous serial link always uses
``slice_width`` data wires regardless of the switch clock, up to its
serial ceiling (~304 MFlit/s for the calibrated constants; the paper
quotes ~311 — see :mod:`repro.analysis.timing`).

The paper's Fig 10 counts *data* wires only (32 for I1, 8 for I3); the
handshake pair adds two more in either scheme and can be included with
``count_control=True``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

from ..tech.technology import Technology
from .timing import per_word_cycle_delay, scaled_word_timings


@dataclass(frozen=True)
class WireCountPoint:
    """One point of the Fig 10 curves."""

    bandwidth_mflits: float
    wires: Optional[int]  # None = the link cannot reach this bandwidth


def sync_wires_needed(
    bandwidth_mflits: float,
    clock_mhz: float,
    flit_width: int = 32,
    count_control: bool = False,
) -> int:
    """Data wires a synchronous link needs for ``bandwidth_mflits``.

    The data path must be a whole multiple of... nothing, actually: the
    paper's curves are the ideal ``width × B / f`` rounded up to the next
    integer wire.
    """
    if bandwidth_mflits <= 0 or clock_mhz <= 0:
        raise ValueError("bandwidth and clock must be positive")
    wires = math.ceil(flit_width * bandwidth_mflits / clock_mhz)
    return wires + (2 if count_control else 0)


def async_wires_needed(
    bandwidth_mflits: float,
    tech: Technology,
    slice_width: int = 8,
    n_buffers: int = 4,
    flit_width: int = 32,
    count_control: bool = False,
) -> Optional[int]:
    """Wires the proposed serial link needs, or None beyond its ceiling."""
    if bandwidth_mflits <= 0:
        raise ValueError("bandwidth must be positive")
    n_slices = flit_width // slice_width
    timings = scaled_word_timings(tech.handshake, n_slices)
    ceiling = per_word_cycle_delay(timings, n_slices, n_buffers).mflits
    if bandwidth_mflits > ceiling:
        return None
    return slice_width + (2 if count_control else 0)


def fig10_series(
    tech: Technology,
    bandwidths_mflits: Sequence[float] = tuple(range(100, 351, 25)),
    sync_clocks_mhz: Sequence[float] = (100.0, 200.0, 300.0),
    flit_width: int = 32,
    slice_width: int = 8,
    n_buffers: int = 4,
) -> dict[str, list[WireCountPoint]]:
    """All Fig 10 curves: one per synchronous clock plus the async link."""
    series: dict[str, list[WireCountPoint]] = {}
    for clk in sync_clocks_mhz:
        label = f"I1-Synch@{clk:.0f}"
        series[label] = [
            WireCountPoint(b, sync_wires_needed(b, clk, flit_width))
            for b in bandwidths_mflits
        ]
    series["I3-Async (proposed)"] = [
        WireCountPoint(
            b,
            async_wires_needed(b, tech, slice_width, n_buffers, flit_width),
        )
        for b in bandwidths_mflits
    ]
    return series


# ----------------------------------------------------------------------
# tree-walking wire inventory (hierarchy API)
# ----------------------------------------------------------------------
def link_wire_count_from_tree(link) -> int:
    """Physical switch-to-switch wires, read off the instance tree.

    The serial links carry ``slice_width`` data wires plus the
    request/valid + acknowledge pair; the synchronous pipeline carries
    the full flit width.  Counted from the built structure (the
    serializer's narrow output channel) rather than from the config —
    pins against ``LinkInstance.wire_count``.
    """
    from ..link.serializer import Serializer
    from ..link.sync_link import SyncPipelineLink
    from ..link.word_level import WordSerializer

    for _path, comp in link.walk():
        if isinstance(comp, (Serializer, WordSerializer)):
            return comp.out_ch.width + 2
        if isinstance(comp, SyncPipelineLink):
            return comp.width
    raise ValueError(
        f"no serializer or pipeline found under {link.name!r}: "
        "not a built link tree"
    )

