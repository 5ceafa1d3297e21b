"""Flits and packets — the data units of the NoC substrate.

The paper's links carry 32-bit flits between switches; packets are
sequences of flits (head / body / tail) routed by wormhole switching.
Each flit has injection and ejection timestamp slots, which only the
frozen oracle's recorders (:mod:`repro.noc.reference`) fill; the
optimized statistics time packets by their created cycle instead.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, List, Tuple

Coord = Tuple[int, int]

_packet_ids = itertools.count()


class FlitKind(Enum):
    """Position of a flit within its packet.

    ``opens_route`` / ``closes_route`` are plain member attributes
    (assigned right after the class body) rather than properties: the
    switch arbitration loop reads them for every head flit and every
    flit that advances, and a concrete bool avoids a descriptor call
    plus tuple construction on that hot path.
    """

    HEAD = "head"
    BODY = "body"
    TAIL = "tail"
    #: single-flit packet: simultaneously head and tail
    HEAD_TAIL = "head_tail"


FlitKind.HEAD.opens_route = True
FlitKind.BODY.opens_route = False
FlitKind.TAIL.opens_route = False
FlitKind.HEAD_TAIL.opens_route = True

FlitKind.HEAD.closes_route = False
FlitKind.BODY.closes_route = False
FlitKind.TAIL.closes_route = True
FlitKind.HEAD_TAIL.closes_route = True


@dataclass(slots=True)
class Flit:
    """One 32-bit unit travelling the network."""

    packet_id: int
    kind: FlitKind
    src: Coord
    dest: Coord
    seq: int = 0
    payload: int = 0
    injected_cycle: int = -1
    ejected_cycle: int = -1

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Flit(p{self.packet_id}.{self.seq} {self.kind.value} "
            f"{self.src}->{self.dest})"
        )


@dataclass
class Packet:
    """A multi-flit message."""

    src: Coord
    dest: Coord
    length_flits: int
    packet_id: int = field(default_factory=lambda: next(_packet_ids))
    created_cycle: int = 0
    payload_base: int = 0

    def __post_init__(self) -> None:
        if self.length_flits < 1:
            raise ValueError(
                f"packet needs at least one flit, got {self.length_flits}"
            )

    def flits(self) -> List[Flit]:
        """The packet's flits in wire order."""
        packet_id, src, dest = self.packet_id, self.src, self.dest
        base = self.payload_base
        return [
            Flit(packet_id, kind, src, dest, seq,
                 (base + seq) & 0xFFFFFFFF)
            for seq, kind in enumerate(_kinds(self.length_flits))
        ]


#: flit kinds of a packet, in wire order, per packet length
_KINDS: Dict[int, Tuple[FlitKind, ...]] = {1: (FlitKind.HEAD_TAIL,)}


def _kinds(length: int) -> Tuple[FlitKind, ...]:
    kinds = _KINDS.get(length)
    if kinds is None:
        kinds = _KINDS[length] = (
            (FlitKind.HEAD,) + (FlitKind.BODY,) * (length - 2)
            + (FlitKind.TAIL,)
        )
    return kinds


def reset_packet_ids(start: int = 0) -> None:
    """Reset the global packet-id counter (test isolation)."""
    global _packet_ids
    _packet_ids = itertools.count(start)
