"""Token-level behavioural link models for NoC-scale simulation.

The gate-level assemblies in :mod:`repro.link.assemblies` are the ground
truth, but simulating a 4×4 mesh with gate-level links would burn
millions of events per microsecond.  :class:`BehavioralLinkParams`
captures what a switch-to-switch link looks like from the outside:

* ``latency_cycles`` — acceptance-to-delivery latency of one flit in
  switch clock cycles (pipeline fill for I1; domain crossing + serial
  transfer for I2/I3);
* ``rate_flits_per_cycle`` — sustained throughput cap (1.0 for I1; the
  serial ceiling divided by the clock rate for I2/I3, saturating at 1);
* ``capacity_flits`` — tokens in flight (the paper's 8: two 4-deep
  interface FIFOs; for I1, one per pipeline buffer);
* ``wire_count`` — physical wires, for the cost reporting.

Parameters are *derived from the same technology constants* as the
gate-level circuits, and the derivation is cross-checked against
gate-level measurements in the integration tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Tuple

from ..tech.technology import Technology
from .assemblies import LinkConfig


@dataclass(frozen=True)
class BehavioralLinkParams:
    """Externally observable behaviour of one link implementation."""

    kind: str
    latency_cycles: int
    rate_flits_per_cycle: float
    capacity_flits: int
    wire_count: int
    serial_ceiling_mflits: float

    def __post_init__(self) -> None:
        if self.latency_cycles < 1:
            raise ValueError("latency must be at least one cycle")
        if not (0.0 < self.rate_flits_per_cycle <= 1.0):
            raise ValueError("rate must be in (0, 1] flits/cycle")
        if self.capacity_flits < 1:
            raise ValueError("capacity must be positive")


def derive_link_params(
    tech: Technology,
    kind: str,
    freq_mhz: float,
    config: Optional[LinkConfig] = None,
) -> BehavioralLinkParams:
    """Compute behavioural parameters for ``kind`` at ``freq_mhz``.

    Latency accounting (cross-checked against gate-level runs):

    * I1 — one cycle per pipeline buffer plus the output register.
    * I2/I3 — one cycle to enter the synch→asynch FIFO, the serial
      cycle delay of one word, and 2.5 cycles for the two-flip-flop
      synchronizer plus read-out on the receiving side.
    """
    from ..analysis.timing import (
        per_transfer_cycle_delay,
        per_word_cycle_delay,
    )

    config = config or LinkConfig()
    kind = kind.upper()
    period_ns = 1e3 / freq_mhz
    n_slices = config.width // config.slice_width

    if kind == "I1":
        return BehavioralLinkParams(
            kind="I1",
            latency_cycles=config.n_buffers + 1,
            rate_flits_per_cycle=1.0,
            capacity_flits=config.n_buffers,
            wire_count=config.width,
            serial_ceiling_mflits=freq_mhz,
        )

    if kind == "I2":
        est = per_transfer_cycle_delay(
            tech.handshake, n_slices, config.n_buffers
        )
    elif kind == "I3":
        est = per_word_cycle_delay(
            tech.handshake, n_slices, config.n_buffers,
            config.inverters_per_station,
        )
    else:
        raise ValueError(f"unknown link kind {kind!r}")

    serial_ns = est.cycle_delay_ns
    latency_ns = period_ns + serial_ns + 2.5 * period_ns
    latency_cycles = max(1, round(latency_ns / period_ns))
    rate = min(1.0, (1e3 / serial_ns) / freq_mhz)
    return BehavioralLinkParams(
        kind=kind,
        latency_cycles=latency_cycles,
        rate_flits_per_cycle=rate,
        capacity_flits=2 * config.fifo_depth,
        wire_count=config.slice_width + 2,
        serial_ceiling_mflits=est.mflits,
    )


class TokenLink:
    """Cycle-driven FIFO link used by the NoC simulator.

    Flits enter with :meth:`try_send` (respecting rate and capacity) and
    sit in ``_in_flight`` as ``(ready_cycle, flit)`` pairs, each ready
    ``latency_cycles`` after its send; the network's delivery phase
    moves a ready head into the downstream input lane when that lane
    has space, and undelivered flits apply backpressure through the
    capacity bound.

    Credit accrual is *batchable*: per-cycle accrual clamps at
    ``1.0 + rate``, so an idle link's credit is a pure function of how
    many cycles have elapsed since its last send, and it saturates after
    at most ``ceil(cap / rate)`` steps.  Credit is read only when a flit
    is offered, so the network accrues nothing per cycle:
    :meth:`try_send` at cycle ``now`` first replays the missing
    per-cycle ``min(credit + rate, cap)`` updates through ``now`` (the
    same float operations in the same order, so results stay
    bit-identical to accruing every cycle), stopping early once the
    clamp is reached.  ``_accruals`` is the number of per-cycle accruals
    applied since construction (the cycle the credit is caught up to)
    and ``_accrual_batches`` the :meth:`try_send` calls that caught up
    any.

    Inside a :class:`~repro.noc.network.Network` a link also carries its
    delivery ``target`` and the network's timing ``wheel``: a send that
    makes an idle link busy files the link under the cycle its flit
    matures, so the network never visits a link between deliveries.
    """

    def __init__(self, params: BehavioralLinkParams, name: str = "link") -> None:
        self.params = params
        self.name = name
        self._in_flight: list[tuple[int, object]] = []  # (ready_cycle, flit)
        self._rate_credit = 0.0
        self._rate = params.rate_flits_per_cycle
        self._credit_cap = 1.0 + self._rate
        self._capacity = params.capacity_flits
        self._latency = params.latency_cycles
        self._accruals = 0
        self._accrual_batches = 0
        self.flits_sent = 0
        self.flits_delivered = 0
        #: the network's timing wheel (cycle -> links whose head flit
        #: matures then), or None for a standalone link
        self.wheel: Optional[Dict[int, List["TokenLink"]]] = None
        #: where a delivered flit goes, set by the network: (the
        #: downstream input lane's FIFO, its switch, the switch's node
        #: id, the lane's bit)
        self.target: Optional[Tuple[Deque[object], object, int, int]] = None

    def try_send(self, flit: object, now_cycle: int) -> bool:
        """Accept a flit if the link has rate credit and space.

        The credit is first caught up through ``now_cycle``: the skipped
        per-cycle ``min(credit + rate, cap)`` updates are replayed with
        the same float operations in the same order, so the credit is
        the float that accrual cycle by cycle gives, and the replay
        stops once the credit clamps at the cap.  Nothing is replayed
        when the cycles are already applied (a second offer in one
        cycle).
        """
        credit = self._rate_credit
        done = self._accruals
        if now_cycle >= done:
            self._accrual_batches += 1
            cap = self._credit_cap
            if credit != cap:
                rate = self._rate
                steps = now_cycle + 1 - done
                while steps and credit != cap:
                    # min(credit + rate, cap), without the builtin's call
                    credit += rate
                    if credit > cap:
                        credit = cap
                    steps -= 1
                self._rate_credit = credit
            self._accruals = now_cycle + 1
        # rate credit and space: the switch calls this once per grant
        in_flight = self._in_flight
        if credit < 1.0 or len(in_flight) >= self._capacity:
            return False
        self._rate_credit = credit - 1.0
        ready = now_cycle + self._latency
        if not in_flight and self.wheel is not None:
            # idle -> busy: file the link under its head's maturity
            bucket = self.wheel.get(ready)
            if bucket is None:
                self.wheel[ready] = [self]
            else:
                bucket.append(self)
        in_flight.append((ready, flit))
        self.flits_sent += 1
        return True

    @property
    def occupancy(self) -> int:
        return len(self._in_flight)
