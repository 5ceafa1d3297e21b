"""Link testbench: drive flits through a link and measure it.

The testbench reproduces the paper's measurement setup (Section V):

* the transmitting switch offers a flit stream (the paper's worst-case
  pattern alternates 0xA5A5A5A5 / 0x5A5A5A5A so every data wire toggles
  on every flit);
* the receiving switch consumes flits, optionally with backpressure;
* throughput is measured as delivered flits over the active window,
  *link usage* as the fraction of time at least one buffer holds a flit
  (the paper's definition of "in use"), and per-flit latency from
  acceptance to delivery.

The source/sink processes speak the synchronous port protocol shared by
all three link builds: data+valid held until the link's accepted counter
advances; valid flits sampled on rising clock edges.

A run ends at its last delivery: the sink stops the kernel in the event
where it has seen every flit, so no idle clock edge after the
measurement is simulated.  The kernel is left stopped there, with the
clocks' and gates' future events still queued.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Generator, Optional, Sequence

from ..design.component import Component
from ..sim.clock import Clock
from ..sim.kernel import Simulator
from ..sim.process import Delay, RisingEdge, spawn
from .assemblies import LinkInstance

#: the paper's worst-case data-activity pattern
WORST_CASE_PATTERN = (0xA5A5A5A5, 0x5A5A5A5A, 0xA5A5A5A5, 0x5A5A5A5A)


@dataclass
class LinkMeasurement:
    """Results of one testbench run."""

    flits_sent: int = 0
    flits_received: int = 0
    received_values: list[int] = field(default_factory=list)
    #: time the first flit was accepted by the link, ps
    first_accept_ps: int = 0
    #: time the last flit was delivered, ps
    last_delivery_ps: int = 0
    #: per-flit delivery timestamps, ps
    delivery_times_ps: list[int] = field(default_factory=list)
    #: per-flit acceptance timestamps, ps
    accept_times_ps: list[int] = field(default_factory=list)

    @property
    def throughput_mflits(self) -> float:
        """Delivered flits per second, in MFlit/s.

        Measured steady-state: the window opens at the *first delivery*
        (not first acceptance) so pipeline fill latency does not dilute
        the rate, and covers the remaining ``n-1`` inter-flit intervals.
        """
        if self.flits_received < 2:
            return 0.0
        window_ps = self.delivery_times_ps[-1] - self.delivery_times_ps[0]
        if window_ps <= 0:
            return 0.0
        return (self.flits_received - 1) / window_ps * 1e6

    @property
    def mean_latency_ns(self) -> float:
        """Mean acceptance-to-delivery latency per flit, ns."""
        n = min(len(self.accept_times_ps), len(self.delivery_times_ps))
        if n == 0:
            return 0.0
        total = sum(
            self.delivery_times_ps[i] - self.accept_times_ps[i]
            for i in range(n)
        )
        return total / n / 1000.0


class LinkTestbench(Component):
    """Attach a source and sink to a built link and run measurements.

    ``rx_clock`` supports GALS links whose receiving switch runs from a
    different clock: the sink then samples on that clock while the
    source keeps pacing itself from ``clock``.

    The bench roots the link's instance tree (when the link is not
    already part of one), so path probing works from the measurement
    harness: ``Design(bench).find("i3.s2a.stall")``.
    """

    def __init__(
        self,
        sim: Simulator,
        clock: Clock,
        link: LinkInstance,
        rx_clock: Optional[Clock] = None,
        name: str = "tb",
    ) -> None:
        Component.__init__(self, name)
        if link.parent is None:
            self.adopt(link, leaf=link.name)
        self.sim = sim
        self.clock = clock
        self.rx_clock = rx_clock if rx_clock is not None else clock
        self.link = link
        self.measurement = LinkMeasurement()
        self._done = False

    # ------------------------------------------------------------------
    def _source(self, flits: Sequence[int]) -> Generator:
        link = self.link
        m = self.measurement
        for value in flits:
            link.flit_in.set(value)
            link.valid_in.set(1)
            accepted_before = link.flits_accepted()
            while link.flits_accepted() == accepted_before:
                yield RisingEdge(self.clock.signal)
                yield Delay(1)  # let same-edge bookkeeping settle
            m.accept_times_ps.append(self.sim.now)
            if m.flits_sent == 0:
                m.first_accept_ps = self.sim.now
            m.flits_sent += 1
        link.valid_in.set(0)

    def _sink(self, expected: int, stall_pattern: Optional[Sequence[int]] = None
              ) -> Generator:
        link = self.link
        m = self.measurement
        cycle = 0
        # sample after the output registers' clock-to-Q has settled but
        # comfortably before the next edge
        sample_delay = max(2, min(120, self.rx_clock.half_period - 1))
        while m.flits_received < expected:
            yield RisingEdge(self.rx_clock.signal)
            if stall_pattern is not None:
                stall = stall_pattern[cycle % len(stall_pattern)]
                link.stall_in.set(stall)
            cycle += 1
            yield Delay(sample_delay)
            delivered = link.flits_delivered()
            while m.flits_received < delivered:
                m.flits_received += 1
                m.delivery_times_ps.append(self.sim.now)
                m.received_values.append(link.flit_out.value)
                m.last_delivery_ps = self.sim.now
        link.stall_in.set(0)
        self._done = True
        self.sim.stop()

    # ------------------------------------------------------------------
    def run(
        self,
        flits: Sequence[int],
        timeout_ns: float = 100_000.0,
        stall_pattern: Optional[Sequence[int]] = None,
        max_events: int = 20_000_000,
    ) -> LinkMeasurement:
        """Send ``flits`` through the link; return the measurement.

        The run ends at the last delivery: ``sim.now`` is then
        ``measurement.last_delivery_ps``, and the kernel is left stopped
        with future events (clock edges, settling gates) still queued.

        Raises ``TimeoutError`` if the sink has not seen every flit by
        ``timeout_ns`` — a deadlocked handshake fails loudly, with
        ``sim.now`` at the horizon.  ``max_events`` budgets the whole
        run (one kernel call); exhausting it raises ``SimulationError``.
        """
        spawn(self.sim, self._source(flits), "tb.source")
        spawn(self.sim, self._sink(len(flits), stall_pattern), "tb.sink")
        horizon = self.sim.now + round(timeout_ns * 1000)
        self.sim.run(until=horizon, max_events=max_events)
        if not self._done:
            raise TimeoutError(
                f"link {self.link.kind}: sink saw "
                f"{self.measurement.flits_received}/{len(flits)} flits "
                f"after {timeout_ns} ns"
            )
        return self.measurement


def measure_throughput(
    sim: Simulator,
    clock: Clock,
    link: LinkInstance,
    n_flits: int = 32,
    pattern: Sequence[int] = WORST_CASE_PATTERN,
    timeout_ns: float = 1_000_000.0,
) -> LinkMeasurement:
    """Convenience wrapper: stream ``n_flits`` of ``pattern`` and measure."""
    flits = [pattern[i % len(pattern)] for i in range(n_flits)]
    bench = LinkTestbench(sim, clock, link)
    return bench.run(flits, timeout_ns=timeout_ns)
