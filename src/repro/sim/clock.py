"""Clock generation for the synchronous parts of the system.

The paper's switches and the synchronous halves of the domain-crossing
interfaces run from a single slow global clock (CLK A); the whole point
of the proposed link is that *no second, faster clock* is needed.  The
:class:`Clock` here therefore drives exactly one signal, and the power
model charges every clocked storage element to it.
"""

from __future__ import annotations

from .kernel import Simulator, mhz_period_ps
from .signal import Signal


class Clock:
    """A free-running 50 %-duty-cycle clock driving a :class:`Signal`.

    The clock keeps scheduling its own half-period toggles; stop it with
    :meth:`stop` (or just stop running the simulator).
    """

    def __init__(
        self,
        sim: Simulator,
        period_ps: int,
        name: str = "clk",
        start_delay_ps: int = 0,
    ) -> None:
        if period_ps < 2:
            raise ValueError(f"clock period must be >= 2 ps, got {period_ps}")
        self.sim = sim
        self.period_ps = period_ps
        self.half_period = period_ps // 2
        # built through the factory so the clock net follows the kernel
        # the simulator belongs to (optimized or frozen reference)
        self.signal: Signal = sim.signal(name, init=0)
        self.cycles: int = 0
        self._running = True
        # one bound method reused by every toggle (a clock schedules an
        # event per half-period for the whole simulation)
        self._tick_cb = self._tick
        sim.schedule(start_delay_ps, self._tick_cb)

    @classmethod
    def from_mhz(
        cls,
        sim: Simulator,
        freq_mhz: float,
        name: str = "clk",
        start_delay_ps: int = 0,
    ) -> "Clock":
        """Build a clock from a frequency in MHz (e.g. the paper's 100/300)."""
        return cls(sim, mhz_period_ps(freq_mhz), name, start_delay_ps)

    @property
    def freq_mhz(self) -> float:
        """Clock frequency in MHz."""
        return 1e6 / self.period_ps

    def _tick(self) -> None:
        if not self._running:
            return
        signal = self.signal
        if signal.value == 0:
            signal.set(1)
            self.cycles += 1
            self.sim.schedule(self.half_period, self._tick_cb)
        else:
            signal.set(0)
            self.sim.schedule(self.period_ps - self.half_period, self._tick_cb)

    def stop(self) -> None:
        """Freeze the clock at its current level."""
        self._running = False
