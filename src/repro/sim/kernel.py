"""Discrete-event simulation kernel.

The kernel schedules callbacks at integer *picosecond* timestamps and
executes them in time order.  Integer time avoids the float-comparison
nondeterminism that plagues gate-level simulation (two gates with delay
``0.1 + 0.2`` vs ``0.3`` ns must fire in a well-defined order).

Events scheduled for the same timestamp execute in scheduling order
(FIFO), which gives the simulator deterministic delta-cycle semantics:
a zero-delay chain of gate evaluations settles within one timestamp in
the order the updates were produced.

Scheduler design (the seed's flat ``heapq`` of ``(time, seq, callback)``
tuples lives on verbatim in :mod:`repro.sim.reference`):

* **near band** — a calendar of per-timestamp buckets (``dict`` keyed by
  absolute time, each bucket a FIFO list of event cells) plus a small
  heap of the *distinct* occupied timestamps.  Gate-level workloads
  cluster heavily on shared timestamps (delta cycles, equal gate
  delays), so most events cost one dict probe and a list append instead
  of an O(log n) heap push, and a whole delta storm drains with zero
  heap traffic.
* **far band** — events at or beyond the current horizon go to an
  overflow ``heapq``; when the near band drains, the horizon advances
  and due far events migrate into fresh buckets.  Because the horizon
  only grows and far events always lie at/beyond it, FIFO order across
  the boundary is preserved.
* **true cancellation** — :meth:`Simulator.schedule` returns the event's
  mutable cell; :meth:`Simulator.cancel` nulls it in place, so a
  superseded inertial drive never executes, never counts against the
  ``max_events`` livelock budget, and never shows up in
  :attr:`Simulator.pending_events` (which reports *live* events only).
* **no-op elision** — an inertial drive to the value its net already
  holds schedules nothing; the net keeps a *shadow* of the FIFO slot
  the drive would have taken and turns it into a real event only if
  another writer changes the net first (:mod:`repro.sim.signal`).  A
  shadow's timestamp always has a bucket (a placeholder holding one
  cancelled cell if nothing else is queued there), so ``run`` still
  advances ``now`` through it as the seed does by executing the no-op.
  :attr:`Simulator.drives_elided` counts them.

Time unit helpers (`NS`, `PS`, `US`, `MHZ_PERIOD_PS`) are provided so that
user code can speak nanoseconds while the kernel stays integral.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Callable, List, Optional

from ..obs.metrics import REGISTRY as _OBS

#: picoseconds per nanosecond — the kernel's base unit is 1 ps.
PS = 1
NS = 1000
US = 1_000_000
MS = 1_000_000_000


def ns(value: float) -> int:
    """Convert a duration in nanoseconds to integer picoseconds.

    Rounds to the nearest picosecond; raises if the duration is negative.
    """
    if value < 0:
        raise ValueError(f"durations must be non-negative, got {value} ns")
    return round(value * NS)


def mhz_period_ps(freq_mhz: float) -> int:
    """Clock period in picoseconds for a frequency given in MHz.

    >>> mhz_period_ps(100)
    10000
    >>> mhz_period_ps(300)
    3333
    """
    if freq_mhz <= 0:
        raise ValueError(f"frequency must be positive, got {freq_mhz} MHz")
    return round(1e6 / freq_mhz)


class SimulationError(RuntimeError):
    """Raised for kernel-level misuse (scheduling in the past, etc.)."""


#: an event: a one-slot mutable cell holding the callback, or ``None``
#: once executed or cancelled.  The cell doubles as the cancellation
#: handle returned by :meth:`Simulator.schedule`.
EventHandle = List[Optional[Callable[[], None]]]


class Simulator:
    """Event-driven simulator with integer-picosecond resolution.

    ``run`` pops and executes events in (time, scheduling-order) order
    until the queue is empty, an optional time horizon is reached, or an
    event budget is exhausted.  Only *live* events execute or count:
    cancelled cells are skipped for free.

    Components built on the kernel (signals, gates, processes) hold a
    reference to the simulator and use :meth:`schedule` / :meth:`call_at`.
    The factory methods (:meth:`signal`, :meth:`bus`, :meth:`bus_view`,
    :meth:`spawn`) are the construction seam the circuit library builds
    through, which is what lets the same circuits run on the frozen
    seed kernel in :mod:`repro.sim.reference`.
    """

    #: width of the near band, ps.  Delta cycles, gate delays and clock
    #: periods (3.3–10 ns) all land far inside it; only long testbench
    #: timeouts and horizon markers overflow to the far heap.
    NEAR_WINDOW = 1 << 16

    __slots__ = (
        "_near",
        "_times",
        "_far",
        "_horizon",
        "_now",
        "_seq",
        "_live",
        "_cancelled",
        "_elided",
        "_revived",
        "_events_executed",
        "_migrations",
        "_running",
        "_stopped",
        "created_signals",
    )

    def __init__(self) -> None:
        #: near band: absolute time → bucket.  A lone event's cell *is*
        #: the bucket (len 1, the sparse-workload fast path); once a
        #: second event lands on the timestamp the bucket becomes
        #: ``[cursor, cell, cell, ...]`` where ``cursor`` indexes the
        #: next unconsumed cell (an O(1) resume point for ``step`` /
        #: ``stop`` / exceptions).
        self._near: dict[int, list] = {}
        self._times: list[int] = []  # heap of distinct near timestamps
        self._far: list[tuple[int, int, EventHandle]] = []
        self._horizon: int = self.NEAR_WINDOW
        self._now: int = 0
        self._seq: int = 0
        self._live: int = 0
        self._cancelled: int = 0
        #: no-op inertial drives elided (also their FIFO ordinals) and
        #: shadows later revived into real events
        self._elided: int = 0
        self._revived: int = 0
        self._events_executed: int = 0
        self._migrations: int = 0
        self._running: bool = False
        self._stopped: bool = False
        #: every net built through the factory methods, in creation order
        #: (walked by the kernel-equivalence tests and the gate bench)
        self.created_signals: list = []

    # ------------------------------------------------------------------
    # time
    # ------------------------------------------------------------------
    @property
    def now(self) -> int:
        """Current simulation time in picoseconds."""
        return self._now

    @property
    def events_executed(self) -> int:
        """Total number of *live* events executed so far."""
        return self._events_executed

    @property
    def events_cancelled(self) -> int:
        """Total number of events cancelled before execution."""
        return self._cancelled

    @property
    def drives_elided(self) -> int:
        """No-op inertial drives that never became events."""
        return self._elided - self._revived

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    def schedule(self, delay: int,
                 callback: Callable[[], None]) -> EventHandle:
        """Schedule ``callback`` to run ``delay`` picoseconds from now.

        Returns the event's handle, accepted by :meth:`cancel` (used by
        :class:`repro.sim.signal.Signal` for inertial cancellation).
        """
        if delay < 0:
            raise SimulationError(
                f"cannot schedule {delay} ps into the past at t={self._now}"
            )
        when = self._now + delay
        cell: EventHandle = [callback]
        if when < self._horizon:
            bucket = self._near.get(when)
            if bucket is None:
                # a lone event's cell doubles as its bucket (len 1);
                # multi-buckets are [cursor, cell, cell, ...] (len >= 2)
                self._near[when] = cell
                heappush(self._times, when)
            elif len(bucket) == 1:
                self._near[when] = [1, bucket, cell]
            else:
                bucket.append(cell)
        else:
            self._seq += 1
            heappush(self._far, (when, self._seq, cell))
        self._live += 1
        return cell

    def call_at(self, when: int,
                callback: Callable[[], None]) -> EventHandle:
        """Schedule ``callback`` at absolute time ``when`` (picoseconds)."""
        if when < self._now:
            raise SimulationError(
                f"cannot schedule at t={when} ps, current time is {self._now}"
            )
        return self.schedule(when - self._now, callback)

    def cancel(self, handle: Optional[EventHandle]) -> bool:
        """Cancel a scheduled event; it will never execute nor count.

        Returns True if the event was still pending, False if it already
        executed, was already cancelled, or ``handle`` is None.
        """
        if handle is None or handle[0] is None:
            return False
        handle[0] = None
        self._live -= 1
        self._cancelled += 1
        return True

    # ------------------------------------------------------------------
    # internal: far→near migration
    # ------------------------------------------------------------------
    def _refill_near(self) -> None:
        """Advance the horizon past the earliest far event and migrate.

        Called only with an empty near band.  Far events always lie
        at/beyond the current horizon and the horizon only grows, so a
        migrated batch lands in fresh buckets in (time, seq) order —
        global FIFO order is preserved across the band boundary.
        """
        far = self._far
        horizon = far[0][0] + self.NEAR_WINDOW
        near = self._near
        times = self._times
        migrated = 0
        while far and far[0][0] < horizon:
            when, _seq, cell = heappop(far)
            bucket = near.get(when)
            if bucket is None:
                near[when] = cell
                heappush(times, when)
            elif len(bucket) == 1:
                near[when] = [1, bucket, cell]
            else:
                bucket.append(cell)
            migrated += 1
        self._migrations += migrated
        self._horizon = horizon

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def run(
        self,
        until: Optional[int] = None,
        max_events: Optional[int] = None,
    ) -> int:
        """Execute events in time order.

        Parameters
        ----------
        until:
            Absolute stop time in picoseconds.  Events scheduled at
            exactly ``until`` are *not* executed; time is left at
            ``until`` so a subsequent ``run`` continues seamlessly.
        max_events:
            Safety budget; raises :class:`SimulationError` when exceeded
            (a handshake livelock otherwise spins forever).  Cancelled
            events do not count — only work actually executed can trip
            the budget.

        Returns the number of (live) events executed by this call.
        """
        if self._running:
            raise SimulationError("simulator is not reentrant")
        self._running = True
        self._stopped = False
        executed = 0
        # observability: one flag check when disabled; when enabled,
        # remember the plain-int counters so the finally block can hand
        # the registry this call's deltas in bulk (never per event)
        obs_base = None
        if _OBS.enabled:
            obs_base = (self._cancelled, self._migrations, self._live,
                        self._elided, self._revived)
            occupancy = _OBS.histogram(
                "sim.bucket_occupancy", (1, 2, 4, 8, 16, 32)
            )
            for bucket in self._near.values():
                occupancy.observe(
                    1 if len(bucket) == 1 else len(bucket) - 1
                )
        # -1 never equals an incrementing counter: one comparison per
        # event instead of a None check plus a comparison.  A caller's
        # non-positive budget trips on the first event (seed checked
        # ``executed >= max_events`` after incrementing), so it must
        # not collide with the unlimited sentinel.
        if max_events is None:
            budget = -1
        elif max_events < 1:
            budget = 1
        else:
            budget = max_events
        near = self._near
        times = self._times
        far = self._far
        try:
            while True:
                if not times:
                    if not far:
                        if until is not None and until > self._now:
                            self._now = until
                        break
                    if until is not None and far[0][0] >= until:
                        self._now = until
                        break
                    self._refill_near()
                    continue
                when = times[0]
                if until is not None and when >= until:
                    self._now = until
                    break
                bucket = near[when]
                self._now = when
                if len(bucket) == 1:
                    # singleton fast path: the cell is the bucket
                    heappop(times)
                    del near[when]
                    fn = bucket[0]
                    if fn is None:  # cancelled: skip for free
                        continue
                    bucket[0] = None
                    self._live -= 1
                    fn()
                    executed += 1
                    self._events_executed += 1
                    if self._stopped:
                        break
                    if executed == budget:
                        raise SimulationError(
                            f"event budget of {max_events} exhausted at "
                            f"t={self._now} ps — possible livelock"
                        )
                    continue
                i = bucket[0]
                while i < len(bucket):
                    cell = bucket[i]
                    i += 1
                    fn = cell[0]
                    if fn is None:  # cancelled: skip for free
                        continue
                    cell[0] = None
                    bucket[0] = i
                    self._live -= 1
                    fn()
                    executed += 1
                    self._events_executed += 1
                    if self._stopped:
                        break
                    if executed == budget:
                        raise SimulationError(
                            f"event budget of {max_events} exhausted at "
                            f"t={self._now} ps — possible livelock"
                        )
                bucket[0] = i
                if i >= len(bucket):
                    heappop(times)
                    del near[when]
                if self._stopped:
                    break
        finally:
            self._running = False
            if obs_base is not None and _OBS.enabled:
                cancelled0, migrations0, live0, elided0, revived0 = obs_base
                cancelled_d = self._cancelled - cancelled0
                revived_d = self._revived - revived0
                _OBS.counter("sim.events_executed").inc(executed)
                _OBS.counter("sim.events_cancelled").inc(cancelled_d)
                # everything scheduled while running either executed,
                # was cancelled, or is still live — no hot counter needed
                _OBS.counter("sim.events_scheduled").inc(
                    executed + cancelled_d + (self._live - live0)
                )
                _OBS.counter("sim.drives_elided").inc(
                    self._elided - elided0 - revived_d
                )
                _OBS.counter("sim.shadows_revived").inc(revived_d)
                _OBS.counter("sim.band_migrations").inc(
                    self._migrations - migrations0
                )
                _OBS.gauge("sim.near_buckets").set(len(self._near))
                _OBS.gauge("sim.far_events").set(len(self._far))
                _OBS.gauge("sim.pending_events").set(self._live)
        return executed

    def run_ns(self, until_ns: float, max_events: Optional[int] = None) -> int:
        """Like :meth:`run` with the horizon given in nanoseconds."""
        return self.run(until=ns(until_ns), max_events=max_events)

    def stop(self) -> None:
        """Stop the current :meth:`run` after the in-flight event."""
        self._stopped = True

    def step(self) -> bool:
        """Execute exactly one live event.  False if none are queued.

        A step is a one-event :meth:`run`: it honours the same
        reentrancy guard (a callback may not call ``step``/``run`` on
        its own simulator) and resets the :meth:`stop` flag on entry.
        """
        if self._running:
            raise SimulationError("simulator is not reentrant")
        near = self._near
        times = self._times
        far = self._far
        while True:
            if not times:
                if not far:
                    return False
                self._refill_near()
                continue
            when = times[0]
            bucket = near[when]
            if len(bucket) == 1:
                heappop(times)
                del near[when]
                if bucket[0] is None:
                    # time advances through discarded cancelled events,
                    # exactly as run() advances through dead buckets
                    self._now = when
                    continue
                cell = bucket
            else:
                i = bucket[0]
                cell = None
                while i < len(bucket):
                    candidate = bucket[i]
                    i += 1
                    if candidate[0] is not None:
                        cell = candidate
                        break
                bucket[0] = i
                if cell is None:
                    heappop(times)
                    del near[when]
                    self._now = when
                    continue
            self._running = True
            self._stopped = False
            try:
                self._now = when
                fn = cell[0]
                cell[0] = None
                self._live -= 1
                fn()
                self._events_executed += 1
            finally:
                self._running = False
            return True

    @property
    def pending_events(self) -> int:
        """Number of live (non-cancelled) events currently queued."""
        return self._live

    def drain(self, max_events: int = 1_000_000) -> int:
        """Run until the event queue is empty (bounded by ``max_events``)."""
        return self.run(until=None, max_events=max_events)

    # ------------------------------------------------------------------
    # construction factories
    # ------------------------------------------------------------------
    # The circuit library (repro.elements / repro.link) creates all of
    # its internal nets and processes through these, so the same circuit
    # code builds cleanly on either this kernel or the frozen seed one
    # (repro.sim.reference implements the same four methods).
    def signal(self, name: str = "sig", init: int = 0, cap_ff: float = 1.0):
        """Create a :class:`~repro.sim.signal.Signal` on this simulator."""
        from .signal import Signal

        sig = Signal(self, name, init, cap_ff)
        self.created_signals.append(sig)
        return sig

    def bus(self, width: int, name: str = "bus", init: int = 0,
            cap_ff: float = 1.0):
        """Create a :class:`~repro.sim.signal.Bus` on this simulator."""
        from .signal import Bus

        made = Bus(self, width, name, init, cap_ff)
        self.created_signals.extend(made.signals)
        return made

    def bus_view(self, signals, name: str = "view"):
        """A bus view over existing signals (no new nets created)."""
        from .signal import Bus

        return Bus.from_signals(self, signals, name)

    def spawn(self, gen, name: str = "proc"):
        """Start a generator as a process; it first runs at current time."""
        from .process import Process

        proc = Process(self, gen, name)
        self.schedule(0, proc._resume_cb)
        return proc
