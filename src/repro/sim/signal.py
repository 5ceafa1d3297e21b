"""Signals and buses: the wires of the simulated circuit.

A :class:`Signal` is a single-bit net with a current value, a set of
listeners (gates, processes, probes) and transition counters used by the
activity-based power model.  Values are plain ints 0/1; circuits are
brought into a defined state by explicit reset sequences, mirroring how
the paper's netlists use NRESET.

Drives can be *inertial* (a newer drive cancels a pending one — the
behaviour of a real gate output, which filters pulses shorter than its
delay) or *transport* (pure delay line — the behaviour of a wire).

Hot-path design (the seed implementation is frozen verbatim in
:mod:`repro.sim.reference`):

* listeners live in a copy-on-write tuple — dispatch iterates it
  directly, with no per-transition snapshot allocation; ``on_change`` /
  ``remove_listener`` rebuild the tuple instead;
* an inertial drive holds at most one pending event per net, applied by
  a bound method created once at construction — superseding it is a true
  kernel-level :meth:`~repro.sim.kernel.Simulator.cancel`, so stale
  drives never execute and never count against event budgets;
* a *no-op* inertial drive — one that, once any pending drive is
  cancelled, drives the value the net already holds, with a delay > 0
  and a maturity time ``W`` in the near band — schedules nothing.  The
  net records a *shadow* instead: ``W``, the cell queued last at ``W``
  (its *anchor*; a vacant placeholder bucket is made if ``W`` has none)
  and an elision ordinal, which together fix the FIFO slot the seed
  kernel's apply would occupy.  A later inertial drive discards the
  shadow, as the seed cancels the drive.  If another writer (``set``, a
  transport apply, ``Bus.set``, ``force``) changes the net first, the
  shadow becomes a real pending apply in that slot, because the seed's
  apply would then restore the old value at ``W``; a change at ``W``
  after the slot ran drops it.  The clocked flag synchronizers re-drive
  every stage on every edge, so about two thirds of the paper run's
  events were such no-ops.  Traces, transition counters and ``now`` stay
  identical to the seed; only event counts differ;
* transport drives reuse two per-net callbacks (``set 0`` / ``set 1``)
  instead of allocating a closure per scheduled edge.

A :class:`Bus` bundles ``width`` signals little-endian (index 0 = LSB) and
provides integer read/write helpers, which keeps the serializer slicing
code close to the paper's ``DIN(15:8)`` notation.  ``set`` runs a single
pass that only pays the ``set`` dispatch for bits that actually change
(checked at visit time, so it is exact); ``drive`` visits every bit but
each visit is allocation-free, and no-op bits leave a shadow.
"""

from __future__ import annotations

from heapq import heappush
from typing import Callable, Iterable, Optional

from .kernel import SimulationError, Simulator

Listener = Callable[["Signal"], None]

#: the cancelled cell that opens a bucket made only to anchor shadows:
#: the run loop skips it for free but still advances ``now`` to its time,
#: as the seed kernel does by executing the elided no-op there
_VACANT = [None]


class Signal:
    """A single-bit net with listeners and activity counters."""

    __slots__ = (
        "sim",
        "name",
        "_value",
        "_listeners",
        "rising",
        "falling",
        "cap_ff",
        "trace",
        "_forced",
        "_pending",
        "_pending_value",
        "_shadow",
        "_apply_cb",
        "_set0_cb",
        "_set1_cb",
    )

    def __init__(
        self,
        sim: Simulator,
        name: str = "sig",
        init: int = 0,
        cap_ff: float = 1.0,
    ) -> None:
        if init not in (0, 1):
            raise ValueError(f"signal init must be 0 or 1, got {init!r}")
        self.sim = sim
        self.name = name
        self._value: int = init
        self._listeners: tuple[Listener, ...] = ()
        #: number of 0→1 transitions observed (power model input)
        self.rising: int = 0
        #: number of 1→0 transitions observed
        self.falling: int = 0
        #: effective switched capacitance in femtofarads (power weight)
        self.cap_ff: float = cap_ff
        #: optional list of (time_ps, value) appended on every change
        self.trace: Optional[list[tuple[int, int]]] = None
        self._forced: bool = False
        #: handle of the one outstanding inertial drive, if any
        self._pending = None
        self._pending_value: int = 0
        #: ``(W, anchor cell, ordinal)`` of an elided no-op inertial
        #: drive, or None (see the module docstring)
        self._shadow: Optional[tuple] = None
        # per-net callbacks, created once so drives allocate nothing
        self._apply_cb = self._apply_pending
        self._set0_cb = self._apply_0
        self._set1_cb = self._apply_1

    # ------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Signal({self.name}={self._value} @t={self.sim.now})"

    @property
    def value(self) -> int:
        """Current logic value (0 or 1)."""
        return self._value

    @property
    def transitions(self) -> int:
        """Total number of transitions (rising + falling)."""
        return self.rising + self.falling

    def reset_activity(self) -> None:
        """Zero the transition counters (start of a measurement window)."""
        self.rising = 0
        self.falling = 0

    def enable_trace(self) -> None:
        """Record (time, value) on every change into ``self.trace``."""
        if self.trace is None:
            self.trace = [(self.sim.now, self._value)]

    # ------------------------------------------------------------------
    # listeners
    # ------------------------------------------------------------------
    def on_change(self, listener: Listener) -> None:
        """Register ``listener(signal)`` to run whenever the value flips."""
        self._listeners = self._listeners + (listener,)

    def remove_listener(self, listener: Listener) -> None:
        current = list(self._listeners)
        current.remove(listener)
        self._listeners = tuple(current)

    # ------------------------------------------------------------------
    # driving
    # ------------------------------------------------------------------
    def force(self, value: int) -> None:
        """Force the net to ``value`` and ignore all drivers until
        :meth:`release` — a stuck-at fault / testbench override, like a
        simulator's ``force`` command.

        The force is atomic: listeners observe :attr:`is_forced` already
        True while being notified of the forced transition, and a
        pending inertial drive maturing during the forced window is
        blocked by the guard in :meth:`_apply_pending` — no driver can
        glitch the net mid-force.  The pending drive itself stays
        queued (matching the seed kernel): if it matures only after
        :meth:`release`, it applies normally.
        """
        self._forced = True
        self._transition(1 if value else 0)

    def release(self) -> None:
        """Remove a :meth:`force`; subsequent drives apply normally."""
        self._forced = False

    @property
    def is_forced(self) -> bool:
        return self._forced

    def _transition(self, value: int) -> None:
        """Apply a normalized value, bypassing the force guard."""
        if value == self._value:
            return
        if self._shadow is not None:
            self._revive_shadow()
        self._value = value
        if value:
            self.rising += 1
        else:
            self.falling += 1
        if self.trace is not None:
            self.trace.append((self.sim._now, value))
        # the tuple is copy-on-write: listeners registered or removed
        # during dispatch rebuild it, leaving this iteration untouched
        for listener in self._listeners:
            listener(self)

    def set(self, value: int) -> None:
        """Apply ``value`` immediately (no delay, still notifies listeners)."""
        if self._forced:
            return
        value = 1 if value else 0
        if value == self._value:
            return
        if self._shadow is not None:
            self._revive_shadow()
        self._value = value
        if value:
            self.rising += 1
        else:
            self.falling += 1
        if self.trace is not None:
            self.trace.append((self.sim._now, value))
        for listener in self._listeners:
            listener(self)

    def drive(self, value: int, delay: int = 0, inertial: bool = True) -> None:
        """Schedule ``value`` onto the net after ``delay`` picoseconds.

        With ``inertial=True`` (gate-output semantics) any previously
        scheduled drive that has not yet matured is cancelled — removed
        from the event queue for good — so a pulse shorter than the gate
        delay never appears on the output.  With ``inertial=False``
        (transport / wire semantics) every scheduled drive matures
        independently.

        An inertial drive of the value the net already holds schedules
        nothing and leaves a shadow instead (see the module docstring).

        The event insert is a manual inline of
        :meth:`~repro.sim.kernel.Simulator.schedule` — a gate netlist
        issues one drive per input edge, so the call overhead is the
        single hottest line of the whole simulator.  Keep it in sync
        with the kernel's scheduler representation.
        """
        sim = self.sim
        if delay < 0:
            raise SimulationError(
                f"cannot schedule {delay} ps into the past at "
                f"t={sim._now}"
            )
        when = sim._now + delay
        if inertial:
            pending = self._pending
            if pending is not None:
                sim.cancel(pending)
                self._pending = None
            if delay == 0:
                self._shadow = None
                self.set(value)
                return
            value = 1 if value else 0
            if value == self._value and when < sim._horizon:
                near = sim._near
                bucket = near.get(when)
                if bucket is None:
                    near[when] = bucket = [1, _VACANT]
                    heappush(sim._times, when)
                elif len(bucket) == 1:
                    near[when] = bucket = [1, bucket]
                # replaces any earlier shadow, as the seed cancels it
                self._shadow = (when, bucket[-1], sim._elided)
                sim._elided += 1
                return
            self._shadow = None
            self._pending_value = value
            cell = [self._apply_cb]
        else:
            cell = [self._set1_cb if value else self._set0_cb]
        if when < sim._horizon:
            near = sim._near
            bucket = near.get(when)
            if bucket is None:
                near[when] = cell
                heappush(sim._times, when)
            elif len(bucket) == 1:
                near[when] = [1, bucket, cell]
            else:
                bucket.append(cell)
        else:
            sim._seq += 1
            heappush(sim._far, (when, sim._seq, cell))
        sim._live += 1
        if inertial:
            self._pending = cell

    def _revive_shadow(self) -> None:
        """Turn the shadow into the pending apply the seed kernel holds.

        Called just before another writer changes the net, so the
        apply re-drives the value the net holds now.  The apply goes
        into the shadow's slot at ``W``: after its anchor and after
        shadows revived there with a smaller ordinal.  If ``W`` is
        past, or is now and the slot has run, the seed's apply already
        ran as a no-op and the shadow is dropped.  Anchor buckets are
        never single-cell (``drive`` promotes them), so they stay in
        place, with their cursor, while they run.
        """
        when, anchor, ordinal = self._shadow
        self._shadow = None
        sim = self.sim
        bucket = sim._near.get(when)
        if bucket is None:
            return
        slot = 1
        end = len(bucket)
        while slot < end and bucket[slot] is not anchor:
            slot += 1
        if slot == end:  # W's bucket already ran and was replaced
            return
        slot += 1
        while slot < end:
            cell = bucket[slot]
            if len(cell) != 3 or cell[1] is not anchor \
                    or cell[2] > ordinal:
                break
            slot += 1
        if slot < bucket[0]:
            return
        # a revived cell carries its anchor and ordinal, so a later
        # revival into the same slot can order itself after it
        cell = [self._apply_cb, anchor, ordinal]
        bucket.insert(slot, cell)
        sim._live += 1
        sim._revived += 1
        self._pending = cell
        self._pending_value = self._value

    def _apply_pending(self) -> None:
        # inlined ``set(self._pending_value)``; the force guard stays —
        # a drive issued *while* forced still schedules its apply.  A
        # net never holds a live pending drive and a shadow at once, so
        # there is no shadow to revive here
        self._pending = None
        if self._forced:
            return
        value = self._pending_value
        if value == self._value:
            return
        self._value = value
        if value:
            self.rising += 1
        else:
            self.falling += 1
        if self.trace is not None:
            self.trace.append((self.sim._now, value))
        for listener in self._listeners:
            listener(self)

    def _apply_0(self) -> None:
        self.set(0)

    def _apply_1(self) -> None:
        self.set(1)

    # convenience aliases ------------------------------------------------
    def pulse(self, width: int, delay: int = 0) -> None:
        """Drive a 0→1→0 pulse of ``width`` ps starting ``delay`` ps from now."""
        self.drive(1, delay, inertial=False)
        self.drive(0, delay + width, inertial=False)


class Bus:
    """A little-endian bundle of :class:`Signal` (index 0 = LSB)."""

    __slots__ = ("sim", "name", "signals", "width")

    def __init__(
        self,
        sim: Simulator,
        width: int,
        name: str = "bus",
        init: int = 0,
        cap_ff: float = 1.0,
    ) -> None:
        if width <= 0:
            raise ValueError(f"bus width must be positive, got {width}")
        if init < 0 or init >= (1 << width):
            raise ValueError(f"init {init} does not fit in {width} bits")
        self.sim = sim
        self.name = name
        self.width = width
        self.signals = [
            Signal(sim, f"{name}[{i}]", init=(init >> i) & 1, cap_ff=cap_ff)
            for i in range(width)
        ]

    @classmethod
    def from_signals(
        cls, sim: Simulator, signals: list["Signal"], name: str = "view"
    ) -> "Bus":
        """A bus *view* over existing signals (no new nets created).

        Used to treat a byte slice of a wide bus as a bus in its own
        right — the paper's ``DIN(15:8)`` feeding a serializer mux.
        """
        if not signals:
            raise ValueError("a bus view needs at least one signal")
        view = cls.__new__(cls)
        view.sim = sim
        view.name = name
        view.width = len(signals)
        view.signals = list(signals)
        return view

    def __len__(self) -> int:
        return self.width

    def __getitem__(self, index: int) -> Signal:
        return self.signals[index]

    def __iter__(self) -> Iterable[Signal]:
        return iter(self.signals)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Bus({self.name}=0x{self.value:0{(self.width + 3) // 4}x})"

    @property
    def value(self) -> int:
        """Current integer value of the bus."""
        total = 0
        for sig in reversed(self.signals):
            total = (total << 1) | sig._value
        return total

    def set(self, value: int) -> None:
        """Apply an integer value immediately to every bit.

        One pass over the bits; bits already at their target value cost
        a slot compare, only changed bits pay the ``set`` dispatch.
        """
        self._check(value)
        for i, sig in enumerate(self.signals):
            bit = (value >> i) & 1
            if sig._value != bit:
                sig.set(bit)

    def drive(self, value: int, delay: int = 0, inertial: bool = True) -> None:
        """Schedule an integer value onto every bit after ``delay`` ps.

        Every bit is driven, including bits already at their target
        value: an inertial drive's apply re-asserts the bit at maturity,
        which matters when another driver (a transport wire, a direct
        ``set``) flips it in the meantime.  An inertial bit already at
        its target schedules nothing but leaves a shadow, exactly as
        :meth:`Signal.drive` does, which keeps that re-assertion.

        The per-bit work is :meth:`Signal.drive` inlined (registers and
        flit pipelines issue a full bus drive per clock edge, so the
        per-bit call overhead is hot); keep it in sync with the kernel's
        scheduler representation.
        """
        self._check(value)
        if delay < 0:
            raise SimulationError(
                f"cannot schedule {delay} ps into the past at "
                f"t={self.sim.now}"
            )
        if delay == 0 and inertial:
            sim = self.sim
            for i, sig in enumerate(self.signals):
                pending = sig._pending
                if pending is not None:
                    sim.cancel(pending)
                    sig._pending = None
                sig._shadow = None
                sig.set((value >> i) & 1)
            return
        sim = self.sim
        when = sim._now + delay
        near_band = when < sim._horizon
        near = sim._near
        # no listener runs during a delayed drive, so W's bucket can be
        # tracked locally across the bits
        bucket = near.get(when) if near_band else None
        elided = sim._elided
        live = 0
        for i, sig in enumerate(self.signals):
            bit = (value >> i) & 1
            if inertial:
                pending = sig._pending
                if pending is not None:
                    sim.cancel(pending)
                    sig._pending = None
                if bit == sig._value and near_band:
                    if bucket is None:
                        near[when] = bucket = [1, _VACANT]
                        heappush(sim._times, when)
                    elif len(bucket) == 1:
                        near[when] = bucket = [1, bucket]
                    sig._shadow = (when, bucket[-1], elided)
                    elided += 1
                    continue
                sig._shadow = None
                sig._pending_value = bit
                cell = [sig._apply_cb]
                sig._pending = cell
            else:
                cell = [sig._set1_cb if bit else sig._set0_cb]
            if not near_band:
                sim._seq += 1
                heappush(sim._far, (when, sim._seq, cell))
            elif bucket is None:
                near[when] = bucket = cell
                heappush(sim._times, when)
            elif len(bucket) == 1:
                near[when] = bucket = [1, bucket, cell]
            else:
                bucket.append(cell)
            live += 1
        sim._live += live
        sim._elided = elided

    def _check(self, value: int) -> None:
        if value < 0 or value >= (1 << self.width):
            raise ValueError(
                f"value {value:#x} does not fit in {self.width}-bit bus "
                f"{self.name!r}"
            )

    def slice(self, low: int, high: int) -> list[Signal]:
        """Signals for bit range ``[low, high]`` inclusive (paper notation

        ``DIN(15:8)`` is ``bus.slice(8, 15)``).
        """
        if not (0 <= low <= high < self.width):
            raise ValueError(
                f"slice [{low}:{high}] out of range for width {self.width}"
            )
        return self.signals[low : high + 1]

    def on_change(self, listener: Listener) -> None:
        """Register ``listener`` on every bit of the bus."""
        for sig in self.signals:
            sig.on_change(listener)

    @property
    def transitions(self) -> int:
        """Total transitions across all bits (power model input)."""
        return sum(sig.rising + sig.falling for sig in self.signals)

    def reset_activity(self) -> None:
        for sig in self.signals:
            sig.reset_activity()
