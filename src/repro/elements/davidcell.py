"""David cell and one-hot sequencer (Fig 3 / Figs 4–6 of the paper).

The David cell (R. David, 1977) is a set/reset state element used to
build asynchronous sequencers.  The paper chains David cells into 1-hot
counters that step the FIFO write/read pointers and the serializer's
slice selector: exactly one cell in the chain is active; completing a
handshake passes the token to the next cell, and the newly active cell
clears its predecessor.

Mapping to the paper's Fig 3 symbol:

* ``I1`` → :attr:`DavidCell.set_in` — activates the cell,
* ``I2`` → :attr:`DavidCell.clear_in` — deactivates it,
* ``O2`` → :attr:`DavidCell.q` — the active (token) output,
* ``O1`` → :attr:`DavidCell.q_to_prev` — acknowledge used to clear the
  predecessor (rises one cell delay after the cell activates).

The cell is modelled at protocol level with the technology's
``davidcell`` delay; its internal cross-coupled x/y nodes are not
expanded: the reproduction abstracts circuits to the level the paper's
figures describe, and a gate-level cell is not needed for any of them.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from ..design.component import Component
from ..sim.kernel import Simulator
from ..sim.signal import Signal
from ..tech.technology import GateDelays


class DavidCell(Component):
    """Set/clear token cell with David-cell delay semantics."""

    def __init__(
        self,
        sim: Simulator,
        set_in: Signal,
        clear_in: Signal,
        init_active: bool = False,
        delays: Optional[GateDelays] = None,
        name: str = "dc",
    ) -> None:
        Component.__init__(self, name)
        self.sim = sim
        self.name = name
        self.set_in = set_in
        self.clear_in = clear_in
        self.delay = (delays or GateDelays()).davidcell
        init = 1 if init_active else 0
        self.q = sim.signal(f"{name}.q", init=init)
        self.q_to_prev = sim.signal(f"{name}.o1", init=init)
        set_in.on_change(self._on_set)
        clear_in.on_change(self._on_clear)
        self.expose("set", set_in, "in")
        self.expose("clear", clear_in, "in")
        self.expose("q", self.q, "out")
        self.expose("o1", self.q_to_prev, "out")

    def _on_set(self, sig: Signal) -> None:
        # set dominates only on its rising edge while the cell is clear
        if sig._value and not self.clear_in._value:
            self.q.drive(1, self.delay, inertial=True)
            self.q_to_prev.drive(1, self.delay + 1, inertial=True)

    def _on_clear(self, sig: Signal) -> None:
        if sig._value:
            self.q.drive(0, self.delay, inertial=True)
            self.q_to_prev.drive(0, self.delay + 1, inertial=True)


class OneHotSequencer(Component):
    """A ring of David cells forming a 1-hot counter.

    ``sel[i]`` is the token output of cell *i*; at reset the token sits in
    cell 0 (matching "at reset the output O2 of DC(0) is logic 1").  Each
    rising edge of ``advance`` moves the token to the next cell, wrapping
    modulo *n*.  ``on_wrap`` (if given) is called in the delta cycle in
    which the token re-enters cell 0 — the serializer uses this as "whole
    word transferred".

    The token movement is the David-cell protocol: the advance pulse,
    gated by the currently active ``sel``, sets the successor; the
    successor's activation clears the predecessor.
    """

    def __init__(
        self,
        sim: Simulator,
        n: int,
        delays: Optional[GateDelays] = None,
        name: str = "seq",
        on_wrap: Optional[Callable[[], None]] = None,
    ) -> None:
        if n < 2:
            raise ValueError(f"sequencer needs >= 2 cells, got {n}")
        Component.__init__(self, name)
        self.sim = sim
        self.name = name
        self.n = n
        self.delays = delays or GateDelays()
        self.on_wrap = on_wrap
        self.advance = sim.signal(f"{name}.advance")
        self._set_lines = [sim.signal(f"{name}.set{i}") for i in range(n)]
        self._clear_lines = [sim.signal(f"{name}.clr{i}") for i in range(n)]
        self.cells: List[DavidCell] = [
            DavidCell(
                sim,
                self._set_lines[i],
                self._clear_lines[i],
                init_active=(i == 0),
                delays=self.delays,
                name=f"{name}.dc{i}",
            )
            for i in range(n)
        ]
        self.advance.on_change(self._on_advance)
        # successor activation clears predecessor
        for i in range(n):
            self.cells[i].q.on_change(self._make_clear_prev(i))
        for cell in self.cells:
            self.adopt(cell)
        self.expose("advance", self.advance, "in")

    # ------------------------------------------------------------------
    @property
    def sel(self) -> List[Signal]:
        """The one-hot select outputs (``SEL(0:n-1)`` in the paper)."""
        return [cell.q for cell in self.cells]

    @property
    def index(self) -> int:
        """Index of the currently active cell (-1 if token in flight)."""
        active = [i for i, cell in enumerate(self.cells) if cell.q.value]
        return active[0] if len(active) == 1 else -1

    # ------------------------------------------------------------------
    def _on_advance(self, sig: Signal) -> None:
        if not sig._value:
            return
        current = self.index
        if current < 0:
            return  # token still moving; a well-formed handshake waits
        nxt = (current + 1) % self.n
        self._set_lines[nxt].set(1)
        # self-clearing set pulse (the gating AND shapes it in silicon)
        self._set_lines[nxt].drive(0, self.delays.davidcell, inertial=False)
        if nxt == 0 and self.on_wrap is not None:
            wrap_cb = self.on_wrap
            self.sim.schedule(self.delays.davidcell, wrap_cb)

    def _make_clear_prev(self, i: int):
        prev = (i - 1) % self.n

        def clear_prev(sig: Signal) -> None:
            if sig._value:
                self._clear_lines[prev].set(1)
                self._clear_lines[prev].drive(
                    0, self.delays.davidcell, inertial=False
                )

        return clear_prev

    def reset(self) -> None:
        """Force the token back into cell 0 (asynchronous reset)."""
        for i, cell in enumerate(self.cells):
            cell.q.set(1 if i == 0 else 0)
            cell.q_to_prev.set(1 if i == 0 else 0)
