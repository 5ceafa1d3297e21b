"""Synchronous wormhole switch (the paper's NoC context).

The paper's links connect "switches of synchronous NoC"; this module
provides that substrate: a 5-port input-buffered wormhole switch with

* XY (dimension-ordered) routing — deadlock-free on a mesh,
* per-output round-robin arbitration,
* wormhole route locking: a head flit claims an output port; body
  flits follow; the tail flit releases it,
* one input FIFO (lane) per port and no virtual channels, as in the
  paper's plain wormhole NoC, so a packet holds its output until its
  tail has left,
* credit-style backpressure: a flit advances only if the downstream
  link accepts it (the links are
  :class:`~repro.link.behavioral.TokenLink` instances whose rate and
  capacity come from the link implementation under study).  The
  switch offers each flit with
  :meth:`~repro.link.behavioral.TokenLink.try_send`, which catches
  the link's rate credit up to the current cycle first, so nothing
  has to accrue credit for the switch's links beforehand.

The switch is cycle-driven: once per clock, after link deliveries
have been drained into the input FIFOs, the network makes one call of
:func:`switch_cycle`, which serves every switch holding flits in
node-id order; :meth:`Switch.arbitrate_and_send` runs the same routine
on one switch.  Per switch the routine loads :attr:`Switch._kernel`,
one tuple of the arbitration state, and per flit it calls only the
out-link's ``try_send`` and, on LOCAL, the ejection hook.  At most one
flit crosses each output per cycle.

Arbitration is decision-identical to the straightforward seed
implementation (kept verbatim in :mod:`repro.noc.reference` and pinned
by ``tests/test_kernel_equivalence.py``) but organised for speed.
Inside the kernel ports are the ints :attr:`Port.index` (N, S, E, W, L
= 0..4): the input lanes are one tuple indexed by port, and the
wormhole owners, the per-lane route locks, round-robin pointers and
out-links are port-indexed lists, so no lookup hashes a
:class:`Port`.

Lane sets are int bitmasks (bit ``lane``, the input port's index).
``_occ`` holds the occupied lanes: whatever appends a flit to a lane
sets its bit (:meth:`accept`, and the network's delivery and injection
phases directly), and the pop that empties a lane clears it.  The
network serves only switches whose mask is non-zero, and
:func:`switch_cycle` drops a switch from the network's active set when
its last flit leaves.

The outputs are served in port order (N, S, E, W, L), and a lane that
advances on one output may advance again on a later one in the same
cycle (its new head wants that output).  One arbitration loop serves
every routing: an up-front pass walks only the set bits of ``_occ``,
routes each head flit once and ORs its lane into one request bitmask
per output, and the output's bit into ``outs``, the bitmask of
outputs with requests; the loop pops the lowest bit of ``outs``, so
it visits only those outputs, still in port order.  When a lane
advances on output ``o`` only its new head is routed, and if it wants
a later output it joins that output's mask and ``outs``.
A lone request (``mask & (mask - 1) == 0``) wins outright; otherwise
round-robin takes the lowest requesting lane at or after the output's
pointer, else the lowest one, which is the seed's first candidate in
cyclic order from the pointer.  For :class:`Switch` — any route that
depends only on ``(current, dest)``, such as XY — this is exact
because an output's wormhole owners only change while that output is
being served, and the switch caches each route by destination.

:class:`WestFirstSwitch` adds one rule for west-first adaptive routing
(:func:`~repro.noc.topology.compile_west_first`) and caches nothing,
since its choices read link occupancy.  A west-first route is either
fixed (W, L, or a pure N, S or E move) or a choice between EAST and
one of NORTH/SOUTH by out-link occupancy; an out-link's occupancy only
changes when its own output sends.  So a route computed at the start
of the cycle still holds when its output is served, except at EAST:
once NORTH or SOUTH has sent, a head that chose it may now prefer
EAST.  Only a *flex* head can flip: one whose destination lies
strictly east and that chose NORTH or SOUTH.  Routing marks each flex
head's lane in the bitmask ``flex``, new heads surfacing after a send
included, and a lane's bit is cleared when its head leaves.  A NORTH
or SOUTH send that leaves a flex lane occupied adds EAST to ``outs``,
even if no lane requested it up front, and before serving EAST the
switch rebuilds EAST's request mask with one walk of the occupied
lanes (:meth:`Switch._requests_for`), skipping EAST if no lane
requests it.  Without a flex head EAST's up-front requests stand:
every other head routes the same after NORTH or SOUTH grew, and EAST's
owner and locks change only while EAST is served.
"""

from __future__ import annotations

from collections import deque
from collections.abc import MutableMapping
from typing import (
    Callable, Deque, Dict, Iterable, Iterator, List, Optional, Sequence, Set,
    Tuple,
)

from .flit import Flit
from .topology import PORTS, Coord, Port

#: signature of the routing function: (current, dest) -> output port
RouteFn = Callable[[Coord, Coord], Port]

_N_PORTS = len(PORTS)
_EAST = Port.EAST.index
_EAST_BIT = 1 << _EAST
_LOCAL = Port.LOCAL.index


class InputQueue:
    """One input lane's FIFO."""

    __slots__ = ("depth", "fifo")

    def __init__(self, depth: int) -> None:
        if depth < 1:
            raise ValueError(f"FIFO depth must be >= 1, got {depth}")
        self.depth = depth
        self.fifo: Deque[Flit] = deque()

    @property
    def full(self) -> bool:
        return len(self.fifo) >= self.depth

    @property
    def empty(self) -> bool:
        return not self.fifo

    def push(self, flit: Flit) -> None:
        if self.full:
            raise RuntimeError("push into full input queue")
        self.fifo.append(flit)

    def head(self) -> Flit:
        return self.fifo[0]

    def pop(self) -> Flit:
        return self.fifo.popleft()


class PortLinks(MutableMapping):
    """A switch's out-links keyed by :class:`Port`.

    The links live in :attr:`slots`, a list indexed by
    :attr:`Port.index` that the arbitration loop reads directly.
    """

    __slots__ = ("slots",)

    def __init__(self) -> None:
        self.slots: List[Optional[object]] = [None] * _N_PORTS

    def __getitem__(self, port: Port) -> object:
        link = self.slots[port.index]
        if link is None:
            raise KeyError(port)
        return link

    def __setitem__(self, port: Port, link: object) -> None:
        self.slots[port.index] = link

    def __delitem__(self, port: Port) -> None:
        self[port]  # KeyError when nothing is attached
        self.slots[port.index] = None

    def __iter__(self) -> Iterator[Port]:
        return (port for port, link in zip(PORTS, self.slots)
                if link is not None)

    def __len__(self) -> int:
        return sum(link is not None for link in self.slots)


def round_robin_bit(mask: int, start: int) -> int:
    """The round-robin winner among the lanes set in ``mask``, as a bit.

    The lowest set bit at or after lane ``start``, else the lowest set
    bit: the lane that minimises ``(lane - start) % n_lanes``, for any
    ``start`` up to ``n_lanes``.
    """
    bit = mask >> start << start or mask
    return bit & -bit


class _RouteCache(dict):
    """``dest -> output index`` for one switch, filled on first use.

    A lookup is one dict subscript; only a miss calls the route
    function.
    """

    __slots__ = ("_route_fn", "_position")

    def __init__(self, route_fn: RouteFn, position: Coord) -> None:
        super().__init__()
        self._route_fn = route_fn
        self._position = position

    def __missing__(self, dest: Coord) -> int:
        out = self[dest] = self._route_fn(self._position, dest).index
        return out


class Switch:
    """A 5-port synchronous wormhole switch, one input lane per port.

    Routes each head flit once per cycle and caches every route by
    destination, which is exact for any route that depends only on
    ``(current, dest)`` (see the module docstring); adaptive west-first
    routing needs :class:`WestFirstSwitch`.
    """

    #: route every head afresh and rebuild EAST's requests when a head
    #: may have flipped to it (:class:`WestFirstSwitch`)
    _adaptive = False

    def __init__(
        self,
        position: Coord,
        route_fn: RouteFn,
        fifo_depth: int = 4,
        name: Optional[str] = None,
    ) -> None:
        self.position = position
        self.route_fn = route_fn
        self.name = name or f"sw{position}"
        #: input FIFOs by port index: lane ``port.index``
        self._lanes: Tuple[InputQueue, ...] = tuple(
            InputQueue(fifo_depth) for _ in range(_N_PORTS)
        )
        #: bit ``lane`` set while that input lane holds flits; set by
        #: whatever appends to a lane (:meth:`accept` and the network's
        #: delivery and injection), cleared by the pop that empties it
        self._occ = 0
        #: input lane owning each output port
        self._owner: List[Optional[int]] = [None] * _N_PORTS
        #: output port locked by each input lane's in-progress packet
        self._lock: List[Optional[int]] = [None] * _N_PORTS
        #: round-robin pointer (over lanes) per output port
        self._rr: List[int] = [0] * _N_PORTS
        #: ``dest -> output index``, or None where routes are adaptive
        self._routes: Optional[_RouteCache] = (
            None if self._adaptive else _RouteCache(route_fn, position)
        )
        #: outgoing links, attached by the network
        self.out_links = PortLinks()
        #: everything :func:`switch_cycle` reads, in one tuple: the lane
        #: FIFOs, owners, locks, round-robin pointers, route cache,
        #: route function, position and out-link slots
        self._kernel = (
            tuple(queue.fifo for queue in self._lanes), self._owner,
            self._lock, self._rr, self._routes, route_fn, position,
            self.out_links.slots,
        )
        # statistics
        self.flits_routed = 0
        self.arbitration_conflicts = 0
        #: outputs won uncontested (single candidate — no round-robin)
        self.arbitration_fast = 0

    # ------------------------------------------------------------------
    @property
    def output_owner(self) -> Dict[Port, Optional[Port]]:
        """Which input port owns each output port's wormhole lock."""
        return {
            PORTS[out]: None if lane is None else PORTS[lane]
            for out, lane in enumerate(self._owner)
        }

    @property
    def input_locks(self) -> Dict[Port, Optional[Port]]:
        """Which output port each input port has locked."""
        return {
            PORTS[lane]: None if out is None else PORTS[out]
            for lane, out in enumerate(self._lock)
        }

    def queue(self, port: Port) -> InputQueue:
        """The input FIFO of ``port``."""
        return self._lanes[port.index]

    def can_accept(self, port: Port) -> bool:
        """Space available on ``port``'s input FIFO?"""
        return not self._lanes[port.index].full

    def accept(self, port: Port, flit: Flit) -> None:
        """Push an arriving flit into ``port``'s input FIFO."""
        lane = port.index
        self._lanes[lane].push(flit)
        self._occ |= 1 << lane

    # ------------------------------------------------------------------
    def arbitrate_and_send(
        self,
        now_cycle: int,
        eject: Callable[[Flit, int], None],
    ) -> int:
        """One cycle of switching for this switch alone: returns the
        number of flits moved.

        ``eject(flit, now_cycle)`` consumes flits whose output is
        LOCAL.  At most one flit advances per output port per cycle;
        round-robin over the input lanes resolves conflicts, and an
        output stays locked to one packet from its head to its tail.
        This is :func:`switch_cycle` over a one-switch list.
        """
        if not self._occ:
            return 0
        return switch_cycle((self,), {0}, now_cycle, eject)

    def _requests_for(self, out: int, occ: int) -> int:
        """The request bitmask of output ``out`` over the lanes in
        ``occ``, every head routed afresh.

        A head flit requests its routed output if no other lane owns
        that output; body and tail flits follow the lock.
        """
        lanes = self._lanes
        owners = self._owner
        locks = self._lock
        route_fn = self.route_fn
        position = self.position
        mask = 0
        while occ:
            bit = occ & -occ
            occ ^= bit
            lane = bit.bit_length() - 1
            flit = lanes[lane].fifo[0]
            if not flit.kind.opens_route:
                if locks[lane] == out:
                    mask |= bit
            elif route_fn(position, flit.dest).index == out:
                owner = owners[out]
                if owner is None or owner == lane:
                    mask |= bit
        return mask

    # ------------------------------------------------------------------
    @property
    def buffered_flits(self) -> int:
        return sum(len(queue.fifo) for queue in self._lanes)


def switch_cycle(
    switches: Sequence[Switch],
    active: Set[int],
    now_cycle: int,
    eject: Callable[[Flit, int], None],
) -> int:
    """One cycle of switching: returns the number of flits moved.

    Serves ``switches[node]`` for every node id in ``active`` (each of
    them holds flits), lowest id first, and drops the nodes whose
    switches drained from ``active``.  ``eject(flit, now_cycle)``
    consumes the flits whose output is LOCAL.  This is the one
    arbitration routine: :meth:`Switch.arbitrate_and_send` runs it on
    a single switch.  Per switch it reads :attr:`Switch._kernel` once
    and, per flit, calls only the out-link's ``try_send`` and
    ``eject``.
    """
    if len(active) == len(switches):
        order: Iterable[int] = range(len(switches))
    else:
        order = sorted(active)
    total = 0
    for node in order:
        switch = switches[node]
        (fifos, owners, locks, rr, routes, route_fn, position,
         out_links) = switch._kernel
        occ = switch._occ
        # every head flit is routed once, up front, into one request
        # bitmask per output, and ``outs`` marks the outputs that have
        # one; only the occupied lanes are visited.  ``flex`` marks the
        # adaptive heads bound strictly east that chose NORTH or SOUTH:
        # only they can flip to EAST within the cycle
        requests = [0, 0, 0, 0, 0]
        outs = flex = 0
        bits = occ
        while bits:
            bit = bits & -bits
            bits ^= bit
            lane = bit.bit_length() - 1
            flit = fifos[lane][0]
            if flit.kind.opens_route:
                if routes is None:
                    dest = flit.dest
                    out = route_fn(position, dest).index
                    if out < _EAST and dest[0] > position[0]:
                        flex |= bit
                else:
                    out = routes[flit.dest]
                owner = owners[out]
                if owner is None or owner == lane:
                    requests[out] |= bit
                    outs |= 1 << out
            else:
                out = locks[lane]
                if out is not None:
                    requests[out] |= bit
                    outs |= 1 << out
        moved = fast = conflicts = 0
        # serve the requested outputs lowest first: N, S, E, W, L
        while outs:
            obit = outs & -outs
            outs ^= obit
            out = obit.bit_length() - 1
            mask = requests[out]
            if out == _EAST and routes is None:
                if moved and flex & occ:
                    # NORTH or SOUTH sent (only they precede EAST), so
                    # a flex head may now prefer EAST
                    mask = switch._requests_for(_EAST, occ)
                if not mask:
                    continue
            if mask & (mask - 1) == 0:
                fast += 1
                bit = mask
            else:
                conflicts += 1
                bit = round_robin_bit(mask, rr[out])
            pick = bit.bit_length() - 1
            fifo = fifos[pick]
            if out != _LOCAL:
                link = out_links[out]
                if link is None:
                    raise RuntimeError(
                        f"{switch.name}: no link attached on {PORTS[out]}"
                    )
                if not link.try_send(fifo[0], now_cycle):
                    continue
            flit = fifo.popleft()
            moved += 1
            # wormhole locks follow the flit that advanced
            kind = flit.kind
            if kind.opens_route:
                owners[out] = pick
                locks[pick] = out
            if kind.closes_route:
                owners[out] = None
                locks[pick] = None
            if out == _LOCAL:
                eject(flit, now_cycle)
            # a pointer past the last lane needs no wrap: no request
            # bit sits at or above it, so the next pick takes the lowest
            rr[out] = pick + 1
            if flex:
                # the lane's head has left; its new head is marked anew
                flex &= ~bit
            if fifo:
                # the new head competes for a later output this cycle;
                # a body or tail follows the lock, which is now ``out``
                # or released
                flit = fifo[0]
                if flit.kind.opens_route:
                    if routes is None:
                        dest = flit.dest
                        later = route_fn(position, dest).index
                        if later < _EAST and dest[0] > position[0]:
                            flex |= bit
                    else:
                        later = routes[flit.dest]
                    if later > out:
                        owner = owners[later]
                        if owner is None or owner == pick:
                            requests[later] |= bit
                            outs |= 1 << later
            else:
                occ ^= bit
            if flex and out < _EAST and flex & occ:
                # serve EAST this cycle, whether or not it had a
                # request up front (see the module docstring)
                outs |= _EAST_BIT
        switch._occ = occ
        if not occ:
            active.discard(node)
        switch.flits_routed += moved
        switch.arbitration_fast += fast
        switch.arbitration_conflicts += conflicts
        total += moved
    return total


class WestFirstSwitch(Switch):
    """A switch for west-first adaptive routing.

    Arbitrates like :class:`Switch` but routes every head afresh (a
    west-first choice reads link occupancy, so no route is cached) and
    rebuilds EAST's requests when NORTH or SOUTH sent in the same cycle
    while a head that chose one of them could prefer EAST, which keeps
    it exact for
    :func:`~repro.noc.topology.compile_west_first` routes (see the
    module docstring).  :class:`~repro.noc.network.Network` uses it for
    ``west_first`` routing.
    """

    _adaptive = True
