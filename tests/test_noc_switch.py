"""Unit tests for the wormhole switch.

A switch is driven as the network drives it: flits are appended to its
input lanes with their bits set in ``_occ`` (the network's delivery and
injection phases), and one cycle is :func:`switch_cycle` over a
one-switch list.  The frozen :class:`ReferenceSwitch` runs the same
scenarios through its own ``accept`` and ``arbitrate_and_send``.
"""

import random

import pytest

from repro.link.behavioral import BehavioralLinkParams, TokenLink
from repro.noc import (
    Flit, FlitKind, Network, Packet, Port, Switch, Topology, next_hop,
)
from repro.noc.reference import ReferenceSwitch
from repro.noc.switch import WestFirstSwitch, round_robin_bit, switch_cycle
from repro.noc.topology import compile_next_hop, compile_west_first

PARAMS = BehavioralLinkParams("T", 1, 1.0, 8, 10, 300.0)
LINK_PORTS = (Port.NORTH, Port.SOUTH, Port.EAST, Port.WEST)


def attach(sw, links):
    """Attach ``links`` (``{port: link}``) as ``sw``'s out-links."""
    for port, link in links.items():
        if isinstance(sw, ReferenceSwitch):
            sw.out_links[port] = link
        else:
            sw.out_links[port.index] = link
    return links


def accept(sw, port, flit):
    """Append ``flit`` to ``sw``'s input lane on ``port``, as the
    network's delivery and injection phases do."""
    if isinstance(sw, ReferenceSwitch):
        sw.accept(port, flit)
    else:
        sw._lanes[port.index].append(flit)
        sw._occ |= 1 << port.index


def run_cycle(sw, now, eject=lambda flit, cycle: None):
    """One cycle of ``sw`` alone; returns the flits moved."""
    if isinstance(sw, ReferenceSwitch):
        return sw.arbitrate_and_send(now, lambda flit: eject(flit, now))
    return switch_cycle((sw,), {0} if sw._occ else set(), now, eject)


def lane(sw, port):
    """The flits waiting in ``sw``'s input lane on ``port``."""
    if isinstance(sw, ReferenceSwitch):
        return sw.queue(port).fifo
    return sw._lanes[port.index]


def buffered(sw):
    return sum(len(lane(sw, port)) for port in Port)


def make_switch(position=(1, 1), topo=None):
    """An XY switch at ``position`` with a link on every mesh port."""
    topo = topo or Topology(3, 3)
    sw = Switch(position, lambda cur, dest: next_hop(cur, dest, topo))
    links = attach(sw, {port: TokenLink(PARAMS) for port in LINK_PORTS})
    return sw, links


def head(dest, pid=1):
    return Flit(packet_id=pid, kind=FlitKind.HEAD, src=(1, 1), dest=dest)


def body(pid=1, seq=1):
    return Flit(packet_id=pid, kind=FlitKind.BODY, src=(1, 1), dest=(9, 9),
                seq=seq)


def tail(pid=1, seq=2):
    return Flit(packet_id=pid, kind=FlitKind.TAIL, src=(1, 1), dest=(9, 9),
                seq=seq)


class TestSwitchRouting:
    def test_local_ejection(self):
        sw, _links = make_switch(position=(1, 1))
        ejected = []
        accept(sw, Port.WEST, head(dest=(1, 1)))
        run_cycle(sw, 0, lambda f, c: ejected.append(f))
        assert len(ejected) == 1

    def test_forwards_east(self):
        sw, links = make_switch(position=(1, 1))
        accept(sw, Port.LOCAL, head(dest=(2, 1)))
        run_cycle(sw, 0)
        assert links[Port.EAST].flits_sent == 1

    def test_xy_goes_x_first(self):
        sw, links = make_switch(position=(1, 1))
        accept(sw, Port.LOCAL, head(dest=(2, 2)))
        run_cycle(sw, 0)
        assert links[Port.EAST].flits_sent == 1
        assert links[Port.NORTH].flits_sent == 0


class TestWormhole:
    def test_body_follows_head_route(self):
        sw, links = make_switch(position=(1, 1))
        accept(sw, Port.LOCAL, head(dest=(2, 1), pid=7))
        accept(sw, Port.LOCAL, body(pid=7))
        accept(sw, Port.LOCAL, tail(pid=7))
        for cycle in range(3):
            run_cycle(sw, cycle)
        assert links[Port.EAST].flits_sent == 3

    def test_output_locked_against_other_packet(self):
        sw, links = make_switch(position=(1, 1))
        east = links[Port.EAST]
        # cycle 0: packet A's head is the only candidate → locks EAST
        accept(sw, Port.LOCAL, head(dest=(2, 1), pid=1))
        run_cycle(sw, 0)
        assert sw._owner[Port.EAST.index] == Port.LOCAL.index
        # now a competing head arrives while A's body still flows
        accept(sw, Port.LOCAL, body(pid=1))
        accept(sw, Port.WEST, head(dest=(2, 1), pid=2))
        run_cycle(sw, 1)
        # only packet A's flits have crossed; B's head is still queued
        assert east.flits_sent == 2
        assert lane(sw, Port.WEST)

    def test_tail_releases_lock(self):
        sw, links = make_switch(position=(1, 1))
        accept(sw, Port.LOCAL, head(dest=(2, 1), pid=1))
        run_cycle(sw, 0)  # A locks EAST
        accept(sw, Port.LOCAL, tail(pid=1, seq=1))
        accept(sw, Port.WEST, head(dest=(2, 1), pid=2))
        for cycle in range(1, 3):
            run_cycle(sw, cycle)
        assert links[Port.EAST].flits_sent == 3  # A head, A tail, B head
        assert sw._owner[Port.EAST.index] == Port.WEST.index
        assert sw._lock[Port.WEST.index] == Port.EAST.index

    def test_packets_do_not_interleave_on_one_output(self):
        """Two 3-flit packets queued for EAST at once: whichever head
        wins, its whole packet crosses before the other starts."""
        sw, links = make_switch(position=(1, 1))
        east = links[Port.EAST]
        for seq, kind in ((0, FlitKind.HEAD), (1, FlitKind.BODY),
                          (2, FlitKind.TAIL)):
            for port, pid in ((Port.WEST, 1), (Port.SOUTH, 2)):
                accept(sw, port, Flit(packet_id=pid, kind=kind, src=(0, 1),
                                      dest=(2, 1), seq=seq))
        order = []
        for cycle in range(8):
            before = east.flits_sent
            run_cycle(sw, cycle)
            if east.flits_sent > before:
                order.append(east._in_flight[-1][1].packet_id)
        assert order[:3] in ([1, 1, 1], [2, 2, 2])
        assert sorted(order) == [1, 1, 1, 2, 2, 2]

    def test_single_flit_packet_does_not_leave_lock(self):
        sw, _links = make_switch(position=(1, 1))
        flit = Flit(packet_id=5, kind=FlitKind.HEAD_TAIL, src=(0, 0),
                    dest=(2, 1))
        accept(sw, Port.LOCAL, flit)
        run_cycle(sw, 0)
        assert sw._owner[Port.EAST.index] is None


class TestArbitration:
    def test_round_robin_alternates(self):
        sw, links = make_switch(position=(1, 1))
        east = links[Port.EAST]
        # two single-flit streams competing for EAST
        for i in range(2):
            accept(sw, Port.WEST, Flit(packet_id=10 + i,
                                       kind=FlitKind.HEAD_TAIL,
                                       src=(0, 1), dest=(2, 1)))
            accept(sw, Port.SOUTH, Flit(packet_id=20 + i,
                                        kind=FlitKind.HEAD_TAIL,
                                        src=(1, 0), dest=(2, 1)))
        winners = []
        for cycle in range(4):
            before = east.flits_sent
            run_cycle(sw, cycle)
            if east.flits_sent > before:
                winners.append(east._in_flight[-1][1].packet_id // 10)
        assert sorted(winners) == [1, 1, 2, 2]
        assert winners[0] != winners[1]  # alternation, not starvation

    def test_conflict_counter(self):
        sw, _links = make_switch(position=(1, 1))
        accept(sw, Port.WEST, Flit(packet_id=1, kind=FlitKind.HEAD_TAIL,
                                   src=(0, 1), dest=(2, 1)))
        accept(sw, Port.SOUTH, Flit(packet_id=2, kind=FlitKind.HEAD_TAIL,
                                    src=(1, 0), dest=(2, 1)))
        run_cycle(sw, 0)
        assert sw.arbitration_conflicts == 1


class TestBackpressure:
    def test_flit_stays_when_link_full(self):
        sw, links = make_switch(position=(1, 1))
        east = links[Port.EAST]
        # saturate the link (capacity 8): one send per cycle
        for cycle in range(8):
            assert east.try_send(f"x{cycle}", cycle)
        accept(sw, Port.LOCAL, head(dest=(2, 1)))
        run_cycle(sw, 8)
        assert lane(sw, Port.LOCAL)  # still waiting

    def test_bad_fifo_depth(self):
        topo = Topology(3, 3)
        with pytest.raises(ValueError, match="FIFO depth"):
            Switch((1, 1), compile_next_hop(topo), fifo_depth=0)
        with pytest.raises(ValueError, match="FIFO depth"):
            Network(topo, PARAMS, fifo_depth=0)

    def test_lane_holds_at_most_fifo_depth(self):
        """Packets crossing (1, 0) towards a slow EAST link back up in
        its WEST lane: the lane fills to the FIFO depth and no further,
        and the other lanes stay free."""
        slow = BehavioralLinkParams("slow", 1, 0.1, 8, 10, 30.0)
        net = Network(
            Topology(3, 1), PARAMS, fifo_depth=2,
            link_params_for=lambda src, port, dst:
                slow if src == (1, 0) else None,
        )
        for _ in range(4):
            net.offer_packet(Packet(src=(0, 0), dest=(2, 0), length_flits=4))
        lanes = net.switches[(1, 0)]._lanes
        peak = [0] * len(lanes)
        for _ in range(60):
            net.step()
            peak = [max(n, len(fifo)) for n, fifo in zip(peak, lanes)]
        assert peak[Port.WEST.index] == 2
        assert sum(peak) == 2
        net.drain()
        assert net.stats.packets_ejected == 4

    def test_missing_link_raises(self):
        topo = Topology(3, 3)
        sw = Switch((1, 1), lambda c, d: next_hop(c, d, topo))
        accept(sw, Port.LOCAL, head(dest=(2, 1)))
        with pytest.raises(RuntimeError, match="no link attached"):
            run_cycle(sw, 0)


def _wired(cls):
    """A (1, 1) switch of ``cls`` in a 3x3 mesh, XY-routed, all links."""
    sw = cls((1, 1), compile_next_hop(Topology(3, 3)))
    return sw, attach(sw, {port: TokenLink(PARAMS) for port in LINK_PORTS})


def _west(pid, kind, dest=(9, 9), seq=0):
    return Flit(packet_id=pid, kind=kind, src=(0, 1), dest=dest, seq=seq)


@pytest.mark.parametrize("cls", [Switch, WestFirstSwitch, ReferenceSwitch])
class TestSameCycleSecondAdvance:
    """Outputs are served in port order (N, S, E, W, L), and a lane that
    advances on one output competes again on every *later* output in
    the same cycle with its new head flit — never on an earlier one."""

    def test_tail_north_then_head_tail_east(self, cls):
        sw, links = _wired(cls)
        north, east = links[Port.NORTH], links[Port.EAST]
        accept(sw, Port.WEST, _west(1, FlitKind.HEAD, dest=(1, 2)))
        assert run_cycle(sw, 0) == 1  # packet 1 locks NORTH
        accept(sw, Port.WEST, _west(1, FlitKind.TAIL, seq=1))
        accept(sw, Port.WEST, _west(2, FlitKind.HEAD_TAIL, dest=(2, 1)))
        assert run_cycle(sw, 1) == 2
        assert [f.packet_id for _, f in north._in_flight] == [1, 1]
        assert [f.packet_id for _, f in east._in_flight] == [2]
        assert not lane(sw, Port.WEST)

    def test_new_head_for_earlier_port_waits(self, cls):
        sw, links = _wired(cls)
        north, east = links[Port.NORTH], links[Port.EAST]
        accept(sw, Port.WEST, _west(1, FlitKind.HEAD, dest=(2, 1)))
        assert run_cycle(sw, 0) == 1  # packet 1 locks EAST
        accept(sw, Port.WEST, _west(1, FlitKind.TAIL, seq=1))
        accept(sw, Port.WEST, _west(2, FlitKind.HEAD_TAIL, dest=(1, 2)))
        assert run_cycle(sw, 1) == 1  # NORTH was served before EAST
        assert [f.packet_id for _, f in east._in_flight] == [1, 1]
        assert north.flits_sent == 0
        assert run_cycle(sw, 2) == 1
        assert [f.packet_id for _, f in north._in_flight] == [2]


def _west_first_wired(cls):
    """A (1, 1) switch of ``cls`` in a 3x3 mesh, west-first routed over
    its own links."""
    topo = Topology(3, 3)
    links = {port: TokenLink(PARAMS) for port in LINK_PORTS}
    sw = cls((1, 1), compile_west_first(
        topo, {((1, 1), port): link for port, link in links.items()}))
    return sw, attach(sw, links)


def _spy_rebuilds(sw):
    """Record every EAST rebuild of ``sw``; the frozen switch has none
    to record (it routes every head afresh per output)."""
    calls = []
    rebuild = getattr(sw, "_requests_for", None)
    if rebuild is not None:
        def spy(out, occ):
            calls.append(out)
            return rebuild(out, occ)
        sw._requests_for = spy
    return calls


@pytest.mark.parametrize("cls", [WestFirstSwitch, ReferenceSwitch])
class TestWestFirstEastFlip:
    """Under west-first routing a head choosing between EAST and NORTH
    takes the less-occupied link, so when NORTH sends first in a cycle
    a head that wanted NORTH may take EAST later in the same cycle."""

    def test_head_that_lost_north_leaves_east_same_cycle(self, cls):
        sw, links = _west_first_wired(cls)
        north, east = links[Port.NORTH], links[Port.EAST]
        assert east.try_send(head((2, 1), pid=9), 0)
        # occ[E] = 1 > occ[N] = 0: both heads for (2, 2) want NORTH
        accept(sw, Port.SOUTH, head((2, 2), pid=1))
        accept(sw, Port.WEST, head((2, 2), pid=2))
        rebuilds = _spy_rebuilds(sw)
        assert run_cycle(sw, 1) == 2
        # SOUTH wins NORTH round-robin; NORTH's send ties the two links,
        # and EAST wins ties, so WEST's head leaves on EAST
        assert [f.packet_id for _, f in north._in_flight] == [1]
        assert [f.packet_id for _, f in east._in_flight] == [9, 2]
        assert not lane(sw, Port.SOUTH) and not lane(sw, Port.WEST)
        if cls is WestFirstSwitch:
            assert rebuilds == [Port.EAST.index]

    def test_head_that_lost_south_leaves_east_same_cycle(self, cls):
        """The SOUTH mirror: no lane requests EAST up front, SOUTH
        sends first, and the losing head still leaves on EAST."""
        sw, links = _west_first_wired(cls)
        south, east = links[Port.SOUTH], links[Port.EAST]
        assert east.try_send(head((2, 1), pid=9), 0)
        # occ[E] = 1 > occ[S] = 0: both heads for (2, 0) want SOUTH
        accept(sw, Port.NORTH, head((2, 0), pid=1))
        accept(sw, Port.WEST, head((2, 0), pid=2))
        assert run_cycle(sw, 1) == 2
        # NORTH wins SOUTH round-robin; SOUTH's send ties the two links,
        # and EAST wins ties, so WEST's head leaves on EAST
        assert [f.packet_id for _, f in south._in_flight] == [1]
        assert [f.packet_id for _, f in east._in_flight] == [9, 2]
        assert not lane(sw, Port.NORTH) and not lane(sw, Port.WEST)

    def test_new_head_that_lost_south_leaves_east_same_cycle(self, cls):
        """A head that only surfaces within the cycle counts too: WEST
        sends a tail on NORTH, its new head (bound south-east) chooses
        SOUTH, another lane wins SOUTH, and the new head leaves on EAST
        in the same cycle."""
        sw, links = _west_first_wired(cls)
        north, south, east = (links[Port.NORTH], links[Port.SOUTH],
                              links[Port.EAST])
        accept(sw, Port.WEST, head((1, 2), pid=1))
        assert run_cycle(sw, 0) == 1  # packet 1 locks NORTH
        assert east.try_send(head((2, 1), pid=9), 0)
        accept(sw, Port.WEST, tail(pid=1, seq=1))
        accept(sw, Port.WEST, head((2, 0), pid=2))
        accept(sw, Port.NORTH, head((1, 0), pid=3))
        assert run_cycle(sw, 1) == 3
        # packet 2's head meets occ[E] = 1 > occ[S] = 0 and chooses
        # SOUTH; the NORTH lane wins SOUTH round-robin, and the tie
        # that its send makes goes to EAST
        assert [f.packet_id for _, f in north._in_flight] == [1, 1]
        assert [f.packet_id for _, f in south._in_flight] == [3]
        assert [f.packet_id for _, f in east._in_flight] == [9, 2]
        assert buffered(sw) == 0

    def test_no_rebuild_without_a_flex_head(self, cls):
        """NORTH sends before EAST, but no buffered head is bound east
        with NORTH or SOUTH chosen: EAST keeps its up-front requests
        and its mask is never rebuilt."""
        sw, links = _west_first_wired(cls)
        north, east = links[Port.NORTH], links[Port.EAST]

        def single(dest, pid):
            return Flit(packet_id=pid, kind=FlitKind.HEAD_TAIL, src=(1, 1),
                        dest=dest)

        accept(sw, Port.WEST, single((1, 2), pid=1))  # due north
        # bound north-east with both links empty: EAST wins the tie
        accept(sw, Port.SOUTH, single((2, 2), pid=2))
        accept(sw, Port.LOCAL, single((2, 1), pid=3))  # due east
        rebuilds = _spy_rebuilds(sw)
        # NORTH and EAST both send in cycle 0, EAST again in cycle 1
        assert run_cycle(sw, 0) == 2
        assert run_cycle(sw, 1) == 1
        assert [f.packet_id for _, f in north._in_flight] == [1]
        assert [f.packet_id for _, f in east._in_flight] == [2, 3]
        assert buffered(sw) == 0
        assert rebuilds == []


def _old_round_robin(mask, start, n_lanes):
    """The seed's pick: the requesting lane first in cyclic order from
    ``start``."""
    candidates = [lane for lane in range(n_lanes) if mask >> lane & 1]
    return min(candidates, key=lambda lane: (lane - start) % n_lanes)


class TestRoundRobinBitmask:
    """The bitmask pick equals the seed's ``min(..., key=(lane - start)
    % n_lanes)`` over the same requesting lanes."""

    @pytest.mark.parametrize("n_lanes", [5, 10])
    def test_every_mask_and_start(self, n_lanes):
        for mask in range(1, 1 << n_lanes):
            for start in range(n_lanes + 1):
                bit = round_robin_bit(mask, start)
                assert bit.bit_length() - 1 == _old_round_robin(
                    mask, start % n_lanes, n_lanes), (mask, start)

    def test_seeded_draws_on_15_lanes(self):
        rng = random.Random(15)
        n_lanes = 15
        for _ in range(10_000):
            mask = rng.randrange(1, 1 << n_lanes)
            start = rng.randrange(n_lanes + 1)
            bit = round_robin_bit(mask, start)
            assert bit.bit_length() - 1 == _old_round_robin(
                mask, start % n_lanes, n_lanes), (mask, start)


class TestRouteCache:
    @pytest.mark.parametrize("size", range(1, 9))
    def test_cache_agrees_with_compiled_xy(self, size):
        topo = Topology(size, size)
        route = compile_next_hop(topo)
        for node in topo.nodes():
            sw = Switch(node, route)
            for _ in range(2):  # the second pass reads the cache
                for dest in topo.nodes():
                    assert sw._routes[dest] == route(node, dest).index, (
                        node, dest)
            assert len(sw._routes) == topo.n_nodes

    def test_west_first_head_reroutes_when_east_fills(self):
        """A west-first head that chose EAST takes NORTH on the next
        cycle once EAST's link has filled: its route is not cached."""
        topo = Topology(3, 3)
        slow = BehavioralLinkParams("T", 1, 0.5, 8, 10, 300.0)
        fast = BehavioralLinkParams("T", 1, 1.0, 8, 10, 300.0)

        def build(cls):
            links = {port: TokenLink(fast)
                     for port in (Port.NORTH, Port.SOUTH, Port.WEST)}
            links[Port.EAST] = TokenLink(slow)
            sw = cls((1, 1), compile_west_first(
                topo, {((1, 1), port): link for port, link in links.items()}))
            return sw, attach(sw, links)

        for cls, rerouted in ((WestFirstSwitch, True), (Switch, False)):
            sw, links = build(cls)
            north, east = links[Port.NORTH], links[Port.EAST]
            accept(sw, Port.WEST, head((2, 2), pid=1))
            # both links empty: EAST wins the tie, but has half a credit
            assert run_cycle(sw, 0) == 0
            assert east.flits_sent == 0 and north.flits_sent == 0
            assert east.try_send(head((2, 1), pid=9), 1)
            # EAST now holds a flit and NORTH none: NORTH is preferred
            moved = run_cycle(sw, 1)
            if rerouted:
                assert moved == 1
                assert [f.packet_id for _, f in north._in_flight] == [1]
            else:
                # a cached route keeps asking the stale EAST
                assert moved == 0 and north.flits_sent == 0
