"""Unit tests for the wormhole switch."""

import random

import pytest

from repro.link.behavioral import BehavioralLinkParams, TokenLink
from repro.noc import Flit, FlitKind, Packet, Port, Switch, Topology, next_hop
from repro.noc.reference import ReferenceSwitch
from repro.noc.switch import InputQueue, WestFirstSwitch, round_robin_bit
from repro.noc.topology import compile_next_hop, compile_west_first


def make_switch(position=(1, 1), topo=None, fifo_depth=4):
    topo = topo or Topology(3, 3)
    sw = Switch(position, lambda cur, dest: next_hop(cur, dest, topo),
                fifo_depth)
    params = BehavioralLinkParams("T", 1, 1.0, 8, 10, 300.0)
    for port in (Port.NORTH, Port.SOUTH, Port.EAST, Port.WEST):
        sw.out_links[port] = TokenLink(params)
    return sw


def head(dest, pid=1):
    return Flit(packet_id=pid, kind=FlitKind.HEAD, src=(1, 1), dest=dest)


def body(pid=1, seq=1):
    return Flit(packet_id=pid, kind=FlitKind.BODY, src=(1, 1), dest=(9, 9),
                seq=seq)


def tail(pid=1, seq=2):
    return Flit(packet_id=pid, kind=FlitKind.TAIL, src=(1, 1), dest=(9, 9),
                seq=seq)


class TestInputQueue:
    def test_fifo_order(self):
        q = InputQueue(4)
        q.push("a")
        q.push("b")
        assert q.pop() == "a"
        assert q.pop() == "b"

    def test_full(self):
        q = InputQueue(2)
        q.push(1)
        q.push(2)
        assert q.full
        with pytest.raises(RuntimeError):
            q.push(3)

    def test_bad_depth(self):
        with pytest.raises(ValueError):
            InputQueue(0)


class TestSwitchRouting:
    def test_local_ejection(self):
        sw = make_switch(position=(1, 1))
        ejected = []
        sw.accept(Port.WEST, head(dest=(1, 1)))
        sw.arbitrate_and_send(0, lambda f, c: ejected.append(f))
        assert len(ejected) == 1

    def test_forwards_east(self):
        sw = make_switch(position=(1, 1))
        sw.accept(Port.LOCAL, head(dest=(2, 1)))
        link = sw.out_links[Port.EAST]
        link.begin_cycle()
        sw.arbitrate_and_send(0, lambda f, c: None)
        assert link.flits_sent == 1

    def test_xy_goes_x_first(self):
        sw = make_switch(position=(1, 1))
        sw.accept(Port.LOCAL, head(dest=(2, 2)))
        east = sw.out_links[Port.EAST]
        north = sw.out_links[Port.NORTH]
        for link in sw.out_links.values():
            link.begin_cycle()
        sw.arbitrate_and_send(0, lambda f, c: None)
        assert east.flits_sent == 1
        assert north.flits_sent == 0


class TestWormhole:
    def test_body_follows_head_route(self):
        sw = make_switch(position=(1, 1))
        east = sw.out_links[Port.EAST]
        sw.accept(Port.LOCAL, head(dest=(2, 1), pid=7))
        sw.accept(Port.LOCAL, body(pid=7))
        sw.accept(Port.LOCAL, tail(pid=7))
        for cycle in range(3):
            for link in sw.out_links.values():
                link.begin_cycle()
            sw.arbitrate_and_send(cycle, lambda f, c: None)
        assert east.flits_sent == 3

    def test_output_locked_against_other_packet(self):
        sw = make_switch(position=(1, 1))
        east = sw.out_links[Port.EAST]
        # cycle 0: packet A's head is the only candidate → locks EAST
        sw.accept(Port.LOCAL, head(dest=(2, 1), pid=1))
        for link in sw.out_links.values():
            link.begin_cycle()
        sw.arbitrate_and_send(0, lambda f, c: None)
        assert sw.output_owner[Port.EAST] == Port.LOCAL
        # now a competing head arrives while A's body still flows
        sw.accept(Port.LOCAL, body(pid=1))
        sw.accept(Port.WEST, head(dest=(2, 1), pid=2))
        for link in sw.out_links.values():
            link.begin_cycle()
        sw.arbitrate_and_send(1, lambda f, c: None)
        # only packet A's flits have crossed; B's head is still queued
        assert east.flits_sent == 2
        assert not sw.queue(Port.WEST).empty

    def test_tail_releases_lock(self):
        sw = make_switch(position=(1, 1))
        east = sw.out_links[Port.EAST]
        sw.accept(Port.LOCAL, head(dest=(2, 1), pid=1))
        for link in sw.out_links.values():
            link.begin_cycle()
        sw.arbitrate_and_send(0, lambda f, c: None)  # A locks EAST
        sw.accept(Port.LOCAL, tail(pid=1, seq=1))
        sw.accept(Port.WEST, head(dest=(2, 1), pid=2))
        for cycle in range(1, 3):
            for link in sw.out_links.values():
                link.begin_cycle()
            sw.arbitrate_and_send(cycle, lambda f, c: None)
        assert east.flits_sent == 3  # A head, A tail, then B head
        assert sw.output_owner[Port.EAST] == Port.WEST
        assert sw.input_locks[Port.WEST] == Port.EAST

    def test_packets_do_not_interleave_on_one_output(self):
        """Two 3-flit packets queued for EAST at once: whichever head
        wins, its whole packet crosses before the other starts."""
        sw = make_switch(position=(1, 1))
        east = sw.out_links[Port.EAST]
        for seq, kind in ((0, FlitKind.HEAD), (1, FlitKind.BODY),
                          (2, FlitKind.TAIL)):
            for port, pid in ((Port.WEST, 1), (Port.SOUTH, 2)):
                sw.accept(port, Flit(packet_id=pid, kind=kind, src=(0, 1),
                                     dest=(2, 1), seq=seq))
        order = []
        for cycle in range(8):
            for link in sw.out_links.values():
                link.begin_cycle()
            before = east.flits_sent
            sw.arbitrate_and_send(cycle, lambda f, c: None)
            if east.flits_sent > before:
                order.append(east._in_flight[-1][1].packet_id)
        assert order[:3] in ([1, 1, 1], [2, 2, 2])
        assert sorted(order) == [1, 1, 1, 2, 2, 2]

    def test_single_flit_packet_does_not_leave_lock(self):
        sw = make_switch(position=(1, 1))
        flit = Flit(packet_id=5, kind=FlitKind.HEAD_TAIL, src=(0, 0),
                    dest=(2, 1))
        sw.accept(Port.LOCAL, flit)
        for link in sw.out_links.values():
            link.begin_cycle()
        sw.arbitrate_and_send(0, lambda f, c: None)
        assert sw.output_owner[Port.EAST] is None


class TestArbitration:
    def test_round_robin_alternates(self):
        sw = make_switch(position=(1, 1))
        east = sw.out_links[Port.EAST]
        # two single-flit streams competing for EAST
        for i in range(2):
            sw.accept(Port.WEST, Flit(packet_id=10 + i,
                                      kind=FlitKind.HEAD_TAIL,
                                      src=(0, 1), dest=(2, 1)))
            sw.accept(Port.SOUTH, Flit(packet_id=20 + i,
                                       kind=FlitKind.HEAD_TAIL,
                                       src=(1, 0), dest=(2, 1)))
        winners = []
        for cycle in range(4):
            for link in sw.out_links.values():
                link.begin_cycle()
            before = east.flits_sent
            sw.arbitrate_and_send(cycle, lambda f, c: None)
            if east.flits_sent > before:
                winners.append(east._in_flight[-1][1].packet_id // 10)
        assert sorted(winners) == [1, 1, 2, 2]
        assert winners[0] != winners[1]  # alternation, not starvation

    def test_conflict_counter(self):
        sw = make_switch(position=(1, 1))
        sw.accept(Port.WEST, Flit(packet_id=1, kind=FlitKind.HEAD_TAIL,
                                  src=(0, 1), dest=(2, 1)))
        sw.accept(Port.SOUTH, Flit(packet_id=2, kind=FlitKind.HEAD_TAIL,
                                   src=(1, 0), dest=(2, 1)))
        for link in sw.out_links.values():
            link.begin_cycle()
        sw.arbitrate_and_send(0, lambda f, c: None)
        assert sw.arbitration_conflicts == 1


class TestBackpressure:
    def test_flit_stays_when_link_full(self):
        sw = make_switch(position=(1, 1))
        east = sw.out_links[Port.EAST]
        # saturate the link (capacity 8)
        east.begin_cycle()
        for i in range(8):
            east.begin_cycle()
            east.try_send(f"x{i}", 0)
        sw.accept(Port.LOCAL, head(dest=(2, 1)))
        east.begin_cycle()
        sw.arbitrate_and_send(0, lambda f, c: None)
        assert not sw.queue(Port.LOCAL).empty  # still waiting

    def test_can_accept_per_port(self):
        sw = make_switch(position=(1, 1), fifo_depth=2)
        for pid in range(2):
            assert sw.can_accept(Port.WEST)
            sw.accept(Port.WEST, head(dest=(2, 1), pid=pid))
        assert not sw.can_accept(Port.WEST)
        assert sw.can_accept(Port.SOUTH)

    def test_missing_link_raises(self):
        topo = Topology(3, 3)
        sw = Switch((1, 1), lambda c, d: next_hop(c, d, topo))
        sw.accept(Port.LOCAL, head(dest=(2, 1)))
        with pytest.raises(RuntimeError):
            sw.arbitrate_and_send(0, lambda f, c: None)


def _wired(cls):
    """A (1, 1) switch of ``cls`` in a 3x3 mesh, XY-routed, all links."""
    sw = cls((1, 1), compile_next_hop(Topology(3, 3)))
    params = BehavioralLinkParams("T", 1, 1.0, 8, 10, 300.0)
    for port in (Port.NORTH, Port.SOUTH, Port.EAST, Port.WEST):
        sw.out_links[port] = TokenLink(params)
    return sw


def _cycle(sw, cycle):
    for link in sw.out_links.values():
        link.begin_cycle()
    return sw.arbitrate_and_send(cycle, lambda f, c: None)


def _west(pid, kind, dest=(9, 9), seq=0):
    return Flit(packet_id=pid, kind=kind, src=(0, 1), dest=dest, seq=seq)


@pytest.mark.parametrize("cls", [Switch, WestFirstSwitch, ReferenceSwitch])
class TestSameCycleSecondAdvance:
    """Outputs are served in port order (N, S, E, W, L), and a lane that
    advances on one output competes again on every *later* output in
    the same cycle with its new head flit — never on an earlier one."""

    def test_tail_north_then_head_tail_east(self, cls):
        sw = _wired(cls)
        north, east = sw.out_links[Port.NORTH], sw.out_links[Port.EAST]
        sw.accept(Port.WEST, _west(1, FlitKind.HEAD, dest=(1, 2)))
        assert _cycle(sw, 0) == 1  # packet 1 locks NORTH
        sw.accept(Port.WEST, _west(1, FlitKind.TAIL, seq=1))
        sw.accept(Port.WEST, _west(2, FlitKind.HEAD_TAIL, dest=(2, 1)))
        assert _cycle(sw, 1) == 2
        assert [f.packet_id for _, f in north._in_flight] == [1, 1]
        assert [f.packet_id for _, f in east._in_flight] == [2]
        assert sw.queue(Port.WEST).empty

    def test_new_head_for_earlier_port_waits(self, cls):
        sw = _wired(cls)
        north, east = sw.out_links[Port.NORTH], sw.out_links[Port.EAST]
        sw.accept(Port.WEST, _west(1, FlitKind.HEAD, dest=(2, 1)))
        assert _cycle(sw, 0) == 1  # packet 1 locks EAST
        sw.accept(Port.WEST, _west(1, FlitKind.TAIL, seq=1))
        sw.accept(Port.WEST, _west(2, FlitKind.HEAD_TAIL, dest=(1, 2)))
        assert _cycle(sw, 1) == 1  # NORTH was served before EAST
        assert [f.packet_id for _, f in east._in_flight] == [1, 1]
        assert north.flits_sent == 0
        assert _cycle(sw, 2) == 1
        assert [f.packet_id for _, f in north._in_flight] == [2]


def _west_first_wired(cls):
    """A (1, 1) switch of ``cls`` in a 3x3 mesh, west-first routed over
    its own links."""
    topo = Topology(3, 3)
    params = BehavioralLinkParams("T", 1, 1.0, 8, 10, 300.0)
    links = {
        ((1, 1), port): TokenLink(params)
        for port in (Port.NORTH, Port.SOUTH, Port.EAST, Port.WEST)
    }
    sw = cls((1, 1), compile_west_first(topo, links))
    for (_node, port), link in links.items():
        sw.out_links[port] = link
    return sw


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
        sw = _west_first_wired(cls)
        north, east = sw.out_links[Port.NORTH], sw.out_links[Port.EAST]
        east.begin_cycle()
        assert east.try_send(head((2, 1), pid=9), 0)
        # occ[E] = 1 > occ[N] = 0: both heads for (2, 2) want NORTH
        sw.accept(Port.SOUTH, head((2, 2), pid=1))
        sw.accept(Port.WEST, head((2, 2), pid=2))
        rebuilds = _spy_rebuilds(sw)
        assert _cycle(sw, 1) == 2
        # SOUTH wins NORTH round-robin; NORTH's send ties the two links,
        # and EAST wins ties, so WEST's head leaves on EAST
        assert [f.packet_id for _, f in north._in_flight] == [1]
        assert [f.packet_id for _, f in east._in_flight] == [9, 2]
        assert sw.queue(Port.SOUTH).empty and sw.queue(Port.WEST).empty
        if cls is WestFirstSwitch:
            assert rebuilds == [Port.EAST.index]

    def test_head_that_lost_south_leaves_east_same_cycle(self, cls):
        """The SOUTH mirror: no lane requests EAST up front, SOUTH
        sends first, and the losing head still leaves on EAST."""
        sw = _west_first_wired(cls)
        south, east = sw.out_links[Port.SOUTH], sw.out_links[Port.EAST]
        east.begin_cycle()
        assert east.try_send(head((2, 1), pid=9), 0)
        # occ[E] = 1 > occ[S] = 0: both heads for (2, 0) want SOUTH
        sw.accept(Port.NORTH, head((2, 0), pid=1))
        sw.accept(Port.WEST, head((2, 0), pid=2))
        assert _cycle(sw, 1) == 2
        # NORTH wins SOUTH round-robin; SOUTH's send ties the two links,
        # and EAST wins ties, so WEST's head leaves on EAST
        assert [f.packet_id for _, f in south._in_flight] == [1]
        assert [f.packet_id for _, f in east._in_flight] == [9, 2]
        assert sw.queue(Port.NORTH).empty and sw.queue(Port.WEST).empty

    def test_new_head_that_lost_south_leaves_east_same_cycle(self, cls):
        """A head that only surfaces within the cycle counts too: WEST
        sends a tail on NORTH, its new head (bound south-east) chooses
        SOUTH, another lane wins SOUTH, and the new head leaves on EAST
        in the same cycle."""
        sw = _west_first_wired(cls)
        north, south, east = (sw.out_links[Port.NORTH],
                              sw.out_links[Port.SOUTH],
                              sw.out_links[Port.EAST])
        sw.accept(Port.WEST, head((1, 2), pid=1))
        assert _cycle(sw, 0) == 1  # packet 1 locks NORTH
        assert east.try_send(head((2, 1), pid=9), 0)
        sw.accept(Port.WEST, tail(pid=1, seq=1))
        sw.accept(Port.WEST, head((2, 0), pid=2))
        sw.accept(Port.NORTH, head((1, 0), pid=3))
        assert _cycle(sw, 1) == 3
        # packet 2's head meets occ[E] = 1 > occ[S] = 0 and chooses
        # SOUTH; the NORTH lane wins SOUTH round-robin, and the tie
        # that its send makes goes to EAST
        assert [f.packet_id for _, f in north._in_flight] == [1, 1]
        assert [f.packet_id for _, f in south._in_flight] == [3]
        assert [f.packet_id for _, f in east._in_flight] == [9, 2]
        assert sw.buffered_flits == 0

    def test_no_rebuild_without_a_flex_head(self, cls):
        """NORTH sends before EAST, but no buffered head is bound east
        with NORTH or SOUTH chosen: EAST keeps its up-front requests
        and its mask is never rebuilt."""
        sw = _west_first_wired(cls)
        north, east = sw.out_links[Port.NORTH], sw.out_links[Port.EAST]

        def single(dest, pid):
            return Flit(packet_id=pid, kind=FlitKind.HEAD_TAIL, src=(1, 1),
                        dest=dest)

        sw.accept(Port.WEST, single((1, 2), pid=1))  # due north
        # bound north-east with both links empty: EAST wins the tie
        sw.accept(Port.SOUTH, single((2, 2), pid=2))
        sw.accept(Port.LOCAL, single((2, 1), pid=3))  # due east
        rebuilds = _spy_rebuilds(sw)
        # NORTH and EAST both send in cycle 0, EAST again in cycle 1
        assert _cycle(sw, 0) == 2
        assert _cycle(sw, 1) == 1
        assert [f.packet_id for _, f in north._in_flight] == [1]
        assert [f.packet_id for _, f in east._in_flight] == [2, 3]
        assert sw.buffered_flits == 0
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
            links = {((1, 1), port): TokenLink(fast)
                     for port in (Port.NORTH, Port.SOUTH, Port.WEST)}
            links[((1, 1), Port.EAST)] = TokenLink(slow)
            sw = cls((1, 1), compile_west_first(topo, links))
            for (_node, port), link in links.items():
                sw.out_links[port] = link
            return sw

        for cls, rerouted in ((WestFirstSwitch, True), (Switch, False)):
            sw = build(cls)
            north, east = sw.out_links[Port.NORTH], sw.out_links[Port.EAST]
            sw.accept(Port.WEST, head((2, 2), pid=1))
            # both links empty: EAST wins the tie, but has half a credit
            assert sw.arbitrate_and_send(0, lambda f, c: None) == 0
            assert east.flits_sent == 0 and north.flits_sent == 0
            east.begin_cycle()
            east.begin_cycle()
            assert east.try_send(head((2, 1), pid=9), 1)
            # EAST now holds a flit and NORTH none: NORTH is preferred
            moved = sw.arbitrate_and_send(1, lambda f, c: None)
            if rerouted:
                assert moved == 1
                assert [f.packet_id for _, f in north._in_flight] == [1]
            else:
                # a cached route keeps asking the stale EAST
                assert moved == 0 and north.flits_sent == 0
