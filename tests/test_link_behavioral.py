"""Unit tests for behavioural link parameters and the token link."""

import pytest

from repro.link import LinkConfig
from repro.link.behavioral import (
    BehavioralLinkParams,
    TokenLink,
    derive_link_params,
)
from repro.noc import Network, Packet, Port, Topology
from repro.tech import st012


class TestDeriveLinkParams:
    def test_i1_latency_is_pipeline_depth(self):
        p = derive_link_params(st012(), "I1", 300, LinkConfig(n_buffers=4))
        assert p.latency_cycles == 5
        assert p.rate_flits_per_cycle == 1.0
        assert p.wire_count == 32

    def test_i3_rate_saturates_at_one_below_ceiling(self):
        p = derive_link_params(st012(), "I3", 100)
        assert p.rate_flits_per_cycle == 1.0  # 304 MF/s >> 100 MHz

    def test_i2_rate_limited_at_300mhz(self):
        p = derive_link_params(st012(), "I2", 300)
        assert p.rate_flits_per_cycle == pytest.approx(285.7 / 300, rel=0.01)

    def test_async_capacity_is_two_fifos(self):
        p = derive_link_params(st012(), "I3", 300)
        assert p.capacity_flits == 8  # the paper's 8 spaces

    def test_wire_counts(self):
        assert derive_link_params(st012(), "I2", 300).wire_count == 10
        assert derive_link_params(st012(), "I3", 300).wire_count == 10

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            derive_link_params(st012(), "I9", 300)

    def test_serial_ceiling_recorded(self):
        p = derive_link_params(st012(), "I3", 300)
        assert p.serial_ceiling_mflits == pytest.approx(304.1, rel=0.01)

    def test_params_validated(self):
        with pytest.raises(ValueError):
            BehavioralLinkParams("X", 0, 1.0, 8, 10, 300.0)
        with pytest.raises(ValueError):
            BehavioralLinkParams("X", 1, 1.5, 8, 10, 300.0)
        with pytest.raises(ValueError):
            BehavioralLinkParams("X", 1, 1.0, 0, 10, 300.0)


class TestTokenLink:
    def _params(self, rate=1.0, latency=3, capacity=4):
        return BehavioralLinkParams("T", latency, rate, capacity, 10, 300.0)

    def test_flit_arrives_after_latency(self):
        link = TokenLink(self._params(latency=3))
        assert link.try_send("flit", now_cycle=0)
        assert link._in_flight == [(3, "flit")]

    def test_capacity_bound(self):
        link = TokenLink(self._params(capacity=2))
        for cycle in range(2):
            assert link.try_send(cycle, cycle)
        assert not link.try_send(99, 2)  # full

    def test_rate_limits_injection(self):
        link = TokenLink(self._params(rate=0.5, capacity=100))
        sent = 0
        for cycle in range(10):
            if link.try_send(cycle, cycle):
                sent += 1
        assert sent == 5  # half-rate link

    def test_full_rate_sends_every_cycle(self):
        link = TokenLink(self._params(rate=1.0, capacity=100, latency=1))
        sent = 0
        for cycle in range(10):
            if link.try_send(cycle, cycle):
                sent += 1
        assert sent == 10

    def test_fifo_order(self):
        link = TokenLink(self._params(latency=1, capacity=10))
        for cycle in range(3):
            link.try_send(f"f{cycle}", cycle)
        assert link._in_flight == [(1, "f0"), (2, "f1"), (3, "f2")]

    def test_counters(self):
        """Inside a network the delivery phase empties the link."""
        net = Network(Topology(2, 1), self._params(latency=1))
        net.offer_packet(Packet(src=(0, 0), dest=(1, 0), length_flits=1))
        net.drain()
        link = net.links[((0, 0), Port.EAST)]
        assert link.flits_sent == 1
        assert link.flits_delivered == 1
        assert link.occupancy == 0


class TestBehavioralMatchesGateLevel:
    """The behavioural parameters must agree with gate-level measurement."""

    @pytest.mark.parametrize("kind", ["I2", "I3"])
    def test_ceiling_agreement(self, kind):
        from repro.experiments.throughput import simulate_ceiling_mflits

        tech = st012()
        params = derive_link_params(tech, kind, 1000)
        measured = simulate_ceiling_mflits(kind, tech, n_flits=24)
        assert measured == pytest.approx(params.serial_ceiling_mflits,
                                         rel=0.06)

    def test_i1_latency_agreement(self):
        from repro.link import LinkTestbench, build_i1
        from repro.sim import Clock, Simulator

        tech = st012()
        params = derive_link_params(tech, "I1", 100)
        sim = Simulator()
        clock = Clock.from_mhz(sim, 100)
        link = build_i1(sim, clock.signal, LinkConfig())
        bench = LinkTestbench(sim, clock, link)
        m = bench.run([1, 2, 3, 4], timeout_ns=1e6)
        measured_cycles = m.mean_latency_ns / 10.0
        assert measured_cycles == pytest.approx(params.latency_cycles, abs=1.0)
