"""Determinism tests: identical runs must be bit-identical.

The integer-picosecond kernel with FIFO delta ordering exists precisely
so that simulations are reproducible; these tests pin that property for
every layer — without it, the calibration in :mod:`repro.tech.st012`
would not be trustworthy.
"""

from repro.link import LinkConfig, build_i2, build_i3, measure_throughput
from repro.link.behavioral import derive_link_params
from repro.noc import (
    Network,
    Topology,
    TrafficConfig,
    TrafficGenerator,
    reset_packet_ids,
)
from repro.sim import Clock, Simulator
from repro.tech import st012


def run_gate_level(builder, n_flits=12):
    sim = Simulator()
    clock = Clock.from_mhz(sim, 300)
    link = builder(sim, clock.signal, LinkConfig())
    m = measure_throughput(sim, clock, link, n_flits=n_flits)
    return (
        tuple(m.delivery_times_ps),
        tuple(m.accept_times_ps),
        sim.events_executed,
    )


class TestGateLevelDeterminism:
    def test_i2_identical_runs(self):
        assert run_gate_level(build_i2) == run_gate_level(build_i2)

    def test_i3_identical_runs(self):
        assert run_gate_level(build_i3) == run_gate_level(build_i3)

    def test_activity_counters_deterministic(self):
        from repro.analysis import measure_link_activity

        a = measure_link_activity("I3", n_flits=8)
        b = measure_link_activity("I3", n_flits=8)
        assert a.transitions_by_group == b.transitions_by_group


class TestNetworkDeterminism:
    def _run(self):
        reset_packet_ids()
        topo = Topology(4, 4)
        net = Network(topo, derive_link_params(st012(), "I3", 300))
        traffic = TrafficGenerator(
            topo, TrafficConfig(injection_rate=0.2, seed=99)
        )
        net.run(600, traffic)
        net.drain()
        return (
            net.stats.flits_ejected,
            tuple(net.stats.packet_latencies),
            tuple(link.flits_delivered for link in net.links.values()),
        )

    def test_identical_network_runs(self):
        assert self._run() == self._run()

    def test_adaptive_routing_deterministic(self):
        def run():
            reset_packet_ids()
            topo = Topology(4, 4)
            net = Network(topo, derive_link_params(st012(), "I1", 300),
                          routing="west_first")
            traffic = TrafficGenerator(
                topo, TrafficConfig(injection_rate=0.25, seed=7)
            )
            net.run(500, traffic)
            net.drain()
            return tuple(net.stats.packet_latencies)

        assert run() == run()


class TestBitSerialEdgeCase:
    def test_gate_level_single_wire_serialization(self):
        """The fully bit-serial configuration (32→1, the [9] reference's
        single-wire link) works end to end at gate level."""
        from repro.link import Channel, Deserializer, Serializer
        from repro.link.channel import sink_process, source_process
        from repro.link.wiring import wire, wire_bus
        from repro.sim import spawn

        sim = Simulator()
        in_ch = Channel(sim, 32, "in")
        ser = Serializer(sim, in_ch, slice_width=1)
        des = Deserializer(sim, Channel(sim, 1, "mid"), 32)
        wire_bus(ser.out_ch.data, des.in_ch.data, 0)
        wire(ser.out_ch.req, des.in_ch.req, 0)
        wire(des.in_ch.ack, ser.out_ch.ack, 0)
        received = []
        spawn(sim, source_process(in_ch, [0xDEADBEEF]))
        spawn(sim, sink_process(des.out_ch, received, count=1))
        sim.run(max_events=10_000_000)
        assert received == [0xDEADBEEF]
        assert ser.sequencer.n == 32  # one David cell per bit
