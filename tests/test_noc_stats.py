"""Unit tests for network statistics."""

import math

from repro.noc import Flit, FlitKind, NetworkStats
from repro.noc.reference import ReferenceNetworkStats
from repro.noc.stats import accepted_rate


def flit(pid=1, seq=0, kind=FlitKind.HEAD_TAIL):
    return Flit(packet_id=pid, kind=kind, src=(0, 0), dest=(1, 1), seq=seq)


class TestNetworkStats:
    def test_initial_state(self):
        stats = NetworkStats()
        assert stats.flits_injected == 0
        assert math.isnan(stats.mean_packet_latency)

    def test_single_flit_packet_latency(self):
        stats = NetworkStats()
        f = flit()
        stats.open_packet(f.packet_id, length_flits=1, created_cycle=5)
        stats.record_ejection(f, cycle=30)
        assert stats.packets_ejected == 1
        assert stats.packet_latencies == [25]  # creation → ejection
        assert stats.packet_created == [5]  # each latency's window tag

    def test_multi_flit_packet_completes_on_last_flit(self):
        stats = NetworkStats()
        flits = [flit(pid=2, seq=i) for i in range(3)]
        stats.open_packet(2, length_flits=3, created_cycle=0)
        stats.record_ejection(flits[0], cycle=10)
        stats.record_ejection(flits[1], cycle=11)
        assert stats.packets_ejected == 0
        stats.record_ejection(flits[2], cycle=12)
        assert stats.packets_ejected == 1
        assert stats.packet_latencies == [12]

    def test_bookkeeping_freed_after_packet(self):
        stats = NetworkStats()
        f = flit(pid=3)
        stats.open_packet(f.packet_id, length_flits=1, created_cycle=0)
        stats.record_ejection(f, cycle=5)
        assert stats._packets == {}

    def test_mean_and_p99(self):
        stats = NetworkStats()
        stats.packet_latencies = list(range(1, 101))
        assert stats.mean_packet_latency == 50.5
        assert stats.p99_packet_latency == 100.0

    def test_throughput(self):
        assert accepted_rate(160, 16, 100) == 0.1

    def test_throughput_zero_cycles(self):
        assert accepted_rate(0, 16, 0) == 0.0

    def test_in_flight(self):
        stats = NetworkStats()
        f1, f2 = flit(pid=4), flit(pid=5)
        for f in (f1, f2):
            stats.open_packet(f.packet_id, 1, 0)
        stats.flits_injected = 2  # the network counts injections
        stats.record_ejection(f1, 3)
        assert stats.in_flight_flits == 1

    def test_summary_keys(self):
        summary = NetworkStats().summary()
        assert {"cycles", "flits_injected", "flits_ejected",
                "packets_ejected", "mean_packet_latency",
                "p99_packet_latency"} == set(summary)

    def test_flit_timestamps_written(self):
        """Only the frozen oracle's recorders stamp flits."""
        stats = ReferenceNetworkStats()
        f = flit(pid=6)
        stats.record_injection(f, 7, packet_length=1, created_cycle=7)
        stats.record_ejection(f, cycle=19)
        assert f.injected_cycle == 7
        assert f.ejected_cycle == 19
