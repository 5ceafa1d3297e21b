"""Cross-module integration tests: full links under adverse conditions."""

import pytest

from repro.link import (
    LinkConfig,
    LinkTestbench,
    build_i1,
    build_i2,
    build_i3,
    build_link,
    measure_throughput,
)
from repro.sim import Clock, Simulator
from repro.tech import scale_technology, st012


def run_link(kind, flits, mhz=300, timeout_ns=1e6, tech=None, **cfg):
    sim = Simulator()
    clock = Clock.from_mhz(sim, mhz)
    link = build_link(sim, clock.signal, kind, LinkConfig(**cfg), tech)
    bench = LinkTestbench(sim, clock, link)
    return bench.run(flits, timeout_ns=timeout_ns), link


@pytest.mark.parametrize("kind", ["I1", "I2", "I3"])
class TestDataPatterns:
    def test_walking_ones(self, kind):
        flits = [1 << i for i in range(32)]
        m, _ = run_link(kind, flits)
        assert m.received_values == flits

    def test_random_stream(self, kind):
        import random

        rng = random.Random(2008)
        flits = [rng.getrandbits(32) for _ in range(24)]
        m, _ = run_link(kind, flits)
        assert m.received_values == flits

    def test_constant_stream_no_data_transitions(self, kind):
        flits = [0x77777777] * 10
        m, _ = run_link(kind, flits)
        assert m.received_values == flits

    def test_single_flit(self, kind):
        m, _ = run_link(kind, [0x13579BDF])
        assert m.received_values == [0x13579BDF]


@pytest.mark.parametrize("kind", ["I1", "I2", "I3"])
class TestBufferCounts:
    @pytest.mark.parametrize("n_buffers", [1, 2, 6, 8])
    def test_delivery_across_depths(self, kind, n_buffers):
        flits = [0xA5A5A5A5, 0x5A5A5A5A] * 3
        m, _ = run_link(kind, flits, n_buffers=n_buffers)
        assert m.received_values == flits


class TestClockSweep:
    @pytest.mark.parametrize("mhz", [50, 100, 200, 300])
    def test_i3_delivers_at_any_switch_clock(self, mhz):
        flits = [0xDEADBEEF, 0xCAFEBABE] * 4
        m, _ = run_link("I3", flits, mhz=mhz)
        assert m.received_values == flits
        assert m.throughput_mflits == pytest.approx(mhz, rel=0.05)

    def test_clock_mismatch_is_impossible_by_construction(self):
        """Both ends share CLK A — the whole point of async serialization
        is that no second clock exists to mismatch.  Verify a single
        clock drives both interfaces."""
        sim = Simulator()
        clock = Clock.from_mhz(sim, 100)
        link = build_i3(sim, clock.signal, LinkConfig())
        assert link.s2a.clk is clock.signal
        assert link.a2s.clk is clock.signal


class TestStallPatterns:
    @pytest.mark.parametrize("kind", ["I1", "I2", "I3"])
    def test_heavy_backpressure(self, kind):
        flits = list(range(0x100, 0x108))
        sim = Simulator()
        clock = Clock.from_mhz(sim, 300)
        link = build_link(sim, clock.signal, kind, LinkConfig())
        bench = LinkTestbench(sim, clock, link)
        m = bench.run(flits, timeout_ns=1e6, stall_pattern=[1, 1, 1, 0])
        assert m.received_values == flits

    def test_backpressure_throttles_throughput(self):
        flits = [0xA5A5A5A5] * 16
        sim = Simulator()
        clock = Clock.from_mhz(sim, 300)
        link = build_i3(sim, clock.signal, LinkConfig())
        bench = LinkTestbench(sim, clock, link)
        m = bench.run(flits, timeout_ns=1e6, stall_pattern=[1, 0])
        assert m.throughput_mflits == pytest.approx(150.0, rel=0.1)


class TestScaledTechnology:
    def test_i3_link_works_at_65nm(self):
        """The gate-level circuits must still function after scaling."""
        tech = scale_technology(st012(), 65)
        flits = [0xA5A5A5A5, 0x5A5A5A5A] * 2
        m, _ = run_link("I3", flits, mhz=300, tech=tech)
        assert m.received_values == flits

    def test_scaled_link_is_faster(self):
        from repro.experiments.throughput import simulate_ceiling_mflits

        base = simulate_ceiling_mflits("I3", st012(), n_flits=16)
        # analytic bound 304 MFlit/s; paper quotes ~311
        assert 290 <= base <= 315
        scaled = simulate_ceiling_mflits(
            "I3", scale_technology(st012(), 65), n_flits=16
        )
        assert scaled > base


class TestEndToEndConsistency:
    def test_throughput_and_counter_agreement(self):
        m, link = run_link("I2", [0xF0F0F0F0] * 12, mhz=300)
        assert link.flits_accepted() == link.flits_delivered() == 12
        assert len(m.delivery_times_ps) == 12

    def test_activity_only_during_traffic(self):
        sim = Simulator()
        clock = Clock.from_mhz(sim, 300)
        link = build_i2(sim, clock.signal, LinkConfig())
        sim.run(until=100_000, max_events=2_000_000)  # idle network
        link.monitor.snapshot()
        sim.run(until=200_000, max_events=2_000_000)
        # no flits → the asynchronous side is perfectly quiet
        assert link.monitor.transitions("serializer") == 0
        assert link.monitor.transitions("buffers") == 0

    def test_i1_vs_i3_latency_tradeoff(self):
        """I3 pays serialization latency; I1 pays one cycle per buffer.
        At 100 MHz with 4 buffers, I1's pipeline (5 cycles = 50 ns) is
        slower end-to-end than I3's serialize-transfer-sync path."""
        m_i1, _ = run_link("I1", [1, 2, 3], mhz=100)
        m_i3, _ = run_link("I3", [1, 2, 3], mhz=100)
        assert m_i1.mean_latency_ns > 35.0  # ≥4 pipeline cycles of 10 ns
        assert m_i3.mean_latency_ns < m_i1.mean_latency_ns
