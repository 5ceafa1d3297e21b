"""Unit tests for the link testbench and measurement plumbing."""

import pytest

import repro.sim as OPT
import repro.sim.reference as REF
from repro.link import (
    LinkConfig,
    LinkMeasurement,
    LinkTestbench,
    WORST_CASE_PATTERN,
    build_i1,
    build_i3,
)
from repro.sim import Clock, SimulationError, Simulator
from repro.tech import st012

#: the optimized kernel and the frozen seed kernel both honour ``stop()``
STACKS = [pytest.param(OPT, id="kernel"), pytest.param(REF, id="reference")]


class TestLinkMeasurement:
    def test_throughput_requires_two_flits(self):
        m = LinkMeasurement()
        assert m.throughput_mflits == 0.0
        m.flits_received = 1
        m.delivery_times_ps = [100]
        assert m.throughput_mflits == 0.0

    def test_throughput_steady_state_window(self):
        m = LinkMeasurement()
        m.flits_received = 4
        m.delivery_times_ps = [0, 1000, 2000, 3000]  # 1 flit/ns
        assert m.throughput_mflits == pytest.approx(1e6 / 1000)

    def test_mean_latency(self):
        m = LinkMeasurement()
        m.accept_times_ps = [0, 1000]
        m.delivery_times_ps = [5000, 6000]
        assert m.mean_latency_ns == pytest.approx(5.0)

    def test_mean_latency_empty(self):
        assert LinkMeasurement().mean_latency_ns == 0.0

    def test_worst_case_pattern_alternates(self):
        assert WORST_CASE_PATTERN[0] ^ WORST_CASE_PATTERN[1] == 0xFFFFFFFF


class TestLinkTestbench:
    def test_timeout_raises(self):
        sim = Simulator()
        clock = Clock.from_mhz(sim, 100)
        link = build_i1(sim, clock.signal, LinkConfig())
        # permanently stall the sink side: flits can never drain
        link.stall_in.set(1)
        bench = LinkTestbench(sim, clock, link)
        with pytest.raises(TimeoutError):
            bench.run([1, 2, 3], timeout_ns=1_000.0)

    def test_latency_counts_pipeline_depth(self):
        sim = Simulator()
        clock = Clock.from_mhz(sim, 100)
        link = build_i1(sim, clock.signal, LinkConfig(n_buffers=4))
        bench = LinkTestbench(sim, clock, link)
        m = bench.run([0xAB, 0xCD], timeout_ns=1e6)
        # 4 pipeline stages + output register ≈ 5 cycles of 10 ns
        assert 40.0 <= m.mean_latency_ns <= 60.0

    def test_accept_timestamps_monotonic(self):
        sim = Simulator()
        clock = Clock.from_mhz(sim, 100)
        link = build_i1(sim, clock.signal, LinkConfig())
        bench = LinkTestbench(sim, clock, link)
        m = bench.run(list(range(6)), timeout_ns=1e6)
        assert m.accept_times_ps == sorted(m.accept_times_ps)
        assert m.delivery_times_ps == sorted(m.delivery_times_ps)

    def test_more_buffers_increase_i1_latency(self):
        latencies = {}
        for n in (2, 8):
            sim = Simulator()
            clock = Clock.from_mhz(sim, 100)
            link = build_i1(sim, clock.signal, LinkConfig(n_buffers=n))
            bench = LinkTestbench(sim, clock, link)
            m = bench.run([1, 2, 3], timeout_ns=1e6)
            latencies[n] = m.mean_latency_ns
        assert latencies[8] > latencies[2]


class TestRunEndsAtLastDelivery:
    """A run stops the kernel in the event where the sink has seen its
    last flit; only a stuck link runs on to the horizon."""

    @pytest.mark.parametrize("stack", STACKS)
    def test_kernel_stops_at_last_delivery(self, stack):
        sim = stack.Simulator()
        clock = stack.Clock.from_mhz(sim, 300)
        link = build_i3(sim, clock.signal, LinkConfig(), st012())
        bench = LinkTestbench(sim, clock, link)
        m = bench.run(list(WORST_CASE_PATTERN))
        assert m.flits_received == len(WORST_CASE_PATTERN)
        assert sim.now == m.last_delivery_ps
        # stopped, not drained: the next clock edge is still queued
        assert sim.pending_events > 0

    @staticmethod
    def _stuck_bench(stack):
        """A 100 MHz I1 link whose sink is stalled for good."""
        sim = stack.Simulator()
        clock = stack.Clock.from_mhz(sim, 100)
        link = build_i1(sim, clock.signal, LinkConfig())
        link.stall_in.set(1)
        return sim, LinkTestbench(sim, clock, link)

    @pytest.mark.parametrize("stack", STACKS)
    def test_stuck_link_times_out_at_horizon(self, stack):
        sim, bench = self._stuck_bench(stack)
        with pytest.raises(TimeoutError):
            bench.run([1, 2, 3], timeout_ns=5_000.0)
        assert sim.now == 5_000_000

    @pytest.mark.parametrize("stack", STACKS)
    def test_event_budget_covers_the_whole_run(self, stack):
        """The stuck link executes 400-500 events per µs, so 1,000
        events outlast any one µs but not the 5 µs horizon."""
        _sim, bench = self._stuck_bench(stack)
        with pytest.raises(SimulationError, match="budget of 1000"):
            bench.run([1, 2, 3], timeout_ns=5_000.0, max_events=1_000)
