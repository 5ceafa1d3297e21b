"""Unit tests for the clock generator."""

import pytest

from repro.sim import Clock, RisingEdge, Simulator, spawn


@pytest.fixture
def sim():
    return Simulator()


class TestClock:
    def test_from_mhz_period(self, sim):
        assert Clock.from_mhz(sim, 100).period_ps == 10_000
        assert Clock.from_mhz(sim, 300).period_ps == 3333

    def test_freq_mhz_roundtrip(self, sim):
        clock = Clock.from_mhz(sim, 100)
        assert clock.freq_mhz == pytest.approx(100.0)

    def test_rejects_tiny_period(self, sim):
        with pytest.raises(ValueError):
            Clock(sim, 1)

    def test_toggles_at_half_period(self, sim):
        clock = Clock(sim, 1000, "clk")
        edges = []
        clock.signal.on_change(lambda s: edges.append((sim.now, s.value)))
        sim.run(until=2100)
        assert edges[:4] == [(0, 1), (500, 0), (1000, 1), (1500, 0)]

    def test_cycle_counter(self, sim):
        clock = Clock(sim, 1000)
        sim.run(until=5500)
        assert clock.cycles == 6  # rising edges at 0,1000,...,5000

    def test_start_delay(self, sim):
        clock = Clock(sim, 1000, start_delay_ps=200)
        edges = []
        clock.signal.on_change(lambda s: edges.append(sim.now))
        sim.run(until=1000)
        assert edges[0] == 200

    def test_stop_freezes_clock(self, sim):
        clock = Clock(sim, 1000)
        sim.run(until=1600)
        clock.stop()
        value = clock.signal.value
        sim.run(until=5000)
        assert clock.signal.value == value

    def test_odd_period_keeps_total(self, sim):
        """A 3333 ps period (300 MHz) must not drift."""
        clock = Clock(sim, 3333)
        rises = []

        def proc():
            for _ in range(4):
                yield RisingEdge(clock.signal)
                rises.append(sim.now)

        spawn(sim, proc())
        sim.run(until=15_000)
        # consecutive rising edges exactly one period apart
        deltas = [b - a for a, b in zip(rises, rises[1:])]
        assert all(d == 3333 for d in deltas)

    def test_duty_cycle_within_one_ps(self, sim):
        clock = Clock(sim, 3333)
        changes = []
        clock.signal.on_change(lambda s: changes.append((sim.now, s.value)))
        sim.run(until=7000)
        highs = [t for t, v in changes if v == 1]
        lows = [t for t, v in changes if v == 0]
        assert lows[0] - highs[0] in (1666, 1667)
