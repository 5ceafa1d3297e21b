"""Unit tests for tracing and activity monitoring."""

import pytest

from repro.sim import ActivityMonitor, Bus, Signal, Simulator, Tracer


@pytest.fixture
def sim():
    return Simulator()


class TestTracer:
    def test_watch_signal_records_history(self, sim):
        sig = Signal(sim, "s")
        tracer = Tracer()
        tracer.watch(sig)
        sig.set(1)
        sig.set(0)
        history = tracer.history(sig)
        assert [v for _, v in history] == [0, 1, 0]

    def test_watch_bus_watches_all_bits(self, sim):
        bus = Bus(sim, 4, "b")
        tracer = Tracer()
        tracer.watch(bus)
        assert len(tracer.signals) == 4

    def test_history_requires_watch(self, sim):
        sig = Signal(sim, "s")
        tracer = Tracer()
        with pytest.raises(ValueError):
            tracer.history(sig)

    def test_watch_rejects_non_signal(self, sim):
        tracer = Tracer()
        with pytest.raises(TypeError):
            tracer.watch(42)

    def test_render_produces_waveform(self, sim):
        sig = Signal(sim, "req")
        tracer = Tracer()
        tracer.watch(sig)
        sig.drive(1, delay=200, inertial=False)
        sig.drive(0, delay=400, inertial=False)
        sim.run()
        art = tracer.render(until_ps=600, step_ps=100)
        assert "req" in art
        assert "▔" in art and "▁" in art


class TestActivityMonitor:
    def test_groups_and_transitions(self, sim):
        mon = ActivityMonitor()
        a = Signal(sim, "a")
        b = Signal(sim, "b")
        mon.add("g1", a)
        mon.add("g2", b)
        mon.snapshot()
        a.set(1)
        a.set(0)
        b.set(1)
        assert mon.transitions("g1") == 2
        assert mon.transitions("g2") == 1
        assert mon.transitions() == 3

    def test_snapshot_resets_baseline(self, sim):
        mon = ActivityMonitor()
        sig = Signal(sim, "s")
        mon.add("g", sig)
        sig.set(1)
        mon.snapshot()
        assert mon.transitions("g") == 0
        sig.set(0)
        assert mon.transitions("g") == 1

    def test_add_bus(self, sim):
        mon = ActivityMonitor()
        bus = Bus(sim, 8, "b")
        mon.add("data", bus)
        mon.snapshot()
        bus.set(0xFF)
        assert mon.transitions("data") == 8

    def test_add_iterable_of_signals(self, sim):
        mon = ActivityMonitor()
        sigs = [Signal(sim, f"s{i}") for i in range(3)]
        mon.add("g", sigs)
        mon.snapshot()
        for s in sigs:
            s.set(1)
        assert mon.transitions("g") == 3

    def test_add_rejects_garbage(self, sim):
        mon = ActivityMonitor()
        with pytest.raises(TypeError):
            mon.add("g", 3.14)

    def test_switched_energy_uses_cap_weight(self, sim):
        mon = ActivityMonitor()
        light = Signal(sim, "light", cap_ff=1.0)
        heavy = Signal(sim, "heavy", cap_ff=5.0)
        mon.add("g", light, heavy)
        mon.snapshot()
        light.set(1)
        heavy.set(1)
        assert mon.switched_energy_fj("g") == pytest.approx(6.0)

    def test_switched_energy_scales(self, sim):
        mon = ActivityMonitor()
        sig = Signal(sim, "s")
        mon.add("g", sig)
        mon.snapshot()
        sig.set(1)
        assert mon.switched_energy_fj(
            "g", energy_per_transition_fj=2.5
        ) == pytest.approx(2.5)

    def test_groups_listing(self, sim):
        mon = ActivityMonitor()
        mon.add("alpha", Signal(sim, "a"))
        mon.add("beta", Signal(sim, "b"))
        assert mon.groups == ["alpha", "beta"]
