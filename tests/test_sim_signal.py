"""Unit tests for signals and buses."""

import pytest

from repro.sim import Bus, Signal, Simulator


@pytest.fixture
def sim():
    return Simulator()


class TestSignal:
    def test_initial_value(self, sim):
        assert Signal(sim, "s").value == 0
        assert Signal(sim, "s", init=1).value == 1

    def test_rejects_bad_init(self, sim):
        with pytest.raises(ValueError):
            Signal(sim, "s", init=2)

    def test_set_changes_value(self, sim):
        sig = Signal(sim, "s")
        sig.set(1)
        assert sig.value == 1
        sig.set(0)
        assert sig.value == 0

    def test_set_normalizes_truthy(self, sim):
        sig = Signal(sim, "s")
        sig.set(5)
        assert sig.value == 1

    def test_transition_counting(self, sim):
        sig = Signal(sim, "s")
        sig.set(1)
        sig.set(0)
        sig.set(1)
        assert sig.rising == 2
        assert sig.falling == 1
        assert sig.transitions == 3

    def test_redundant_set_does_not_count(self, sim):
        sig = Signal(sim, "s")
        sig.set(0)
        sig.set(0)
        assert sig.transitions == 0

    def test_reset_activity(self, sim):
        sig = Signal(sim, "s")
        sig.set(1)
        sig.reset_activity()
        assert sig.transitions == 0

    def test_listener_called_on_change(self, sim):
        sig = Signal(sim, "s")
        calls = []
        sig.on_change(lambda s: calls.append(s.value))
        sig.set(1)
        sig.set(1)  # no change, no call
        sig.set(0)
        assert calls == [1, 0]

    def test_remove_listener(self, sim):
        sig = Signal(sim, "s")
        calls = []
        listener = lambda s: calls.append(s.value)  # noqa: E731
        sig.on_change(listener)
        sig.set(1)
        sig.remove_listener(listener)
        sig.set(0)
        assert calls == [1]

    def test_drive_with_delay(self, sim):
        sig = Signal(sim, "s")
        sig.drive(1, delay=100)
        assert sig.value == 0
        sim.run()
        assert sig.value == 1
        assert sim.now == 100

    def test_inertial_drive_cancels_pending(self, sim):
        sig = Signal(sim, "s")
        sig.drive(1, delay=100, inertial=True)
        sig.drive(0, delay=50, inertial=True)  # cancels the first
        sim.run()
        assert sig.value == 0
        assert sig.rising == 0  # the 1-pulse never appeared

    def test_transport_drive_keeps_all_events(self, sim):
        sig = Signal(sim, "s")
        sig.drive(1, delay=50, inertial=False)
        sig.drive(0, delay=100, inertial=False)
        sim.run()
        assert sig.value == 0
        assert sig.rising == 1
        assert sig.falling == 1

    def test_pulse(self, sim):
        sig = Signal(sim, "s")
        sig.pulse(width=30, delay=10)
        edges = []
        sig.on_change(lambda s: edges.append((sim.now, s.value)))
        sim.run()
        assert edges == [(10, 1), (40, 0)]

    def test_trace_records_changes(self, sim):
        sig = Signal(sim, "s")
        sig.enable_trace()
        sig.set(1)
        sig.drive(0, delay=20)
        sim.run()
        assert sig.trace == [(0, 0), (0, 1), (20, 0)]

    def test_listeners_may_add_listeners(self, sim):
        """A gate constructed inside a callback must not break iteration."""
        sig = Signal(sim, "s")
        calls = []

        def adder(s):
            calls.append("outer")
            sig.on_change(lambda s2: calls.append("inner"))

        sig.on_change(adder)
        sig.set(1)  # must not raise
        assert calls == ["outer"]


class TestBus:
    def test_width_and_value(self, sim):
        bus = Bus(sim, 8, "b", init=0xA5)
        assert len(bus) == 8
        assert bus.value == 0xA5

    def test_rejects_bad_width(self, sim):
        with pytest.raises(ValueError):
            Bus(sim, 0, "b")

    def test_rejects_init_overflow(self, sim):
        with pytest.raises(ValueError):
            Bus(sim, 4, "b", init=16)

    def test_set_value(self, sim):
        bus = Bus(sim, 32, "b")
        bus.set(0xDEADBEEF)
        assert bus.value == 0xDEADBEEF

    def test_set_rejects_overflow(self, sim):
        bus = Bus(sim, 8, "b")
        with pytest.raises(ValueError):
            bus.set(256)
        with pytest.raises(ValueError):
            bus.set(-1)

    def test_drive_with_delay(self, sim):
        bus = Bus(sim, 8, "b")
        bus.drive(0xFF, delay=10)
        sim.run()
        assert bus.value == 0xFF

    def test_bit_indexing_is_lsb_first(self, sim):
        bus = Bus(sim, 8, "b", init=0x01)
        assert bus[0].value == 1
        assert bus[7].value == 0

    def test_slice_matches_paper_notation(self, sim):
        """bus.slice(8, 15) is the paper's DIN(15:8)."""
        bus = Bus(sim, 32, "b", init=0x00A50000)
        byte2 = bus.slice(16, 23)
        value = sum(sig.value << i for i, sig in enumerate(byte2))
        assert value == 0xA5

    def test_slice_out_of_range(self, sim):
        bus = Bus(sim, 8, "b")
        with pytest.raises(ValueError):
            bus.slice(4, 8)
        with pytest.raises(ValueError):
            bus.slice(5, 4)

    def test_transitions_accumulate_over_bits(self, sim):
        bus = Bus(sim, 8, "b")
        bus.set(0xFF)  # 8 rising
        bus.set(0x00)  # 8 falling
        assert bus.transitions == 16

    def test_reset_activity(self, sim):
        bus = Bus(sim, 4, "b")
        bus.set(0xF)
        bus.reset_activity()
        assert bus.transitions == 0

    def test_worst_case_pattern_toggles_every_bit(self, sim):
        bus = Bus(sim, 32, "b")
        bus.set(0xA5A5A5A5)
        before = bus.transitions
        bus.set(0x5A5A5A5A)
        assert bus.transitions - before == 32

    def test_on_change_fires_per_bit(self, sim):
        bus = Bus(sim, 4, "b")
        calls = []
        bus.on_change(lambda s: calls.append(s.name))
        bus.set(0b0101)
        assert len(calls) == 2

    def test_from_signals_view(self, sim):
        bus = Bus(sim, 16, "b", init=0xBEEF)
        view = Bus.from_signals(sim, bus.slice(8, 15), "hi")
        assert view.width == 8
        assert view.value == 0xBE
        # the view aliases, so writes are visible through the parent
        view.set(0x12)
        assert bus.value == 0x12EF

    def test_from_signals_rejects_empty(self, sim):
        with pytest.raises(ValueError):
            Bus.from_signals(sim, [], "empty")


class TestForce:
    """Stuck-at fault injection / testbench overrides."""

    def test_force_pins_value(self, sim):
        sig = Signal(sim, "s")
        sig.force(1)
        sig.set(0)
        assert sig.value == 1
        assert sig.is_forced

    def test_drive_ignored_while_forced(self, sim):
        sig = Signal(sim, "s")
        sig.force(0)
        sig.drive(1, delay=50)
        sim.run()
        assert sig.value == 0

    def test_release_restores_drivers(self, sim):
        sig = Signal(sim, "s")
        sig.force(1)
        sig.release()
        sig.set(0)
        assert sig.value == 0
        assert not sig.is_forced

    def test_force_notifies_listeners(self, sim):
        sig = Signal(sim, "s")
        calls = []
        sig.on_change(lambda s: calls.append(s.value))
        sig.force(1)
        assert calls == [1]

    def test_force_same_value_is_silent(self, sim):
        sig = Signal(sim, "s", init=1)
        calls = []
        sig.on_change(lambda s: calls.append(s.value))
        sig.force(1)
        assert calls == []

    def test_force_is_atomic_to_listeners(self, sim):
        """Satellite regression: the seed cleared the force flag while
        notifying, so listeners observed a glitch ordering (an unforced
        net mid-force).  Listeners must see the force already applied."""
        sig = Signal(sim, "s")
        observed = []

        def listener(s):
            observed.append((s.value, s.is_forced))
            # a driver reacting inside the notification must not be able
            # to flip the net back mid-force
            s.set(0)

        sig.on_change(listener)
        sig.force(1)
        assert observed == [(1, True)]
        assert sig.value == 1

    def test_pending_drive_blocked_while_forced(self, sim):
        sig = Signal(sim, "s")
        sig.drive(1, delay=100, inertial=True)
        sig.force(0)
        sim.run()
        assert sig.value == 0  # the apply matured but was force-blocked

    def test_pending_drive_survives_force_released_before_maturity(self, sim):
        """Seed semantics: a drive in flight when the net is forced must
        still apply if the force is released before it matures."""
        sig = Signal(sim, "s")
        sig.drive(1, delay=100, inertial=True)
        sim.run(until=10)
        sig.force(0)
        sim.run(until=50)
        sig.release()
        sim.run()
        assert sig.value == 1

    def test_stuck_at_fault_through_gate_chain(self, sim):
        """Stuck-at fault injection: forcing a mid-chain net pins the
        chain output regardless of input activity; releasing restores
        normal propagation."""
        from repro.elements.gates import Inverter

        a = Signal(sim, "a")
        inv1 = Inverter(sim, a, name="inv1")
        inv2 = Inverter(sim, inv1.output, name="inv2")
        inv3 = Inverter(sim, inv2.output, name="inv3")
        sim.run()
        assert inv3.output.value == 1  # three inversions of 0

        inv2.output.force(0)  # stuck-at-0 on the middle net
        a.set(1)
        sim.run()
        assert inv2.output.value == 0
        assert inv3.output.value == 1  # follows the stuck net, not a

        a.set(0)
        sim.run()
        a.set(1)
        sim.run()
        assert inv3.output.value == 1  # still pinned

        inv2.output.release()
        a.set(0)
        sim.run()
        a.set(1)
        sim.run()
        # normal propagation again: inv2 = not(not 1) = 1 → inv3 = 0
        assert inv2.output.value == 1
        assert inv3.output.value == 0


class TestInertialCancellation:
    """Superseded inertial drives are cancelled at kernel level."""

    def test_superseded_drive_leaves_no_pending_event(self, sim):
        sig = Signal(sim, "s")
        sig.drive(1, delay=100, inertial=True)
        sig.drive(0, delay=50, inertial=True)
        # the superseded event is gone, and its successor drives the
        # value the net holds, so it is elided instead of queued
        assert sim.pending_events == 0
        sim.run()
        assert sim.events_executed == 0
        assert sim.events_cancelled == 1
        assert sim.drives_elided == 1

    def test_zero_delay_inertial_cancels_pending(self, sim):
        sig = Signal(sim, "s")
        sig.drive(1, delay=100, inertial=True)
        sig.drive(0, delay=0, inertial=True)  # applies now, kills pending
        assert sim.pending_events == 0
        sim.run()
        assert sig.value == 0
        assert sig.rising == 0

    def test_transport_drives_not_cancelled_by_inertial(self, sim):
        sig = Signal(sim, "s")
        sig.drive(1, delay=50, inertial=False)
        sig.drive(0, delay=100, inertial=True)
        # the inertial drive holds the net's value: a shadow until the
        # transport edge at t=50 revives it into a real event
        assert sim.pending_events == 1
        sim.run()
        assert sig.rising == 1
        assert sig.falling == 1

    def test_pulse_storm_executes_single_event(self, sim):
        sig = Signal(sim, "s")
        for i in range(500):
            sig.drive(i & 1, delay=80, inertial=True)
        assert sim.pending_events == 1
        sim.run(max_events=3)  # only the surviving drive counts
        assert sig.value == 1
        assert sig.transitions == 1
