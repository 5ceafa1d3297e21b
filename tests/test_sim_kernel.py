"""Unit tests for the discrete-event kernel."""

import pytest

from repro.sim import SimulationError, Simulator, mhz_period_ps, ns


class TestTimeHelpers:
    def test_ns_converts_to_picoseconds(self):
        assert ns(1.0) == 1000
        assert ns(0.011) == 11
        assert ns(3.333) == 3333

    def test_ns_rounds_to_nearest(self):
        assert ns(0.0114) == 11
        assert ns(0.0116) == 12

    def test_ns_rejects_negative(self):
        with pytest.raises(ValueError):
            ns(-1.0)

    def test_mhz_period_100(self):
        assert mhz_period_ps(100) == 10_000

    def test_mhz_period_300(self):
        assert mhz_period_ps(300) == 3333

    def test_mhz_period_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            mhz_period_ps(0)
        with pytest.raises(ValueError):
            mhz_period_ps(-5)


class TestScheduling:
    def test_events_run_in_time_order(self):
        sim = Simulator()
        order = []
        sim.schedule(30, lambda: order.append("c"))
        sim.schedule(10, lambda: order.append("a"))
        sim.schedule(20, lambda: order.append("b"))
        sim.run()
        assert order == ["a", "b", "c"]

    def test_same_time_events_run_fifo(self):
        sim = Simulator()
        order = []
        for tag in "abcde":
            sim.schedule(5, lambda t=tag: order.append(t))
        sim.run()
        assert order == list("abcde")

    def test_now_advances_with_events(self):
        sim = Simulator()
        seen = []
        sim.schedule(100, lambda: seen.append(sim.now))
        sim.schedule(250, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [100, 250]

    def test_schedule_negative_delay_raises(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule(-1, lambda: None)

    def test_call_at_past_raises(self):
        """An absolute time already passed reaches the kernel as a
        negative delay and is rejected."""
        sim = Simulator()
        sim.schedule(100, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule(50 - sim.now, lambda: None)

    def test_events_can_schedule_events(self):
        sim = Simulator()
        seen = []

        def first():
            seen.append(sim.now)
            sim.schedule(50, lambda: seen.append(sim.now))

        sim.schedule(10, first)
        sim.run()
        assert seen == [10, 60]

    def test_zero_delay_event_runs_at_same_time(self):
        sim = Simulator()
        times = []
        sim.schedule(10, lambda: sim.schedule(0, lambda: times.append(sim.now)))
        sim.run()
        assert times == [10]


class TestRun:
    def test_run_until_stops_before_horizon_events(self):
        sim = Simulator()
        seen = []
        sim.schedule(100, lambda: seen.append(100))
        sim.schedule(200, lambda: seen.append(200))
        sim.run(until=150)
        assert seen == [100]
        assert sim.now == 150

    def test_run_until_excludes_boundary_event(self):
        sim = Simulator()
        seen = []
        sim.schedule(150, lambda: seen.append(150))
        sim.run(until=150)
        assert seen == []
        # the event is still pending and fires on the next run
        sim.run()
        assert seen == [150]

    def test_run_advances_to_horizon_with_empty_queue(self):
        sim = Simulator()
        sim.run(until=500)
        assert sim.now == 500

    def test_run_returns_executed_count(self):
        sim = Simulator()
        for i in range(5):
            sim.schedule(i + 1, lambda: None)
        assert sim.run() == 5

    def test_max_events_budget_raises_on_livelock(self):
        sim = Simulator()

        def spin():
            sim.schedule(1, spin)

        sim.schedule(1, spin)
        with pytest.raises(SimulationError, match="budget"):
            sim.run(max_events=100)

    def test_stop_halts_run(self):
        sim = Simulator()
        seen = []

        def first_then_stop():
            seen.append(1)
            sim.stop()

        sim.schedule(10, first_then_stop)
        sim.schedule(20, lambda: seen.append(2))
        sim.run()
        assert seen == [1]
        # the second event remains queued
        assert sim.pending_events == 1

    def test_step_clears_stale_stop_flag(self):
        """Each run() starts a fresh execution: a stop() from an earlier
        run must not leak into it."""
        sim = Simulator()
        seen = []

        def first_then_stop():
            seen.append(1)
            sim.stop()

        sim.schedule(10, first_then_stop)
        sim.schedule(20, lambda: seen.append(2))
        sim.run()
        assert seen == [1]
        assert sim.run() == 1
        assert seen == [1, 2]

    def test_run_not_reentrant(self):
        sim = Simulator()
        errors = []

        def recurse():
            try:
                sim.run()
            except SimulationError as exc:
                errors.append(exc)

        sim.schedule(1, recurse)
        sim.run()
        assert len(errors) == 1

    def test_run_releases_guard_after_callback_raises(self):
        sim = Simulator()

        def boom():
            raise RuntimeError("callback failed")

        sim.schedule(1, boom)
        with pytest.raises(RuntimeError):
            sim.run()
        # the guard must not stay latched
        sim.schedule(1, lambda: None)
        assert sim.run() == 1

    def test_run_ns_horizon(self):
        sim = Simulator()
        sim.run_ns(2.5)
        assert sim.now == 2500

    def test_drain_empties_queue(self):
        sim = Simulator()
        for i in range(10):
            sim.schedule(i + 1, lambda: None)
        sim.run(max_events=1_000_000)
        assert sim.pending_events == 0

    def test_events_executed_accumulates(self):
        sim = Simulator()
        sim.schedule(1, lambda: None)
        sim.schedule(2, lambda: None)
        sim.run()
        assert sim.events_executed == 2


class TestCancellation:
    """True event cancellation (used by inertial drives)."""

    def test_cancelled_event_never_executes(self):
        sim = Simulator()
        seen = []
        handle = sim.schedule(10, lambda: seen.append("dead"))
        sim.schedule(20, lambda: seen.append("live"))
        assert sim.cancel(handle) is True
        assert sim.run() == 1
        assert seen == ["live"]
        assert sim.events_executed == 1
        assert sim.events_cancelled == 1

    def test_cancel_is_idempotent(self):
        sim = Simulator()
        handle = sim.schedule(10, lambda: None)
        assert sim.cancel(handle) is True
        assert sim.cancel(handle) is False
        assert sim.cancel(None) is False
        assert sim.pending_events == 0

    def test_cancel_after_execution_is_a_noop(self):
        sim = Simulator()
        handle = sim.schedule(10, lambda: None)
        sim.run()
        assert sim.cancel(handle) is False
        assert sim.events_cancelled == 0

    def test_pending_events_counts_live_only(self):
        sim = Simulator()
        handles = [sim.schedule(10 * (i + 1), lambda: None) for i in range(5)]
        assert sim.pending_events == 5
        sim.cancel(handles[0])
        sim.cancel(handles[3])
        assert sim.pending_events == 3

    def test_zero_or_negative_budget_trips_on_first_event(self):
        """max_events=0 must stay a (degenerate) budget, not turn into
        'unlimited' — seed raised after the first executed event."""
        for budget in (0, -3):
            sim = Simulator()
            sim.schedule(1, lambda: None)
            sim.schedule(2, lambda: None)
            with pytest.raises(SimulationError, match="budget"):
                sim.run(max_events=budget)
            assert sim.events_executed == 1

    def test_budget_ignores_cancelled_events(self):
        """Satellite regression: a pulse-heavy net superseding hundreds
        of drives must not spuriously trip the livelock guard."""
        sim = Simulator()
        seen = []
        stale = [sim.schedule(50, lambda: seen.append("stale"))
                 for _ in range(200)]
        for handle in stale:
            sim.cancel(handle)
        sim.schedule(50, lambda: seen.append("fresh"))
        # budget of 2 would be exhausted instantly if dead events counted
        assert sim.run(max_events=2) == 1
        assert seen == ["fresh"]

    def test_far_band_cancellation(self):
        sim = Simulator()
        seen = []
        far_delay = Simulator.NEAR_WINDOW * 3 + 17
        handle = sim.schedule(far_delay, lambda: seen.append("far-dead"))
        sim.schedule(far_delay + 1, lambda: seen.append("far-live"))
        sim.cancel(handle)
        sim.run()
        assert seen == ["far-live"]
        assert sim.now == far_delay + 1


class TestTwoLevelScheduler:
    """The near-calendar / far-heap split must be invisible."""

    def test_order_preserved_across_the_horizon(self):
        sim = Simulator()
        order = []
        window = Simulator.NEAR_WINDOW
        times = [window - 2, window - 1, window, window + 1,
                 3 * window + 5, 2 * window]
        for t in times:
            sim.schedule(t, lambda t=t: order.append(t))
        sim.run()
        assert order == sorted(times)

    def test_same_timestamp_fifo_in_far_band(self):
        sim = Simulator()
        order = []
        when = Simulator.NEAR_WINDOW * 2 + 100
        for tag in "abcde":
            sim.schedule(when, lambda t=tag: order.append(t))
        sim.run()
        assert order == list("abcde")

    def test_callbacks_scheduling_into_far_band(self):
        sim = Simulator()
        seen = []

        def hop():
            seen.append(sim.now)
            if len(seen) < 5:
                sim.schedule(Simulator.NEAR_WINDOW + 3, hop)

        sim.schedule(1, hop)
        sim.run()
        assert seen == [1 + i * (Simulator.NEAR_WINDOW + 3)
                        for i in range(5)]

    def test_run_until_with_only_far_events(self):
        sim = Simulator()
        seen = []
        when = Simulator.NEAR_WINDOW * 4
        sim.schedule(when, lambda: seen.append(when))
        sim.run(until=1000)
        assert sim.now == 1000
        assert seen == []
        sim.run()
        assert seen == [when]


class TestCancelledTime:
    """run() advances ``now`` through cancelled events, as the seed
    kernel advanced it by executing them as no-ops."""

    def test_run_ends_at_trailing_cancelled_events(self):
        sim = Simulator()
        sim.schedule(100, lambda: None)
        dead = sim.schedule(150, lambda: None)
        sim.cancel(dead)
        assert sim.run() == 1
        assert sim.now == 150

    def test_run_ends_at_dead_multi_bucket(self):
        sim = Simulator()
        sim.schedule(10, lambda: None)
        dead = [sim.schedule(90, lambda: None) for _ in range(3)]
        for handle in dead:
            sim.cancel(handle)
        assert sim.run() == 1
        assert sim.now == 90
