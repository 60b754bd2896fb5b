"""Discrete-event engine semantics."""

import time

import pytest

from repro.errors import SimulationError
from repro.sim.engine import Simulator, Timer


class TestScheduling:
    def test_clock_starts_at_zero(self, sim):
        assert sim.now == 0

    def test_event_fires_at_scheduled_time(self, sim):
        fired = []
        sim.schedule_fire(1000, lambda: fired.append(sim.now))
        sim.run()
        assert fired == [1000]

    def test_absolute_scheduling(self, sim):
        fired = []
        sim.schedule_fire_at(5_000, lambda: fired.append(sim.now))
        sim.run()
        assert fired == [5000]

    def test_events_fire_in_time_order(self, sim):
        order = []
        sim.schedule_fire(300, lambda: order.append("c"))
        sim.schedule_fire(100, lambda: order.append("a"))
        sim.schedule_fire(200, lambda: order.append("b"))
        sim.run()
        assert order == ["a", "b", "c"]

    def test_ties_fire_in_scheduling_order(self, sim):
        order = []
        for label in "abcde":
            sim.schedule_fire(42, lambda l=label: order.append(l))
        sim.run()
        assert order == list("abcde")

    def test_zero_delay_fires_after_current_instant_events(self, sim):
        order = []

        def first():
            order.append("first")
            sim.schedule_fire(0, lambda: order.append("nested"))

        sim.schedule_fire(10, first)
        sim.schedule_fire(10, lambda: order.append("second"))
        sim.run()
        assert order == ["first", "second", "nested"]

    def test_negative_delay_rejected(self, sim):
        with pytest.raises(SimulationError):
            sim.schedule_fire(-1, lambda: None)

    def test_scheduling_in_past_rejected(self, sim):
        sim.schedule_fire(100, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule_fire_at(50, lambda: None)

    def test_events_scheduled_during_run_execute(self, sim):
        fired = []

        def outer():
            sim.schedule_fire(50, lambda: fired.append(sim.now))

        sim.schedule_fire(100, outer)
        sim.run()
        assert fired == [150]


class TestRunUntil:
    def test_stops_at_boundary(self, sim):
        fired = []
        sim.schedule_fire(100, lambda: fired.append("early"))
        sim.schedule_fire(5000, lambda: fired.append("late"))
        sim.run_until(1000)
        assert fired == ["early"]
        assert sim.now == 1000

    def test_boundary_inclusive(self, sim):
        fired = []
        sim.schedule_fire(1000, lambda: fired.append(sim.now))
        sim.run_until(1000)
        assert fired == [1000]

    def test_clock_advances_to_bound_even_if_idle(self, sim):
        sim.run_until(777)
        assert sim.now == 777

    def test_resume_after_run_until(self, sim):
        fired = []
        sim.schedule_fire(2000, lambda: fired.append(sim.now))
        sim.run_until(1000)
        assert fired == []
        sim.run_until(3000)
        assert fired == [2000]

    def test_max_events_bound(self, sim):
        for i in range(10):
            sim.schedule_fire(i + 1, lambda: None)
        processed = sim.run_until(100, max_events=3)
        assert processed == 3


def armed(sim, delay, callback=lambda: None):
    """A :class:`Timer` started ``delay`` ns from now."""
    timer = Timer(sim, callback)
    timer.start(delay)
    return timer


class TestCancellation:
    """:class:`Timer` is the engine's only cancellable event."""

    def test_cancelled_event_does_not_fire(self, sim):
        fired = []
        armed(sim, 100, lambda: fired.append(1)).stop()
        sim.run()
        assert fired == []

    def test_cancel_is_idempotent(self, sim):
        timer = armed(sim, 100)
        timer.stop()
        timer.stop()
        assert not timer.running
        assert sim.pending_events == 1 and sim.live_events == 0

    def test_cancel_one_of_many(self, sim):
        fired = []
        keep = armed(sim, 100, lambda: fired.append("keep"))
        drop = armed(sim, 100, lambda: fired.append("drop"))
        drop.stop()
        assert keep.running
        sim.run()
        assert fired == ["keep"]

    def test_events_processed_counts_only_fired(self, sim):
        armed(sim, 1)
        armed(sim, 2).stop()
        sim.run()
        assert sim.events_processed == 1


class TestStep:
    def test_step_fires_single_event(self, sim):
        fired = []
        sim.schedule_fire(10, lambda: fired.append("a"))
        sim.schedule_fire(20, lambda: fired.append("b"))
        assert sim.step() is True
        assert fired == ["a"]
        assert sim.now == 10

    def test_step_on_empty_queue(self, sim):
        assert sim.step() is False

    def test_step_skips_cancelled(self, sim):
        fired = []
        armed(sim, 10).stop()
        sim.schedule_fire(20, lambda: fired.append("b"))
        assert sim.step() is True
        assert fired == ["b"]
        assert sim.events_processed == 1


class TestReentrancy:
    def test_reentrant_run_rejected(self, sim):
        def evil():
            sim.run()

        sim.schedule_fire(10, evil)
        with pytest.raises(SimulationError):
            sim.run()


class TestTimer:
    def test_fires_after_delay(self, sim):
        fired = []
        timer = Timer(sim, lambda: fired.append(sim.now))
        timer.start(500)
        sim.run()
        assert fired == [500]

    def test_restart_supersedes(self, sim):
        fired = []
        timer = Timer(sim, lambda: fired.append(sim.now))
        timer.start(500)
        timer.start(900)
        sim.run()
        assert fired == [900]

    def test_stop_prevents_fire(self, sim):
        fired = []
        timer = Timer(sim, lambda: fired.append(1))
        timer.start(500)
        timer.stop()
        sim.run()
        assert fired == []

    def test_running_and_deadline(self, sim):
        timer = Timer(sim, lambda: None)
        assert not timer.running
        assert timer.deadline is None
        timer.start(100)
        assert timer.running
        assert timer.deadline == 100
        sim.run()
        assert not timer.running

    def test_timer_can_rearm_from_callback(self, sim):
        fired = []

        def tick():
            fired.append(sim.now)
            if len(fired) < 3:
                timer.start(100)

        timer = Timer(sim, tick)
        timer.start(100)
        sim.run()
        assert fired == [100, 200, 300]

    def test_stop_idempotent(self, sim):
        timer = Timer(sim, lambda: None)
        timer.stop()
        timer.start(10)
        timer.stop()
        timer.stop()
        sim.run()
        assert not timer.running

    def test_rejected_start_leaves_the_timer_armed(self, sim):
        fired = []
        timer = Timer(sim, lambda: fired.append(sim.now))
        timer.start(100)
        with pytest.raises(SimulationError):
            timer.start(-10)
        assert timer.running
        assert timer.deadline == 100
        sim.run()
        assert fired == [100]


class TestPeakQueueDepth:
    def test_tracks_high_water_mark(self, sim):
        assert sim.peak_queue_depth == 0
        for i in range(5):
            sim.schedule_fire(100 + i, lambda: None)
        assert sim.peak_queue_depth == 5
        sim.run()
        # Draining the queue does not lower the high-water mark.
        assert sim.peak_queue_depth == 5

    def test_counts_events_scheduled_during_run(self, sim):
        def fan_out():
            for i in range(10):
                sim.schedule_fire(1 + i, lambda: None)

        sim.schedule_fire(0, fan_out)
        sim.run()
        assert sim.peak_queue_depth == 10


class TestScheduleFire:
    def test_fires_like_schedule(self, sim):
        fired = []
        sim.schedule_fire(1000, lambda: fired.append(sim.now))
        sim.run()
        assert fired == [1000]

    def test_absolute_variant(self, sim):
        fired = []
        sim.schedule_fire_at(5_000, lambda: fired.append(sim.now))
        sim.run()
        assert fired == [5000]

    def test_interleaves_with_handle_events_in_schedule_order(self, sim):
        order = []
        armed(sim, 42, lambda: order.append("timer1"))
        sim.schedule_fire(42, lambda: order.append("fire"))
        armed(sim, 42, lambda: order.append("timer2"))
        sim.run()
        assert order == ["timer1", "fire", "timer2"]

    def test_negative_delay_rejected(self, sim):
        with pytest.raises(SimulationError):
            sim.schedule_fire(-1, lambda: None)

    def test_past_time_rejected(self, sim):
        sim.schedule_fire(100, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule_fire_at(50, lambda: None)

    def test_counts_in_events_processed(self, sim):
        sim.schedule_fire(1, lambda: None)
        sim.schedule_fire(2, lambda: None)
        sim.run()
        assert sim.events_processed == 2

    def test_step_fires_fire_events(self, sim):
        fired = []
        sim.schedule_fire(10, lambda: fired.append(sim.now))
        assert sim.step() is True
        assert fired == [10]


class TestScheduleCall:
    def test_calls_receiver_with_arg_in_schedule_order(self, sim):
        order = []
        armed(sim, 42, lambda: order.append("timer"))
        sim.schedule_call_at(42, order.append, "call")
        sim.schedule_fire_at(42, lambda: order.append("fire"))
        sim.run()
        assert order == ["timer", "call", "fire"]
        assert sim.events_processed == 3

    def test_step_and_profiler_pass_the_arg(self, sim):
        seen = []

        class Recorder:
            def run(self, fn, *args):
                seen.append(args)
                fn(*args)

        got = []
        sim.set_profiler(Recorder())
        sim.schedule_call_at(5, got.append, 7)
        sim.schedule_call_at(6, got.append, 8)
        assert sim.step()
        sim.run()
        assert got == [7, 8]
        assert seen == [(7,), (8,)]

    def test_past_time_rejected(self, sim):
        sim.schedule_fire(100, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule_call_at(50, print, None)

    def test_counts_toward_depth_and_live_events(self, sim):
        for t in range(10):
            sim.schedule_call_at(100 + t, print, None)
        assert sim.live_events == sim.pending_events == 10
        assert sim.peak_queue_depth == 10


class TestLiveEvents:
    def test_counts_exclude_tombstones(self, sim):
        armed(sim, 10)
        doomed = armed(sim, 20)
        sim.schedule_fire(30, lambda: None)
        doomed.stop()
        assert sim.pending_events == 3
        assert sim.live_events == 2

    def test_drained_queue_reports_zero(self, sim):
        armed(sim, 10).stop()
        sim.run()
        assert sim.pending_events == 0
        assert sim.live_events == 0

    def test_cancel_after_fire_does_not_underreport(self, sim):
        timer = armed(sim, 10)
        sim.run()
        timer.stop()  # too late: the event already fired
        sim.schedule_fire(20, lambda: None)
        assert sim.live_events == 1
        assert sim.pending_events == 1

    def test_double_cancel_counts_once(self, sim):
        armed(sim, 10)
        doomed = armed(sim, 20)
        doomed.stop()
        doomed.stop()
        assert sim.live_events == 1


class TestTombstoneCompaction:
    def test_timer_rearm_churn_keeps_heap_bounded(self, sim):
        timer = Timer(sim, lambda: None)
        for _ in range(10_000):
            timer.start(1_000_000)
        # Each re-arm moves the one heap entry in place: no tombstones.
        assert sim.live_events == 1
        assert sim.pending_events == 1
        assert sim.peak_queue_depth == 1
        sim.run()
        assert sim.events_processed == 1

    def test_compaction_preserves_order_and_liveness(self, sim):
        fired = []
        timers = [
            armed(sim, 1000 + i, lambda i=i: fired.append(i)) for i in range(500)
        ]
        for timer in timers[1::2]:  # cancel every odd event
            timer.stop()
        sim.run()
        assert fired == list(range(0, 500, 2))

    def test_compaction_during_run_is_safe(self, sim):
        """Cancelling en masse from inside a callback compacts the heap
        the drain loop is actively iterating."""
        fired = []
        timers = [
            armed(sim, 2000 + i, lambda i=i: fired.append(i)) for i in range(300)
        ]

        def cancel_most():
            for timer in timers[10:]:
                timer.stop()
            assert sim.pending_events < 300  # compacted mid-run

        sim.schedule_fire(1, cancel_most)
        sim.run()
        assert fired == list(range(10))
        assert sim.pending_events == 0


class TestProfilerDispatch:
    class _Recorder:
        def __init__(self):
            self.calls = []

        def run(self, fn, *args):
            self.calls.append(fn)
            fn(*args)

    def test_profiler_sees_every_dispatch(self, sim):
        profiler = self._Recorder()
        sim.set_profiler(profiler)
        fired = []
        armed(sim, 10, lambda: fired.append("a"))
        sim.schedule_fire(20, lambda: fired.append("b"))
        sim.schedule_fire_many([30, 40], lambda: fired.append("c"))
        sim.run()
        assert fired == ["a", "b", "c", "c"]
        assert len(profiler.calls) == 4

    def test_profiler_applies_to_step(self, sim):
        profiler = self._Recorder()
        sim.set_profiler(profiler)
        armed(sim, 10)
        assert sim.step()
        assert len(profiler.calls) == 1

    def test_cancelled_events_not_profiled(self, sim):
        profiler = self._Recorder()
        sim.set_profiler(profiler)
        armed(sim, 10).stop()
        armed(sim, 20)
        sim.run()
        assert len(profiler.calls) == 1


class TestColumns:
    """A column keeps one heap entry at a time and fires exactly as
    per-event pushes would."""

    N = 100_000

    def _drive(self, column):
        sim = Simulator()
        fired = []

        def fire():
            fired.append(sim.now)
            # A short-lived event that lands before the column's next.
            sim.schedule_fire(3, lambda: fired.append(-sim.now))

        times = list(range(0, self.N * 10, 10))
        start = time.perf_counter()
        if column:
            sim.schedule_fire_many(times, fire)
        else:
            for t in times:
                sim.schedule_fire_at(t, fire)
        sim.run()
        return fired, sim.events_processed, time.perf_counter() - start

    def test_column_matches_per_event_scheduling(self):
        fired, processed, column_s = self._drive(column=True)
        expected, expected_processed, per_event_s = self._drive(column=False)
        assert fired == expected
        assert processed == expected_processed == 2 * self.N
        # Linear, like the heap spelling.
        assert column_s < 5 * per_event_s

    def test_one_heap_entry_and_exact_counts(self, sim):
        n = 10_000
        sim.schedule_fire_many(range(n), lambda: None)
        assert len(sim._queue) == 1
        assert sim.live_events == sim.pending_events == n
        assert sim.peak_queue_depth == n
        for k in range(1, 4):
            assert sim.step()
            assert sim.live_events == sim.pending_events == n - k
        assert sim.run_until(n // 2) == n // 2 + 1 - 3
        assert sim.live_events == sim.pending_events == n - (n // 2 + 1)
        sim.run()
        assert len(sim._queue) == 0
        assert sim.live_events == sim.pending_events == 0
        assert sim.events_processed == n
        assert sim.peak_queue_depth == n

    def test_ties_break_by_reserved_seq(self, sim):
        order = []
        sim.schedule_fire_at(5, lambda: order.append("before"))
        sim.schedule_fire_many([5, 5, 6], lambda: order.append("column"))
        sim.schedule_fire_at(5, lambda: order.append("after"))
        sim.run()
        assert order == ["before", "column", "column", "after", "column"]

    def test_rejects_unsorted_or_past_times(self, sim):
        with pytest.raises(SimulationError):
            sim.schedule_fire_many([3, 2], lambda: None)
        sim.run_until(10)
        with pytest.raises(SimulationError):
            sim.schedule_fire_many([9, 12], lambda: None)
        assert sim.pending_events == 0
