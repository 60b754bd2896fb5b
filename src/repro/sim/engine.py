"""Discrete-event simulation engine.

A :class:`Simulator` owns the virtual clock (integer nanoseconds) and a
binary-heap event queue.  Events are ``(time, sequence, payload)`` or
``(time, sequence, receiver, arg)`` tuples; the monotonically increasing
sequence number breaks ties so that two events scheduled for the same
instant fire in scheduling order, which keeps runs deterministic.

Three scheduling surfaces share the queue:

* :meth:`Simulator.schedule` / :meth:`Simulator.schedule_at` return an
  :class:`EventHandle` that supports cancellation — protocol timers
  (retransmission, delayed ACKs) need to disarm.
* :meth:`Simulator.schedule_fire` / :meth:`Simulator.schedule_fire_at`
  are the fire-and-forget fast path: the bare callback is pushed onto the
  heap with no handle object at all.  One-shot sends never cancel, so
  they skip the allocation entirely.
* :meth:`Simulator.schedule_call_at` pushes ``receiver(arg)`` the same
  way without a closure: each packet a pipe delivers — the bulk of a
  simulation's events — is one such entry.

Cancellation is handled with tombstones: :meth:`EventHandle.cancel` marks
the entry dead and the main loop skips it, avoiding O(n) heap surgery.
The simulator counts live tombstones and compacts the heap in place when
more than half of the queued entries are dead.  :attr:`Simulator.live_events`
excludes tombstones; :attr:`Simulator.pending_events` includes them.

A :class:`Timer` re-armed to a later deadline (a retransmit timer bumped
on every ACK) moves its handle in place: the handle takes the live
``(time, seq)`` a push would have used, and its heap entry keeps the old,
earlier key until it reaches the head, where it is re-filed under the
live key before anything could overtake it.  A re-file is not an event.
So timer re-arms add no heap entries, and tombstones come only from
:meth:`Timer.stop` and :meth:`EventHandle.cancel`.

A sorted *column* of fire times sharing one callback
(:meth:`Simulator.schedule_fire_many`) is kept in a side "run lane" (one
entry per column, not per event) and merged against the heap in
bisect-bounded chunks; a scheduling version counter forces a re-merge
whenever a callback schedules work that could precede the chunk's end,
so ordering stays exactly what per-event pushes would have produced.

Example
-------
>>> sim = Simulator()
>>> fired = []
>>> _ = sim.schedule(1000, lambda: fired.append(sim.now))
>>> sim.run()
>>> fired
[1000]
"""

from __future__ import annotations

import gc
import heapq
from bisect import bisect_left, bisect_right
from typing import Any, Callable, List, Optional, Sequence

from repro.errors import SimulationError

#: Compaction is skipped below this queue size — rebuilding a tiny heap
#: costs more than skipping a handful of tombstones at pop time.
_COMPACT_MIN_QUEUE = 64

#: Most run-lane entries one chunk copies out of its column.  A callback
#: that schedules anything ends the chunk, so the copy is wasted work
#: bounded by this — not by the column's whole remainder.
_RUN_CHUNK = 256


class EventHandle:
    """A scheduled event that can be cancelled before it fires.

    Returned by :meth:`Simulator.schedule` and :meth:`Simulator.schedule_at`.
    ``time`` and ``seq`` are the live deadline and tie-breaker, which a
    :class:`Timer` may move later than the key of the handle's heap entry.
    """

    __slots__ = ("time", "seq", "callback", "_cancelled", "_slot", "_sim")

    def __init__(self, time: int, seq: int, callback: Callable[[], None], sim=None):
        self.time = time
        self.seq = seq
        self.callback = callback
        self._cancelled = False
        # Time of this handle's heap entry; None once popped or compacted
        # away.  Each handle has at most one entry in the heap.
        self._slot = time
        self._sim = sim

    def cancel(self) -> None:
        """Prevent the event from firing.  Idempotent."""
        if self._cancelled or self._slot is None:
            return
        self._cancelled = True
        self.callback = _NOOP  # free closure references promptly
        sim = self._sim
        if sim is not None:
            sim._note_tombstone()

    @property
    def cancelled(self) -> bool:
        """Whether :meth:`cancel` was called before the event fired."""
        return self._cancelled

    def __repr__(self) -> str:
        state = "cancelled" if self._cancelled else "pending"
        return "EventHandle(t=%d, seq=%d, %s)" % (self.time, self.seq, state)


def _NOOP() -> None:
    return None


class Simulator:
    """Deterministic discrete-event loop with an integer-nanosecond clock.

    The simulator never advances time on its own: it jumps from event to
    event.  ``run_until`` bounds the clock, which is how experiment
    durations are expressed.
    """

    def __init__(self) -> None:
        self._now = 0
        self._seq = 0
        # (time, seq, EventHandle) for cancellable events,
        # (time, seq, bare callback) for fire-and-forget ones,
        # (time, seq, receiver, arg) for schedule_call_at.
        self._queue: List[tuple] = []
        self._tombstones = 0
        self._running = False
        self._events_processed = 0
        self._peak_queue_depth = 0
        # Run lane: unordered list of [next_time, next_seq, idx, times,
        # callback] columns from schedule_fire_many.  Scanned with min()
        # (columns are few); entries are mutated in place as they drain.
        self._runs: List[list] = []
        self._run_pending = 0
        # Bumped by pushes that could precede a running chunk's bound;
        # chunked drains re-merge when a callback dirtied the schedule.
        self._version = 0
        #: Optional observer with a ``run(fn, *args)`` method; when set,
        #: every event dispatch routes through it (see
        #: :class:`repro.obs.profiler.EngineProfiler`).  The profiler
        #: observes only — it never touches the clock or the queue.
        self._profiler = None

    @property
    def now(self) -> int:
        """Current virtual time in nanoseconds."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Total events fired so far (for throughput benchmarks)."""
        return self._events_processed

    @property
    def pending_events(self) -> int:
        """Events still queued, **including** cancelled tombstones.

        This over-reports outstanding work when restartable timers have
        left tombstones behind; use :attr:`live_events` for the number of
        events that will actually fire.
        """
        return len(self._queue) + self._run_pending

    @property
    def live_events(self) -> int:
        """Events still queued that will actually fire (no tombstones).

        Every packet in flight on a pipe is one of these.
        """
        return len(self._queue) - self._tombstones + self._run_pending

    @property
    def peak_queue_depth(self) -> int:
        """High-water mark of the event queue (simulation cost metric)."""
        return self._peak_queue_depth

    def _live_head(self) -> Optional[tuple]:
        """The heap's first live entry, or None when the heap is empty.

        Discards cancelled heads and re-files a head whose timer moved
        later under its live key; neither is an event.
        """
        queue = self._queue
        while queue:
            head = queue[0]
            payload = head[2]
            if payload.__class__ is not EventHandle:
                return head
            if payload._cancelled:
                heapq.heappop(queue)
                payload._slot = None
                self._tombstones -= 1
            elif head[1] != payload.seq:
                heapq.heapreplace(queue, (payload.time, payload.seq, payload))
                payload._slot = payload.time
            else:
                return head
        return None

    def set_profiler(self, profiler) -> None:
        """Install (or remove, with None) a per-event dispatch observer."""
        self._profiler = profiler

    def schedule(self, delay: int, callback: Callable[[], None]) -> EventHandle:
        """Schedule ``callback`` to fire ``delay`` ns from now.

        ``delay`` must be non-negative; zero-delay events fire after all
        events already scheduled for the current instant.
        """
        if delay < 0:
            raise SimulationError("cannot schedule %d ns in the past" % delay)
        return self.schedule_at(self._now + delay, callback)

    def schedule_at(self, time: int, callback: Callable[[], None]) -> EventHandle:
        """Schedule ``callback`` at absolute virtual time ``time``."""
        if time < self._now:
            raise SimulationError(
                "cannot schedule at t=%d, already at t=%d" % (time, self._now)
            )
        self._seq += 1
        self._version += 1
        handle = EventHandle(time, self._seq, callback, self)
        heapq.heappush(self._queue, (time, self._seq, handle))
        # _note_push() inlined: the push sites are the engine's hottest.
        depth = len(self._queue) + self._run_pending
        if depth > self._peak_queue_depth:
            self._peak_queue_depth = depth
        return handle

    def schedule_fire(self, delay: int, callback: Callable[[], None]) -> None:
        """Fire-and-forget :meth:`schedule`: no :class:`EventHandle`.

        For events that are never cancelled (one-shot sends, server
        responses) this skips the handle allocation on the hot path.
        There is no way to cancel the event once scheduled.
        """
        if delay < 0:
            raise SimulationError("cannot schedule %d ns in the past" % delay)
        self.schedule_fire_at(self._now + delay, callback)

    def schedule_fire_at(self, time: int, callback: Callable[[], None]) -> None:
        """Fire-and-forget :meth:`schedule_at`: no :class:`EventHandle`."""
        if time < self._now:
            raise SimulationError(
                "cannot schedule at t=%d, already at t=%d" % (time, self._now)
            )
        self._seq += 1
        self._version += 1
        heapq.heappush(self._queue, (time, self._seq, callback))
        depth = len(self._queue) + self._run_pending
        if depth > self._peak_queue_depth:
            self._peak_queue_depth = depth

    def schedule_call_at(
        self, time: int, receiver: Callable[[Any], None], arg: Any
    ) -> None:
        """Fire-and-forget ``receiver(arg)`` at absolute time ``time``.

        One heap entry and no closure per event: a pipe schedules each
        packet's delivery this way.  ``_version`` is bumped only when the
        entry lands at the heap head — a run-lane chunk is bounded by the
        head, so an entry behind it cannot precede anything the chunk
        fires, and need not cut it short.
        """
        if time < self._now:
            raise SimulationError(
                "cannot schedule at t=%d, already at t=%d" % (time, self._now)
            )
        self._seq += 1
        queue = self._queue
        entry = (time, self._seq, receiver, arg)
        heapq.heappush(queue, entry)
        if queue[0] is entry:
            self._version += 1
        depth = len(queue) + self._run_pending
        if depth > self._peak_queue_depth:
            self._peak_queue_depth = depth

    def _note_push(self) -> None:
        """Peak bookkeeping after any push (heap or run lane)."""
        depth = len(self._queue) + self._run_pending
        if depth > self._peak_queue_depth:
            self._peak_queue_depth = depth

    def schedule_fire_many(
        self, times: Sequence[int], callback: Callable[[], None]
    ) -> None:
        """Schedule a sorted column of fire-and-forget events at once.

        ``times`` are absolute timestamps, non-decreasing, none in the
        past.  The whole column costs one run-lane entry instead of
        ``len(times)`` heap pushes; consecutive sequence numbers are
        reserved so ties against heap events break exactly as if each
        event had been pushed individually at call time.  The list is
        owned by the simulator after the call — don't mutate it.
        """
        n = len(times)
        if n == 0:
            return
        col = list(times)
        if col[0] < self._now:
            raise SimulationError(
                "cannot schedule at t=%d, already at t=%d" % (col[0], self._now)
            )
        if n > 1 and col != sorted(col):
            raise SimulationError("schedule_fire_many times must be non-decreasing")
        base = self._seq + 1
        self._seq += n
        self._version += 1
        self._runs.append([col[0], base, 0, col, callback])
        self._run_pending += n
        self._note_push()

    def run(self, max_events: Optional[int] = None) -> int:
        """Run until the queue drains (or ``max_events`` fire).

        Returns the number of events processed by this call.
        """
        pause = gc.isenabled()
        if pause:
            gc.disable()
        try:
            return self._drain(until=None, max_events=max_events)
        finally:
            if pause:
                gc.enable()

    def run_until(self, time: int, max_events: Optional[int] = None) -> int:
        """Run events with timestamps ``<= time``; clock ends at ``time``.

        Events scheduled beyond ``time`` stay queued, so simulations can be
        resumed with further ``run_until`` calls.

        The cyclic garbage collector is paused for the duration of the
        drain (as in :meth:`run`): the hot path allocates heavily but
        creates no cycles, and generation scans were measured at ~15% of
        wall time on packet-bound runs.  Anything cyclic the simulation
        built up is reclaimed by the re-enabled collector afterwards.
        """
        pause = gc.isenabled()
        if pause:
            gc.disable()
        try:
            processed = self._drain(until=time, max_events=max_events)
        finally:
            if pause:
                gc.enable()
        if self._now < time:
            self._now = time
        return processed

    def step(self) -> bool:
        """Fire the single next live event.  Returns False if none remain."""
        head = self._live_head()
        runs = self._runs
        if runs:
            run = runs[0] if len(runs) == 1 else min(runs)
            if head is None or (run[0], run[1]) < (head[0], head[1]):
                self._fire_run_event(run)
                return True
        if head is None:
            return False
        heapq.heappop(self._queue)
        payload = head[2]
        if payload.__class__ is EventHandle:
            payload._slot = None
            payload = payload.callback
        args = head[3:]
        self._now = head[0]
        self._events_processed += 1
        if self._profiler is None:
            payload(*args)
        else:
            self._profiler.run(payload, *args)
        return True

    def _fire_run_event(self, run: list) -> None:
        """Fire exactly the head event of one run-lane column."""
        times = run[3]
        idx = run[2]
        self._now = times[idx]
        self._run_pending -= 1
        idx += 1
        if idx >= len(times):
            self._runs.remove(run)
        else:
            run[0] = times[idx]
            run[1] += 1
            run[2] = idx
        self._events_processed += 1
        callback = run[4]
        if self._profiler is None:
            callback()
        else:
            self._profiler.run(callback)

    def _drain(self, until: Optional[int], max_events: Optional[int]) -> int:
        if self._running:
            raise SimulationError("re-entrant run() call")
        self._running = True
        processed = 0
        queue = self._queue
        runs = self._runs
        heappop = heapq.heappop
        heapreplace = heapq.heapreplace
        profiler = self._profiler
        handle_class = EventHandle
        try:
            while True:
                # Settle the heap head first (_live_head, inlined), so the
                # run-lane merge below compares live keys.
                if queue:
                    entry = queue[0]
                    payload = entry[2]
                    is_handle = payload.__class__ is handle_class
                    if is_handle:
                        if payload._cancelled:
                            heappop(queue)
                            payload._slot = None
                            self._tombstones -= 1
                            continue
                        if entry[1] != payload.seq:
                            heapreplace(queue, (payload.time, payload.seq, payload))
                            payload._slot = payload.time
                            continue
                elif not runs:
                    break
                if runs:
                    run = runs[0] if len(runs) == 1 else min(runs)
                    if not queue or (run[0], run[1]) < (entry[0], entry[1]):
                        if until is not None and run[0] > until:
                            break
                        if max_events is not None and processed >= max_events:
                            break
                        processed += self._fire_run_chunk(
                            run, until, max_events, processed, profiler
                        )
                        continue
                if until is not None and entry[0] > until:
                    break
                if max_events is not None and processed >= max_events:
                    break
                heappop(queue)
                self._now = entry[0]
                if is_handle:
                    payload._slot = None
                    payload = payload.callback
                if len(entry) == 4:
                    if profiler is None:
                        payload(entry[3])
                    else:
                        profiler.run(payload, entry[3])
                elif profiler is None:
                    payload()
                else:
                    profiler.run(payload)
                processed += 1
        finally:
            self._running = False
            self._events_processed += processed
        return processed

    def _fire_run_chunk(
        self,
        run: list,
        until: Optional[int],
        max_events: Optional[int],
        processed: int,
        profiler,
    ) -> int:
        """Fire the longest safe prefix of one run-lane column.

        The chunk is bounded by the heap head's key (events interleave
        exactly as per-event pushes would), by ``until``/``max_events``,
        by ``_RUN_CHUNK``, and by the scheduling version: the tight loop
        bails as soon as a callback schedules anything that could land
        before the bound, letting the caller re-merge.
        """
        queue = self._queue
        times = run[3]
        idx = run[2]
        n = len(times)
        # The chunk must stop at the next event from ANY other lane —
        # the heap head or a sibling run column.
        bound = (queue[0][0], queue[0][1]) if queue else None
        for other in self._runs:
            if other is not run:
                other_key = (other[0], other[1])
                if bound is None or other_key < bound:
                    bound = other_key
        if bound is not None:
            hi = bisect_left(times, bound[0], idx, n)
            if hi == idx:
                # Head event shares the bound's timestamp but wins the
                # seq tie (caller checked); fire just that one.
                hi = idx + 1
        else:
            hi = n
        if hi - idx > _RUN_CHUNK:
            hi = idx + _RUN_CHUNK
        if until is not None and times[hi - 1] > until:
            hi = bisect_right(times, until, idx, hi)
        if max_events is not None:
            budget = max_events - processed
            if hi - idx > budget:
                hi = idx + budget
        callback = run[4]
        version = self._version
        # Iterate a slice instead of indexing: the for-loop's C-level
        # iteration is ~3x faster per event than `times[idx]; idx += 1`,
        # and this loop is the engine's dispatch ceiling.
        fired = 0
        if profiler is None:
            for t in times[idx:hi]:
                self._now = t
                callback()
                fired += 1
                if self._version != version:
                    break
        else:
            for t in times[idx:hi]:
                self._now = t
                profiler.run(callback)
                fired += 1
                if self._version != version:
                    break
        idx += fired
        self._run_pending -= fired
        if idx >= n:
            self._runs.remove(run)
        else:
            run[0] = times[idx]
            run[1] += fired
            run[2] = idx
        return fired

    # ------------------------------------------------------------------
    # Tombstone hygiene
    # ------------------------------------------------------------------

    def _note_tombstone(self) -> None:
        """Called by :meth:`EventHandle.cancel`; compacts when dead
        entries outnumber live ones."""
        self._tombstones += 1
        depth = len(self._queue)
        if depth >= _COMPACT_MIN_QUEUE and self._tombstones * 2 > depth:
            self._compact()

    def _compact(self) -> None:
        """Drop cancelled entries and re-heapify, **in place**.

        The queue list object is mutated (not replaced) so that a drain
        loop holding a local alias keeps seeing the compacted heap even
        when a callback triggers compaction mid-run.
        """
        queue = self._queue
        live = []
        for entry in queue:
            payload = entry[2]
            if payload.__class__ is EventHandle and payload._cancelled:
                payload._slot = None  # gone: a stopped Timer cannot revive it
            else:
                live.append(entry)
        queue[:] = live
        heapq.heapify(queue)
        self._tombstones = 0


class Timer:
    """A restartable one-shot timer, the building block for protocol timers.

    Wraps scheduling/cancellation so client code (retransmission, delayed
    ACKs, epoch boundaries) doesn't juggle raw handles.  ``start`` on a
    running timer reschedules it.
    """

    def __init__(self, sim: Simulator, callback: Callable[[], None]):
        self._sim = sim
        self._callback = callback
        # Kept after stop() so a later start() can revive the entry.
        self._handle: Optional[EventHandle] = None

    @property
    def running(self) -> bool:
        """True if the timer is armed and has not yet fired."""
        handle = self._handle
        return handle is not None and not handle._cancelled

    @property
    def deadline(self) -> Optional[int]:
        """Absolute fire time, or None when idle."""
        return self._handle.time if self.running else None

    def start(self, delay: int) -> None:
        """Arm (or re-arm) the timer ``delay`` ns from now.

        When the handle's heap entry (running, or stopped but not yet
        popped) sits at or before the new deadline, the handle moves in
        place: it takes the next seq and version as a push would, and the
        engine re-files the entry when it reaches the heap head.  An
        earlier deadline cancels and pushes.
        """
        sim = self._sim
        time = sim._now + delay
        handle = self._handle
        if handle is not None:
            slot = handle._slot
            if slot is not None and slot <= time:
                sim._seq += 1
                sim._version += 1
                handle.time = time
                handle.seq = sim._seq
                if handle._cancelled:
                    handle._cancelled = False
                    handle.callback = self._fire
                    sim._tombstones -= 1
                return
            handle.cancel()
        self._handle = sim.schedule_at(time, self._fire)

    def stop(self) -> None:
        """Disarm the timer if armed.  Idempotent."""
        if self._handle is not None:
            self._handle.cancel()

    def _fire(self) -> None:
        self._handle = None
        self._callback()
