"""Discrete-event simulation engine.

A :class:`Simulator` owns the virtual clock (integer nanoseconds) and one
binary-heap event queue.  Every entry starts ``(time, sequence, ...)``; the
monotonically increasing sequence number breaks ties so that two events
scheduled for the same instant fire in scheduling order, which keeps runs
deterministic.  An entry has one of three shapes:

* ``(time, seq, callback)`` — :meth:`Simulator.schedule_fire` /
  :meth:`Simulator.schedule_fire_at`: fire-and-forget, never cancelled.
* ``(time, seq, receiver, arg)`` — :meth:`Simulator.schedule_call_at`
  fires ``receiver(arg)`` without a closure: each packet a pipe delivers
  — the bulk of a simulation's events — is one such entry, which
  ``Pipe.send`` pushes itself.
* ``(time, seq, timer entry)`` — a :class:`Timer`, the only event that
  can be cancelled (protocol timers — retransmission, delayed ACKs —
  need to disarm).

Cancellation is handled with tombstones: :meth:`Timer.stop` marks the
entry dead and the main loop skips it, avoiding O(n) heap surgery.  The
simulator counts live tombstones and compacts the heap in place when more
than half of the queued entries are dead.  :attr:`Simulator.live_events`
excludes tombstones; :attr:`Simulator.pending_events` includes them.

A :class:`Timer` re-armed to a later deadline (a retransmit timer bumped
on every ACK) moves its entry in place: the entry takes the live
``(time, seq)`` a push would have used, and its heap tuple keeps the old,
earlier key until it reaches the head, where it is re-filed under the
live key before anything could overtake it.  A re-file is not an event.
So timer re-arms add no heap entries, and tombstones come only from
:meth:`Timer.stop` and from moving a timer earlier.

A sorted *column* of fire times sharing one callback
(:meth:`Simulator.schedule_fire_many`) reserves one sequence number per
event at call time but keeps only its next event on the heap, as a
``(time, seq, receiver, arg)`` entry: each firing pushes its successor
under the successor's reserved key, so the order is exactly what
per-event pushes would have produced.

Example
-------
>>> sim = Simulator()
>>> fired = []
>>> sim.schedule_fire(1000, lambda: fired.append(sim.now))
>>> sim.run()
1
>>> fired
[1000]
"""

from __future__ import annotations

import gc
import heapq
from typing import Any, Callable, List, Optional, Sequence

from repro.errors import SimulationError

#: Compaction is skipped below this queue size — rebuilding a tiny heap
#: costs more than skipping a handful of tombstones at pop time.
_COMPACT_MIN_QUEUE = 64


class _TimerEntry:
    """A :class:`Timer`'s heap payload.

    ``time`` and ``seq`` are the live deadline and tie-breaker, which a
    re-arm may move later than the key of the entry's heap tuple.
    """

    __slots__ = ("time", "seq", "callback", "cancelled", "slot")

    def __init__(self, time: int, seq: int, callback: Callable[[], None]):
        self.time = time
        self.seq = seq
        self.callback = callback
        self.cancelled = False
        # Time of this entry's heap tuple; None once popped or compacted
        # away.  Each entry has at most one tuple in the heap.
        self.slot = time


def _NOOP() -> None:
    return None


def _past(time: int, now: int) -> SimulationError:
    return SimulationError("cannot schedule at t=%d, already at t=%d" % (time, now))


class Simulator:
    """Deterministic discrete-event loop with an integer-nanosecond clock.

    The simulator never advances time on its own: it jumps from event to
    event.  ``run_until`` bounds the clock, which is how experiment
    durations are expressed.
    """

    def __init__(self) -> None:
        self._now = 0
        self._seq = 0
        # Mutated in place, never replaced: each Pipe binds it and pushes
        # its deliveries directly.
        self._queue: List[tuple] = []
        self._tombstones = 0
        # Column events schedule_fire_many reserved that are not yet on
        # the heap (each column keeps only its next event there).
        self._column_pending = 0
        self._running = False
        self._events_processed = 0
        self._peak_queue_depth = 0
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
        return len(self._queue) + self._column_pending

    @property
    def live_events(self) -> int:
        """Events still queued that will actually fire (no tombstones).

        Every packet in flight on a pipe is one of these.
        """
        return len(self._queue) - self._tombstones + self._column_pending

    @property
    def peak_queue_depth(self) -> int:
        """High-water mark of the event queue (simulation cost metric)."""
        return self._peak_queue_depth

    def set_profiler(self, profiler) -> None:
        """Install (or remove, with None) a per-event dispatch observer."""
        self._profiler = profiler

    def schedule_fire(self, delay: int, callback: Callable[[], None]) -> None:
        """Schedule ``callback`` to fire ``delay`` ns from now.

        ``delay`` must be non-negative; zero-delay events fire after all
        events already scheduled for the current instant.  There is no
        way to cancel the event once scheduled: use a :class:`Timer` for
        that.
        """
        if delay < 0:
            raise SimulationError("cannot schedule %d ns in the past" % delay)
        self.schedule_fire_at(self._now + delay, callback)

    def schedule_fire_at(self, time: int, callback: Callable[[], None]) -> None:
        """Schedule ``callback`` at absolute virtual time ``time``."""
        if time < self._now:
            raise _past(time, self._now)
        self._seq += 1
        heapq.heappush(self._queue, (time, self._seq, callback))
        # _note_push() inlined: the push sites are the engine's hottest.
        depth = len(self._queue) + self._column_pending
        if depth > self._peak_queue_depth:
            self._peak_queue_depth = depth

    def schedule_call_at(
        self, time: int, receiver: Callable[[Any], None], arg: Any
    ) -> None:
        """Fire-and-forget ``receiver(arg)`` at absolute time ``time``.

        One heap entry and no closure per event.  ``Pipe.send`` pushes
        each packet's delivery in this shape with this body inlined, so a
        change to the seq or peak-depth bookkeeping here must be made
        there too.
        """
        if time < self._now:
            raise _past(time, self._now)
        self._seq += 1
        queue = self._queue
        heapq.heappush(queue, (time, self._seq, receiver, arg))
        depth = len(queue) + self._column_pending
        if depth > self._peak_queue_depth:
            self._peak_queue_depth = depth

    def _note_push(self) -> None:
        """Peak bookkeeping after a push (or a column's reservation)."""
        depth = len(self._queue) + self._column_pending
        if depth > self._peak_queue_depth:
            self._peak_queue_depth = depth

    def schedule_fire_many(
        self, times: Sequence[int], callback: Callable[[], None]
    ) -> None:
        """Schedule a sorted column of fire-and-forget events at once.

        ``times`` are absolute timestamps, non-decreasing, none in the
        past.  Consecutive sequence numbers are reserved now, but only the
        column's next event is on the heap: each firing pushes its
        successor under that successor's reserved key, then calls
        ``callback``.  So ties against other events break exactly as if
        each event had been pushed individually at call time.
        """
        col = list(times)
        n = len(col)
        if n == 0:
            return
        if col[0] < self._now:
            raise _past(col[0], self._now)
        if n > 1 and col != sorted(col):
            raise SimulationError("schedule_fire_many times must be non-decreasing")
        base = self._seq + 1
        self._seq += n
        queue = self._queue

        def fire(i: int) -> None:
            i += 1
            if i < n:
                heapq.heappush(queue, (col[i], base + i, fire, i))
                self._column_pending -= 1
            callback()

        heapq.heappush(queue, (col[0], base, fire, 0))
        self._column_pending += n - 1
        self._note_push()

    def run(self, max_events: Optional[int] = None) -> int:
        """Run until the queue drains (or ``max_events`` fire).

        Returns the number of events processed by this call.
        """
        return self._drain(until=None, max_events=max_events)

    def run_until(self, time: int, max_events: Optional[int] = None) -> int:
        """Run events with timestamps ``<= time``; clock ends at ``time``.

        Events scheduled beyond ``time`` stay queued, so simulations can be
        resumed with further ``run_until`` calls.
        """
        processed = self._drain(until=time, max_events=max_events)
        if self._now < time:
            self._now = time
        return processed

    def step(self) -> bool:
        """Fire the single next live event.  Returns False if none remain."""
        return self._drain(until=None, max_events=1) == 1

    def _drain(self, until: Optional[int], max_events: Optional[int]) -> int:
        """Fire events in ``(time, seq)`` order up to ``until``/``max_events``.

        The cyclic garbage collector is paused for the duration of the
        drain: the hot path allocates heavily but creates no cycles, and
        generation scans were measured at ~15% of wall time on
        packet-bound runs.  Anything cyclic the simulation built up is
        reclaimed by the re-enabled collector afterwards.
        """
        if self._running:
            raise SimulationError("re-entrant run() call")
        self._running = True
        pause = gc.isenabled()
        if pause:
            gc.disable()
        processed = 0
        queue = self._queue
        heappop = heapq.heappop
        heapreplace = heapq.heapreplace
        profiler = self._profiler
        timer_class = _TimerEntry
        try:
            while queue:
                if max_events is not None and processed >= max_events:
                    break
                entry = queue[0]
                payload = entry[2]
                is_timer = payload.__class__ is timer_class
                if is_timer:
                    # Discard a stopped timer's tombstone, or re-file a
                    # timer that moved later under its live key; neither
                    # is an event.
                    if payload.cancelled:
                        heappop(queue)
                        payload.slot = None
                        self._tombstones -= 1
                        continue
                    if entry[1] != payload.seq:
                        heapreplace(queue, (payload.time, payload.seq, payload))
                        payload.slot = payload.time
                        continue
                if until is not None and entry[0] > until:
                    break
                heappop(queue)
                self._now = entry[0]
                if is_timer:
                    payload.slot = None
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
            if pause:
                gc.enable()
        return processed

    # ------------------------------------------------------------------
    # Tombstone hygiene
    # ------------------------------------------------------------------

    def _note_tombstone(self) -> None:
        """Called by :meth:`Timer.stop`; compacts when dead entries
        outnumber live ones."""
        self._tombstones += 1
        depth = len(self._queue)
        if depth >= _COMPACT_MIN_QUEUE and self._tombstones * 2 > depth:
            self._compact()

    def _compact(self) -> None:
        """Drop cancelled entries and re-heapify, **in place**.

        The queue list object is mutated (not replaced) so that a drain
        loop or column holding a local alias keeps seeing the compacted
        heap even when a callback triggers compaction mid-run.
        """
        queue = self._queue
        live = []
        for entry in queue:
            payload = entry[2]
            if payload.__class__ is _TimerEntry and payload.cancelled:
                payload.slot = None  # gone: a stopped Timer cannot revive it
            else:
                live.append(entry)
        queue[:] = live
        heapq.heapify(queue)
        self._tombstones = 0


class Timer:
    """A restartable one-shot timer: the engine's only cancellable event.

    The building block for protocol timers (retransmission, delayed ACKs,
    epoch boundaries).  ``start`` on a running timer reschedules it;
    ``stop`` disarms it.
    """

    __slots__ = ("_sim", "_callback", "_entry")

    def __init__(self, sim: Simulator, callback: Callable[[], None]):
        self._sim = sim
        self._callback = callback
        # Kept after stop() so a later start() can revive the entry.
        self._entry: Optional[_TimerEntry] = None

    @property
    def running(self) -> bool:
        """True if the timer is armed and has not yet fired."""
        entry = self._entry
        return entry is not None and not entry.cancelled

    @property
    def deadline(self) -> Optional[int]:
        """Absolute fire time, or None when idle."""
        return self._entry.time if self.running else None

    def start(self, delay: int) -> None:
        """Arm (or re-arm) the timer ``delay`` ns from now.

        ``delay`` must be non-negative; a rejected call leaves the timer
        as it was.  When the entry's heap tuple (running, or stopped but
        not yet popped) sits at or before the new deadline, the entry
        moves in place: it takes the next seq as a push would, and the
        engine re-files the tuple when it reaches the heap head.  An
        earlier deadline cancels and pushes.
        """
        if delay < 0:
            raise SimulationError("cannot schedule %d ns in the past" % delay)
        sim = self._sim
        time = sim._now + delay
        sim._seq += 1
        entry = self._entry
        if entry is not None:
            slot = entry.slot
            if slot is not None and slot <= time:
                entry.time = time
                entry.seq = sim._seq
                if entry.cancelled:
                    entry.cancelled = False
                    entry.callback = self._fire
                    sim._tombstones -= 1
                return
            self.stop()
        entry = self._entry = _TimerEntry(time, sim._seq, self._fire)
        heapq.heappush(sim._queue, (time, sim._seq, entry))
        sim._note_push()

    def stop(self) -> None:
        """Disarm the timer if armed.  Idempotent."""
        entry = self._entry
        if entry is None or entry.cancelled:
            return
        entry.cancelled = True
        entry.callback = _NOOP  # free closure references promptly
        self._sim._note_tombstone()

    def _fire(self) -> None:
        self._entry = None
        self._callback()
