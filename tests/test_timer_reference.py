"""Timers, columns and pipe deliveries against a reference engine.

``Timer.start`` moves an entry whose heap tuple sits at or before the new
deadline in place, and the engine re-files the stale tuple when it
reaches the heap head.  A column keeps only its next event on the heap,
each firing pushing its successor under a key reserved at call time, and
a pipe pushes one ``(time, seq, receiver, handle)`` entry per packet.
The reference below has none of that: a sorted list, eager removal on
cancel, a fresh entry on every start, one entry per column event and per
packet, no tombstones and no compaction.  Whatever the interleaving of
timer starts, stops, plain events, columns, pipe sends (from inside
deliveries and column events too), ``step()`` and ``run_until``, both
engines must fire the same callbacks at the same instants and agree on
``now``, ``events_processed``, ``live_events`` and every pipe's counters.
"""

import itertools
from bisect import insort

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.net.packet import HEADER_BYTES, PacketSlab
from repro.net.pipe import Pipe, PipeStats
from repro.sim.engine import Simulator, Timer
from repro.units import serialization_delay

from tests.conftest import make_packet

# ---------------------------------------------------------------------------
# The reference engine
# ---------------------------------------------------------------------------


class RefHandle:
    def __init__(self, sim, key, callback):
        self.sim = sim
        self.key = key  # (time, seq)
        self.callback = callback

    @property
    def time(self):
        return self.key[0]

    def cancel(self):
        if self.key in self.sim.callbacks:
            self.sim.keys.remove(self.key)
            del self.sim.callbacks[self.key]


class RefSimulator:
    def __init__(self):
        self.now = 0
        self.seq = 0
        self.events_processed = 0
        self.keys = []  # sorted (time, seq)
        self.callbacks = {}

    @property
    def live_events(self):
        return len(self.keys)

    def schedule_at(self, time, callback):
        assert time >= self.now
        self.seq += 1
        key = (time, self.seq)
        insort(self.keys, key)
        self.callbacks[key] = callback
        return RefHandle(self, key, callback)

    def schedule_fire_at(self, time, callback):
        self.schedule_at(time, callback)

    def schedule_fire_many(self, times, callback):
        for time in times:
            self.schedule_at(time, callback)

    def step(self):
        if not self.keys:
            return False
        key = self.keys.pop(0)
        callback = self.callbacks.pop(key)
        self.now = key[0]
        self.events_processed += 1
        callback()
        return True

    def run_until(self, time):
        while self.keys and self.keys[0][0] <= time:
            self.step()
        self.now = max(self.now, time)


class RefTimer:
    def __init__(self, sim, callback):
        self.sim = sim
        self.callback = callback
        self.handle = None

    @property
    def running(self):
        return self.handle is not None

    @property
    def deadline(self):
        return None if self.handle is None else self.handle.time

    def start(self, delay):
        self.stop()
        self.handle = self.sim.schedule_at(self.sim.now + delay, self.fire)

    def stop(self):
        if self.handle is not None:
            self.handle.cancel()
            self.handle = None

    def fire(self):
        self.handle = None
        self.callback()


class RefPipe:
    """The pipe's wire arithmetic with one eager engine entry per packet.

    A packet is a ``(label, payload_len)`` pair; ``in_flight`` is counted
    directly, not derived from the stats.
    """

    def __init__(self, sim, prop_delay, bandwidth_bps, queue_capacity, jitter):
        self.sim = sim
        self.prop_delay = prop_delay
        self.bandwidth_bps = bandwidth_bps
        self.queue_capacity = queue_capacity
        self.jitter = jitter
        self.stats = PipeStats()
        self.in_flight = 0
        self.wire_free_at = 0
        self.last_arrival = 0
        self.departures = []
        self.deliver = None

    def connect(self, deliver):
        self.deliver = deliver

    def send(self, packet):
        now = self.sim.now
        size = HEADER_BYTES + packet[1]
        self.stats.packets_sent += 1
        self.stats.bytes_sent += size
        departure = now
        if self.bandwidth_bps is not None:
            self.departures = [d for d in self.departures if d > now]
            if len(self.departures) >= self.queue_capacity:
                self.stats.packets_dropped_queue += 1
                return False
            start = max(self.wire_free_at, now)
            departure = start + serialization_delay(size, self.bandwidth_bps)
            self.wire_free_at = departure
            self.departures.append(departure)
        arrival = departure + self.prop_delay
        if self.jitter is not None:
            arrival += self.jitter()
        arrival = max(arrival, self.last_arrival)
        self.last_arrival = arrival
        self.in_flight += 1
        self.sim.schedule_at(arrival, lambda: self.arrive(packet, size))
        return True

    def arrive(self, packet, size):
        self.in_flight -= 1
        self.stats.packets_delivered += 1
        self.stats.bytes_delivered += size
        self.deliver(packet)


# ---------------------------------------------------------------------------
# Both engines driven side by side
# ---------------------------------------------------------------------------

N_TIMERS = 3
TIMER = st.integers(0, N_TIMERS - 1)
DELAY = st.integers(0, 40)

#: (prop_delay, bandwidth_bps, queue_capacity, jitter draws) per pipe:
#: an ideal link, a fast wire short enough to tail-drop, a jittered link.
PIPES = (
    (5, None, 1024, None),
    (3, 80 * 10**9, 3, None),
    (2, None, 1024, (0, 4, 0, 0, 9, 2)),
)
PIPE = st.integers(0, len(PIPES) - 1)
PAYLOAD = st.integers(0, 100)


class World:
    """One engine, its timers, pipes, one-shot event timers and a firing log.

    ``on_fire[i]`` is what timer ``i`` does from inside its callback: a
    list of ``(timer, delay)`` starts, so a timer can re-arm itself or
    move another timer earlier or later mid-drain.  ``on_deliver[i]`` is
    a ``(pipe, payload_len)`` send made from inside each delivery on pipe
    ``i``, or None.  ``slab`` is None for the reference world, whose
    packets are ``(label, payload_len)`` pairs instead of slab handles.
    ``events`` is a pool of timers each started once for a plain event,
    so that stopping them leaves tombstones behind.
    """

    def __init__(self, sim, timer_class, slab=None):
        self.sim = sim
        self.slab = slab
        self.log = []
        self.timer_class = timer_class
        self.on_fire = [[] for _ in range(N_TIMERS)]
        self.timers = [timer_class(sim, self._fire_callback(i)) for i in range(N_TIMERS)]
        self.events = []
        self.on_deliver = [None] * len(PIPES)
        self.sent = 0
        self.label_of = {}
        self.pipes = []
        for i, (prop_delay, bandwidth, capacity, draws) in enumerate(PIPES):
            jitter = None if draws is None else itertools.cycle(draws).__next__
            if slab is None:
                pipe = RefPipe(sim, prop_delay, bandwidth, capacity, jitter)
            else:
                pipe = Pipe(
                    sim, "p%d" % i, prop_delay, bandwidth, capacity, jitter, slab=slab
                )
            pipe.connect(self._deliver_callback(i))
            self.pipes.append(pipe)

    def _fire_callback(self, i):
        def fire():
            self.log.append(("timer", i, self.sim.now))
            for j, delay in self.on_fire[i]:
                self.timers[j].start(delay)

        return fire

    def event(self, label):
        return lambda: self.log.append(("event", label, self.sim.now))

    def start_event(self, delay, label):
        """A fresh timer started ``delay`` from now that logs ``label``."""
        timer = self.timer_class(self.sim, self.event(label))
        timer.start(delay)
        return timer

    def send(self, i, payload_len):
        self.sent += 1
        if self.slab is None:
            packet = (self.sent, payload_len)
        else:
            packet = make_packet(self.slab, payload_len=payload_len)
            self.label_of[packet] = self.sent
        self.pipes[i].send(packet)

    def _deliver_callback(self, i):
        def deliver(packet):
            if self.slab is None:
                label = packet[0]
            else:
                label = self.label_of.pop(packet)
                self.slab.free(packet)
            self.log.append(("pkt", i, label, self.sim.now))
            if self.on_deliver[i] is not None:
                self.send(*self.on_deliver[i])

        return deliver

    def column_event(self, label, pipe):
        def fire():
            self.log.append(("column", label, self.sim.now))
            if pipe is not None:
                self.send(pipe, 0)

        return fire


class TimersMatchReference(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.real = World(Simulator(), Timer, PacketSlab())
        self.ref = World(RefSimulator(), RefTimer)
        self.labels = 0

    def both(self):
        return (self.real, self.ref)

    @rule(i=TIMER, delay=DELAY)
    def start(self, i, delay):
        for world in self.both():
            world.timers[i].start(delay)

    @rule(i=TIMER)
    def start_at_same_deadline(self, i):
        deadline = self.ref.timers[i].deadline
        if deadline is not None:
            for world in self.both():
                world.timers[i].start(deadline - world.sim.now)

    @rule(i=TIMER, earlier=st.integers(1, 10))
    def start_earlier(self, i, earlier):
        deadline = self.ref.timers[i].deadline
        if deadline is not None:
            delay = max(0, deadline - self.ref.sim.now - earlier)
            for world in self.both():
                world.timers[i].start(delay)

    @rule(i=TIMER)
    def stop(self, i):
        for world in self.both():
            world.timers[i].stop()

    @rule(i=TIMER, delay=DELAY)
    def stop_then_start(self, i, delay):
        for world in self.both():
            world.timers[i].stop()
            world.timers[i].start(delay)

    # Self re-arms need a positive delay, or run_until would never end.
    @rule(i=TIMER, j=TIMER, delay=st.integers(1, 40), clear=st.booleans())
    def on_fire_start(self, i, j, delay, clear):
        for world in self.both():
            if clear:
                world.on_fire[i] = []
            world.on_fire[i].append((j, delay))

    @rule(delay=DELAY)
    def schedule_fire(self, delay):
        self.labels += 1
        for world in self.both():
            world.sim.schedule_fire_at(world.sim.now + delay, world.event(self.labels))

    @rule(count=st.integers(1, 80), first=DELAY)
    def schedule_handles(self, count, first):
        # Cancellable one-shot events, many sharing an instant with a timer.
        for k in range(count):
            delay = (first + 7 * k) % 41
            self.labels += 1
            for world in self.both():
                world.events.append(world.start_event(delay, self.labels))

    @precondition(lambda self: self.real.events)
    @rule(data=st.data())
    def cancel_some(self, data):
        count = len(self.real.events)
        chosen = data.draw(st.lists(st.integers(0, count - 1), unique=True))
        for world in self.both():
            for index in chosen:
                world.events[index].stop()

    @precondition(lambda self: self.real.events)
    @rule(delay=DELAY, data=st.data())
    def cancel_from_event(self, delay, data):
        # The same stops made from inside a callback: a compaction they
        # trigger rebuilds the heap mid-drain.
        count = len(self.real.events)
        chosen = data.draw(st.lists(st.integers(0, count - 1), unique=True))
        for world in self.both():

            def stop_chosen(events=world.events):
                for index in chosen:
                    events[index].stop()

            world.sim.schedule_fire_at(world.sim.now + delay, stop_chosen)

    @rule(count=st.integers(64, 100))
    def compact(self, count):
        # A burst of stopped timers: the real engine compacts, dropping
        # every tombstone, a stopped protocol timer's entry included.
        for world in self.both():
            burst = [world.start_event(0, 0) for _ in range(count)]
            for timer in burst:
                timer.stop()

    @rule(i=PIPE, payload_len=PAYLOAD, count=st.integers(1, 3))
    def send(self, i, payload_len, count):
        for world in self.both():
            for _ in range(count):
                world.send(i, payload_len)

    @rule(i=PIPE, then=st.none() | st.tuples(PIPE, PAYLOAD))
    def on_deliver_send(self, i, then):
        for world in self.both():
            world.on_deliver[i] = then

    @rule(
        count=st.integers(1, 30),
        first=DELAY,
        stride=st.integers(0, 3),
        pipe=st.none() | PIPE,
    )
    def column(self, count, first, stride, pipe):
        # A column whose events may each send a packet: the
        # lb_replay shape, where deliveries interleave with the column.
        self.labels += 1
        for world in self.both():
            now = world.sim.now
            times = [now + first + stride * k for k in range(count)]
            world.sim.schedule_fire_many(times, world.column_event(self.labels, pipe))

    @rule()
    def step(self):
        assert self.real.sim.step() == self.ref.sim.step()

    @rule(ahead=st.integers(0, 60))
    def run_until(self, ahead):
        horizon = self.ref.sim.now + ahead
        for world in self.both():
            world.sim.run_until(horizon)

    @invariant()
    def same_trajectory(self):
        real, ref = self.real, self.ref
        assert real.log == ref.log
        assert real.sim.now == ref.sim.now
        assert real.sim.events_processed == ref.sim.events_processed
        assert real.sim.live_events == ref.sim.live_events
        for mine, theirs in zip(real.timers, ref.timers):
            assert mine.running == theirs.running
            assert mine.deadline == theirs.deadline
        for mine, theirs in zip(real.pipes, ref.pipes):
            assert mine.stats == theirs.stats
            assert mine.in_flight == theirs.in_flight
        assert real.slab.live == sum(pipe.in_flight for pipe in ref.pipes)


TimersMatchReference.TestCase.settings = settings(
    max_examples=150, stateful_step_count=40, deadline=None
)
TestTimersMatchReference = TimersMatchReference.TestCase


# ---------------------------------------------------------------------------
# The in-place re-arm, case by case
# ---------------------------------------------------------------------------


def armed(delay):
    sim = Simulator()
    fired = []
    timer = Timer(sim, lambda: fired.append(sim.now))
    timer.start(delay)
    return sim, timer, fired


def test_moving_later_keeps_one_entry():
    sim, timer, fired = armed(100)
    entry = timer._entry
    timer.start(500)
    assert timer._entry is entry
    assert sim.pending_events == sim.live_events == 1
    sim.run_until(499)  # re-filing the old entry at t=100 is not an event
    assert sim.events_processed == 0 and fired == []
    sim.run()
    assert fired == [500]
    assert sim.events_processed == 1


def test_moving_earlier_pushes():
    sim, timer, fired = armed(500)
    old = timer._entry
    timer.start(100)
    assert timer._entry is not old and old.cancelled
    assert sim.pending_events == 2
    assert sim.live_events == 1
    sim.run()
    assert fired == [100]


def test_stop_then_start_revives_without_a_push():
    sim, timer, fired = armed(100)
    entry = timer._entry
    timer.stop()
    assert not timer.running
    assert sim.pending_events == 1 and sim.live_events == 0
    timer.start(300)
    assert timer._entry is entry and not entry.cancelled
    assert sim.pending_events == sim.live_events == 1
    sim.run()
    assert fired == [300]


def test_entry_dropped_by_compaction_is_never_revived():
    sim, timer, fired = armed(100)
    entry = timer._entry
    timer.stop()
    doomed = [Timer(sim, lambda: fired.append("doomed")) for _ in range(70)]
    for event in doomed:
        event.start(1_000)
    for event in doomed:
        event.stop()  # half the heap dies, with the timer's entry first
    pending = sim.pending_events
    assert pending < 71  # a compaction ran
    timer.start(200)
    assert timer._entry is not entry
    assert sim.pending_events == pending + 1
    assert sim.live_events == 1
    sim.run()
    assert fired == [200]


def test_equal_deadline_reorders_behind_later_pushes():
    sim = Simulator()
    order = []
    timer = Timer(sim, lambda: order.append("timer"))
    timer.start(50)
    sim.schedule_fire_at(50, lambda: order.append("event"))
    timer.start(50)  # same instant, but now scheduled after the event
    sim.run()
    assert order == ["event", "timer"]
