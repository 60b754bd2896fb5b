"""Timers against a reference engine.

``Timer.start`` moves a handle whose heap entry sits at or before the new
deadline in place, and the engine re-files the stale entry when it
reaches the heap head.  The reference below has none of that: a sorted
list, eager removal on cancel, a fresh entry on every start, no
tombstones and no compaction.  Whatever the interleaving of timer
starts, stops, plain events, ``step()`` and ``run_until``, both engines
must fire the same callbacks at the same instants and agree on ``now``,
``events_processed`` and ``live_events``.
"""

from bisect import insort

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.sim.engine import Simulator, Timer

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


# ---------------------------------------------------------------------------
# Both engines driven side by side
# ---------------------------------------------------------------------------

N_TIMERS = 3
TIMER = st.integers(0, N_TIMERS - 1)
DELAY = st.integers(0, 40)


class World:
    """One engine, its timers, its plain-event handles and a firing log.

    ``on_fire[i]`` is what timer ``i`` does from inside its callback: a
    list of ``(timer, delay)`` starts, so a timer can re-arm itself or
    move another timer earlier or later mid-drain.
    """

    def __init__(self, sim, timer_class):
        self.sim = sim
        self.log = []
        self.on_fire = [[] for _ in range(N_TIMERS)]
        self.timers = [timer_class(sim, self._fire_callback(i)) for i in range(N_TIMERS)]
        self.handles = []

    def _fire_callback(self, i):
        def fire():
            self.log.append(("timer", i, self.sim.now))
            for j, delay in self.on_fire[i]:
                self.timers[j].start(delay)

        return fire

    def event(self, label):
        return lambda: self.log.append(("event", label, self.sim.now))


class TimersMatchReference(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.real = World(Simulator(), Timer)
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
        # Plain cancellable events, many sharing an instant with a timer.
        for k in range(count):
            delay = (first + 7 * k) % 41
            self.labels += 1
            for world in self.both():
                world.handles.append(
                    world.sim.schedule_at(world.sim.now + delay, world.event(self.labels))
                )

    @precondition(lambda self: self.real.handles)
    @rule(data=st.data())
    def cancel_some(self, data):
        count = len(self.real.handles)
        chosen = data.draw(st.lists(st.integers(0, count - 1), unique=True))
        for world in self.both():
            for index in chosen:
                world.handles[index].cancel()

    @rule(count=st.integers(64, 100))
    def compact(self, count):
        # A burst of cancelled handles: the real engine compacts, dropping
        # every tombstone, a stopped timer's entry included.
        for world in self.both():
            burst = [world.sim.schedule_at(world.sim.now, world.event(0)) for _ in range(count)]
            for handle in burst:
                handle.cancel()

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
    handle = timer._handle
    timer.start(500)
    assert timer._handle is handle
    assert sim.pending_events == sim.live_events == 1
    sim.run_until(499)  # re-filing the old entry at t=100 is not an event
    assert sim.events_processed == 0 and fired == []
    sim.run()
    assert fired == [500]
    assert sim.events_processed == 1


def test_moving_earlier_pushes():
    sim, timer, fired = armed(500)
    old = timer._handle
    timer.start(100)
    assert timer._handle is not old and old.cancelled
    assert sim.pending_events == 2
    assert sim.live_events == 1
    sim.run()
    assert fired == [100]


def test_stop_then_start_revives_without_a_push():
    sim, timer, fired = armed(100)
    handle = timer._handle
    timer.stop()
    assert not timer.running
    assert sim.pending_events == 1 and sim.live_events == 0
    timer.start(300)
    assert timer._handle is handle and not handle.cancelled
    assert sim.pending_events == sim.live_events == 1
    sim.run()
    assert fired == [300]


def test_entry_dropped_by_compaction_is_never_revived():
    sim, timer, fired = armed(100)
    handle = timer._handle
    timer.stop()
    doomed = [sim.schedule(1_000, lambda: fired.append("doomed")) for _ in range(70)]
    for event in doomed:
        event.cancel()  # half the heap dies, with the timer's entry first
    pending = sim.pending_events
    assert pending < 71  # a compaction ran
    timer.start(200)
    assert timer._handle is not handle
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
