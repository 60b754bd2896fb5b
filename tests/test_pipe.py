"""Pipe: delay, serialization, queueing, injection, ordering."""

import pytest

from repro.errors import NetworkError
from repro.net.packet import HEADER_BYTES
from repro.net.pipe import Pipe
from repro.sim.engine import Simulator, Timer
from repro.units import serialization_delay

from tests.conftest import make_packet


def connected_pipe(sim, slab, **kwargs):
    pipe = Pipe(sim, "a->b", slab=slab, **kwargs)
    arrivals = []
    pipe.connect(lambda pkt: arrivals.append((sim.now, pkt)))
    return pipe, arrivals


class TestPropagation:
    def test_ideal_pipe_delivers_after_prop_delay(self, sim, slab):
        pipe, arrivals = connected_pipe(sim, slab, prop_delay=500, bandwidth_bps=None)
        pipe.send(make_packet(slab))
        sim.run()
        assert [t for t, _ in arrivals] == [500]

    def test_send_without_receiver_rejected(self, sim, slab):
        pipe = Pipe(sim, "x", prop_delay=0, slab=slab)
        with pytest.raises(NetworkError):
            pipe.send(make_packet(slab))

    def test_negative_prop_delay_rejected(self, sim, slab):
        with pytest.raises(NetworkError):
            Pipe(sim, "x", prop_delay=-1, slab=slab)


class TestSerialization:
    def test_serialization_adds_to_latency(self, sim, slab):
        bw = 10**9
        pipe, arrivals = connected_pipe(sim, slab, prop_delay=1000, bandwidth_bps=bw)
        pkt = make_packet(slab, payload_len=934)  # 1000 bytes on the wire
        expect = serialization_delay(HEADER_BYTES + 934, bw) + 1000
        pipe.send(pkt)
        sim.run()
        assert arrivals[0][0] == expect

    def test_back_to_back_packets_queue_on_wire(self, sim, slab):
        bw = 10**9
        pipe, arrivals = connected_pipe(sim, slab, prop_delay=0, bandwidth_bps=bw)
        ser = serialization_delay(HEADER_BYTES + 934, bw)
        pipe.send(make_packet(slab, payload_len=934))
        pipe.send(make_packet(slab, payload_len=934))
        sim.run()
        times = [t for t, _ in arrivals]
        assert times == [ser, 2 * ser]

    def test_wire_idles_between_spaced_sends(self, sim, slab):
        bw = 10**9
        pipe, arrivals = connected_pipe(sim, slab, prop_delay=0, bandwidth_bps=bw)
        ser = serialization_delay(HEADER_BYTES, bw)
        pipe.send(make_packet(slab))
        sim.run()
        assert arrivals[0][0] == ser
        # A send long after the wire went idle serializes afresh from `now`.
        sim.schedule_fire_at(10 * ser, lambda: pipe.send(make_packet(slab)))
        sim.run()
        assert arrivals[1][0] == 11 * ser


class TestQueueing:
    def test_tail_drop_beyond_capacity(self, sim, slab):
        pipe, arrivals = connected_pipe(
            sim, slab, prop_delay=0, bandwidth_bps=1000, queue_capacity=2
        )
        results = [pipe.send(make_packet(slab)) for _ in range(4)]
        assert results == [True, True, False, False]
        assert pipe.stats.packets_dropped == 2
        sim.run()
        assert len(arrivals) == 2

    def test_queue_drains_over_time(self, sim, slab):
        pipe, arrivals = connected_pipe(
            sim, slab, prop_delay=0, bandwidth_bps=10**9, queue_capacity=1
        )
        assert pipe.send(make_packet(slab))
        assert not pipe.send(make_packet(slab))  # full
        sim.run()
        assert pipe.send(make_packet(slab))  # drained
        sim.run()
        assert len(arrivals) == 2

    def test_infinite_bandwidth_never_drops(self, sim, slab):
        pipe, arrivals = connected_pipe(
            sim, slab, prop_delay=10, bandwidth_bps=None, queue_capacity=1
        )
        for _ in range(100):
            assert pipe.send(make_packet(slab))
        sim.run()
        assert len(arrivals) == 100

    def test_capacity_validation(self, sim, slab):
        with pytest.raises(NetworkError):
            Pipe(sim, "x", prop_delay=0, queue_capacity=0, slab=slab)


class TestExtraDelay:
    def test_injection_applies_to_subsequent_packets(self, sim, slab):
        pipe, arrivals = connected_pipe(sim, slab, prop_delay=100, bandwidth_bps=None)
        pipe.send(make_packet(slab))
        sim.run()
        pipe.set_extra_delay(1000)
        pipe.send(make_packet(slab))
        sim.run()
        assert arrivals[0][0] == 100
        assert arrivals[1][0] - arrivals[0][0] == 1100

    def test_injection_clears(self, sim, slab):
        pipe, arrivals = connected_pipe(sim, slab, prop_delay=100, bandwidth_bps=None)
        pipe.set_extra_delay(1000)
        pipe.set_extra_delay(0)
        pipe.send(make_packet(slab))
        sim.run()
        assert arrivals[0][0] == 100

    def test_negative_injection_rejected(self, sim, slab):
        pipe, _ = connected_pipe(sim, slab, prop_delay=0)
        with pytest.raises(NetworkError):
            pipe.set_extra_delay(-5)

    def test_extra_delay_property(self, sim, slab):
        pipe, _ = connected_pipe(sim, slab, prop_delay=0)
        pipe.set_extra_delay(123)
        assert pipe.extra_delay == 123


class TestJitterAndOrdering:
    def test_jitter_added(self, sim, slab):
        pipe, arrivals = connected_pipe(
            sim, slab, prop_delay=100, bandwidth_bps=None, jitter=lambda: 50
        )
        pipe.send(make_packet(slab))
        sim.run()
        assert arrivals[0][0] == 150

    def test_jitter_never_reorders(self, sim, slab):
        jitters = iter([10_000, 0])
        pipe, arrivals = connected_pipe(
            sim, slab, prop_delay=100, bandwidth_bps=None, jitter=lambda: next(jitters)
        )
        pipe.send(make_packet(slab))
        pipe.send(make_packet(slab))
        sim.run()
        times = [t for t, _ in arrivals]
        # Second packet clamped to the first's (jittered) arrival.
        assert times[0] == 10_100
        assert times[1] == 10_100

    def test_negative_jitter_rejected(self, sim, slab):
        bw = 10**9
        jitters = iter([-1, 0])
        pipe, arrivals = connected_pipe(
            sim, slab, prop_delay=0, bandwidth_bps=bw, jitter=lambda: next(jitters)
        )
        packet = make_packet(slab)
        with pytest.raises(NetworkError):
            pipe.send(packet)
        # The rejected send moved nothing, and the caller still owns the
        # handle: no counter, no departure, no event.
        assert pipe.stats.packets_sent == 0
        assert pipe.stats.bytes_sent == 0
        assert pipe.in_flight == 0
        assert sim.pending_events == 0
        assert slab.live == 1
        # The next valid send departs at `now`, on an idle wire.
        assert pipe.send(packet)
        sim.run()
        assert arrivals == [(serialization_delay(HEADER_BYTES, bw), packet)]
        assert pipe.stats.packets_sent == 1 and pipe.in_flight == 0


class TestStats:
    def test_byte_and_packet_counters(self, sim, slab):
        pipe, _ = connected_pipe(sim, slab, prop_delay=0, bandwidth_bps=None)
        pipe.send(make_packet(slab, payload_len=100))
        sim.run()
        assert pipe.stats.packets_sent == 1
        assert pipe.stats.packets_delivered == 1
        assert pipe.stats.bytes_sent == HEADER_BYTES + 100
        assert pipe.stats.bytes_delivered == HEADER_BYTES + 100


class TestDeliveryPump:
    """One engine event per packet in flight."""

    def test_heap_holds_one_event_per_packet_in_flight(self, sim, slab):
        pipe, arrivals = connected_pipe(sim, slab, prop_delay=1000, bandwidth_bps=None)
        for _ in range(100):
            pipe.send(make_packet(slab))
        assert pipe.in_flight == 100
        assert sim.pending_events == sim.live_events == 100
        sim.run()
        assert len(arrivals) == 100
        assert pipe.in_flight == 0
        assert sim.pending_events == 0

    def test_one_engine_event_per_delivered_packet(self, sim, slab):
        pipe, arrivals = connected_pipe(sim, slab, prop_delay=1000, bandwidth_bps=None)
        for _ in range(10):
            pipe.send(make_packet(slab))
        sim.run()
        assert sim.events_processed == 10

    def test_bounded_runs_deliver_one_packet_per_event(self, sim, slab):
        pipe, arrivals = connected_pipe(sim, slab, prop_delay=1000, bandwidth_bps=None)
        for _ in range(3):
            pipe.send(make_packet(slab))
        assert sim.run(max_events=2) == 2
        assert len(arrivals) == 2 and pipe.in_flight == 1
        assert sim.step()
        assert len(arrivals) == 3 and pipe.in_flight == 0

    def test_delivery_interleaves_with_other_events_in_send_order(self, sim, slab):
        """Ties at the same instant fire in send order: each delivery
        takes its seq when the packet is sent."""
        order = []
        pipe = Pipe(sim, "a->b", prop_delay=1000, bandwidth_bps=None, slab=slab)
        pipe.connect(lambda pkt: order.append("pkt"))
        pipe.send(make_packet(slab))           # delivery seq reserved first
        sim.schedule_fire_at(1000, lambda: order.append("event1"))
        pipe.send(make_packet(slab))           # second delivery, same instant
        sim.schedule_fire_at(1000, lambda: order.append("event2"))
        sim.run()
        assert order == ["pkt", "event1", "pkt", "event2"]

    def test_own_push_matches_schedule_call_at(self, slab):
        """Pipe.send pushes its delivery entry itself.  Ties still fire in
        call order, and the engine's counts are what a
        ``schedule_call_at`` of the same delivery gives."""

        def scenario(send):
            sim = Simulator()
            order = []
            counts = []

            def note():
                counts.append(
                    (sim.peak_queue_depth, sim.live_events, sim.pending_events)
                )

            sim.schedule_fire_many([1000, 1000, 3000], lambda: order.append("column"))
            timer = Timer(sim, lambda: order.append("timer"))
            timer.start(500)
            timer.stop()  # a tombstone: live and pending now differ
            note()
            send(sim, order)
            note()
            sim.schedule_call_at(1000, order.append, "call")
            send(sim, order)
            note()
            sim.schedule_fire_at(1000, lambda: order.append("fire"))
            sim.run()
            note()
            return order, counts, sim.events_processed

        def pipe_send(sim, order):
            pipe = Pipe(sim, "a->b", prop_delay=1000, bandwidth_bps=None, slab=slab)
            pipe.connect(lambda pkt: order.append("pkt"))
            pipe.send(make_packet(slab))

        def call_at(sim, order):
            sim.schedule_call_at(1000, lambda pkt: order.append("pkt"), make_packet(slab))

        piped = scenario(pipe_send)
        assert piped == scenario(call_at)
        assert piped == (
            ["column", "column", "pkt", "call", "pkt", "fire", "column"],
            [(4, 3, 4), (5, 4, 5), (7, 6, 7), (8, 0, 0)],
            7,
        )

    def test_send_from_delivery_callback_keeps_pumping(self, sim, slab):
        """A delivery that triggers another send on the same pipe
        schedules the next delivery from inside the event."""
        pipe, arrivals = connected_pipe(sim, slab, prop_delay=1000, bandwidth_bps=None)
        sent = []

        def deliver_and_resend(pkt):
            arrivals.append((sim.now, pkt))
            if len(sent) < 3:
                sent.append(pkt)
                pipe.send(make_packet(slab))

        pipe.connect(deliver_and_resend)
        pipe.send(make_packet(slab))
        sim.run()
        assert [t for t, _ in arrivals] == [1000, 2000, 3000, 4000]

    def test_pump_stats_count_deliveries(self, sim, slab):
        pipe, _ = connected_pipe(sim, slab, prop_delay=0, bandwidth_bps=None)
        for _ in range(5):
            pipe.send(make_packet(slab, payload_len=10))
        sim.run()
        assert pipe.stats.packets_delivered == 5
        assert pipe.stats.bytes_delivered == 5 * (HEADER_BYTES + 10)
