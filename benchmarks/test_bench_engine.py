"""PERF-ENGINE — simulator throughput.

Event-loop rates bound how much virtual time the experiment harness can
afford; these benches keep regressions visible.  The fire-path
schedule+drain bench also records its events/sec into
``benchmarks/BENCH_engine.json`` (see ``conftest.record_perf``), which
is the baseline the CI ``perf-smoke`` job gates against.
"""

from conftest import record_perf
from hotpath_cases import run_engine_fire_events

from repro.net.addr import Endpoint
from repro.net.network import Network
from repro.net.packet import PacketSlab
from repro.net.pipe import Pipe
from repro.sim.engine import Simulator, Timer
from repro.units import GIGABITS_PER_SECOND, MICROSECONDS


class TestEventLoop:
    def test_schedule_fire_and_drain_10k_events(self, benchmark):
        """The fire-and-forget path: a bare callback per heap entry."""

        def run():
            sim = Simulator()
            sink = []
            for i in range(10_000):
                sim.schedule_fire(i, lambda: sink.append(None))
            sim.run()
            return len(sink)

        assert benchmark(run) == 10_000

    def test_timer_restart_churn(self, benchmark):
        sim = Simulator()
        timer = Timer(sim, lambda: None)

        def restart():
            timer.start(1_000_000)

        benchmark(restart)

    def test_cancelled_event_tombstones(self, benchmark):
        def run():
            sim = Simulator()
            timers = [Timer(sim, lambda: None) for _ in range(5_000)]
            for i, timer in enumerate(timers):
                timer.start(i)
            for timer in timers[::2]:
                timer.stop()
            sim.run()
            return sim.events_processed

        assert benchmark(run) == 2_500

    def test_timer_rearm_does_not_grow_heap(self, benchmark):
        """Restartable-timer churn: each re-arm moves the one heap entry."""

        def run():
            sim = Simulator()
            timer = Timer(sim, lambda: None)
            for _ in range(10_000):
                timer.start(1_000_000)
            sim.run()
            return sim.peak_queue_depth

        assert benchmark(run) == 1


class TestRecordedBaseline:
    """Best-of-5 throughput snapshots written to BENCH_engine.json."""

    def _record(self, name, runner):
        runs = [runner() for _ in range(5)]
        events, seconds = min(runs, key=lambda r: r[1] / r[0])
        return record_perf(name, events, seconds)

    def test_record_engine_events_per_sec(self):
        entry = self._record("engine_fire_10k", run_engine_fire_events)
        assert entry["events_per_sec"] > 0


class TestPacketPath:
    def test_pipe_transit_1k_packets(self, benchmark):
        def run():
            sim = Simulator()
            slab = PacketSlab()
            pipe = Pipe(
                sim,
                "bench",
                prop_delay=10 * MICROSECONDS,
                bandwidth_bps=10 * GIGABITS_PER_SECOND,
                slab=slab,
            )
            delivered = []
            pipe.connect(delivered.append)
            src = slab.intern_endpoint(Endpoint("a", 1))
            dst = slab.intern_endpoint(Endpoint("b", 2))
            fid = slab.intern_flow(src, dst)
            for _ in range(1_000):
                pipe.send(slab.alloc(src, dst, fid, 0, 0, 0, 100, None, 0))
            sim.run()
            return len(delivered)

        assert benchmark(run) == 1_000

    def test_network_routed_send(self, benchmark):
        sim = Simulator()
        network = Network(sim)

        slab = network.slab

        class Sink:
            name = "sink"

            def on_packet(self, packet):
                slab.free(packet)

        class Source:
            name = "source"

            def on_packet(self, packet):
                pass

        network.add_node(Source())
        network.add_node(Sink())
        network.connect("source", "sink", prop_delay=0)
        network.set_default_route("source", "sink")
        src = slab.intern_endpoint(Endpoint("source", 1))
        dst = slab.intern_endpoint(Endpoint("sink", 2))
        fid = slab.intern_flow(src, dst)

        def send_and_drain():
            network.send_from(
                "source", slab.alloc(src, dst, fid, 0, 0, 0, 0, None, sim.now)
            )
            sim.run()

        benchmark(send_and_drain)
