"""Differential proofs for the slab dataplane and the batch seams.

The slab refactor replaces per-packet ``Packet`` objects with integer
handles into a :class:`~repro.net.packet.PacketSlab`, and the batch
seams replace per-call loops with array-shaped ones.
None of that is allowed to change a single simulated byte: same
samples, same shifts, same drops, same event counts, same rendered
reports.  These tests pin that equivalence:

* slab-vs-object: a full scenario run twice, differing only in
  ``ScenarioConfig.slab``, must render the identical report;
* numpy-vs-python: the cliff detector against a vectorized numpy
  oracle (skipped where numpy is not installed);
* leak-freedom: every slab record allocated during a run is either
  freed or still parked in a pipe at cutoff — nothing dangles.
"""

import random
import re

import pytest

from repro import units
from repro.core.ensemble import detect_cliff_index
from repro.faults import DelayFault, parse_faults
from repro.harness.config import PolicyName, ScenarioConfig
from repro.harness.runner import run_scenario
from repro.units import MILLISECONDS

_WALL_CLOCK = re.compile(r", \d+ events/sec wall-clock")


def _run_report(slab: bool):
    """One small feedback scenario (with a fault, so weights shift)."""
    config = ScenarioConfig(
        seed=3,
        duration=300 * MILLISECONDS,
        n_clients=2,
        n_servers=3,
        policy=PolicyName.FEEDBACK,
        faults=[
            DelayFault(
                start=100 * MILLISECONDS,
                extra=1 * MILLISECONDS,
                node="server0",
            )
        ],
        slab=slab,
    )
    result = run_scenario(config)
    return result, _WALL_CLOCK.sub("", result.report())


class TestSlabVsObject:
    def test_scenario_reports_byte_identical(self):
        slab_result, slab_report = _run_report(slab=True)
        obj_result, obj_report = _run_report(slab=False)
        assert slab_report == obj_report
        # The report already covers most of these; pin the raw numbers
        # too so a masked report change can't hide a divergence.
        assert slab_result.wall_events == obj_result.wall_events
        assert len(slab_result.records) == len(obj_result.records)
        assert (
            slab_result.scenario.sim.peak_queue_depth
            == obj_result.scenario.sim.peak_queue_depth
        )
        slab_fb = slab_result.scenario.feedback
        obj_fb = obj_result.scenario.feedback
        assert (
            slab_fb.estimator.total_samples == obj_fb.estimator.total_samples
        )
        assert [
            (e.time, e.from_backend, e.weights_after)
            for e in slab_fb.shift_events()
        ] == [
            (e.time, e.from_backend, e.weights_after)
            for e in obj_fb.shift_events()
        ]

    def test_per_record_equivalence(self):
        slab_result, _ = _run_report(slab=True)
        obj_result, _ = _run_report(slab=False)
        # request_id comes from a process-global counter, so absolute
        # ids differ between two runs in one process; compare everything
        # positional instead.
        slab_rows = [
            (r.completed_at, r.latency, r.server, r.op)
            for r in slab_result.records
        ]
        obj_rows = [
            (r.completed_at, r.latency, r.server, r.op)
            for r in obj_result.records
        ]
        assert slab_rows == obj_rows

    def test_no_slab_records_leak(self):
        result, _ = _run_report(slab=True)
        scenario = result.scenario
        slab = scenario.network.slab
        assert slab is not None
        # Whatever is still live at cutoff is exactly the in-flight
        # packets parked in pipe arrival queues — nothing dangles.
        assert slab.live == scenario.sim.parked_packets

    @pytest.mark.slow
    def test_fig3_golden_with_slab_off(self):
        """The pinned Fig 3 report is reproduced by the object dataplane.

        ``test_golden_alpha`` runs the default (slab) path against the
        golden file; this is the other half of the byte-identity claim.
        """
        import os

        duration = units.seconds(1.0)
        config = ScenarioConfig(
            seed=1,
            duration=duration,
            n_clients=1,
            n_servers=2,
            policy=PolicyName.FEEDBACK,
            faults=parse_faults("fig3", duration),
            warmup=duration // 10,
            slab=False,
        )
        report = _WALL_CLOCK.sub("", run_scenario(config).report())
        golden = os.path.join(
            os.path.dirname(__file__), "golden", "fig3_alpha_report.txt"
        )
        with open(golden) as handle:
            assert report == handle.read().rstrip("\n")


class TestCliffVectorization:
    def _cases(self):
        rng = random.Random(11)
        cases = [
            [10, 10, 10, 10],          # flat: index 0 wins ties
            [0, 0, 0, 1],              # zeros guarded by max(·, 1)
            [5, 0, 0, 0],
            [1000, 999, 3, 2, 1],      # the paper's cliff shape
            [1, 2, 3, 4, 5],           # monotone increasing
        ]
        for _ in range(200):
            k = rng.randint(2, 9)
            cases.append([rng.randint(0, 50) for _ in range(k)])
        return cases

    def test_matches_numpy_oracle(self):
        np = pytest.importorskip("numpy")
        for counts in self._cases():
            arr = np.asarray(counts, dtype=np.float64)
            ratios = arr[:-1] / np.maximum(arr[1:], 1.0)
            assert detect_cliff_index(counts) == int(ratios.argmax()), counts

    def test_reference_shape(self):
        # First strictly-greater ratio wins; ties resolve to the lowest
        # index (the property argmax must reproduce).
        assert detect_cliff_index([4, 4, 4]) == 0
        assert detect_cliff_index([4, 1, 16, 1]) == 2


class TestBatchSeams:
    """The wave-shaped fast paths against their per-packet spellings."""

    def test_alloc_batch_matches_sequential(self):
        from repro.net.addr import Endpoint
        from repro.net.packet import PacketSlab

        seq_slab, batch_slab = PacketSlab(), PacketSlab()
        for slab in (seq_slab, batch_slab):
            src = slab.intern_endpoint(Endpoint("a", 1))
            dst = slab.intern_endpoint(Endpoint("b", 2))
            fid = slab.intern_flow(src, dst)
        seqs = list(range(40))
        seq_handles = [
            seq_slab.alloc(0, 1, 0, 0, s, 7, 100, None, 123) for s in seqs
        ]
        batch_handles = batch_slab.alloc_batch(0, 1, 0, 0, seqs, 7, 100, None, 123)
        assert batch_handles == seq_handles

        # Packet ids draw from the shared global counter (the two slabs
        # interleave on it), so compare deltas within each allocation —
        # and before recycling overwrites the slots.
        def rel(slab, handles):
            ids = slab.packet_id
            base = ids[handles[0]]
            return [ids[h] - base for h in handles]

        assert rel(seq_slab, seq_handles) == rel(batch_slab, batch_handles)
        # Recycle an arbitrary subset and re-allocate through both
        # spellings: handle recycling order must stay identical.
        victims = [3, 17, 4, 29, 11]
        for h in victims:
            seq_slab.free(h)
        batch_slab.free_batch(victims)
        seqs2 = list(range(100, 110))
        seq_handles2 = [
            seq_slab.alloc(1, 0, 0, 2, s, 0, 60, None, 456) for s in seqs2
        ]
        batch_handles2 = batch_slab.alloc_batch(1, 0, 0, 2, seqs2, 0, 60, None, 456)
        assert batch_handles2 == seq_handles2
        for col in (
            "flags",
            "seq",
            "ack",
            "payload_len",
            "boundaries",
            "sent_at",
            "src_i",
            "dst_i",
            "fid",
            "retransmit",
        ):
            assert getattr(seq_slab, col) == getattr(batch_slab, col), col
        assert rel(seq_slab, seq_handles2) == rel(batch_slab, batch_handles2)

    def _stream(self, batched, packets=500, waves=3):
        from repro.net.addr import Endpoint
        from repro.net.packet import PacketSlab
        from repro.net.pipe import Pipe
        from repro.sim.engine import Simulator

        sim = Simulator()
        slab = PacketSlab()
        pipe = Pipe(sim, "bench", prop_delay=10 * units.MICROSECONDS, slab=slab)
        src = slab.intern_endpoint(Endpoint("a", 1))
        dst = slab.intern_endpoint(Endpoint("b", 2))
        fid = slab.intern_flow(src, dst)
        order = []

        def deliver(handle):
            order.append((slab.seq[handle], slab.packet_id[handle]))
            slab.free(handle)

        pipe.connect(deliver)
        if batched:

            def deliver_batch(handles):
                for handle in handles:
                    order.append((slab.seq[handle], slab.packet_id[handle]))
                slab.free_batch(handles)

            pipe.connect_batch(deliver_batch)
        for wave in range(waves):
            seqs = range(wave * packets, (wave + 1) * packets)
            if batched:
                pipe.send_batch(
                    slab.alloc_batch(src, dst, fid, 0, seqs, 0, 100, None, 0)
                )
            else:
                for s in seqs:
                    pipe.send(slab.alloc(src, dst, fid, 0, s, 0, 100, None, 0))
            sim.run()
        first_id = order[0][1]
        return {
            "order": [(s, pid - first_id) for s, pid in order],
            "events": sim.events_processed,
            "now": sim.now,
            "peak_depth": sim.peak_queue_depth,
            "peak_load": sim.peak_load,
            "sent": pipe.stats.packets_sent,
            "delivered": pipe.stats.packets_delivered,
            "bytes_sent": pipe.stats.bytes_sent,
            "bytes_delivered": pipe.stats.bytes_delivered,
            "live": slab.live,
        }

    def test_send_batch_and_bulk_drain_match_per_packet(self):
        assert self._stream(batched=True) == self._stream(batched=False)

    def test_send_batch_falls_back_on_wire_model(self):
        """With finite bandwidth, send_batch must behave exactly like
        per-packet send (serialization spreads arrivals; tail drops)."""
        from repro.net.addr import Endpoint
        from repro.net.packet import PacketSlab
        from repro.net.pipe import Pipe
        from repro.sim.engine import Simulator

        def run(batched):
            sim = Simulator()
            slab = PacketSlab()
            pipe = Pipe(
                sim,
                "wire",
                prop_delay=5 * units.MICROSECONDS,
                bandwidth_bps=units.GIGABITS_PER_SECOND,
                queue_capacity=64,
                slab=slab,
            )
            src = slab.intern_endpoint(Endpoint("a", 1))
            dst = slab.intern_endpoint(Endpoint("b", 2))
            fid = slab.intern_flow(src, dst)
            arrivals = []
            pipe.connect(
                lambda h: (arrivals.append((sim.now, slab.seq[h])), slab.free(h))
            )
            handles = [
                slab.alloc(src, dst, fid, 0, s, 0, 200, None, 0)
                for s in range(100)
            ]
            if batched:
                accepted = pipe.send_batch(handles)
            else:
                accepted = sum(1 for h in handles if pipe.send(h))
            sim.run()
            return accepted, arrivals, pipe.stats.packets_dropped_queue

        assert run(True) == run(False)

    def test_bulk_drain_skipped_under_profiler(self):
        """A profiled run takes the per-packet path so attribution stays
        per-delivery; the result must still be identical."""
        from repro.obs.profiler import EngineProfiler

        plain = self._stream(batched=True)
        from repro.net.addr import Endpoint
        from repro.net.packet import PacketSlab
        from repro.net.pipe import Pipe
        from repro.sim.engine import Simulator

        sim = Simulator()
        profiler = EngineProfiler()
        sim.set_profiler(profiler)
        slab = PacketSlab()
        pipe = Pipe(sim, "bench", prop_delay=10 * units.MICROSECONDS, slab=slab)
        src = slab.intern_endpoint(Endpoint("a", 1))
        dst = slab.intern_endpoint(Endpoint("b", 2))
        fid = slab.intern_flow(src, dst)
        order = []

        def deliver(handle):
            order.append(slab.seq[handle])
            slab.free(handle)

        pipe.connect(deliver)
        pipe.connect_batch(lambda handles: pytest.fail("bulk path under profiler"))
        for wave in range(3):
            seqs = range(wave * 500, (wave + 1) * 500)
            pipe.send_batch(
                slab.alloc_batch(src, dst, fid, 0, seqs, 0, 100, None, 0)
            )
            sim.run()
        assert [s for s, _ in plain["order"]] == order
        assert sim.events_processed == plain["events"]
        assert profiler.events == sim.events_processed
