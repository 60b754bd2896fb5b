"""Self-timing hot-path workloads shared by benches and the CI gate.

Each function runs a fixed-size workload on one of the per-packet hot
layers and returns ``(units, wall_seconds)`` so callers can derive a
throughput.  They are deliberately pure-Python callables with no pytest
dependency: ``test_bench_engine.py`` / ``test_bench_hotpath.py`` wrap
them with pytest-benchmark for timing statistics, while
``perf_smoke.py`` (the CI perf gate) runs them directly and compares
against the committed ``BENCH_engine.json`` baseline.
"""

from __future__ import annotations

import random
import time
from typing import List, Tuple

from repro.core.controller import AlphaShiftController
from repro.core.ensemble import EnsembleConfig, EnsembleTimeout
from repro.core.estimator import BackendLatencyEstimator
from repro.lb.backend import Backend, BackendPool
from repro.lb.maglev import MaglevTable
from repro.net.addr import Endpoint
from repro.net.packet import PacketSlab
from repro.net.pipe import Pipe
from repro.sim.engine import Simulator
from repro.units import GIGABITS_PER_SECOND, MICROSECONDS


def run_engine_fire_events(n: int = 10_000) -> Tuple[int, float]:
    """Schedule+drain ``n`` fire-and-forget events (the dominant kind)."""
    sim = Simulator()
    sink: List[None] = []
    start = time.perf_counter()
    for i in range(n):
        sim.schedule_fire(i, lambda: sink.append(None))
    sim.run()
    seconds = time.perf_counter() - start
    assert len(sink) == n
    return n, seconds


def make_gap_trace(n: int = 100_000, seed: int = 7) -> List[int]:
    """Arrival times whose gaps straddle the paper's δ ladder.

    Mostly intra-batch gaps (2 µs), with inter-batch pauses at 30 µs,
    300 µs, and occasional multi-epoch idles — the mix the LB actually
    sees, so the fused prefix-roll short-circuits realistically.
    """
    rng = random.Random(seed)
    choices = (2_000, 2_000, 2_000, 30_000, 300_000, 5_000_000)
    trace = []
    t = 0
    for _ in range(n):
        t += rng.choice(choices)
        trace.append(t)
    return trace


def run_ensemble_observe(trace: List[int]) -> Tuple[int, float]:
    """Feed ``trace`` through one EnsembleTimeout; returns (packets, s)."""
    ensemble = EnsembleTimeout(EnsembleConfig())
    observe = ensemble.observe
    start = time.perf_counter()
    for now in trace:
        observe(now)
    seconds = time.perf_counter() - start
    return len(trace), seconds


def run_pipe_stream(
    packets: int = 1_000, batches: int = 10
) -> Tuple[int, float, int]:
    """Stream ``batches`` waves of ``packets`` through one 10 Gb/s pipe.

    Each packet is a slab record: allocated, sent, delivered by its own
    engine event and freed by the receiver.  Returns ``(delivered,
    seconds, peak_queue_depth)``; the peak depth is O(packets in flight),
    one heap entry per packet — here a whole 1k wave.  No workload has
    this shape (fig2b peaks near 11 packets in flight): it is the
    heap's worst case, not a typical one.
    """
    sim = Simulator()
    slab = PacketSlab()
    pipe = Pipe(
        sim,
        "bench",
        prop_delay=10 * MICROSECONDS,
        bandwidth_bps=10 * GIGABITS_PER_SECOND,
        slab=slab,
    )
    count = [0]
    free = slab.free

    def deliver(handle: int) -> None:
        count[0] += 1
        free(handle)

    pipe.connect(deliver)
    src_i = slab.intern_endpoint(Endpoint("a", 1))
    dst_i = slab.intern_endpoint(Endpoint("b", 2))
    fid = slab.intern_flow(src_i, dst_i)
    alloc, send = slab.alloc, pipe.send
    start = time.perf_counter()
    for _ in range(batches):
        for _ in range(packets):
            send(alloc(src_i, dst_i, fid, 0, 0, 0, 100, None, 0))
        sim.run()
    seconds = time.perf_counter() - start
    assert count[0] == packets * batches
    assert slab.live == 0
    return count[0], seconds, sim.peak_queue_depth


def run_lb_control_path(
    samples: int = 40_000, rebuilds: int = 100
) -> Tuple[int, float, int, float]:
    """The LB's control path, sized like the ledger's ``lb_replay``.

    Two timed arms over 16 backends: ``samples`` ``T_LB`` samples, each
    folded into the estimator and followed by ``maybe_update`` (latencies
    stay inside the hysteresis band, so every call ranks all backends
    and none shifts); then ``rebuilds`` full builds of a 4099-slot
    Maglev table, each for other weights.  Returns ``(samples,
    sample_seconds, rebuilds, rebuild_seconds)``.
    """
    names = ["server%d" % i for i in range(16)]
    rng = random.Random(7)
    estimator = BackendLatencyEstimator()
    controller = AlphaShiftController(
        BackendPool([Backend(name) for name in names]), estimator
    )
    stream = [
        (names[i % 16], i * 25 * MICROSECONDS, 200_000 + rng.randrange(20_000))
        for i in range(samples)
    ]
    observe = estimator.observe
    maybe_update = controller.maybe_update
    start = time.perf_counter()
    for backend, now, t_lb in stream:
        observe(backend, now, t_lb)
        maybe_update(now)
    sample_seconds = time.perf_counter() - start
    assert controller.updates == []

    table = MaglevTable(4099)
    weight_sets = [
        {name: rng.uniform(0.2, 3.0) for name in names} for _ in range(rebuilds)
    ]
    start = time.perf_counter()
    for weights in weight_sets:
        table.build(weights)
    rebuild_seconds = time.perf_counter() - start
    assert table.builds == rebuilds
    return samples, sample_seconds, rebuilds, rebuild_seconds


def run_fleet_elastic_1k() -> Tuple[int, float, int]:
    """The 1k-backend elastic scale event (the end-to-end gate arm).

    Mirrors ``test_bench_fleet``'s scale-event arm: 100 → 1024 backends
    through a scheduled peak with a mid-run burst.  Unlike the
    microbenches this exercises every layer at once — transport, slab
    dataplane, feedback, autoscaler — so a regression anywhere shows up
    here even when each microbench still passes.
    """
    from repro.harness.elastic import ElasticConfig, run_elastic
    from repro.units import SECONDS

    config = ElasticConfig(
        duration=1 * SECONDS, initial_backends=100, max_backends=1024
    )
    elastic = run_elastic(config)
    result = elastic.result
    return (
        result.wall_events,
        result.wall_seconds,
        elastic.scenario.sim.peak_queue_depth,
    )
