"""Timing one run from outside, and reading its counters afterwards.

The timed region is the single ``Simulator.run_until`` / ``Simulator.run``
call a workload makes.  The harness entry points (``run_scenario``,
``run_elastic``) build, run and collect inside one function, so the region
is found by wrapping those two methods for the duration of one workload
call; everything before the region is set-up, everything after it is
``harness.collect_s``.  Nothing under ``src/`` is edited or re-implemented.
"""

from __future__ import annotations

import gc
import hashlib
import json
import resource
import statistics
import time
from contextlib import contextmanager
from typing import Callable, Dict, List

from repro.sim.engine import Simulator
from repro.telemetry.quantiles import exact_quantile

import workloads

#: (name, unit, better) of every end-to-end metric, as in BENCHMARK.json.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("run_s", "s", "lower"),
    ("run_cpu_s", "s", "lower"),
    ("packets_per_s", "1/s", "higher"),
    ("peak_rss_mb", "MiB", "lower"),
    ("completed_share", "ratio", "higher"),
    ("sim_mean_ms", "ms", "lower"),
)

#: The ``src/repro/`` packages the workloads execute.
LAYERS = (
    "sim",
    "net",
    "transport",
    "lb",
    "core",
    "resilience",
    "fleet",
    "faults",
    "app",
    "telemetry",
    "harness",
)

#: (name, unit, better) of every exact ("U") per-layer counter: read from
#: public stats objects after the run, identical on every repeat of a seed.
COUNTERS = (
    ("sim.events", "count", "lower"),
    ("sim.peak_queue_depth", "count", "lower"),
    ("net.packets_sent", "count", "lower"),
    ("net.packets_delivered", "count", "lower"),
    ("net.drops_queue", "count", "lower"),
    ("net.drops_loss", "count", "lower"),
    ("net.bytes_delivered", "count", "lower"),
    ("net.slab_capacity", "count", "lower"),
    ("lb.packets_in", "count", "lower"),
    ("lb.packets_forwarded", "count", "lower"),
    ("lb.new_flows", "count", "lower"),
    ("lb.conntrack_hits", "count", "higher"),
    ("lb.conntrack_misses", "count", "lower"),
    ("lb.conntrack_hit_ratio", "ratio", "higher"),
    ("lb.conntrack_expired", "count", "lower"),
    ("lb.maglev_builds", "count", "lower"),
    ("core.samples", "count", "higher"),
    ("core.sample_ratio", "ratio", "higher"),
    ("core.censored", "count", "lower"),
    ("core.flows_created", "count", "lower"),
    ("core.shifts", "count", "lower"),
    ("core.reaction_ms", "ms", "lower"),
    ("core.est_err_pct", "%", "lower"),
    ("resilience.mode_transitions", "count", "lower"),
    ("resilience.breaker_edges", "count", "lower"),
    ("resilience.retries", "count", "lower"),
    ("resilience.deadline_expiries", "count", "lower"),
    ("fleet.scale_decisions", "count", "lower"),
    ("fleet.backends_peak", "count", "higher"),
    ("fleet.affinity_violations", "count", "lower"),
    ("faults.transitions", "count", "lower"),
    ("app.requests_issued", "count", "higher"),
    ("app.requests_completed", "count", "higher"),
    ("app.server_util", "ratio", "lower"),
    ("sim.failed_share", "ratio", "lower"),
    ("sim.p95_ms", "ms", "lower"),
)


#: (name, unit, better) of every traced ("T") per-layer metric: one traced
#: run per workload; host times, so they move from run to run.
TRACED = (
    tuple(
        metric
        for layer in LAYERS
        for metric in (
            (layer + ".self_s", "s", "lower"),
            (layer + ".share", "ratio", "lower"),
            (layer + ".calls", "count", "lower"),
        )
    )
    + (
        ("sim.self_ns_per_event", "ns", "lower"),
        ("net.self_ns_per_pkt", "ns", "lower"),
        ("transport.segments", "count", "lower"),
        ("transport.messages", "count", "lower"),
        ("transport.connections", "count", "lower"),
        ("transport.retransmissions", "count", "lower"),
        ("transport.self_ns_per_segment", "ns", "lower"),
        ("lb.self_ns_per_pkt", "ns", "lower"),
        ("core.observes", "count", "lower"),
        ("core.self_ns_per_pkt", "ns", "lower"),
        ("app.self_ns_per_request", "ns", "lower"),
        ("harness.collect_s", "s", "lower"),
        ("runtime.gc_s", "s", "lower"),
        ("runtime.gc_collections", "count", "lower"),
        ("trace.run_s", "s", "lower"),
        ("trace.overhead_ratio", "ratio", "lower"),
        ("trace.coverage", "ratio", "higher"),
        ("trace.unattributed_s", "s", "lower"),
        ("sim.isolated_ns_per_event", "ns", "lower"),
        ("net.isolated_ns_per_pkt", "ns", "lower"),
        ("lb.isolated_ns_per_pkt", "ns", "lower"),
        ("core.isolated_ns_per_observe", "ns", "lower"),
        ("sim.isolated_ratio", "ratio", "lower"),
        ("net.isolated_ratio", "ratio", "lower"),
        ("lb.isolated_ratio", "ratio", "lower"),
        ("core.isolated_ratio", "ratio", "lower"),
    )
)

#: Every per-layer metric, as in BENCHMARK.json.
PER_LAYER = COUNTERS + TRACED


class SetupOnly(Exception):
    """Raised at the start of the timed region to abandon a set-up-only pass."""


class Region:
    """Timestamps of the timed region, taken by the wrapped ``run_until``."""

    def __init__(self, profiler=None, setup_only: bool = False):
        self.profiler = profiler
        self.setup_only = setup_only
        self.entered_at = 0.0
        self.left_at = 0.0
        self.run_s = 0.0
        self.run_cpu_s = 0.0

    def enter(self, drain: Callable[[], int]) -> int:
        self.entered_at = time.perf_counter()
        if self.setup_only:
            raise SetupOnly
        profiler = self.profiler
        if profiler is not None:
            profiler.enable()
        cpu0 = time.process_time()
        wall0 = time.perf_counter()
        try:
            return drain()
        finally:
            wall1 = time.perf_counter()
            cpu1 = time.process_time()
            if profiler is not None:
                profiler.disable()
            self.run_s = wall1 - wall0
            self.run_cpu_s = cpu1 - cpu0
            self.left_at = time.perf_counter()


@contextmanager
def timed_region(region: Region):
    """Route the next ``Simulator.run_until``/``run`` call through ``region``."""
    originals = (Simulator.run_until, Simulator.run)

    def restore() -> None:
        Simulator.run_until, Simulator.run = originals

    def wrap(original):
        def entry(sim, *args, **kwargs):
            restore()  # one region per workload call
            return region.enter(lambda: original(sim, *args, **kwargs))

        return entry

    Simulator.run_until = wrap(originals[0])
    Simulator.run = wrap(originals[1])
    try:
        yield region
    finally:
        restore()


def counters(run: workloads.Run, steady: List[float]) -> Dict[str, float]:
    """Every exact counter of one finished run, by metric name.

    ``steady`` is the run's ground-truth latency samples after warm-up.
    """
    out: Dict[str, float] = {name: 0 for name, _unit, _better in COUNTERS}
    sim, lb = run.sim, run.lb
    out["sim.events"] = sim.events_processed
    out["sim.peak_queue_depth"] = sim.peak_queue_depth

    for pipe in run.network.pipes().values():
        stats = pipe.stats
        out["net.packets_sent"] += stats.packets_sent
        out["net.packets_delivered"] += stats.packets_delivered
        out["net.drops_queue"] += stats.packets_dropped_queue
        out["net.drops_loss"] += stats.packets_dropped_loss + stats.packets_dropped_partition
        out["net.bytes_delivered"] += stats.bytes_delivered
    out["net.slab_capacity"] = run.network.slab.capacity

    out["lb.packets_in"] = lb.stats.packets_in
    out["lb.packets_forwarded"] = lb.stats.packets_forwarded
    out["lb.new_flows"] = lb.stats.new_flows
    conntrack = lb.conntrack.stats
    out["lb.conntrack_hits"] = conntrack.hits
    out["lb.conntrack_misses"] = conntrack.misses
    lookups = conntrack.hits + conntrack.misses
    out["lb.conntrack_hit_ratio"] = conntrack.hits / lookups if lookups else 0.0
    out["lb.conntrack_expired"] = conntrack.expired_idle + conntrack.expired_fin
    out["lb.maglev_builds"] = lb.policy.table.builds

    feedback = run.feedback
    if feedback is not None:
        out["core.samples"] = feedback.sample_count
        out["core.censored"] = feedback.censored_samples
        out["core.flows_created"] = feedback.flows.stats.created
        out["core.shifts"] = len(feedback.shift_events())
        out["resilience.mode_transitions"] = len(feedback.mode_transitions())

    scenario = run.scenario
    if scenario is not None:
        if scenario.breakers is not None:
            out["resilience.breaker_edges"] = len(scenario.breakers.transitions)
        for client in scenario.clients:
            out["resilience.retries"] += client.retry_stats.retries
            out["resilience.deadline_expiries"] += client.retry_stats.deadline_expiries
        if scenario.fleet is not None:
            out["fleet.scale_decisions"] = len(scenario.fleet.decisions)
        if scenario.injector is not None:
            out["faults.transitions"] = len(scenario.injector.events)
        out["app.requests_issued"] = run.attempted
        out["app.requests_completed"] = run.completed
        busy = sum(server.stats.busy_ns for server in scenario.servers)
        workers = sum(max(1, server.config.workers) for server in scenario.servers)
        out["app.server_util"] = busy / (run.horizon * workers)

    out.update(run.extra)
    out["core.sample_ratio"] = (
        out["core.samples"] / lb.stats.packets_in if lb.stats.packets_in else 0.0
    )
    if run.t_lb:
        truth = statistics.median(v for _t, v in run.truth)
        out["core.est_err_pct"] = 100.0 * abs(statistics.median(run.t_lb) - truth) / truth
    out["sim.failed_share"] = 1.0 - run.completed / run.attempted
    out["sim.p95_ms"] = exact_quantile(steady, 0.95) / 1e6
    return out


def check_invariants(run: workloads.Run, counts: Dict[str, float]) -> None:
    """Conservation checks every workload must pass; failures land on ``run``."""
    stats = run.lb.stats
    unaccounted = (
        stats.packets_in - stats.packets_forwarded - stats.packets_dropped_no_backend
    )
    if unaccounted:
        run.fail("lb: forwarded + refused != packets_in", abs(unaccounted))
    in_flight = sum(pipe.in_flight for pipe in run.network.pipes().values())
    lost = counts["net.packets_sent"] - (
        counts["net.packets_delivered"]
        + counts["net.drops_queue"]
        + counts["net.drops_loss"]
        + in_flight
    )
    if lost:
        run.fail("net: delivered + drops + in-flight != packets_sent", abs(lost))
    if not 0 < run.completed <= run.attempted:
        run.fail(
            "operations: completed %d of %d attempted" % (run.completed, run.attempted)
        )
    bad = sum(1 for _t, value in run.truth if value <= 0)
    if bad:
        run.fail("ground-truth latency samples are not positive", bad)


def digest(counts: Dict[str, float], sim_mean_ms: float, run: workloads.Run) -> str:
    """Hash over everything simulated: equal digests, equal behaviour."""
    document = {
        "counts": {name: repr(value) for name, value in sorted(counts.items())},
        "sim_mean_ms": repr(sim_mean_ms),
        "completed": run.completed,
        "weights": {n: repr(w) for n, w in sorted(run.lb.pool.weights().items())},
    }
    return hashlib.sha256(json.dumps(document, sort_keys=True).encode()).hexdigest()[:16]


def setup_pass(name: str, seed: int, scale: float) -> float:
    """Build ``name`` up to the start of its timed region; seconds taken."""
    function = workloads.WORKLOADS[name][0]
    region = Region(setup_only=True)
    started = time.perf_counter()
    try:
        with timed_region(region):
            function(seed, scale)
    except SetupOnly:
        pass
    seconds = region.entered_at - started
    gc.collect()  # the abandoned deployment is cyclic garbage
    return seconds


def run_once(
    name: str, seed: int, scale: float, profiler=None, observe=None
) -> Dict[str, object]:
    """Build, run and collect ``name`` once; timings, counters and digest."""
    function = workloads.WORKLOADS[name][0]
    region = Region(profiler=profiler)
    started = time.perf_counter()
    with timed_region(region):
        run = function(seed, scale, observe)
    finished = time.perf_counter()

    steady = [value for at, value in run.truth if at >= run.warmup]
    counts = counters(run, steady)
    check_invariants(run, counts)
    # The mean, not a percentile: across seeds a percentile that sits on
    # the edge between the fast and the slow server jumps between the two.
    sim_mean_ms = statistics.fmean(steady) / 1e6
    return {
        "build_s": region.entered_at - started,
        "region": (region.entered_at, region.left_at),
        "run_s": region.run_s,
        "run_cpu_s": region.run_cpu_s,
        "collect_s": finished - region.left_at,
        "completed_share": run.completed / run.attempted,
        "sim_mean_ms": sim_mean_ms,
        "attempted": run.attempted,
        "counts": counts,
        "failed": run.failed,
        "broken": run.broken,
        "digest": digest(counts, sim_mean_ms, run),
    }


def peak_rss_mb() -> float:
    """High-water resident set of this process, MiB (Linux: KiB units)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
