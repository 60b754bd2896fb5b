"""The ledger's five workloads.

Each workload is a function ``(seed, scale, observe) -> Run`` that builds
a deployment through the repo's public harness entry points, drives it
through exactly one ``Simulator.run_until`` / ``Simulator.run`` call (the
*timed region*, which :mod:`measure` times from outside) and hands back
the public objects the counters are read from.  ``scale`` stretches the
simulated duration (1.0 is the benchmark's size: 2-5 s of host time a
round on the box it was sized on); ``observe(lb)`` is called before the run with the load
balancer so the traced run can attach its arrival recorder — it is None
on timed repeats, and unavailable on ``fleet_scaleout_1k`` because
``run_elastic`` builds and runs in one call.

Why these five, and what each bypasses, is in README.md.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.core.ensemble import EnsembleConfig, EnsembleTimeout
from repro.core.feedback import FeedbackConfig, InbandFeedback
from repro.faults.model import DelayFault
from repro.harness.compare import compare_config
from repro.harness.config import PolicyName, ScenarioConfig
from repro.harness.elastic import ElasticConfig, run_elastic
from repro.harness.figures import BacklogConfig, build_backlog
from repro.harness.runner import run_scenario
from repro.harness.scenario import Scenario, build_scenario
from repro.lb.backend import Backend, BackendPool
from repro.lb.conntrack import ConnTrack
from repro.lb.dataplane import LoadBalancer
from repro.lb.policies import MaglevPolicy
from repro.net.addr import Endpoint
from repro.net.network import Network
from repro.net.packet import FLAG_ACK, FLAG_FIN, FLAG_PSH, FLAG_SYN, PacketSlab
from repro.sim.engine import Simulator
from repro.units import MICROSECONDS, MILLISECONDS

Observe = Optional[Callable[[LoadBalancer], None]]


@dataclass
class Run:
    """One finished run: the public objects its counters are read from."""

    sim: Simulator
    network: Network
    lb: LoadBalancer
    #: Simulated time the run covered (ns) and where steady state starts.
    horizon: int
    warmup: int
    #: ``(time, value)`` ground-truth samples ``sim_mean_ms`` is taken over
    #: (ns): client latencies, transport RTTs, or emitted ``T_LB``.
    truth: List[tuple]
    #: ``T_LB`` samples (ns) for ``core.est_err_pct``; empty when the
    #: workload has no second latency series to compare against.
    t_lb: List[float]
    #: Operations offered and operations that finished.  Requests for the
    #: request workloads, packets for ``fig2b_backlog`` and ``lb_replay``.
    attempted: int
    completed: int
    feedback: Optional[InbandFeedback] = None
    scenario: Optional[Scenario] = None
    #: Workload-specific exact counters, already under their metric names.
    extra: Dict[str, float] = field(default_factory=dict)
    #: Failed output checks (empty when the outputs hold) and how many
    #: operations they affected.
    broken: List[str] = field(default_factory=list)
    failed: int = 0

    def fail(self, message: str, operations: int = 1) -> None:
        """Record a failed output check over ``operations`` operations."""
        self.broken.append(message)
        self.failed += max(1, operations)


def _scaled(base: int, scale: float) -> int:
    return max(1, int(base * scale))


class _SendCounter:
    """The one hook timed repeats install: requests issued, by the
    public observational ``MemtierClient.on_send`` seam."""

    def __init__(self, scenario: Scenario):
        self.issued = 0
        for client in scenario.clients:
            client.on_send = self._on_send

    def _on_send(self, request, local_port: int, is_retry: bool) -> None:
        if not is_retry:
            self.issued += 1


def _scenario_run(
    config: ScenarioConfig, scenario: Scenario, issued: int, completed_records
) -> Run:
    feedback = scenario.feedback
    return Run(
        sim=scenario.sim,
        network=scenario.network,
        lb=scenario.lb,
        horizon=config.duration,
        warmup=config.warmup,
        truth=[(r.completed_at, r.latency) for r in completed_records],
        t_lb=[float(s.t_lb) for s in feedback.samples] if feedback else [],
        attempted=issued,
        completed=len(completed_records),
        feedback=feedback,
        scenario=scenario,
    )


def fig3_feedback(seed: int, scale: float, observe: Observe = None) -> Run:
    """The paper's headline experiment: the FEEDBACK arm of ``run_fig3``.

    Closed loop: 1 client x 4 connections x pipeline 4, 50/50 GET/SET,
    reconnect every 200 requests, two servers, +1 ms on ``lb->server0``
    at the midpoint.
    """
    duration = _scaled(1200 * MILLISECONDS, scale)
    injection_at = duration // 2
    config = ScenarioConfig(
        seed=11 + seed,
        duration=duration,
        n_servers=2,
        policy=PolicyName.FEEDBACK,
        faults=[
            DelayFault(start=injection_at, node="server0", extra=1 * MILLISECONDS)
        ],
        warmup=duration // 10,
    )
    scenario = build_scenario(config)
    counter = _SendCounter(scenario)
    if observe is not None:
        observe(scenario.lb)
    result = run_scenario(config, scenario=scenario)
    run = _scenario_run(config, scenario, counter.issued, result.records)
    first_shift = result.first_shift_after(injection_at)
    run.extra["core.reaction_ms"] = (
        0.0 if first_shift is None else (first_shift - injection_at) / 1e6
    )
    if scale >= 1.0:
        # The paper's effect, checkable once the run is long enough for the
        # loop to separate the servers: weight moved off the slow backend.
        weights = scenario.pool.weights()
        if weights["server0"] >= weights["server1"]:
            run.fail("feedback left no less weight on the slow server0")
    return run


def chaos_lossy(seed: int, scale: float, observe: Observe = None) -> Run:
    """The failure path: the ``lossy_path`` lane of ``repro compare``.

    Closed loop as fig3, three servers, resilience + health checks + the
    client retry plane on, 2 % loss on ``lb->server0`` from a quarter in.
    """
    config = compare_config(
        "lossy_path", "alpha", seed=1 + seed, duration=_scaled(750 * MILLISECONDS, scale)
    )
    scenario = build_scenario(config)
    counter = _SendCounter(scenario)
    if observe is not None:
        observe(scenario.lb)
    result = run_scenario(config, scenario=scenario)
    run = _scenario_run(config, scenario, counter.issued, result.records)
    retry = result.retry_stats()
    if retry.first_attempts != counter.issued:
        run.fail(
            "retry plane admitted %d requests, on_send saw %d"
            % (retry.first_attempts, counter.issued),
            abs(retry.first_attempts - counter.issued),
        )
    return run


def fleet_scaleout_1k(seed: int, scale: float, observe: Observe = None) -> Run:
    """ROADMAP's one end-to-end number at an eighth of its length: ``run_elastic``.

    Closed loop: 4 staggered clients x 128 connections, pipeline 1, 50
    requests per connection, 2 ms think time; 100 -> 1024 backends by the
    midpoint, ``elastic`` burst preset, resilience + fleet planes armed.
    """
    elastic = run_elastic(
        ElasticConfig(
            seed=11 + seed,
            duration=_scaled(250 * MILLISECONDS, scale),
            initial_backends=100,
            max_backends=1024,
        )
    )
    result = elastic.result
    # run_elastic owns its scenario, so on_send cannot be installed before
    # the run; the retry plane's public first-attempt count is the same
    # number (chaos_lossy checks that the two agree).
    issued = result.retry_stats().first_attempts
    run = _scenario_run(result.config, elastic.scenario, issued, result.records)
    run.extra["fleet.backends_peak"] = elastic.peak_capacity()
    run.extra["fleet.affinity_violations"] = elastic.violations
    if elastic.violations:
        run.fail("affinity violations", elastic.violations)
    return run


def fig2b_backlog(seed: int, scale: float, observe: Observe = None) -> Run:
    """One window-limited bulk flow with ``run_fig2b``'s ensemble tap.

    Closed loop by flow control: a 16 KiB window of 1448-byte segments
    through a jittered ``client->lb`` pipe into a ``SinkApp``; RTT step
    at the midpoint.  No request/response app, no controller.
    """
    duration = _scaled(1800 * MILLISECONDS, scale)
    config = BacklogConfig(seed=7 + seed, duration=duration, step_at=duration // 2)
    backlog = build_backlog(config)
    ensemble_config = EnsembleConfig()
    ensembles: Dict[object, EnsembleTimeout] = {}
    estimates: List[float] = []

    def probe(now: int, flow, backend: str, packet) -> None:
        tracker = ensembles.get(flow)
        if tracker is None:
            tracker = ensembles[flow] = EnsembleTimeout(ensemble_config)
        t_lb = tracker.observe(now)
        if t_lb is not None:
            estimates.append(float(t_lb))

    backlog.lb.add_tap(probe)
    if observe is not None:
        observe(backlog.lb)
    backlog.sim.run_until(duration)

    network = backlog.lb.network
    offered = sum(p.stats.packets_sent for p in network.pipes().values())
    lost = sum(p.stats.packets_dropped for p in network.pipes().values())
    return Run(
        sim=backlog.sim,
        network=network,
        lb=backlog.lb,
        horizon=duration,
        warmup=duration // 10,
        truth=list(backlog.ground_truth.items()),
        t_lb=estimates,
        attempted=offered,
        completed=offered - lost - backlog.lb.stats.packets_dropped_no_backend,
        extra={
            "core.samples": len(estimates),
            "core.flows_created": len(ensembles),
        },
    )


# ----------------------------------------------------------------------
# lb_replay: the dataplane alone, driven by a generated packet stream
# ----------------------------------------------------------------------

REPLAY_BACKENDS = 16
REPLAY_FLOWS = 2000
REPLAY_PACKETS = 120_000
#: Inter-packet gaps within a flow (ns): mostly back-to-back batches,
#: some sub-RTT pauses, RTT-scale pauses and rare idles, so every
#: ensemble timeout from 64 us to 4 ms sees gaps on both sides of it.
REPLAY_GAPS = (
    2 * MICROSECONDS,
    2 * MICROSECONDS,
    2 * MICROSECONDS,
    30 * MICROSECONDS,
    300 * MICROSECONDS,
    5 * MILLISECONDS,
)
_DATA = FLAG_ACK | FLAG_PSH
_FIN = FLAG_ACK | FLAG_FIN


def replay_stream(seed: int, n_packets: int, concurrent: int = REPLAY_FLOWS):
    """``(times, flows, flags, n_flows)`` of a seeded client->VIP stream.

    ``concurrent`` slots each carry one flow at a time; a flow is a SYN,
    19-999 data packets and a FIN, and its slot starts the next flow one
    gap later.  Times are non-decreasing.
    """
    rng = random.Random(seed)
    heap = [(rng.randrange(5 * MILLISECONDS), slot) for slot in range(concurrent)]
    heapq.heapify(heap)
    remaining = [0] * concurrent
    flow_of = [0] * concurrent
    times: List[int] = []
    flows: List[int] = []
    flags: List[int] = []
    next_flow = 0
    gaps = REPLAY_GAPS
    for _ in range(n_packets):
        now, slot = heap[0]
        left = remaining[slot]
        if left == 0:
            flow_of[slot] = next_flow
            next_flow += 1
            left = rng.randint(20, 1000)
            flag = FLAG_SYN
        elif left == 1:
            flag = _FIN
        else:
            flag = _DATA
        remaining[slot] = left - 1
        times.append(now)
        flows.append(flow_of[slot])
        flags.append(flag)
        heapq.heapreplace(heap, (now + rng.choice(gaps), slot))
    return times, flows, flags, next_flow


class _Sink:
    """Terminal backend node: checks affinity, frees the handle."""

    def __init__(self, name: str, slab: PacketSlab, owner: Dict[int, str], tally: List[int]):
        self.name = name
        self._slab = slab
        self._owner = owner
        self._tally = tally  # [delivered, misdelivered]

    def on_packet(self, handle: int) -> None:
        slab = self._slab
        tally = self._tally
        tally[0] += 1
        if self._owner.setdefault(slab.fid[handle], self.name) != self.name:
            tally[1] += 1
        slab.free(handle)


def lb_replay(seed: int, scale: float, observe: Observe = None) -> Run:
    """What the paper's XDP program does, with nothing around it.

    Open loop: a seeded generator emits client->VIP packets over 2000
    concurrent flows straight into ``LoadBalancer.on_packet`` from one
    run-lane column; 16 sink backends behind ideal pipes free the
    handles.  No transport, no app.
    """
    times, flows, flags, n_flows = replay_stream(
        7 + seed, _scaled(REPLAY_PACKETS, scale)
    )

    sim = Simulator()
    slab = PacketSlab()
    network = Network(sim, slab)
    pool = BackendPool([Backend("server%d" % i) for i in range(REPLAY_BACKENDS)])
    vip = Endpoint("vip", 9000)
    lb = LoadBalancer(
        network, "lb", vip, pool, MaglevPolicy(pool, table_size=4099), ConnTrack()
    )
    owner: Dict[int, str] = {}
    tally = [0, 0]
    for name in pool.names():
        network.add_node(_Sink(name, slab, owner, tally))
        network.add_alias("vip", name)
        network.connect("lb", name, prop_delay=40 * MICROSECONDS)
    feedback = InbandFeedback(lb, FeedbackConfig())
    if observe is not None:
        observe(lb)

    vip_i = slab.intern_endpoint(vip)
    src_of: List[int] = []
    fid_of: List[int] = []
    for flow in range(n_flows):
        src_i = slab.intern_endpoint(Endpoint("client%d" % (flow % 64), 1024 + flow // 64))
        src_of.append(src_i)
        fid_of.append(slab.intern_flow(src_i, vip_i))
    stream = iter(
        zip([src_of[f] for f in flows], [fid_of[f] for f in flows], flags)
    )
    alloc = slab.alloc
    on_packet = lb.on_packet

    def inject() -> None:
        src_i, fid, flag = next(stream)
        on_packet(
            alloc(src_i, vip_i, fid, flag, 0, 0, 0 if flag == FLAG_SYN else 512, None, sim.now)
        )

    sim.schedule_fire_many(times, inject)
    sim.run()

    horizon = times[-1]
    run = Run(
        sim=sim,
        network=network,
        lb=lb,
        horizon=horizon,
        warmup=horizon // 10,
        truth=[(s.time, s.t_lb) for s in feedback.samples],
        t_lb=[],
        attempted=len(times),
        completed=tally[0] - tally[1],
        feedback=feedback,
    )
    if slab.live:
        run.fail("slab handles leaked", slab.live)
    if tally[1]:
        run.fail("packets reached the wrong backend", tally[1])
    return run


#: name -> (function, one-line reason), in the order the ledger runs them.
WORKLOADS = {
    "fig3_feedback": (
        fig3_feedback,
        "the paper's headline experiment; every layer on the request path is live",
    ),
    "fig2b_backlog": (
        fig2b_backlog,
        "one bulk flow: transport and net dominate, app, controller and conntrack misses are bypassed",
    ),
    "fleet_scaleout_1k": (
        fleet_scaleout_1k,
        "1k-backend scale-out with connection churn and think-time timers: sim, core, resilience and memory show",
    ),
    "chaos_lossy": (
        chaos_lossy,
        "2 % loss with retries and the degradation ladder: the failure path, where lost requests would show",
    ),
    "lb_replay": (
        lb_replay,
        "the LB dataplane alone on a generated packet stream: lb and core only, transport and app bypassed",
    ),
}
