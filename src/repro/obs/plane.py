"""Wiring: one :class:`ObsPlane` instruments a built scenario.

The plane is the only module that knows both sides: the instruments
(:mod:`repro.obs.metrics`, :mod:`repro.obs.trace`,
:mod:`repro.obs.profiler`) and the components they observe.  Components
never import ``repro.obs`` and carry no instrument: every counter is
filled by a collect hook, before every read, from the stats and
append-only logs the components keep anyway.  Counters marked *log*
are recounted whole (``LoadBalancerStats``, the controller's
``updates`` and ``stale_holds``, the ladder's and breakers'
``transitions``, the autoscaler's ``decisions``, the lifecycle's
``events``).  Those marked *fold* grow with every packet, so the hook
folds in only the entries the feedback loop's ``samples`` and
``epochs`` logs gained since the last read, in log order.  The tracer
reads the same sample log in place, so a scenario without the plane
pays nothing and behaves identically.

Instrument inventory (all prefixed ``repro_``):

========================================  ===========================
``lb_packets_total{backend}``             routed packets per backend (log)
``lb_new_flows_total{backend}``           new-flow placements (log)
``lb_misroutes_total``                    packets dropped off-VIP (log)
``tlb_samples_total{backend,delta_us}``   T_LB samples per backend per δᵢ (fold)
``tlb_latency_ns{backend}``               T_LB distribution (histogram, fold)
``estimator_samples_total{backend}``      samples folded into estimates (fold)
``epoch_rolls_total``                     ENSEMBLETIMEOUT epoch ends (fold)
``cliff_picks_total{delta_us}``           cliff-chosen reporting timeouts (fold)
``censored_samples_total``                retransmission-censored samples (log)
``weight_shifts_total{controller,reason}``  executed weight updates (log)
``stale_holds_total{controller}``         updates refused on stale signal (log)
``mode_transitions_total{to_mode}``       resilience-ladder transitions (log)
``controller_mode``                       ladder severity (0/1/2)
``breaker_transitions_total{backend,to_state}``  breaker edges (log)
``fleet_scaling_decisions_total{policy,direction}``  executed scalings (log)
``fleet_transitions_total{from_state,to_state}``  backend lifecycle edges (log)
``fleet_capacity`` / ``fleet_backends{state}``  fleet size
``backend_weight{backend}``               pool weight
``backend_latency_estimate_ns{backend}``  current estimate
``pipe_dropped_packets{pipe,cause}``      queue vs loss drops
``sim_events_processed`` / ``sim_pending_events`` /
``sim_peak_queue_depth``                  engine stats
========================================  ===========================

Every gauge is set by the same collect hook.
"""

from __future__ import annotations

import collections
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

from repro.fleet.lifecycle import BackendState
from repro.net.trace import PacketTrace
from repro.obs.config import ObsConfig
from repro.obs.metrics import Counter, Registry
from repro.obs.profiler import EngineProfiler
from repro.obs.trace import CausalTracer
from repro.resilience.ladder import SEVERITY

if TYPE_CHECKING:  # pragma: no cover - type-only (harness imports obs)
    from repro.harness.scenario import Scenario


def _install_feedback_fold(registry: Registry, feedback) -> None:
    """Register the per-sample families and the collect hook filling them.

    Each collect folds only the ``samples`` and ``epochs`` entries
    appended since the previous one, in log order, so children appear,
    and histogram sums accumulate, exactly as one push per event would.
    """
    tlb_samples = registry.counter(
        "repro_tlb_samples_total",
        "T_LB samples emitted, per backend per reporting timeout",
        labels=("backend", "delta_us"),
    )
    estimator_samples = registry.counter(
        "repro_estimator_samples_total",
        "Samples folded into per-backend estimates",
        labels=("backend",),
    )
    latency = registry.histogram(
        "repro_tlb_latency_ns",
        "Distribution of observed T_LB samples (ns)",
        labels=("backend",),
    )
    epoch_rolls = registry.counter(
        "repro_epoch_rolls_total",
        "ENSEMBLETIMEOUT epoch boundaries crossed (all flows)",
    )
    cliff_picks = registry.counter(
        "repro_cliff_picks_total",
        "Reporting timeouts chosen at epoch ends, per delta",
        labels=("delta_us",),
    )
    timeouts = feedback.config.ensemble.timeouts
    samples_folded = epochs_folded = 0  # high-water marks

    def fold() -> None:
        nonlocal samples_folded, epochs_folded
        samples = feedback.samples
        for sample in samples[samples_folded:]:
            backend = sample.backend
            estimator_samples.labels(backend=backend).inc()
            if sample.t_lb > 0:  # the log-bucketed histogram needs positives
                latency.labels(backend=backend).observe(float(sample.t_lb))
            tlb_samples.labels(
                backend=backend, delta_us=sample.delta // 1000
            ).inc()
        samples_folded = len(samples)
        epochs = feedback.epochs
        for _time, index in epochs[epochs_folded:]:
            epoch_rolls.inc()
            cliff_picks.labels(delta_us=timeouts[index] // 1000).inc()
        epochs_folded = len(epochs)

    registry.add_collect_hook(fold)


def _keyed(counts: Dict[str, int]) -> Dict[Tuple[str], int]:
    """A one-label count dict with its keys as label-value tuples."""
    return {(key,): count for key, count in counts.items()}


class ObsPlane:
    """The scenario's observability plane: registry + tracer + profiler."""

    def __init__(self, config: Optional[ObsConfig] = None):
        self.config = config or ObsConfig()
        self.registry: Optional[Registry] = None
        self.tracer: Optional[CausalTracer] = None
        self.profiler: Optional[EngineProfiler] = None
        self.packet_trace: Optional[PacketTrace] = None

    @classmethod
    def install(cls, scenario: "Scenario") -> "ObsPlane":
        """Build the plane per ``scenario.config.obs`` and attach it."""
        config = scenario.config.obs
        plane = cls(config)
        if config.metrics:
            plane._install_metrics(scenario)
        if config.tracing:
            plane._install_tracer(scenario)
        if config.profiling:
            plane.profiler = EngineProfiler()
            scenario.sim.set_profiler(plane.profiler)
        if config.capture_packets:
            trace = PacketTrace(limit=config.packet_trace_limit)
            scenario.network.attach_trace(trace)
            scenario.trace = trace
            plane.packet_trace = trace
        return plane

    # ------------------------------------------------------------------

    def _install_metrics(self, scenario: "Scenario") -> None:
        registry = Registry()
        self.registry = registry
        # Log-backed counters: (counter, () -> {label values: count}),
        # recounted by ``collect`` below.  ``collections.Counter`` keeps
        # first-occurrence order, so children appear as pushes made them.
        tallies: List[Tuple[Counter, Callable[[], dict]]] = []

        def tally(name, help, labels, counts) -> None:
            tallies.append((registry.counter(name, help, labels), counts))

        lb_stats = scenario.lb.stats
        tally(
            "repro_lb_packets_total",
            "Client->server packets the LB forwarded, per backend",
            ("backend",),
            lambda: _keyed(lb_stats.per_backend_packets),
        )
        tally(
            "repro_lb_new_flows_total",
            "New flows placed by the routing policy, per backend",
            ("backend",),
            lambda: _keyed(lb_stats.per_backend_new_flows),
        )
        tally(
            "repro_lb_misroutes_total",
            "Packets dropped because they did not address the VIP",
            (),
            lambda: {(): lb_stats.packets_dropped_no_backend},
        )
        feedback = scenario.feedback
        ladder = None
        if feedback is not None:
            _install_feedback_fold(registry, feedback)
            tally(
                "repro_censored_samples_total",
                "Samples censored as retransmission-tainted",
                (),
                lambda: {(): feedback.censored_samples},
            )
            controller = feedback.controller
            if controller is not None:
                law = scenario.config.feedback.strategy
                tally(
                    "repro_weight_shifts_total",
                    "Executed weight updates, by controller and reason",
                    ("controller", "reason"),
                    lambda: collections.Counter(
                        (law, u.reason) for u in controller.updates
                    ),
                )
                tally(
                    "repro_stale_holds_total",
                    "Updates refused because a consulted estimate was stale",
                    ("controller",),
                    lambda: {(law,): controller.stale_holds},
                )
            ladder = feedback.ladder
            if ladder is not None:
                tally(
                    "repro_mode_transitions_total",
                    "Degradation-ladder transitions, by target mode",
                    ("to_mode",),
                    lambda: collections.Counter(
                        (t.to_mode.value,) for t in ladder.transitions
                    ),
                )
                mode = registry.gauge(
                    "repro_controller_mode",
                    "Current ladder severity (0=feedback 1=hold 2=fallback)",
                )
        breakers = scenario.breakers
        if breakers is not None:
            tally(
                "repro_breaker_transitions_total",
                "Circuit-breaker state changes, per backend per target state",
                ("backend", "to_state"),
                lambda: collections.Counter(
                    (t.backend, t.to_state.value) for t in breakers.transitions
                ),
            )

        fleet = scenario.fleet
        if fleet is not None:
            tally(
                "repro_fleet_scaling_decisions_total",
                "Executed scaling decisions, by policy kind and direction",
                ("policy", "direction"),
                lambda: collections.Counter(
                    (d.policy, d.direction) for d in fleet.decisions
                ),
            )
            tally(
                "repro_fleet_transitions_total",
                "Backend lifecycle transitions, per edge",
                ("from_state", "to_state"),
                lambda: collections.Counter(
                    (e.from_state.value if e.from_state else "new", e.to_state.value)
                    for e in fleet.lifecycle.events
                ),
            )
            fleet_capacity = registry.gauge(
                "repro_fleet_capacity",
                "Fleet capacity (provisioning + warming + in service)",
            )
            fleet_backends = registry.gauge(
                "repro_fleet_backends",
                "Backends currently in each lifecycle state",
                labels=("state",),
            )

        weight = registry.gauge(
            "repro_backend_weight",
            "Current pool weight per backend",
            labels=("backend",),
        )
        estimate = registry.gauge(
            "repro_backend_latency_estimate_ns",
            "Current per-backend latency estimate (ns)",
            labels=("backend",),
        )
        pipe_drops = registry.gauge(
            "repro_pipe_dropped_packets",
            "Packets dropped per pipe, split by cause",
            labels=("pipe", "cause"),
        )
        sim_events = registry.gauge(
            "repro_sim_events_processed", "Engine events fired so far"
        )
        sim_pending = registry.gauge(
            "repro_sim_pending_events",
            "Engine events still queued, including cancelled tombstones",
        )
        sim_live = registry.gauge(
            "repro_sim_live_events",
            "Engine events that will still fire, one per packet in flight "
            "(excludes cancelled tombstones)",
        )
        sim_peak = registry.gauge(
            "repro_sim_peak_queue_depth",
            "High-water mark of the event queue, in-flight packets included",
        )

        def collect() -> None:
            for counter, counts in tallies:
                counter.set_counts(counts())
            if ladder is not None:
                mode.set(SEVERITY[ladder.mode])
            for name, value in scenario.pool.weights().items():
                weight.labels(backend=name).set(value)
            if feedback is not None:
                for name in scenario.pool.names():
                    current = feedback.estimator.estimate(name)
                    if current is not None:
                        estimate.labels(backend=name).set(current)
            for (src, dst), pipe in scenario.network.pipes().items():
                label = "%s->%s" % (src, dst)
                stats = pipe.stats
                pipe_drops.labels(pipe=label, cause="queue").set(
                    stats.packets_dropped_queue
                )
                pipe_drops.labels(pipe=label, cause="loss").set(
                    stats.packets_dropped_loss
                )
                if stats.packets_dropped_partition:
                    pipe_drops.labels(pipe=label, cause="partition").set(
                        stats.packets_dropped_partition
                    )
            sim = scenario.sim
            sim_events.set(sim.events_processed)
            sim_pending.set(sim.pending_events)
            sim_live.set(sim.live_events)
            sim_peak.set(sim.peak_queue_depth)
            if fleet is not None:
                fleet_capacity.set(fleet.capacity())
                for state in BackendState:
                    fleet_backends.labels(state=state.value).set(
                        fleet.lifecycle.count(state)
                    )

        registry.add_collect_hook(collect)

    def _install_tracer(self, scenario: "Scenario") -> None:
        feedback = scenario.feedback
        tracer = CausalTracer(
            self.config.max_trace_events,
            samples=feedback.samples if feedback is not None else (),
        )
        self.tracer = tracer
        vip = scenario.vip

        def route_tap(now, flow, backend, packet) -> None:
            tracer.on_route(now, flow, backend)

        scenario.lb.add_tap(route_tap)

        for client in scenario.clients:
            client_name = client.host.name

            def on_send(request, port, retry, _name=client_name) -> None:
                tracer.on_send(
                    request.sent_at, request.request_id, _name, port, retry
                )

            def on_response(record, response) -> None:
                tracer.on_response(
                    record.completed_at,
                    record.request_id,
                    response.server,
                    response.queue_delay,
                    response.service_time,
                    record.latency,
                )

            client.on_send = on_send
            client.on_response = on_response

        # Stored for request-tree rendering (flow reconstruction).
        tracer.vip = vip  # type: ignore[attr-defined]
