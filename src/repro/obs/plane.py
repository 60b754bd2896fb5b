"""Wiring: one :class:`ObsPlane` instruments a built scenario.

The plane is the only module that knows both sides: the instruments
(:mod:`repro.obs.metrics`, :mod:`repro.obs.trace`,
:mod:`repro.obs.profiler`) and the components they observe.  Components
never import ``repro.obs``; they expose ``attach_metrics`` /
``attach_tracer`` seams taking opaque instrument bundles (mirroring the
estimator's ``attach_quality`` pattern), and everything they do with
them is guarded on ``is not None`` — so a scenario without the plane
pays nothing and behaves identically.

Instrument inventory (all prefixed ``repro_``):

========================================  ===========================
``lb_packets_total{backend}``             routed packets per backend
``lb_new_flows_total{backend}``           new-flow placements
``lb_misroutes_total``                    packets dropped off-VIP
``tlb_samples_total{backend,delta_us}``   T_LB samples per backend per δᵢ
``tlb_latency_ns{backend}``               T_LB distribution (histogram)
``estimator_samples_total{backend}``      samples folded into estimates
``epoch_rolls_total``                     ENSEMBLETIMEOUT epoch ends
``cliff_picks_total{delta_us}``           cliff-chosen reporting timeouts
``censored_samples_total``                retransmission-censored samples
``weight_shifts_total{controller,reason}``  executed weight updates
``stale_holds_total{controller}``         updates refused on stale signal
``mode_transitions_total{to_mode}``       resilience-ladder transitions
``controller_mode``                       ladder severity (0/1/2)
``breaker_transitions_total{backend,to_state}``  breaker edges
``fleet_scaling_decisions_total{policy,direction}``  executed scalings
``fleet_transitions_total{from_state,to_state}``  backend lifecycle edges
``fleet_capacity`` / ``fleet_backends{state}``  fleet size (collect hook)
``backend_weight{backend}``               pool weight (collect hook)
``backend_latency_estimate_ns{backend}``  current estimate (collect hook)
``pipe_dropped_packets{pipe,cause}``      queue vs loss drops (hook)
``sim_events_processed`` / ``sim_pending_events`` /
``sim_peak_queue_depth``                  engine stats (collect hook)
========================================  ===========================
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.net.trace import PacketTrace
from repro.obs.config import ObsConfig
from repro.obs.metrics import Registry
from repro.obs.profiler import EngineProfiler
from repro.obs.trace import CausalTracer

if TYPE_CHECKING:  # pragma: no cover - type-only (harness imports obs)
    from repro.harness.scenario import Scenario


class LBMetrics:
    """Dataplane instruments (attached to the LoadBalancer)."""

    def __init__(self, registry: Registry):
        self.packets = registry.counter(
            "repro_lb_packets_total",
            "Client->server packets the LB forwarded, per backend",
            labels=("backend",),
        )
        self.new_flows = registry.counter(
            "repro_lb_new_flows_total",
            "New flows placed by the routing policy, per backend",
            labels=("backend",),
        )
        self.misroutes = registry.counter(
            "repro_lb_misroutes_total",
            "Packets dropped because they did not address the VIP",
        )


class FeedbackMetrics:
    """Measurement-plane instruments (attached to InbandFeedback)."""

    def __init__(self, registry: Registry):
        self.tlb_samples = registry.counter(
            "repro_tlb_samples_total",
            "T_LB samples emitted, per backend per reporting timeout",
            labels=("backend", "delta_us"),
        )
        self.epoch_rolls = registry.counter(
            "repro_epoch_rolls_total",
            "ENSEMBLETIMEOUT epoch boundaries crossed (all flows)",
        )
        self.cliff_picks = registry.counter(
            "repro_cliff_picks_total",
            "Reporting timeouts chosen at epoch ends, per delta",
            labels=("delta_us",),
        )
        self.censored = registry.counter(
            "repro_censored_samples_total",
            "Samples censored as retransmission-tainted",
        )


class EstimatorMetrics:
    """Estimator instruments (attached to BackendLatencyEstimator)."""

    def __init__(self, registry: Registry):
        self.samples = registry.counter(
            "repro_estimator_samples_total",
            "Samples folded into per-backend estimates",
            labels=("backend",),
        )
        self.latency = registry.histogram(
            "repro_tlb_latency_ns",
            "Distribution of observed T_LB samples (ns)",
            labels=("backend",),
        )


class _BoundCounter:
    """A counter family with some label values pre-bound.

    Controllers never know their registry name — the plane binds the
    ``controller`` label here so every existing call site
    (``.labels(reason=...).inc()`` and bare ``.inc()``) keeps working
    while the exported series gains the per-controller dimension.
    """

    def __init__(self, family, bound):
        self._family = family
        self._bound = dict(bound)

    def labels(self, **labels):
        merged = dict(self._bound)
        merged.update(labels)
        return self._family.labels(**merged)

    def inc(self, amount: float = 1.0) -> None:
        self._family.labels(**self._bound).inc(amount)


class ControllerMetrics:
    """Control-plane instruments (attached to the active control law)."""

    def __init__(self, registry: Registry, controller: str = "alpha"):
        self.shifts = _BoundCounter(
            registry.counter(
                "repro_weight_shifts_total",
                "Executed weight updates, by controller and reason",
                labels=("controller", "reason"),
            ),
            {"controller": controller},
        )
        self.stale_holds = _BoundCounter(
            registry.counter(
                "repro_stale_holds_total",
                "Updates refused because a consulted estimate was stale",
                labels=("controller",),
            ),
            {"controller": controller},
        )


class LadderMetrics:
    """Resilience-ladder instruments (attached to DegradationLadder)."""

    def __init__(self, registry: Registry):
        self.transitions = registry.counter(
            "repro_mode_transitions_total",
            "Degradation-ladder transitions, by target mode",
            labels=("to_mode",),
        )
        self.mode = registry.gauge(
            "repro_controller_mode",
            "Current ladder severity (0=feedback 1=hold 2=fallback)",
        )


class BreakerMetrics:
    """Circuit-breaker instruments (attached to BreakerBoard)."""

    def __init__(self, registry: Registry):
        self.transitions = registry.counter(
            "repro_breaker_transitions_total",
            "Circuit-breaker state changes, per backend per target state",
            labels=("backend", "to_state"),
        )


class FleetMetrics:
    """Fleet-plane instruments (attached to the AutoscalingGroup)."""

    def __init__(self, registry: Registry):
        self.decisions = registry.counter(
            "repro_fleet_scaling_decisions_total",
            "Executed scaling decisions, by policy kind and direction",
            labels=("policy", "direction"),
        )


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
        scenario.lb.attach_metrics(LBMetrics(registry))
        feedback = scenario.feedback
        if feedback is not None:
            feedback.attach_metrics(FeedbackMetrics(registry))
            feedback.estimator.attach_metrics(EstimatorMetrics(registry))
            controller = feedback.controller
            attach = getattr(controller, "attach_metrics", None)
            if attach is not None:
                attach(
                    ControllerMetrics(
                        registry,
                        controller=scenario.config.feedback.strategy,
                    )
                )
            if feedback.ladder is not None:
                feedback.ladder.attach_metrics(LadderMetrics(registry))
        if scenario.breakers is not None:
            scenario.breakers.attach_metrics(BreakerMetrics(registry))

        fleet = scenario.fleet
        fleet_capacity = None
        fleet_backends = None
        if fleet is not None:
            fleet.attach_metrics(FleetMetrics(registry))
            lifecycle_edges = registry.counter(
                "repro_fleet_transitions_total",
                "Backend lifecycle transitions, per edge",
                labels=("from_state", "to_state"),
            )

            def on_lifecycle(event) -> None:
                lifecycle_edges.labels(
                    from_state=(
                        event.from_state.value if event.from_state else "new"
                    ),
                    to_state=event.to_state.value,
                ).inc()

            fleet.lifecycle.on_transition(on_lifecycle)
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
                from repro.fleet.lifecycle import BackendState

                fleet_capacity.set(fleet.capacity())
                for state in BackendState:
                    fleet_backends.labels(state=state.value).set(
                        fleet.lifecycle.count(state)
                    )

        registry.add_collect_hook(collect)

    def _install_tracer(self, scenario: "Scenario") -> None:
        tracer = CausalTracer(self.config.max_trace_events)
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

        if scenario.feedback is not None:
            scenario.feedback.attach_tracer(tracer)
        if scenario.fleet is not None:
            scenario.fleet.attach_tracer(tracer)
        # Stored for request-tree rendering (flow reconstruction).
        tracer.vip = vip  # type: ignore[attr-defined]
