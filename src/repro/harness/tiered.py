"""The dependency scenario (open question #3).

Topology::

    clients ─► lb ─► frontend0 ─┐
            ╲    ╲              ├─► dep0   (shared dependency)
             ─►   ─► frontend1 ─┘

    frontends ─► clients (direct, DSR)

Two experiments share it, differing only in where the fault lands:

* ``fault="frontend"`` — extra delay on the LB→frontend0 pipe: one
  frontend is genuinely slow.  Shifting traffic helps; the feedback LB's
  tail recovers.
* ``fault="dependency"`` — extra service delay at dep0: *both* frontends
  slow down identically.  No routing decision at the LB can help; a good
  controller should recognize the symmetry and hold still (the paper's
  question is how to tell these cases apart — here the per-backend
  estimates answer it: they inflate together).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.app.client import MemtierClient, MemtierConfig
from repro.app.server import ServerApp, ServerConfig
from repro.app.servicetime import Deterministic
from repro.app.tiered import TieredServerApp, TieredServerConfig
from repro.app.variability import StepInjector
from repro.core.feedback import FeedbackConfig, InbandFeedback
from repro.errors import ConfigError
from repro.faults.injector import Injector
from repro.faults.model import DelayFault, FaultSpec
from repro.faults.schedule import FaultSchedule
from repro.harness.config import NetworkParams
from repro.harness.runner import drive_clients
from repro.harness.scenario import VIP_HOST, wire_dsr
from repro.lb.backend import Backend, BackendPool
from repro.lb.dataplane import LoadBalancer
from repro.lb.policies import MaglevPolicy
from repro.net.addr import Endpoint
from repro.net.network import Network
from repro.sim.engine import Simulator
from repro.sim.random import RandomStreams
from repro.transport.endpoint import Host
from repro.units import MICROSECONDS, MILLISECONDS, SECONDS


@dataclass
class TieredScenarioConfig:
    """Knobs for the dependency experiment."""

    seed: int = 17
    duration: int = 2 * SECONDS
    n_frontends: int = 2
    #: Deprecated alias: ``"frontend"`` becomes a chaos-plane
    #: :class:`DelayFault` on the LB→frontend0 pipe; ``"dependency"``
    #: keeps its service-side StepInjector (the dependency app is not an
    #: LB backend, so it sits below the chaos plane's selectors).
    fault: str = "dependency"          # "dependency" | "frontend" | "none"
    fault_extra: int = 1 * MILLISECONDS
    vip_port: int = 11211
    dep_port: int = 12000
    memtier: MemtierConfig = field(default_factory=MemtierConfig)
    feedback: FeedbackConfig = field(default_factory=FeedbackConfig)
    #: Declarative chaos-plane faults targeting frontends (see
    #: :mod:`repro.faults`); composed with the legacy ``fault`` alias.
    faults: List[FaultSpec] = field(default_factory=list)

    @property
    def fault_at(self) -> int:
        """Fault onset: the midpoint of the run."""
        return self.duration // 2

    def validate(self) -> None:
        """Raise ConfigError on malformed values."""
        if self.fault not in ("dependency", "frontend", "none"):
            raise ConfigError("unknown fault kind %r" % self.fault)
        if self.n_frontends < 1:
            raise ConfigError("need at least one frontend")
        if self.duration <= 0:
            raise ConfigError("duration must be positive")
        for fault in self.faults:
            fault.validate()

    def all_faults(self) -> List[FaultSpec]:
        """Chaos-plane faults: legacy ``fault="frontend"`` plus ``faults``."""
        faults = list(self.faults)
        if self.fault == "frontend":
            faults.insert(
                0,
                DelayFault(
                    start=self.fault_at,
                    extra=self.fault_extra,
                    node="frontend0",
                ),
            )
        return faults


@dataclass
class TieredResult:
    """Everything the dependency benches read."""

    config: TieredScenarioConfig
    client: MemtierClient
    feedback: InbandFeedback
    pool: BackendPool
    frontends: List[TieredServerApp]
    dependency: ServerApp
    injector: Optional[Injector] = None

    def latencies(self, start: int = 0) -> List[int]:
        """Client-side latencies completing after ``start``."""
        return [
            r.latency for r in self.client.records if r.completed_at >= start
        ]

    def estimate_gap(self) -> Optional[float]:
        """Worst−best backend estimate (ns) at the end of the run."""
        ranked = self.feedback.estimator.worst_and_best()
        if ranked is None:
            return None
        worst, best = ranked
        return worst.value - best.value

    def shifts_after_fault(self) -> int:
        """Weight updates executed after the fault onset."""
        return sum(
            1 for e in self.feedback.shift_events() if e.time >= self.config.fault_at
        )


def run_tiered(config: Optional[TieredScenarioConfig] = None) -> TieredResult:
    """Build and run the two-tier scenario."""
    config = config or TieredScenarioConfig()
    config.validate()
    sim = Simulator()
    network = Network(sim)
    streams = RandomStreams(config.seed)
    params = NetworkParams()
    vip = Endpoint(VIP_HOST, config.vip_port)

    frontend_names = ["frontend%d" % i for i in range(config.n_frontends)]
    pool = BackendPool([Backend(name) for name in frontend_names])
    lb = LoadBalancer(network, "lb", vip, pool, MaglevPolicy(pool, table_size=1021))
    feedback = InbandFeedback(lb, config.feedback)

    # Dependency host + app (with the optional service-side fault).
    dep_host = Host(network, "dep0")
    dep_injector = None
    if config.fault == "dependency":
        dep_injector = StepInjector(extra=config.fault_extra, start=config.fault_at)
    dep_config = ServerConfig(
        port=config.dep_port,
        workers=4,
        service_model=Deterministic(20 * MICROSECONDS),
    )
    if dep_injector is not None:
        dep_config.injector = dep_injector
    dependency = ServerApp(
        dep_host, dep_config, streams.get("dep.service")
    )

    # The DSR path, then each frontend's legs to and from dep0 (half an
    # LB→server hop each way).  Wired before the frontend apps, which
    # dial dep0 as they are built.
    frontend_hosts = [Host(network, name) for name in frontend_names]
    client_host = Host(network, "client0")
    wire_dsr(network, "lb", frontend_names, ["client0"], params)
    for name in frontend_names:
        for src, dst in ((name, "dep0"), ("dep0", name)):
            network.connect(
                src,
                dst,
                prop_delay=params.lb_server_delay // 2,
                bandwidth_bps=params.bandwidth_bps,
                queue_capacity=params.queue_capacity,
            )
        network.add_route(name, "dep0", "dep0")

    frontends = [
        TieredServerApp(
            host,
            TieredServerConfig(
                port=config.vip_port,
                dependency=Endpoint("dep0", config.dep_port),
            ),
            streams.get("frontend.%s" % host.name),
            service_endpoint=vip,
        )
        for host in frontend_hosts
    ]
    client = MemtierClient(
        client_host, vip, config.memtier, streams.get("client.workload")
    )

    # Chaos plane: the legacy frontend-side fault and any declarative
    # faults share the injector (no direct pipe pokes in harness code).
    injector = None
    faults = config.all_faults()
    if faults:
        injector = Injector(
            sim,
            network,
            server_names=frontend_names,
            client_names=["client0"],
            lb_name="lb",
            pool=pool,
            servers={f.host.name: f for f in frontends},
            loss_rng=streams.get("faults.loss"),
            jitter_rng=streams.get("faults.jitter"),
        )
        injector.arm(FaultSchedule(faults), config.duration)

    drive_clients(sim, [client], config.duration)

    return TieredResult(
        config=config,
        client=client,
        feedback=feedback,
        pool=pool,
        frontends=frontends,
        dependency=dependency,
        injector=injector,
    )
