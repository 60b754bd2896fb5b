"""Scenario assembly: config → a ready-to-run simulated deployment.

The built topology is the paper's (Fig 1): every client routes via the
LB to the VIP; each server owns the VIP alias and returns responses to
clients over direct pipes — the LB never sees a response.

::

    client0 ──► lb ──► server0        server0 ──► client0   (direct)
            ╲        ╲
             ─► ...   ─► server1      server1 ──► client0   (direct)

:func:`wire_dsr` is the one function that lays these pipes; every
harness topology (this module, the Fig 2 backlog, many-LBs, tiered)
calls it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence

from repro.app.client import MemtierClient
from repro.app.server import ServerApp
from repro.core.feedback import InbandFeedback
from repro.errors import ConfigError
from repro.harness.config import NetworkParams, PolicyName, ScenarioConfig
from repro.lb.backend import Backend, BackendPool
from repro.lb.conntrack import ConnTrack
from repro.lb.dataplane import LoadBalancer
from repro.lb.policies import (
    BreakerGatedPolicy,
    LeastConnections,
    MaglevPolicy,
    PowerOfTwoChoices,
    RandomPolicy,
    RoundRobin,
    RoutingPolicy,
    WeightedRandom,
)
from repro.net.addr import Endpoint
from repro.net.network import Network
from repro.sim.engine import Simulator
from repro.sim.random import RandomStreams
from repro.transport.endpoint import Host

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from repro.faults.injector import Injector
    from repro.fleet.autoscaler import AutoscalingGroup
    from repro.insight.plane import InsightPlane
    from repro.lb.health import HealthChecker
    from repro.lb.oracle import OracleFeedback
    from repro.net.trace import PacketTrace
    from repro.obs.plane import ObsPlane
    from repro.resilience.breaker import BreakerBoard

VIP_HOST = "vip"


@dataclass
class Scenario:
    """A fully wired deployment, ready for :func:`~repro.harness.runner.run_scenario`."""

    config: ScenarioConfig
    sim: Simulator
    network: Network
    streams: RandomStreams
    lb: LoadBalancer
    pool: BackendPool
    servers: List[ServerApp]
    clients: List[MemtierClient]
    feedback: Optional[InbandFeedback] = None
    oracle: Optional[OracleFeedback] = None
    #: Chaos plane, armed when the config declares faults.
    injector: Optional[Injector] = None
    #: Resilience plane (None unless ``config.resilience.enabled``).
    breakers: Optional[BreakerBoard] = None
    health: Optional[HealthChecker] = None
    prober: Optional[Host] = None
    #: Observability plane (None unless ``config.obs.enabled``).
    obs: Optional["ObsPlane"] = None
    #: Packet trace, installed by the obs plane on request.
    trace: Optional["PacketTrace"] = None
    #: Fleet plane (None unless ``config.fleet.enabled``).
    fleet: Optional["AutoscalingGroup"] = None
    #: Insight plane (None unless ``config.insight.enabled``).
    insight: Optional["InsightPlane"] = None
    #: Extra series populated by the runner.
    extras: Dict[str, object] = field(default_factory=dict)

    @property
    def vip(self) -> Endpoint:
        """The virtual endpoint clients talk to."""
        return Endpoint(VIP_HOST, self.config.vip_port)


def wire_dsr(
    network: Network,
    lb_name: str,
    server_names: Sequence[str],
    client_names: Sequence[str],
    params: NetworkParams,
    client_jitter: Optional[Callable[[], int]] = None,
) -> None:
    """Wire the paper's DSR path (Fig 1) between existing nodes.

    Each server owns the VIP alias and is fed by an ``lb→server`` pipe.
    Each client gets a ``client→lb`` pipe (with ``client_jitter``, if
    any) as its default route, and a direct ``server→client`` return
    pipe from every server: the LB never sees a response.  A far client
    (``params.client_delay``) is far on the return path by the same
    margin.
    """
    for name in server_names:
        network.add_alias(VIP_HOST, name)
        network.connect(
            lb_name,
            name,
            prop_delay=params.lb_server_delay,
            bandwidth_bps=params.bandwidth_bps,
            queue_capacity=params.queue_capacity,
        )
    for index, name in enumerate(client_names):
        client_delay = params.client_delay(index)
        network.connect(
            name,
            lb_name,
            prop_delay=client_delay,
            bandwidth_bps=params.bandwidth_bps,
            queue_capacity=params.queue_capacity,
            jitter=client_jitter,
        )
        network.set_default_route(name, lb_name)
        return_delay = params.server_client_delay + max(
            0, client_delay - params.client_lb_delay
        )
        for s_name in server_names:
            network.connect(
                s_name,
                name,
                prop_delay=return_delay,
                bandwidth_bps=params.bandwidth_bps,
                queue_capacity=params.queue_capacity,
            )


def build_scenario(config: ScenarioConfig) -> Scenario:
    """Construct the simulated deployment described by ``config``."""
    config.validate()
    sim = Simulator()
    network = Network(sim)
    streams = RandomStreams(config.seed)
    net_params = config.network

    # --- backends and routing policy ----------------------------------
    # With the fleet plane enabled the *topology* provisions the whole
    # server universe (the world can't change shape mid-run) while the
    # pool starts with only the first n_servers; the autoscaler grows
    # and shrinks membership from there.
    fleet = config.fleet
    n_provisioned = fleet.max_backends if fleet.enabled else config.n_servers
    pool = BackendPool(
        [Backend(config.server_name(i)) for i in range(config.n_servers)]
    )
    conntrack = ConnTrack()
    policy = _make_policy(config, pool, conntrack, streams)

    # --- resilience plane (structurally absent unless enabled) ---------
    resilience = config.resilience
    board: Optional[BreakerBoard] = None
    if resilience.enabled:
        from repro.resilience.breaker import BreakerBoard

        board = BreakerBoard(resilience.breaker)
        policy = BreakerGatedPolicy(policy, pool, board)

    # --- the load balancer, owner of the VIP ---------------------------
    vip = Endpoint(VIP_HOST, config.vip_port)
    lb = LoadBalancer(
        network,
        "lb",
        vip,
        pool,
        policy,
        conntrack,
        breakers=board,
    )

    # --- servers --------------------------------------------------------
    server_names = [config.server_name(i) for i in range(n_provisioned)]
    servers: List[ServerApp] = []
    for index, name in enumerate(server_names):
        server = ServerApp(
            Host(network, name),
            config.server_config(index),
            streams.get("server.%s.service" % name),
            service_endpoint=vip,
        )
        servers.append(server)

    # --- clients ----------------------------------------------------------
    client_names = [config.client_name(i) for i in range(config.n_clients)]
    clients: List[MemtierClient] = []
    for name in client_names:
        client = MemtierClient(
            Host(network, name),
            vip,
            config.memtier,
            streams.get("client.%s.workload" % name),
            retry=resilience.retry if resilience.enabled else None,
            retry_rng=(
                streams.get("client.%s.retry" % name)
                if resilience.enabled
                else None
            ),
        )
        clients.append(client)
    wire_dsr(network, "lb", server_names, client_names, net_params)

    scenario = Scenario(
        config=config,
        sim=sim,
        network=network,
        streams=streams,
        lb=lb,
        pool=pool,
        servers=servers,
        clients=clients,
        breakers=board,
    )

    # --- active health checks (prober host colocated with the LB) --------
    if resilience.enabled and resilience.health_checks:
        from repro.lb.health import HealthCheckConfig, HealthChecker

        prober = Host(network, "prober")
        targets: Dict[str, Endpoint] = {}
        for index in range(config.n_servers):
            s_name = config.server_name(index)
            network.connect_bidirectional(
                "prober",
                s_name,
                prop_delay=net_params.lb_server_delay,
                bandwidth_bps=net_params.bandwidth_bps,
                queue_capacity=net_params.queue_capacity,
            )
            targets[s_name] = Endpoint(
                s_name, config.server_config(index).port
            )
        scenario.prober = prober
        scenario.health = HealthChecker(
            prober,
            pool,
            targets,
            resilience.health or HealthCheckConfig(),
            breakers=board,
        )

    # --- measurement / control plane --------------------------------------
    if config.policy is PolicyName.FEEDBACK:
        scenario.feedback = InbandFeedback(
            lb, config.feedback, resilience=resilience, breakers=board
        )
    elif config.policy is PolicyName.ORACLE:
        from repro.lb.oracle import OracleFeedback

        oracle = OracleFeedback(pool, config.feedback)
        for client in clients:
            client.on_record = oracle.on_record
        scenario.oracle = oracle

    # --- fleet plane -------------------------------------------------------
    # Created after the measurement plane (the autoscaler reads the
    # feedback loop's estimator/quality state) and before obs (which
    # instruments it).  start() schedules the first evaluation tick.
    if fleet.enabled:
        from repro.fleet.autoscaler import AutoscalingGroup

        scenario.fleet = AutoscalingGroup(
            sim,
            pool,
            conntrack,
            fleet,
            server_names,
            feedback=scenario.feedback,
        )
        scenario.fleet.start()

    # --- chaos plane -------------------------------------------------------
    # Declarative faults are compiled to windows and armed on the
    # simulator by the injector (deterministic revert-on-expiry).
    faults = config.all_faults()
    if faults:
        from repro.faults.injector import Injector
        from repro.faults.schedule import FaultSchedule

        injector = Injector.for_scenario(scenario)
        injector.arm(FaultSchedule(faults), config.duration)
        scenario.injector = injector

    # --- observability plane ----------------------------------------------
    # Installed last so every component it instruments already exists.
    # Passive by construction: no events scheduled, no RNG draws.
    if config.obs.enabled:
        from repro.obs.plane import ObsPlane

        scenario.obs = ObsPlane.install(scenario)

    # --- insight plane ----------------------------------------------------
    # After obs, so the recorder's tap sees post-update state.  Same
    # passivity contract: no events scheduled, no RNG draws.
    if config.insight.enabled:
        from repro.insight.plane import InsightPlane

        scenario.insight = InsightPlane.install(scenario)

    return scenario


def _make_policy(
    config: ScenarioConfig,
    pool: BackendPool,
    conntrack: ConnTrack,
    streams: RandomStreams,
) -> RoutingPolicy:
    policy = config.policy
    if policy in (PolicyName.MAGLEV, PolicyName.FEEDBACK, PolicyName.ORACLE):
        return MaglevPolicy(
            pool,
            table_size=config.maglev_size,
            incremental=config.fleet.enabled and config.fleet.incremental_maglev,
        )
    if policy is PolicyName.ROUND_ROBIN:
        return RoundRobin(pool)
    if policy is PolicyName.RANDOM:
        return RandomPolicy(pool, streams.get("lb.policy"))
    if policy is PolicyName.WEIGHTED_RANDOM:
        return WeightedRandom(pool, streams.get("lb.policy"))
    if policy is PolicyName.LEAST_CONNECTIONS:
        return LeastConnections(pool, conntrack)
    if policy is PolicyName.POWER_OF_TWO:
        return PowerOfTwoChoices(pool, conntrack, streams.get("lb.policy"))
    raise ConfigError("unhandled policy %r" % policy)
