"""Multiple independent feedback LBs over one server pool.

Open question #4 asks how to design control loops that converge "without
thundering-herd problems, with many LBs".  This scenario provides the
substrate: N load balancers, each with its *own* conntrack, weights, and
in-band feedback loop (they share nothing), all forwarding to the same
servers.  A server-side slowdown is observed — and reacted to —
independently by every LB.

The herd risk: every LB shifts off the slow server at once, the healthy
server's queue grows, every LB then sees *it* as slow and shifts back,
and the system oscillates.  The scenario records per-LB weight
trajectories so benches can quantify exactly that.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.app.client import MemtierClient, MemtierConfig, RequestRecord
from repro.app.server import ServerApp, ServerConfig
from repro.app.servicetime import Deterministic
from repro.app.variability import StepInjector
from repro.core.feedback import FeedbackConfig, InbandFeedback
from repro.errors import ConfigError
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
from repro.telemetry.columns import merge_logs
from repro.telemetry.timeseries import TimeSeries
from repro.transport.endpoint import Host
from repro.units import MICROSECONDS, MILLISECONDS, SECONDS


@dataclass
class MultiLbConfig:
    """Knobs for the many-LBs experiment."""

    seed: int = 23
    duration: int = 2 * SECONDS
    n_lbs: int = 2
    n_servers: int = 2
    clients_per_lb: int = 1
    vip_port: int = 11211
    injected_server: str = "server0"
    injection_extra: int = 1 * MILLISECONDS
    memtier: MemtierConfig = field(
        default_factory=lambda: MemtierConfig(connections=2, pipeline=2)
    )
    feedback: FeedbackConfig = field(default_factory=FeedbackConfig)
    server: ServerConfig = field(
        default_factory=lambda: ServerConfig(
            service_model=Deterministic(50 * MICROSECONDS)
        )
    )

    @property
    def injection_at(self) -> int:
        """Fault onset: the midpoint of the run."""
        return self.duration // 2

    def validate(self) -> None:
        """Raise ConfigError on malformed values."""
        if self.n_lbs < 1 or self.n_servers < 1 or self.clients_per_lb < 1:
            raise ConfigError("counts must be >= 1")
        if self.duration <= 0:
            raise ConfigError("duration must be positive")


@dataclass
class MultiLbResult:
    """Per-LB control trajectories plus the client view."""

    config: MultiLbConfig
    lbs: List[LoadBalancer]
    feedbacks: List[InbandFeedback]
    clients: List[MemtierClient]
    servers: List[ServerApp]
    #: Per LB: time series of the injected server's weight share.
    weight_series: List[TimeSeries]

    def all_records(self) -> Sequence[RequestRecord]:
        """Merged client records, completion-ordered (equal times in
        client order)."""
        return merge_logs([client.records for client in self.clients], "completed_at")

    def injected_share_after(self, start: int) -> float:
        """Fraction of requests served by the injected server after ``start``."""
        total = 0
        hit = 0
        for record in self.all_records():
            if record.completed_at >= start:
                total += 1
                if record.server == self.config.injected_server:
                    hit += 1
        return hit / total if total else 0.0

    def oscillations(self, lb_index: int) -> int:
        """Direction changes of the injected server's weight at one LB."""
        values = list(self.weight_series[lb_index].values)
        changes = 0
        last_direction = 0
        for previous, current in zip(values, values[1:]):
            if current == previous:
                continue
            direction = 1 if current > previous else -1
            if last_direction and direction != last_direction:
                changes += 1
            last_direction = direction
        return changes


def run_multilb(config: Optional[MultiLbConfig] = None) -> MultiLbResult:
    """Build and run the many-LBs scenario."""
    config = config or MultiLbConfig()
    config.validate()
    sim = Simulator()
    network = Network(sim)
    streams = RandomStreams(config.seed)
    params = NetworkParams()
    vip = Endpoint(VIP_HOST, config.vip_port)

    server_names = ["server%d" % i for i in range(config.n_servers)]

    # Servers (shared by every LB).  The injected fault is server-side
    # processing delay, so every LB observes it.
    servers: List[ServerApp] = []
    for name in server_names:
        server_config = ServerConfig(
            port=config.vip_port,
            workers=config.server.workers,
            service_model=config.server.service_model,
        )
        if name == config.injected_server:
            server_config.injector = StepInjector(
                extra=config.injection_extra, start=config.injection_at
            )
        servers.append(
            ServerApp(
                Host(network, name),
                server_config,
                streams.get("server.%s" % name),
                service_endpoint=vip,
            )
        )

    # LBs, each with an independent pool + feedback loop and its own
    # partition of the clients, all wired to the shared servers.
    lbs: List[LoadBalancer] = []
    feedbacks: List[InbandFeedback] = []
    weight_series: List[TimeSeries] = []
    clients: List[MemtierClient] = []
    for index in range(config.n_lbs):
        lb_name = "lb%d" % index
        pool = BackendPool([Backend(name) for name in server_names])
        lb = LoadBalancer(
            network, lb_name, vip, pool, MaglevPolicy(pool, table_size=1021)
        )
        lbs.append(lb)
        feedbacks.append(InbandFeedback(lb, config.feedback))
        client_names = [
            "client%d_%d" % (index, c) for c in range(config.clients_per_lb)
        ]
        for name in client_names:
            clients.append(
                MemtierClient(
                    Host(network, name),
                    vip,
                    config.memtier,
                    streams.get("client.%s" % name),
                )
            )
        wire_dsr(network, lb_name, server_names, client_names, params)

        series = TimeSeries(name="%s/injected-weight" % lb_name)
        weight_series.append(series)

        def track(
            pool=pool, series=series, injected=config.injected_server
        ) -> None:
            weights = pool.weights()
            total = sum(weights.values())
            series.append(sim.now, weights.get(injected, 0.0) / total)

        pool.on_change(track)

    drive_clients(sim, clients, config.duration)

    return MultiLbResult(
        config=config,
        lbs=lbs,
        feedbacks=feedbacks,
        clients=clients,
        servers=servers,
        weight_series=weight_series,
    )


def multilb_point(config: MultiLbConfig) -> Dict[str, object]:
    """One many-LBs run distilled into a flat sweep row."""
    result = run_multilb(config)
    settle = config.injection_at + config.duration // 8
    return {
        "n_lbs": config.n_lbs,
        "seed": config.seed,
        "requests": len(result.all_records()),
        "injected_share_after": round(result.injected_share_after(settle), 4),
        "oscillations": [result.oscillations(i) for i in range(config.n_lbs)],
        "max_oscillations": max(
            result.oscillations(i) for i in range(config.n_lbs)
        ),
    }

