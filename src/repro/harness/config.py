"""Declarative scenario configuration.

A :class:`ScenarioConfig` captures everything about one experiment:
topology delays, server behaviour, client workload, LB policy, the
feedback loop, and mid-run fault injections.  Identical configs (same
seed) produce identical traces.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import List, Optional

from repro.app.client import MemtierConfig
from repro.app.server import ServerConfig
from repro.core.feedback import FeedbackConfig
from repro.errors import ConfigError
from repro.faults.model import FaultSpec
from repro.fleet.config import FleetConfig
from repro.insight.config import InsightConfig
from repro.obs.config import ObsConfig
from repro.resilience.config import ResilienceConfig
from repro.units import GIGABITS_PER_SECOND, MICROSECONDS, SECONDS


class PolicyName(enum.Enum):
    """Routing policy selector for scenarios."""

    MAGLEV = "maglev"              # plain Maglev (the paper's baseline)
    FEEDBACK = "feedback"          # Maglev + in-band feedback control
    ORACLE = "oracle"              # Maglev + control on true latencies
    ROUND_ROBIN = "round_robin"
    RANDOM = "random"
    WEIGHTED_RANDOM = "weighted_random"
    LEAST_CONNECTIONS = "least_connections"
    POWER_OF_TWO = "power_of_two"


@dataclass
class NetworkParams:
    """Topology delays and link properties.

    Defaults model the paper's deployment assumption: clients *close* to
    the LB (tier-to-tier / CDN-edge), servers one hop further.  The
    direct server→client return path is the sum of the forward legs, so
    uninflated end-to-end RTT ≈ 2·(client↔LB + LB↔server) plus
    serialization.
    """

    client_lb_delay: int = 10 * MICROSECONDS
    lb_server_delay: int = 40 * MICROSECONDS
    server_client_delay: int = 50 * MICROSECONDS
    bandwidth_bps: Optional[int] = 10 * GIGABITS_PER_SECOND
    queue_capacity: int = 4096
    #: Per-client overrides of ``client_lb_delay`` (open question #1,
    #: "far, non-equidistant clients"); index-aligned with client names.
    #: The matching server→client return delay is raised by the same
    #: amount so a far client is far in both directions.
    client_lb_delay_overrides: Optional[List[int]] = None

    def validate(self) -> None:
        """Raise ConfigError on malformed values."""
        if min(
            self.client_lb_delay,
            self.lb_server_delay,
            self.server_client_delay,
        ) < 0:
            raise ConfigError("delays must be >= 0")
        if self.bandwidth_bps is not None and self.bandwidth_bps <= 0:
            raise ConfigError("bandwidth must be positive or None")
        if self.client_lb_delay_overrides is not None and any(
            d < 0 for d in self.client_lb_delay_overrides
        ):
            raise ConfigError("client delay overrides must be >= 0")

    def client_delay(self, index: int) -> int:
        """Effective client→LB one-way delay for client ``index``."""
        overrides = self.client_lb_delay_overrides
        if overrides is not None and index < len(overrides):
            return overrides[index]
        return self.client_lb_delay


@dataclass
class ScenarioConfig:
    """Everything one experiment needs."""

    seed: int = 1
    duration: int = 5 * SECONDS
    n_clients: int = 1
    n_servers: int = 2
    vip_port: int = 11211
    policy: PolicyName = PolicyName.MAGLEV
    maglev_size: int = 1021
    network: NetworkParams = field(default_factory=NetworkParams)
    memtier: MemtierConfig = field(default_factory=MemtierConfig)
    #: One template replicated per server, unless per-server overrides given.
    server: ServerConfig = field(default_factory=ServerConfig)
    server_overrides: Optional[List[ServerConfig]] = None
    feedback: FeedbackConfig = field(default_factory=FeedbackConfig)
    #: Declarative chaos-plane faults (see :mod:`repro.faults`).
    faults: List[FaultSpec] = field(default_factory=list)
    #: Signal-integrity guardrails (see :mod:`repro.resilience`);
    #: disabled by default, making the plane structurally absent.
    resilience: ResilienceConfig = field(default_factory=ResilienceConfig)
    #: Observability plane (see :mod:`repro.obs`); disabled by default,
    #: making runs byte-identical to builds without it.
    obs: ObsConfig = field(default_factory=ObsConfig)
    #: Fleet plane (see :mod:`repro.fleet`); disabled by default.  When
    #: enabled the topology provisions ``fleet.max_backends`` servers
    #: and the pool starts with the first ``n_servers`` of them.
    fleet: FleetConfig = field(default_factory=FleetConfig)
    #: Insight plane (see :mod:`repro.insight`); disabled by default,
    #: making runs byte-identical to builds without it.
    insight: InsightConfig = field(default_factory=InsightConfig)
    #: Ignore requests completing before this time in summary stats.
    warmup: int = 0

    def validate(self) -> None:
        """Raise ConfigError on malformed values."""
        if self.duration <= 0:
            raise ConfigError("duration must be positive")
        if self.n_clients <= 0 or self.n_servers <= 0:
            raise ConfigError("need at least one client and one server")
        if self.policy is PolicyName.POWER_OF_TWO and self.n_servers < 2:
            raise ConfigError("power-of-two needs >= 2 servers")
        if self.server_overrides is not None and len(self.server_overrides) != self.n_servers:
            raise ConfigError(
                "server_overrides must have exactly n_servers entries"
            )
        if self.warmup < 0 or self.warmup >= self.duration:
            raise ConfigError("warmup must be within the run duration")
        self.network.validate()
        self.memtier.validate()
        self.feedback.validate()
        self.resilience.validate()
        self.obs.validate()
        self.fleet.validate()
        self.insight.validate()
        if self.fleet.enabled:
            if self.fleet.max_backends < self.n_servers:
                raise ConfigError(
                    "fleet.max_backends must cover the initial n_servers"
                )
            if self.maglev_size <= self.fleet.max_backends:
                raise ConfigError(
                    "maglev_size must exceed fleet.max_backends "
                    "(every backend needs at least one slot)"
                )
            if self.server_overrides is not None:
                raise ConfigError(
                    "server_overrides are not supported with the fleet plane"
                )
        for fault in self.faults:
            if not isinstance(fault, FaultSpec):
                raise ConfigError(
                    "faults entries must be FaultSpec instances, got %r" % (fault,)
                )
            fault.validate()
            if fault.start >= self.duration:
                raise ConfigError(
                    "fault %s starts after the run ends" % fault.describe()
                )

    def all_faults(self) -> List[FaultSpec]:
        """Every fault for this run."""
        return list(self.faults)

    def server_config(self, index: int) -> ServerConfig:
        """Effective config for server ``index``."""
        if self.server_overrides is not None:
            return self.server_overrides[index]
        return self.server

    def server_name(self, index: int) -> str:
        """Canonical node name for server ``index``."""
        return "server%d" % index

    def client_name(self, index: int) -> str:
        """Canonical node name for client ``index``."""
        return "client%d" % index
