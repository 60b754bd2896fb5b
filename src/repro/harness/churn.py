"""Backend churn: scale-out and drain without breaking connections.

§2.5 requires LBs to "meet standard LB requirements such as
connection-to-server affinity and minimize connection-breaking due to
churn in the set of LBs and servers".  This scenario exercises exactly
that: a pool that starts with a subset of the provisioned servers,
scales out mid-run, and later drains one backend — while memtier-like
traffic flows continuously.

Measured invariants:

* **zero affinity violations** — no packet of an established flow is
  ever forwarded to a different backend than its first packet, across
  both membership changes and any feedback-driven weight updates;
* the newcomer picks up ≈ its fair share of *new* connections;
* the drained backend keeps serving its in-flight connections (the
  dataplane's ``draining_packets`` counter) and stops receiving new
  ones.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.app.client import MemtierConfig
from repro.harness.config import PolicyName, ScenarioConfig
from repro.harness.runner import run_scenario
from repro.harness.scenario import Scenario, build_scenario
from repro.lb.backend import Backend
from repro.net.addr import FlowKey
from repro.units import SECONDS


@dataclass
class ChurnConfig:
    """Scale-out / drain timeline."""

    seed: int = 29
    duration: int = 2 * SECONDS
    #: Provisioned servers (topology); the pool starts with the first
    #: ``initial_servers`` of them.
    n_servers: int = 3
    initial_servers: int = 2
    #: Long-lived connections (2000 requests each) so some are usually
    #: mid-flight when membership changes — that's what drain semantics
    #: protect.
    memtier: MemtierConfig = field(
        default_factory=lambda: MemtierConfig(
            connections=6, pipeline=2, requests_per_connection=2000
        )
    )

    def validate(self) -> None:
        """Raise ConfigError on malformed values."""
        self.memtier.validate()

    @property
    def scale_out_at(self) -> int:
        """When the extra server joins the pool."""
        return self.duration // 3

    @property
    def drain_at(self) -> int:
        """When server0 is removed (drained) from the pool."""
        return 2 * self.duration // 3


class AffinityWatch:
    """LB tap that audits connection-to-server affinity.

    Every scenario that mutates pool membership mid-run (churn, the
    fleet plane's elastic scale events, `repro compare` lanes) shares
    this invariant: once a flow's first packet lands on a backend, every
    later packet of that flow must land on the same backend.  The watch
    also buckets *new* flows by phase boundary so harnesses can reason
    about where fresh connections land after each membership change.
    """

    def __init__(self, lb, phases: Sequence[int] = ()):
        #: Phase boundaries (times); new flows before ``phases[0]`` are
        #: phase 0, between boundaries i-1 and i phase i, and so on.
        self.phases = sorted(phases)
        self.flow_backends: Dict[FlowKey, str] = {}
        self.violations: List[Tuple[FlowKey, str, str]] = []
        #: Per-phase backend → new-flow count.
        self.phase_counts: List[Dict[str, int]] = [
            dict() for _ in range(len(self.phases) + 1)
        ]
        lb.add_tap(self._tap)

    def _tap(self, now: int, flow: FlowKey, backend: str, packet) -> None:
        previous = self.flow_backends.get(flow)
        if previous is None:
            self.flow_backends[flow] = backend
            counts = self.phase_counts[bisect_right(self.phases, now)]
            counts[backend] = counts.get(backend, 0) + 1
        elif previous != backend:
            self.violations.append((flow, previous, backend))

    @property
    def new_flows(self) -> int:
        """Distinct flows observed."""
        return len(self.flow_backends)


@dataclass
class ChurnResult:
    """Observed behaviour across the membership changes."""

    config: ChurnConfig
    scenario: Scenario
    affinity_violations: List[Tuple[FlowKey, str, str]]
    #: backend -> count of *new flows* in each phase.
    new_flows_before: Dict[str, int]
    new_flows_after_scale_out: Dict[str, int]
    new_flows_after_drain: Dict[str, int]
    #: Flows pinned to server0 at the moment it left the pool.
    pinned_at_drain: int = 0

    def newcomer_share_after_scale_out(self) -> float:
        """Fraction of new flows landing on the added server."""
        total = sum(self.new_flows_after_scale_out.values())
        if total == 0:
            return 0.0
        newcomer = self.config.n_servers - 1
        return self.new_flows_after_scale_out.get(
            "server%d" % newcomer, 0
        ) / total


def run_churn(config: Optional[ChurnConfig] = None) -> ChurnResult:
    """Run the scale-out + drain timeline and collect invariants."""
    config = config or ChurnConfig()
    scenario_config = ScenarioConfig(
        seed=config.seed,
        duration=config.duration,
        n_servers=config.n_servers,
        policy=PolicyName.MAGLEV,
        memtier=config.memtier,
    )
    scenario = build_scenario(scenario_config)
    sim = scenario.sim
    pool = scenario.pool
    newcomer = "server%d" % (config.n_servers - 1)

    # Topology has n_servers, but the pool starts without the newcomer.
    pool.remove(newcomer)

    # Membership timeline.  At drain time, record whether any live flow
    # is pinned to the drained backend — only then is draining traffic
    # expected afterwards.
    pinned_at_drain = [0]

    def drain() -> None:
        pinned_at_drain[0] = scenario.lb.conntrack.live_flows("server0")
        pool.remove("server0")

    sim.schedule_fire_at(config.scale_out_at, lambda: pool.add(Backend(newcomer)))
    sim.schedule_fire_at(config.drain_at, drain)

    # Observe affinity and per-phase new-flow routing via the LB tap.
    watch = AffinityWatch(
        scenario.lb, phases=(config.scale_out_at, config.drain_at)
    )

    run_scenario(scenario_config, scenario)

    return ChurnResult(
        config=config,
        scenario=scenario,
        affinity_violations=watch.violations,
        new_flows_before=watch.phase_counts[0],
        new_flows_after_scale_out=watch.phase_counts[1],
        new_flows_after_drain=watch.phase_counts[2],
        pinned_at_drain=pinned_at_drain[0],
    )


def churn_point(config: ChurnConfig) -> Dict[str, object]:
    """One churn run distilled into a flat sweep row."""
    result = run_churn(config)
    return {
        "seed": config.seed,
        "affinity_violations": len(result.affinity_violations),
        "newcomer_share": round(result.newcomer_share_after_scale_out(), 4),
        "pinned_at_drain": result.pinned_at_drain,
        "new_flows_before": result.new_flows_before,
        "new_flows_after_scale_out": result.new_flows_after_scale_out,
        "new_flows_after_drain": result.new_flows_after_drain,
    }

