"""The elastic scenario: diurnal + burst load against an autoscaled fleet.

This is the fleet plane's deliverable experiment and the stress
workload ROADMAP items 1 and 3 reuse.  A scenario starts with
``initial_backends`` of a ``max_backends``-server universe in service;
clients ramp up in a staggered diurnal wave (each starts a bit later
than the last, and the wave recedes near the end of the run), a
scheduled action guarantees the fleet peaks at full capacity at the
midpoint, target tracking handles the rest, and — when ``burst`` is on
— the ``elastic`` chaos preset drops correlated delay/jitter/loss on
every path while hundreds of cold backends are still warming.

Measured, per controller:

* **affinity violations** — must be zero: no established flow ever
  re-routed, across every scale event (the churn harness's invariant,
  audited by :class:`~repro.harness.churn.AffinityWatch`);
* **oscillations** — adjacent opposite-direction scaling decisions
  within the oscillation window (controller-induced fleet flapping);
* **time to stable fleet** — how long after the scheduled peak the
  last scaling decision fires;
* **FRESH/STALE/INVALID dynamics** — the signal-quality census each
  decision was taken under, straight from the resilience plane.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence

from repro.app.client import MemtierConfig
from repro.harness.config import PolicyName, ScenarioConfig
from repro.harness.report import format_table
from repro.harness.runner import ScenarioResult, run_scenario
from repro.harness.scenario import Scenario, build_scenario
from repro.resilience.config import ResilienceConfig
from repro.units import MILLISECONDS, SECONDS, to_millis


@dataclass
class ElasticConfig:
    """The elastic experiment's knobs (defaults = the 1k-backend run)."""

    seed: int = 11
    duration: int = 2 * SECONDS
    strategy: str = "alpha"
    #: In-service backends at t=0 / the provisioned universe.
    initial_backends: int = 100
    max_backends: int = 1024
    #: Staggered clients forming the diurnal wave.
    clients: int = 4
    connections: int = 128
    #: Arm the ``elastic`` chaos preset (burst during the scale-out).
    burst: bool = True
    #: Prime comfortably above ``max_backends`` (apportionment needs a
    #: slot per backend; the default ScenarioConfig size 1021 is too
    #: small for a 1k fleet).
    maglev_size: int = 4099
    #: Arm the insight plane (flight-recorder timeline on the result).
    insight: bool = False

    def validate(self) -> None:
        """Raise ConfigError on malformed values."""
        self.scenario_config().validate()

    def scenario_config(self) -> ScenarioConfig:
        """The underlying ScenarioConfig, fleet plane armed."""
        from repro.faults.presets import preset as fault_preset
        from repro.fleet.config import (
            FleetConfig,
            ScheduledAction,
            TargetTrackingPolicy,
        )

        duration = self.duration
        fleet = FleetConfig(
            enabled=True,
            max_backends=self.max_backends,
            min_in_service=min(self.initial_backends, self.max_backends),
            evaluate_interval=50 * MILLISECONDS,
            provision_delay=50 * MILLISECONDS,
            warmup_duration=100 * MILLISECONDS,
            warmup_steps=4,
            scale_out_cooldown=50 * MILLISECONDS,
            scale_in_cooldown=200 * MILLISECONDS,
            drain_timeout=300 * MILLISECONDS,
            # Flows-per-backend setpoint chosen so full capacity is the
            # fixed point at peak load: clients×connections/max_backends.
            target_tracking=TargetTrackingPolicy(
                metric="flows_per_backend",
                target=max(
                    0.1, self.clients * self.connections / self.max_backends
                ),
                band=0.5,
                max_step=256,
            ),
            # The guaranteed ramp: full capacity by the midpoint, which
            # is also what the burst preset is timed against.
            schedule=[ScheduledAction(at=duration // 2, desired=self.max_backends)],
        )
        resilience = ResilienceConfig(enabled=True)
        # A 1k-backend fleet behind one LB starves per-backend signals;
        # grade on a fleet-appropriate clock and throttle the per-sample
        # ladder walk (O(fleet) each) to the periodic check's cadence.
        resilience.signal = replace(
            resilience.signal,
            stale_after=500 * MILLISECONDS,
            invalid_after=2 * SECONDS,
            min_samples=2,
        )
        resilience.ladder = replace(
            resilience.ladder,
            min_evaluate_gap=5 * MILLISECONDS,
            check_interval=20 * MILLISECONDS,
        )
        config = ScenarioConfig(
            seed=self.seed,
            duration=duration,
            n_clients=self.clients,
            n_servers=min(self.initial_backends, self.max_backends),
            policy=PolicyName.FEEDBACK,
            maglev_size=self.maglev_size,
            memtier=MemtierConfig(
                connections=self.connections,
                pipeline=1,
                requests_per_connection=50,
                think_time=2 * MILLISECONDS,
            ),
            faults=fault_preset("elastic", duration) if self.burst else [],
            resilience=resilience,
            fleet=fleet,
            warmup=duration // 10,
        )
        if self.insight:
            from repro.insight.config import InsightConfig

            config.insight = InsightConfig(enabled=True)
        config.feedback.strategy = self.strategy
        return config

    def client_window(self, index: int) -> "tuple":
        """(start, stop) times of client ``index``'s diurnal slot.

        Client 0 runs the whole day; later clients start progressively
        deeper into the first half and stop progressively earlier in
        the final quarter — load rises, plateaus over the peak, falls.
        """
        if index == 0:
            return 0, self.duration
        rise = self.duration // 2
        fall_start = 3 * self.duration // 4
        step_up = rise // self.clients
        step_down = (self.duration - fall_start) // self.clients
        start = index * step_up
        stop = self.duration - index * step_down
        return start, stop


@dataclass
class ElasticResult:
    """One controller's elastic run, distilled."""

    config: ElasticConfig
    scenario: Scenario
    result: ScenarioResult
    violations: int
    new_flows: int

    @property
    def fleet(self):
        return self.scenario.fleet

    def peak_capacity(self) -> int:
        """Largest fleet capacity any decision reached."""
        values = [d.after for d in self.fleet.decisions]
        values.append(self.fleet.capacity())
        return max(values)

    def time_to_stable_ms(self) -> float:
        """ms from the scheduled peak to the last scaling decision.

        0 means the fleet never scaled again after the peak event — it
        was stable the moment the peak landed (target tracking may have
        reached peak capacity organically before the scheduled ramp).
        """
        peak_at = self.config.duration // 2
        last = self.fleet.time_to_stable(since=peak_at)
        return 0.0 if last is None else to_millis(last - peak_at)

    def timeline_rows(self) -> List[tuple]:
        """Scaling decisions as renderable rows."""
        rows = []
        for d in self.fleet.decisions:
            grades = (
                " ".join(
                    "%s=%d" % (k, v) for k, v in sorted(d.grades.items())
                )
                or "-"
            )
            rows.append(
                (
                    "%.1f" % to_millis(d.time),
                    d.policy,
                    d.direction,
                    d.before,
                    d.after,
                    "-" if d.metric is None else "%.2f" % d.metric,
                    grades,
                )
            )
        return rows

    def report(self) -> str:
        """Human-readable elastic summary (the CLI's output)."""
        fleet = self.fleet
        lines = [
            "elastic fleet: strategy=%s backends=%d->%d peak=%d "
            "clients=%d duration=%.1fs seed=%d"
            % (
                self.config.strategy,
                self.config.initial_backends,
                self.config.max_backends,
                self.peak_capacity(),
                self.config.clients,
                self.config.duration / 1e9,
                self.config.seed,
            ),
            "scaling timeline:",
            format_table(
                (
                    "t(ms)",
                    "policy",
                    "dir",
                    "before",
                    "after",
                    "metric",
                    "signal grades",
                ),
                self.timeline_rows(),
            ),
            "oscillations: %d" % fleet.oscillations(),
            "affinity violations: %d (%d flows observed)"
            % (self.violations, self.new_flows),
        ]
        lines.append(
            "time to stable fleet after peak: %.1fms"
            % self.time_to_stable_ms()
        )
        counts = fleet.lifecycle.transition_counts()
        lines.append(
            "lifecycle transitions: "
            + ", ".join("%s=%d" % (k, v) for k, v in sorted(counts.items()))
        )
        controller = (
            self.scenario.feedback.controller
            if self.scenario.feedback is not None
            else None
        )
        lines.append(
            "controller: shifts=%d stale_holds=%d"
            % (
                len(controller.updates) if controller is not None else 0,
                controller.stale_holds if controller is not None else 0,
            )
        )
        summary = self.result.summary(start=self.result.config.warmup)
        if summary is not None:
            lines.append(
                "latency (all ops): " + summary.format(scale=1e6, unit="ms")
            )
        lines.append("completed requests: %d" % len(self.result.records))
        return "\n".join(lines)


def run_elastic(config: Optional[ElasticConfig] = None) -> ElasticResult:
    """Run the elastic scenario for one controller strategy."""
    from repro.harness.churn import AffinityWatch

    config = config or ElasticConfig()
    scenario_config = config.scenario_config()
    scenario = build_scenario(scenario_config)
    watch = AffinityWatch(scenario.lb)
    # The diurnal wave: each client runs in its own (start, stop) slot.
    windows = [config.client_window(i) for i in range(len(scenario.clients))]
    result = run_scenario(scenario_config, scenario, windows=windows)

    return ElasticResult(
        config=config,
        scenario=scenario,
        result=result,
        violations=len(watch.violations),
        new_flows=watch.new_flows,
    )


def elastic_point(config: ElasticConfig) -> Dict[str, object]:
    """One elastic run distilled into a flat race row."""
    elastic = run_elastic(config)
    fleet = elastic.fleet
    grades: Dict[str, int] = {}
    for decision in fleet.decisions:
        for grade, count in decision.grades.items():
            grades[grade] = grades.get(grade, 0) + count
    return {
        "strategy": config.strategy,
        "peak_capacity": elastic.peak_capacity(),
        "decisions": len(fleet.decisions),
        "oscillations": fleet.oscillations(),
        "violations": elastic.violations,
        "new_flows": elastic.new_flows,
        "time_to_stable_ms": round(elastic.time_to_stable_ms(), 3),
        "grades": {k: grades[k] for k in sorted(grades)},
        "requests": len(elastic.result.records),
        "stale_holds": elastic.scenario.feedback.controller.stale_holds,
    }


def run_elastic_race(
    controllers: Sequence[str],
    base: Optional[ElasticConfig] = None,
    jobs: int = 1,
    store=None,
) -> List[Dict[str, object]]:
    """Race the controller zoo through the elastic scenario."""
    from repro.sweep import SweepSpec, run_sweep

    spec = SweepSpec(
        base=base or ElasticConfig(),
        grid={"strategy": list(controllers)},
        name="elastic",
        derive_seeds=False,
    )
    return run_sweep(spec, jobs=jobs, store=store, runner=elastic_point).rows


def race_table(rows: List[Dict[str, object]]) -> str:
    """Render elastic race rows as the fleet leaderboard."""
    ordered = sorted(
        rows,
        key=lambda r: (
            r["oscillations"],
            r["violations"],
            r["time_to_stable_ms"],
            str(r["strategy"]),
        ),
    )
    table_rows = []
    for position, row in enumerate(ordered, start=1):
        grades = row.get("grades") or {}
        table_rows.append(
            (
                position,
                row["strategy"],
                row["peak_capacity"],
                row["oscillations"],
                row["violations"],
                "%.1f" % row["time_to_stable_ms"],
                row.get("stale_holds", 0),
                " ".join("%s=%d" % (k, v) for k, v in sorted(grades.items()))
                or "-",
                row["requests"],
            )
        )
    return "fleet race [elastic]:\n" + format_table(
        (
            "rank",
            "controller",
            "peak",
            "oscillations",
            "affinity",
            "stable(ms)",
            "stale",
            "signal grades",
            "requests",
        ),
        table_rows,
    )
