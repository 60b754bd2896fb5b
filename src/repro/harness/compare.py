"""``repro compare`` — race the controller zoo across chaos presets.

Every registered control law (see :mod:`repro.controllers`) runs the
same scenario — same seed, same topology, same fault preset — and the
leaderboard ranks them on what the paper cares about: tail latency
first, then recovery speed and actuation cost.

The race rides on the sweep executor (:mod:`repro.sweep.executor`), so
points are content-addressed: a re-run with an unchanged roster is
served entirely from the result store, and ``--jobs N`` produces rows
byte-identical to ``--jobs 1``.  All leaderboard text is derived from
cached rows only — wall-clock appears nowhere in it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Tuple

from repro.app.protocol import Op
from repro.controllers.base import total_weight_movement
from repro.errors import ConfigError
from repro.faults.presets import preset as fault_preset
from repro.harness.config import PolicyName, ScenarioConfig
from repro.harness.recovery import fault_window, time_to_recovery
from repro.harness.report import format_cell, format_table
from repro.harness.runner import run_scenario
from repro.resilience.config import ResilienceConfig
from repro.telemetry.quantiles import exact_quantile
from repro.units import SECONDS

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from repro.sweep.executor import Outcome, SweepReport
    from repro.sweep.store import ResultStore

#: The default race card: the paper's stimulus plus the chaos shapes the
#: newer laws were designed for (flapping for KnapsackLB, correlated
#: bursts for Morpheus, crash for the resilience plane, elastic for the
#: fleet plane's membership churn).
RACE_PRESETS: Tuple[str, ...] = (
    "fig3",
    "flapping_server",
    "lossy_path",
    "correlated_burst",
    "crash",
    "elastic",
)


def compare_config(
    preset_name: str,
    strategy: str,
    seed: int = 1,
    duration: int = 2 * SECONDS,
    n_servers: int = 3,
    n_clients: int = 1,
    insight: bool = False,
) -> ScenarioConfig:
    """One race lane: FEEDBACK policy, ``strategy``'s law, one preset.

    The resilience plane is on for every lane — stale-signal gating is
    part of the contract being compared, and the ``crash`` preset is
    meaningless without it.  Every controller gets the identical
    scenario, so differences in the rows are differences in the law.

    The ``elastic`` preset additionally arms the fleet plane: the pool
    scales out mid-run (scheduled ramp plus target tracking) so the
    burst lands while new backends are warming — membership churn is
    the whole point of that lane.
    """
    config = ScenarioConfig(
        seed=seed,
        duration=duration,
        n_clients=n_clients,
        n_servers=n_servers,
        policy=PolicyName.FEEDBACK,
        faults=fault_preset(preset_name, duration),
        resilience=ResilienceConfig(enabled=True, health_checks=True),
        warmup=duration // 10,
    )
    if insight:
        from repro.insight.config import InsightConfig

        config.insight = InsightConfig(enabled=True)
    config.feedback.strategy = strategy
    if preset_name == "elastic":
        from repro.fleet import FleetConfig, ScheduledAction

        config.fleet = FleetConfig(
            enabled=True,
            max_backends=max(8, 2 * n_servers),
            min_in_service=n_servers,
            schedule=[
                # Scale out ahead of the burst, back in after it.
                ScheduledAction(at=duration // 3, desired=max(8, 2 * n_servers)),
                ScheduledAction(at=5 * duration // 6, desired=n_servers),
            ],
        )
    return config


def compare_point(config: ScenarioConfig) -> Dict[str, object]:
    """Run one race lane and distill it into a flat leaderboard row."""
    from repro.harness.churn import AffinityWatch
    from repro.harness.scenario import build_scenario

    scenario = build_scenario(config)
    # Stickiness audit on every lane: weight shifts (and, on elastic
    # lanes, scale events) must never re-route an established flow.
    watch = AffinityWatch(scenario.lb)
    result = run_scenario(config, scenario=scenario)
    values = result.latencies(op=Op.GET, start=config.warmup or None)
    window = fault_window(config)
    recovery = time_to_recovery(result, window)
    feedback = result.scenario.feedback
    controller = feedback.controller if feedback is not None else None
    updates = list(controller.updates) if controller is not None else []
    initial = {
        config.server_name(i): 1.0 for i in range(config.n_servers)
    }
    row: Dict[str, object] = {
        "strategy": config.feedback.strategy,
        "requests": len(result.records),
        "p50_ms": _ms(exact_quantile(values, 0.50)) if values else None,
        "p95_ms": _ms(exact_quantile(values, 0.95)) if values else None,
        "p99_ms": _ms(exact_quantile(values, 0.99)) if values else None,
        "recovery_ms": None if recovery is None else _ms(recovery),
        "shifts": len(updates),
        "churn": round(total_weight_movement(updates, initial), 6),
        "stale_holds": controller.stale_holds if controller is not None else 0,
        "violations": len(watch.violations),
    }
    if scenario.insight is not None:
        # Carried as a JSONL string so the row stays flat JSON-native
        # (cacheable by the sweep store); written to a file post-sweep.
        row["timeline"] = scenario.insight.dumps()
    return row


@dataclass
class CompareReport:
    """Everything one race produced, plus the renderers."""

    presets: List[str]
    controllers: List[str]
    report: SweepReport
    #: ``(preset, controller) -> row``, in submission order.
    rows: Dict[Tuple[str, str], Dict[str, object]] = field(
        default_factory=dict
    )

    def ranking(self, preset_name: str) -> List[Tuple[str, Dict[str, object]]]:
        """Controllers of one preset, best first.

        Sort key: p95, then p99 (missing quantiles rank last), then
        churn (cheaper actuation wins ties), then name — fully
        deterministic, derived from cached rows only.
        """
        entries = [
            (name, self.rows[(preset_name, name)])
            for name in self.controllers
        ]

        def key(entry):
            name, row = entry
            return (
                _rank_value(row.get("p95_ms")),
                _rank_value(row.get("p99_ms")),
                _rank_value(row.get("churn")),
                name,
            )

        return sorted(entries, key=key)

    def leaderboard(self) -> str:
        """The full leaderboard: one table per preset, plus the overall
        mean-rank standings when more than one preset raced."""
        sections: List[str] = []
        mean_ranks: Dict[str, List[int]] = {n: [] for n in self.controllers}
        for preset_name in self.presets:
            ranked = self.ranking(preset_name)
            rows = []
            for position, (name, row) in enumerate(ranked, start=1):
                mean_ranks[name].append(position)
                rows.append(
                    (
                        position,
                        name,
                        format_cell(row.get("p95_ms")),
                        format_cell(row.get("p99_ms")),
                        format_cell(row.get("recovery_ms")),
                        row.get("shifts"),
                        format_cell(row.get("churn")),
                        row.get("stale_holds"),
                        # Rows cached before the column existed render "-".
                        format_cell(row.get("violations")),
                        row.get("requests"),
                    )
                )
            sections.append(
                "leaderboard [%s]:\n%s"
                % (
                    preset_name,
                    format_table(
                        (
                            "rank",
                            "controller",
                            "p95(ms)",
                            "p99(ms)",
                            "recovery(ms)",
                            "shifts",
                            "churn",
                            "stale",
                            "affinity",
                            "requests",
                        ),
                        rows,
                    ),
                )
            )
        if len(self.presets) > 1:
            overall = sorted(
                self.controllers,
                key=lambda n: (
                    sum(mean_ranks[n]) / len(mean_ranks[n]),
                    n,
                ),
            )
            rows = [
                (
                    position,
                    name,
                    "%.2f" % (sum(mean_ranks[name]) / len(mean_ranks[name])),
                    " ".join(str(r) for r in mean_ranks[name]),
                )
                for position, name in enumerate(overall, start=1)
            ]
            sections.append(
                "overall (mean rank across %d presets):\n%s"
                % (
                    len(self.presets),
                    format_table(
                        ("rank", "controller", "mean", "per-preset"), rows
                    ),
                )
            )
        return "\n\n".join(sections)

    def summary(self) -> str:
        """The executor's one-line accounting (grepped by CI)."""
        return self.report.summary("compare")

    def write_timelines(self, directory: str) -> List[str]:
        """Write each lane's timeline artifact (rows recorded with the
        insight plane armed) as ``<preset>-<controller>.jsonl``."""
        import os

        os.makedirs(directory, exist_ok=True)
        paths: List[str] = []
        for (preset_name, controller_name), row in self.rows.items():
            text = row.get("timeline")
            if not text:
                continue
            path = os.path.join(
                directory, "%s-%s.jsonl" % (preset_name, controller_name)
            )
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(text)
            paths.append(path)
        return paths


def run_compare(
    presets: Sequence[str],
    controllers: Sequence[str],
    seed: int = 1,
    duration: int = 2 * SECONDS,
    n_servers: int = 3,
    n_clients: int = 1,
    jobs: int = 1,
    store: Optional[ResultStore] = None,
    use_cache: bool = True,
    progress: Optional[Callable[[Outcome, int, int], None]] = None,
    insight: bool = False,
) -> CompareReport:
    """Race ``controllers`` across ``presets`` through the executor."""
    from repro.controllers import available
    from repro.sweep.executor import run_tasks, task

    registered = available()
    for name in controllers:
        if name not in registered:
            raise ConfigError(
                "unknown control strategy %r (registered: %s)"
                % (name, ", ".join(registered))
            )
    if not presets:
        raise ConfigError("compare needs at least one fault preset")
    if len(controllers) < 2:
        raise ConfigError("compare needs at least two controllers to race")

    tasks = []
    pairs: List[Tuple[str, str]] = []
    for preset_name in presets:
        for controller_name in controllers:
            config = compare_config(
                preset_name,
                controller_name,
                seed=seed,
                duration=duration,
                n_servers=n_servers,
                n_clients=n_clients,
                insight=insight,
            )
            pairs.append((preset_name, controller_name))
            tasks.append(
                task(
                    compare_point,
                    config,
                    label="%s/%s" % (preset_name, controller_name),
                )
            )

    report = run_tasks(
        tasks, jobs=jobs, store=store, use_cache=use_cache, progress=progress
    )
    compare = CompareReport(
        presets=list(presets),
        controllers=list(controllers),
        report=report,
    )
    for pair, outcome in zip(pairs, report.outcomes):
        compare.rows[pair] = outcome.row
    return compare


def _ms(value) -> float:
    return round(value / 1e6, 6)


def _rank_value(value) -> float:
    """Missing metrics rank after every measured one."""
    return float("inf") if value is None else float(value)

