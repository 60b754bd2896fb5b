"""Exposition goldens of the metrics registry and the feedback loop.

Three renders are pinned under ``tests/golden/``:

* ``metrics_armed.prom`` — the registry of one run with every
  metric-registering plane armed (obs, resilience, fleet and the
  campaign audit); ``test_prometheus_roundtrip.py`` builds the same run
  through :func:`armed_scenario`.
* ``metrics_cli.prom`` — the output of
  ``repro --duration 0.5 metrics --fault "delay:node=server0,..."``,
  the command CI's observability smoke job runs.
* ``epochs_armed.txt`` — one obs + insight run whose flows outlive an
  ENSEMBLETIMEOUT epoch (23 epoch rolls, three cliff-picked δ values,
  six shifts): its registry exposition, the insight timeline's JSONL,
  the shift list and every shift's sample attribution.  The other two
  runs close each connection before an epoch ends, so only this one
  pins epoch rolls and cliff picks.

Every family, label set, child order and value is compared byte for
byte, so a change to how a component is observed fails here.

Regenerate (only after an intentional change; review the diff)::

    PYTHONPATH=src python tests/metrics_goldens.py
"""

from __future__ import annotations

import contextlib
import io
import os

from repro import cli
from repro.campaign import CampaignContext, evaluate
from repro.campaign.audit import CampaignAudit
from repro.app.client import MemtierConfig
from repro.faults import DelayFault
from repro.fleet import FleetConfig, ScheduledAction
from repro.harness.config import PolicyName, ScenarioConfig
from repro.harness.runner import run_scenario
from repro.harness.scenario import Scenario, build_scenario
from repro.insight import InsightConfig
from repro.obs import ObsConfig, render_shift_attribution, render_shift_list
from repro.resilience import ResilienceConfig
from repro.units import MILLISECONDS

MS = MILLISECONDS
GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
ARMED_GOLDEN = os.path.join(GOLDEN_DIR, "metrics_armed.prom")
CLI_GOLDEN = os.path.join(GOLDEN_DIR, "metrics_cli.prom")
EPOCHS_GOLDEN = os.path.join(GOLDEN_DIR, "epochs_armed.txt")
CLI_ARGS = [
    "--duration",
    "0.5",
    "metrics",
    "--fault",
    "delay:node=server0,start=250ms,extra=1ms",
]


def armed_scenario() -> Scenario:
    """One run with every metric-registering plane armed."""
    config = ScenarioConfig(
        seed=7,
        duration=300 * MS,
        n_servers=2,
        maglev_size=1021,
        policy=PolicyName.FEEDBACK,
        obs=ObsConfig(enabled=True, tracing=False, profiling=False),
        resilience=ResilienceConfig(enabled=True, health_checks=True),
        fleet=FleetConfig(
            enabled=True,
            max_backends=4,
            min_in_service=2,
            schedule=[ScheduledAction(at=100 * MS, desired=4)],
        ),
        faults=[DelayFault(start=150 * MS, node="server0", extra=MS)],
    )
    scenario = build_scenario(config)
    audit = CampaignAudit(scenario)
    result = run_scenario(config, scenario=scenario)
    # The audit's invariant counters only move once something evaluates.
    evaluate(CampaignContext(result=result, audit=audit, recovery_bound=1))
    return scenario


def cli_metrics_text() -> str:
    """What ``repro <CLI_ARGS>`` prints."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(CLI_ARGS) == 0
    return out.getvalue()


def epochs_text() -> str:
    """Every observer's render of one run whose flows outlive an epoch."""
    config = ScenarioConfig(
        seed=3,
        duration=400 * MS,
        n_servers=2,
        policy=PolicyName.FEEDBACK,
        memtier=MemtierConfig(requests_per_connection=2000),
        obs=ObsConfig(enabled=True, profiling=False),
        insight=InsightConfig(enabled=True),
        faults=[DelayFault(start=200 * MS, node="server0", extra=MS)],
    )
    scenario = run_scenario(config).scenario
    tracer = scenario.obs.tracer
    shifts = scenario.feedback.shift_events()
    window = scenario.feedback.estimator.config.window
    sections = [
        scenario.obs.registry.to_prometheus(),
        scenario.insight.dumps(),
        render_shift_list(tracer, shifts, window),
    ]
    sections.extend(
        render_shift_attribution(tracer, shifts, index, window)
        for index in range(len(shifts))
    )
    return "\n".join(section.rstrip("\n") + "\n" for section in sections)


def read(path: str) -> str:
    with open(path, encoding="utf-8") as handle:
        return handle.read()


def main() -> None:
    for path, text in (
        (ARMED_GOLDEN, armed_scenario().obs.registry.to_prometheus()),
        (CLI_GOLDEN, cli_metrics_text()),
        (EPOCHS_GOLDEN, epochs_text()),
    ):
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        print("wrote %s (%d lines)" % (path, text.count("\n")))


if __name__ == "__main__":
    main()
