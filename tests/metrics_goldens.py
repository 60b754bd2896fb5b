"""Exposition goldens of the metrics registry.

Two renders are pinned under ``tests/golden/``:

* ``metrics_armed.prom`` — the registry of one run with every
  metric-registering plane armed (obs, resilience, fleet and the
  campaign audit); ``test_prometheus_roundtrip.py`` builds the same run
  through :func:`armed_scenario`.
* ``metrics_cli.prom`` — the output of
  ``repro --duration 0.5 metrics --fault "delay:node=server0,..."``,
  the command CI's observability smoke job runs.

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
from repro.faults import DelayFault
from repro.fleet import FleetConfig, ScheduledAction
from repro.harness.config import PolicyName, ScenarioConfig
from repro.harness.runner import run_scenario
from repro.harness.scenario import Scenario, build_scenario
from repro.obs import ObsConfig
from repro.resilience import ResilienceConfig
from repro.units import MILLISECONDS

MS = MILLISECONDS
GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
ARMED_GOLDEN = os.path.join(GOLDEN_DIR, "metrics_armed.prom")
CLI_GOLDEN = os.path.join(GOLDEN_DIR, "metrics_cli.prom")
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


def read(path: str) -> str:
    with open(path, encoding="utf-8") as handle:
        return handle.read()


def main() -> None:
    for path, text in (
        (ARMED_GOLDEN, armed_scenario().obs.registry.to_prometheus()),
        (CLI_GOLDEN, cli_metrics_text()),
    ):
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        print("wrote %s (%d lines)" % (path, text.count("\n")))


if __name__ == "__main__":
    main()
