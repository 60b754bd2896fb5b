"""Experiment harness: scenario building, running, and reporting.

* :mod:`~repro.harness.config` — declarative scenario configuration.
* :mod:`~repro.harness.scenario` — builds the DSR topology (clients →
  LB → servers, direct return paths) from a config.
* :mod:`~repro.harness.runner` — runs scenarios and collects results.
* :mod:`~repro.harness.report` — ASCII tables/series for the terminal.
* :mod:`~repro.harness.figures` — the paper's experiments (Fig 2a, 2b,
  Fig 3, reaction time, error decomposition).
* :mod:`~repro.harness.ablations` — parameter sweeps around the design,
  each a :class:`~repro.sweep.spec.SweepSpec` (whose base may be any
  config with ``validate()``) plus a row function.

Fault injection lives in :mod:`repro.faults` (the chaos plane);
``ScenarioConfig.faults`` is the hook that arms it on a built scenario.
"""

from repro.harness.config import NetworkParams, PolicyName, ScenarioConfig
from repro.harness.scenario import Scenario, build_scenario
from repro.harness.runner import ScenarioResult, run_scenario
from repro.harness.report import format_series, format_table
from repro.harness.figures import (
    BacklogConfig,
    Fig3Config,
    run_error_decomposition,
    run_fig2a,
    run_fig2b,
    run_fig3,
    run_reaction,
)
from repro.harness.tiered import TieredResult, TieredScenarioConfig, run_tiered

__all__ = [
    "BacklogConfig",
    "Fig3Config",
    "run_fig2a",
    "run_fig2b",
    "run_fig3",
    "run_reaction",
    "run_error_decomposition",
    "NetworkParams",
    "PolicyName",
    "ScenarioConfig",
    "Scenario",
    "build_scenario",
    "ScenarioResult",
    "run_scenario",
    "format_table",
    "format_series",
    "TieredResult",
    "TieredScenarioConfig",
    "run_tiered",
]
