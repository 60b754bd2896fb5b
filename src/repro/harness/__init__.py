"""Experiment harness: scenario building, running, and reporting.

* :mod:`~repro.harness.config` — declarative scenario configuration.
* :mod:`~repro.harness.scenario` — builds the DSR topology (clients →
  LB → servers, direct return paths) from a config.
* :mod:`~repro.harness.runner` — runs scenarios and collects results.
* :mod:`~repro.harness.report` — ASCII tables/series for the terminal.
* :mod:`~repro.harness.figures` — the paper's experiments (Fig 2,
  Fig 3, reaction time, error decomposition) and their reports.
* :mod:`~repro.harness.ablations` — parameter sweeps around the design,
  each a :class:`~repro.sweep.spec.SweepSpec` (whose base may be any
  config with ``validate()``) plus a row function.

Fault injection lives in :mod:`repro.faults` (the chaos plane);
``ScenarioConfig.faults`` is the hook that arms it on a built scenario.
"""

from repro._exports import lazy_exports

__all__ = [
    "BacklogConfig",
    "Fig3Config",
    "run_fig2",
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

_EXPORTS = {
    "NetworkParams": ".config",
    "PolicyName": ".config",
    "ScenarioConfig": ".config",
    "Scenario": ".scenario",
    "build_scenario": ".scenario",
    "ScenarioResult": ".runner",
    "run_scenario": ".runner",
    "format_series": ".report",
    "format_table": ".report",
    "BacklogConfig": ".figures",
    "Fig3Config": ".figures",
    "run_error_decomposition": ".figures",
    "run_fig2": ".figures",
    "run_fig3": ".figures",
    "run_reaction": ".figures",
    "TieredResult": ".tiered",
    "TieredScenarioConfig": ".tiered",
    "run_tiered": ".tiered",
}

__getattr__, __dir__ = lazy_exports(__name__, globals(), _EXPORTS)
