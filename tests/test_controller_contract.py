"""One controller contract: every law's update log reads the same way.

Each registered law records :class:`~repro.controllers.base.ShiftEvent`
updates, and every reader of that log — causal tracing, CSV export and
the insight overview — accepts any law's records.  The package also
imports cleanly whichever module a program loads first.
"""

import os
import subprocess
import sys

import pytest

import repro
import repro.controllers as controllers
from repro.controllers.base import ShiftEvent
from repro.faults.presets import preset
from repro.harness.config import PolicyName, ScenarioConfig
from repro.harness.export import export_shift_events
from repro.harness.runner import run_scenario
from repro.insight import InsightConfig, explain_overview
from repro.obs import ObsConfig
from repro.obs.trace import render_shift_attribution, render_shift_list
from repro.units import SECONDS

DURATION = int(0.4 * SECONDS)


@pytest.mark.parametrize("strategy", controllers.available())
def test_every_reader_accepts_every_law(strategy, tmp_path):
    config = ScenarioConfig(
        seed=3,
        duration=DURATION,
        policy=PolicyName.FEEDBACK,
        faults=preset("fig3", DURATION),
        obs=ObsConfig(enabled=True, profiling=False),
        insight=InsightConfig(enabled=True),
    )
    config.feedback.strategy = strategy
    result = run_scenario(config)
    feedback = result.scenario.feedback
    shifts = feedback.shift_events()
    assert shifts, "%s must update at least once" % strategy
    assert all(isinstance(shift, ShiftEvent) for shift in shifts)

    tracer = result.scenario.obs.tracer
    window = feedback.estimator.config.window
    listing = render_shift_list(tracer, shifts, window).splitlines()
    assert len(listing) == len(shifts) + 1
    for index in (0, len(shifts) - 1):
        attribution = render_shift_attribution(tracer, shifts, index, window)
        assert attribution.startswith("shift #%d at " % index)
        assert "contributing T_LB samples" in attribution

    path = tmp_path / "shifts.csv"
    assert export_shift_events(path, shifts) == len(shifts)
    rows = path.read_text().splitlines()[1:]
    assert all(row.split(",")[1] for row in rows)  # from_backend never blank

    overview = explain_overview(result)
    assert "shifts (use --shift N):" in overview
    assert "  #%d at " % (len(shifts) - 1) in overview


@pytest.mark.parametrize(
    "module",
    [
        "repro.core",
        "repro.core.controller",
        "repro.controllers",
        "repro.controllers.base",
        "repro.core.feedback",
        "repro.resilience.ladder",
        "repro.lb.oracle",
        "repro.harness",
        "repro.cli",
    ],
)
def test_module_imports_first(module):
    """No import cycle bites whichever module a program loads first."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    completed = subprocess.run(
        [sys.executable, "-c", "import %s" % module],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert completed.returncode == 0, completed.stderr
