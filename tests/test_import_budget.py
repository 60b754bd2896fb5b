"""Start-up cost: a plane is imported when armed, never before or mid-run.

Package names resolve on first use (``repro._exports``), each run path
imports the add-on planes its config arms, and registries import their
members eagerly.  The checks that depend on what a process has loaded
run in a fresh interpreter, so the rest of the suite cannot mask them.
"""

import importlib
import json
import os
import subprocess
import sys

import pytest

import repro

SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

#: The sixteen packages whose ``__init__`` resolves names lazily.
PACKAGES = (
    "app",
    "campaign",
    "controllers",
    "core",
    "faults",
    "fleet",
    "harness",
    "insight",
    "lb",
    "net",
    "obs",
    "resilience",
    "sim",
    "sweep",
    "telemetry",
    "transport",
)

#: Run-time modules of planes a default FEEDBACK scenario leaves off.
UNARMED = (
    "repro.obs.plane",
    "repro.obs.metrics",
    "repro.insight.plane",
    "repro.insight.recorder",
    "repro.sweep.executor",
    "repro.campaign",
    "repro.fleet.autoscaler",
    "repro.faults.injector",
    "repro.lb.health",
    "repro.lb.oracle",
    "repro.resilience.breaker",
    "repro.resilience.ladder",
    "repro.resilience.quality",
    "multiprocessing",
    "concurrent.futures",
)


def _fresh(code: str):
    """Run ``code`` in a fresh interpreter; the JSON its last line prints."""
    completed = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=SRC),
    )
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout.splitlines()[-1])


def test_default_build_loads_no_unarmed_plane():
    loaded = _fresh(
        "import json, sys\n"
        "import repro.harness\n"
        "from repro.harness import PolicyName, ScenarioConfig, build_scenario\n"
        "build_scenario(ScenarioConfig(policy=PolicyName.FEEDBACK))\n"
        "print(json.dumps([m for m in %r if m in sys.modules]))\n" % (UNARMED,)
    )
    assert loaded == []


#: Configs whose timed region must import nothing: the default loop and
#: one per add-on plane, each armed with faults that fire mid-run.
RUN_CONFIGS = {
    "default": (
        "ScenarioConfig(duration=D, policy=PolicyName.FEEDBACK, faults=["
        "DelayFault(start=D // 2, node='server0', extra=MILLISECONDS)])"
    ),
    "obs": (
        "ScenarioConfig(duration=D, policy=PolicyName.FEEDBACK, "
        "obs=ObsConfig(enabled=True), faults=["
        "DelayFault(start=D // 2, node='server0', extra=MILLISECONDS)])"
    ),
    "insight": "compare_config('fig3', 'alpha', duration=D, insight=True)",
    "fleet": "compare_config('elastic', 'aimd', duration=D)",
    "resilience": "compare_config('crash', 'alpha', duration=D)",
}


@pytest.mark.parametrize("name", sorted(RUN_CONFIGS))
def test_timed_region_imports_nothing(name):
    """A lazy import inside ``run_until`` would be billed to ``run_s``."""
    seen = _fresh(
        "import json, sys\n"
        "from repro.faults.model import DelayFault\n"
        "from repro.harness.compare import compare_config\n"
        "from repro.harness.config import PolicyName, ScenarioConfig\n"
        "from repro.harness.runner import run_scenario\n"
        "from repro.obs.config import ObsConfig\n"
        "from repro.sim.engine import Simulator\n"
        "from repro.units import MILLISECONDS\n"
        "D = 400 * MILLISECONDS\n"
        "run_until = Simulator.run_until\n"
        "calls = []\n"
        "def timed(self, until):\n"
        "    before = sorted(sys.modules)\n"
        "    result = run_until(self, until)\n"
        "    calls.append([m for m in sys.modules if m not in before])\n"
        "    return result\n"
        "Simulator.run_until = timed\n"
        "result = run_scenario(%s)\n"
        "assert result.records, 'the run completed no request'\n"
        "print(json.dumps(calls))\n" % RUN_CONFIGS[name]
    )
    assert seen == [[]]


def test_controller_registry_complete_on_its_own():
    names = _fresh(
        "import json\n"
        "import repro.controllers.registry as registry\n"
        "print(json.dumps(registry.available()))\n"
    )
    assert names == [
        "aimd",
        "alpha",
        "gradient",
        "knapsack",
        "morpheus",
        "proportional",
    ]


def test_campaign_registry_complete_on_its_own():
    alone = _fresh(
        "import json\n"
        "import repro.campaign.registry as registry\n"
        "print(json.dumps(registry.available()))\n"
    )
    judged = _fresh(
        "import json\n"
        "from repro.campaign import available, run_campaign\n"
        "print(json.dumps(available()))\n"
    )
    assert alone == judged == [
        "affinity-preserved",
        "breaker-legal",
        "conntrack-consistent",
        "hold-freeze",
        "ladder-legal",
        "no-dark-routing",
        "recovery-bound",
        "weight-conservation",
    ]


@pytest.mark.parametrize("package", PACKAGES)
def test_package_exports_resolve(package):
    name = "repro." + package
    module = importlib.import_module(name)
    table = module._EXPORTS
    assert sorted(module.__all__) == sorted(table)
    listing = dir(module)
    for export in module.__all__:
        defining = importlib.import_module(table[export], name)
        assert getattr(module, export) is getattr(defining, export)
        assert export in listing
    namespace = {}
    exec("from %s import *" % name, namespace)
    assert set(module.__all__) <= set(namespace)
    with pytest.raises(AttributeError, match=r"'repro\.%s'" % package):
        getattr(module, "no_such_name")


def test_star_imports_in_a_fresh_interpreter():
    """Every package resolves all its names whichever loads first."""
    counts = _fresh(
        "import json\n"
        "counts = {}\n"
        "for package in %r:\n"
        "    namespace = {}\n"
        "    exec('from repro.%%s import *' %% package, namespace)\n"
        "    counts[package] = len(namespace) - 1\n"
        "print(json.dumps(counts))\n" % (PACKAGES,)
    )
    for package in PACKAGES:
        module = importlib.import_module("repro." + package)
        assert counts[package] == len(module.__all__)


#: Plane modules ``repro --help`` must not load: the unarmed run-time
#: modules above, plus the report and executor surfaces of each verb.
CLI_PLANES = UNARMED + (
    "repro.obs.trace",
    "repro.obs.profiler",
    "repro.insight.explain",
    "repro.insight.diff",
    "repro.insight.timeline",
    "repro.fleet.lifecycle",
    "repro.harness.ablations",
)


def test_cli_help_loads_no_plane():
    loaded = _fresh(
        "import contextlib, io, json, sys\n"
        "from repro.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    try:\n"
        "        main(['--help'])\n"
        "    except SystemExit:\n"
        "        pass\n"
        "print(json.dumps([m for m in sys.modules\n"
        "                  if m in %r or m.startswith('repro.sweep.')]))\n"
        % (CLI_PLANES,)
    )
    assert loaded == []


def test_cli_ablation_names_are_the_ablations():
    from repro.cli import ABLATION_NAMES
    from repro.harness.ablations import ABLATIONS

    assert ABLATION_NAMES == tuple(sorted(ABLATIONS))
