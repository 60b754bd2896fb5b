"""Sweep orchestration: parallel experiment fan-out with result caching.

The experiment plane's answer to "runs as fast as the hardware allows":
a declarative :class:`SweepSpec` (grid/zip/explicit-point expansion over
:class:`~repro.harness.config.ScenarioConfig` fields, per-point
deterministic seed derivation), a multiprocessing executor with bounded
workers and retry-on-worker-crash, and a content-addressed
:class:`ResultStore` so unchanged points are cache hits and interrupted
sweeps resume where they stopped.

* :mod:`~repro.sweep.spec` — sweep specifications and expansion.
* :mod:`~repro.sweep.canon` — canonical config serialization + hashing.
* :mod:`~repro.sweep.store` — JSONL-backed content-addressed results.
* :mod:`~repro.sweep.executor` — generic task fan-out (any module-level
  runner function; the ablation sweeps submit through this).
* :mod:`~repro.sweep.points` — the scenario-level default runner and
  :func:`run_sweep`.

Quickstart::

    from repro.harness import PolicyName, ScenarioConfig
    from repro.sweep import ResultStore, SweepSpec, run_sweep
    from repro import units

    spec = SweepSpec(
        base=ScenarioConfig(duration=units.seconds(1), policy=PolicyName.FEEDBACK),
        grid={"feedback.controller.alpha": [0.05, 0.1, 0.2], "seed": [1, 2]},
    )
    report = run_sweep(spec, jobs=4, store=ResultStore(".sweep-store"))
    print(report.summary(spec.name))   # rerun → all points are cache hits
"""

from repro._exports import lazy_exports

__all__ = [
    "SweepSpec",
    "SweepPoint",
    "apply_overrides",
    "load_spec",
    "parse_axis",
    "parse_scalar",
    "ResultStore",
    "Task",
    "task",
    "Outcome",
    "SweepReport",
    "run_tasks",
    "run_sweep",
    "simulate_point",
    "print_progress",
    "canonicalize",
    "canonical_json",
    "config_key",
]

_EXPORTS = {
    "canonical_json": ".canon",
    "canonicalize": ".canon",
    "config_key": ".canon",
    "Outcome": ".executor",
    "SweepReport": ".executor",
    "Task": ".executor",
    "print_progress": ".executor",
    "run_tasks": ".executor",
    "task": ".executor",
    "run_sweep": ".points",
    "simulate_point": ".points",
    "SweepPoint": ".spec",
    "SweepSpec": ".spec",
    "apply_overrides": ".spec",
    "load_spec": ".spec",
    "parse_axis": ".spec",
    "parse_scalar": ".spec",
    "ResultStore": ".store",
}

__getattr__, __dir__ = lazy_exports(__name__, globals(), _EXPORTS)
