"""Scenario-level sweep entry points.

:func:`run_sweep` is the orchestration verb: expand a
:class:`~repro.sweep.spec.SweepSpec` into points and push them through
the executor with a scenario runner.  :func:`simulate_point` is the
default runner — one :func:`~repro.harness.runner.run_scenario` call
distilled into a flat, JSON-serializable summary row (what the
:class:`~repro.sweep.store.ResultStore` caches and the CLI tabulates).

Rows carry raw nanosecond/count values, not formatted strings, so they
are byte-stable across processes and reusable by downstream analysis.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from repro.harness.config import ScenarioConfig
from repro.harness.runner import run_scenario
from repro.sweep.executor import Outcome, SweepReport, run_tasks, task
from repro.sweep.spec import SweepSpec
from repro.sweep.store import ResultStore
from repro.telemetry.quantiles import exact_quantile


def simulate_point(config: ScenarioConfig) -> Dict[str, object]:
    """Run one scenario and summarize it as a flat row."""
    result = run_scenario(config)
    values = result.latencies(start=config.warmup or None)
    queue_drops, loss_drops = result.drop_counts()
    row: Dict[str, object] = {
        "seed": config.seed,
        "policy": config.policy.value,
        "requests": len(result.records),
        "throughput_rps": round(result.throughput_rps(), 3),
        "p50_ms": _ms(exact_quantile(values, 0.50)) if values else None,
        "p95_ms": _ms(exact_quantile(values, 0.95)) if values else None,
        "p99_ms": _ms(exact_quantile(values, 0.99)) if values else None,
        "shifts": len(result.shift_times()),
        "queue_drops": queue_drops,
        "loss_drops": loss_drops,
        "wall_events": result.wall_events,
        "per_server": result.per_server_counts(),
    }
    return row


def run_sweep(
    spec: SweepSpec,
    jobs: int = 1,
    store: Optional[ResultStore] = None,
    use_cache: bool = True,
    retries: int = 2,
    progress: Optional[Callable[[Outcome, int, int], None]] = None,
    runner: Callable[[object], Dict[str, object]] = simulate_point,
) -> SweepReport:
    """Expand ``spec`` and run every point's config through ``runner``."""
    tasks = [
        task(runner, point.config, label=point.label)
        for point in spec.expand()
    ]
    return run_tasks(
        tasks,
        jobs=jobs,
        store=store,
        use_cache=use_cache,
        retries=retries,
        progress=progress,
    )


def _ms(value: float) -> float:
    return round(value / 1e6, 6)
