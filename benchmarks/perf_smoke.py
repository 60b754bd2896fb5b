"""CI perf gate: fail when the engine hot path regresses.

Runs the same self-timing workloads as the benches (no pytest needed)
and compares events/sec against the committed ``BENCH_engine.json``
baseline.  A bench failing to reach ``(1 - tolerance)`` of its recorded
events/sec fails the job; benches absent from the baseline are reported
but never fail (so adding a bench doesn't require regenerating the
baseline in the same commit).

Usage::

    PYTHONPATH=src python benchmarks/perf_smoke.py [--tolerance 0.30]

CI machines are slower and noisier than the machine that recorded the
baseline, hence the generous default tolerance: this gate catches
algorithmic regressions (an accidental O(k) loop back in observe, a
per-packet heap event), not microarchitectural jitter.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

from hotpath_cases import (  # noqa: E402
    make_gap_trace,
    run_engine_fire_events,
    run_ensemble_observe,
    run_fleet_elastic_1k,
    run_lb_control_path,
    run_pipe_stream,
)

BENCH_JSON = pathlib.Path(__file__).resolve().parent / "BENCH_engine.json"
BEST_OF = 5


def _best_rate(runner, *args, **kwargs) -> float:
    best = 0.0
    for _ in range(BEST_OF):
        result = runner(*args, **kwargs)
        events, seconds = result[0], result[1]
        best = max(best, events / seconds)
    return best


def measure(fleet: bool = True) -> dict:
    """Re-run every gated bench; returns bench name → events/sec."""
    trace = make_gap_trace()
    rates = {
        "engine_fire_10k": _best_rate(run_engine_fire_events),
        "ensemble_observe_fused_100k": _best_rate(run_ensemble_observe, trace),
        "pipe_stream_10x1k": _best_rate(run_pipe_stream),
    }
    # One run times both control-path arms; best-of is taken per arm.
    control = [run_lb_control_path() for _ in range(BEST_OF)]
    rates["lb_control_sample_40k"] = max(r[0] / r[1] for r in control)
    rates["lb_control_rebuild_100"] = max(r[2] / r[3] for r in control)
    if fleet:
        # End-to-end arm: every layer at once (transport, slab dataplane,
        # feedback, autoscaler).  One run, not best-of-5 — it dominates
        # the gate's wall clock and its ~30s scale smooths jitter anyway.
        events, seconds, _peak = run_fleet_elastic_1k()
        rates["fleet_elastic_1k"] = events / seconds
    return rates


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.30,
        help="allowed fractional slowdown vs baseline (default 0.30)",
    )
    parser.add_argument(
        "--no-fleet",
        action="store_true",
        help="skip the ~30s fleet_elastic_1k end-to-end arm",
    )
    args = parser.parse_args(argv)

    if not BENCH_JSON.exists():
        print("no %s baseline; nothing to gate against" % BENCH_JSON.name)
        return 0
    baseline = json.loads(BENCH_JSON.read_text(encoding="utf-8"))

    failures = []
    for bench, rate in measure(fleet=not args.no_fleet).items():
        recorded = baseline.get(bench, {}).get("events_per_sec")
        if recorded is None:
            print("%-30s %12.0f ev/s  (no baseline, skipped)" % (bench, rate))
            continue
        floor = recorded * (1.0 - args.tolerance)
        status = "ok" if rate >= floor else "REGRESSION"
        print(
            "%-30s %12.0f ev/s  baseline %12.0f  floor %12.0f  %s"
            % (bench, rate, recorded, floor, status)
        )
        if rate < floor:
            failures.append(bench)

    if failures:
        print(
            "\nFAIL: %s regressed more than %.0f%% below BENCH_engine.json"
            % (", ".join(failures), args.tolerance * 100)
        )
        return 1
    print("\nperf-smoke ok")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
