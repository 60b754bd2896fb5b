"""Benchmark-suite helpers.

Scenario benches run exactly once (``benchmark.pedantic(rounds=1)``) —
they are deterministic simulations, and their value is the *series* they
regenerate, not a timing distribution.  Microbenches (Maglev, engine)
use normal pytest-benchmark statistics.

Every bench writes its paper-style report to ``benchmarks/reports/`` so
the output survives pytest's stdout capture.  Hot-path benches
additionally record a machine-readable perf baseline in
``benchmarks/BENCH_engine.json`` (events/sec, wall seconds, peak queue
depth per bench) via :func:`record_perf`, giving future PRs — and the
CI ``perf-smoke`` gate (``benchmarks/perf_smoke.py``) — a trajectory to
compare against.
"""

from __future__ import annotations

import json
import pathlib

REPORTS_DIR = pathlib.Path(__file__).parent / "reports"
BENCH_JSON = pathlib.Path(__file__).parent / "BENCH_engine.json"


def record_perf(
    bench: str,
    events: int,
    wall_seconds: float,
    peak_queue_depth=None,
) -> dict:
    """Merge one bench's throughput into ``BENCH_engine.json``.

    The file maps bench name → ``{events, wall_seconds, events_per_sec,
    peak_queue_depth}``; entries for benches not re-run are preserved so
    partial runs don't erase the rest of the baseline.
    """
    data = {}
    if BENCH_JSON.exists():
        try:
            data = json.loads(BENCH_JSON.read_text(encoding="utf-8"))
        except ValueError:
            data = {}  # corrupt baseline: rebuild from this run
    entry = {
        "events": events,
        "wall_seconds": round(wall_seconds, 6),
        "events_per_sec": round(events / wall_seconds, 1),
    }
    if peak_queue_depth is not None:
        entry["peak_queue_depth"] = peak_queue_depth
    data[bench] = entry
    tmp = BENCH_JSON.with_suffix(".json.tmp")
    tmp.write_text(
        json.dumps(data, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    tmp.replace(BENCH_JSON)
    return entry


# The scrubber now lives in the report renderer (prefer
# report(deterministic=True)); re-exported here for bench imports.
from repro.harness.report import scrub_wallclock  # noqa: E402,F401


def write_report(name: str, text: str) -> None:
    """Persist a bench's rendered series/table and echo it to stdout."""
    REPORTS_DIR.mkdir(exist_ok=True)
    path = REPORTS_DIR / ("%s.txt" % name)
    path.write_text(text + "\n", encoding="utf-8")
    print()
    print("=" * 70)
    print(name)
    print("=" * 70)
    print(text)

