"""Seed robustness of the headline (Fig 3) result.

The reproduction's claims must not hinge on one lucky seed: across
independent seeds, the ordering — feedback recovers, Maglev stays
inflated — has to hold every time.  Durations are kept short (the
shape, not the absolute numbers, is under test).

The seeds are a sweep spec's seed axis, run through the sweep path with
:func:`~repro.harness.figures.fig3_robustness_point` as the row
function, so the bench parallelizes on multi-core runners and row values
are raw nanoseconds.
"""

import os

from conftest import write_report

from repro.harness.figures import Fig3Config, fig3_robustness_point
from repro.harness.report import format_table
from repro.sweep import SweepSpec, run_sweep
from repro.units import MICROSECONDS, MILLISECONDS, to_millis

SEEDS = (3, 11, 47)
DURATION = 1600 * MILLISECONDS
JOBS = min(len(SEEDS), max(1, len(os.sched_getaffinity(0))))


def test_fig3_shape_holds_across_seeds(benchmark):
    spec = SweepSpec(base=Fig3Config(duration=DURATION), seeds=SEEDS)
    report = benchmark.pedantic(
        lambda: run_sweep(spec, jobs=JOBS, runner=fig3_robustness_point),
        rounds=1,
        iterations=1,
    )
    rows_by_seed = {row["seed"]: row for row in report.rows}
    assert sorted(rows_by_seed) == sorted(SEEDS)

    rows = []
    for seed in SEEDS:
        row = rows_by_seed[seed]
        rows.append(
            (
                seed,
                "%.3f" % to_millis(row["maglev_pre_p95_ns"]),
                "%.3f" % to_millis(row["maglev_post_p95_ns"]),
                "%.3f" % to_millis(row["feedback_pre_p95_ns"]),
                "%.3f" % to_millis(row["feedback_post_p95_ns"]),
            )
        )
    write_report(
        "seed_robustness",
        format_table(
            (
                "seed",
                "maglev pre p95 (ms)",
                "maglev post p95 (ms)",
                "feedback pre p95 (ms)",
                "feedback post p95 (ms)",
            ),
            rows,
        ),
    )

    for seed in SEEDS:
        row = rows_by_seed[seed]
        maglev_pre = row["maglev_pre_p95_ns"]
        maglev_post = row["maglev_post_p95_ns"]
        fb_pre = row["feedback_pre_p95_ns"]
        fb_post = row["feedback_post_p95_ns"]
        # Maglev inflates by a substantial fraction of the injected 1 ms.
        assert maglev_post > maglev_pre + 250 * MICROSECONDS, "seed %d" % seed
        # Feedback stays near its own steady state...
        assert fb_post < fb_pre * 1.3 + 100 * MICROSECONDS, "seed %d" % seed
        # ...and beats Maglev after the fault.
        assert fb_post < maglev_post, "seed %d" % seed
