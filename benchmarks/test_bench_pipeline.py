"""Open question #2 (flavor) — measurement vs application concurrency.

Deeper pipelines shorten the pauses Algorithms 1–2 segment on.  This
sweep records how sample volume and estimate quality change with the
client's pipeline depth.
"""

from conftest import write_report

from repro.harness.ablations import run_ablation
from repro.harness.report import format_rows


def test_pipeline_depth(benchmark):
    rows = benchmark.pedantic(
        lambda: run_ablation("pipeline"), rounds=1, iterations=1
    )
    write_report("pipeline_depth", format_rows(rows))

    # Samples are produced at every depth; the measurement keeps working.
    for row in rows:
        assert row["t_lb_samples"] > 100
