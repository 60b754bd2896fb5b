"""ABL-ENSEMBLE — sweep the ensemble's width and spacing.

A too-narrow ensemble cannot bracket the post-step RTT (its largest
timeout is below the new batch pause), so tracking collapses; the
paper's 7-timeout ladder and wider variants keep tracking.
"""

from conftest import write_report

from repro.harness.ablations import run_ablation
from repro.harness.report import format_rows


def test_ensemble_sweep(benchmark):
    rows = benchmark.pedantic(
        lambda: run_ablation("ensemble"), rounds=1, iterations=1
    )
    write_report("ablation_ensemble", format_rows(rows))

    by_name = {row["ensemble"]: row for row in rows}
    paper = by_name["paper-7 (64us..4ms)"]
    narrow = by_name["narrow-3 (64..256us)"]
    assert float(paper["err_post"]) < 0.3
    # The narrow ensemble underestimates badly after the step.
    assert float(narrow["err_post"]) > 2 * float(paper["err_post"])
