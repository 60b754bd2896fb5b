"""ABL-EPOCH — sweep ENSEMBLETIMEOUT's epoch length E (paper: 64 ms).

Short epochs adapt fast but pick cliffs from few samples; long epochs
are smooth but stale across RTT changes.  The paper's 64 ms sits in the
flat middle of the tracking-error curve.
"""

from conftest import write_report

from repro.harness.ablations import run_ablation
from repro.harness.report import format_rows


def test_epoch_sweep(benchmark):
    rows = benchmark.pedantic(
        lambda: run_ablation("epoch"), rounds=1, iterations=1
    )
    write_report("ablation_epoch", format_rows(rows))

    by_epoch = {row["epoch_ms"]: row for row in rows}
    # The paper's default must track on both sides of the step.
    assert float(by_epoch[64]["err_pre"]) < 0.3
    assert float(by_epoch[64]["err_post"]) < 0.3
    # Epoch count scales inversely with length.
    assert by_epoch[8]["epochs"] > by_epoch[256]["epochs"]
