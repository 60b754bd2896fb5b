"""ABL-HYST — the paper-verbatim always-shift rule vs damped variants.

At ratio 1.0 (shift on every sample, as the paper's §3 text states) the
controller chases queueing noise: many shifts land *before* any fault.
Mild hysteresis silences the noise while keeping millisecond-scale
reaction; too much (2.0) makes the controller miss or react late.
"""

from conftest import write_report

from repro.harness.ablations import run_ablation
from repro.harness.report import format_rows


def test_hysteresis_sweep(benchmark):
    rows = benchmark.pedantic(
        lambda: run_ablation("hysteresis"), rounds=1, iterations=1
    )
    write_report("ablation_hysteresis", format_rows(rows))

    by_ratio = {row["hysteresis"]: row for row in rows}

    def total(ratio):
        return (
            by_ratio[ratio]["pre_injection_shifts"]
            + by_ratio[ratio]["post_injection_shifts"]
        )

    # The verbatim always-shift rule (1.0) churns more than damped
    # variants — in particular it keeps shifting after the drain is done.
    assert total(1.0) > total(1.5)
    assert (
        by_ratio[1.0]["post_injection_shifts"]
        > 2 * by_ratio[1.2]["post_injection_shifts"]
    )
    # The default (1.2) still reacts.
    assert by_ratio[1.2]["react_ms"] != "-"
