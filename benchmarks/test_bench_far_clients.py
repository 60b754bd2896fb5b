"""Open question #1 — far, non-equidistant clients.

As the client↔LB distance grows, absolute T_LB estimates inflate by the
uncontrollable legs, but the *difference* between the injected and
healthy backends stays pinned to the injected 1 ms — ranking-based
control survives; absolute-threshold control would not.
"""

from conftest import write_report

from repro.harness.ablations import run_ablation
from repro.harness.report import format_rows


def test_far_clients(benchmark):
    rows = benchmark.pedantic(
        lambda: run_ablation("far-clients"), rounds=1, iterations=1
    )
    write_report("far_clients", format_rows(rows))

    gaps = [float(row["gap_us"]) for row in rows]
    # The injected-vs-healthy gap ≈ 1000 us at every client distance.
    for gap in gaps:
        assert 500 < gap < 2500
    # Absolute estimates inflate with distance.
    injected = [float(row["est_injected_us"]) for row in rows]
    assert injected[-1] > injected[0] + 2000
