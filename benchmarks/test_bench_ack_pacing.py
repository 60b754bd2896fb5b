"""Open question #2 — ACK policy and pacing vs estimator accuracy.

The measurement assumes triggered packets land "soon" after responses.
Delayed ACKs and pacing both weaken that; this bench quantifies by how
much the T_LB estimate degrades under each.
"""

from conftest import write_report

from repro.harness.ablations import run_ablation
from repro.harness.report import format_rows


def test_ack_and_pacing(benchmark):
    rows = benchmark.pedantic(
        lambda: run_ablation("ack-pacing"), rounds=1, iterations=1
    )
    write_report("ack_pacing", format_rows(rows))

    by_label = {row["transport"]: row for row in rows}
    # Measurement keeps producing samples under every timing behaviour.
    for row in rows:
        assert row["t_lb_samples"] > 100
    # Immediate ACKs give a usable estimate (within 50% of truth).
    assert float(by_label["immediate-acks"]["rel_error"]) < 0.5
