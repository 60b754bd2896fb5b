"""ABL-POLICY — every routing policy against the Fig 3 stimulus.

Latency-oblivious policies (Maglev, round-robin, least-connections)
keep ~half the traffic on the slow server; the in-band feedback loop
and the response-observing oracle both drain it.  Comparing feedback to
the oracle isolates the cost of measuring T_LB instead of T_client.
"""

from conftest import write_report

from repro.harness.ablations import run_ablation
from repro.harness.report import format_rows


def test_policy_comparison(benchmark):
    rows = benchmark.pedantic(
        lambda: run_ablation("policies"), rounds=1, iterations=1
    )
    write_report("ablation_policies", format_rows(rows))

    by_policy = {row["policy"]: row for row in rows}
    fb_share = float(by_policy["feedback"]["slow_server_share"])
    oracle_share = float(by_policy["oracle"]["slow_server_share"])
    maglev_share = float(by_policy["maglev"]["slow_server_share"])

    # Oblivious baselines keep feeding the slow server ~evenly.
    assert maglev_share > 0.35
    # Feedback and oracle both drain it.
    assert fb_share < 0.25
    assert oracle_share < 0.25
    # And feedback's post-fault p95 beats Maglev's.
    assert float(by_policy["feedback"]["post_p95_ms"]) < float(
        by_policy["maglev"]["post_p95_ms"]
    )
