"""ABL-ALPHA — sweep the shift fraction α (paper: 10%).

Small α needs many shifts to drain a slow server; large α converges in
one or two.  All drain eventually; the recovery tail differs.
"""

from conftest import write_report

from repro.harness.ablations import run_ablation
from repro.harness.report import format_rows


def test_alpha_sweep(benchmark):
    rows = benchmark.pedantic(
        lambda: run_ablation("alpha"), rounds=1, iterations=1
    )
    write_report("ablation_alpha", format_rows(rows))

    by_alpha = {row["alpha"]: row for row in rows}
    # Every α reacts (a first shift exists) ...
    assert all(row["react_ms"] != "-" for row in rows)
    # ... and every α ends with the slow server mostly drained.
    for row in rows:
        assert float(row["slow_server_share"]) < 0.4
