"""FIG2 — paper Fig 2: FIXEDTIMEOUT at fixed δ and ENSEMBLETIMEOUT vs
the true RTT, on one backlogged flow across an RTT step.

One run writes both panels.  Panel (a), ``fig2a.txt``: for δ = 64 µs
and 1024 µs, the number of samples and the median estimate before and
after the step, against the client-measured truth.  Low δ floods
erroneously-low samples; high δ yields few erroneously-high ones.
Panel (b), ``fig2b.txt``: the shipped in-band feedback loop's median
T_LB vs median T_client on each side of the step, and the timeout
δₘ it chose per epoch.
"""

from conftest import write_report

from repro.harness.figures import FIG2A_DELTAS, BacklogConfig, run_fig2
from repro.units import MILLISECONDS, SECONDS


CONFIG = BacklogConfig(duration=3 * SECONDS, step_at=3 * SECONDS // 2)
SETTLE = 200 * MILLISECONDS


def test_fig2(benchmark):
    result = benchmark.pedantic(lambda: run_fig2(CONFIG), rounds=1, iterations=1)
    write_report("fig2a", result.panel_a())
    write_report("fig2b", result.panel_b())

    truth_pre = result.median(result.ground_truth, False)
    truth_post = result.median(result.ground_truth, True)
    low, high = (result.fixed[delta] for delta in FIG2A_DELTAS)
    # Panel (a), paper shape (i): the low timeout produces far more samples...
    assert len(low) > 10 * len(high)
    # ...and, once the RTT has stepped up past it, erroneously low ones.
    assert result.median(low, True) < truth_post / 2
    # Paper shape (ii): the high timeout's few samples are erroneously high.
    est_high_pre = result.median(high, False)
    assert est_high_pre is None or est_high_pre > 2 * truth_pre

    # Panel (b): the ensemble tracks the truth on both sides of the step.
    assert result.tracking_error(False) < 0.25
    assert result.tracking_error(True) < 0.25

    # And the chosen timeout adapts upward after the step (median choice).
    pre = sorted(
        v for t, v in result.chosen_timeouts.items() if t < CONFIG.step_at
    )
    post = sorted(
        v
        for t, v in result.chosen_timeouts.items()
        if t > CONFIG.step_at + SETTLE
    )
    assert post[len(post) // 2] > pre[len(pre) // 2]
