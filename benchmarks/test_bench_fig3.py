"""FIG3 — paper Fig 3: p95 GET latency, plain Maglev vs latency-aware LB.

Two identical runs (same seed, same 1 ms LB→server0 injection at the
midpoint) differing only in the LB: the regular Maglev baseline and the
in-band feedback design.  Regenerates the figure's p95-over-time series
and asserts its reading: Maglev stays ≈1 ms inflated, the latency-aware
LB recovers to its pre-fault tail.
"""

from conftest import write_report

from repro.harness.figures import Fig3Config, run_fig3
from repro.units import MICROSECONDS, SECONDS


CONFIG = Fig3Config(duration=3 * SECONDS)


def test_fig3_p95_timeline(benchmark):
    result = benchmark.pedantic(lambda: run_fig3(CONFIG), rounds=1, iterations=1)
    write_report("fig3", result.report())

    settle = CONFIG.duration // 8
    # Paper reading 1: the fault inflates Maglev's p95 by ~the injection.
    maglev_pre = result.steady_state_p95("maglev")
    maglev_post = result.post_injection_p95("maglev", settle)
    assert maglev_post > maglev_pre + 300 * MICROSECONDS

    # Paper reading 2: the latency-aware LB's p95 returns to ~steady state.
    fb_pre = result.steady_state_p95("feedback")
    fb_post = result.post_injection_p95("feedback", settle)
    assert fb_post < fb_pre * 1.25 + 100 * MICROSECONDS

    # Paper reading 3: feedback beats Maglev after the fault.
    assert fb_post < maglev_post
