"""CLAIM-REACT — §1/§4: "adapts to a server latency inflation of 1 ms
and shifts traffic in milliseconds".

Measures, on the Fig 3 scenario: injection → first weight shift, and
injection → injected server's weight reaching the floor (traffic fully
drained).  The paper's claim is millisecond-scale reaction; we assert
tens of milliseconds as the simulation-scale bound (estimator time
constant + epoch granularity dominate).
"""

from conftest import write_report

from repro.harness.figures import Fig3Config, run_reaction
from repro.units import MILLISECONDS, SECONDS


def test_reaction_time(benchmark):
    config = Fig3Config(duration=2 * SECONDS)
    result = benchmark.pedantic(lambda: run_reaction(config), rounds=1, iterations=1)
    write_report("reaction_time", result.report())

    assert result.reaction_ns is not None
    assert result.reaction_ns < 100 * MILLISECONDS
    assert result.injected_weight_floor_at is not None
    assert result.injected_weight_floor_at - result.injection_at < 500 * MILLISECONDS
