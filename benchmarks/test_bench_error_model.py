"""CLAIM-ERR — §3: ``T_LB − T_client = O3 − O1 + T_trigger``.

On a symmetric jitter-free client↔LB path (O3 = O1) with a serialized
pipeline-1 client, T_trigger equals the configured think time exactly,
so the identity predicts the measured error to the nanosecond scale.
"""

from conftest import write_report

from repro.harness.figures import (
    ERROR_THINK_TIMES,
    error_table,
    run_error_decomposition,
)
from repro.units import MICROSECONDS, SECONDS


def test_error_identity(benchmark):
    def run_all():
        return [
            run_error_decomposition(think, duration=SECONDS // 2)
            for think in ERROR_THINK_TIMES
        ]

    results = benchmark.pedantic(run_all, rounds=1, iterations=1)
    write_report("error_model", error_table(results))

    for result in results:
        # The identity holds to within a few tens of microseconds
        # (residual = queueing noise), and exactly in shape.
        assert result.identity_gap < 50 * MICROSECONDS
