"""``worst_and_best`` and ``estimate`` against independent oracles.

``worst_and_best`` walks the backends once and compares raw values; the
oracle is the definition it replaced — a stable sort of ``snapshot`` by
value, last and first.  ``estimate`` is checked against the telemetry
primitives fed the same stream directly, for all three metrics: the
estimator keeps only the statistic ``metric`` names, and that one must
read exactly as it did when both were kept.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.estimator import BackendLatencyEstimator, EstimatorConfig
from repro.resilience.quality import (
    SignalGrade,
    SignalQualityConfig,
    SignalQualityTracker,
)
from repro.telemetry.ewma import TimeDecayEwma
from repro.telemetry.quantiles import exact_quantile
from repro.units import MILLISECONDS

METRICS = ("ewma", "p95", "p50")
BACKENDS = ["server%d" % i for i in range(6)]
# Few distinct values, so equal maxima and minima are the common case.
LATENCIES = (100_000, 100_000, 250_000, 400_000)

#: A step of the stream: observe a sample, drop a backend, or rank.
steps = st.lists(
    st.one_of(
        st.tuples(
            st.just("observe"),
            st.sampled_from(BACKENDS),
            # Gaps up to 120 ms cross stale_after (50 ms) and
            # invalid_after (200 ms) within a few steps.
            st.sampled_from((0, 1, 5, 40, 120)),
            st.sampled_from(LATENCIES),
        ),
        st.tuples(st.just("forget"), st.sampled_from(BACKENDS)),
        st.tuples(st.just("rank"), st.sampled_from((0, 30, 60, 250))),
    ),
    min_size=1,
    max_size=80,
)


def _oracle(estimator, now):
    ranked = sorted(estimator.snapshot(now), key=lambda e: e.value)
    if len(ranked) < 2:
        return None
    return ranked[-1], ranked[0]


def _check(estimator, now):
    assert estimator.worst_and_best(now) == _oracle(estimator, now)


@pytest.mark.parametrize("metric", METRICS)
@pytest.mark.parametrize("graded", [False, True])
@given(stream=steps, min_samples=st.integers(min_value=1, max_value=4))
@settings(max_examples=60, deadline=None)
def test_worst_and_best_is_the_sorted_snapshots_ends(
    metric, graded, stream, min_samples
):
    estimator = BackendLatencyEstimator(
        EstimatorConfig(metric=metric, window=4, min_samples=min_samples),
        quality=SignalQualityTracker(SignalQualityConfig()) if graded else None,
    )
    now = 0
    for step in stream:
        if step[0] == "observe":
            _, backend, gap_ms, t_lb = step
            now += gap_ms * MILLISECONDS
            estimator.observe(backend, now, t_lb)
        elif step[0] == "forget":
            estimator.forget(step[1])
            assert estimator.estimate(step[1]) is None
        else:
            _check(estimator, now + step[1] * MILLISECONDS)
            _check(estimator, None)
    _check(estimator, now)


def test_equal_values_rank_last_name_worst_first_name_best():
    estimator = BackendLatencyEstimator(EstimatorConfig(min_samples=1))
    for backend in ("b", "c", "a"):
        estimator.observe(backend, 0, 100_000)
    worst, best = estimator.worst_and_best()
    assert (worst.backend, best.backend) == ("c", "a")
    estimator.forget("c")
    worst, best = estimator.worst_and_best()
    assert (worst.backend, best.backend) == ("b", "a")
    estimator.observe("c", 10, 100_000)
    worst, best = estimator.worst_and_best()
    assert (worst.backend, best.backend) == ("c", "a")


def test_grades_gate_and_flag_the_ranked_pair():
    tracker = SignalQualityTracker(SignalQualityConfig())
    estimator = BackendLatencyEstimator(
        EstimatorConfig(min_samples=1), quality=tracker
    )
    for i in range(3):
        estimator.observe("dead", i, 900_000)
    late = 190 * MILLISECONDS
    for i in range(3):
        estimator.observe("slow", late + i, 500_000)
        estimator.observe("fast", late + i, 100_000)
    # "dead" is STALE at `late` (and the worst), INVALID 20 ms later.
    assert tracker.grade("dead", late + 10) is SignalGrade.STALE
    assert tracker.grade("dead", late + 20 * MILLISECONDS) is SignalGrade.INVALID
    assert tracker.grade("fast", late + 10) is SignalGrade.FRESH
    worst, best = estimator.worst_and_best(late + 10)
    assert (worst.backend, worst.stale, best.backend, best.stale) == (
        "dead", True, "fast", False,
    )
    worst, best = estimator.worst_and_best(late + 20 * MILLISECONDS)
    assert (worst.backend, worst.stale, best.backend) == ("slow", False, "fast")
    # Without `now` nothing is graded.
    assert estimator.worst_and_best()[0].backend == "dead"


@pytest.mark.parametrize("metric", METRICS)
@given(
    samples=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=30 * MILLISECONDS),
            st.integers(min_value=0, max_value=5 * MILLISECONDS),
        ),
        min_size=1,
        max_size=40,
    )
)
@settings(max_examples=60, deadline=None)
def test_estimate_reads_the_metrics_own_statistic(metric, samples):
    config = EstimatorConfig(metric=metric, window=8)
    estimator = BackendLatencyEstimator(config)
    ewma = TimeDecayEwma(tau=config.tau)
    seen = []
    now = 0
    for gap, t_lb in samples:
        now += gap
        estimator.observe("server0", now, t_lb)
        ewma.observe(now, float(t_lb))
        seen.append(float(t_lb))
        recent = seen[-config.window:]
        expected = {
            "ewma": ewma.value,
            "p95": exact_quantile(recent, 0.95),
            "p50": exact_quantile(recent, 0.50),
        }[metric]
        assert estimator.estimate("server0") == expected
    assert estimator.estimate("never-seen") is None
    assert estimator.sample_counts() == {"server0": len(samples)}
