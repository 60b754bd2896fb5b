"""Streaming statistics used by the measurement plane and the harness.

Everything here is dependency-free and O(1)-ish per observation so the
load balancer's per-packet path can afford it:

* :class:`~repro.telemetry.ewma.Ewma` — exponentially-weighted average.
* :class:`~repro.telemetry.quantiles.WindowedQuantile` — exact sliding window.
* :class:`~repro.telemetry.histogram.LogHistogram` — log-bucketed latencies.
* :class:`~repro.telemetry.timeseries.TimeSeries` — raw (t, value) recorder.
* :class:`~repro.telemetry.timeseries.BucketedSeries` — per-interval stats.
* :class:`~repro.telemetry.summary.summarize` — one-shot distribution report.
"""

from repro.telemetry.ewma import Ewma
from repro.telemetry.quantiles import WindowedQuantile, exact_quantile
from repro.telemetry.histogram import LogHistogram
from repro.telemetry.timeseries import TimeSeries, BucketedSeries
from repro.telemetry.summary import DistributionSummary, summarize

__all__ = [
    "Ewma",
    "WindowedQuantile",
    "exact_quantile",
    "LogHistogram",
    "TimeSeries",
    "BucketedSeries",
    "DistributionSummary",
    "summarize",
]
