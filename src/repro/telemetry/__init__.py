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

from repro._exports import lazy_exports

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

_EXPORTS = {
    "Ewma": ".ewma",
    "WindowedQuantile": ".quantiles",
    "exact_quantile": ".quantiles",
    "LogHistogram": ".histogram",
    "TimeSeries": ".timeseries",
    "BucketedSeries": ".timeseries",
    "DistributionSummary": ".summary",
    "summarize": ".summary",
}

__getattr__, __dir__ = lazy_exports(__name__, globals(), _EXPORTS)
