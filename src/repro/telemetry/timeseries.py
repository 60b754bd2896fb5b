"""Time-series recorders used to regenerate the paper's figures.

:class:`TimeSeries` keeps raw ``(timestamp, value)`` pairs — that's what
Fig 2 scatters.  :class:`BucketedSeries` aggregates values into fixed
time buckets and reports per-bucket statistics — that's what Fig 3's
"p95 over time" line needs.
"""

from __future__ import annotations

from array import array
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.telemetry.quantiles import exact_quantile


class TimeSeries:
    """Append-only record of ``(time_ns, value)`` samples, kept as two
    typed columns: ``array('q')`` times and ``array('d')`` values."""

    def __init__(self, name: str = ""):
        self.name = name
        self._times = array("q")
        self._values = array("d")

    def __len__(self) -> int:
        return len(self._times)

    def append(self, time_ns: int, value: float) -> None:
        """Record ``value`` observed at ``time_ns``.

        Timestamps must be non-decreasing; the simulator guarantees this
        naturally, so a violation signals a wiring bug worth failing on.
        """
        if self._times and time_ns < self._times[-1]:
            raise ValueError(
                "timestamps must be non-decreasing (%d after %d)"
                % (time_ns, self._times[-1])
            )
        self._times.append(time_ns)
        self._values.append(value)

    @property
    def times(self) -> Sequence[int]:
        """All timestamps, in order."""
        return self._times

    @property
    def values(self) -> Sequence[float]:
        """All values, in timestamp order."""
        return self._values

    def items(self) -> Iterator[Tuple[int, float]]:
        """Iterate ``(time_ns, value)`` pairs in order."""
        return zip(self._times, self._values)

    def between(self, start_ns: int, end_ns: int) -> List[Tuple[int, float]]:
        """Samples with ``start_ns <= t < end_ns`` (linear scan)."""
        return [
            (t, v)
            for t, v in zip(self._times, self._values)
            if start_ns <= t < end_ns
        ]

    def last(self) -> Optional[Tuple[int, float]]:
        """Most recent sample, or None when empty."""
        if not self._times:
            return None
        return self._times[-1], self._values[-1]


class BucketedSeries:
    """Aggregates samples into fixed-width time buckets.

    Supports per-bucket count/mean/quantiles, which is exactly what the
    Fig 3 report prints (one p95 per time bucket).
    """

    def __init__(self, bucket_ns: int, name: str = ""):
        if bucket_ns <= 0:
            raise ValueError("bucket width must be positive, got %r" % bucket_ns)
        self.name = name
        self._bucket_ns = bucket_ns
        self._buckets: Dict[int, List[float]] = {}

    @property
    def bucket_ns(self) -> int:
        """Width of each bucket in nanoseconds."""
        return self._bucket_ns

    def append(self, time_ns: int, value: float) -> None:
        """Record ``value`` into the bucket containing ``time_ns``."""
        index = time_ns // self._bucket_ns
        self._buckets.setdefault(index, []).append(float(value))

    def bucket_indices(self) -> List[int]:
        """Sorted indices of non-empty buckets."""
        return sorted(self._buckets)

    def bucket_start(self, index: int) -> int:
        """Start time (ns) of bucket ``index``."""
        return index * self._bucket_ns

    def count(self, index: int) -> int:
        """Number of samples in bucket ``index`` (0 if empty)."""
        return len(self._buckets.get(index, ()))

    def mean(self, index: int) -> Optional[float]:
        """Mean of bucket ``index``, or None if empty."""
        samples = self._buckets.get(index)
        if not samples:
            return None
        return sum(samples) / len(samples)

    def quantile(self, index: int, q: float) -> Optional[float]:
        """Exact ``q``-quantile of bucket ``index``, or None if empty."""
        samples = self._buckets.get(index)
        if not samples:
            return None
        return exact_quantile(samples, q)

    def series(
        self, reducer: Callable[[List[float]], float]
    ) -> List[Tuple[int, float]]:
        """Reduce every bucket, returning ``(bucket_start_ns, value)`` rows."""
        return [
            (self.bucket_start(index), reducer(self._buckets[index]))
            for index in self.bucket_indices()
        ]

    def quantile_series(self, q: float) -> List[Tuple[int, float]]:
        """Convenience: per-bucket ``q``-quantile series."""
        return self.series(lambda samples: exact_quantile(samples, q))
