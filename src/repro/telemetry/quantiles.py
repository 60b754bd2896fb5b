"""Exact and windowed quantile estimators.

The harness reports tail latency (the paper's Fig 3 plots p95), so we
need quantiles both over sliding windows (recent behaviour, used by the
controller's per-backend estimator) and over full runs (reporting).

* :func:`exact_quantile` — exact quantile of a sequence, linear
  interpolation between order statistics (same convention as
  ``numpy.percentile(..., method="linear")``).
* :class:`WindowedQuantile` — exact quantile over the last N samples,
  maintained with a sorted list (O(log n) insert/remove via bisect).
"""

from __future__ import annotations

import bisect
from collections import deque
from typing import Deque, List, Optional, Sequence


def exact_quantile(values: Sequence[float], q: float) -> float:
    """Exact ``q``-quantile (0 ≤ q ≤ 1) with linear interpolation.

    Raises ValueError on an empty sequence — callers decide what an
    absent distribution means; silently returning 0 would corrupt
    latency reports.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError("quantile must be in [0, 1], got %r" % q)
    if not values:
        raise ValueError("cannot take quantile of empty sequence")
    ordered = sorted(values)
    if len(ordered) == 1:
        return float(ordered[0])
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    frac = pos - lo
    # `a + f*(b-a)` (not `a*(1-f) + b*f`): exact when a == b, and always
    # within [a, b], which keeps quantiles monotone in q.
    return ordered[lo] + frac * (ordered[hi] - ordered[lo])


class WindowedQuantile:
    """Exact quantile over a sliding window of the last ``window`` samples.

    Keeps the window in arrival order (deque) plus a parallel sorted list,
    so insertion and eviction are O(log n) + O(n) shift — fine for the
    window sizes the estimator uses (tens to hundreds of samples).
    """

    def __init__(self, window: int):
        if window <= 0:
            raise ValueError("window must be positive, got %r" % window)
        self._window = window
        self._arrivals: Deque[float] = deque()
        self._sorted: List[float] = []

    def __len__(self) -> int:
        return len(self._arrivals)

    @property
    def window(self) -> int:
        """Maximum number of retained samples."""
        return self._window

    def observe(self, sample: float) -> None:
        """Add a sample, evicting the oldest when the window is full."""
        sample = float(sample)
        if len(self._arrivals) == self._window:
            oldest = self._arrivals.popleft()
            idx = bisect.bisect_left(self._sorted, oldest)
            del self._sorted[idx]
        self._arrivals.append(sample)
        bisect.insort(self._sorted, sample)

    def quantile(self, q: float) -> Optional[float]:
        """Current ``q``-quantile, or None while empty."""
        if not self._sorted:
            return None
        return exact_quantile(self._sorted, q)

    def reset(self) -> None:
        """Drop all samples."""
        self._arrivals.clear()
        self._sorted.clear()

