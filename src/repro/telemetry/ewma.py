"""Exponentially-weighted moving average.

Used by the per-backend latency estimator: new `T_LB` samples fold into a
smoothed view of each server's recent latency, the way TCP smooths its
SRTT.  Also provides a time-decaying variant whose weight depends on the
gap between samples, which behaves better when sample rates differ across
backends (a slow backend produces fewer samples, but its estimate should
not be stickier because of it).
"""

from __future__ import annotations

import math
from typing import Optional


class Ewma:
    """Classic fixed-gain EWMA: ``est ← (1-g)·est + g·sample``.

    The first observation initializes the estimate directly, mirroring
    TCP's SRTT bootstrap.
    """

    __slots__ = ("value", "_gain", "_count")

    def __init__(self, gain: float = 0.2):
        if not 0.0 < gain <= 1.0:
            raise ValueError("gain must be in (0, 1], got %r" % gain)
        self._gain = gain
        #: Current estimate, or None before any observation.
        self.value: Optional[float] = None
        self._count = 0

    @property
    def count(self) -> int:
        """Number of samples observed."""
        return self._count

    def observe(self, sample: float) -> float:
        """Fold in a sample and return the updated estimate."""
        if self.value is None:
            self.value = float(sample)
        else:
            self.value += self._gain * (sample - self.value)
        self._count += 1
        return self.value

    def reset(self) -> None:
        """Forget all state."""
        self.value = None
        self._count = 0


class TimeDecayEwma:
    """EWMA whose decay depends on elapsed time, not sample count.

    The estimate decays toward each new sample with weight
    ``1 - exp(-dt / tau)``: two backends sampled at different rates decay
    at the same wall-clock speed.  ``tau`` is the time constant in the
    same units as the timestamps (nanoseconds everywhere in this project).
    The estimator reads ``value`` on every ranking pass, so it is a plain
    slotted attribute, not a property.
    """

    __slots__ = ("value", "_tau", "_last_time", "_count")

    def __init__(self, tau: int):
        if tau <= 0:
            raise ValueError("tau must be positive, got %r" % tau)
        self._tau = tau
        #: Current estimate, or None before any observation.
        self.value: Optional[float] = None
        self._last_time: Optional[int] = None
        self._count = 0

    @property
    def count(self) -> int:
        """Number of samples observed."""
        return self._count

    def observe(self, now: int, sample: float) -> float:
        """Fold in ``sample`` observed at time ``now``; returns estimate."""
        if self.value is None or self._last_time is None:
            self.value = float(sample)
        else:
            dt = max(0, now - self._last_time)
            weight = 1.0 - math.exp(-dt / self._tau)
            self.value += weight * (sample - self.value)
        self._last_time = now
        self._count += 1
        return self.value

    def reset(self) -> None:
        """Forget all state."""
        self.value = None
        self._last_time = None
        self._count = 0
