"""Per-backend signal-quality tracking.

The estimator tells the controller *what* a backend's latency looks
like; this module tells it *whether that number can be trusted*.  Each
backend's ``T_LB`` sample stream is graded by age and volume:

* ``FRESH``   — recent samples at a usable rate; act on the estimate.
* ``STALE``   — the last sample is older than ``stale_after`` (or the
  backend never produced ``min_samples``); the estimate still describes
  *something*, but confidence is decaying — hold, don't shift.
* ``INVALID`` — older than ``invalid_after``; the estimate describes a
  backend state that no longer exists.  Exclude it from ranking
  entirely.

Staleness is the interesting failure mode because it is *silent*: a
crashed or drained backend produces no packets, so the measurement
plane sees nothing — no error, no timeout, just an estimate that stops
moving.  Grading by sample age converts that silence into an explicit,
inspectable state.

The tracker also keeps windowed rate and dispersion metrics.  These do
not drive the grade (age is the load-bearing signal and the least
flappy); they feed reports and benches so a human can see *why* a
signal was distrusted.
"""

from __future__ import annotations

import enum
import math
from array import array
from bisect import bisect_left
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.resilience.config import SignalQualityConfig


class SignalGrade(enum.Enum):
    """Trust level of one backend's latency signal."""

    FRESH = "fresh"
    STALE = "stale"
    INVALID = "invalid"


# Bound once: a member read inside a function costs an
# ``EnumType.__getattr__`` call on CPython 3.11, and the ladder grades
# every backend per evaluation.
_FRESH = SignalGrade.FRESH
_STALE = SignalGrade.STALE
_INVALID = SignalGrade.INVALID


@dataclass
class SignalQuality:
    """Snapshot of one backend's signal quality at a point in time."""

    backend: str
    grade: SignalGrade
    age: int                 # ns since the last sample (or registration)
    samples: int             # lifetime sample count
    rate_hz: float           # samples/s over the sliding window
    dispersion: float        # coefficient of variation over the window
    confidence: float        # 1.0 fresh → 0.0 invalid
    last_sample_at: int


class _Signal:
    __slots__ = ("times", "values", "samples", "last_sample_at")

    def __init__(self, born_at: int):
        # The samples in the window, oldest first, as two typed columns.
        self.times = array("q")
        self.values = array("d")
        self.samples = 0
        # Registration anchors the age clock: a backend that has never
        # produced a sample ages from when it *should* have started,
        # not from t=0.
        self.last_sample_at = born_at


class SignalQualityTracker:
    """Grades every backend's ``T_LB`` stream by age, rate, dispersion."""

    def __init__(self, config: Optional[SignalQualityConfig] = None):
        self.config = config or SignalQualityConfig()
        self.config.validate()
        self._signals: Dict[str, _Signal] = {}

    def register(self, backend: str, now: int) -> None:
        """Start the age clock for a backend before its first sample."""
        if backend not in self._signals:
            self._signals[backend] = _Signal(now)

    def observe(self, backend: str, now: int, value: float) -> None:
        """Fold one ``T_LB`` sample into the backend's quality state."""
        signal = self._signals.get(backend)
        if signal is None:
            signal = _Signal(now)
            self._signals[backend] = signal
        signal.times.append(now)
        signal.values.append(value)
        signal.samples += 1
        signal.last_sample_at = now
        self._prune(signal, now)

    def forget(self, backend: str) -> None:
        """Drop a backend's state (pool churn)."""
        self._signals.pop(backend, None)

    def backends(self) -> List[str]:
        """Tracked backend names, sorted."""
        return sorted(self._signals)

    # ------------------------------------------------------------------

    def grade(self, backend: str, now: int) -> SignalGrade:
        """Trust level of ``backend``'s signal at time ``now``."""
        signal = self._signals.get(backend)
        if signal is None:
            return _INVALID
        age = now - signal.last_sample_at
        if age >= self.config.invalid_after:
            return _INVALID
        if age >= self.config.stale_after or signal.samples < self.config.min_samples:
            return _STALE
        return _FRESH

    def confidence(self, backend: str, now: int) -> float:
        """1.0 while fresh, exponentially decaying to 0.0 at invalid."""
        signal = self._signals.get(backend)
        if signal is None:
            return 0.0
        age = now - signal.last_sample_at
        if age >= self.config.invalid_after:
            return 0.0
        if age <= self.config.stale_after:
            return 1.0
        return math.exp(-(age - self.config.stale_after) / self.config.decay_tau)

    def quality(self, backend: str, now: int) -> SignalQuality:
        """Full quality snapshot for one backend."""
        signal = self._signals.get(backend)
        if signal is None:
            return SignalQuality(
                backend=backend,
                grade=_INVALID,
                age=now,
                samples=0,
                rate_hz=0.0,
                dispersion=0.0,
                confidence=0.0,
                last_sample_at=0,
            )
        self._prune(signal, now)
        values = signal.values
        rate = len(values) / (self.config.window / 1e9)
        return SignalQuality(
            backend=backend,
            grade=self.grade(backend, now),
            age=now - signal.last_sample_at,
            samples=signal.samples,
            rate_hz=rate,
            dispersion=_coefficient_of_variation(values),
            confidence=self.confidence(backend, now),
            last_sample_at=signal.last_sample_at,
        )

    def snapshot(self, now: int) -> Dict[str, SignalQuality]:
        """Quality snapshots for every tracked backend."""
        return {name: self.quality(name, now) for name in self.backends()}

    # ------------------------------------------------------------------

    def _prune(self, signal: _Signal, now: int) -> None:
        # Samples arrive in time order, so the expired ones are a prefix.
        stale = bisect_left(signal.times, now - self.config.window)
        if stale:
            del signal.times[:stale]
            del signal.values[:stale]


def _coefficient_of_variation(values: Sequence[float]) -> float:
    if len(values) < 2:
        return 0.0
    mean = sum(values) / len(values)
    if mean <= 0:
        return 0.0
    variance = sum((v - mean) ** 2 for v in values) / len(values)
    return math.sqrt(variance) / mean
