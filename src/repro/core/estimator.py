"""Per-backend latency estimation from per-flow ``T_LB`` samples.

Flows measured by ENSEMBLETIMEOUT are pinned to backends (conntrack),
so each sample can be attributed to the backend serving that flow.  The
estimator maintains, per backend, the one statistic ``metric`` names:

* ``"ewma"`` — a time-decaying EWMA (robust to uneven per-backend sample
  rates), or
* ``"p95"`` / ``"p50"`` — an exact quantile over a sliding window (p95
  matches the paper's tail-latency focus).

The controller asks for a ranking by that statistic.  Backends with
fewer than ``min_samples`` samples are excluded from ranking decisions —
shifting traffic based on one noisy sample is how thundering herds start
(paper §5, question 4).

Built with a :class:`~repro.resilience.quality.SignalQualityTracker`
(``BackendLatencyEstimator(config, quality=tracker)``), the estimator
also grades what it serves: ranking calls that pass ``now``
exclude backends whose signal has been invalidated and flag estimates
that have gone stale, so downstream consumers can refuse to act on a
signal they don't trust.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.errors import ConfigError
from repro.telemetry.ewma import TimeDecayEwma
from repro.telemetry.quantiles import WindowedQuantile
from repro.units import MILLISECONDS

if TYPE_CHECKING:  # pragma: no cover - type-only (resilience imports core)
    from repro.resilience.quality import SignalQualityTracker


#: Window quantile each ``metric`` ranks by (``"ewma"`` keeps no window).
_QUANTILES = {"ewma": None, "p95": 0.95, "p50": 0.50}


@dataclass
class EstimatorConfig:
    """Estimator tunables."""

    metric: str = "ewma"            # "ewma" | "p95" | "p50"
    window: int = 64                # samples kept per backend (p95/p50)
    tau: int = 10 * MILLISECONDS    # EWMA time constant (ewma)
    min_samples: int = 3            # samples needed before ranking

    def validate(self) -> None:
        """Raise ConfigError on malformed parameters."""
        if self.metric not in _QUANTILES:
            raise ConfigError("unknown metric %r" % self.metric)
        if self.window <= 0 or self.tau <= 0 or self.min_samples <= 0:
            raise ConfigError("estimator parameters must be positive")


@dataclass
class BackendEstimate:
    """Snapshot of one backend's estimated latency."""

    backend: str
    value: float
    samples: int
    last_sample_at: int
    #: True when the quality tracker graded the signal stale
    #: (set only by ranking calls that pass ``now``).
    stale: bool = False


class _BackendState:
    __slots__ = ("stat", "samples", "last_sample_at")

    def __init__(self, stat):
        #: TimeDecayEwma or WindowedQuantile, whichever ``metric`` reads.
        self.stat = stat
        self.samples = 0
        self.last_sample_at = 0


class BackendLatencyEstimator:
    """Aggregates ``T_LB`` samples into per-backend latency estimates.

    ``config.metric`` is read once, at construction: it decides which
    statistic each backend keeps.  ``quality``, when given, grades the
    estimates served and is fed on every observe.
    """

    def __init__(
        self,
        config: Optional[EstimatorConfig] = None,
        quality: Optional["SignalQualityTracker"] = None,
    ):
        self.config = config or EstimatorConfig()
        self.config.validate()
        self._quantile: Optional[float] = _QUANTILES[self.config.metric]
        self._backends: Dict[str, _BackendState] = {}
        #: (name, state) pairs in name order; None after the set of
        #: names changed.
        self._order: Optional[List[Tuple[str, _BackendState]]] = None
        self.total_samples = 0
        self._quality = quality
        self._fresh = self._invalid = None  # SignalGrade members, with quality
        if quality is not None:
            # Bound here, once, not per ranking call: resilience imports
            # core, so the grades cannot be imported when this module loads.
            from repro.resilience.quality import SignalGrade

            self._fresh = SignalGrade.FRESH
            self._invalid = SignalGrade.INVALID

    def observe(self, backend: str, now: int, t_lb: int) -> None:
        """Attribute one ``T_LB`` sample (ns) to ``backend``."""
        if t_lb < 0:
            raise ValueError("negative latency sample: %d" % t_lb)
        state = self._backends.get(backend)
        if state is None:
            if self._quantile is None:
                stat = TimeDecayEwma(tau=self.config.tau)
            else:
                stat = WindowedQuantile(window=self.config.window)
            state = self._backends[backend] = _BackendState(stat)
            self._order = None
        value = float(t_lb)
        if self._quantile is None:
            state.stat.observe(now, value)
        else:
            state.stat.observe(value)
        state.samples += 1
        state.last_sample_at = now
        self.total_samples += 1
        if self._quality is not None:
            self._quality.observe(backend, now, value)

    def estimate(self, backend: str) -> Optional[float]:
        """Current estimate for ``backend`` (ns), or None if unknown."""
        state = self._backends.get(backend)
        if state is None:
            return None
        if self._quantile is None:
            return state.stat.value
        return state.stat.quantile(self._quantile)

    def sample_counts(self) -> Dict[str, int]:
        """Samples folded in per backend so far (pure read, sorted)."""
        return {name: s.samples for name, s in sorted(self._backends.items())}

    def snapshot(self, now: Optional[int] = None) -> List[BackendEstimate]:
        """Estimates for all backends meeting ``min_samples``.

        With a quality tracker and ``now`` given, backends
        whose signal has been invalidated are excluded and estimates
        with a stale signal carry ``stale=True``.
        """
        estimates: List[BackendEstimate] = []
        self._walk(now, estimates)
        return estimates

    def worst_and_best(self, now: Optional[int] = None) -> Optional[tuple]:
        """(worst, best) :class:`BackendEstimate` pair, or None if < 2.

        The pair a stable sort of :meth:`snapshot` by value would end
        and start with: among equal maxima the last name is worst, among
        equal minima the first name is best.
        """
        return self._walk(now, None)

    def _walk(
        self, now: Optional[int], collect: Optional[List[BackendEstimate]]
    ) -> Optional[tuple]:
        """The one pass over rankable backends, in name order.

        Appends every estimate to ``collect`` when given; otherwise
        compares raw values and builds only the two estimates returned.
        The controller runs this on every sample, hence no per-backend
        allocation and no sort.
        """
        order = self._order
        if order is None:
            order = self._order = sorted(self._backends.items())
        min_samples = self.config.min_samples
        quantile = self._quantile
        grade = fresh = invalid = None
        if self._quality is not None and now is not None:
            grade = self._quality.grade
            fresh = self._fresh
            invalid = self._invalid
        stale = False
        worst = best = None  # names
        worst_value = best_value = 0.0
        worst_stale = best_stale = False
        for name, state in order:
            if state.samples < min_samples:
                continue
            if grade is not None:
                graded = grade(name, now)
                if graded is invalid:
                    continue
                stale = graded is not fresh
            if quantile is None:
                value = state.stat.value
            else:
                value = state.stat.quantile(quantile)
            if collect is not None:
                collect.append(self._estimate(name, value, stale))
                continue
            if worst is None or value >= worst_value:
                worst, worst_value, worst_stale = name, value, stale
            if best is None or value < best_value:
                best, best_value, best_stale = name, value, stale
        if worst == best:  # nothing ranked, or a single backend
            return None
        return (
            self._estimate(worst, worst_value, worst_stale),
            self._estimate(best, best_value, best_stale),
        )

    def _estimate(self, name: str, value: float, stale: bool) -> BackendEstimate:
        state = self._backends[name]
        return BackendEstimate(
            name, value, state.samples, state.last_sample_at, stale
        )

    def forget(self, backend: str) -> None:
        """Drop a backend's state (pool churn)."""
        if self._backends.pop(backend, None) is not None:
            self._order = None
        if self._quality is not None:
            self._quality.forget(backend)
