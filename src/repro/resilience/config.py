"""The aggregate resilience block scenarios carry, and its sub-blocks.

``ScenarioConfig.resilience`` holds one :class:`ResilienceConfig`;
``enabled=False`` (the default) makes the whole plane structurally
absent — no tracker, no ladder, no breakers, no retry timers — so
existing scenarios run byte-identically.

The signal-quality, ladder and breaker tunables are defined here, not
beside the machinery they tune, so building a scenario with the plane
off imports none of that machinery.  :mod:`~repro.resilience.quality`,
:mod:`~repro.resilience.ladder` and :mod:`~repro.resilience.breaker`
re-export them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from repro.resilience.retry import RetryConfig
from repro.units import MILLISECONDS

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (lb → resilience)
    from repro.lb.health import HealthCheckConfig


@dataclass
class SignalQualityConfig:
    """Staleness policy tunables.

    Defaults are sized for the reproduction's traffic rates (hundreds
    of samples per backend per second): a healthy backend refreshes its
    signal every few ms, so 50 ms of silence is already anomalous and
    200 ms means the estimate describes a dead regime.
    """

    #: Sliding window over which rate/dispersion are computed.
    window: int = 100 * MILLISECONDS
    #: Sample age beyond which the signal is stale (hold, don't shift).
    stale_after: int = 50 * MILLISECONDS
    #: Sample age beyond which the estimate is unusable.
    invalid_after: int = 200 * MILLISECONDS
    #: Confidence decay constant once past ``stale_after``.
    decay_tau: int = 100 * MILLISECONDS
    #: A backend that never produced this many samples is not yet fresh.
    min_samples: int = 3

    def validate(self) -> None:
        """Raise ValueError on malformed parameters."""
        if min(self.window, self.stale_after, self.decay_tau) <= 0:
            raise ValueError("signal-quality durations must be positive")
        if self.invalid_after <= self.stale_after:
            raise ValueError("invalid_after must exceed stale_after")
        if self.min_samples < 1:
            raise ValueError("min_samples must be >= 1")


@dataclass
class DegradationConfig:
    """Ladder tunables."""

    #: Enter FALLBACK when the usable (non-invalid) fraction of the
    #: pool drops to this or below.  0.5 means: once half the pool is
    #: unrankable, give up on differentiating and go uniform.
    fallback_fraction: float = 0.5
    #: A better mode must persist this long before the ladder upgrades.
    reentry_hold: int = 100 * MILLISECONDS
    #: Period of the starvation check (signal loss produces no packets,
    #: so the ladder cannot rely on sample-driven evaluation alone).
    check_interval: int = 10 * MILLISECONDS
    #: Minimum gap between *sample-driven* ladder evaluations.  Each
    #: evaluation grades the whole pool, so at 1000 backends the default
    #: evaluate-per-sample becomes quadratic in fleet size; large-fleet
    #: scenarios set a gap and lean on the periodic check.  0 keeps the
    #: original per-sample behaviour.
    min_evaluate_gap: int = 0

    def validate(self) -> None:
        """Raise ValueError on malformed parameters."""
        if not 0.0 <= self.fallback_fraction < 1.0:
            raise ValueError("fallback_fraction must be in [0, 1)")
        if self.reentry_hold < 0:
            raise ValueError("reentry_hold must be >= 0")
        if self.check_interval <= 0:
            raise ValueError("check_interval must be positive")
        if self.min_evaluate_gap < 0:
            raise ValueError("min_evaluate_gap must be >= 0")


@dataclass
class BreakerConfig:
    """Breaker tunables (Envoy-flavoured defaults, scaled to sim time)."""

    #: Consecutive failures that trip a closed breaker.
    failure_threshold: int = 3
    #: Time an open breaker waits before probing recovery.
    reset_timeout: int = 200 * MILLISECONDS
    #: Trial flows admitted (and successes required) while half-open.
    half_open_trials: int = 2

    def validate(self) -> None:
        """Raise ValueError on malformed parameters."""
        if self.failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        if self.reset_timeout <= 0:
            raise ValueError("reset_timeout must be positive")
        if self.half_open_trials < 1:
            raise ValueError("half_open_trials must be >= 1")


@dataclass
class ResilienceConfig:
    """Everything the resilience plane needs, in one block."""

    enabled: bool = False
    signal: SignalQualityConfig = field(default_factory=SignalQualityConfig)
    ladder: DegradationConfig = field(default_factory=DegradationConfig)
    breaker: BreakerConfig = field(default_factory=BreakerConfig)
    retry: RetryConfig = field(default_factory=RetryConfig)
    #: Run an active health checker from a prober host colocated with
    #: the LB; its probe outcomes feed the circuit breakers.
    health_checks: bool = False
    #: Prober tunables; None means :class:`~repro.lb.health.HealthCheckConfig`
    #: defaults (declared lazily to keep this package free of lb imports).
    health: Optional["HealthCheckConfig"] = None

    def validate(self) -> None:
        """Raise on malformed sub-blocks."""
        self.signal.validate()
        self.ladder.validate()
        self.breaker.validate()
        self.retry.validate()
        if self.health is not None:
            self.health.validate()
