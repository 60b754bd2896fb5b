"""Signal-integrity guardrails for the feedback loop — the resilience plane.

The paper's controller steers on a *passive, in-band* latency signal.
Under DSR that signal can silently starve (an idle backend emits no
causally-triggered packets), go stale, or be poisoned by loss — and a
controller that acts on an arbitrarily old estimate turns a partial
failure into a routing failure.  This package threads one invariant
through the stack: **never shift on a signal you don't trust**.

* :mod:`~repro.resilience.quality` — per-backend signal-quality
  tracking (sample age, rate, dispersion) with a staleness policy that
  decays confidence and eventually invalidates estimates.
* :mod:`~repro.resilience.ladder` — the controller degradation ladder
  ``FEEDBACK → HOLD → FALLBACK`` with hysteresis on re-entry; every
  mode transition is a telemetry event.
* :mod:`~repro.resilience.breaker` — per-backend circuit breakers
  (closed/open/half-open with recovery probing) gating the LB's
  new-flow routing.
* :mod:`~repro.resilience.retry` — the client-side retry plane:
  per-request deadlines, exponential backoff + jitter, and a
  token-bucket retry budget that bounds retry storms.
* :mod:`~repro.resilience.config` — :class:`ResilienceConfig`, the
  aggregate block scenarios carry (``ScenarioConfig.resilience``), and
  the quality, ladder and breaker tunables it holds.
"""

from repro._exports import lazy_exports

__all__ = [
    "SignalGrade",
    "SignalQuality",
    "SignalQualityConfig",
    "SignalQualityTracker",
    "ControllerMode",
    "DegradationConfig",
    "DegradationLadder",
    "ModeTransition",
    "BreakerState",
    "BreakerConfig",
    "BreakerTransition",
    "CircuitBreaker",
    "BreakerBoard",
    "RetryConfig",
    "RetryStats",
    "RetryBudget",
    "backoff_delay",
    "ResilienceConfig",
]

_EXPORTS = {
    "BreakerBoard": ".breaker",
    "BreakerState": ".breaker",
    "BreakerTransition": ".breaker",
    "CircuitBreaker": ".breaker",
    "BreakerConfig": ".config",
    "DegradationConfig": ".config",
    "ResilienceConfig": ".config",
    "SignalQualityConfig": ".config",
    "ControllerMode": ".ladder",
    "DegradationLadder": ".ladder",
    "ModeTransition": ".ladder",
    "SignalGrade": ".quality",
    "SignalQuality": ".quality",
    "SignalQualityTracker": ".quality",
    "RetryBudget": ".retry",
    "RetryConfig": ".retry",
    "RetryStats": ".retry",
    "backoff_delay": ".retry",
}

__getattr__, __dir__ = lazy_exports(__name__, globals(), _EXPORTS)
