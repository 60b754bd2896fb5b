"""Per-backend circuit breakers for the LB connection path.

A circuit breaker is the dataplane-local complement of the signal
ladder: where the ladder reasons about the *control* signal, breakers
reason about per-backend *failure evidence* (failed health probes,
invalidated signals) and stop offering new flows to a backend that
keeps failing, without waiting for the slower fall/rise health cycle.

Standard three-state machine:

* ``CLOSED`` — normal; consecutive failures are counted, and at
  ``failure_threshold`` the breaker opens.
* ``OPEN`` — new flows are diverted elsewhere.  After
  ``reset_timeout`` the breaker softens to half-open.
* ``HALF_OPEN`` — up to ``half_open_trials`` trial flows are admitted
  as recovery probes; that many successes close the breaker, any
  failure re-opens it.

The breaker *composes with* active health checks rather than replacing
them: probe outcomes feed the breaker
(:class:`repro.lb.health.HealthChecker` reports successes/failures),
and the feedback plane's passive samples count as successes — so a
backend that is up but dark to probes can still close its breaker
through real traffic evidence.

Time is passed in explicitly (integer ns); state changes that depend
only on elapsed time (OPEN → HALF_OPEN) happen lazily on the next
query, keeping the breaker free of timers and fully deterministic.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.resilience.config import BreakerConfig


class BreakerState(enum.Enum):
    """Circuit state."""

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"


# Bound once: a member read inside a function costs an
# ``EnumType.__getattr__`` call on CPython 3.11, and the LB polls a
# breaker per forwarded packet.
_CLOSED = BreakerState.CLOSED
_OPEN = BreakerState.OPEN
_HALF_OPEN = BreakerState.HALF_OPEN


@dataclass(frozen=True)
class BreakerTransition:
    """Telemetry event: one breaker state change."""

    time: int
    backend: str
    from_state: BreakerState
    to_state: BreakerState
    reason: str


class CircuitBreaker:
    """The state machine for one backend."""

    def __init__(
        self,
        backend: str,
        config: BreakerConfig,
        on_transition: Optional[Callable[[BreakerTransition], None]] = None,
    ):
        self.backend = backend
        self.config = config
        self.state = _CLOSED
        self._on_transition = on_transition
        self._consecutive_failures = 0
        self._opened_at = 0
        self._trial_admissions = 0
        self._trial_successes = 0

    def allow(self, now: int, admit: bool = True) -> bool:
        """Whether a new flow may go to this backend.

        ``admit=True`` consumes a trial slot when half-open; pass
        ``admit=False`` to test candidates without spending slots.
        """
        self._poll(now)
        if self.state is _CLOSED:
            return True
        if self.state is _OPEN:
            return False
        if self._trial_admissions >= self.config.half_open_trials:
            return False
        if admit:
            self._trial_admissions += 1
        return True

    def record_success(self, now: int) -> None:
        """Positive evidence: probe success or a live traffic sample."""
        self._poll(now)
        self._consecutive_failures = 0
        if self.state is _HALF_OPEN:
            self._trial_successes += 1
            if self._trial_successes >= self.config.half_open_trials:
                self._transition(
                    now,
                    _CLOSED,
                    "%d trial successes" % self._trial_successes,
                )

    def record_failure(self, now: int) -> None:
        """Negative evidence: probe failure or signal invalidation."""
        self._poll(now)
        if self.state is _HALF_OPEN:
            self._open(now, "trial failure")
            return
        if self.state is _CLOSED:
            self._consecutive_failures += 1
            if self._consecutive_failures >= self.config.failure_threshold:
                self._open(
                    now,
                    "%d consecutive failures" % self._consecutive_failures,
                )

    # ------------------------------------------------------------------

    def _poll(self, now: int) -> None:
        if (
            self.state is _OPEN
            and now - self._opened_at >= self.config.reset_timeout
        ):
            self._trial_admissions = 0
            self._trial_successes = 0
            self._transition(now, _HALF_OPEN, "reset timeout elapsed")

    def _open(self, now: int, reason: str) -> None:
        self._opened_at = now
        self._consecutive_failures = 0
        self._transition(now, _OPEN, reason)

    def _transition(self, now: int, to_state: BreakerState, reason: str) -> None:
        event = BreakerTransition(
            time=now,
            backend=self.backend,
            from_state=self.state,
            to_state=to_state,
            reason=reason,
        )
        self.state = to_state
        if self._on_transition is not None:
            self._on_transition(event)


class BreakerBoard:
    """All backends' breakers plus the shared transition log."""

    def __init__(self, config: Optional[BreakerConfig] = None):
        self.config = config or BreakerConfig()
        self.config.validate()
        self.transitions: List[BreakerTransition] = []
        self._breakers: Dict[str, CircuitBreaker] = {}

    def breaker(self, backend: str) -> CircuitBreaker:
        """The (lazily created) breaker for ``backend``."""
        breaker = self._breakers.get(backend)
        if breaker is None:
            breaker = CircuitBreaker(
                backend, self.config, self.transitions.append
            )
            self._breakers[backend] = breaker
        return breaker

    def allow(self, backend: str, now: int, admit: bool = True) -> bool:
        """Whether a new flow may go to ``backend``."""
        return self.breaker(backend).allow(now, admit=admit)

    def record_success(self, backend: str, now: int) -> None:
        """Feed positive evidence for ``backend``."""
        self.breaker(backend).record_success(now)

    def record_failure(self, backend: str, now: int) -> None:
        """Feed negative evidence for ``backend``."""
        self.breaker(backend).record_failure(now)

    def reset(self, backend: str) -> None:
        """Drop ``backend``'s breaker entirely (fleet reuse seam).

        A terminated backend's failure history must not carry over to a
        fresh instance launched under the same name; the next query
        lazily creates a pristine CLOSED breaker.
        """
        self._breakers.pop(backend, None)

    def state(self, backend: str) -> BreakerState:
        """Current state (CLOSED for backends never seen)."""
        breaker = self._breakers.get(backend)
        return breaker.state if breaker is not None else _CLOSED

    def is_open(self, backend: str, now: int) -> bool:
        """Whether ``backend`` currently refuses flows (polls time)."""
        breaker = self._breakers.get(backend)
        if breaker is None:
            return False
        breaker._poll(now)
        return breaker.state is _OPEN

    def states(self) -> Dict[str, BreakerState]:
        """Backend → state for every breaker instantiated so far."""
        return {name: b.state for name, b in sorted(self._breakers.items())}

    def open_backends(self) -> List[str]:
        """Backends currently refusing new flows (open breakers)."""
        return sorted(
            name
            for name, b in self._breakers.items()
            if b.state is _OPEN
        )
