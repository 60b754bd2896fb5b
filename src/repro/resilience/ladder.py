"""The controller degradation ladder: FEEDBACK → HOLD → FALLBACK.

The feedback loop has three postures, ordered by how much it trusts
its signal:

* ``FEEDBACK`` — every backend's signal is fresh; the α-shift
  controller runs normally.
* ``HOLD`` — at least one backend's signal is stale or starved.
  Weights freeze: shifting *away* from a silent backend is exactly the
  thundering-herd move the paper warns about, because the silence may
  mean "drained", not "slow".
* ``FALLBACK`` — signal quality collapsed pool-wide (too few backends
  with usable estimates to rank at all).  Weights relax to uniform and
  routing degrades to plain health-gated Maglev — the paper's baseline,
  which needs no latency signal to be correct.

Downgrades are immediate (a distrusted signal must stop driving
decisions *now*); upgrades require the better state to persist for
``reentry_hold`` so a flapping signal cannot pump the controller.
Every transition is recorded as a :class:`ModeTransition` telemetry
event and appended to ``mode_series`` for timeline plots.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.controllers.base import ShiftEvent
from repro.core.controller import AlphaShiftController
from repro.lb.backend import BackendPool
from repro.resilience.config import DegradationConfig
from repro.resilience.quality import SignalGrade, SignalQualityTracker
from repro.telemetry.timeseries import TimeSeries

import enum


class ControllerMode(enum.Enum):
    """Posture of the feedback controller."""

    FEEDBACK = "feedback"
    HOLD = "hold"
    FALLBACK = "fallback"


#: Severity ordering: higher means more degraded.
SEVERITY = {
    ControllerMode.FEEDBACK: 0,
    ControllerMode.HOLD: 1,
    ControllerMode.FALLBACK: 2,
}

# Bound once: a member read inside a function costs an
# ``EnumType.__getattr__`` call on CPython 3.11, and ``_target`` reads
# them per backend.
_FEEDBACK = ControllerMode.FEEDBACK
_HOLD = ControllerMode.HOLD
_FALLBACK = ControllerMode.FALLBACK
_FRESH = SignalGrade.FRESH
_INVALID = SignalGrade.INVALID


@dataclass
class ModeTransition:
    """Telemetry event: one ladder transition."""

    time: int
    from_mode: ControllerMode
    to_mode: ControllerMode
    reason: str
    #: Backend → grade name at the moment of transition.
    grades: Dict[str, str] = field(default_factory=dict)


class DegradationLadder:
    """Drives the controller's mode from per-backend signal quality.

    The ladder starts in ``HOLD``: until the loop has established a
    trustworthy signal on every backend, it has no business shifting
    weights.  ``evaluate(now)`` is called on every sample and on a
    periodic timer (starved signals produce no samples).
    """

    def __init__(
        self,
        pool: BackendPool,
        tracker: SignalQualityTracker,
        config: Optional[DegradationConfig] = None,
        controller: Optional[AlphaShiftController] = None,
    ):
        self.pool = pool
        self.tracker = tracker
        self.config = config or DegradationConfig()
        self.config.validate()
        self.controller = controller
        self.mode = _HOLD
        self.transitions: List[ModeTransition] = []
        #: (time, severity ordinal) — plots the ladder over time.
        self.mode_series = TimeSeries(name="controller_mode")
        self._candidate: Optional[ControllerMode] = None
        self._candidate_since = 0
        self._seeded = False

    def evaluate(self, now: int) -> ControllerMode:
        """Re-grade the pool and walk the ladder; returns the mode."""
        if not self._seeded:
            self.mode_series.append(now, float(SEVERITY[self.mode]))
            self._seeded = True
        target, reason, grades = self._target(now)
        current = self.mode
        if SEVERITY[target] > SEVERITY[current]:
            # Downgrade immediately: a distrusted signal must stop
            # driving decisions before the next sample lands.
            self._candidate = None
            self._transition(now, target, reason, grades)
        elif SEVERITY[target] < SEVERITY[current]:
            # Upgrade only after the better state persists (hysteresis).
            if self._candidate is not target:
                self._candidate = target
                self._candidate_since = now
            elif now - self._candidate_since >= self.config.reentry_hold:
                self._candidate = None
                self._transition(now, target, reason, grades)
        else:
            self._candidate = None
        return self.mode

    def entries(self, mode: ControllerMode) -> List[int]:
        """Times at which the ladder entered ``mode``."""
        return [t.time for t in self.transitions if t.to_mode is mode]

    # ------------------------------------------------------------------

    def _target(
        self, now: int
    ) -> Tuple[ControllerMode, str, Dict[str, str]]:
        names = self.pool.names()
        grades = {name: self.tracker.grade(name, now) for name in names}
        rendered = {name: grade.value for name, grade in grades.items()}
        if not names:
            return _FALLBACK, "empty pool", rendered
        usable = [n for n, g in grades.items() if g is not _INVALID]
        if len(usable) / len(names) <= self.config.fallback_fraction:
            reason = "signal collapse: %d/%d backends usable" % (
                len(usable),
                len(names),
            )
            return _FALLBACK, reason, rendered
        distrusted = sorted(
            n for n, g in grades.items() if g is not _FRESH
        )
        if distrusted:
            reason = "stale/starved signal on %s" % ", ".join(distrusted)
            return _HOLD, reason, rendered
        return (
            _FEEDBACK,
            "signal fresh on all %d backends" % len(names),
            rendered,
        )

    def _transition(
        self,
        now: int,
        to_mode: ControllerMode,
        reason: str,
        grades: Dict[str, str],
    ) -> None:
        from_mode = self.mode
        self.mode = to_mode
        self.transitions.append(
            ModeTransition(
                time=now,
                from_mode=from_mode,
                to_mode=to_mode,
                reason=reason,
                grades=grades,
            )
        )
        self.mode_series.append(now, float(SEVERITY[to_mode]))
        if to_mode is _FALLBACK:
            self._relax_to_uniform(now, reason)
        elif from_mode is _FALLBACK and self.controller is not None:
            # The next executed shift is the post-fallback rebalance —
            # tag it so reaction benches can tell it from a normal pass.
            self.controller.pending_reason = "post-fallback-rebalance"

    def _relax_to_uniform(self, now: int, reason: str) -> None:
        """Fallback posture: stop differentiating, let health gate.

        Weights return to uniform (preserving total), which reduces the
        routing plane to plain health-gated Maglev.  Recorded as a
        ``mode-change`` shift so weight timelines stay complete.
        """
        weights = self.pool.weights()
        if not weights:
            return
        total = sum(weights.values())
        uniform = {name: total / len(weights) for name in weights}
        self.pool.set_weights(uniform)
        if self.controller is not None:
            self.controller.updates.append(
                ShiftEvent(
                    time=now,
                    from_backend="*",
                    worst_estimate=0.0,
                    best_estimate=0.0,
                    weights_after=dict(uniform),
                    reason="mode-change",
                )
            )
