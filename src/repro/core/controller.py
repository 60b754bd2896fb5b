"""The paper's load-balancing control strategy (§3, "Simple load
balancing strategy").

    "Inspired by gradient-based methods used in traffic engineering, we
    use a simple load-balancing strategy that redistributes a fixed
    fraction α of total traffic from the server with the highest latency
    (as measured by ENSEMBLETIMEOUT) equally over all other servers.  We
    use α = 10%.  The traffic shift may occur every time the LB receives
    a new sample of response latency."

Traffic shares are backend weights (driving the weighted Maglev table).
Beyond the verbatim rule, the controller exposes guard rails the paper's
open questions motivate, all configurable and all defaulting to
paper-faithful or near-inert values:

* ``weight_floor`` — a backend's weight never drops below this, so it
  keeps receiving probe traffic; without residual flow the LB could
  never observe the backend recovering.  (Necessary for any closed-loop
  operation; the paper's 2-server/α=10% setup implicitly had it since
  shifts stop mattering once the slow server still gets *some* flows.)
* ``min_interval`` — minimum time between shifts (0 = per-sample, the
  paper's cadence).
* ``hysteresis_ratio`` — only shift when worst ≥ ratio × best.
  1.0 is the paper-verbatim rule (always shift), but in a closed-loop
  queueing system that rule is unstable: latency noise triggers shifts
  every sample and weights random-walk into the floor.  The default of
  1.2 keeps the controller quiet within noise and still fires orders of
  magnitude below the 1 ms / ~3× inflation of the Fig 3 stimulus.  The
  ABL-HYST bench demonstrates the collapse at 1.0.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.controllers.base import ShiftEvent
from repro.core.estimator import BackendLatencyEstimator
from repro.errors import ConfigError
from repro.lb.backend import BackendPool


@dataclass
class ControllerConfig:
    """α-shift controller tunables (defaults follow the paper)."""

    alpha: float = 0.10
    weight_floor: float = 0.02
    min_interval: int = 0
    hysteresis_ratio: float = 1.2

    def validate(self) -> None:
        """Raise ConfigError on malformed parameters."""
        if not 0.0 < self.alpha < 1.0:
            raise ConfigError("alpha must be in (0, 1), got %r" % self.alpha)
        if not 0.0 <= self.weight_floor < 1.0:
            raise ConfigError("weight_floor must be in [0, 1)")
        if self.min_interval < 0:
            raise ConfigError("min_interval must be >= 0")
        if self.hysteresis_ratio < 1.0:
            raise ConfigError("hysteresis_ratio must be >= 1.0")


class AlphaShiftController:
    """Moves weight away from the highest-latency backend.

    ``maybe_update(now)`` is called by the feedback loop whenever a new
    ``T_LB`` sample lands; it consults the estimator and, if a shift is
    warranted, updates the pool's weights (which triggers the Maglev
    rebuild via the pool's change listener).
    """

    def __init__(
        self,
        pool: BackendPool,
        estimator: BackendLatencyEstimator,
        config: Optional[ControllerConfig] = None,
    ):
        self.pool = pool
        self.estimator = estimator
        self.config = config or ControllerConfig()
        self.config.validate()
        self.updates: List[ShiftEvent] = []
        self._last_shift_at: Optional[int] = None
        #: Set by the resilience ladder: tags the next executed shift.
        self.pending_reason: Optional[str] = None
        #: Shifts refused because a consulted estimate was stale.
        self.stale_holds = 0

    def maybe_update(self, now: int) -> Optional[ShiftEvent]:
        """Evaluate and possibly execute one α-shift; returns the event."""
        config = self.config
        if (
            self._last_shift_at is not None
            and now - self._last_shift_at < config.min_interval
        ):
            return None

        ranked = self.estimator.worst_and_best(now)
        if ranked is None:
            return None
        worst, best = ranked
        if worst.stale or best.stale:
            # Never shift on a signal you don't trust: a stale estimate
            # may describe a backend that has since drained or died.
            self.stale_holds += 1
            return None
        if worst.value < config.hysteresis_ratio * best.value:
            return None
        if worst.value <= best.value:
            return None  # nothing to gain (all equal)

        weights = self.pool.weights()
        if worst.backend not in weights or len(weights) < 2:
            return None

        new_weights = self._shift_weights(weights, worst.backend)
        if new_weights is None:
            return None

        self.pool.set_weights(new_weights)
        reason = self.pending_reason or "hysteresis-pass"
        self.pending_reason = None
        event = ShiftEvent(
            time=now,
            from_backend=worst.backend,
            worst_estimate=worst.value,
            best_estimate=best.value,
            weights_after=dict(new_weights),
            reason=reason,
            best_backend=best.backend,
        )
        self.updates.append(event)
        self._last_shift_at = now
        return event

    def _shift_weights(
        self, weights: Dict[str, float], worst: str
    ) -> Optional[Dict[str, float]]:
        """α of *total* weight moves off ``worst``, split equally."""
        total = sum(weights.values())
        if total <= 0:
            return None
        shift = self.config.alpha * total
        floor = self.config.weight_floor * total
        available = weights[worst] - floor
        if available <= 0:
            return None  # already at the floor
        shift = min(shift, available)

        others = [name for name in weights if name != worst]
        share = shift / len(others)
        new_weights = dict(weights)
        new_weights[worst] -= shift
        for name in others:
            new_weights[name] += share
        return new_weights
