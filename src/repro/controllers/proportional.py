"""Proportional control: weights ∝ (1/latency)^power.

Smooth, stateless in the control sense, and a natural gradient-free
baseline: a backend twice as slow gets half the traffic (power = 1).
One of the paper's open-question-#4 alternatives.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional

from repro.controllers.base import (
    BaseController,
    require_positive_floor_interval,
)
from repro.controllers.registry import register
from repro.errors import ConfigError
from repro.units import MILLISECONDS

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from repro.core.estimator import BackendEstimate, BackendLatencyEstimator
    from repro.lb.backend import BackendPool


@dataclass
class ProportionalConfig:
    """Tunables for :class:`ProportionalController`."""

    power: float = 1.0
    weight_floor: float = 0.02
    min_interval: int = 5 * MILLISECONDS

    def validate(self) -> None:
        """Raise ConfigError on malformed values."""
        if self.power <= 0:
            raise ConfigError("power must be positive")
        require_positive_floor_interval(self.weight_floor, self.min_interval)


class ProportionalController(BaseController):
    """Set weights proportional to ``(1/latency)^power``.

    Preserves the pool's total weight; every backend keeps at least the
    floor share so its estimate stays fresh.
    """

    name = "proportional"

    def __init__(
        self,
        pool: BackendPool,
        estimator: BackendLatencyEstimator,
        config: Optional[ProportionalConfig] = None,
    ):
        self.config = config or ProportionalConfig()
        self.config.validate()
        super().__init__(
            pool,
            estimator,
            weight_floor=self.config.weight_floor,
            min_interval=self.config.min_interval,
        )

    def _compute(
        self,
        now: int,
        estimates: List[BackendEstimate],
        current: Dict[str, float],
    ) -> Optional[Dict[str, float]]:
        values = {e.backend: e.value for e in estimates if e.value > 0}
        if len(values) < 2 or not set(values) <= set(current):
            return None
        total = sum(current.values())
        raw = {
            name: (1.0 / value) ** self.config.power
            for name, value in values.items()
        }
        # Backends without an estimate keep their current share.
        without = {n: w for n, w in current.items() if n not in raw}
        budget = total - sum(without.values())
        raw_total = sum(raw.values())
        new_weights = dict(without)
        for name, share in raw.items():
            new_weights[name] = budget * share / raw_total
        return new_weights


@register(
    "proportional",
    summary="weights proportional to (1/latency)^power",
    provenance="paper open question #4 (§5)",
)
def _make_proportional(pool, estimator, config):
    return ProportionalController(pool, estimator, config.proportional)
