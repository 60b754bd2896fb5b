"""AIMD control: multiplicative decrease on slow backends, additive
recovery.

A backend whose estimate exceeds ``threshold ×`` the pool's best loses
``(1 − decrease)`` of its weight; all others gain an additive
``increase`` share.  The TCP-flavoured answer to the paper's open
question #4, trading convergence speed for stability.
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
class AimdConfig:
    """Tunables for :class:`AimdController`."""

    decrease: float = 0.7
    increase: float = 0.05
    threshold: float = 1.3
    weight_floor: float = 0.02
    min_interval: int = 5 * MILLISECONDS

    def validate(self) -> None:
        """Raise ConfigError on malformed values."""
        if not 0.0 < self.decrease < 1.0:
            raise ConfigError("decrease must be in (0, 1)")
        if self.increase <= 0:
            raise ConfigError("increase must be positive")
        if self.threshold < 1.0:
            raise ConfigError("threshold must be >= 1")
        require_positive_floor_interval(self.weight_floor, self.min_interval)


class AimdController(BaseController):
    """Multiplicative decrease on slow backends, additive recovery."""

    name = "aimd"

    def __init__(
        self,
        pool: BackendPool,
        estimator: BackendLatencyEstimator,
        config: Optional[AimdConfig] = None,
    ):
        self.config = config or AimdConfig()
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
        config = self.config
        values = {e.backend: e.value for e in estimates}
        best = min(values.values())
        if best <= 0:
            return None
        total = sum(current.values())
        new_weights = dict(current)
        changed = False
        for name, value in values.items():
            if name not in new_weights:
                continue
            if value > config.threshold * best:
                new_weights[name] *= config.decrease
                changed = True
            else:
                new_weights[name] += config.increase * total / len(current)
                changed = True
        if not changed:
            return None
        return new_weights


@register(
    "aimd",
    summary="multiplicative decrease on slow backends, additive recovery",
    provenance="paper open question #4 (§5); TCP congestion control",
)
def _make_aimd(pool, estimator, config):
    return AimdController(pool, estimator, config.aimd)
