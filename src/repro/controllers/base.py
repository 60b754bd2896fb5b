"""The ``Controller`` protocol and shared control-law machinery.

Every control law in the zoo consumes the same signal plane — a
:class:`~repro.core.estimator.BackendLatencyEstimator` snapshot built
from in-band ``T_LB`` samples — and emits the same actuation: new pool
weights via ``pool.set_weights`` (which rebuilds the weighted Maglev
table).  The contract, formalized by :class:`Controller`:

* ``maybe_update(now) -> Optional[ShiftEvent]`` — evaluate once; return
  the executed update or None (rate-limited, no data, held).
* ``updates`` — the list of executed :class:`ShiftEvent` records, each
  carrying ``time``, ``weights_after`` and ``reason`` (obs + tracing +
  churn accounting).
* ``stale_holds`` — updates refused because a consulted estimate was
  graded stale (resilience plane attached).

Both only grow, and the obs plane counts shifts and holds from them;
a controller carries no instrument of its own.

:class:`BaseController` implements the boilerplate half of that
contract (rate limit, snapshot, stale gating, floor renormalization,
update recording); concrete laws supply only ``_compute``.  The
paper's own α-shift rule (:mod:`repro.core.controller`) fills in the
worst-versus-best fields of the same record.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Dict,
    List,
    Optional,
    Protocol,
    Sequence,
    runtime_checkable,
)

from repro.errors import ConfigError

# Type-only: repro.core.controller imports ShiftEvent from this module,
# so importing repro.core here at runtime would be circular.
if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from repro.core.estimator import BackendEstimate, BackendLatencyEstimator
    from repro.lb.backend import BackendPool


@dataclass
class ShiftEvent:
    """Record of one executed weight update, whichever law made it."""

    time: int
    #: The demoted backend: the α rule's worst, ``"*"`` for the
    #: resilience ladder's uniform relax, None for a zoo recompute
    #: (which moves the whole pool).
    from_backend: Optional[str] = None
    #: The α rule's worst and best latency estimates (None for a zoo
    #: recompute, which ranks nothing).
    worst_estimate: Optional[float] = None
    best_estimate: Optional[float] = None
    weights_after: Dict[str, float] = field(default_factory=dict)
    #: Why the update fired: ``"hysteresis-pass"`` (the α rule),
    #: ``"post-fallback-rebalance"`` (first α shift after the resilience
    #: ladder left FALLBACK), ``"mode-change"`` (the ladder's own
    #: uniform relax on FALLBACK entry) or ``"recompute"`` (a zoo law).
    reason: str = "hysteresis-pass"
    #: The best-ranked backend the α rule compared against (None when
    #: nothing was ranked).  Lets causal tracing recover both sides of
    #: the worst-vs-best comparison.
    best_backend: Optional[str] = None


@runtime_checkable
class Controller(Protocol):
    """Structural type every registered control law satisfies."""

    pool: BackendPool
    estimator: BackendLatencyEstimator
    stale_holds: int

    updates: List[ShiftEvent]

    def maybe_update(self, now: int) -> Optional[ShiftEvent]:
        """Evaluate once at ``now``; return the executed event or None."""
        ...  # pragma: no cover - protocol body


def renormalize_with_floor(
    weights: Dict[str, float], total: float, floor: float
) -> Dict[str, float]:
    """Scale ``weights`` to sum to ``total`` with every entry >= floor.

    Floored entries are pinned; the remainder is distributed over the
    others proportionally.  This conserves the pool's total weight
    exactly (no per-step leakage), which keeps long-running controllers
    stable.
    """
    result = {name: max(0.0, value) for name, value in weights.items()}
    if floor * len(result) >= total:
        # Degenerate: the floors alone exhaust the budget; split evenly.
        return {name: total / len(result) for name in result}
    pinned: Dict[str, float] = {}
    for _ in range(len(result)):
        free = {n: v for n, v in result.items() if n not in pinned}
        budget = total - floor * len(pinned)
        free_sum = sum(free.values())
        # Vanishing weights (incl. subnormals) would overflow the scale
        # factor; treat them as zero and split the budget evenly.
        if free_sum <= total * 1e-12:
            share = budget / len(free)
            for name in free:
                result[name] = share
            break
        scale = budget / free_sum
        newly_pinned = False
        for name, value in free.items():
            scaled = value * scale
            if scaled < floor:
                pinned[name] = floor
                result[name] = floor
                newly_pinned = True
            else:
                result[name] = scaled
        if not newly_pinned:
            break
    return result


def total_weight_movement(
    updates: Sequence, initial_weights: Dict[str, float]
) -> float:
    """Total weight mass moved across ``updates`` (shift churn).

    Each step contributes half the L1 distance between consecutive
    weight vectors — i.e. the mass that actually changed backends.
    Missing names (pool churn) count as moving from/to zero.
    """
    churn = 0.0
    before = dict(initial_weights)
    for update in updates:
        after = update.weights_after
        names = set(before) | set(after)
        churn += 0.5 * sum(
            abs(after.get(n, 0.0) - before.get(n, 0.0)) for n in names
        )
        before = dict(after)
    return churn


class BaseController:
    """Boilerplate half of the :class:`Controller` contract.

    Subclasses implement ``_compute(now, estimates, current)`` returning
    the next weight dict (pre-floor) or None to decline.  The base
    handles rate limiting, snapshotting, stale gating (any consulted
    estimate graded stale refuses the update — shifting on a distrusted
    signal is the thundering-herd move the paper warns about), floor
    renormalization preserving the pool total, and update recording.
    """

    #: Registered name, set by the registry decorator (for metrics).
    name = "base"

    def __init__(
        self,
        pool: BackendPool,
        estimator: BackendLatencyEstimator,
        weight_floor: float,
        min_interval: int,
    ):
        self.pool = pool
        self.estimator = estimator
        self.weight_floor = weight_floor
        self.min_interval = min_interval
        self.updates: List[ShiftEvent] = []
        self.stale_holds = 0
        self._last_update: Optional[int] = None

    def maybe_update(self, now: int) -> Optional[ShiftEvent]:
        """Evaluate one control step if the rate limit allows."""
        if (
            self._last_update is not None
            and now - self._last_update < self.min_interval
        ):
            return None
        estimates = self.estimator.snapshot(now)
        if len(estimates) < 2:
            return None
        if any(e.stale for e in estimates):
            self.stale_holds += 1
            return None
        current = self.pool.weights()
        new_weights = self._compute(now, estimates, current)
        if new_weights is None:
            return None
        total = sum(current.values())
        new_weights = renormalize_with_floor(
            new_weights, total, self.weight_floor * total
        )
        self.pool.set_weights(new_weights)
        update = ShiftEvent(
            time=now, weights_after=dict(new_weights), reason="recompute"
        )
        self.updates.append(update)
        self._last_update = now
        return update

    def _compute(
        self,
        now: int,
        estimates: List[BackendEstimate],
        current: Dict[str, float],
    ) -> Optional[Dict[str, float]]:
        raise NotImplementedError


def require_positive_floor_interval(
    weight_floor: float, min_interval: int
) -> None:
    """Shared validation for the common pair of tunables."""
    if not 0.0 <= weight_floor < 0.5:
        raise ConfigError("weight_floor must be in [0, 0.5)")
    if min_interval < 0:
        raise ConfigError("min_interval must be >= 0")
