"""The backend lifecycle state machine.

Every fleet backend moves through::

    PROVISIONING → WARMING → IN_SERVICE → DRAINING → TERMINATED

with two extra legal edges: PROVISIONING → TERMINATED (a scale-in
decision cancels a not-yet-booted instance — nothing to drain) and
WARMING → DRAINING (a ramping backend can be drained early).  A
TERMINATED name may be relaunched (→ PROVISIONING): the fleet reuses
backend names, which is exactly why the measurement plane exposes
reset seams (see ``InbandFeedback.on_backend_added``).

The machine is pure bookkeeping — it never touches the pool or the
simulator.  The :class:`~repro.fleet.autoscaler.AutoscalingGroup`
drives transitions; every one lands in the append-only ``events`` log,
which the obs plane counts at read time (the initial pool's edges
included) without the fleet importing :mod:`repro.obs`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.errors import FleetError


class BackendState(enum.Enum):
    """Where a fleet backend is in its life."""

    PROVISIONING = "provisioning"
    WARMING = "warming"
    IN_SERVICE = "in_service"
    DRAINING = "draining"
    TERMINATED = "terminated"


#: States that count toward fleet capacity (a PROVISIONING instance is
#: capacity already paid for; a DRAINING one is on its way out).
CAPACITY_STATES = (
    BackendState.PROVISIONING,
    BackendState.WARMING,
    BackendState.IN_SERVICE,
)

_LEGAL: Dict[Optional[BackendState], tuple] = {
    # A name never seen (or terminated) can launch; seeding the initial
    # pool jumps straight to IN_SERVICE.
    None: (BackendState.PROVISIONING, BackendState.IN_SERVICE),
    BackendState.PROVISIONING: (
        BackendState.WARMING,
        BackendState.TERMINATED,  # cancelled before boot
    ),
    BackendState.WARMING: (
        BackendState.IN_SERVICE,
        BackendState.DRAINING,  # drained mid-ramp
    ),
    BackendState.IN_SERVICE: (BackendState.DRAINING,),
    BackendState.DRAINING: (BackendState.TERMINATED,),
    BackendState.TERMINATED: (BackendState.PROVISIONING,),  # name reuse
}


@dataclass
class LifecycleEvent:
    """Telemetry record: one backend's transition."""

    time: int
    backend: str
    from_state: Optional[BackendState]
    to_state: BackendState
    reason: str = ""


@dataclass
class FleetLifecycle:
    """All backends' states plus the shared transition log."""

    states: Dict[str, BackendState] = field(default_factory=dict)
    events: List[LifecycleEvent] = field(default_factory=list)

    def state(self, name: str) -> Optional[BackendState]:
        """Current state of ``name`` (None if never launched)."""
        return self.states.get(name)

    def transition(
        self, now: int, name: str, to_state: BackendState, reason: str = ""
    ) -> LifecycleEvent:
        """Move ``name`` to ``to_state``; illegal edges raise FleetError."""
        from_state = self.states.get(name)
        if to_state not in _LEGAL[from_state]:
            raise FleetError(
                "illegal lifecycle transition %s: %s -> %s"
                % (
                    name,
                    from_state.value if from_state else "(new)",
                    to_state.value,
                )
            )
        self.states[name] = to_state
        event = LifecycleEvent(
            time=now,
            backend=name,
            from_state=from_state,
            to_state=to_state,
            reason=reason,
        )
        self.events.append(event)
        return event

    def in_state(self, *states: BackendState) -> List[str]:
        """Backend names currently in any of ``states`` (sorted)."""
        wanted = set(states)
        return sorted(n for n, s in self.states.items() if s in wanted)

    def count(self, *states: BackendState) -> int:
        """How many backends are in any of ``states``."""
        wanted = set(states)
        return sum(1 for s in self.states.values() if s in wanted)

    def capacity(self) -> int:
        """Backends that count as fleet capacity (see CAPACITY_STATES)."""
        return self.count(*CAPACITY_STATES)

    def transition_counts(self) -> Dict[str, int]:
        """``"from->to"`` → occurrences, for reports and metrics."""
        counts: Dict[str, int] = {}
        for event in self.events:
            key = "%s->%s" % (
                event.from_state.value if event.from_state else "new",
                event.to_state.value,
            )
            counts[key] = counts.get(key, 0) + 1
        return counts
