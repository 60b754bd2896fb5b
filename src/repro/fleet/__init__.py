"""The fleet plane: autoscaling and backend lifecycle.

The paper's open question #5 — does in-band feedback stay stable when
the backend set itself is elastic? — needs a fleet that actually moves:
:class:`AutoscalingGroup` evaluates declarative policies
(:class:`TargetTrackingPolicy`, :class:`StepPolicy`,
:class:`ScheduledAction`) and drives every backend through the
PROVISIONING → WARMING → IN_SERVICE → DRAINING → TERMINATED lifecycle
with warm-up weight ramps and conntrack-polled graceful drain.

Like the resilience and obs planes, the fleet plane is default-off and
structurally absent when disabled: ``FleetConfig(enabled=False)``
builds a byte-identical scenario.
"""

from repro._exports import lazy_exports

__all__ = [
    "AutoscalingGroup",
    "BUILTIN_METRICS",
    "BackendState",
    "FleetConfig",
    "FleetLifecycle",
    "LifecycleEvent",
    "ScalingDecision",
    "ScheduledAction",
    "StepPolicy",
    "TargetTrackingPolicy",
]

_EXPORTS = {
    "AutoscalingGroup": ".autoscaler",
    "ScalingDecision": ".autoscaler",
    "BUILTIN_METRICS": ".config",
    "FleetConfig": ".config",
    "ScheduledAction": ".config",
    "StepPolicy": ".config",
    "TargetTrackingPolicy": ".config",
    "BackendState": ".lifecycle",
    "FleetLifecycle": ".lifecycle",
    "LifecycleEvent": ".lifecycle",
}

__getattr__, __dir__ = lazy_exports(__name__, globals(), _EXPORTS)
