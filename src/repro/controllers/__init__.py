"""repro.controllers — the controller zoo.

A formal :class:`~repro.controllers.base.Controller` protocol, a
name-keyed registry, and every control law implemented against the
in-band signal plane:

========================  =============================================
``alpha``                 the paper's α-shift rule (§3)
``proportional``          weights ∝ (1/latency)^p (open question #4)
``aimd``                  TCP-style decrease/recover (open question #4)
``knapsack``              KnapsackLB binned solve (arXiv:2404.17783)
``gradient``              Balseiro/Mirrokni/Wydrowski gradient step
``morpheus``              Morpheus RTT prediction (arXiv:2510.20506)
========================  =============================================

The feedback plane constructs controllers by name
(:func:`~repro.controllers.registry.create`); ``repro compare`` races
the whole roster across the chaos presets.  Adding a law is one module
with a ``@register(...)`` factory — the CLI, sweeps, property tests,
and the leaderboard pick it up with no further wiring.
"""

from repro._exports import lazy_exports

# Importing the law modules populates the registry, so they stay eager:
# whoever imports any part of the package finds all six laws registered.
from repro.controllers import (  # noqa: F401
    aimd,
    alpha,
    gradient,
    knapsack,
    morpheus,
    proportional,
)

__all__ = [
    "AimdConfig",
    "AimdController",
    "BaseController",
    "Controller",
    "ControllerSpec",
    "GradientConfig",
    "GradientDescentController",
    "KnapsackConfig",
    "KnapsackController",
    "MorpheusConfig",
    "MorpheusController",
    "ProportionalConfig",
    "ProportionalController",
    "ShiftEvent",
    "available",
    "create",
    "get_spec",
    "register",
    "renormalize_with_floor",
    "specs",
    "total_weight_movement",
]

_EXPORTS = {
    "BaseController": ".base",
    "Controller": ".base",
    "ShiftEvent": ".base",
    "renormalize_with_floor": ".base",
    "total_weight_movement": ".base",
    "ControllerSpec": ".registry",
    "available": ".registry",
    "create": ".registry",
    "get_spec": ".registry",
    "register": ".registry",
    "specs": ".registry",
    "AimdConfig": ".aimd",
    "AimdController": ".aimd",
    "GradientConfig": ".gradient",
    "GradientDescentController": ".gradient",
    "KnapsackConfig": ".knapsack",
    "KnapsackController": ".knapsack",
    "MorpheusConfig": ".morpheus",
    "MorpheusController": ".morpheus",
    "ProportionalConfig": ".proportional",
    "ProportionalController": ".proportional",
}

__getattr__, __dir__ = lazy_exports(__name__, globals(), _EXPORTS)
