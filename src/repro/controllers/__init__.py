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

from repro.controllers.base import (
    BaseController,
    Controller,
    ShiftEvent,
    renormalize_with_floor,
    total_weight_movement,
)
from repro.controllers.registry import (
    ControllerSpec,
    available,
    create,
    get_spec,
    register,
    specs,
)

# Importing the law modules populates the registry.
from repro.controllers import alpha as _alpha  # noqa: F401
from repro.controllers.aimd import AimdConfig, AimdController
from repro.controllers.gradient import GradientConfig, GradientDescentController
from repro.controllers.knapsack import KnapsackConfig, KnapsackController
from repro.controllers.morpheus import MorpheusConfig, MorpheusController
from repro.controllers.proportional import (
    ProportionalConfig,
    ProportionalController,
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
