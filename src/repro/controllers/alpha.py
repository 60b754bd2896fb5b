"""Registry entry for the paper's α-shift rule.

The controller itself lives in :mod:`repro.core.controller` — it is the
paper's contribution and predates the zoo — so this module only adapts
it into the registry.  It satisfies the
:class:`~repro.controllers.base.Controller` protocol like every other
law, and its :class:`~repro.controllers.base.ShiftEvent` records also
fill in the worst-versus-best fields a zoo recompute leaves None.
"""

from __future__ import annotations

from repro.controllers.registry import register


@register(
    "alpha",
    summary="shift fraction alpha of total traffic off the worst backend",
    provenance="the source paper's §3 rule (HotNets '22)",
)
def _make_alpha(pool, estimator, config):
    # Imported here: repro.core.controller imports this package (for
    # ShiftEvent), so a module-level import would be circular.
    from repro.core.controller import AlphaShiftController

    return AlphaShiftController(pool, estimator, config.controller)
