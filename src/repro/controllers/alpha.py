"""Registry entry for the paper's α-shift rule.

The controller itself lives in :mod:`repro.core.controller` — it is the
paper's contribution and predates the zoo — so this module only adapts
it into the registry.  It already satisfies the
:class:`~repro.controllers.base.Controller` protocol (``maybe_update``,
``updates``, ``stale_holds``); its ``ShiftEvent`` records carry a
``reason`` just as the zoo's ``WeightUpdate`` records do.
"""

from __future__ import annotations

from repro.controllers.registry import register
from repro.core.controller import AlphaShiftController


@register(
    "alpha",
    summary="shift fraction alpha of total traffic off the worst backend",
    provenance="the source paper's §3 rule (HotNets '22)",
)
def _make_alpha(pool, estimator, config):
    return AlphaShiftController(pool, estimator, config.controller)
