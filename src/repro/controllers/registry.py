"""The name-keyed controller registry.

Control laws register a *factory* under a short name; the feedback
plane (and the CLI, and the compare harness) construct controllers by
name without enumerating them.  A factory takes the shared signal
plane plus the full :class:`~repro.core.feedback.FeedbackConfig` —
each law picks its own tunables sub-config out of it — and returns an
object satisfying the :class:`~repro.controllers.base.Controller`
protocol.

Registering is declarative::

    @register(
        "proportional",
        summary="weights proportional to (1/latency)^p",
        provenance="open question #4",
    )
    def _make(pool, estimator, config):
        return ProportionalController(pool, estimator, config.proportional)

Unknown names raise :class:`~repro.errors.ConfigError` listing every
registered name, so a typo in ``feedback.strategy`` is a one-line fix
instead of a hunt.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, List

from repro.errors import ConfigError

# Type-only: repro.core imports this package (the feedback plane builds
# its law here), so importing repro.core at runtime would be circular.
if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from repro.core.estimator import BackendLatencyEstimator
    from repro.core.feedback import FeedbackConfig
    from repro.lb.backend import BackendPool


#: (pool, estimator, feedback_config) -> controller
Factory = Callable[
    ["BackendPool", "BackendLatencyEstimator", "FeedbackConfig"], object
]


@dataclass(frozen=True)
class ControllerSpec:
    """One registered control law: identity, factory, provenance."""

    name: str
    factory: Factory
    #: One-line description for docs and ``--help``.
    summary: str = ""
    #: Where the law comes from (paper section, arXiv id).
    provenance: str = ""


_REGISTRY: Dict[str, ControllerSpec] = {}


def register(
    name: str, summary: str = "", provenance: str = ""
) -> Callable[[Factory], Factory]:
    """Decorator: register ``factory`` under ``name``."""

    def decorate(factory: Factory) -> Factory:
        if name in _REGISTRY:
            raise ConfigError("controller %r registered twice" % name)
        _REGISTRY[name] = ControllerSpec(
            name=name, factory=factory, summary=summary, provenance=provenance
        )
        return factory

    return decorate


def available() -> List[str]:
    """All registered controller names, sorted."""
    return sorted(_REGISTRY)


def specs() -> List[ControllerSpec]:
    """All registered specs, sorted by name."""
    return [_REGISTRY[name] for name in sorted(_REGISTRY)]


def get_spec(name: str) -> ControllerSpec:
    """The spec registered under ``name``; ConfigError if unknown."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ConfigError(
            "unknown control strategy %r (registered: %s)"
            % (name, ", ".join(available()))
        ) from None


def create(
    name: str,
    pool: BackendPool,
    estimator: BackendLatencyEstimator,
    config: "FeedbackConfig",
):
    """Construct the controller registered under ``name``."""
    return get_spec(name).factory(pool, estimator, config)
