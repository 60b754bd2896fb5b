"""Exception hierarchy for the repro package.

Every error raised by this library derives from :class:`ReproError`, so
callers can catch one type at an API boundary.  Subclasses partition the
failure domains: simulation scheduling, network configuration, transport
protocol violations, and load-balancer configuration.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class SimulationError(ReproError):
    """Misuse of the discrete-event engine (e.g. scheduling in the past)."""


class NetworkError(ReproError):
    """Bad network configuration: unknown nodes, missing pipes, etc."""


class TransportError(ReproError):
    """Violation of transport-protocol state (e.g. send on closed socket)."""


class ProtocolError(ReproError):
    """Malformed application-layer message."""


class BalancerError(ReproError):
    """Invalid load-balancer configuration (e.g. empty backend pool)."""


class ConfigError(ReproError, ValueError):
    """Invalid experiment/scenario configuration value (a ValueError too)."""


class SweepError(ReproError):
    """A sweep point failed permanently (runner error or worker crash)."""


class FleetError(ReproError):
    """Invalid fleet operation (e.g. an illegal lifecycle transition)."""


class InvariantViolation(ReproError):
    """A chaos campaign found a run that breaks a registered invariant.

    Carries the violations and, when the shrinker produced one, the
    path of the minimal-reproducer artifact (a JSON file replayable via
    ``repro chaos replay <artifact>``) so the failure is actionable
    from the exception alone.
    """

    def __init__(self, message: str, artifact: "str | None" = None):
        super().__init__(message)
        #: Path of the shrunk reproducer artifact, if one was written.
        self.artifact = artifact
