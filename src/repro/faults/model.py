"""Typed fault specifications — the chaos plane's vocabulary.

A fault is *what* goes wrong (the subclass and its magnitude), *where*
(a target selector: a pipe direction plus a node-name glob), and *when*
(a start time plus an optional duration and recurrence).  Fault specs
are pure data: they do nothing until a
:class:`~repro.faults.schedule.FaultSchedule` expands them into concrete
activation windows and an :class:`~repro.faults.injector.Injector` binds
those windows to a built topology.

The vocabulary covers the disturbance classes the related work cares
about — delay spikes and RTT shifts (Fig 3 here; Morpheus's transient
interference), loss and throttled paths, heterogeneous/dynamic server
performance (KnapsackLB), GC-style pauses (§2.2), and crash/recover
churn (§2.5):

============================  =========================================
:class:`DelayFault`           extra one-way delay on matched pipes
:class:`JitterFault`          uniform per-packet jitter on matched pipes
:class:`LossFault`            random packet loss on matched pipes
:class:`ThrottleFault`        bandwidth cap on matched pipes
:class:`ServerSlowdownFault`  service-time multiplier on matched servers
:class:`ServerPauseFault`     stop-the-world pause on matched servers
:class:`CrashRestartFault`    backend leaves the pool, then returns
:class:`PartitionFault`       every pipe touching matched nodes goes dark
============================  =========================================

Recurrence: ``period=None`` is one-shot; a period repeats the fault's
active window every ``period`` ns until the run ends — ``duration <
period`` gives a flapping fault.  Overlapping instances compose (see the
schedule module for the per-knob composition law).
"""

from __future__ import annotations

import fnmatch
from dataclasses import dataclass, fields
from typing import Optional, Tuple

from repro.errors import ConfigError
from repro.units import MILLISECONDS, format_ns

#: Pipe directions a target selector can name.
LB_TO_SERVER = "lb->server"
CLIENT_TO_LB = "client->lb"
SERVER_TO_CLIENT = "server->client"
DIRECTIONS = (LB_TO_SERVER, CLIENT_TO_LB, SERVER_TO_CLIENT)


@dataclass
class FaultSpec:
    """Base fault: target selector + time window + recurrence.

    Parameters
    ----------
    start:
        Onset of the first activation (ns).
    duration:
        Length of each activation (ns); ``None`` keeps the fault active
        until the run ends.  Zero or negative durations are rejected —
        a fault that never does anything is a config bug.
    period:
        If set, the fault re-activates every ``period`` ns (requires a
        ``duration`` no longer than the period).
    node:
        Glob matched against node names (``fnmatch``): the server end
        for ``lb->server`` / ``server->client`` pipes, the client end
        for ``client->lb``, the server itself for server faults.
    direction:
        Which pipe set the selector addresses; ignored by server faults.
    """

    kind = "fault"

    start: int = 0
    duration: Optional[int] = None
    period: Optional[int] = None
    node: str = "*"
    direction: str = LB_TO_SERVER

    def validate(self) -> None:
        """Raise :class:`ConfigError` on malformed values."""
        if self.start < 0:
            raise ConfigError("%s fault start must be >= 0" % self.kind)
        if self.duration is not None and self.duration <= 0:
            raise ConfigError(
                "%s fault duration must be positive (got %r); use None "
                "for until-end-of-run" % (self.kind, self.duration)
            )
        if self.period is not None:
            if self.period <= 0:
                raise ConfigError("%s fault period must be positive" % self.kind)
            if self.duration is None:
                raise ConfigError(
                    "recurring %s fault needs a finite duration" % self.kind
                )
            if self.duration > self.period:
                raise ConfigError(
                    "%s fault duration exceeds its period" % self.kind
                )
        if not self.node:
            raise ConfigError("%s fault needs a node glob" % self.kind)
        if self.direction not in DIRECTIONS:
            raise ConfigError(
                "unknown direction %r (expected one of %s)"
                % (self.direction, ", ".join(DIRECTIONS))
            )
        self._validate_magnitude()

    def _validate_magnitude(self) -> None:
        """Subclass hook for magnitude-field checks."""

    def matches(self, name: str) -> bool:
        """Whether ``name`` satisfies the node glob."""
        return fnmatch.fnmatchcase(name, self.node)

    def describe(self) -> str:
        """Compact one-line rendering for reports and traces."""
        parts = ["%s(%s)" % (self.kind, self._describe_magnitude())]
        parts.append(self.node)
        if self.period is not None:
            parts.append("every %s" % format_ns(self.period))
        return " ".join(parts)

    def _describe_magnitude(self) -> str:
        return ""


@dataclass
class DelayFault(FaultSpec):
    """Extra one-way delay on matched pipes (additive when overlapping).

    The paper's Fig 3 stimulus is ``DelayFault(start=midpoint,
    extra=1 * MILLISECONDS, node="server0")``.
    """

    kind = "delay"

    extra: int = 1 * MILLISECONDS

    def _validate_magnitude(self) -> None:
        if self.extra < 0:
            raise ConfigError("delay fault extra must be >= 0")

    def _describe_magnitude(self) -> str:
        return "+%s" % format_ns(self.extra)


@dataclass
class JitterFault(FaultSpec):
    """Uniform random per-packet jitter in ``[0, amplitude)`` ns.

    Overlapping jitter faults draw independently and add.
    """

    kind = "jitter"

    amplitude: int = 100_000

    def _validate_magnitude(self) -> None:
        if self.amplitude <= 0:
            raise ConfigError("jitter fault amplitude must be positive")

    def _describe_magnitude(self) -> str:
        return "±%s" % format_ns(self.amplitude)


@dataclass
class LossFault(FaultSpec):
    """Random packet loss on matched pipes.

    Overlapping loss faults compose like independent lossy segments:
    ``1 - ∏(1 - pᵢ)``.
    """

    kind = "loss"

    prob: float = 0.01

    def _validate_magnitude(self) -> None:
        if not 0.0 < self.prob <= 1.0:
            raise ConfigError("loss fault prob must be in (0, 1]")

    def _describe_magnitude(self) -> str:
        return "p=%g" % self.prob


@dataclass
class ThrottleFault(FaultSpec):
    """Cap matched pipes' bandwidth (overlaps take the tightest cap).

    The throttle never speeds a link up: the effective wire speed is
    ``min(configured, cap)``.
    """

    kind = "throttle"

    bandwidth_bps: int = 1_000_000_000

    def _validate_magnitude(self) -> None:
        if self.bandwidth_bps <= 0:
            raise ConfigError("throttle fault bandwidth must be positive")

    def _describe_magnitude(self) -> str:
        return "%.0fMbps" % (self.bandwidth_bps / 1e6)


@dataclass
class ServerSlowdownFault(FaultSpec):
    """Multiply matched servers' service time (overlaps multiply).

    Models heterogeneous / dynamically degrading server performance
    (KnapsackLB's motivating regime) without touching the network.
    """

    kind = "slowdown"

    factor: float = 4.0

    def _validate_magnitude(self) -> None:
        if self.factor <= 0:
            raise ConfigError("slowdown fault factor must be positive")

    def _describe_magnitude(self) -> str:
        return "x%g" % self.factor


@dataclass
class ServerPauseFault(FaultSpec):
    """Stop-the-world pause: matched servers hold requests, then drain.

    The in-flight work already admitted keeps completing; requests that
    arrive during the pause are processed (in order) at resume — the
    shape of a GC or compaction stall (§2.2) at whole-server scale.
    """

    kind = "pause"

    def _describe_magnitude(self) -> str:
        return "stall"


@dataclass
class PartitionFault(FaultSpec):
    """Network partition: every pipe touching a matched node goes dark.

    The node glob is matched against *both endpoints* of every pipe in
    the fabric, so partitioning ``server0`` cuts the LB→server0 path,
    server0's direct return paths to every client, and any prober pipes
    — both directions, which is what distinguishes a partition from a
    lossy or throttled path.  The process itself keeps running: requests
    already admitted complete into a void, health probes time out, and
    the in-band signal goes silent rather than degraded — the
    fail-silent half of the gray-failure space.

    ``direction`` is ignored (a partition has no direction).
    """

    kind = "partition"

    def _describe_magnitude(self) -> str:
        return "cut"


@dataclass
class CrashRestartFault(FaultSpec):
    """Backend crash: matched backends leave the pool, then return.

    Rides the same machinery churn and health checking drive
    (``BackendPool.set_healthy``), so the Maglev table rebuilds and
    established flows keep their affinity exactly as they would for a
    failed health probe.  Crashing an already-unhealthy backend is a
    no-op, and such a window never "revives" a backend some other
    subsystem took down.
    """

    kind = "crash"

    def _describe_magnitude(self) -> str:
        return "down"


#: Fault classes that target pipes (selector direction is meaningful).
PIPE_FAULTS: Tuple[type, ...] = (DelayFault, JitterFault, LossFault, ThrottleFault)
#: Fault classes that target servers/backends (direction is ignored).
SERVER_FAULTS: Tuple[type, ...] = (
    ServerSlowdownFault,
    ServerPauseFault,
    CrashRestartFault,
)

#: Fault classes that cut whole nodes out of the fabric (direction and
#: pipe/server distinction are both ignored; the node glob is matched
#: against every pipe endpoint).
TOPOLOGY_FAULTS: Tuple[type, ...] = (PartitionFault,)

#: kind string → fault class, for parsers and presets.
FAULT_KINDS = {
    cls.kind: cls for cls in PIPE_FAULTS + SERVER_FAULTS + TOPOLOGY_FAULTS
}


def replace_window(fault: FaultSpec, start: int, duration: Optional[int]) -> FaultSpec:
    """Copy ``fault`` with a different one-shot window (drops recurrence)."""
    values = {f.name: getattr(fault, f.name) for f in fields(fault)}
    values.update(start=start, duration=duration, period=None)
    return type(fault)(**values)


def fault_to_dict(fault: FaultSpec) -> dict:
    """Serialize a fault spec to a plain JSON-ready dict (keyed by kind).

    The inverse of :func:`fault_from_dict`; campaign reproducer
    artifacts persist schedules this way so a violation found today can
    be replayed byte-identically tomorrow.
    """
    tree = {"kind": fault.kind}
    for f in fields(fault):
        tree[f.name] = getattr(fault, f.name)
    return tree


def fault_from_dict(tree: dict) -> FaultSpec:
    """Rebuild a fault spec from :func:`fault_to_dict` output."""
    if not isinstance(tree, dict) or "kind" not in tree:
        raise ConfigError("fault dict needs a 'kind' key, got %r" % (tree,))
    kind = tree["kind"]
    try:
        cls = FAULT_KINDS[kind]
    except KeyError:
        raise ConfigError(
            "unknown fault kind %r (expected one of %s)"
            % (kind, ", ".join(sorted(FAULT_KINDS)))
        ) from None
    names = {f.name for f in fields(cls)}
    unknown = sorted(set(tree) - names - {"kind"})
    if unknown:
        raise ConfigError(
            "unknown field(s) %s for %s fault" % (", ".join(unknown), kind)
        )
    fault = cls(**{k: v for k, v in tree.items() if k in names})
    fault.validate()
    return fault
