"""Routing policies: how the LB picks a backend for a *new* flow.

The paper's baseline is Maglev hashing; the feedback design is Maglev
with controller-driven weights, whose table is rebuilt lazily: only a
new flow needs it, so a weight change just marks it stale until the
next ``select``.  The rest are classic alternatives used
as comparison points in the policy-ablation bench: round-robin, uniform
random, weighted random, least-connections, and power-of-two-choices
(with an optional latency signal, approximating C3-style replica
ranking).

A policy only decides *new* flows; affinity for established flows is the
dataplane's job (conntrack).
"""

from __future__ import annotations

import random
import zlib
from typing import TYPE_CHECKING, Callable, Optional, Protocol

from repro.errors import BalancerError
from repro.lb.backend import BackendPool
from repro.lb.conntrack import ConnTrack
from repro.lb.maglev import MaglevTable
from repro.net.addr import FlowKey

if TYPE_CHECKING:  # pragma: no cover - resilience imports lb submodules
    from repro.resilience.breaker import BreakerBoard


class RoutingPolicy(Protocol):
    """Chooses a backend name for a new flow."""

    def select(self, flow: FlowKey, now: int) -> str:
        """Pick a backend for ``flow`` arriving at time ``now``."""
        ...


def _require_backends(pool: BackendPool) -> list:
    healthy = pool.healthy()
    if not healthy:
        raise BalancerError("no healthy backends available")
    return healthy


class MaglevPolicy:
    """Consistent hashing over the (weighted) Maglev table.

    A change to the pool's weights or membership only marks the table
    dirty; the first read after it (``select`` for a new flow, or
    ``table``) builds it from the pool's current healthy weights.  A full
    build depends on nothing but those weights, so every new flow sees
    the table an eager rebuild would have made, and weight changes no
    new flow reads cost nothing.  The ``builds`` counter on the table
    lets tests assert rebuild behaviour.
    """

    def __init__(
        self,
        pool: BackendPool,
        table_size: int = 65_537,
        incremental: bool = False,
    ):
        self.pool = pool
        self._table = MaglevTable(table_size, incremental=incremental)
        self._dirty = True
        if incremental:
            # A patch depends on the table before it, so an incremental
            # table applies every change as it happens, not at the next read.
            self._build()
            pool.on_change(self._build)
        else:
            pool.on_change(self._mark_dirty)

    def _mark_dirty(self) -> None:
        self._dirty = True

    def _build(self) -> None:
        self._dirty = False
        weights = {
            b.name: b.weight for b in self.pool.healthy()
        }
        if weights:
            self._table.build(weights)

    @property
    def table(self) -> MaglevTable:
        """The lookup table, built first if the pool changed since."""
        if self._dirty:
            self._build()
        return self._table

    def select(self, flow: FlowKey, now: int) -> str:
        _require_backends(self.pool)
        return self.table.lookup_flow(str(flow))


class BreakerGatedPolicy:
    """Wrap any policy with per-backend circuit breakers.

    The inner policy proposes a backend; if that backend's breaker
    refuses admission the flow is *diverted* to a deterministic
    alternative (hash of the flow over the admitted healthy backends),
    so diversion keeps consistent-hashing's stability property.  When
    every alternative is also refused the gate **fails open**: routing
    somewhere beats blackholing the flow, and the probe traffic is what
    lets a half-open breaker observe recovery.

    Attribute access falls through to the inner policy so callers that
    poke at e.g. ``MaglevPolicy.table`` keep working.
    """

    def __init__(
        self, inner: RoutingPolicy, pool: BackendPool, board: "BreakerBoard"
    ):
        self.inner = inner
        self.pool = pool
        self.board = board
        #: Flows steered away from an open backend.
        self.diverted = 0
        #: Flows sent to a refused backend because nothing else admitted.
        self.fail_open = 0

    def select(self, flow: FlowKey, now: int) -> str:
        choice = self.inner.select(flow, now)
        if self.board.allow(choice, now):
            return choice
        candidates = [
            b.name
            for b in sorted(self.pool.healthy(), key=lambda b: b.name)
            if b.name != choice and self.board.allow(b.name, now, admit=False)
        ]
        if not candidates:
            self.fail_open += 1
            return choice
        self.diverted += 1
        pick = candidates[zlib.crc32(str(flow).encode()) % len(candidates)]
        self.board.allow(pick, now, admit=True)
        return pick

    def __getattr__(self, name: str):
        return getattr(self.inner, name)


class RoundRobin:
    """Cycle through healthy backends."""

    def __init__(self, pool: BackendPool):
        self.pool = pool
        self._next = 0

    def select(self, flow: FlowKey, now: int) -> str:
        healthy = _require_backends(self.pool)
        backend = healthy[self._next % len(healthy)]
        self._next += 1
        return backend.name


class RandomPolicy:
    """Uniform random choice."""

    def __init__(self, pool: BackendPool, rng: random.Random):
        self.pool = pool
        self.rng = rng

    def select(self, flow: FlowKey, now: int) -> str:
        healthy = _require_backends(self.pool)
        return self.rng.choice(healthy).name


class WeightedRandom:
    """Random choice proportional to backend weights."""

    def __init__(self, pool: BackendPool, rng: random.Random):
        self.pool = pool
        self.rng = rng

    def select(self, flow: FlowKey, now: int) -> str:
        healthy = _require_backends(self.pool)
        total = sum(b.weight for b in healthy)
        if total <= 0:
            return self.rng.choice(healthy).name
        point = self.rng.random() * total
        cumulative = 0.0
        for backend in healthy:
            cumulative += backend.weight
            if point <= cumulative:
                return backend.name
        return healthy[-1].name


class LeastConnections:
    """Send new flows to the backend with the fewest tracked flows."""

    def __init__(self, pool: BackendPool, conntrack: ConnTrack):
        self.pool = pool
        self.conntrack = conntrack

    def select(self, flow: FlowKey, now: int) -> str:
        healthy = _require_backends(self.pool)
        return min(
            healthy, key=lambda b: (self.conntrack.active_flows(b.name), b.name)
        ).name


class PowerOfTwoChoices:
    """Sample two backends, keep the better one.

    "Better" is lower latency when a latency source is provided (and has
    an estimate for both candidates); otherwise fewer active flows.
    """

    def __init__(
        self,
        pool: BackendPool,
        conntrack: ConnTrack,
        rng: random.Random,
        latency_source: Optional[Callable[[str], Optional[float]]] = None,
    ):
        self.pool = pool
        self.conntrack = conntrack
        self.rng = rng
        self.latency_source = latency_source

    def select(self, flow: FlowKey, now: int) -> str:
        healthy = _require_backends(self.pool)
        if len(healthy) == 1:
            return healthy[0].name
        first, second = self.rng.sample(healthy, 2)
        if self.latency_source is not None:
            lat_a = self.latency_source(first.name)
            lat_b = self.latency_source(second.name)
            if lat_a is not None and lat_b is not None:
                return first.name if lat_a <= lat_b else second.name
        conns_a = self.conntrack.active_flows(first.name)
        conns_b = self.conntrack.active_flows(second.name)
        return first.name if conns_a <= conns_b else second.name
